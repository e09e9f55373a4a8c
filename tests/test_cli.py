import csv
import json
import os
import time

import pytest
import yaml

from soze_sim.cli import main

from conftest import scenario_path


def write_scenario(tmp_path, raw, name="scenario.yaml"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return path


SMALL = {
    "name": "small",
    "topology": {"kind": "inline", "nodes": ["a", "b"],
                 "links": [{"src": "a", "dst": "b", "bandwidth": 100e9,
                            "prop_delay": 0.25e-6}]},
    "flows": [
        {"id": "p", "src": "a", "dst": "b", "weight": 3.0},
        {"id": "q", "src": "a", "dst": "b", "weight": 1.0},
    ],
    "sim": {"dt": 0.125e-6, "end_time": 0.5e-3},
}


def test_run_single_link_4flows(tmp_out, capsys):
    code = main([
        "run", scenario_path("single_link_4flows"),
        "--set", "sim.end_time=0.5e-3",
        "--out", tmp_out,
    ])
    assert code == 0
    summary = json.load(open(os.path.join(tmp_out, "single_link_4flows.summary.json")))
    epoch = summary["epochs"][0]
    assert epoch["convergence"]["converged"]
    for fid, rate in epoch["oracle"]["rates"].items():
        assert abs(rate - 25e9) / 25e9 < 1e-9
    # simulated rates land within 2% of the oracle
    assert epoch["convergence"]["final_fairness_error"] < 0.02


def test_run_writes_fixed_csv_columns(tmp_out):
    path = write_scenario(tmp_out, SMALL)
    assert main(["run", path, "--out", tmp_out]) == 0
    with open(os.path.join(tmp_out, "small.trace.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "time_s",
        "flow_p_rate_bps", "flow_q_rate_bps",
        "flow_p_signal_s", "flow_q_signal_s",
        "link_a->b_qdelay_s", "link_b->a_qdelay_s",
    ]
    assert len(rows) > 100


def test_malformed_config_exits_2_and_names_field(tmp_out, capsys):
    raw = yaml.safe_load(yaml.safe_dump(SMALL))
    raw["control"] = {"m": -3}
    path = write_scenario(tmp_out, raw)
    assert main(["run", path, "--out", tmp_out]) == 2
    err = capsys.readouterr().err
    assert "control" in err and "m" in err


def test_unknown_scenario_file_exits_2(tmp_out, capsys):
    assert main(["run", os.path.join(tmp_out, "missing.yaml")]) == 2


def test_require_converged_exit_3(tmp_out):
    raw = yaml.safe_load(yaml.safe_dump(SMALL))
    raw["require_converged"] = True
    raw["control"] = {"m": 2.5}  # diverges: fairness never reached
    path = write_scenario(tmp_out, raw)
    assert main(["run", path, "--out", tmp_out]) == 3


def test_summary_round_trips_through_json(tmp_out):
    from soze_sim import load_scenario
    from soze_sim.cli import execute_scenario

    path = write_scenario(tmp_out, SMALL)
    result = execute_scenario(load_scenario(path), tmp_out)
    loaded = json.load(open(result.summary_path))
    # the file re-parses to exactly the in-memory report
    assert loaded == result.summary
    assert loaded["lemma_report"]["fairness_ok"] is True
    assert loaded["epochs"][0]["oracle"]["rates"]["p"] == 75e9


def test_oracle_prints_epoch_table(capsys):
    code = main(["oracle", scenario_path("fig_maxmin")])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    x1 = [ep["allocation"]["rates"]["x1"] for ep in table["epochs"]]
    assert x1 == [40e9, 40e9, 50e9, pytest.approx(400e9 / 7), 62.5e9]
    # 40 Gbps plateau while switch 2 stays the trunk flows' bottleneck,
    # strictly increasing afterwards
    assert x1[0] == x1[1] == 40e9
    assert x1[1] < x1[2] < x1[3] < x1[4]


def test_oracle_weighted_split(capsys):
    assert main(["oracle", scenario_path("weighted_split")]) == 0
    table = json.loads(capsys.readouterr().out)
    rates = table["epochs"][0]["allocation"]["rates"]
    assert rates == {"w3": 75e9, "w1": 25e9}


def test_oracle_empty_flow_list(tmp_out, capsys):
    raw = {k: v for k, v in SMALL.items() if k != "flows"}
    path = write_scenario(tmp_out, raw)
    assert main(["oracle", path]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["epochs"][0]["allocation"] is None
    assert table["epochs"][0]["flows"] == []


def test_sweep_m_convergence_flags(tmp_out, capsys, monkeypatch):
    monkeypatch.setenv("SOZE_SIM_THREADS", "2")
    code = main([
        "sweep", scenario_path("m_sweep"),
        "--param", "m", "--values", "0.25,1.0,1.9,2.5",
        "--out", tmp_out,
    ])
    assert code == 0
    rows = json.load(open(os.path.join(tmp_out, "m_sweep.sweep_m.json")))
    flags = [row["converged"] for row in rows]
    assert flags == [True, True, True, False]
    assert [row["value"] for row in rows] == [0.25, 1.0, 1.9, 2.5]


def test_sweep_flow_count(tmp_out, capsys, monkeypatch):
    monkeypatch.setenv("SOZE_SIM_THREADS", "1")
    code = main([
        "sweep", scenario_path("single_link_nflows"),
        "--param", "flow_count", "--values", "4,8",
        "--set", "sim.end_time=0.6e-3",
        "--out", tmp_out,
    ])
    assert code == 0
    rows = json.load(open(
        os.path.join(tmp_out, "single_link_nflows.sweep_flow_count.json")
    ))
    assert [row["value"] for row in rows] == [4, 8]
    assert all(row["converged"] for row in rows)


def test_sweep_flow_count_judge_all_names_unsettled_epochs(tmp_out, capsys,
                                                          monkeypatch):
    monkeypatch.setenv("SOZE_SIM_THREADS", "1")
    code = main([
        "sweep", scenario_path("single_link_nflows"),
        "--param", "flow_count", "--values", "8",
        "--set", "sim.end_time=0.6e-3", "--set", "convergence.judge=all",
        "--out", tmp_out,
    ])
    assert code == 0
    [row] = json.load(open(
        os.path.join(tmp_out, "single_link_nflows.sweep_flow_count.json")
    ))
    summary = json.load(open(row["summary_path"]))
    # the 40 us join transients with 2, 3 and 5 flows cannot settle
    statuses = [ep["status"] for ep in summary["epochs"]]
    assert [i for i, s in enumerate(statuses) if s != "converged"] == [1, 2, 4]
    assert set(statuses) == {"converged", "not_settled"}
    assert all(ep["judged"] for ep in summary["epochs"])
    assert row["converged"] is False
    assert row["converged"] == summary["all_converged"]
    assert row["status"] == summary["status"]
    assert row["status"].startswith("not_settled in epoch 1 ")
    # the figures still come from the last judged epoch, which converged
    last = summary["epochs"][-1]["convergence"]
    assert row["convergence_rtts"] == last["convergence_rtts"]
    assert row["final_fairness_error"] == last["final_fairness_error"]
    assert "status=not_settled" in capsys.readouterr().out


def test_run_final_epoch_too_short_for_window(tmp_out, capsys):
    code = main([
        "run", scenario_path("single_link_nflows"),
        "--set", "sim.end_time=0.37e-3", "--out", tmp_out,
    ])
    assert code == 0
    summary = json.load(open(
        os.path.join(tmp_out, "single_link_nflows.summary.json")
    ))
    *earlier, final = summary["epochs"]
    # 10 us left after the last join, the window needs 20 us
    assert final["start"] == pytest.approx(0.36e-3)
    assert final["status"] == "too_short_for_window"
    assert final["judged"] is True
    assert final["convergence"]["converged"] is False
    assert "shorter than the 20-interval window" in final["convergence"]["error"]
    assert not any(ep["judged"] for ep in earlier)
    assert summary["all_converged"] is False
    assert summary["status"].startswith("too_short_for_window in epoch 9 ")
    out = capsys.readouterr().out
    assert "status=too_short_for_window (trace slice shorter" in out
    assert "[not judged]" in out


@pytest.mark.parametrize("setting, field", [
    ("convergence.eps=[1]", "convergence.eps"),
    ("convergence.eps=abc", "convergence.eps"),
    ("convergence.eps=-1", "convergence.eps"),
    ("convergence.window=0", "convergence.window"),
    ("convergence.judge=last", "convergence.judge"),
])
def test_bad_convergence_setting_exits_2_and_names_field(tmp_out, capsys,
                                                         setting, field):
    path = write_scenario(tmp_out, SMALL)
    assert main(["run", path, "--set", setting, "--out", tmp_out]) == 2
    assert field in capsys.readouterr().err
    assert main([
        "sweep", path, "--param", "m", "--values", "0.25",
        "--set", setting, "--out", tmp_out,
    ]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("setting, field", [
    ("control.p=.inf", "control.p"),
    ("control.rate_cap=.inf", "control.rate_cap"),
    ("sim.end_time=.inf", "sim.end_time"),
    ("sim.sampling_interval=.inf", "sim.sampling_interval"),
    ("sim.dt=.nan", "sim.dt"),
    ("flows.0.weight=.inf", "flows[0].weight"),
    ("flows.0.weight_schedule=[[0,1],[.inf,2]]", "schedule times"),
    ("topology.links.0.prop_delay=.nan", "propagation delay"),
])
def test_nonfinite_value_exits_2_and_names_field(tmp_out, capsys, setting,
                                                 field):
    path = write_scenario(tmp_out, SMALL)
    assert main(["run", path, "--set", setting, "--out", tmp_out]) == 2
    err = capsys.readouterr().err
    assert field in err
    # the section prefix is named once, not once per wrapping layer
    assert err.count(field.split(".")[0]) == 1
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(tmp_out, "small.trace.csv"))


@pytest.mark.parametrize("scenario, setting, field", [
    ("fat_tree_random", "flow_groups.0.weight.uniform=3",
     "flow_groups[0].weight.uniform"),
    ("weighted_split", "sim=5", "sim"),
    ("weighted_split", "control=[1]", "control"),
    ("weighted_split", "flows=5", "flows"),
    ("weighted_split", "flows.0.route=5", "flows[0].route"),
    ("fat_tree_random", "topology.K=4.7", "topology.K"),
    ("fat_tree_random", "flow_groups.0.count=2.9", "flow_groups[0].count"),
    ("weighted_split", "sim.seed=abc", "sim.seed"),
    ("single_link_nflows", "flow_groups.0.start_stagger.batches=x",
     "flow_groups[0].start_stagger.batches"),
])
def test_malformed_value_exits_2_and_names_field(capsys, scenario, setting,
                                                 field):
    assert main(["oracle", scenario_path(scenario), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: expected" in err
    assert "Traceback" not in err


def test_route_crossing_a_link_twice_exits_2(capsys):
    assert main(["oracle", scenario_path("weighted_split"), "--set",
                 "flows.0.route=[a->b, b->a, a->b]"]) == 2
    err = capsys.readouterr().err
    assert "'w3'" in err and "'a->b' twice" in err


def test_oversize_run_exits_2_before_allocating(tmp_out, capsys):
    path = write_scenario(tmp_out, SMALL)
    t0 = time.perf_counter()
    assert main(["run", path, "--set", "sim.end_time=1e7",
                 "--out", tmp_out]) == 2
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert "sim.end_time" in err and "sim.sampling_interval" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(tmp_out, "small.trace.csv"))


def test_sweep_parses_each_instance_once(tmp_out, monkeypatch):
    import soze_sim.cli as cli

    calls = []
    parse = cli.scenario_from_dict

    def counting(raw, overrides=()):
        calls.append(overrides)
        return parse(raw, overrides)

    monkeypatch.setattr(cli, "scenario_from_dict", counting)
    monkeypatch.setenv("SOZE_SIM_THREADS", "1")
    path = write_scenario(tmp_out, SMALL)
    assert main([
        "sweep", path, "--param", "m", "--values", "0.25,1.0",
        "--set", "control.k=4e-6", "--set", "sim.end_time=2e-5",
        "--out", tmp_out,
    ]) == 0
    # the base once (with the overrides), then each instance once
    assert calls == [["control.k=4e-6", "sim.end_time=2e-5"], (), ()]
    with open(os.path.join(tmp_out, "small.sweep_m.json")) as fh:
        rows = json.load(fh)
    for row, m in zip(rows, (0.25, 1.0)):
        with open(row["summary_path"]) as fh:
            control = json.load(fh)["control"]
        assert (control["m"], control["k"]) == (m, 4e-6)


def test_sweep_empty_values_exits_2(tmp_out, capsys):
    assert main([
        "sweep", scenario_path("m_sweep"), "--param", "m", "--values", "",
        "--out", tmp_out,
    ]) == 2


def test_sweep_unknown_param_exits_2(tmp_out, capsys):
    assert main([
        "sweep", scenario_path("m_sweep"), "--param", "zeta", "--values", "1",
        "--out", tmp_out,
    ]) == 2
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_builtin_step_in_out_runs(tmp_out):
    from soze_sim import load_scenario, mean_rates, run as run_sim

    sc = load_scenario(scenario_path("step_in_out"))
    trace = run_sim(sc.topology, sc.flows, sc.sim)
    # all three senders active around 1.4ms: equal thirds of the egress
    mid = mean_rates(trace, (1.3e-3, 1.45e-3))
    for fid in ("f0", "f1", "f2"):
        assert mid[fid] == pytest.approx(100e9 / 3, rel=0.02)
    # after both leave, the survivor re-expands
    end = mean_rates(trace, (2.4e-3, 2.5e-3))
    assert end["f0"] == pytest.approx(100e9, rel=0.02)
    assert end["f1"] == 0.0 and end["f2"] == 0.0


def test_builtin_granularity_sweep_resolves_per_mille_steps(tmp_out):
    from soze_sim import load_scenario, mean_rates, run as run_sim

    sc = load_scenario(scenario_path("granularity_sweep"))
    trace = run_sim(sc.topology, sc.flows, sc.sim)
    # final epoch: weights 1.035 : 1 -> g0 takes 50.86% of the link
    end = mean_rates(trace, (7.5e-3, 8.0e-3))
    expected = 100e9 * 1.035 / 2.035
    assert end["g0"] == pytest.approx(expected, rel=0.002)
    assert end["g1"] == pytest.approx(100e9 - expected, rel=0.002)


def test_run_is_deterministic_across_invocations(tmp_out):
    path = write_scenario(tmp_out, SMALL)
    out_a = os.path.join(tmp_out, "a")
    out_b = os.path.join(tmp_out, "b")
    assert main(["run", path, "--out", out_a]) == 0
    assert main(["run", path, "--out", out_b]) == 0
    ta = open(os.path.join(out_a, "small.trace.csv"), "rb").read()
    tb = open(os.path.join(out_b, "small.trace.csv"), "rb").read()
    assert ta == tb
