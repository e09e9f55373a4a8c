import csv
import json
import os
import time

import numpy as np
import pytest
import yaml

from soze_sim.cli import main

from conftest import mean_rates, run, scenario_path


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


def test_zero_base_rtt_converges_without_an_rtt_count(tmp_out):
    """Zero propagation delay everywhere makes the base RTT 0, so the
    convergence time has no count in RTTs."""
    assert main(["run", scenario_path("weighted_split"),
                 "--set", "topology.links.0.prop_delay=0",
                 "--set", "control.update_interval=1e-6",
                 "--out", tmp_out]) == 0
    with open(os.path.join(tmp_out, "weighted_split.summary.json")) as fh:
        conv = json.load(fh)["epochs"][0]["convergence"]
    assert conv["converged"] is True and conv["convergence_rtts"] is None


def test_unknown_scenario_file_exits_2(tmp_out, capsys):
    assert main(["run", os.path.join(tmp_out, "missing.yaml")]) == 2


def test_require_converged_exit_3(tmp_out):
    raw = yaml.safe_load(yaml.safe_dump(SMALL))
    raw["require_converged"] = True
    raw["control"] = {"m": 2.5}  # diverges: fairness never reached
    path = write_scenario(tmp_out, raw)
    assert main(["run", path, "--out", tmp_out]) == 3


def test_summary_round_trips_through_json(tmp_out):
    from dataclasses import fields

    from soze_sim import (
        AllocationResult, ConvergenceReport, LemmaReport, load_scenario)
    from soze_sim.cli import execute_scenario

    path = write_scenario(tmp_out, SMALL)
    result = execute_scenario(load_scenario(path), tmp_out)
    loaded = json.load(open(result.summary_path))
    # the file re-parses to exactly the in-memory report
    assert loaded == result.summary
    assert loaded["lemma_report"]["fairness_ok"] is True
    assert loaded["epochs"][0]["oracle"]["rates"]["p"] == 75e9
    # each report block holds exactly its report type's fields
    epoch = loaded["epochs"][0]
    for block, cls in ((epoch["oracle"], AllocationResult),
                       (epoch["convergence"], ConvergenceReport),
                       (loaded["lemma_report"], LemmaReport)):
        assert set(block) == {f.name for f in fields(cls)}, cls.__name__


def test_epoch_with_no_active_flows(tmp_out, capsys):
    """A gap between one flow's stop and the next one's start is an epoch
    with no oracle and no verdict."""
    from soze_sim import load_scenario
    from soze_sim.cli import execute_scenario

    sets = ["flows.0.stop=2e-4", "flows.1.start=3e-4", "sim.end_time=6e-4"]
    argv = ["run", scenario_path("weighted_split"), "--out", tmp_out]
    for spec in sets:
        argv += ["--set", spec]
    assert main(argv) == 0
    assert "epoch [0.0002, 0.0003s) no active flows" in capsys.readouterr().out
    with open(os.path.join(tmp_out, "weighted_split.summary.json")) as fh:
        summary = json.load(fh)
    first, gap, last = summary["epochs"]
    assert (gap["start"], gap["end"], gap["flows"]) == (2e-4, 3e-4, [])
    assert gap["oracle"] is None
    assert "status" not in gap and "convergence" not in gap
    assert (first["flows"], last["flows"]) == (["w3"], ["w1"])
    assert summary["all_converged"] is True
    result = execute_scenario(
        load_scenario(scenario_path("weighted_split"), sets), tmp_out)
    assert json.loads(json.dumps(result.summary)) == result.summary


def test_flow_stops_end_epochs(tmp_out):
    assert main(["run", scenario_path("step_in_out"), "--out", tmp_out]) == 0
    with open(os.path.join(tmp_out, "step_in_out.summary.json")) as fh:
        epochs = json.load(fh)["epochs"]
    # f1 and f2 join at 0.5 and 1 ms and stop at 2 and 1.5 ms
    assert [ep["end"] for ep in epochs] == [0.5e-3, 1e-3, 1.5e-3, 2e-3, 2.5e-3]
    assert [ep["flows"] for ep in epochs[2:]] == [
        ["f0", "f1", "f2"], ["f0", "f1"], ["f0"]]


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
    """A scenario without flows is refused by every command, naming
    ``flows``."""
    raw = {k: v for k, v in SMALL.items() if k != "flows"}
    path = write_scenario(tmp_out, raw)
    for argv in (["oracle", path],
                 ["run", path, "--out", tmp_out],
                 ["sweep", path, "--param", "m", "--values", "0.5",
                  "--out", tmp_out]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: flows: expected at least one flow")
        assert err.count("flows") == 1 and "Traceback" not in err
    assert os.listdir(tmp_out) == ["scenario.yaml"]


def test_sweep_m_convergence_flags(tmp_out, capsys):
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


def test_sweep_flow_count(tmp_out, capsys):
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


def test_sweep_fat_tree_size(tmp_out):
    assert main([
        "sweep", scenario_path("fat_tree_random"), "--param", "K",
        "--values", "4", "--set", "flow_groups.0.count=20",
        "--set", "sim.end_time=1e-4", "--out", tmp_out,
    ]) == 0
    with open(os.path.join(tmp_out, "fat_tree_random.sweep_K.json")) as fh:
        [row] = json.load(fh)
    assert (row["param"], row["value"]) == ("K", 4)


def test_sweep_with_an_empty_control_section(tmp_out):
    """A null section is made empty by the setter, as ``--set`` makes it."""
    raw = dict(SMALL, control=None, sim={"dt": 0.125e-6, "end_time": 2e-5})
    path = write_scenario(tmp_out, raw)
    assert main(["sweep", path, "--param", "m", "--values", "0.5",
                 "--out", tmp_out]) == 0
    with open(os.path.join(tmp_out, "small.m=0.5.summary.json")) as fh:
        assert json.load(fh)["control"]["m"] == 0.5


def test_sweep_flow_count_needs_flow_groups(tmp_out, capsys):
    assert main([
        "sweep", scenario_path("weighted_split"), "--param", "flow_count",
        "--values", "3", "--out", tmp_out,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep flow_count (flow_groups.0.count): "
                          "bad list index")
    assert "Traceback" not in err
    assert os.listdir(tmp_out) == []


def test_sweep_flow_count_judge_all_names_unsettled_epochs(tmp_out, capsys):
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
    # finite, but out of range
    ("flows.0.start=-1e-6", "flows[0]"),
    ("sim.dt=-1", "sim: dt must be > 0"),
    ("sim.packet_size=0", "sim: packet_size must be > 0"),
    ("sim.sampling_interval=1e-9", "sim: sampling_interval must be >= dt"),
    ("control.k=-1", "control: k must be >= 0"),
    ("control.rate_floor=0", "control: rate_floor must be > 0"),
    ("control.update_interval=0", "control: update_interval must be > 0"),
    ("flows.0.weight_schedule=[]", "flows[0]: flow 'p': empty weight schedule"),
    ("flows.1.stop=0", "flows[1]: flow 'q': stop time must be after start"),
    ("topology.nodes=[a,a,b]", "topology: duplicate node ids"),
    ("topology.links.0.dst=a", "topology: link 'a->a': self-loop"),
    ("topology={kind: star, n: 1}", "topology: star: need at least 2 hosts"),
    ("flow_groups=[{count: 1, src: random, dst: b}]",
     "flow_groups[0]: random endpoints need >= 2 hosts"),
    # a route from src to dst is named by its flow or its group
    ("flows.0.dst=a", "flows[0]: route: src == dst ('a')"),
    ("flow_groups=[{count: 1, src: a, dst: a}]",
     "flow_groups[0]: route: src == dst ('a')"),
    ("sim.dt.x=1", "override sim.dt.x: no 'x' in a float"),
    ("flows=[]", "flows: expected at least one flow"),
    # valid alone, refused by the engine at set-up
    ("topology.links.0.prop_delay=0", "control.update_interval"),
    ("sim.dt=1e-5", "sim.dt"),
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
    ("fat_tree_random", "flow_groups.0.weight={uniform: [0, 0]}",
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
    ("weighted_split", "flows.0.weight=true", "flows[0].weight"),
    ("weighted_split", "flows.0.weight_schedule=[[0.0, true]]",
     "flows[0].weight_schedule"),
    ("weighted_split", 'require_converged="false"', "require_converged"),
    ("weighted_split", "require_converged=1", "require_converged"),
    ("weighted_split", "name=[1,2]", "name"),
    ("weighted_split", "name=runs/w", "name"),
    ("weighted_split", "flows.0.id=[1]", "flows[0].id"),
    ("weighted_split", "flows.0.id={a: 1}", "flows[0].id"),
    ("weighted_split", "flows.0.id=true", "flows[0].id"),
    ("weighted_split", "flows.0.id=1.5", "flows[0].id"),
    ("weighted_split", "flows.0.id=null", "flows[0].id"),
    ("weighted_split", 'flows.0.id=""', "flows[0].id"),
    ("weighted_split", "flows.0.controller=[soze]", "flows[0].controller"),
    ("weighted_split", "default_controller=null", "default_controller"),
    ("fat_tree_random", "flow_groups.0.id_prefix=[r]",
     "flow_groups[0].id_prefix"),
    ("fat_tree_random", "flow_groups.0.controller=false",
     "flow_groups[0].controller"),
    ("weighted_split", "topology.links.0.bandwidth=true",
     "topology.links[0].bandwidth"),
    ("weighted_split", "topology.links.0.prop_delay=true",
     "topology.links[0].prop_delay"),
    ("weighted_split", "topology.links.0.bidirectional=maybe",
     "topology.links[0].bidirectional"),
    ("weighted_split", "topology.links.0.id=[1]", "topology.links[0].id"),
    ("fig_maxmin", "topology.nodes.2=[c]", "topology.nodes[2]"),
    ("weighted_split", "topology.links.0=5", "topology.links[0]"),
    ("weighted_split", "sim.signal_delay_mode=[1]", "sim.signal_delay_mode"),
    ("weighted_split", "sim.update_mode=x", "sim.update_mode"),
    ("weighted_split", "flows.0.weight=[1", "override flows.0.weight"),
    ("weighted_split", "name=..", "name"),
    ("weighted_split", "flows.0.src=[a]", "flows[0].src"),
    ("weighted_split", "flows.0.dst={b: 1}", "flows[0].dst"),
    ("weighted_split", "flows.0.route=[a->b,[x]]", "flows[0].route[1]"),
    ("fat_tree_random", "flow_groups.0.dst=[r]", "flow_groups[0].dst"),
    ("single_link_nflows", "flow_groups.0.src=true", "flow_groups[0].src"),
    ("weighted_split", "flows=[]", "flows"),
])
def test_malformed_value_exits_2_and_names_field(capsys, scenario, setting,
                                                 field):
    assert main(["oracle", scenario_path(scenario), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: expected" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scenario, setting, field", [
    ("weighted_split", "bogus=1", "bogus"),
    ("weighted_split", "control.pp=1", "control.pp"),
    ("weighted_split", "aimd.threshhold=1e-5", "aimd.threshhold"),
    ("weighted_split", "aimd.packet_size=8000", "aimd.packet_size"),
    ("weighted_split", "sim.dtt=1", "sim.dtt"),
    ("weighted_split", "sim.control=1", "sim.control"),
    ("weighted_split", "flows.0.wieght=3", "flows[0].wieght"),
    ("weighted_split", "topology.links.0.bw=1", "topology.links[0].bw"),
    ("weighted_split", "topology.K=4", "topology.K"),
    ("fat_tree_random", "topology.nodes=[a]", "topology.nodes"),
    ("fat_tree_random", "flow_groups.0.cnt=3", "flow_groups[0].cnt"),
    ("fat_tree_random", "flow_groups.0.weight.normal=1",
     "flow_groups[0].weight.normal"),
    ("single_link_nflows", "flow_groups.0.start_stagger.batch=2",
     "flow_groups[0].start_stagger.batch"),
    ("weighted_split", "convergence.epsilon=0.1", "convergence.epsilon"),
    ("weighted_split", "outputs.trace=t.csv", "outputs"),
    ("weighted_split", "outputs={trace: x.csv, summary: x.csv}", "outputs"),
])
def test_unknown_key_exits_2_and_names_it(capsys, scenario, setting, field):
    """A misspelt key would leave its field at the default unnoticed."""
    assert main(["oracle", scenario_path(scenario), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: unknown key" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    b"name: broken\ntopology: {kind: star\nflows: [\n",
    b"name: \xff\xfe\n",
])
@pytest.mark.parametrize("command", ["run", "sweep", "oracle"])
def test_malformed_yaml_file_exits_2_and_names_file(tmp_out, capsys, command,
                                                    text):
    path = os.path.join(tmp_out, "broken.yaml")
    with open(path, "wb") as fh:
        fh.write(text)
    argv = [command, path]
    if command == "sweep":
        argv += ["--param", "m", "--values", "0.25"]
    if command != "oracle":
        argv += ["--out", tmp_out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: expected valid YAML" in err
    assert "Traceback" not in err


def test_sweep_on_a_top_level_list_exits_2(tmp_out, capsys):
    path = write_scenario(tmp_out, [SMALL])
    assert main(["sweep", path, "--param", "m", "--values", "0.25",
                 "--out", tmp_out]) == 2
    err = capsys.readouterr().err
    assert "error: top level: expected a mapping" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("values", [
    "[", "", ",",
    # each value names its instance's files: a repeat would overwrite them
    "0.5,0.5", "0.5,0.50", "20e-6,2e-05",
])
def test_bad_sweep_values_exit_2_and_name_the_flag(tmp_out, capsys, values):
    path = write_scenario(tmp_out, SMALL)
    assert main(["sweep", path, "--param", "m", "--values", values,
                 "--out", tmp_out]) == 2
    err = capsys.readouterr().err
    assert "error: --values: expected" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_out) == ["scenario.yaml"]


def test_sweep_reads_exponent_values_as_numbers(tmp_out):
    """YAML 1.1 reads ``20e-6`` (no dot) as a string; a sweep value reads it
    as the float YAML 1.2 does, in its row and in its stem."""
    path = write_scenario(tmp_out, SMALL)
    assert main(["sweep", path, "--param", "p", "--values", "20e-6,1.0e-5",
                 "--set", "sim.end_time=2e-5", "--out", tmp_out]) == 0
    with open(os.path.join(tmp_out, "small.sweep_p.json")) as fh:
        rows = json.load(fh)
    assert [row["value"] for row in rows] == [2e-05, 1e-05]
    assert [row["summary_path"] for row in rows] == [
        os.path.join(tmp_out, f"small.p={p}.summary.json")
        for p in ("2e-05", "1e-05")]
    assert sorted(os.listdir(tmp_out)) == [
        "scenario.yaml", "small.p=1e-05.summary.json", "small.p=1e-05.trace.csv",
        "small.p=2e-05.summary.json", "small.p=2e-05.trace.csv",
        "small.sweep_p.json"]


def test_events_outside_the_run_open_no_epoch(tmp_out):
    """A weight step before 0 applies at step 0 and opens no epoch; a stop
    at or after ``end_time`` is in neither the trace's events nor the
    epochs."""
    from soze_sim import load_scenario
    from soze_sim.cli import epoch_allocations

    path = write_scenario(tmp_out, SMALL)
    for stop in ("1e-3", "2e-3"):    # at and after end_time
        sc = load_scenario(path, [
            "sim.end_time=1e-3", f"flows.1.stop={stop}",
            "flows.0.weight_schedule=[[-1e-6, 2.0], [5e-4, 1.0]]"])
        trace = run(sc.topology, sc.flows, sc.sim)
        assert [(e.time, e.kind, e.flow_id, e.value) for e in trace.events] == [
            (0.0, "start", "p", None), (0.0, "start", "q", None),
            (0.0, "weight", "p", 2.0), (0.0, "weight", "q", 1.0),
            (4000 * sc.sim.dt, "weight", "p", 1.0)]
        epochs = epoch_allocations(sc)
        assert [(t0, t1) for t0, t1, _, _ in epochs] == [(0.0, 5e-4),
                                                         (5e-4, 1e-3)]
        assert [[f.id for f in active] for _, _, active, _ in epochs] == [
            ["p", "q"], ["p", "q"]]
        assert epochs[0][3].rates["p"] == pytest.approx(2 * epochs[0][3].rates["q"])


def test_route_crossing_a_link_twice_exits_2(capsys):
    assert main(["oracle", scenario_path("weighted_split"), "--set",
                 "flows.0.route=[a->b, b->a, a->b]"]) == 2
    err = capsys.readouterr().err
    assert "'w3'" in err and "'a->b' twice" in err


@pytest.mark.parametrize("setting", [
    "default_controller=aimd",
    "sim.update_mode=per_packet",
])
def test_zero_base_rtt_needs_prop_delay_whatever_the_interval(
        tmp_out, capsys, setting):
    """AIMD divides by the base RTT and per_packet needs dt under a quarter
    of it, so an update interval cannot stand in for propagation delay."""
    assert main(["run", scenario_path("weighted_split"),
                 "--set", "topology.links.0.prop_delay=0",
                 "--set", "control.update_interval=1e-6",
                 "--set", setting, "--out", tmp_out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: prop_delay: flow 'w3' has zero base RTT")
    assert "route a->b" in err and "Traceback" not in err
    assert os.listdir(tmp_out) == []


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


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("scenario, setting, field", [
    ("single_link_nflows", "flow_groups.0.count=1000000000000",
     "flow_groups[0].count"),
    ("fat_tree_random", "topology.K=1000000", "topology.K"),
])
def test_absurd_size_exits_2_before_building(tmp_out, capsys, command,
                                             scenario, setting, field):
    argv = [command, scenario_path(scenario), "--set", setting]
    if command == "run":
        argv += ["--out", tmp_out]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert f"error: {field}: " in err and "physical memory" in err
    assert "Traceback" not in err


def test_sweep_parses_each_instance_once(tmp_out, monkeypatch):
    import soze_sim.cli as cli

    calls = []
    parse, load = cli.scenario_from_dict, cli.load_scenario

    def counting(raw, overrides=()):
        calls.append(overrides)
        return parse(raw, overrides)

    def counting_load(path, overrides=()):
        calls.append(overrides)
        return load(path, overrides)

    monkeypatch.setattr(cli, "scenario_from_dict", counting)
    monkeypatch.setattr(cli, "load_scenario", counting_load)
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


@pytest.mark.parametrize("values", ["1.0,0.25", "0.25,1.0"])
def test_sweep_instance_equals_a_standalone_run(tmp_out, values):
    """Instances share one process; none may leak state into the next."""
    short = ["--set", "sim.end_time=2e-5"]
    sweep_dir = os.path.join(tmp_out, "sweep")
    assert main(["sweep", scenario_path("m_sweep"), "--param", "m",
                 "--values", values, *short, "--out", sweep_dir]) == 0
    for m in values.split(","):
        run_dir = os.path.join(tmp_out, f"run_m={m}")
        assert main(["run", scenario_path("m_sweep"), *short,
                     "--set", f"control.m={m}", "--out", run_dir]) == 0
        with open(os.path.join(sweep_dir, f"m_sweep.m={m}.trace.csv"),
                  "rb") as fh:
            swept = fh.read()
        with open(os.path.join(run_dir, "m_sweep.trace.csv"), "rb") as fh:
            assert fh.read() == swept


def test_all_aimd_per_packet_runs_as_per_rtt(tmp_out):
    """per_packet gates only Soze flows, so with none it changes nothing."""
    from soze_sim import load_scenario

    path = scenario_path("single_link_4flows")
    aimd = ["default_controller=aimd"]
    per_packet = [*aimd, "sim.update_mode=per_packet"]
    assert main(["run", path, "--set", per_packet[0], "--set", per_packet[1],
                 "--out", tmp_out]) == 0
    packet, rtt = (
        run(sc.topology, sc.flows, sc.sim)
        for sc in (load_scenario(path, per_packet), load_scenario(path, aimd))
    )
    for name in ("times", "rates", "signals", "queue_delays"):
        assert np.array_equal(getattr(packet, name), getattr(rtt, name)), name


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
    assert os.listdir(tmp_out) == []


def test_builtin_step_in_out_runs(tmp_out):
    from soze_sim import load_scenario

    sc = load_scenario(scenario_path("step_in_out"))
    trace = run(sc.topology, sc.flows, sc.sim)
    # all three senders active around 1.4ms: equal thirds of the egress
    mid = mean_rates(trace, (1.3e-3, 1.45e-3))
    for fid in ("f0", "f1", "f2"):
        assert mid[fid] == pytest.approx(100e9 / 3, rel=0.02)
    # after both leave, the survivor re-expands
    end = mean_rates(trace, (2.4e-3, 2.5e-3))
    assert end["f0"] == pytest.approx(100e9, rel=0.02)
    assert end["f1"] == 0.0 and end["f2"] == 0.0


def test_builtin_granularity_sweep_resolves_per_mille_steps(tmp_out):
    from soze_sim import load_scenario

    sc = load_scenario(scenario_path("granularity_sweep"))
    trace = run(sc.topology, sc.flows, sc.sim)
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
