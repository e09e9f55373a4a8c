import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soze_sim import (
    ControlParams,
    FlowSpec,
    SimConfig,
    Trace,
    convergence_time,
    target_delay,
    water_fill,
)
from soze_sim import metrics
from soze_sim.fluid import TraceEvent
from soze_sim.metrics import _settle_time
from soze_sim.oracle import AllocationResult

from conftest import (
    default_params,
    flow_on_link,
    mean_rates,
    run,
    single_link,
    target_delay_error,
    utilization,
)


def synthetic_trace(rate_series: dict[str, np.ndarray], dt: float = 1e-6,
                    events=()) -> Trace:
    fids = tuple(rate_series)
    n = len(next(iter(rate_series.values())))
    rates = np.column_stack([rate_series[f] for f in fids])
    return Trace(
        times=np.arange(n) * dt,
        flow_ids=fids,
        link_ids=("l",),
        rates=rates,
        signals=np.zeros_like(rates),
        queue_delays=np.zeros((n, 1)),
        events=tuple(events),
        routes={f: ("l",) for f in fids},
        base_rtts={f: 1e-6 for f in fids},
        bandwidths={"l": 100e9},
        control_intervals={f: 1e-6 for f in fids},
        sampling_interval=dt,
    )


def allocation(rates: dict[str, float]) -> AllocationResult:
    return AllocationResult(
        rates=dict(rates),
        bottlenecks={f: "l" for f in rates},
        fair_share={"l": min(rates.values())},
        weights={f: 1.0 for f in rates},
    )


def test_already_converged_trace_reports_zero():
    tr = synthetic_trace({"a": np.full(100, 25e9), "b": np.full(100, 75e9)})
    rep = convergence_time(tr, allocation({"a": 25e9, "b": 75e9}))
    assert rep.converged and rep.convergence_time == 0.0
    assert rep.convergence_rtts == 0.0
    assert rep.final_fairness_error == 0.0


def test_rate_oscillation_matches_per_flow_series():
    rng = np.random.default_rng(4)
    series = {f"f{i}": 1e9 * (5 + rng.standard_normal(400)) for i in range(6)}
    series["idle"] = np.zeros(400)
    series["sign"] = np.where(np.arange(400) % 2, 1e9, -1e9)
    tr = synthetic_trace(series)
    rates = {fid: 1e9 for fid in reversed(series)}
    rep = convergence_time(tr, allocation(rates), window=50)
    lo = int(np.searchsorted(tr.times, tr.times[-1] - 50e-6 - 1e-15))
    expected = {}
    for fid in rates:
        steady = tr.rates[lo:, tr.flow_ids.index(fid)]
        mean = float(steady.mean())
        expected[fid] = float(steady.std() / mean) if mean > 0 else 0.0
    assert list(rep.rate_oscillation.items()) == list(expected.items())
    assert rep.rate_oscillation["idle"] == 0.0


def test_never_converging_trace():
    tr = synthetic_trace({"a": np.full(100, 10e9)})
    rep = convergence_time(tr, allocation({"a": 25e9}))
    assert not rep.converged
    assert rep.convergence_time is None and rep.convergence_rtts is None
    assert rep.final_fairness_error == pytest.approx(0.6)


def test_exponential_approach_detected_at_analytic_crossing():
    dt = 1e-6
    eps = 0.05
    tau = 20e-6
    t = np.arange(400) * dt
    target = 25e9
    series = target * (1.0 - 0.8 * np.exp(-t / tau))
    tr = synthetic_trace({"a": series}, dt=dt)
    rep = convergence_time(tr, allocation({"a": target}), eps=eps)
    analytic = tau * math.log(0.8 / eps)  # first time the error dips below eps
    assert rep.converged
    assert abs(rep.convergence_time - analytic) <= dt + 1e-12


def test_convergence_measured_from_last_event():
    dt = 1e-6
    n = 300
    series = np.full(n, 25e9)
    series[:150] = 10e9  # wrong until an event at 150us fixes it
    tr = synthetic_trace(
        {"a": series}, dt=dt,
        events=(TraceEvent(150e-6, "weight", "a", 2.0),),
    )
    rep = convergence_time(tr, allocation({"a": 25e9}))
    assert rep.converged
    assert rep.convergence_time == pytest.approx(0.0, abs=dt)


def test_window_must_fit():
    tr = synthetic_trace({"a": np.full(10, 25e9)})
    with pytest.raises(ValueError, match="window"):
        convergence_time(tr, allocation({"a": 25e9}), window=50)
    with pytest.raises(ValueError, match="fewer than two samples"):
        convergence_time(tr, allocation({"a": 25e9}), start=3e-6, end=3e-6)
    empty = AllocationResult(rates={}, bottlenecks={}, fair_share={},
                             weights={})
    with pytest.raises(ValueError, match="allocation has no flows"):
        convergence_time(tr, empty)


def test_utilization_saturating_flow():
    topo = single_link(prop_delay=0.25e-6)
    control = default_params(rate_cap=120e9)
    cfg = SimConfig(dt=0.125e-6, end_time=1e-3, control=control)
    tr = run(topo, [flow_on_link("f")], cfg)
    u = utilization(tr, "a->b", (0.6e-3, 1e-3))
    assert u == pytest.approx(1.0, abs=1e-3)
    assert utilization(tr, "b->a", (0.6e-3, 1e-3)) == 0.0
    with pytest.raises(ValueError, match="unknown link"):
        utilization(tr, "nope", (0.0, 1e-3))


def test_utilization_matches_the_convergence_report():
    rng = np.random.default_rng(3)
    tr = synthetic_trace({f"f{i}": rng.uniform(1e9, 9e9, 200) for i in range(12)})
    rates = {f: float(tr.rates[-1, i]) for i, f in enumerate(tr.flow_ids)}
    rep = convergence_time(tr, allocation(rates))
    steady = (tr.times[-1] - 20 * 1e-6, tr.times[-1])
    assert rep.utilization["l"] == utilization(tr, "l", steady)


def test_batched_utilization_equals_the_per_link_sums():
    """The report reduces the links that carry equally many flows together;
    every link, idle or shared by up to 40 flows, gets exactly the per-link
    mean, in link order."""
    rng = np.random.default_rng(8)
    n_flows, n_links, samples = 40, 9, 300
    links = tuple(f"l{i}" for i in range(n_links))
    # l0 carries every flow, l8 none; l1..l6 carry 12 to 15 flows each
    # (three of them 13), l7 every fifth flow
    routes = {f"f{j}": ("l0", f"l{1 + j % 3}", f"l{4 + j // 3 % 3}")
              + (("l7",) if j % 5 == 0 else ()) for j in range(n_flows)}
    # rates over five decades, so the order of each sum shows in its bits
    rates = 10.0 ** rng.uniform(6.0, 11.0, (samples, n_flows))
    fids = tuple(routes)
    tr = Trace(
        times=np.arange(samples) * 1e-6, flow_ids=fids, link_ids=links,
        rates=rates, signals=np.zeros_like(rates),
        queue_delays=np.zeros((samples, n_links)), events=(), routes=routes,
        base_rtts=dict.fromkeys(fids, 1e-6),
        bandwidths={lid: 100e9 + 7e9 * i for i, lid in enumerate(links)},
        control_intervals=dict.fromkeys(fids, 1e-6), sampling_interval=1e-6,
    )
    counts = [sum(lid in r for r in routes.values()) for lid in links]
    assert len(set(counts)) < n_links and counts[0] == n_flows and counts[-1] == 0
    rep = convergence_time(tr, allocation(dict.fromkeys(fids, 5e9)),
                           window=200)
    steady = (tr.times[-1] - 200 * 1e-6, tr.times[-1])
    assert list(rep.utilization) == list(links)
    assert rep.utilization == {lid: utilization(tr, lid, steady) for lid in links}
    assert rep.utilization["l8"] == 0.0


@pytest.mark.parametrize("cells", [1, 7, 40, 1 << 16])
def test_chunked_fairness_series_equals_the_one_shot_expression(monkeypatch, cells):
    """Row chunks of any size, over allocated flows listed in another order
    than the trace's columns, give the one-shot series bit for bit."""
    monkeypatch.setattr(metrics, "_SERIES_CELLS", cells)
    rng = np.random.default_rng(11)
    rates = {f"f{i}": 10.0 ** rng.uniform(6.0, 11.0, 101) for i in range(9)}
    rates["f4"][::3] = 0.0
    tr = synthetic_trace(rates)
    oracle = {f: float(rng.uniform(1e8, 1e10)) for f in ("f7", "f2", "f5", "f0")}
    col = {fid: i for i, fid in enumerate(tr.flow_ids)}
    idx = [col[f] for f in oracle]
    want = np.max(np.abs(tr.rates[5:97, idx] - np.array(list(oracle.values())))
                  / np.array(list(oracle.values())), axis=1)
    got = metrics._fairness_series(tr, allocation(oracle), 5, 97, col)
    assert got.tobytes() == want.tobytes()


def test_four_flow_utilization_at_least_99_percent():
    topo = single_link(prop_delay=0.25e-6)
    flows = [flow_on_link(f"f{i}") for i in range(4)]
    cfg = SimConfig(dt=0.125e-6, end_time=1.5e-3, control=ControlParams())
    tr = run(topo, flows, cfg)
    assert utilization(tr, "a->b", (1.0e-3, 1.5e-3)) >= 0.99


def test_target_delay_error_single_flow():
    topo = single_link(prop_delay=0.25e-6)
    control = default_params(rate_cap=120e9)
    cfg = SimConfig(dt=0.125e-6, end_time=1e-3, control=control)
    tr = run(topo, [flow_on_link("f")], cfg)
    err = target_delay_error(tr, "a->b", 100e9, control, (0.6e-3, 1e-3))
    assert err < 0.02


def test_doubling_weight_raises_queue_to_new_target():
    """Adding weight lowers the fair share, and the queue must climb to the
    higher delay the target function assigns to it."""
    topo = single_link(prop_delay=0.25e-6)
    flows = [
        FlowSpec("w", ("a->b",), ((0.0, 1.0), (1.0e-3, 2.0))),
        flow_on_link("x1"), flow_on_link("x2"), flow_on_link("x3"),
    ]
    cfg = SimConfig(dt=0.125e-6, end_time=2.2e-3, control=ControlParams())
    tr = run(topo, flows, cfg)
    params = default_params()
    before = target_delay_error(tr, "a->b", 25e9, params, (0.8e-3, 1.0e-3))
    after = target_delay_error(tr, "a->b", 20e9, params, (2.0e-3, 2.2e-3))
    assert before < 0.05 and after < 0.05
    d_before = float(tr.queue_delays[
        (tr.times >= 0.8e-3) & (tr.times < 1.0e-3), 0].mean())
    d_after = float(tr.queue_delays[tr.times >= 2.0e-3, 0].mean())
    assert d_after > d_before
    assert d_after == pytest.approx(target_delay(20e9, params), rel=0.05)


def test_zero_expected_target_rejected():
    tr = synthetic_trace({"a": np.full(50, 1e9)})
    bad = ControlParams(p=20e-6, k=0.0, alpha=100e9, beta=0.1e9)
    with pytest.raises(ValueError, match="zero"):
        target_delay_error(tr, "l", 100e9, bad, (0.0, 40e-6))


def test_convergence_rtts_stable_under_dt_refinement():
    topo = single_link(prop_delay=0.25e-6)
    flows = [flow_on_link("p", 2.0), flow_on_link("q", 1.0)]
    alloc = water_fill(topo, flows)
    rtts = []
    for dt in (0.125e-6, 0.0625e-6):
        cfg = SimConfig(dt=dt, end_time=1e-3, control=ControlParams(),
                        sampling_interval=0.5e-6)
        rep = convergence_time(run(topo, flows, cfg), alloc)
        assert rep.converged
        rtts.append(rep.convergence_rtts)
    # refining the integration must not move the detection point by more
    # than one control interval (= one RTT here)
    assert abs(rtts[0] - rtts[1]) <= 1.0 + 1e-9


def test_mean_rates_window():
    tr = synthetic_trace({"a": np.linspace(0, 100, 101)})
    out = mean_rates(tr, (50e-6, 100e-6))
    assert out["a"] == pytest.approx(75.0)


def settle_time_loop(times, errs, after, eps, need):
    """The per-sample scan that ``_settle_time`` replaced: skip samples
    before ``after``, count the current run of samples with ``err <= eps``,
    and stop at the first run of ``need``."""
    run_len = 0
    first_ok = None
    for i in range(len(times)):
        if times[i] < after - 1e-15:
            continue
        if errs[i] <= eps:
            if first_ok is None:
                first_ok = i
            run_len += 1
            if run_len >= need:
                return float(times[first_ok]) - after
        else:
            run_len = 0
            first_ok = None
    return None


_ERR = st.one_of(st.floats(0.0, 0.08), st.just(0.05), st.just(math.nan),
                 st.just(math.inf))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_ERR, min_size=1, max_size=60), st.integers(1, 8),
       st.integers(-3, 30), st.sampled_from([0.05, 0.1, 0.0]))
def test_settle_time_equals_the_per_sample_scan(errs, need, start, eps):
    """Same result, bit for bit, as the loop it replaced: runs cut by misses
    and NaNs, ``after`` before, on and between samples, runs too short."""
    times = np.arange(len(errs)) * 1e-6
    errs = np.array(errs)
    after = start * 0.5e-6
    assert _settle_time(times, errs, after, eps, need) == settle_time_loop(
        times, errs, after, eps, need)
