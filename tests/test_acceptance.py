"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import os
import tempfile
import time

import numpy as np
import pytest

from soze_sim import (
    FluidSimulation,
    convergence_time,
    load_scenario,
    target_delay,
    water_fill,
)
from soze_sim.cli import epoch_allocations

from conftest import (
    fairness_error,
    mean_rates,
    scenario_path,
    target_delay_error,
    utilization,
    verify_goal_equivalence,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


FIG_MAXMIN_OVERRIDES = [
    "flows.0.weight_schedule="
    "[[0.0,1.0],[0.0015,2.0],[0.003,3.0],[0.0045,4.0],[0.006,5.0]]",
    "sim.end_time=0.0075",
]


class RunCache:
    """Build-and-run registry so criteria share runs and the determinism
    criterion can rerun every one of them."""

    def __init__(self):
        self._recipes = {}
        self._results = {}

    def register(self, name, scenario_file, overrides=()):
        self._recipes[name] = (scenario_file, tuple(overrides))

    def build(self, name):
        scenario_file, overrides = self._recipes[name]
        scenario = load_scenario(scenario_path(scenario_file), overrides)
        return scenario

    def get(self, name):
        if name not in self._results:
            scenario = self.build(name)
            engine = FluidSimulation(scenario.topology, scenario.flows,
                                     scenario.sim)
            t0 = time.perf_counter()
            trace = engine.run()
            wall = time.perf_counter() - t0
            self._results[name] = (scenario, engine, trace, wall)
        return self._results[name]

    def names(self):
        return list(self._recipes)


@pytest.fixture(scope="module")
def runs():
    cache = RunCache()
    cache.register("weighted_split", "weighted_split")
    cache.register("fig_maxmin", "fig_maxmin", FIG_MAXMIN_OVERRIDES)
    for m in ("0.25", "1.0", "1.9", "2.0", "2.5"):
        cache.register(f"m={m}", "m_sweep", [f"control.m={m}"])
    cache.register("lemma2_low", "lemma2_boundary", ["control.p=20e-6"])
    cache.register("lemma2_high", "lemma2_boundary", ["control.p=70e-6"])
    cache.register("fat_tree_random", "fat_tree_random")
    cache.register("agility", "agility_weight_change")
    for n in (10, 100, 1000):
        cache.register(f"nflows={n}", "single_link_nflows",
                       [f"flow_groups.0.count={n}"])
    cache.register("aimd_4flows", "single_link_4flows",
                   ["default_controller=aimd"])
    cache.register("soze_4flows", "single_link_4flows")
    return cache


def test_criterion_01_weighted_split(runs):
    scenario, engine, trace, wall = runs.get("weighted_split")
    alloc = water_fill(scenario.topology, scenario.flows)
    end = trace.times[-1]
    means = mean_rates(trace, (0.8 * end, end))
    err = fairness_error(means, alloc.rates)
    ok = err <= 0.02 and wall < 5.0
    report(
        "1 single-link weighted split",
        ok,
        f"rates {means['w3'] / 1e9:.2f}/{means['w1'] / 1e9:.2f} G vs 75/25, "
        f"err {err:.2e}, runtime {wall:.2f}s < 5s",
    )


def test_criterion_02_bottleneck_shift(runs):
    scenario, engine, trace, _ = runs.get("fig_maxmin")
    epochs = epoch_allocations(scenario)
    assert len(epochs) == 5
    x1_rates = []
    all_within = True
    shift_epochs_ok = True
    for i, (t0, t1, active, alloc) in enumerate(epochs):
        means = mean_rates(trace, (t1 - 0.3 * (t1 - t0), t1))
        sim = {f.id: means[f.id] for f in active}
        worst = fairness_error(sim, alloc.rates)
        all_within = all_within and worst <= 0.03
        x1_rates.append(sim["x1"])
        if i >= 2:
            shift_epochs_ok = shift_epochs_ok and \
                alloc.bottlenecks["x2"] == "s1->s2"
    flow1_at_w1 = abs(x1_rates[0] - 40e9) / 40e9 <= 0.03
    increasing = x1_rates[2] > x1_rates[1] and x1_rates[3] > x1_rates[2] \
        and x1_rates[4] > x1_rates[3]
    ok = all_within and flow1_at_w1 and increasing and shift_epochs_ok
    report(
        "2 two-switch bottleneck shift",
        ok,
        "x1 per epoch: " + ", ".join(f"{r / 1e9:.1f}G" for r in x1_rates)
        + "; all epochs within 3% of water filling",
    )


def test_criterion_03_target_queueing(runs):
    scenario, engine, trace, _ = runs.get("weighted_split")
    end = trace.times[-1]
    err = target_delay_error(
        trace, "a->b", 25e9, engine.params, (0.8 * end, end)
    )
    expected = target_delay(25e9, engine.params)
    measured = float(trace.queue_delays[trace.times >= 0.8 * end, 0].mean())
    report(
        "3 queue settles at target delay",
        err <= 0.10,
        f"delay {measured * 1e6:.3f}us vs T(B/W) {expected * 1e6:.3f}us, "
        f"err {err:.2e} <= 10%",
    )


def test_criterion_04_fairness_boundary(runs):
    outcomes = {}
    for m in ("0.25", "1.0", "1.9", "2.0", "2.5"):
        scenario, engine, trace, _ = runs.get(f"m={m}")
        alloc = water_fill(scenario.topology, scenario.flows)
        rep = convergence_time(trace, alloc, eps=0.05, window=20)
        outcomes[m] = (rep.converged, rep.convergence_rtts)
    good = all(
        outcomes[m][0] and outcomes[m][1] <= 200 for m in ("0.25", "1.0", "1.9")
    )
    bad = not outcomes["2.0"][0] and not outcomes["2.5"][0]
    report(
        "4 fairness boundary at m = 2",
        good and bad,
        "; ".join(
            f"m={m}: {'conv@%.0f RTT' % v[1] if v[0] else 'no convergence'}"
            for m, v in outcomes.items()
        ),
    )


def _queue_at_control_instants(trace):
    # sampling interval equals the explicit control interval in this scenario
    return trace.queue_delays[:, 0], trace.times


def test_criterion_05_queue_stability_boundary(runs):
    # below the oscillating bound: amplitude must not contract
    scenario, engine, trace, _ = runs.get("lemma2_low")
    target = target_delay(25e9, engine.params)
    qd, _ = _queue_at_control_instants(trace)
    dev = np.abs(qd - target)
    n = len(dev)
    window = 20
    amps = [
        dev[i:i + window].max() for i in range(n // 4, n - window, window)
    ]
    noncontracting = amps[-1] >= 0.5 * np.median(amps) \
        and amps[-1] >= 0.2 * target
    # above the monotone bound: decreasing approach after the first crossing
    scenario, engine, trace, _ = runs.get("lemma2_high")
    target_hi = target_delay(25e9, engine.params)
    qd, _ = _queue_at_control_instants(trace)
    above = np.where(qd >= target_hi)[0]
    first = int(above[0])
    seg = qd[first:]
    monotone = bool(np.all(np.diff(seg) <= 1e-10))
    settles = abs(seg[-1] - target_hi) / target_hi <= 0.02
    ok = noncontracting and monotone and settles
    report(
        "5 queue stability boundary",
        ok,
        f"p/dt=2: tail amplitude {amps[-1] * 1e6:.1f}us stays up; "
        f"p/dt=7: monotone after first crossing, settles at "
        f"{seg[-1] * 1e6:.2f}us",
    )


def test_criterion_06_fat_tree_oracle_match(runs):
    scenario, engine, trace, wall = runs.get("fat_tree_random")
    alloc = water_fill(scenario.topology, scenario.flows)
    end = trace.times[-1]
    means = mean_rates(trace, (0.8 * end, end))
    within = sum(
        1 for fid, ref in alloc.rates.items()
        if abs(means[fid] - ref) / ref <= 0.05
    )
    tail = trace.queue_delays[trace.times >= 0.8 * end].mean(axis=0)
    matches = 0
    for f in scenario.flows:
        route_delay = {lid: tail[trace.link_ids.index(lid)] for lid in f.route}
        if max(route_delay, key=route_delay.get) == alloc.bottlenecks[f.id]:
            matches += 1
    n = len(scenario.flows)
    ok = within >= 0.95 * n and matches >= 0.95 * n and wall < 60.0
    report(
        "6 fat-tree oracle equivalence",
        ok,
        f"{within}/{n} rates within 5%, {matches}/{n} bottlenecks match, "
        f"runtime {wall:.1f}s < 60s",
    )


def test_criterion_07_goal_transform_property():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        weights = rng.uniform(0.1, 8.0, size=n)
        bandwidth = float(rng.uniform(1e9, 400e9))
        rates = weights / weights.sum() * bandwidth
        assert verify_goal_equivalence(rates, weights, bandwidth, eps=1e-9)
        # breaking utilization must fail the check
        assert not verify_goal_equivalence(rates * 0.9, weights, bandwidth)
        # breaking proportionality must fail the check
        skew = rates.copy()
        skew[0] *= 1.01
        skew[1] -= rates[0] * 0.01
        if skew[1] > 0:
            assert not verify_goal_equivalence(skew, weights, bandwidth)
        checked += 1
    report("7 goal transform equivalence", checked == 1000,
           f"{checked} random instances at eps 1e-9")


def test_criterion_08_agility(runs):
    scenario, engine, trace, _ = runs.get("agility")
    weights = {"a0": 2.0, "a1": 1.0}
    alloc = water_fill(scenario.topology, scenario.flows, weights)
    rep = convergence_time(trace, alloc, eps=0.05, window=20,
                           start=0.5e-3, after=0.5e-3)
    ok = rep.converged and rep.convergence_rtts <= 20
    report(
        "8 agility after weight change",
        ok,
        f"converged {rep.convergence_rtts:.0f} RTTs after the event "
        "(paper-scale figure: < 10 RTTs, reported informationally)",
    )


def test_criterion_09_scalability_trend(runs):
    rtts = {}
    for n in (10, 100, 1000):
        scenario, engine, trace, _ = runs.get(f"nflows={n}")
        alloc = water_fill(scenario.topology, scenario.flows)
        rep = convergence_time(trace, alloc, eps=0.05, window=20)
        assert rep.converged, f"nflows={n} did not converge"
        rtts[n] = rep.convergence_rtts
    ratio = max(rtts.values()) / min(rtts.values())
    walls = {}
    for n in (10, 1000):
        scenario, _, _, _ = runs.get(f"nflows={n}")
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            water_fill(scenario.topology, scenario.flows)
            best = min(best, time.perf_counter() - t0)
        walls[n] = best
    solver_grows = walls[1000] >= 2.0 * walls[10]
    ok = ratio <= 2.0 and solver_grows
    report(
        "9 scalability trend",
        ok,
        f"convergence RTTs {rtts} (ratio {ratio:.2f} <= 2); water filling "
        f"{walls[10] * 1e6:.0f}us -> {walls[1000] * 1e6:.0f}us",
    )


def test_criterion_10_aimd_contrast(runs):
    osc = {}
    util = {}
    for name in ("soze_4flows", "aimd_4flows"):
        scenario, engine, trace, _ = runs.get(name)
        end = trace.times[-1]
        lo = np.searchsorted(trace.times, 0.5 * end)
        tail = trace.rates[lo:]
        osc[name] = float(np.mean(tail.std(axis=0) / tail.mean(axis=0)))
        util[name] = utilization(trace, "sw->h4", (0.5 * end, end))
    ratio = osc["aimd_4flows"] / max(osc["soze_4flows"], 1e-9)
    ok = ratio >= 3.0 and util["soze_4flows"] >= util["aimd_4flows"]
    report(
        "10 AIMD oscillation contrast",
        ok,
        f"osc aimd {osc['aimd_4flows']:.3f} vs soze "
        f"{osc['soze_4flows']:.2e} (x{ratio:.0f}); util "
        f"{util['soze_4flows']:.4f} >= {util['aimd_4flows']:.4f}",
    )


def test_criterion_11_determinism(runs):
    def csv_bytes(trace):
        with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as fh:
            path = fh.name
        try:
            trace.to_csv(path)
            with open(path, "rb") as fh:
                return fh.read()
        finally:
            os.unlink(path)

    mismatched = []
    for name in runs.names():
        scenario, engine, trace, _ = runs.get(name)
        again = FluidSimulation(
            *(lambda s: (s.topology, s.flows, s.sim))(runs.build(name))
        ).run()
        if csv_bytes(trace) != csv_bytes(again):
            mismatched.append(name)
    report(
        "11 byte-identical reruns",
        not mismatched,
        f"{len(runs.names())} scenarios rerun" +
        (f"; mismatches: {mismatched}" if mismatched else ""),
    )
