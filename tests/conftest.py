"""Shared builders for the test suite."""

from __future__ import annotations

import os
from typing import Mapping, Sequence

import pytest

from soze_sim import (
    ControlParams,
    FlowSpec,
    FluidSimulation,
    SimConfig,
    Topology,
    Trace,
    build_topology,
    target_delay,
)
from soze_sim.metrics import _columns, _slice

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "soze_sim", "scenarios"
)


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, f"{name}.yaml")


def single_link(bandwidth: float = 100e9, prop_delay: float = 0.25e-6) -> Topology:
    return build_topology({
        "nodes": ["a", "b"],
        "links": [{"src": "a", "dst": "b", "bandwidth": bandwidth,
                   "prop_delay": prop_delay}],
    })


def two_switch() -> Topology:
    """The two-contention-link scenario topology: 6 hosts, 2 switches.

    x1: h1 -> h5 crosses the s1->s2 trunk only; x2..x4: h2..h4 -> h6 cross
    the trunk and the s2->h6 egress; x5, x6: h5 -> h6 use the egress only.
    """
    links = [
        {"src": "h1", "dst": "s1"}, {"src": "h2", "dst": "s1"},
        {"src": "h3", "dst": "s1"}, {"src": "h4", "dst": "s1"},
        {"src": "s1", "dst": "s2"}, {"src": "s2", "dst": "h5"},
        {"src": "s2", "dst": "h6"},
    ]
    for l in links:
        l.update({"bandwidth": 100e9, "prop_delay": 0.2e-6})
    return build_topology({
        "nodes": ["h1", "h2", "h3", "h4", "h5", "h6", "s1", "s2"],
        "links": links,
    })


def two_switch_flows(w1: float = 1.0) -> list[FlowSpec]:
    return [
        FlowSpec("x1", ("h1->s1", "s1->s2", "s2->h5"), ((0.0, w1),)),
        FlowSpec("x2", ("h2->s1", "s1->s2", "s2->h6"), ((0.0, 1.0),)),
        FlowSpec("x3", ("h3->s1", "s1->s2", "s2->h6"), ((0.0, 1.0),)),
        FlowSpec("x4", ("h4->s1", "s1->s2", "s2->h6"), ((0.0, 1.0),)),
        FlowSpec("x5", ("h5->s2", "s2->h6"), ((0.0, 1.0),)),
        FlowSpec("x6", ("h5->s2", "s2->h6"), ((0.0, 1.0),)),
    ]


def flow_on_link(fid: str, weight: float = 1.0, **kw) -> FlowSpec:
    return FlowSpec(fid, ("a->b",), ((0.0, weight),), **kw)


def default_params(**kw) -> ControlParams:
    base = dict(p=20e-6, k=3e-6, m=0.25, alpha=100e9, beta=0.1e9)
    base.update(kw)
    return ControlParams(**base)


def mean_rates(trace, window: tuple[float, float]) -> dict[str, float]:
    """Per-flow mean rates over a time window (steady-state readout)."""
    lo, hi = _slice(trace, window[0], window[1])
    return {fid: float(trace.rates[lo:hi, i].mean())
            for i, fid in enumerate(trace.flow_ids)}


def utilization(trace, link: str, window: tuple[float, float]) -> float:
    """Mean offered load / bandwidth on ``link`` over the time window, one
    link at a time: the per-link definition that the convergence report's
    batched utilization must reproduce bit for bit.

    May exceed 1 transiently: arrivals above capacity are what grow the
    queue.
    """
    if link not in trace.link_ids:
        raise ValueError(f"unknown link {link!r}")
    lo, hi = _slice(trace, window[0], window[1])
    fidx = _columns(trace)[1][link]
    if not fidx:
        return 0.0
    total = trace.rates[lo:hi, fidx].sum(axis=1)
    return float((total / trace.bandwidths[link]).mean())


def target_delay_error(trace, link: str, expected_wfs: float,
                       params: ControlParams,
                       window: tuple[float, float]) -> float:
    """Relative gap between the link's mean queue delay and the target
    delay implied by the expected weighted fair share."""
    if link not in trace.link_ids:
        raise ValueError(f"unknown link {link!r}")
    expected = target_delay(expected_wfs, params)
    if expected <= 0:
        raise ValueError("expected target delay is zero")
    lo, hi = _slice(trace, window[0], window[1])
    mean_delay = float(trace.queue_delays[lo:hi, trace.link_ids.index(link)].mean())
    return abs(mean_delay - expected) / expected


def run(topology: Topology, flows: Sequence[FlowSpec], config: SimConfig) -> Trace:
    """Build an engine for (topology, flows, config) and run it to the end."""
    return FluidSimulation(topology, flows, config).run()


def verify_goal_equivalence(
    rates: Sequence[float],
    weights: Sequence[float],
    bandwidth: float,
    eps: float = 1e-9,
) -> bool:
    """Check the two-condition form of the single-link weighted goal.

    True iff the rates saturate the link (|sum - B| <= eps*B) and all
    rate-per-weight values agree (spread <= eps * mean).  Both together hold
    exactly when each rate equals weight / total_weight * B.
    """
    if len(rates) == 0:
        raise ValueError("empty flow set")
    if len(rates) != len(weights):
        raise ValueError("rates and weights must align")
    if abs(sum(rates) - bandwidth) > eps * bandwidth:
        return False
    s = [r / w for r, w in zip(rates, weights)]
    mean = sum(s) / len(s)
    return max(s) - min(s) <= eps * mean


def fairness_error(
    sim_rates: Mapping[str, float], oracle_rates: Mapping[str, float]
) -> float:
    """Relative L-infinity distance: max over flows of |sim - oracle| / oracle."""
    if set(sim_rates) != set(oracle_rates):
        raise ValueError("flow sets differ between simulation and oracle")
    worst = 0.0
    for fid, ref in oracle_rates.items():
        if ref <= 0:
            raise ValueError(f"oracle rate for {fid!r} must be > 0")
        worst = max(worst, abs(sim_rates[fid] - ref) / ref)
    return worst


def quick_sim(dt: float = 0.125e-6, end: float = 1.5e-3, **kw) -> SimConfig:
    control = kw.pop("control", ControlParams())
    return SimConfig(dt=dt, end_time=end, control=control, **kw)


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path)
