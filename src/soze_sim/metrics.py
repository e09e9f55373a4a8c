"""Convergence, utilization, and stability measurements over traces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlParams, target_delay
from .fluid import Trace
from .oracle import AllocationResult


@dataclass
class ConvergenceReport:
    """Did the trace settle onto the oracle allocation, and how fast.

    ``convergence_time`` counts from the reference event (by default the
    last event in the examined window); ``convergence_rtts`` is the same in
    units of the slowest participating flow's base RTT.  Utilization and
    oscillation are measured over the trailing steady window.
    """

    converged: bool
    convergence_time: float | None
    convergence_rtts: float | None
    final_fairness_error: float
    utilization: dict[str, float]
    rate_oscillation: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "convergence_time": self.convergence_time,
            "convergence_rtts": self.convergence_rtts,
            "final_fairness_error": self.final_fairness_error,
            "utilization": dict(self.utilization),
            "rate_oscillation": dict(self.rate_oscillation),
        }


def _slice(trace: Trace, start: float | None, end: float | None):
    t = trace.times
    lo = 0 if start is None else int(np.searchsorted(t, start - 1e-15, "left"))
    hi = len(t) if end is None else int(np.searchsorted(t, end + 1e-15, "right"))
    if hi - lo < 2:
        raise ValueError("window contains fewer than two samples")
    return lo, hi


def _columns(trace: Trace) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Flow id -> trace column, and link id -> the columns of the flows that
    cross it in flow order, from one pass over the routes."""
    col = {fid: i for i, fid in enumerate(trace.flow_ids)}
    on_link: dict[str, list[int]] = {lid: [] for lid in trace.link_ids}
    for fid, route in trace.routes.items():
        for lid in route:
            on_link[lid].append(col[fid])
    return col, on_link


def _fairness_series(trace: Trace, allocation: AllocationResult, lo: int, hi: int,
                     col: dict[str, int]):
    idx = [col[fid] for fid in allocation.rates]
    oracle = np.array([allocation.rates[fid] for fid in allocation.rates])
    sim = trace.rates[lo:hi, idx]
    return np.max(np.abs(sim - oracle) / oracle, axis=1)


def convergence_time(
    trace: Trace,
    allocation: AllocationResult,
    eps: float = 0.05,
    window: int = 20,
    *,
    start: float | None = None,
    end: float | None = None,
    after: float | None = None,
    control_interval: float | None = None,
    rtt: float | None = None,
) -> ConvergenceReport:
    """Detect when the trace's rates settle within ``eps`` of the oracle.

    Convergence is the earliest time at/after ``after`` (default: the last
    event inside [start, end], else the window start) from which the
    fairness error stays <= eps for ``window`` consecutive control
    intervals.  Raises ValueError when the examined slice cannot hold one
    full window.
    """
    lo, hi = _slice(trace, start, end)
    times = trace.times[lo:hi]
    flow_ids = list(allocation.rates)
    if not flow_ids:
        raise ValueError("allocation has no flows")
    if control_interval is None:
        control_interval = max(trace.control_intervals[f] for f in flow_ids)
    if rtt is None:
        rtt = max(trace.base_rtts[f] for f in flow_ids)
    if after is None:
        in_win = [e.time for e in trace.events
                  if times[0] - 1e-15 <= e.time <= times[-1] + 1e-15]
        after = max(in_win) if in_win else float(times[0])

    win_dur = window * control_interval
    if times[-1] - max(after, times[0]) < win_dur:
        raise ValueError(
            f"trace slice shorter than the {window}-interval window "
            f"({times[-1] - times[0]:.3g}s < {win_dur:.3g}s)"
        )

    col, on_link = _columns(trace)
    errs = _fairness_series(trace, allocation, lo, hi, col)
    spacing = trace.sampling_interval
    need = max(1, int(math.ceil(win_dur / spacing - 1e-9)))

    conv_time = None
    run = 0
    first_ok = None
    for i in range(len(times)):
        if times[i] < after - 1e-15:
            continue
        if errs[i] <= eps:
            if first_ok is None:
                first_ok = i
            run += 1
            if run >= need:
                conv_time = float(times[first_ok]) - after
                break
        else:
            run = 0
            first_ok = None

    steady_lo = int(np.searchsorted(times, times[-1] - win_dur - 1e-15, "left"))
    steady = slice(lo + steady_lo, hi)
    util = _utilization_all(trace, steady, on_link)
    osc: dict[str, float] = {}
    for fid in flow_ids:
        series = trace.rates[steady, col[fid]]
        mean = float(series.mean())
        osc[fid] = float(series.std() / mean) if mean > 0 else 0.0

    return ConvergenceReport(
        converged=conv_time is not None,
        convergence_time=conv_time,
        convergence_rtts=(conv_time / rtt) if conv_time is not None else None,
        final_fairness_error=float(errs[-1]),
        utilization=util,
        rate_oscillation=osc,
    )


def _utilization_all(trace: Trace, rows: slice,
                     on_link: dict[str, list[int]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for lid in trace.link_ids:
        fidx = on_link[lid]
        if not fidx:
            out[lid] = 0.0
            continue
        total = trace.rates[rows, :][:, fidx].sum(axis=1)
        out[lid] = float((total / trace.bandwidths[lid]).mean())
    return out


def utilization(trace: Trace, link: str, window: tuple[float, float]) -> float:
    """Mean offered load / bandwidth on ``link`` over the time window.

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


def target_delay_error(
    trace: Trace,
    link: str,
    expected_wfs: float,
    params: ControlParams,
    window: tuple[float, float],
) -> float:
    """Relative gap between the link's mean queue delay and the target
    delay implied by the expected weighted fair share."""
    if link not in trace.link_ids:
        raise ValueError(f"unknown link {link!r}")
    expected = target_delay(expected_wfs, params)
    if expected <= 0:
        raise ValueError("expected target delay is zero")
    lo, hi = _slice(trace, window[0], window[1])
    mean_delay = float(trace.queue_delays[lo:hi, trace.link_index(link)].mean())
    return abs(mean_delay - expected) / expected


def mean_rates(trace: Trace, window: tuple[float, float]) -> dict[str, float]:
    """Per-flow mean rates over a time window (steady-state readout)."""
    lo, hi = _slice(trace, window[0], window[1])
    return {
        fid: float(trace.rates[lo:hi, i].mean())
        for i, fid in enumerate(trace.flow_ids)
    }
