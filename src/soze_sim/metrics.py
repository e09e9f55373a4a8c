"""Convergence, utilization, and stability measurements over traces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluid import Trace
from .oracle import AllocationResult

# a rate settles within EPS of the oracle, relative, and stays there for
# WINDOW control intervals; scenarios default to the same rule
EPS, WINDOW = 0.05, 20
# (sample, flow) cells in one row chunk of the fairness series: 512 KiB, so
# the summary's peak does not grow with run length or flow count
_SERIES_CELLS = 1 << 16


@dataclass
class ConvergenceReport:
    """Did the trace settle onto the oracle allocation, and how fast.

    ``convergence_time`` counts from the reference event (by default the
    last event in the examined window); ``convergence_rtts`` is the same in
    units of the slowest participating flow's base RTT, and None when that
    RTT is 0 (no propagation delay on any of the routes).  Utilization and
    oscillation are measured over the trailing steady window.
    """

    converged: bool
    convergence_time: float | None
    convergence_rtts: float | None
    final_fairness_error: float
    utilization: dict[str, float]
    rate_oscillation: dict[str, float]


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
                     col: dict[str, int]) -> np.ndarray:
    """Per sample in [lo, hi), the largest relative error of an allocated
    flow's rate against its oracle rate.

    The flows' columns are read in trace order, with the oracle rates
    permuted to match, in row chunks of at most ``_SERIES_CELLS`` cells
    reduced in place.  Max is exact, so every value equals the one-shot
    ``max(abs(rates[lo:hi, idx] - oracle) / oracle, axis=1)``."""
    idx = np.array([col[fid] for fid in allocation.rates])
    order = np.argsort(idx)
    idx = idx[order]
    oracle = np.array(list(allocation.rates.values()))[order]
    errs = np.empty(hi - lo)
    step = max(1, _SERIES_CELLS // len(idx))
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        sim = trace.rates[a:b, idx]
        np.subtract(sim, oracle, out=sim)
        np.abs(sim, out=sim)
        np.divide(sim, oracle, out=sim)
        np.max(sim, axis=1, out=errs[a - lo:b - lo])
    return errs


def convergence_time(
    trace: Trace,
    allocation: AllocationResult,
    eps: float = EPS,
    window: int = WINDOW,
    *,
    start: float | None = None,
    end: float | None = None,
    after: float | None = None,
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
    control_interval = max(trace.control_intervals[f] for f in flow_ids)
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

    conv_time = _settle_time(times, errs, after, eps, need)

    steady_lo = int(np.searchsorted(times, times[-1] - win_dur - 1e-15, "left"))
    steady = slice(lo + steady_lo, hi)
    util = _utilization(trace, steady, on_link)
    # one contiguous row per flow, so each row reduces as its own series would
    series = np.ascontiguousarray(trace.rates[steady][:, [col[f] for f in flow_ids]].T)
    mean = series.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = series.std(axis=1) / mean
    osc = dict(zip(flow_ids, np.where(mean > 0, ratio, 0.0).tolist()))

    return ConvergenceReport(
        converged=conv_time is not None,
        convergence_time=conv_time,
        convergence_rtts=(conv_time / rtt
                          if conv_time is not None and rtt > 0 else None),
        final_fairness_error=float(errs[-1]),
        utilization=util,
        rate_oscillation=osc,
    )


def _settle_time(times: np.ndarray, errs: np.ndarray, after: float,
                 eps: float, need: int) -> float | None:
    """Time from ``after`` to the first sample from which ``need``
    consecutive samples at or after ``after`` have ``errs <= eps``; None
    when no such run exists."""
    first = int(np.searchsorted(times, after - 1e-15, "left"))
    # misses before each sample: a run of ``need`` starts where the count
    # ``need`` samples later is the same
    misses = np.concatenate(([0], np.cumsum(~(errs[first:] <= eps))))
    hits = np.flatnonzero(misses[need:] == misses[:-need])
    return float(times[first + hits[0]]) - after if hits.size else None


def _utilization(trace: Trace, rows: slice,
                 on_link: dict[str, list[int]]) -> dict[str, float]:
    """Per link, the mean offered load / bandwidth over the trace ``rows``;
    ``on_link`` maps each link to the columns of the flows that cross it.

    Links that carry the same number of flows reduce together, in the
    order one link alone would: numpy lays each link's gathered flows out
    as it lays out ``rates[rows, cols]``, so the sum over them adds alike,
    and each link's mean runs over one contiguous row, as a 1-D mean does."""
    util = dict.fromkeys(trace.link_ids, 0.0)
    groups: dict[int, list[str]] = {}
    for lid in trace.link_ids:
        if on_link[lid]:
            groups.setdefault(len(on_link[lid]), []).append(lid)
    rates = trace.rates[rows]
    for links in groups.values():
        total = rates[:, [on_link[lid] for lid in links]].sum(axis=2)
        bw = np.array([trace.bandwidths[lid] for lid in links])
        mean = np.ascontiguousarray((total / bw).T).mean(axis=1)
        util.update(zip(links, mean.tolist()))
    return util
