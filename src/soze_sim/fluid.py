"""Deterministic fixed-step fluid simulation of queues and rate controllers.

Per integration step of length ``dt`` the engine:

1. applies due events (flow start/stop, weight changes),
2. sums per-link arrival rates by scattering each flow's rate over its
   route hops (flat ``(hop_flow, hop_link)`` arrays built once),
3. integrates each link's queueing delay ``dD/dt = (R - B) / B`` (clamped
   at zero),
4. delivers to each active flow its lagged maxQD signal -- the maximum
   queueing delay along its route as it stood one feedback lag ago -- and
   lets the flow's controller react,
5. records a trace sample when due.

The queue history that step 4 reads is kept per mode.  With
``fixed_rtt`` every flow's lag is its constant base RTT, so a ring of
``ceil(max base RTT / dt) + 3`` rows (at most ``n_steps + 1``) suffices and
memory does not grow with ``end_time``.  A step interpolates each distinct
(base RTT, link) pair that some route uses once -- at most
min(distinct base RTTs x links, route hops) pairs -- and takes each flow's
max over its hops, so it costs O(route hops + links) on any mix of base
RTTs.  ``propagation_plus_queue`` keeps every row, because its
emission-time search starts at time 0.

Identical inputs produce bit-identical traces: there is no hidden state and
no wall-clock or hash-order dependence.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .baselines import AimdConfig, aimd_window
# inverse_target stays a module attribute so profilers can wrap it by name
from .control import ControlParams, inverse_target, update_ratio
from .model import FlowSpec, Topology, base_rtt, validate_flow


class SimConfigError(ValueError):
    """Raised when a simulation configuration is inconsistent."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    ``dt`` must be at least four times finer than the fastest control gate.
    ``signal_delay_mode`` selects the feedback lag: a constant base RTT
    (default) or base RTT plus the route's queueing delays at emission time.
    ``update_mode`` gates controller updates once per RTT (default) or once
    per packet of ``packet_size`` bits.
    """

    dt: float
    end_time: float
    control: ControlParams = ControlParams()
    signal_delay_mode: str = "fixed_rtt"   # | "propagation_plus_queue"
    update_mode: str = "per_rtt"           # | "per_packet"
    packet_size: float = 8000.0            # bits
    seed: int = 0
    sampling_interval: float | None = None
    aimd: AimdConfig = AimdConfig()

    def validate(self) -> None:
        if not self.dt > 0:
            raise SimConfigError("dt must be > 0")
        if not self.end_time >= self.dt:
            raise SimConfigError("end_time must cover at least one step")
        if self.signal_delay_mode not in ("fixed_rtt", "propagation_plus_queue"):
            raise SimConfigError(
                f"unknown signal_delay_mode {self.signal_delay_mode!r}"
            )
        if self.update_mode not in ("per_rtt", "per_packet"):
            raise SimConfigError(f"unknown update_mode {self.update_mode!r}")
        if not self.packet_size > 0:
            raise SimConfigError("packet_size must be > 0")
        if self.sampling_interval is not None and self.sampling_interval < self.dt:
            raise SimConfigError("sampling_interval must be >= dt")
        self.control.validate()


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str            # "start" | "stop" | "weight"
    flow_id: str
    value: float | None = None


@dataclass
class Trace:
    """Sampled time series of one simulation run plus scenario metadata."""

    times: np.ndarray                    # (S,)
    flow_ids: tuple[str, ...]
    link_ids: tuple[str, ...]
    rates: np.ndarray                    # (S, nf) bits/s, 0 when inactive
    signals: np.ndarray                  # (S, nf) s
    queue_delays: np.ndarray             # (S, nl) s
    events: tuple[TraceEvent, ...]
    routes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    base_rtts: dict[str, float] = field(default_factory=dict)
    bandwidths: dict[str, float] = field(default_factory=dict)
    control_intervals: dict[str, float] = field(default_factory=dict)
    sampling_interval: float = 0.0

    def flow_index(self, flow_id: str) -> int:
        return self.flow_ids.index(flow_id)

    def link_index(self, link_id: str) -> int:
        return self.link_ids.index(link_id)

    def rates_at(self, t: float) -> dict[str, float]:
        """Per-flow rates at the sample nearest to (and not after) ``t``."""
        idx = int(np.searchsorted(self.times, t + 1e-15, side="right")) - 1
        idx = max(idx, 0)
        return {fid: float(self.rates[idx, i]) for i, fid in enumerate(self.flow_ids)}

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the trace as CSV: a header, then per sample the time, the
        flow rates, the flow signals and the link queue delays.

        Every value is written as ``repr(float(x))``, the shortest text that
        reads back as the same float, so equal runs produce byte-identical
        files (``-0.0``, ``nan`` and ``inf`` included).  Rows are formatted
        in blocks of about ``_CSV_BLOCK_CELLS`` values, each distinct bit
        pattern of a block formatted once, and streamed to the file.
        """
        header = ["time_s"]
        header += [f"flow_{fid}_rate_bps" for fid in self.flow_ids]
        header += [f"flow_{fid}_signal_s" for fid in self.flow_ids]
        header += [f"link_{lid}_qdelay_s" for lid in self.link_ids]
        parts = (self.times[:, None], self.rates, self.signals, self.queue_delays)
        width = len(header)
        step = max(1, _CSV_BLOCK_CELLS // width)
        with _atomic_open(path) as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            for lo in range(0, len(self.times), step):
                block = np.concatenate(
                    [p[lo:lo + step] for p in parts], axis=1, dtype=float
                )
                bits, inverse = np.unique(
                    block.ravel().view(np.int64), return_inverse=True
                )
                text = np.array(
                    [repr(x) for x in bits.view(np.float64).tolist()], dtype=object
                )
                rows = text.take(inverse).reshape(-1, width).tolist()
                fh.writelines(",".join(r) + "\n" for r in rows)


_CSV_BLOCK_CELLS = 1 << 15


@contextlib.contextmanager
def _atomic_open(path: str | os.PathLike):
    """A text file that replaces ``path`` once the ``with`` block succeeds;
    if the block fails, the partial file is removed and ``path`` is left as
    it was."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "w")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def initial_rate(
    flow: FlowSpec, params: ControlParams, topology: Topology
) -> float:
    """Starting rate for a flow: its own override, else a tenth of its cap."""
    cap = resolve_cap(flow, params, topology)
    rate = flow.initial_rate if flow.initial_rate is not None else cap / 10.0
    return min(max(rate, params.rate_floor), cap)


def resolve_cap(flow: FlowSpec, params: ControlParams, topology: Topology) -> float:
    if params.rate_cap is not None:
        return params.rate_cap
    return topology.link_by_id[flow.route[0]].bandwidth


def resolve_params(
    params: ControlParams, topology: Topology, flows: Sequence[FlowSpec]
) -> ControlParams:
    """Fill unset alpha/beta from the topology and flow weights."""
    alpha = params.alpha
    if alpha is None:
        max_bw = max(l.bandwidth for l in topology.links)
        min_w = min(w for f in flows for _, w in f.weight_schedule)
        alpha = max_bw / min_w
    beta = params.beta if params.beta is not None else alpha / 1000.0
    resolved = replace(params, alpha=alpha, beta=beta)
    resolved.validate()
    return resolved


# added to history rows i0, gives the stacked rows (i0, i0 + 1)
_NEXT_ROW = np.array([[0], [1]])


class FluidSimulation:
    """One simulation run; owns all mutable state for that run.

    Independent instances share nothing and may run concurrently.
    """

    def __init__(
        self,
        topology: Topology,
        flows: Sequence[FlowSpec],
        config: SimConfig,
    ):
        config.validate()
        topology.validate()
        ids = [f.id for f in flows]
        if len(set(ids)) != len(ids):
            raise SimConfigError("duplicate flow ids")
        if not flows:
            raise SimConfigError("no flows")
        for f in flows:
            validate_flow(topology, f)

        self.topology = topology
        self.flows = list(flows)
        self.config = config
        self.params = resolve_params(config.control, topology, flows)

        self.link_ids = tuple(l.id for l in topology.links)
        self.flow_ids = tuple(ids)
        nf, nl = len(flows), len(topology.links)
        lidx = {lid: i for i, lid in enumerate(self.link_ids)}

        self.bw = np.array([l.bandwidth for l in topology.links])
        hops = np.array([lidx[lid] for f in flows for lid in f.route],
                        dtype=np.intp)
        lengths = np.array([len(f.route) for f in flows])
        first = np.cumsum(lengths) - lengths
        max_route = int(lengths.max())
        self.route_pad = np.arange(max_route) < lengths[:, None]  # True = real hop
        # padded with the last hop, so a max over the row ignores padding
        self.route_idx = hops[
            first[:, None] + np.minimum(np.arange(max_route), lengths[:, None] - 1)
        ]
        # flat route hops for the arrival scatter, in flow order: hop h
        # carries flow _hop_flow[h] over link _hop_link[h]
        self._hop_link, self._hop_flow = hops, np.repeat(np.arange(nf), lengths)

        self.base_rtt = np.array([base_rtt(topology, f.route) for f in flows])
        # the fixed-lag signal interpolates each distinct (base RTT, link)
        # pair a route uses once per step: pair p lags by
        # _lags[_pair_lag[p]] on link _pair_link[p], and hop h of flow j
        # reads pair _hop_pair[h, j]
        self._lags, lag_of = np.unique(self.base_rtt, return_inverse=True)
        key = lag_of * nl + self.route_idx.T
        pairs, hop_pair = np.unique(key, return_inverse=True)
        self._hop_pair = hop_pair.reshape(key.shape)
        self._pair_lag, self._pair_link = np.divmod(pairs, nl)

        self.caps = np.array([resolve_cap(f, self.params, topology) for f in flows])
        self.init_rates = np.array(
            [initial_rate(f, self.params, topology) for f in flows]
        )
        self.is_aimd = np.array([f.controller == "aimd" for f in flows])
        self.is_soze = ~self.is_aimd

        self.gate = np.empty(nf)
        for j, f in enumerate(flows):
            if self.is_aimd[j] or self.params.update_interval is None:
                self.gate[j] = self.base_rtt[j]
            else:
                self.gate[j] = self.params.update_interval
        if np.any(self.gate <= 0):
            raise SimConfigError(
                "a flow has zero base RTT and no explicit update interval"
            )
        finest = float(self.gate.min())
        if config.update_mode == "per_packet":
            finest = min(finest, float(self.base_rtt[self.is_soze].min()))
        if config.dt > finest / 4.0 * (1.0 + 1e-9):
            raise SimConfigError(
                f"dt {config.dt} too coarse: need <= {finest / 4.0} "
                "(a quarter of the fastest control gate)"
            )

        self.n_steps = max(1, int(round(config.end_time / config.dt)))
        samp = config.sampling_interval
        if samp is None:
            samp = finest
        self.sample_every = max(1, int(round(samp / config.dt)))
        self.sampling_interval = self.sample_every * config.dt
        self._n_samples = self.n_steps // self.sample_every + 1
        if config.signal_delay_mode == "fixed_rtt":
            self._hist_rows = min(
                math.ceil(float(self._lags[-1]) / config.dt) + 3, self.n_steps + 1
            )
        else:
            self._hist_rows = self.n_steps + 1

        need = 8 * (self._n_samples * (1 + 2 * nf + nl) + self._hist_rows * nl)
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > phys:
            raise SimConfigError(
                f"sim.end_time / sim.sampling_interval: the trace and history "
                f"buffers need {need / 2**30:.3g} GiB, more than the "
                f"{phys / 2**30:.3g} GiB of physical memory; shorten "
                "sim.end_time or raise sim.sampling_interval"
            )

        self._build_events()
        self._ran = False

    def _build_events(self) -> None:
        dt = self.config.dt
        order = {"start": 0, "weight": 1, "stop": 2}
        raw: list[tuple[int, int, int, str, float | None]] = []
        for j, f in enumerate(self.flows):
            start_step = max(0, int(round(f.start_time / dt)))
            raw.append((start_step, order["start"], j, "start", None))
            for t, w in f.weight_schedule:
                step = max(0, int(round(t / dt)))
                raw.append((step, order["weight"], j, "weight", w))
            if f.stop_time is not None:
                stop_step = max(0, int(round(f.stop_time / dt)))
                raw.append((stop_step, order["stop"], j, "stop", None))
        raw.sort(key=lambda e: (e[0], e[1], self.flow_ids[e[2]]))
        self._events = raw

    # -- signal delivery ---------------------------------------------------

    def _lag_index(self, pos: np.ndarray, filled: int):
        """History rows around fractional positions ``pos``, clipped to the
        filled history: rows ``(i0, i1)`` stacked as a ``(2, n)`` array, and
        the interpolation weight of ``i1``."""
        pos = pos.clip(0.0, float(filled))
        i0 = np.floor(pos).astype(np.intp)
        return np.minimum(i0 + _NEXT_ROW, filled), pos - i0

    def _interp_queue(self, pos: np.ndarray, filled: int) -> np.ndarray:
        """Queue delays per (flow, hop) at fractional history index ``pos``."""
        rows, frac = self._lag_index(pos, filled)
        lohi = self._hist[rows[:, :, None], self.route_idx]
        frac = frac[:, None]
        return lohi[0] * (1.0 - frac) + lohi[1] * frac

    def _route_queue_sum(self, pos: np.ndarray, filled: int) -> np.ndarray:
        vals = np.where(self.route_pad, self._interp_queue(pos, filled), 0.0)
        return vals.sum(axis=1)

    def _signals(self, t: float, filled: int) -> np.ndarray:
        if self.config.signal_delay_mode == "fixed_rtt":
            rows, frac = self._lag_index((t - self._lags) / self.config.dt, filled)
            flat = rows % self._hist_rows * self._hist.shape[1]
            lohi = self._hist.take(flat.take(self._pair_lag, axis=1) + self._pair_link)
            frac = frac.take(self._pair_lag)
            pairs = lohi[0] * (1.0 - frac) + lohi[1] * frac
            sig = pairs.take(self._hop_pair).max(axis=0)
        else:
            # solve emit + base_rtt + route_queue(emit) = t by bisection;
            # arrival time is nondecreasing in emit since dD/dt >= -1
            dt = self.config.dt
            lo = np.zeros_like(self.base_rtt)
            hi = np.maximum(t - self.base_rtt, 0.0)
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                arrive = mid + self.base_rtt + self._route_queue_sum(
                    mid / dt, filled
                )
                late = arrive > t
                hi = np.where(late, mid, hi)
                lo = np.where(late, lo, mid)
            # padding repeats each route's last hop, so it cannot raise the max
            sig = self._interp_queue(lo / dt, filled).max(axis=1)
        # no feedback before the first ACK returns
        sig[t < self._eligible_from] = 0.0
        return sig

    def deliver_signal(self, flow_id: str, t: float) -> float:
        """The maxQD signal the sender of ``flow_id`` holds at time ``t``.

        ``propagation_plus_queue`` keeps the whole queue history and answers
        for any ``t``.  ``fixed_rtt`` keeps only the last
        ``R = min(ceil(max base RTT / dt) + 3, n_steps + 1)`` queue rows
        (all of them when ``R = n_steps + 1``): after ``n`` steps,
        for a flow with base RTT ``L`` it answers for ``t`` from
        ``(n - R + 1) * dt + L`` on (a ``t`` past the run reads the last
        step), and for any ``t`` before the flow's first ACK, where the
        signal is 0.  Earlier ``t`` raise ValueError, because their lagged
        rows were overwritten.
        """
        if not hasattr(self, "_hist"):
            raise RuntimeError("simulation has not started")
        j = self.flow_ids.index(flow_id)
        t = float(t)
        fixed = self.config.signal_delay_mode == "fixed_rtt"
        if fixed and t >= self._eligible_from[j]:
            lag = float(self.base_rtt[j])
            rows, _ = self._lag_index(
                np.array([(t - lag) / self.config.dt]), self._filled
            )
            oldest = self._filled - self._hist_rows + 1
            if rows[0, 0] < oldest:
                raise ValueError(
                    f"flow {flow_id!r} at t={t!r}: its lagged queue rows were "
                    f"overwritten; the history answers from "
                    f"t={oldest * self.config.dt + lag!r} on"
                )
        return float(self._signals(t, self._filled)[j])

    # -- main loop ----------------------------------------------------------

    def run(self) -> Trace:
        if self._ran:
            raise RuntimeError("simulation already ran; build a fresh instance")
        self._ran = True
        cfg = self.config
        dt, n_steps = cfg.dt, self.n_steps
        nf, nl = len(self.flows), len(self.topology.links)
        tol = dt / 2.0

        rates = np.zeros(nf)
        weights = np.array([f.weight_schedule[0][1] for f in self.flows])
        active = np.zeros(nf, dtype=bool)
        last_update = np.zeros(nf)
        cur_sig = np.zeros(nf)
        pkt_acc = np.zeros(nf)
        cwnd = np.zeros(nf)
        qd = np.zeros(nl)

        self._hist = np.zeros((self._hist_rows, nl))
        self._filled = 0
        self._eligible_from = self.base_rtt + np.array(
            [f.start_time for f in self.flows]
        )

        aimd = cfg.aimd
        aimd_pkt = aimd.packet_size
        events_out: list[TraceEvent] = []
        ev = self._events
        ev_ptr = 0

        n_samples = self._n_samples
        out_t = np.empty(n_samples)
        out_rates = np.empty((n_samples, nf))
        out_sig = np.empty((n_samples, nf))
        out_qd = np.empty((n_samples, nl))
        row = 0

        def apply_events(step: int, now: float) -> None:
            nonlocal ev_ptr
            while ev_ptr < len(ev) and ev[ev_ptr][0] <= step:
                _, _, j, kind, value = ev[ev_ptr]
                ev_ptr += 1
                f = self.flows[j]
                if kind == "start":
                    active[j] = True
                    rates[j] = self.init_rates[j]
                    last_update[j] = now
                    pkt_acc[j] = 0.0
                    cwnd[j] = max(1.0, rates[j] * self.base_rtt[j] / aimd_pkt)
                    if self.is_aimd[j]:
                        rates[j] = min(
                            cwnd[j] * aimd_pkt / self.base_rtt[j], self.caps[j]
                        )
                elif kind == "weight":
                    weights[j] = value
                elif kind == "stop":
                    active[j] = False
                    rates[j] = 0.0
                events_out.append(TraceEvent(now, kind, f.id, value))

        apply_events(0, 0.0)
        out_t[row] = 0.0
        out_rates[row] = rates
        out_sig[row] = cur_sig
        out_qd[row] = qd
        row += 1

        m = self.params.m
        gate_after = self.gate - tol
        hop_link, hop_flow = self._hop_link, self._hop_flow
        per_rtt = cfg.update_mode == "per_rtt"

        for k in range(n_steps):
            t_next = (k + 1) * dt
            if ev_ptr < len(ev) and ev[ev_ptr][0] <= k:
                apply_events(k, k * dt)

            arrival = np.bincount(hop_link, rates.take(hop_flow), nl)
            qd += dt * (arrival - self.bw) / self.bw
            np.maximum(qd, 0.0, out=qd)
            self._hist[(k + 1) % self._hist_rows] = qd
            self._filled = k + 1

            cur_sig = self._signals(t_next, k + 1)

            due = active & (t_next - last_update > gate_after)
            if per_rtt:
                mask = due & self.is_soze
            else:
                live = active & self.is_soze
                pkt_acc[live] += dt * rates[live] / cfg.packet_size
                whole = np.floor(pkt_acc)
                mask = live & (whole >= 1.0)
            if mask.any():
                exponent = None
                if not per_rtt:
                    exponent = np.minimum(m * whole[mask], 1.0)
                    pkt_acc[mask] -= whole[mask]
                s = rates[mask] / weights[mask]
                ratio = update_ratio(s, cur_sig[mask], self.params, exponent)
                rates[mask] = np.clip(
                    rates[mask] * ratio, self.params.rate_floor, self.caps[mask]
                )
                last_update[mask] = t_next

            mask = due & self.is_aimd
            if mask.any():
                cwnd[mask] = aimd_window(cwnd[mask], cur_sig[mask], aimd)
                rates[mask] = np.minimum(
                    cwnd[mask] * aimd_pkt / self.base_rtt[mask], self.caps[mask]
                )
                last_update[mask] = t_next

            if (k + 1) % self.sample_every == 0:
                out_t[row] = t_next
                out_rates[row] = rates
                out_sig[row] = np.where(active, cur_sig, 0.0)
                out_qd[row] = qd
                row += 1

        return Trace(
            times=out_t[:row],
            flow_ids=self.flow_ids,
            link_ids=self.link_ids,
            rates=out_rates[:row],
            signals=out_sig[:row],
            queue_delays=out_qd[:row],
            events=tuple(events_out),
            routes={f.id: tuple(f.route) for f in self.flows},
            base_rtts={f.id: float(r) for f, r in zip(self.flows, self.base_rtt)},
            bandwidths={l.id: l.bandwidth for l in self.topology.links},
            control_intervals={
                self.flow_ids[j]: float(self.gate[j]) for j in range(nf)
            },
            sampling_interval=self.sampling_interval,
        )


def run(topology: Topology, flows: Sequence[FlowSpec], config: SimConfig) -> Trace:
    """Build an engine for (topology, flows, config) and run it to the end."""
    return FluidSimulation(topology, flows, config).run()
