"""Deterministic fixed-step fluid simulation of queues and rate controllers.

Per integration step of length ``dt`` the engine:

1. applies due events (flow start/stop, weight changes),
2. sums per-link arrival rates from the active flows,
3. integrates each link's queueing delay ``dD/dt = (R - B) / B`` (clamped
   at zero),
4. delivers to each active flow its lagged maxQD signal -- the maximum
   queueing delay along its route as it stood one feedback lag ago -- and
   lets the flow's controller react,
5. records a trace sample when due.

Identical inputs produce bit-identical traces: there is no hidden state and
no wall-clock or hash-order dependence.
"""

from __future__ import annotations

import csv
import io
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
        """Write the trace; columns and float formatting are fixed so equal
        runs produce byte-identical files."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["time_s"]
        header += [f"flow_{fid}_rate_bps" for fid in self.flow_ids]
        header += [f"flow_{fid}_signal_s" for fid in self.flow_ids]
        header += [f"link_{lid}_qdelay_s" for lid in self.link_ids]
        writer.writerow(header)
        for i in range(len(self.times)):
            row = [repr(float(self.times[i]))]
            row += [repr(float(x)) for x in self.rates[i]]
            row += [repr(float(x)) for x in self.signals[i]]
            row += [repr(float(x)) for x in self.queue_delays[i]]
            writer.writerow(row)
        _atomic_write(path, buf.getvalue())


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
        self.incidence = np.zeros((nl, nf))
        max_route = max(len(f.route) for f in flows)
        self.route_idx = np.zeros((nf, max_route), dtype=np.intp)
        self.route_pad = np.zeros((nf, max_route), dtype=bool)  # True = real hop
        for j, f in enumerate(flows):
            for h, lid in enumerate(f.route):
                self.incidence[lidx[lid], j] = 1.0
                self.route_idx[j, h] = lidx[lid]
                self.route_pad[j, h] = True

        self.base_rtt = np.array([base_rtt(topology, f.route) for f in flows])
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

    def _interp_queue(self, pos: np.ndarray, filled: int) -> np.ndarray:
        """Queue delays per (flow, hop) at fractional history index ``pos``."""
        pos = np.clip(pos, 0.0, float(filled))
        i0 = np.floor(pos).astype(np.intp)
        i1 = np.minimum(i0 + 1, filled)
        frac = (pos - i0)[:, None]
        lo = self._hist[i0[:, None], self.route_idx]
        hi = self._hist[i1[:, None], self.route_idx]
        return lo * (1.0 - frac) + hi * frac

    def _route_queue_sum(self, pos: np.ndarray, filled: int) -> np.ndarray:
        vals = np.where(self.route_pad, self._interp_queue(pos, filled), 0.0)
        return vals.sum(axis=1)

    def _signals(self, t: float, filled: int) -> np.ndarray:
        dt = self.config.dt
        if self.config.signal_delay_mode == "fixed_rtt":
            emit = t - self.base_rtt
        else:
            # solve emit + base_rtt + route_queue(emit) = t by bisection;
            # arrival time is nondecreasing in emit since dD/dt >= -1
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
            emit = lo
        vals = self._interp_queue(emit / dt, filled)
        vals = np.where(self.route_pad, vals, -1.0)
        sig = np.maximum(vals.max(axis=1), 0.0)
        # no feedback before the first ACK returns
        sig[t < self._eligible_from] = 0.0
        return sig

    def deliver_signal(self, flow_id: str, t: float) -> float:
        """The maxQD signal the sender of ``flow_id`` holds at time ``t``."""
        if not hasattr(self, "_hist"):
            raise RuntimeError("simulation has not started")
        j = self.flow_ids.index(flow_id)
        sig = self._signals(float(t), self._filled)
        return float(sig[j])

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

        self._hist = np.zeros((n_steps + 1, nl))
        self._filled = 0
        self._eligible_from = self.base_rtt + np.array(
            [f.start_time for f in self.flows]
        )

        aimd = cfg.aimd
        aimd_pkt = aimd.packet_size
        events_out: list[TraceEvent] = []
        ev = self._events
        ev_ptr = 0

        n_samples = n_steps // self.sample_every + 1
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

        for k in range(n_steps):
            t_next = (k + 1) * dt
            if ev_ptr < len(ev) and ev[ev_ptr][0] <= k:
                apply_events(k, k * dt)

            arrival = self.incidence @ rates
            qd += dt * (arrival - self.bw) / self.bw
            np.maximum(qd, 0.0, out=qd)
            self._hist[k + 1] = qd
            self._filled = k + 1

            cur_sig = self._signals(t_next, k + 1)

            due = active & (t_next - last_update > gate_after)
            if cfg.update_mode == "per_rtt":
                mask = due & self.is_soze
                exponent = None
            else:
                live = active & self.is_soze
                pkt_acc[live] += dt * rates[live] / cfg.packet_size
                whole = np.floor(pkt_acc)
                mask = live & (whole >= 1.0)
                exponent = np.minimum(m * whole[mask], 1.0)
                pkt_acc[mask] -= whole[mask]
            if mask.any():
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
