"""Deterministic fixed-step fluid simulation of queues and rate controllers.

Per integration step of length ``dt`` the engine:

1. applies due events: each flow's ``FlowSpec.events()`` (start, weight
   steps, stop), placed on the step grid,
2. after an event or a rate update, sums per-link arrival rates by
   scattering each flow's rate over its route hops (flat
   ``(hop_flow, hop_link)`` arrays built once) into the queue increment
   ``dt * (R - B) / B``; the steps in between reuse it,
3. integrates each link's queueing delay ``dD/dt = (R - B) / B`` (clamped
   at zero) in place into its row of the queue history,
4. on steps where some flow updates its rate or a trace sample is due,
   delivers to every flow its lagged maxQD signal -- the maximum queueing
   delay along its route as it stood one feedback lag ago -- and lets the
   due flows' controllers react (a signal is read only when it is used,
   so the other steps skip delivery),
5. records a trace sample when due.

The per-flow constants are array work over the flat hop layout that
``model.route_hops`` returns: the base RTT sums the route's propagation
delays, the rate cap is ``control.rate_cap`` or the first hop's bandwidth,
the starting rate is the flow's ``initial_rate`` or a tenth of its cap, and
the control gate is the base RTT or ``control.update_interval``.

Under ``per_rtt`` a gate calendar keeps, per flow, the first step at which
its gate test can pass (its last update or start plus ``gate / dt`` steps,
less a rounding margin), and steps before the earliest of them skip the
test; from then on the float test alone decides who updates.

The queue history that step 4 reads is a ring of rows, one per step.  A
read is a mode-specific *row step*, which finds per *read key* the two
history rows around the emission time and the weight between them, then
one *gather*, shared by both modes and ``deliver_signal``: it interpolates
each distinct (read key, link) pair that some route uses once and takes
each flow's max over its hops.

With ``fixed_rtt`` a flow's key is its distinct base RTT, its constant lag.
A read has at most min(distinct base RTTs x links, route hops) pairs, so it
costs O(route hops + links) on any mix of base RTTs, and a ring of
``ceil(max base RTT / dt) + 3`` rows (at most ``n_steps + 1``) suffices:
memory does not grow with ``end_time``.  The row step of the read at step
``k`` depends on ``k`` alone (``t = (k + 1) * dt``, every row up to
``k + 1`` filled, constant lags, a ring that never grows), so the engine
computes it ahead in one array call for a chunk of steps: a table of ring
offsets and weights of at most ``_TABLE_CELLS`` (step, key) cells, refilled
when a read passes its end, whose size is bounded in run length and in
flow count.  A read looks its row up and goes straight to the gather.

With ``propagation_plus_queue`` a flow's key is the flow, so its pairs are
its route hops.  A signal read at ``t`` was emitted at the latest time
``e`` with ``g(e) = e + base RTT + route queue sum(e) <= t``.  The history
is linear between rows, so ``g`` is piecewise linear; each link's
``dD/dt >= -1``, but a route's queue sum can fall by up to one second per
second per hop, so on a multi-hop route ``g`` can decrease and ``g(e) = t``
can have several roots.  The latest one never moves back as ``t`` grows.
The engine caches ``G[row, flow] = g(row * dt)`` for each row the first
time a read reaches it (O(route hops) per row), finds each flow's last row
with ``G <= t`` (O(kept rows x flows) per read) and solves the crossing
segment linearly.  Each flow's last row only moves forward, and rows older
than the smallest of them are dropped, so the ring starts at the fixed-lag
size and doubles only when the lags it must span outgrow it.

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
import orjson

from .baselines import AimdConfig, aimd_window
# inverse_target stays a module attribute so profilers can wrap it by name
from .control import ControlParams, inverse_target, update_ratio
from .model import FlowSpec, Topology, route_hops


class SimConfigError(ValueError):
    """Raised when a simulation configuration is inconsistent."""


SIGNAL_DELAY_MODES = ("fixed_rtt", "propagation_plus_queue")
UPDATE_MODES = ("per_rtt", "per_packet")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    ``dt`` must be at least four times finer than the fastest control gate.
    ``signal_delay_mode`` selects the feedback lag: a constant base RTT
    (default) or base RTT plus the route's queueing delays at emission time.
    ``update_mode`` gates controller updates once per RTT (default) or once
    per packet of ``packet_size`` bits.  AIMD's window also counts packets
    of ``packet_size`` bits.
    """

    dt: float
    end_time: float
    control: ControlParams = ControlParams()
    signal_delay_mode: str = "fixed_rtt"   # one of SIGNAL_DELAY_MODES
    update_mode: str = "per_rtt"           # one of UPDATE_MODES
    packet_size: float = 8000.0            # bits
    sampling_interval: float | None = None
    aimd: AimdConfig = AimdConfig()

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise SimConfigError("dt must be > 0")
        if not self.end_time >= self.dt:
            raise SimConfigError("end_time must cover at least one step")
        if self.signal_delay_mode not in SIGNAL_DELAY_MODES:
            raise SimConfigError(
                f"unknown signal_delay_mode {self.signal_delay_mode!r}"
            )
        if self.update_mode not in UPDATE_MODES:
            raise SimConfigError(f"unknown update_mode {self.update_mode!r}")
        if not self.packet_size > 0:
            raise SimConfigError("packet_size must be > 0")
        if self.sampling_interval is not None and self.sampling_interval < self.dt:
            raise SimConfigError("sampling_interval must be >= dt")


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

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the trace as CSV: a header, then per sample the time, the
        flow rates, the flow signals and the link queue delays.

        Every value is written as ``repr(float(x))``, the shortest text that
        reads back as the same float, so equal runs produce byte-identical
        files (``-0.0``, ``nan`` and ``inf`` included).  Rows are formatted
        in blocks of about ``_CSV_BLOCK_CELLS`` values, each distinct bit
        pattern of a block formatted once by ``_float_texts`` (orjson's
        shortest round-trip digits, edited into ``repr``'s notation), and
        streamed to the file.
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
                text = _float_texts(bits.view(np.float64))
                rows = text.take(inverse).reshape(-1, width).tolist()
                fh.writelines(",".join(r) + "\n" for r in rows)


_CSV_BLOCK_CELLS = 1 << 15
# (step, read key) cells in one chunk of the fixed_rtt row-step table: 96 KiB,
# small beside a run's peak memory, and refilled too rarely to show in its time
_TABLE_CELLS = 1 << 12


# abs(x) band edges for _float_texts, and per band the bytes.replace edits
# that turn orjson's text of a finite float in that band into repr's; past
# the last edge (inf, and nan, which sorts after every edge) repr is used
_BAND_EDGES = np.array([1e-9, 1e-5, 1e-4, 1e16, math.inf])
_BAND_EDITS = (
    (),                                         # [0, 1e-9): same text
    ((b"e-", b"e-0"),),                         # 1.5e-6 -> 1.5e-06
    tuple((b"0.0000%d" % d, b"%d." % d) for d in range(1, 10))
    + ((b",", b"e-05,"), (b".e", b"e")),        # 0.000015 -> 1.5e-05
    (),                                         # [1e-4, 1e16): same text
    ((b"e", b"e+"),),                           # 1e16 -> 1e+16
)


def _float_texts(values: np.ndarray) -> np.ndarray:
    """An object array equal to ``[repr(x) for x in values]`` for a 1-D
    float64 array, made with one ``orjson.dumps`` call per band of abs(x).

    orjson (Ryu) writes the same shortest round-trip digits as ``repr``,
    and in each band of abs(x) one notation, which the band's edits turn
    into ``repr``'s:

    - [0, 1e-9) and [1e-4, 1e16): the same text (``1e-10``, ``0.0001``,
      ``1000000000000000.0``);
    - [1e-9, 1e-5): no leading zero in the exponent, ``1.5e-6`` for
      ``1.5e-06``;
    - [1e-5, 1e-4): a fixed decimal, ``0.000015`` for ``1.5e-05``;
    - [1e16, inf): no sign in the exponent, ``1e16`` for ``1e+16``.

    Each band's text is edited on its own, with a ``,`` after every token,
    so an edit only ever meets tokens of that band's form.  NaN and +-inf,
    which orjson writes as ``null``, go through ``repr``.
    """
    band = np.searchsorted(_BAND_EDGES, np.abs(values), side="right")
    out = np.empty(len(values), dtype=object)
    for b, edits in enumerate(_BAND_EDITS):
        at = band == b
        if at.any():
            text = orjson.dumps(values[at], option=orjson.OPT_SERIALIZE_NUMPY)
            text = text[1:-1] + b","
            for old, new in edits:
                text = text.replace(old, new)
            out[at] = text.decode().split(",")[:-1]
    at = band == len(_BAND_EDITS)
    out[at] = [repr(x) for x in values[at].tolist()]
    return out


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


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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
    return replace(params, alpha=alpha, beta=beta)


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
        if not flows:
            raise SimConfigError("no flows")
        hops, start = route_hops(topology, flows)

        self.topology = topology
        self.flows = list(flows)
        self.config = config
        self.params = resolve_params(config.control, topology, flows)

        self.link_ids = tuple(l.id for l in topology.links)
        self.flow_ids = tuple(f.id for f in flows)
        nf, nl = len(flows), len(topology.links)

        self.bw = np.array([l.bandwidth for l in topology.links])
        lengths, first = np.diff(start), start[:-1]
        max_route = int(lengths.max())
        self.route_pad = np.arange(max_route) < lengths[:, None]  # True = real hop
        # padded with the last hop, so a max over the row ignores padding
        self.route_idx = hops[
            first[:, None] + np.minimum(np.arange(max_route), lengths[:, None] - 1)
        ]
        # flat route hops for the arrival scatter, in flow order: hop h
        # carries flow _hop_flow[h] over link _hop_link[h], and flow j's
        # hops start at _hop_first[j]
        self._hop_link, self._hop_flow = hops, np.repeat(np.arange(nf), lengths)
        self._hop_first = first

        # bincount adds from 0.0 in route order, as a sum over the route does
        prop = np.array([l.prop_delay for l in topology.links], dtype=float)
        self.base_rtt = 2.0 * np.bincount(self._hop_flow, prop[hops], nf)
        # a read finds history rows once per read key -- a flow's distinct
        # base RTT under fixed_rtt, the flow itself under queue lag -- and
        # interpolates each distinct (key, link) pair a route uses once:
        # pair p reads key _pair_key[p] on link _pair_link[p], and hop h of
        # flow j reads pair _hop_pair[h, j]
        self._queue_lag = config.signal_delay_mode == "propagation_plus_queue"
        self._lags, lag_of = np.unique(self.base_rtt, return_inverse=True)
        self._key_of = np.arange(nf) if self._queue_lag else lag_of
        key = self._key_of * nl + self.route_idx.T
        pairs, hop_pair = np.unique(key, return_inverse=True)
        self._hop_pair = hop_pair.reshape(key.shape)
        self._pair_key, self._pair_link = np.divmod(pairs, nl)

        params = self.params
        self.caps = (self.bw[hops[first]] if params.rate_cap is None
                     else np.full(nf, params.rate_cap, dtype=float))
        # an unset initial_rate (None) reads as NaN, which FlowSpec refuses
        init = np.array([f.initial_rate for f in flows], dtype=float)
        init = np.where(np.isnan(init), self.caps / 10.0, init)
        self.init_rates = np.minimum(np.maximum(init, params.rate_floor), self.caps)
        self.is_aimd = np.array([f.controller == "aimd" for f in flows])
        self.is_soze = ~self.is_aimd

        per_packet = config.update_mode == "per_packet"
        self.gate = self.base_rtt.copy()
        if params.update_interval is not None:
            self.gate[self.is_soze] = params.update_interval
        # per flow, the gate that dt must resolve; per packet, a Söze flow's
        # base RTT too (an AIMD flow's gate is its base RTT)
        limit = np.minimum(self.gate, self.base_rtt) if per_packet else self.gate
        fastest = int(limit.argmin())
        finest = float(limit[fastest])
        if finest <= 0:
            head = (f"flow {self.flow_ids[fastest]!r} has zero base RTT (no "
                    f"prop_delay on route {', '.join(flows[fastest].route)})")
            if self.is_aimd[fastest]:
                raise SimConfigError(
                    f"prop_delay: {head}, which AIMD divides its window by")
            if per_packet:
                raise SimConfigError(f"prop_delay: {head}, and per_packet "
                                     "updates need dt <= a quarter of it")
            raise SimConfigError(
                f"control.update_interval: {head}, so it needs an update interval")
        if config.dt > finest / 4.0 * (1.0 + 1e-9):
            raise SimConfigError(
                f"sim.dt: {config.dt} too coarse: need <= {finest / 4.0}, a "
                "quarter of the fastest control gate "
                f"(flow {self.flow_ids[fastest]!r})"
            )

        self.n_steps = max(1, int(round(config.end_time / config.dt)))
        samp = config.sampling_interval
        if samp is None:
            samp = finest
        self.sample_every = max(1, int(round(samp / config.dt)))
        self.sampling_interval = self.sample_every * config.dt
        self._n_samples = self.n_steps // self.sample_every + 1
        # the queue-lag ring starts at this size and grows on demand
        self._hist_rows = min(
            math.ceil(float(self._lags[-1]) / config.dt) + 3, self.n_steps + 1
        )

        need = 8 * (self._n_samples * (1 + 2 * nf + nl) + self._hist_rows * nl)
        phys = physical_memory()
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
        # stable, so a flow's weight steps that share a step keep their order
        self._events = sorted([
            (max(0, int(round(t / dt))), order[kind], f.id, j, kind, value)
            for j, f in enumerate(self.flows) for t, kind, value in f.events()
        ], key=lambda e: e[:3])

    # -- signal delivery ---------------------------------------------------

    def _read_rows(self, t, filled):
        """The row step of a read at ``t`` over the history up to row
        ``filled``: per read key, its history rows ``(i0, i1)`` stacked as a
        ``(2, keys)`` array, and the interpolation weight of ``i1``.

        Under ``fixed_rtt``, ``t`` and ``filled`` may also be columns of
        ``S`` reads, which give ``(S, 2, keys)`` rows and ``(S, keys)``
        weights."""
        if self._queue_lag:
            return self._emission_rows(t, filled)
        pos = np.minimum(np.maximum((t - self._lags) / self.config.dt, 0.0),
                         filled)
        i0 = pos.astype(np.intp)    # pos >= 0, so this is floor
        return np.stack((i0, np.minimum(i0 + 1, filled)), axis=-2), pos - i0

    def _emission_rows(self, t: float, filled: int):
        """Each flow's queue-lag emission point for a read at ``t``, searched
        over the kept rows ``_oldest .. filled``.  A flow with no kept row
        with ``G <= t`` reads the row before them, which is no longer kept,
        or row 0 when no row has been dropped yet."""
        dt, ring = self.config.dt, self._hist_rows
        new = np.arange(self._g_next, filled + 1)
        if new.size:
            queues = self._hist[new % ring].take(self._hop_link, axis=1)
            self._lag_g[new % ring] = (new[:, None] * dt + self.base_rtt) + (
                np.add.reduceat(queues, self._hop_first, axis=1)
            )
            self._g_next = filled + 1
        kept = filled + 1 - self._oldest
        g = self._lag_g[np.arange(self._oldest, filled + 1) % ring]
        # the last kept row with G <= t: g is linear between rows, so past
        # that row it crosses t once, inside the next segment, and stays above
        last = kept - 1 - (g[::-1] <= t).argmax(axis=0)
        g = np.take_along_axis(g, np.minimum(last + _NEXT_ROW, kept - 1), axis=0)
        found = g[0] <= t
        cross = found & (g[1] > t)
        frac = np.divide(t - g[0], g[1] - g[0], out=np.zeros_like(g[0]),
                         where=cross)
        last[~found] = -1
        rows = self._oldest + np.minimum(last + _NEXT_ROW, kept - 1)
        return np.maximum(rows, 0), frac

    def _fill_table(self, filled: int) -> None:
        """Tabulate the ``fixed_rtt`` row steps of the reads of steps
        ``filled - 1`` on, for as many steps as ``_TABLE_CELLS`` (step, key)
        cells hold (at least one, at most to the run's end): their rows as
        offsets into the ring, which never grows, and their weights."""
        steps = max(1, _TABLE_CELLS // len(self._lags))
        col = np.arange(filled, min(filled + steps, self.n_steps + 1))[:, None]
        # a read with filled = k + 1 is at t = (k + 1) * dt, as in run
        rows, self._table_frac = self._read_rows(col * self.config.dt, col)
        self._table_flat = rows % self._hist_rows * self._hist.shape[1]
        self._table_first = filled

    def _route_max(self, rows: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """Per flow, the largest queue on its route: each (key, link) pair is
        interpolated once between its key's history rows ``rows`` with
        weight ``frac``, then each flow takes the max over its hops."""
        return self._gather(rows % self._hist_rows * self._hist.shape[1], frac)

    def _gather(self, flat: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """``_route_max`` from the rows' offsets ``flat`` into the ring."""
        lohi = self._hist.take(flat.take(self._pair_key, axis=1) + self._pair_link)
        frac = frac.take(self._pair_key)
        pairs = lohi[0] * (1.0 - frac) + lohi[1] * frac
        # padding repeats each route's last hop, so it cannot raise the max
        return np.maximum.reduce(pairs.take(self._hop_pair), axis=0)

    def _grow_history(self, filled: int) -> None:
        """Double the queue-lag ring (to at most one row per step), keeping
        rows ``_oldest .. filled`` and their cached ``G``; new rows read 0."""
        ring = min(2 * self._hist_rows, self.n_steps + 1)
        kept = np.arange(self._oldest, filled + 1)
        for name in ("_hist", "_lag_g"):
            buf = getattr(self, name)
            grown = np.zeros((ring, buf.shape[1]))
            grown[kept % ring] = buf[kept % self._hist_rows]
            setattr(self, name, grown)
        self._hist_rows = ring

    def _signals(self, t: float, filled: int) -> np.ndarray:
        """Every flow's signal at ``t``, the time of step ``filled``.  A
        ``fixed_rtt`` read looks its row step up in the table; a queue-lag
        read solves it and drops the rows that no later read can need."""
        if self._queue_lag:
            rows, frac = self._read_rows(t, filled)
            self._oldest = int(np.minimum.reduce(rows[0]))
            sig = self._route_max(rows, frac)
        else:
            i = filled - self._table_first
            if i >= len(self._table_frac):
                self._fill_table(filled)
                i = 0
            sig = self._gather(self._table_flat[i], self._table_frac[i])
        # no feedback before the first ACK returns
        if t < self._last_ack:
            sig[t < self._eligible_from] = 0.0
        return sig

    def deliver_signal(self, flow_id: str, t: float) -> float:
        """The maxQD signal the sender of ``flow_id`` holds at time ``t``,
        from a finished run's own row step and route max.

        Both modes answer 0 for any ``t`` before the flow's first ACK and
        read the queues past the run's end as they stood after its last
        step.  After ``n`` steps on a ring of ``R`` rows the history keeps
        rows ``max(o, n - R + 1) .. n``, with ``o`` as below and 0 under
        ``fixed_rtt``; a ``t`` that reads an older row raises ValueError,
        because that row was overwritten.  So:

        ``fixed_rtt`` keeps only the last
        ``R = min(ceil(max base RTT / dt) + 3, n_steps + 1)`` queue rows
        (all of them when ``R = n_steps + 1``): after ``n`` steps,
        for a flow with base RTT ``L`` it answers for ``t`` from
        ``(n - R + 1) * dt + L`` on.

        ``propagation_plus_queue`` keeps the rows from the oldest emission
        row that the run's last signal read used, row ``o``: it answers for
        ``t`` from ``G(o) = o * dt + L + route queue sum at row o`` on, the
        time at which row ``o`` reaches the sender.  The answer is solved
        from row ``o`` afresh, so asking never changes the run.
        """
        if not self._ran:
            started = hasattr(self, "_hist")
            raise RuntimeError("simulation did not finish" if started
                               else "simulation has not started")
        j = self.flow_ids.index(flow_id)
        t = float(t)
        if t < self._eligible_from[j]:
            return 0.0
        n, ring = self.n_steps, self._hist_rows
        rows, frac = self._read_rows(t, n)
        oldest = max(self._oldest, n - ring + 1)
        if rows[0, self._key_of[j]] < oldest:
            first = (self._lag_g[oldest % ring, j] if self._queue_lag
                     else oldest * self.config.dt + self.base_rtt[j])
            raise ValueError(
                f"flow {flow_id!r} at t={t!r}: the queue rows it reads were "
                f"overwritten; the history answers from t={float(first)!r} on"
            )
        return float(self._route_max(rows, frac)[j])

    # -- main loop ----------------------------------------------------------

    def run(self) -> Trace:
        if hasattr(self, "_hist"):
            raise RuntimeError("simulation already ran; build a fresh instance")
        cfg = self.config
        dt, n_steps = cfg.dt, self.n_steps
        nf, nl = len(self.flows), len(self.topology.links)
        tol = dt / 2.0

        rates = np.zeros(nf)
        weights = np.zeros(nf)      # each flow's first weight event sets it
        active = np.zeros(nf, dtype=bool)
        last_update = np.zeros(nf)
        cur_sig = np.zeros(nf)
        pkt_acc = np.zeros(nf)
        cwnd = np.zeros(nf)
        qd = np.zeros(nl)

        self._hist = np.zeros((self._hist_rows, nl))
        # rows before _oldest are dropped; under fixed_rtt it stays 0
        self._oldest = 0
        queue_lag = self._queue_lag
        if queue_lag:
            # G per kept row and flow, cached up to row _g_next - 1
            self._lag_g = np.empty((self._hist_rows, nf))
            self._g_next = 0
        else:
            self._fill_table(1)     # from the read of step 0 on
        self._eligible_from = self.base_rtt + np.array(
            [f.start_time for f in self.flows]
        )
        self._last_ack = float(np.maximum.reduce(self._eligible_from))

        aimd = cfg.aimd
        aimd_pkt = cfg.packet_size
        ev = self._events
        ev_ptr = 0

        n_samples = self._n_samples
        out_t = np.empty(n_samples)
        out_rates = np.empty((n_samples, nf))
        out_sig = np.empty((n_samples, nf))
        out_qd = np.empty((n_samples, nl))
        row = 0

        # the gate calendar: with last_update = (r + 1) * dt for a flow's
        # reset step r, the gate test at step k reads (k - r) * dt > gate -
        # dt/2, so it cannot pass before step r + lead; slack, in steps,
        # bounds the rounding of (k + 1) * dt, (r + 1) * dt, gate - dt/2 and
        # gate / dt for every k < n_steps
        gate_steps = self.gate / dt
        slack = 8 * np.finfo(float).eps * (n_steps + 1 + gate_steps)
        lead = np.floor(gate_steps - 0.5 - slack).astype(np.intp) + 1
        # per flow, the first step its gate can open (n_steps: none, as
        # for an inactive flow)
        opens = np.full(nf, n_steps, dtype=np.intp)

        def apply_events(step: int, now: float) -> None:
            nonlocal ev_ptr
            while ev_ptr < len(ev) and ev[ev_ptr][0] <= step:
                *_, j, kind, value = ev[ev_ptr]
                ev_ptr += 1
                if kind == "start":
                    active[j] = True
                    rates[j] = self.init_rates[j]
                    last_update[j] = now
                    opens[j] = step - 1 + lead[j]
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
                    opens[j] = n_steps

        apply_events(0, 0.0)
        out_t[row] = 0.0
        out_rates[row] = rates
        out_sig[row] = cur_sig
        out_qd[row] = qd
        row += 1

        m = self.params.m
        gate_after = self.gate - tol
        bw = self.bw
        hop_link, hop_flow = self._hop_link, self._hop_flow
        per_rtt = cfg.update_mode == "per_rtt"
        has_aimd = bool(np.logical_or.reduce(self.is_aimd))
        # the queue increment of one step, kept while the rates stand
        stale = True
        next_gate = int(np.minimum.reduce(opens))

        for k in range(n_steps):
            t_next = (k + 1) * dt
            if ev_ptr < len(ev) and ev[ev_ptr][0] <= k:
                apply_events(k, k * dt)
                stale = True
                next_gate = int(np.minimum.reduce(opens))

            if stale:
                arrival = np.bincount(hop_link, rates.take(hop_flow), nl)
                inc = dt * (arrival - bw) / bw
                stale = False
            if queue_lag and k + 1 - self._oldest >= self._hist_rows:
                self._grow_history(k)
            # qd becomes the history row of step k + 1
            qd = np.add(qd, inc, out=self._hist[(k + 1) % self._hist_rows])
            np.maximum(qd, 0.0, out=qd)

            update_soze = update_aimd = False
            if k >= next_gate or not per_rtt:
                if per_rtt or has_aimd:
                    due = active & (t_next - last_update > gate_after)
                if per_rtt:
                    mask = due
                else:
                    # unstarted and stopped flows have rate 0, and AIMD
                    # counters are never read, so every counter runs
                    pkt_acc += dt * rates / cfg.packet_size
                    whole = np.floor(pkt_acc)
                    mask = whole >= 1.0
                if has_aimd:
                    mask = mask & self.is_soze
                    aimd_mask = due & self.is_aimd
                    update_aimd = np.logical_or.reduce(aimd_mask)
                update_soze = np.logical_or.reduce(mask)
            sample = (k + 1) % self.sample_every == 0
            if update_soze or update_aimd or sample:
                cur_sig = self._signals(t_next, k + 1)

            if update_soze:
                exponent = None
                if not per_rtt:
                    exponent = np.minimum(m * whole[mask], 1.0)
                    pkt_acc[mask] -= whole[mask]
                s = rates[mask] / weights[mask]
                ratio = update_ratio(s, cur_sig[mask], self.params, exponent)
                rates[mask] = np.minimum(
                    np.maximum(rates[mask] * ratio, self.params.rate_floor),
                    self.caps[mask],
                )
                last_update[mask] = t_next

            if update_aimd:
                mask = aimd_mask
                cwnd[mask] = aimd_window(cwnd[mask], cur_sig[mask], aimd)
                rates[mask] = np.minimum(
                    cwnd[mask] * aimd_pkt / self.base_rtt[mask], self.caps[mask]
                )
                last_update[mask] = t_next

            if update_soze or update_aimd:
                stale = True
                if per_rtt:
                    opens[due] = k + lead[due]
                    next_gate = int(np.minimum.reduce(opens))

            if sample:
                out_t[row] = t_next
                out_rates[row] = rates
                out_sig[row] = np.where(active, cur_sig, 0.0)
                out_qd[row] = qd
                row += 1

        self._ran = True    # deliver_signal reads the finished history
        return Trace(
            times=out_t[:row],
            flow_ids=self.flow_ids,
            link_ids=self.link_ids,
            rates=out_rates[:row],
            signals=out_sig[:row],
            queue_delays=out_qd[:row],
            # the events the loop applied: those before the last step
            events=tuple(TraceEvent(step * dt, kind, fid, value)
                         for step, _, fid, _, kind, value in ev if step < n_steps),
            routes={f.id: tuple(f.route) for f in self.flows},
            base_rtts={f.id: float(r) for f, r in zip(self.flows, self.base_rtt)},
            bandwidths={l.id: l.bandwidth for l in self.topology.links},
            control_intervals={
                self.flow_ids[j]: float(self.gate[j]) for j in range(nf)
            },
            sampling_interval=self.sampling_interval,
        )

