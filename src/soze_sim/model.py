"""Network model: directed-link topologies, flows, and deterministic routing.

Conventions used throughout the package:

* all times are in seconds, all rates and bandwidths in bits/s;
* links are directed -- a physical cable is represented by two directed
  links, one per direction, because queueing happens per egress direction;
* host NIC links are ordinary links, so incast bottlenecks at the
  destination edge arise naturally.

Each type checks itself when it is built, so a ``Topology`` or a
``FlowSpec`` that exists is valid on its own; ``route_hops`` checks a flow
set against a topology -- distinct flow ids, routes along its links -- and
lays their hops out flat for the engine and the oracle.

Routing runs on one integer index per topology: one array BFS per
destination gives every node's hop count, and a route walks down them.  A
lone out-link one hop closer is taken as is; among several, a sha256 of
(flow id, seed, node) picks one.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np


class TopologyError(ValueError):
    """Raised when a topology or route fails validation."""


class FlowError(ValueError):
    """Raised when a flow specification fails validation."""


@dataclass(frozen=True)
class Link:
    """One directed link: traffic flows src -> dst."""

    id: str
    src: str
    dst: str
    bandwidth: float      # bits/s
    prop_delay: float     # s


class _RouteIndex(NamedTuple):
    node: dict[str, int]                 # node id -> index, in nodes order
    link: dict[str, int]                 # link id -> index, in links order
    src: np.ndarray                      # per link, its src and dst index
    dst: np.ndarray
    in_lo: np.ndarray                    # in_src[in_lo[v]:in_lo[v] + in_n[v]]
    in_n: np.ndarray                     # are the srcs of the links into v
    in_src: np.ndarray
    out: list[list[tuple[str, int]]]     # (link id, dst) sorted by link id
    hops_by_dst: dict[str, list[int]]    # filled by _distances_to


@dataclass(frozen=True)
class Topology:
    nodes: tuple[str, ...]
    links: tuple[Link, ...]

    @cached_property
    def _index(self) -> _RouteIndex:
        node = {n: i for i, n in enumerate(self.nodes)}
        src = np.array([node[l.src] for l in self.links], dtype=np.intp)
        dst = np.array([node[l.dst] for l in self.links], dtype=np.intp)
        in_n = np.bincount(dst, minlength=len(node))
        # per-node out-links in link-id order, so routing is reproducible
        out: list[list[tuple[str, int]]] = [[] for _ in self.nodes]
        for l in sorted(self.links, key=lambda l: l.id):
            out[node[l.src]].append((l.id, node[l.dst]))
        link = {l.id: j for j, l in enumerate(self.links)}
        return _RouteIndex(node, link, src, dst, np.cumsum(in_n) - in_n, in_n,
                           src[np.argsort(dst, kind="stable")], out, {})

    def __post_init__(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node ids")
        node_set = set(self.nodes)
        seen: set[str] = set()
        for l in self.links:
            if l.id in seen:
                raise TopologyError(f"duplicate link id {l.id!r}")
            seen.add(l.id)
            if l.src not in node_set:
                raise TopologyError(f"link {l.id!r}: unknown endpoint {l.src!r}")
            if l.dst not in node_set:
                raise TopologyError(f"link {l.id!r}: unknown endpoint {l.dst!r}")
            if l.src == l.dst:
                raise TopologyError(f"link {l.id!r}: self-loop")
            if not (math.isfinite(l.bandwidth) and l.bandwidth > 0):
                raise TopologyError(
                    f"link {l.id!r}: bandwidth must be finite and > 0"
                )
            if not (math.isfinite(l.prop_delay) and l.prop_delay >= 0):
                raise TopologyError(
                    f"link {l.id!r}: propagation delay must be finite and >= 0"
                )


@dataclass(frozen=True)
class FlowSpec:
    """A flow: a fixed route plus a weight step-schedule.

    ``weight_schedule`` is a sequence of (time, weight) pairs; each weight
    takes effect instantaneously at its time and holds until the next entry.
    ``start_time`` is >= 0: the simulation starts at 0.  ``events()`` is the
    schedule that both the engine and the summary's epochs read.
    """

    id: str
    route: tuple[str, ...]
    weight_schedule: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    start_time: float = 0.0
    stop_time: float | None = None
    controller: str = "soze"            # "soze" | "aimd"
    initial_rate: float | None = None   # bits/s; None -> rate cap / 10

    def __post_init__(self) -> None:
        fid, route, sched = self.id, self.route, self.weight_schedule
        if not route:
            raise FlowError(f"flow {fid!r}: empty route")
        if len(set(route)) != len(route):
            again = next(l for i, l in enumerate(route) if l in route[:i])
            raise FlowError(f"flow {fid!r}: route crosses link {again!r} twice")
        if not sched:
            raise FlowError(f"flow {fid!r}: empty weight schedule")
        times = [t for t, _ in sched]
        if not all(map(math.isfinite, times)):
            raise FlowError(f"flow {fid!r}: schedule times must be finite")
        if any(map(operator.le, times[1:], times)):
            raise FlowError(
                f"flow {fid!r}: schedule times must be strictly increasing")
        weights = [w for _, w in sched]
        if not (all(map(math.isfinite, weights)) and min(weights) > 0):
            raise FlowError(f"flow {fid!r}: weights must be finite and > 0")
        start, stop = self.start_time, self.stop_time
        if not (math.isfinite(start) and (stop is None or math.isfinite(stop))):
            raise FlowError(f"flow {fid!r}: start and stop times must be finite")
        if start < 0:
            raise FlowError(f"flow {fid!r}: start time must be >= 0")
        if times[0] > start:
            raise FlowError(
                f"flow {fid!r}: first schedule time {times[0]} is after "
                f"start time {start}"
            )
        if stop is not None and stop <= start:
            raise FlowError(f"flow {fid!r}: stop time must be after start time")
        if self.controller not in ("soze", "aimd"):
            raise FlowError(f"flow {fid!r}: unknown controller {self.controller!r}")
        if self.initial_rate is not None and not self.initial_rate > 0:
            raise FlowError(f"flow {fid!r}: initial rate must be > 0")

    def events(self) -> list[tuple[float, str, float | None]]:
        """``(time, kind, value)`` for the flow's start, each weight step
        (the value is the weight) and its stop, in that order."""
        events = [(self.start_time, "start", None)]
        events += [(t, "weight", w) for t, w in self.weight_schedule]
        if self.stop_time is not None:
            events.append((self.stop_time, "stop", None))
        return events

    def weight_at(self, t: float) -> float:
        w = self.weight_schedule[0][1]
        for tw, ww in self.weight_schedule:
            if tw <= t:
                w = ww
            else:
                break
        return w


def route_hops(
    topology: Topology, flows: Sequence[FlowSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """The flows' routes checked against ``topology`` and laid out flat:
    ``hop_link`` holds the link index of every hop, flow after flow, and
    flow ``i`` owns hops ``start[i]:start[i + 1]``.  A repeated flow id, an
    unknown link or a hop that does not leave the node the previous hop
    entered raises FlowError naming the flow."""
    if len({f.id for f in flows}) < len(flows):
        seen: set[str] = set()
        fid = next(f.id for f in flows if f.id in seen or seen.add(f.id))
        raise FlowError(f"flow {fid!r}: duplicate id")
    index = topology._index
    start = np.zeros(len(flows) + 1, dtype=np.intp)
    np.cumsum([len(f.route) for f in flows], out=start[1:])
    try:
        hop_link = np.fromiter(
            map(index.link.__getitem__, chain.from_iterable(f.route for f in flows)),
            dtype=np.intp, count=int(start[-1]),
        )
    except KeyError as exc:
        lid = exc.args[0]
        fid = next(f.id for f in flows if lid in f.route)
        raise FlowError(f"flow {fid!r}: unknown link {lid!r} in route") from None
    # hop h + 1 must leave where hop h arrives, unless it starts a flow
    broken = index.src[hop_link[1:]] != index.dst[hop_link[:-1]]
    broken[start[1:-1] - 1] = False
    if broken.any():
        h = int(broken.argmax()) + 1
        fid = flows[int(np.searchsorted(start, h, side="right")) - 1].id
        prev, link = (topology.links[j] for j in hop_link[h - 1:h + 1])
        raise FlowError(
            f"flow {fid!r}: route breaks at {link.id!r} "
            f"({prev.dst!r} -> {link.src!r})"
        )
    return hop_link, start


def _both_directions(src: str, dst: str, bw: float, delay: float) -> list[Link]:
    return [
        Link(f"{src}->{dst}", src, dst, bw, delay),
        Link(f"{dst}->{src}", dst, src, bw, delay),
    ]


def star(n: int, bandwidth: float, prop_delay: float) -> Topology:
    """n hosts (h0..h{n-1}) attached to a single switch 'sw'."""
    if n < 2:
        raise TopologyError("star: need at least 2 hosts")
    nodes = [f"h{i}" for i in range(n)] + ["sw"]
    links: list[Link] = []
    for i in range(n):
        links += _both_directions(f"h{i}", "sw", bandwidth, prop_delay)
    return Topology(nodes=tuple(nodes), links=tuple(links))


def fat_tree(K: int, bandwidth: float, prop_delay: float) -> Topology:
    """Standard K-ary fat-tree: K^3/4 hosts, 5K^2/4 switches, uniform links.

    Node ids: hosts ``h{i}``, edge ``e{pod}_{j}``, aggregation ``a{pod}_{j}``,
    core ``c{j}_{l}`` where aggregation switch j of every pod connects to
    cores ``c{j}_*``.
    """
    if K < 2 or K % 2 != 0:
        raise TopologyError(f"fat_tree: K must be even and >= 2, got {K}")
    half = K // 2
    nodes: list[str] = []
    links: list[Link] = []
    for j in range(half):
        for l in range(half):
            nodes.append(f"c{j}_{l}")
    host = 0
    for pod in range(K):
        for j in range(half):
            edge = f"e{pod}_{j}"
            agg = f"a{pod}_{j}"
            nodes += [edge, agg]
            for _ in range(half):
                h = f"h{host}"
                nodes.append(h)
                links += _both_directions(h, edge, bandwidth, prop_delay)
                host += 1
            for l in range(half):
                links += _both_directions(edge, f"a{pod}_{l}", bandwidth, prop_delay)
                links += _both_directions(agg, f"c{j}_{l}", bandwidth, prop_delay)
    return Topology(nodes=tuple(nodes), links=tuple(links))


def hosts_of(topology: Topology) -> tuple[str, ...]:
    """Nodes named h* -- the traffic endpoints of generated topologies."""
    return tuple(n for n in topology.nodes if n.startswith("h"))


def _pick(flow_id: str, seed: int, node: str, n: int) -> int:
    digest = hashlib.sha256(f"{flow_id}|{seed}|{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n


def _hops_to(topology: Topology, dst: str) -> list[int]:
    """Hop count to ``dst`` from every node, by node index; -1 where there is
    no path.  A BFS over reversed links, one numpy pass per level, reads each
    node's incoming links once, when the node is on the frontier."""
    index = topology._index
    dist = np.full(len(index.node), -1, dtype=np.intp)
    first = np.empty_like(dist)   # first[v]: one position of v in src
    frontier = np.array([index.node[dst]])
    dist[frontier] = hops = 0
    while frontier.size:
        hops += 1
        n = index.in_n[frontier]
        end = n.cumsum()
        # the in_src slots of all frontier nodes, block after block
        slots = np.arange(end[-1]) + (index.in_lo[frontier] - end + n).repeat(n)
        src = index.in_src[slots]
        src = src[dist[src] < 0]
        first[src] = seen = np.arange(src.size)
        frontier = src[first[src] == seen]
        dist[frontier] = hops
    return dist.tolist()


def _distances_to(topology: Topology, dst: str) -> list[int]:
    """``_hops_to(topology, dst)``, searched once per destination and kept
    on the topology."""
    memo = topology._index.hops_by_dst
    if dst not in memo:
        memo[dst] = _hops_to(topology, dst)
    return memo[dst]


def route_flow(
    topology: Topology,
    src: str,
    dst: str,
    seed: int = 0,
    flow_id: str = "",
) -> tuple[str, ...]:
    """Pick a shortest path (by hop count) from src to dst.

    The walk runs over the topology's integer index.  At each node the
    candidates are the out-links one hop closer, in link-id order: a lone one
    is taken, and among several a sha256 of (flow id, seed, node) picks, so a
    flow always gets the same route and flows spread over the ECMP fan-out.
    """
    if src == dst:
        raise TopologyError(f"route: src == dst ({src!r})")
    index = topology._index
    for node in (src, dst):
        if node not in index.node:
            raise TopologyError(f"route: unknown node {node!r}")
    dist = _distances_to(topology, dst)
    u, target = index.node[src], index.node[dst]
    if dist[u] < 0:
        raise TopologyError(f"route: no path from {src!r} to {dst!r}")
    route: list[str] = []
    while u != target:
        closer = dist[u] - 1
        candidates = [(lid, v) for lid, v in index.out[u] if dist[v] == closer]
        pick = 0 if len(candidates) == 1 else _pick(
            flow_id, seed, topology.nodes[u], len(candidates))
        lid, u = candidates[pick]
        route.append(lid)
    return tuple(route)
