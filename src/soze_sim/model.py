"""Network model: directed-link topologies, flows, and deterministic routing.

Conventions used throughout the package:

* all times are in seconds, all rates and bandwidths in bits/s;
* links are directed -- a physical cable is represented by two directed
  links, one per direction, because queueing happens per egress direction;
* host NIC links are ordinary links, so incast bottlenecks at the
  destination edge arise naturally.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence


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


@dataclass(frozen=True)
class Topology:
    nodes: tuple[str, ...]
    links: tuple[Link, ...]

    @cached_property
    def link_by_id(self) -> dict[str, Link]:
        return {l.id: l for l in self.links}

    @cached_property
    def out_links(self) -> dict[str, tuple[Link, ...]]:
        out: dict[str, list[Link]] = {n: [] for n in self.nodes}
        for l in self.links:
            out[l.src].append(l)
        # stable per-node ordering so routing is reproducible
        return {n: tuple(sorted(ls, key=lambda l: l.id)) for n, ls in out.items()}

    @cached_property
    def _hops_by_dst(self) -> dict[str, dict[str, int]]:
        # filled by _distances_to: one BFS per destination routed to
        return {}

    def validate(self) -> None:
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
    """

    id: str
    route: tuple[str, ...]
    weight_schedule: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    start_time: float = 0.0
    stop_time: float | None = None
    controller: str = "soze"            # "soze" | "aimd"
    initial_rate: float | None = None   # bits/s; None -> rate cap / 10

    def weight_at(self, t: float) -> float:
        w = self.weight_schedule[0][1]
        for tw, ww in self.weight_schedule:
            if tw <= t:
                w = ww
            else:
                break
        return w


def validate_flow(topology: Topology, flow: FlowSpec) -> None:
    if not flow.route:
        raise FlowError(f"flow {flow.id!r}: empty route")
    links = topology.link_by_id
    prev_dst = None
    for lid in flow.route:
        link = links.get(lid)
        if link is None:
            raise FlowError(f"flow {flow.id!r}: unknown link {lid!r} in route")
        if prev_dst is not None and link.src != prev_dst:
            raise FlowError(
                f"flow {flow.id!r}: route breaks at {lid!r} "
                f"({prev_dst!r} -> {link.src!r})"
            )
        prev_dst = link.dst
    if len(set(flow.route)) != len(flow.route):
        again = next(l for i, l in enumerate(flow.route) if l in flow.route[:i])
        raise FlowError(f"flow {flow.id!r}: route crosses link {again!r} twice")
    if not flow.weight_schedule:
        raise FlowError(f"flow {flow.id!r}: empty weight schedule")
    times = [t for t, _ in flow.weight_schedule]
    if not all(math.isfinite(t) for t in times):
        raise FlowError(f"flow {flow.id!r}: schedule times must be finite")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise FlowError(f"flow {flow.id!r}: schedule times must be strictly increasing")
    if not all(math.isfinite(w) and w > 0 for _, w in flow.weight_schedule):
        raise FlowError(f"flow {flow.id!r}: weights must be finite and > 0")
    if times[0] > flow.start_time:
        raise FlowError(
            f"flow {flow.id!r}: first schedule time {times[0]} is after start "
            f"time {flow.start_time}"
        )
    if flow.stop_time is not None and flow.stop_time <= flow.start_time:
        raise FlowError(f"flow {flow.id!r}: stop time must be after start time")
    if flow.controller not in ("soze", "aimd"):
        raise FlowError(f"flow {flow.id!r}: unknown controller {flow.controller!r}")
    if flow.initial_rate is not None and flow.initial_rate <= 0:
        raise FlowError(f"flow {flow.id!r}: initial rate must be > 0")


def base_rtt(topology: Topology, route: Sequence[str]) -> float:
    """Zero-load round-trip time: twice the one-way propagation delay."""
    links = topology.link_by_id
    return 2.0 * sum(links[lid].prop_delay for lid in route)


def build_topology(raw: Mapping) -> Topology:
    """Build and validate a Topology from a parsed config mapping.

    Expected shape::

        {"nodes": ["a", "b"],
         "links": [{"src": "a", "dst": "b", "bandwidth": 1e11,
                    "prop_delay": 1e-6, "bidirectional": True}]}

    ``bidirectional`` (default true) emits both directed links of the cable.
    Link ids default to "src->dst".
    """
    try:
        nodes = tuple(str(n) for n in raw["nodes"])
    except KeyError:
        raise TopologyError("topology: missing 'nodes'")
    links: list[Link] = []
    for i, entry in enumerate(raw.get("links", ())):
        try:
            src, dst = str(entry["src"]), str(entry["dst"])
            bw = float(entry["bandwidth"])
            delay = float(entry.get("prop_delay", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"topology.links[{i}]: {exc}") from exc
        lid = str(entry.get("id", f"{src}->{dst}"))
        links.append(Link(lid, src, dst, bw, delay))
        if entry.get("bidirectional", True):
            links.append(Link(f"{dst}->{src}", dst, src, bw, delay))
    topo = Topology(nodes=nodes, links=tuple(links))
    topo.validate()
    return topo


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
    topo = Topology(nodes=tuple(nodes), links=tuple(links))
    topo.validate()
    return topo


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
    topo = Topology(nodes=tuple(nodes), links=tuple(links))
    topo.validate()
    return topo


def hosts_of(topology: Topology) -> tuple[str, ...]:
    """Nodes named h* -- the traffic endpoints of generated topologies."""
    return tuple(n for n in topology.nodes if n.startswith("h"))


def _pick(flow_id: str, seed: int, node: str, n: int) -> int:
    digest = hashlib.sha256(f"{flow_id}|{seed}|{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n


def _hops_to(topology: Topology, dst: str) -> dict[str, int]:
    """Hop distance from every node that can reach ``dst``, by BFS over
    reversed links."""
    dist = {dst: 0}
    incoming: dict[str, list[Link]] = {n: [] for n in topology.nodes}
    for l in topology.links:
        incoming[l.dst].append(l)
    frontier = deque([dst])
    while frontier:
        u = frontier.popleft()
        for l in incoming[u]:
            if l.src not in dist:
                dist[l.src] = dist[u] + 1
                frontier.append(l.src)
    return dist


def _distances_to(topology: Topology, dst: str) -> dict[str, int]:
    """``_hops_to(topology, dst)``, searched once per destination and kept
    on the topology."""
    memo = topology._hops_by_dst
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

    Among equal-cost next hops the choice is a deterministic hash of
    (flow id, seed, node), so a given flow always gets the same route and
    different flows spread over the ECMP fan-out.
    """
    if src == dst:
        raise TopologyError(f"route: src == dst ({src!r})")
    for node in (src, dst):
        if node not in topology.out_links:
            raise TopologyError(f"route: unknown node {node!r}")
    dist = _distances_to(topology, dst)
    if src not in dist:
        raise TopologyError(f"route: no path from {src!r} to {dst!r}")
    route: list[str] = []
    node = src
    while node != dst:
        candidates = [
            l for l in topology.out_links[node]
            if dist.get(l.dst, -1) == dist[node] - 1
        ]
        link = candidates[_pick(flow_id, seed, node, len(candidates))]
        route.append(link.id)
        node = link.dst
    return tuple(route)


def enumerate_shortest_routes(
    topology: Topology, src: str, dst: str
) -> list[tuple[str, ...]]:
    """All equal-cost shortest routes, for verification against route_flow."""
    dist = _distances_to(topology, dst)
    if src not in dist:
        return []
    out: list[tuple[str, ...]] = []

    def walk(node: str, acc: list[str]) -> None:
        if node == dst:
            out.append(tuple(acc))
            return
        for l in topology.out_links[node]:
            if dist.get(l.dst, -1) == dist[node] - 1:
                acc.append(l.id)
                walk(l.dst, acc)
                acc.pop()

    walk(src, [])
    return out
