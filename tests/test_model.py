import hashlib
from collections import deque

import numpy as np
import pytest

from soze_sim import (
    FlowSpec,
    FluidSimulation,
    ScenarioError,
    SimConfig,
    build_topology,
    fat_tree,
    load_scenario,
    route_flow,
    star,
)
from soze_sim import model
from soze_sim.model import (
    FlowError,
    TopologyError,
    hosts_of,
    route_hops,
)

from conftest import scenario_path, two_switch


# Reference routing on node names and Link objects: a dict BFS over
# reversed links, and a walk that hashes (flow id, seed, node) at every hop.
# The package's integer-indexed routing must give exactly these routes.

def reference_hops(topology, dst):
    """Hop distance from every node that can reach ``dst``."""
    incoming = {n: [] for n in topology.nodes}
    for l in topology.links:
        incoming[l.dst].append(l)
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        u = frontier.popleft()
        for l in incoming[u]:
            if l.src not in dist:
                dist[l.src] = dist[u] + 1
                frontier.append(l.src)
    return dist


def reference_out_links(topology, node):
    return sorted((l for l in topology.links if l.src == node),
                  key=lambda l: l.id)


def reference_route(topology, src, dst, seed, flow_id):
    """The route and the number of its hops that had two or more
    equal-cost candidates."""
    dist = reference_hops(topology, dst)
    route, ties, node = [], 0, src
    while node != dst:
        candidates = [l for l in reference_out_links(topology, node)
                      if dist.get(l.dst, -1) == dist[node] - 1]
        digest = hashlib.sha256(f"{flow_id}|{seed}|{node}".encode()).digest()
        link = candidates[int.from_bytes(digest[:8], "big") % len(candidates)]
        ties += len(candidates) > 1
        route.append(link.id)
        node = link.dst
    return tuple(route), ties


def enumerate_shortest_routes(topology, src, dst):
    """All equal-cost shortest routes, by the reference BFS."""
    dist = reference_hops(topology, dst)
    if src not in dist:
        return []
    out = []

    def walk(node, acc):
        if node == dst:
            out.append(tuple(acc))
            return
        for l in reference_out_links(topology, node):
            if dist.get(l.dst, -1) == dist[node] - 1:
                acc.append(l.id)
                walk(l.dst, acc)
                acc.pop()

    walk(src, [])
    return out


def test_minimal_topology():
    topo = build_topology({
        "nodes": ["a", "b"],
        "links": [{"src": "a", "dst": "b", "bandwidth": 100e9,
                   "prop_delay": 1e-6, "bidirectional": False}],
    })
    assert len(topo.links) == 1
    assert topo.links[0].bandwidth == 100e9


def test_unknown_endpoint_rejected():
    with pytest.raises(TopologyError, match="unknown endpoint"):
        build_topology({
            "nodes": ["a"],
            "links": [{"src": "a", "dst": "ghost", "bandwidth": 1e9}],
        })


def test_duplicate_link_id_rejected():
    with pytest.raises(TopologyError, match="duplicate link id"):
        build_topology({
            "nodes": ["a", "b"],
            "links": [
                {"id": "l", "src": "a", "dst": "b", "bandwidth": 1e9,
                 "bidirectional": False},
                {"id": "l", "src": "b", "dst": "a", "bandwidth": 1e9,
                 "bidirectional": False},
            ],
        })


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(TopologyError, match="bandwidth"):
        build_topology({
            "nodes": ["a", "b"],
            "links": [{"src": "a", "dst": "b", "bandwidth": 0.0}],
        })


@pytest.mark.parametrize("key, value, field", [
    ("bandwidth", float("inf"), "bandwidth"),
    ("bandwidth", float("nan"), "bandwidth"),
    ("prop_delay", float("nan"), "propagation delay"),
    ("prop_delay", float("inf"), "propagation delay"),
    ("prop_delay", -1e-6, "propagation delay"),
])
def test_nonfinite_link_values_rejected(key, value, field):
    link = {"src": "a", "dst": "b", "bandwidth": 1e9, "prop_delay": 1e-6}
    link[key] = value
    with pytest.raises(TopologyError, match=field):
        build_topology({"nodes": ["a", "b"], "links": [link]})


@pytest.mark.parametrize("key, value", [
    ("bandwidth", True),
    ("prop_delay", False),
    ("bandwidth", "fast"),
    ("bidirectional", "yes"),
    ("src", ["a"]),
    ("id", 1.5),
])
def test_malformed_link_field_is_a_scenario_error(key, value):
    link = {"src": "a", "dst": "b", "bandwidth": 1e9, "prop_delay": 1e-6}
    link[key] = value
    with pytest.raises(ScenarioError, match=rf"topology\.links\[0\]\.{key}: "):
        build_topology({"nodes": ["a", "b"], "links": [link]})


def test_two_switch_scenario_topology():
    topo = two_switch()
    hosts = [n for n in topo.nodes if n.startswith("h")]
    switches = [n for n in topo.nodes if n.startswith("s")]
    assert len(hosts) == 6 and len(switches) == 2
    # two 100 Gbps contention links present, both directions of each cable
    link_ids = {l.id for l in topo.links}
    assert "s1->s2" in link_ids and "s2->h6" in link_ids
    assert len(topo.links) == 14


@pytest.mark.parametrize("K,hosts", [(4, 16), (16, 1024)])
def test_fat_tree_host_count(K, hosts):
    topo = fat_tree(K, 100e9, 1e-6)
    assert len(hosts_of(topo)) == hosts
    switches = [n for n in topo.nodes if not n.startswith("h")]
    assert len(switches) == 5 * K * K // 4


def test_fat_tree_odd_k_rejected():
    with pytest.raises(TopologyError):
        fat_tree(3, 100e9, 1e-6)
    with pytest.raises(TopologyError):
        fat_tree(0, 100e9, 1e-6)


@pytest.mark.parametrize("K", [2, 4, 6, 8])
def test_fat_tree_cable_count_closed_form(K):
    topo = fat_tree(K, 100e9, 1e-6)
    cables = len(topo.links) // 2
    assert len(topo.links) % 2 == 0
    assert cables == K**3 // 4 + K**3 // 2


def test_route_determinism():
    topo = fat_tree(4, 100e9, 1e-6)
    r1 = route_flow(topo, "h0", "h15", seed=7, flow_id="f")
    r2 = route_flow(topo, "h0", "h15", seed=7, flow_id="f")
    assert r1 == r2


def test_star_route_two_hops():
    topo = star(4, 100e9, 1e-6)
    route = route_flow(topo, "h0", "h3")
    assert route == ("h0->sw", "sw->h3")


def test_fat_tree_interpod_routes_are_six_links():
    topo = fat_tree(4, 100e9, 1e-6)
    all_routes = set(enumerate_shortest_routes(topo, "h0", "h15"))
    assert all_routes and all(len(r) == 6 for r in all_routes)
    for seed in range(8):
        route = route_flow(topo, "h0", "h15", seed=seed, flow_id="f")
        assert len(route) == 6
        assert route in all_routes


def test_routes_are_connected_paths():
    topo = fat_tree(4, 100e9, 1e-6)
    hosts = hosts_of(topo)
    link = {l.id: l for l in topo.links}
    for i, src in enumerate(hosts[:6]):
        dst = hosts[(i + 7) % len(hosts)]
        route = route_flow(topo, src, dst, seed=3, flow_id=f"f{i}")
        links = [link[lid] for lid in route]
        assert links[0].src == src and links[-1].dst == dst
        for a, b in zip(links, links[1:]):
            assert a.dst == b.src


def test_routes_on_a_shared_topology_match_fresh_ones():
    """Distances kept on the topology give the routes a fresh topology gives,
    for every host pair and in any order of destinations."""
    shared = fat_tree(4, 100e9, 1e-6)
    hosts = hosts_of(shared)
    for src in hosts:
        for dst in reversed(hosts):
            if src == dst:
                continue
            fresh = fat_tree(4, 100e9, 1e-6)
            assert (route_flow(shared, src, dst, seed=3, flow_id=src + dst)
                    == route_flow(fresh, src, dst, seed=3, flow_id=src + dst))
            assert (model._distances_to(shared, dst)
                    == model._hops_to(fresh, dst))


def test_fat_tree_parse_searches_each_destination_once(monkeypatch):
    searched = []
    bfs = model._hops_to

    def counting(topology, dst):
        searched.append(dst)
        return bfs(topology, dst)

    monkeypatch.setattr(model, "_hops_to", counting)
    scenario = load_scenario(scenario_path("fat_tree_random"))
    link = {l.id: l for l in scenario.topology.links}
    destinations = {link[f.route[-1]].dst for f in scenario.flows}
    assert len(scenario.flows) > len(destinations)
    assert sorted(searched) == sorted(destinations)


def _inline(nodes, links):
    return build_topology({"nodes": nodes, "links": [
        {"bandwidth": 1e9, "bidirectional": False, **l} for l in links]})


DISTANCE_TOPOLOGIES = {
    "star5": lambda: star(5, 100e9, 1e-6),
    # z is reached by no node and reaches none
    "one_way_chain": lambda: _inline(["a", "b", "c", "d", "z"], [
        {"src": "a", "dst": "b"}, {"src": "b", "dst": "c"},
        {"src": "c", "dst": "d"}]),
    # a ring, both directions, with a second link from a to b
    "ring_parallel": lambda: _inline(["a", "b", "c", "d", "e"], [
        {"src": u, "dst": v, "bidirectional": True}
        for u, v in zip("abcde", "bcdea")] + [{"id": "a=>b", "src": "a",
                                                "dst": "b"}]),
    "fat_tree4": lambda: fat_tree(4, 100e9, 1e-6),
    "fat_tree6": lambda: fat_tree(6, 100e9, 1e-6),
}


@pytest.mark.parametrize("name", sorted(DISTANCE_TOPOLOGIES))
def test_distances_match_reference_bfs(name):
    topo = DISTANCE_TOPOLOGIES[name]()
    for dst in topo.nodes:
        ref = reference_hops(topo, dst)
        want = [ref.get(n, -1) for n in topo.nodes]
        assert model._hops_to(topo, dst) == want


def _counting_pick(monkeypatch):
    calls = []
    pick = model._pick

    def counting(*args):
        calls.append(args)
        return pick(*args)

    monkeypatch.setattr(model, "_pick", counting)
    return calls


def test_fat_tree4_routes_match_reference_for_every_pair(monkeypatch):
    calls = _counting_pick(monkeypatch)
    topo = fat_tree(4, 100e9, 1e-6)
    hosts = hosts_of(topo)
    ties = 0
    for seed in range(3):
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                fid = f"{src}-{dst}"
                ref, n = reference_route(topo, src, dst, seed, fid)
                got = route_flow(topo, src, dst, seed=seed, flow_id=fid)
                assert got == ref
                ties += n
    assert ties > 0 and len(calls) == ties


def test_fat_tree8_random_routes_match_reference(monkeypatch):
    calls = _counting_pick(monkeypatch)
    topo = fat_tree(8, 100e9, 1e-6)
    hosts = hosts_of(topo)
    rng = np.random.default_rng(2)
    ties = 0
    for i in range(1000):
        a, b = rng.choice(len(hosts), size=2, replace=False)
        seed = int(rng.integers(0, 1 << 31))
        ref, n = reference_route(topo, hosts[a], hosts[b], seed, f"r{i}")
        assert route_flow(topo, hosts[a], hosts[b], seed=seed,
                          flow_id=f"r{i}") == ref
        ties += n
    assert ties > 0 and len(calls) == ties


def test_star_routes_hash_nothing(monkeypatch):
    calls = _counting_pick(monkeypatch)
    topo = star(5, 100e9, 1e-6)
    for src in hosts_of(topo):
        for dst in hosts_of(topo):
            if src != dst:
                assert (route_flow(topo, src, dst, seed=1, flow_id=src)
                        == reference_route(topo, src, dst, 1, src)[0])
    assert calls == []


def test_no_path_rejected():
    topo = build_topology({
        "nodes": ["a", "b", "c"],
        "links": [{"src": "a", "dst": "b", "bandwidth": 1e9,
                   "bidirectional": False}],
    })
    with pytest.raises(TopologyError, match="no path"):
        route_flow(topo, "b", "c")
    with pytest.raises(TopologyError, match="src == dst"):
        route_flow(topo, "a", "a")
    with pytest.raises(TopologyError, match="unknown node 'ghost'"):
        route_flow(topo, "a", "ghost")


def test_topology_and_routes_reproducible():
    def build():
        topo = fat_tree(4, 100e9, 1e-6)
        routes = [
            route_flow(topo, "h0", "h12", seed=11, flow_id=f"f{i}")
            for i in range(10)
        ]
        return topo, routes

    t1, r1 = build()
    t2, r2 = build()
    assert repr(t1) == repr(t2)
    assert r1 == r2


def test_base_rtt_is_round_trip_propagation():
    topo = star(3, 100e9, 0.5e-6)
    flow = FlowSpec("f", route_flow(topo, "h0", "h2"))
    engine = FluidSimulation(topo, [flow], SimConfig(dt=0.1e-6, end_time=1e-5))
    assert engine.base_rtt.tolist() == [pytest.approx(2 * 2 * 0.5e-6)]


def test_flow_validation():
    topo = two_switch()
    good = FlowSpec("f", ("h1->s1", "s1->s2"), ((0.0, 1.0),))
    hop_link, start = route_hops(topo, [good])
    assert [topo.links[j].id for j in hop_link] == list(good.route)
    assert start.tolist() == [0, 2]
    with pytest.raises(FlowError, match="empty route"):
        FlowSpec("f", (), ((0.0, 1.0),))
    with pytest.raises(FlowError, match="breaks"):
        route_hops(topo, [FlowSpec("f", ("h1->s1", "s2->h6"), ((0.0, 1.0),))])
    with pytest.raises(FlowError, match="unknown link"):
        route_hops(topo, [FlowSpec("f", ("nope",), ((0.0, 1.0),))])
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(FlowError, match="weights"):
            FlowSpec("f", ("h1->s1",), ((0.0, bad),))
    with pytest.raises(FlowError, match="strictly increasing"):
        FlowSpec("f", ("h1->s1",), ((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(FlowError, match="after start"):
        FlowSpec("f", ("h1->s1",), ((1.0, 1.0),), start_time=0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        for times in ({"start_time": bad}, {"stop_time": bad}):
            with pytest.raises(FlowError, match="^flow 'f': start and stop"):
                FlowSpec("f", ("h1->s1",), ((-1.0, 1.0),), **times)
    with pytest.raises(FlowError, match="initial rate"):
        FlowSpec("f", ("h1->s1",), initial_rate=float("nan"))
    other = FlowSpec("g", ("h2->s1",))
    with pytest.raises(FlowError, match="^flow 'f': duplicate id$"):
        route_hops(topo, [good, other, good])


def test_weight_at_steps():
    f = FlowSpec("f", ("h1->s1",), ((0.0, 1.0), (0.01, 2.0), (0.02, 5.0)))
    assert f.weight_at(0.0) == 1.0
    assert f.weight_at(0.0099) == 1.0
    assert f.weight_at(0.01) == 2.0
    assert f.weight_at(0.05) == 5.0


def test_events_list_start_weights_stop():
    f = FlowSpec("f", ("h1->s1",), ((0.0, 1.0), (0.01, 2.0)), start_time=0.005,
                 stop_time=0.02)
    assert f.events() == [(0.005, "start", None), (0.0, "weight", 1.0),
                          (0.01, "weight", 2.0), (0.02, "stop", None)]
    assert FlowSpec("g", ("h1->s1",)).events() == [
        (0.0, "start", None), (0.0, "weight", 1.0)]
