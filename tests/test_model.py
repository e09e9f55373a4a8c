import pytest

from soze_sim import (
    FlowSpec,
    ScenarioError,
    base_rtt,
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
    enumerate_shortest_routes,
    hosts_of,
    validate_flow,
)

from conftest import scenario_path, two_switch


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
    assert "s1->s2" in topo.link_by_id and "s2->h6" in topo.link_by_id
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
    for i, src in enumerate(hosts[:6]):
        dst = hosts[(i + 7) % len(hosts)]
        route = route_flow(topo, src, dst, seed=3, flow_id=f"f{i}")
        links = [topo.link_by_id[lid] for lid in route]
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
            assert (enumerate_shortest_routes(shared, src, dst)
                    == enumerate_shortest_routes(fresh, src, dst))


def test_fat_tree_parse_searches_each_destination_once(monkeypatch):
    searched = []
    bfs = model._hops_to

    def counting(topology, dst):
        searched.append(dst)
        return bfs(topology, dst)

    monkeypatch.setattr(model, "_hops_to", counting)
    scenario = load_scenario(scenario_path("fat_tree_random"))
    link = scenario.topology.link_by_id
    destinations = {link[f.route[-1]].dst for f in scenario.flows}
    assert len(scenario.flows) > len(destinations)
    assert sorted(searched) == sorted(destinations)


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
    route = route_flow(topo, "h0", "h2")
    assert base_rtt(topo, route) == pytest.approx(2 * 2 * 0.5e-6)


def test_flow_validation():
    topo = two_switch()
    good = FlowSpec("f", ("h1->s1", "s1->s2"), ((0.0, 1.0),))
    validate_flow(topo, good)
    with pytest.raises(FlowError, match="empty route"):
        validate_flow(topo, FlowSpec("f", (), ((0.0, 1.0),)))
    with pytest.raises(FlowError, match="breaks"):
        validate_flow(topo, FlowSpec("f", ("h1->s1", "s2->h6"), ((0.0, 1.0),)))
    with pytest.raises(FlowError, match="unknown link"):
        validate_flow(topo, FlowSpec("f", ("nope",), ((0.0, 1.0),)))
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(FlowError, match="weights"):
            validate_flow(topo, FlowSpec("f", ("h1->s1",), ((0.0, bad),)))
    with pytest.raises(FlowError, match="strictly increasing"):
        validate_flow(
            topo, FlowSpec("f", ("h1->s1",), ((0.0, 1.0), (0.0, 2.0)))
        )
    with pytest.raises(FlowError, match="after start"):
        validate_flow(
            topo, FlowSpec("f", ("h1->s1",), ((1.0, 1.0),), start_time=0.0)
        )


def test_weight_at_steps():
    f = FlowSpec("f", ("h1->s1",), ((0.0, 1.0), (0.01, 2.0), (0.02, 5.0)))
    assert f.weight_at(0.0) == 1.0
    assert f.weight_at(0.0099) == 1.0
    assert f.weight_at(0.01) == 2.0
    assert f.weight_at(0.05) == 5.0
