import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soze_sim import (
    FlowSpec,
    build_topology,
    load_scenario,
    water_fill,
)
from soze_sim.model import FlowError
from soze_sim.oracle import _REL_TOL

from conftest import (
    fairness_error,
    flow_on_link,
    scenario_path,
    single_link,
    two_switch,
    two_switch_flows,
    verify_goal_equivalence,
)


def bottleneck_of(flow, flows, allocation, topology):
    """The link that limits ``flow`` in ``allocation`` over ``flows``.

    Asserts the structure that makes the maxQD signal work before returning:
    the flow's rate-per-weight is maximal (ties allowed) among flows crossing
    its bottleneck, and on every other saturated link of its route some flow
    reaches an at-least-equal rate-per-weight.
    """
    if flow.id not in allocation.bottlenecks:
        raise ValueError(f"flow {flow.id!r} not present in allocation")
    lid = allocation.bottlenecks[flow.id]
    if lid not in {l.id for l in topology.links}:
        raise ValueError(f"bottleneck {lid!r} not in topology")
    s_of = {
        fid: allocation.rates[fid] / allocation.weights[fid]
        for fid in allocation.rates
    }
    on_link: dict[str, list[str]] = {}
    for f in flows:
        for rl in f.route:
            on_link.setdefault(rl, []).append(f.id)
    own = s_of[flow.id]
    tol = 1.0 + 1e-6
    peak = max(s_of[fid] for fid in on_link[lid])
    if own * tol < peak:
        raise AssertionError(
            f"flow {flow.id!r}: rate-per-weight {own:.6g} below peak "
            f"{peak:.6g} on its bottleneck {lid!r}"
        )
    for other in flow.route:
        if other == lid or other not in allocation.fair_share:
            continue
        peak = max(s_of[fid] for fid in on_link[other])
        if peak * tol < own:
            raise AssertionError(
                f"flow {flow.id!r}: strictly largest rate-per-weight on "
                f"saturated non-bottleneck link {other!r}"
            )
    return lid


def brute_force_fill(topology, flows, weights, step=0.01e9):
    """Independent check: raise every unfrozen flow's rate in tiny equal
    rate-per-weight increments until each hits a full link."""
    rates = {f.id: 0.0 for f in flows}
    load = {l.id: 0.0 for l in topology.links}
    link = {l.id: l for l in topology.links}
    frozen: set[str] = set()
    while len(frozen) < len(flows):
        for f in flows:
            if f.id in frozen:
                continue
            inc = weights[f.id] * step
            if all(load[lid] + inc <= link[lid].bandwidth + 1e-3
                   for lid in f.route):
                rates[f.id] += inc
                for lid in f.route:
                    load[lid] += inc
            else:
                frozen.add(f.id)
    return rates


def loop_water_fill(topology, flows):
    """Reference: progressive filling as a plain loop over dicts and lists.
    Each link's weight sum is an explicit ``acc += w`` in flow order, since
    ``sum()`` compensates float rounding from Python 3.12 on."""
    w = {f.id: float(f.weight_schedule[0][1]) for f in flows}
    residual = {l.id: l.bandwidth for l in topology.links}
    on_link = {l.id: [] for l in topology.links}
    for f in flows:
        for lid in f.route:
            if lid not in residual:
                raise ValueError(f"flow {f.id!r}: unknown link {lid!r}")
            on_link[lid].append(f.id)
    unfrozen = {f.id for f in flows}
    routes = {f.id: tuple(f.route) for f in flows}
    rates, bottleneck, fair_share, saturated = {}, {}, {}, set()
    while unfrozen:
        shares = {}
        for lid, fids in on_link.items():
            live = [fid for fid in fids if fid in unfrozen]
            if lid in saturated or not live:
                continue
            acc = 0.0
            for fid in live:
                acc += w[fid]
            shares[lid] = max(residual[lid], 0.0) / acc
        lowest = min(shares.values())
        tied = sorted(
            lid for lid, s in shares.items() if s <= lowest * (1.0 + _REL_TOL)
        )
        froze = []
        for lid in tied:
            fair_share[lid] = shares[lid]
            saturated.add(lid)
            for fid in on_link[lid]:
                if fid not in rates:
                    froze.append(fid)
                    rates[fid] = w[fid] * shares[lid]
                    bottleneck[fid] = lid
        for fid in froze:
            unfrozen.discard(fid)
            for lid in routes[fid]:
                residual[lid] -= rates[fid]
    return rates, bottleneck, fair_share


def assert_matches_loop(topology, flows):
    """``water_fill`` equals the loop exactly, item order included."""
    alloc = water_fill(topology, flows)
    rates, bottleneck, fair_share = loop_water_fill(topology, flows)
    assert list(alloc.rates.items()) == list(rates.items())
    assert list(alloc.bottlenecks.items()) == list(bottleneck.items())
    assert list(alloc.fair_share.items()) == list(fair_share.items())
    return alloc


@pytest.mark.parametrize("k, count", [(4, 60), (8, 400)])
@pytest.mark.parametrize("seed", [1, 5, 23])
def test_fat_tree_matches_loop(k, count, seed):
    sc = load_scenario(scenario_path("fat_tree_random"), [
        f"topology.K={k}", f"flow_groups.0.count={count}", f"sim.seed={seed}",
    ])
    alloc = assert_matches_loop(sc.topology, sc.flows)
    assert len(alloc.rates) == count


def test_equal_weights_and_bandwidths_tie_many_links_in_one_round():
    sc = load_scenario(scenario_path("fat_tree_random"), [
        "topology.K=4", "flow_groups.0.count=64", "flow_groups.0.weight=1.0",
        "sim.seed=2",
    ])
    alloc = assert_matches_loop(sc.topology, sc.flows)
    shares = list(alloc.fair_share.values())
    # some round saturated several links at once
    assert len(set(shares)) < len(shares)


def test_tied_link_frozen_out_by_an_earlier_tied_link_is_recorded():
    """Two equal links in series carry one flow: both tie, the first in
    string order freezes the flow, and the second still counts as
    saturated at the same share."""
    topo = build_topology({
        "nodes": ["a", "b", "c"],
        "links": [
            {"src": "b", "dst": "c", "bandwidth": 40e9, "prop_delay": 1e-6,
             "bidirectional": False},
            {"src": "a", "dst": "b", "bandwidth": 40e9, "prop_delay": 1e-6,
             "bidirectional": False},
        ],
    })
    flows = [FlowSpec("f", ("a->b", "b->c"), ((0.0, 2.0),))]
    alloc = assert_matches_loop(topo, flows)
    assert list(alloc.fair_share.items()) == [("a->b", 20e9), ("b->c", 20e9)]
    assert alloc.bottlenecks == {"f": "a->b"}


def test_unknown_link_rejected():
    flows = [flow_on_link("ok"), FlowSpec("bad", ("a->b", "b->z"), ((0.0, 1.0),))]
    with pytest.raises(ValueError, match=r"'bad': unknown link 'b->z'"):
        water_fill(single_link(), flows)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.lists(st.sampled_from([25e9, 50e9, 100e9]), min_size=1, max_size=5),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.sampled_from([0.5, 1.0, 1.0, 3.0])),
        min_size=1, max_size=8,
    ),
)
def test_random_lines_match_loop(bandwidths, spans):
    """Flows over sub-paths of a line of links, with few distinct weights
    and bandwidths so that ties are common."""
    n = len(bandwidths)
    topo = build_topology({
        "nodes": [f"n{i}" for i in range(n + 1)],
        "links": [{"src": f"n{i}", "dst": f"n{i + 1}", "bandwidth": b,
                   "prop_delay": 1e-6, "bidirectional": False}
                  for i, b in enumerate(bandwidths)],
    })
    flows = []
    for i, (a, b, weight) in enumerate(spans):
        a, b = sorted((a % n, b % n))
        route = tuple(f"n{j}->n{j + 1}" for j in range(a, b + 1))
        flows.append(FlowSpec(f"f{i}", route, ((0.0, weight),)))
    assert_matches_loop(topo, flows)


def test_single_link_three_to_one_split():
    topo = single_link()
    flows = [flow_on_link("a", 3.0), flow_on_link("b", 1.0)]
    alloc = water_fill(topo, flows)
    assert alloc.rates["a"] == pytest.approx(75e9, rel=1e-12)
    assert alloc.rates["b"] == pytest.approx(25e9, rel=1e-12)
    assert alloc.fair_share["a->b"] == pytest.approx(25e9, rel=1e-12)


def test_two_switch_equal_weights():
    topo = two_switch()
    flows = two_switch_flows(w1=1.0)
    alloc = water_fill(topo, flows)
    assert alloc.rates["x1"] == pytest.approx(40e9, rel=1e-12)
    for fid in ("x2", "x3", "x4", "x5", "x6"):
        assert alloc.rates[fid] == pytest.approx(20e9, rel=1e-12)


def test_two_switch_weight_five():
    topo = two_switch()
    flows = two_switch_flows(w1=5.0)
    alloc = water_fill(topo, flows)
    assert alloc.rates["x1"] == pytest.approx(62.5e9, rel=1e-12)
    for fid in ("x2", "x3", "x4"):
        assert alloc.rates[fid] == pytest.approx(12.5e9, rel=1e-12)
    # switch-2 egress redistributes what the trunk flows no longer use
    for fid in ("x5", "x6"):
        assert alloc.rates[fid] == pytest.approx(31.25e9, rel=1e-12)
    brute = brute_force_fill(topo, flows, alloc.weights)
    for fid, rate in alloc.rates.items():
        assert brute[fid] == pytest.approx(rate, abs=0.05e9)


def test_brute_force_agrees_on_random_networks():
    rng = random.Random(7)
    for _ in range(5):
        n_links = rng.randint(2, 4)
        nodes = [f"n{i}" for i in range(n_links + 1)]
        raw_links = [
            {"src": nodes[i], "dst": nodes[i + 1],
             "bandwidth": rng.choice([50e9, 100e9, 150e9]),
             "prop_delay": 1e-6, "bidirectional": False}
            for i in range(n_links)
        ]
        topo = build_topology({"nodes": nodes, "links": raw_links})
        link_ids = [l["src"] + "->" + l["dst"] for l in raw_links]
        flows = []
        for i in range(rng.randint(2, 5)):
            a = rng.randrange(n_links)
            b = rng.randrange(a, n_links) + 1
            flows.append(FlowSpec(
                f"f{i}", tuple(link_ids[a:b]),
                ((0.0, rng.choice([0.5, 1.0, 2.0, 3.0])),),
            ))
        alloc = water_fill(topo, flows)
        brute = brute_force_fill(topo, flows, alloc.weights)
        for fid, rate in alloc.rates.items():
            assert brute[fid] == pytest.approx(rate, abs=0.08e9)


def test_feasibility_and_bottleneck_consistency():
    topo = two_switch()
    flows = two_switch_flows(w1=2.5)
    alloc = water_fill(topo, flows)
    for link in topo.links:
        load = sum(alloc.rates[f.id] for f in flows if link.id in f.route)
        assert load <= link.bandwidth * (1 + 1e-9)
    for f in flows:
        share = alloc.fair_share[alloc.bottlenecks[f.id]]
        assert alloc.rates[f.id] == pytest.approx(
            alloc.weights[f.id] * share, rel=1e-12
        )


def test_order_invariance():
    topo = two_switch()
    flows = two_switch_flows(w1=3.0)
    reference = water_fill(topo, flows)
    for perm in itertools.islice(itertools.permutations(flows), 0, 720, 77):
        alloc = water_fill(topo, list(perm))
        for fid in reference.rates:
            assert alloc.rates[fid] == pytest.approx(
                reference.rates[fid], rel=1e-9
            )


def test_weight_scaling_leaves_rates_unchanged():
    topo = two_switch()
    flows = two_switch_flows(w1=2.0)
    base = water_fill(topo, flows)
    for c in (0.1, 3.0, 250.0):
        scaled = water_fill(
            topo, flows, weights={fid: w * c for fid, w in base.weights.items()}
        )
        for fid in base.rates:
            assert scaled.rates[fid] == pytest.approx(base.rates[fid], rel=1e-9)
        for lid, share in base.fair_share.items():
            assert scaled.fair_share[lid] == pytest.approx(share / c, rel=1e-9)


def test_single_link_closed_form():
    topo = single_link()
    rng = random.Random(3)
    for _ in range(20):
        weights = [rng.uniform(0.2, 5.0) for _ in range(rng.randint(1, 6))]
        flows = [flow_on_link(f"f{i}", w) for i, w in enumerate(weights)]
        alloc = water_fill(topo, flows)
        total = sum(weights)
        for i, w in enumerate(weights):
            assert alloc.rates[f"f{i}"] == pytest.approx(
                w / total * 100e9, rel=1e-12
            )


def test_maxmin_definition_brute_check():
    """Raising any flow's rate must displace someone with rate-per-weight
    at most its own, on instances small enough to check directly."""
    topo = two_switch()
    for w1 in (0.5, 1.0, 2.0, 3.0, 5.0):
        flows = two_switch_flows(w1=w1)
        alloc = water_fill(topo, flows)
        s = {fid: alloc.rates[fid] / alloc.weights[fid] for fid in alloc.rates}
        for f in flows:
            victims = [
                g.id for g in flows
                if g.id != f.id and alloc.bottlenecks[f.id] in g.route
            ]
            if not victims:
                continue
            assert min(s[v] for v in victims) <= s[f.id] * (1 + 1e-9)


def test_empty_route_rejected():
    with pytest.raises(ValueError, match="empty route"):
        water_fill(single_link(), [FlowSpec("f", (), ((0.0, 1.0),))])


def test_zero_weight_rejected():
    flows = [flow_on_link("x"), flow_on_link("y")]
    with pytest.raises(ValueError, match="'y': weight must be > 0"):
        water_fill(single_link(), flows, {"x": 1.0, "y": 0.0})


def test_broken_route_rejected_as_by_the_engine():
    with pytest.raises(FlowError, match="route breaks"):
        water_fill(two_switch(), [FlowSpec("f", ("h1->s1", "s2->h6"))])


def test_route_crossing_a_link_twice_rejected_when_built():
    with pytest.raises(FlowError, match="'a->b' twice"):
        FlowSpec("f", ("a->b", "b->a", "a->b"))


def test_duplicate_flow_ids_rejected():
    flows = [flow_on_link("x", 1.0), flow_on_link("x", 3.0)]
    with pytest.raises(ValueError, match="'x': duplicate id"):
        water_fill(single_link(), flows)


def test_goal_equivalence_accepts_goal_rates():
    rng = random.Random(11)
    for _ in range(50):
        weights = [rng.uniform(0.1, 8.0) for _ in range(rng.randint(2, 7))]
        total = sum(weights)
        bandwidth = rng.uniform(1e9, 400e9)
        rates = [w / total * bandwidth for w in weights]
        assert verify_goal_equivalence(rates, weights, bandwidth, eps=1e-9)


def test_goal_equivalence_rejects_equal_rates_unequal_weights():
    assert not verify_goal_equivalence([50e9, 50e9], [3.0, 1.0], 100e9)


def test_goal_equivalence_rejects_underutilization():
    rates = [0.9 * 75e9, 0.9 * 25e9]
    assert not verify_goal_equivalence(rates, [3.0, 1.0], 100e9)


def test_goal_equivalence_empty_rejected():
    with pytest.raises(ValueError):
        verify_goal_equivalence([], [], 100e9)


def test_bottleneck_of_single_link():
    topo = single_link()
    flows = [flow_on_link("a", 2.0)]
    alloc = water_fill(topo, flows)
    assert bottleneck_of(flows[0], flows, alloc, topo) == "a->b"


def test_bottlenecks_shift_with_weight():
    topo = two_switch()
    flows = two_switch_flows(w1=1.0)
    alloc = water_fill(topo, flows)
    for fid in ("x2", "x3", "x4"):
        flow = next(f for f in flows if f.id == fid)
        assert bottleneck_of(flow, flows, alloc, topo) == "s2->h6"
    flows = two_switch_flows(w1=5.0)
    alloc = water_fill(topo, flows)
    for fid in ("x2", "x3", "x4"):
        flow = next(f for f in flows if f.id == fid)
        assert bottleneck_of(flow, flows, alloc, topo) == "s1->s2"


def test_fairness_error_cases():
    assert fairness_error({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}) == 0.0
    assert fairness_error({"a": 1.02e9}, {"a": 1e9}) == pytest.approx(0.02)
    rng = random.Random(5)
    oracle = {f"f{i}": rng.uniform(1e9, 50e9) for i in range(10)}
    deltas = {fid: rng.uniform(-0.3, 0.3) for fid in oracle}
    sim = {fid: oracle[fid] * (1 + deltas[fid]) for fid in oracle}
    expected = max(abs(d) for d in deltas.values())
    assert fairness_error(sim, oracle) == pytest.approx(expected, rel=1e-9)


def test_fairness_error_mismatched_sets_rejected():
    with pytest.raises(ValueError):
        fairness_error({"a": 1.0}, {"b": 1.0})


def test_allocation_independent_of_hash_seed():
    """The oracle's sums must not follow Python's string-hash order: two
    interpreters with different hash seeds print the same allocation."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "soze_sim.cli", "oracle",
             scenario_path("fat_tree_random")],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
