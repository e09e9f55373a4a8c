import copy

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from soze_sim import ScenarioError, load_scenario, scenario_from_dict
from soze_sim.scenario import (
    SWEEP_PARAMS,
    Scenario,
    apply_override,
    apply_sweep_value,
)

from conftest import scenario_path


BASE = {
    "name": "t",
    "topology": {"kind": "star", "n": 3, "bandwidth": 100e9,
                 "prop_delay": 0.25e-6},
    "flows": [
        {"id": "f0", "src": "h0", "dst": "h2", "weight": 2.0},
        {"id": "f1", "src": "h1", "dst": "h2"},
    ],
    "sim": {"dt": 0.25e-6, "end_time": 1e-3},
}


def test_builtin_scenarios_parse():
    for name in (
        "single_link_4flows", "step_in_out", "fig_maxmin",
        "granularity_sweep", "fat_tree_random", "weighted_split",
        "m_sweep", "lemma2_boundary", "agility_weight_change",
        "single_link_nflows",
    ):
        sc = load_scenario(scenario_path(name))
        assert sc.name == name


def test_basic_build():
    sc = scenario_from_dict(BASE)
    assert [f.id for f in sc.flows] == ["f0", "f1"]
    assert sc.flows[0].route == ("h0->sw", "sw->h2")
    assert sc.flows[0].weight_schedule == ((0.0, 2.0),)


def test_missing_sim_section_named():
    raw = {k: v for k, v in BASE.items() if k != "sim"}
    with pytest.raises(ScenarioError, match="sim"):
        scenario_from_dict(raw)


def test_unknown_node_named_with_flow_path():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["flows"][1]["dst"] = "h9"
    with pytest.raises(ScenarioError, match=r"flows\[1\]"):
        scenario_from_dict(raw)


def test_bad_control_value_named():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["control"] = {"m": -1.0}
    with pytest.raises(ScenarioError, match="control"):
        scenario_from_dict(raw)


def test_duplicate_flow_ids_named():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["flows"][1]["id"] = "f0"
    with pytest.raises(ScenarioError, match="duplicate ids"):
        scenario_from_dict(raw)


def test_overrides_reach_nested_fields():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    apply_override(raw, "control.m=1.5")
    apply_override(raw, "flows.0.weight=7")
    apply_override(raw, "sim.end_time=2e-3")
    sc = scenario_from_dict(raw)
    assert sc.sim.control.m == 1.5
    assert sc.flows[0].weight_schedule == ((0.0, 7.0),)
    assert sc.sim.end_time == 2e-3


def test_override_via_scenario_from_dict():
    sc = scenario_from_dict(BASE, overrides=["control.p=40e-6"])
    assert sc.sim.control.p == 40e-6
    # the original mapping is untouched
    assert "control" not in BASE


def test_bad_override_spec():
    with pytest.raises(ScenarioError, match="key=value"):
        apply_override({}, "garbage")
    with pytest.raises(ScenarioError, match="list index"):
        apply_override({"flows": []}, "flows.3.weight=1")


def test_sweep_param_mapping():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    apply_sweep_value(raw, "m", 1.9)
    assert raw["control"]["m"] == 1.9
    apply_sweep_value(raw, "initial_rate", 5e9)
    assert all(f["initial_rate"] == 5e9 for f in raw["flows"])
    with pytest.raises(ScenarioError, match="unknown sweep parameter"):
        apply_sweep_value(raw, "bogus", 1)
    # K on a star is set as --set sets it, and the reader refuses it
    apply_sweep_value(raw, "K", 8)
    with pytest.raises(ScenarioError, match=r"^topology\.K: unknown key"):
        scenario_from_dict(raw)
    assert set(SWEEP_PARAMS) == {"m", "p", "k", "flow_count", "K", "initial_rate"}


def test_sweep_initial_rate_skips_null_lists():
    raw = {"flows": None, "flow_groups": [{"count": 2}]}
    apply_sweep_value(raw, "initial_rate", 5e9)
    assert raw == {"flows": None,
                   "flow_groups": [{"count": 2, "initial_rate": 5e9}]}


def test_flow_groups_expand_deterministically():
    raw = {
        "name": "g",
        "topology": {"kind": "fat_tree", "K": 4, "bandwidth": 100e9,
                     "prop_delay": 0.1e-6},
        "flow_groups": [{
            "count": 12, "src": "random", "dst": "random",
            "weight": {"uniform": [0.5, 4.0]},
        }],
        "sim": {"dt": 0.1e-6, "end_time": 1e-3, "seed": 42},
    }
    sc1 = scenario_from_dict(raw)
    sc2 = scenario_from_dict(raw)
    assert [f.id for f in sc1.flows] == [f"g0_{i}" for i in range(12)]
    assert sc1.flows == sc2.flows
    for f in sc1.flows:
        w = f.weight_schedule[0][1]
        assert 0.5 <= w <= 4.0
    diff = scenario_from_dict({**raw, "sim": {**raw["sim"], "seed": 43}})
    assert [(f.route, f.weight_schedule) for f in sc1.flows] != \
           [(f.route, f.weight_schedule) for f in diff.flows]


def fat_tree_groups(K, seed, *groups):
    """A K-ary fat-tree scenario with ``groups`` as its flow groups."""
    return {
        "topology": {"kind": "fat_tree", "K": K, "bandwidth": 100e9,
                     "prop_delay": 0.1e-6},
        "flow_groups": [dict(g) for g in groups],
        "sim": {"dt": 0.1e-6, "end_time": 1e-3, "seed": seed},
    }


def endpoints(sc):
    """``(src, dst)`` of each flow, read off its route."""
    links = {l.id: l for l in sc.topology.links}
    return [(links[f.route[0]].src, links[f.route[-1]].dst) for f in sc.flows]


def drawn_pairs(rng, n, count):
    """The documented draw: ``count`` ordered pairs of distinct host
    indices, uniform over such pairs."""
    a = rng.integers(n, size=count)
    b = rng.integers(n - 1, size=count)
    b += b >= a
    return list(zip(a.tolist(), b.tolist()))


RANDOM_PAIRS = {"count": 300, "src": "random", "dst": "random",
                "weight": {"uniform": [0.5, 4.0]}}


@pytest.mark.parametrize("K", [4, 8])
@pytest.mark.parametrize("seed", [1, 5, 23])
def test_random_group_flows_are_the_documented_draw(K, seed):
    sc = scenario_from_dict(fat_tree_groups(K, seed, RANDOM_PAIRS))
    rng = np.random.default_rng(seed)
    pairs = drawn_pairs(rng, K**3 // 4, 300)
    weights = rng.uniform(0.5, 4.0, size=300).tolist()
    assert endpoints(sc) == [(f"h{a}", f"h{b}") for a, b in pairs]
    assert [f.weight_schedule for f in sc.flows] == [((0.0, w),) for w in weights]


def test_random_group_endpoints_are_never_equal():
    for seed in range(5):
        sc = scenario_from_dict(fat_tree_groups(4, seed, {**RANDOM_PAIRS,
                                                          "count": 2000}))
        assert all(src != dst for src, dst in endpoints(sc))


@pytest.mark.parametrize("fixed", ["src", "dst"])
def test_one_sided_random_end_never_equals_the_fixed_end(fixed):
    other = "dst" if fixed == "src" else "src"
    sc = scenario_from_dict(fat_tree_groups(
        4, 3, {"count": 2000, fixed: "h0", other: "random"}))
    ends = [dict(zip(("src", "dst"), e)) for e in endpoints(sc)]
    assert all(e[fixed] == "h0" for e in ends)
    # the other 15 hosts, each drawn
    assert {e[other] for e in ends} == {f"h{i}" for i in range(1, 16)}
    # a random end on h0 takes the other draw of its pair
    pairs = drawn_pairs(np.random.default_rng(3), 16, 2000)
    side = 0 if other == "src" else 1
    want = [f"h{p[side] if p[side] != 0 else p[1 - side]}" for p in pairs]
    assert [e[other] for e in ends] == want


def test_random_groups_draw_from_one_generator_in_file_order():
    first = {**RANDOM_PAIRS, "count": 40, "id_prefix": "x"}
    second = {"count": 30, "src": "random", "dst": "random", "id_prefix": "y"}
    sc = scenario_from_dict(fat_tree_groups(4, 9, first, second))
    rng = np.random.default_rng(9)
    pairs = drawn_pairs(rng, 16, 40)
    weights = rng.uniform(0.5, 4.0, size=40).tolist()
    pairs += drawn_pairs(rng, 16, 30)
    assert endpoints(sc) == [(f"h{a}", f"h{b}") for a, b in pairs]
    assert [f.weight_schedule[0][1] for f in sc.flows] == weights + [1.0] * 30
    swapped = scenario_from_dict(fat_tree_groups(4, 9, second, first))
    assert endpoints(swapped)[:30] != endpoints(sc)[40:]


def test_fixed_end_uniform_weights_are_the_per_flow_stream():
    sc = scenario_from_dict(fat_tree_groups(
        4, 11, {"count": 1000, "src": "h0", "dst": "h5",
                "weight": {"uniform": [0.5, 4.0]}}))
    rng = np.random.default_rng(11)
    per_flow = [float(rng.uniform(0.5, 4.0)) for _ in range(1000)]
    assert [f.weight_schedule[0][1] for f in sc.flows] == per_flow


def test_seed_is_read_by_the_scenario_not_the_engine():
    sc = load_scenario(scenario_path("weighted_split"))
    assert sc.seed == 1 and not hasattr(sc.sim, "seed")
    assert scenario_from_dict({**sc.raw, "sim": {"dt": 0.1e-6,
                                                 "end_time": 1e-3}}).seed == 0


def test_negative_group_start_is_refused_naming_the_group():
    raw = {
        "topology": {"nodes": ["a", "b"],
                     "links": [{"src": "a", "dst": "b", "bandwidth": 1e9}]},
        "flow_groups": [{"count": 2, "src": "a", "dst": "b", "start": -1e-6}],
        "sim": {"dt": 0.1e-6, "end_time": 1e-3},
    }
    with pytest.raises(ScenarioError,
                       match=r"flow_groups\[0\]: .*start time must be >= 0"):
        scenario_from_dict(raw)


def test_flow_group_stagger_and_rate_split():
    raw = {
        "name": "g",
        "topology": {"kind": "inline", "nodes": ["a", "b"],
                     "links": [{"src": "a", "dst": "b", "bandwidth": 100e9,
                                "prop_delay": 0.5e-6}]},
        "flow_groups": [{
            "count": 10, "src": "a", "dst": "b",
            "initial_rate_total": 10e9,
            "start_stagger": {"batches": 5, "interval": 1e-5},
        }],
        "sim": {"dt": 0.25e-6, "end_time": 1e-3},
    }
    sc = scenario_from_dict(raw)
    assert len(sc.flows) == 10
    assert all(f.initial_rate == pytest.approx(1e9) for f in sc.flows)
    starts = sorted({f.start_time for f in sc.flows})
    assert starts == [i * 1e-5 for i in range(5)]


def test_require_converged_reads_only_booleans():
    assert not scenario_from_dict(BASE).require_converged
    for value in (True, False):
        assert scenario_from_dict(
            {**BASE, "require_converged": value}
        ).require_converged is value
    for value in ("false", "true", 1, 0, None, [True]):
        with pytest.raises(ScenarioError, match="require_converged"):
            scenario_from_dict({**BASE, "require_converged": value})


def test_integer_names_and_ids_read_as_digits():
    raw = copy.deepcopy(BASE)
    raw["name"] = 7
    raw["flows"][0]["id"] = 12
    raw["default_controller"] = "aimd"
    sc = scenario_from_dict(raw)
    assert sc.name == "7"
    assert [f.id for f in sc.flows] == ["12", "f1"]
    assert {f.controller for f in sc.flows} == {"aimd"}


def test_convergence_and_outputs_sections():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["convergence"] = {"eps": 0.002, "window": 40}
    raw["require_converged"] = True
    sc = scenario_from_dict(raw)
    assert sc.convergence_eps == 0.002
    assert sc.convergence_window == 40
    assert sc.require_converged
    assert sc.convergence_judge == "all"
    # output files are named by ``name`` alone
    raw["outputs"] = {"trace": "t.csv", "summary": "s.json"}
    with pytest.raises(ScenarioError, match="^outputs: unknown key"):
        scenario_from_dict(raw)


def test_convergence_judge_parses():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["convergence"] = {"judge": "final"}
    sc = scenario_from_dict(raw)
    assert sc.convergence_judge == "final"
    assert (sc.convergence_eps, sc.convergence_window) == (0.05, 20)
    assert load_scenario(scenario_path("single_link_nflows")).convergence_judge \
        == "final"


@pytest.mark.parametrize("key, value", [
    ("eps", [1]),
    ("eps", "abc"),
    ("eps", None),
    ("eps", -1.0),
    ("eps", 0.0),
    ("eps", float("inf")),
    ("eps", float("nan")),
    ("window", 0),
    ("window", -5),
    ("window", 2.5),
    ("window", "20"),
    ("window", True),
    ("judge", "last"),
    ("judge", ["final"]),
])
def test_bad_convergence_value_named(key, value):
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["convergence"] = {key: value}
    with pytest.raises(ScenarioError, match=rf"convergence\.{key}"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("raw", [[BASE], "t", None])
def test_top_level_must_be_a_mapping(raw):
    with pytest.raises(ScenarioError, match="top level: expected a mapping"):
        scenario_from_dict(raw)


def test_convergence_section_must_be_a_mapping():
    with pytest.raises(ScenarioError, match="convergence"):
        scenario_from_dict({**BASE, "convergence": 0.05})


# -- fuzz: any one bad leaf or section fails as a ScenarioError ----------------

FUZZ_BASES = [
    BASE,
    {
        "name": "inline",
        "default_controller": "soze",
        "require_converged": False,
        "topology": {
            "kind": "inline",
            "nodes": ["h0", "h1", "h2", "s"],
            "links": [
                {"src": "h0", "dst": "s", "bandwidth": 100e9,
                 "prop_delay": 0.25e-6, "bidirectional": True},
                {"src": "h1", "dst": "s", "bandwidth": 100e9,
                 "prop_delay": 0.25e-6},
                {"id": "down", "src": "s", "dst": "h2", "bandwidth": 50e9,
                 "prop_delay": 0.25e-6, "bidirectional": False},
            ],
        },
        "flows": [
            {"id": "f0", "route": ["h0->s", "down"],
             "weight_schedule": [[0.0, 1.0], [1e-4, 2.0]], "stop": 5e-4,
             "controller": "aimd", "initial_rate": 1e9},
            {"id": "f1", "src": "h1", "dst": "h2", "weight": 2.0,
             "start": 1e-5},
        ],
        "flow_groups": [
            {"count": 3, "id_prefix": "g", "src": "random", "dst": "h2",
             "weight": {"uniform": [0.5, 4.0]}, "start": 0.0,
             "start_stagger": {"batches": 2, "interval": 1e-5},
             "initial_rate_total": 3e9},
        ],
        "control": {"p": 20e-6, "k": 3e-6, "m": 0.25, "rate_cap": 100e9},
        "aimd": {"threshold": 20e-6, "md": 0.2},
        "sim": {"dt": 0.125e-6, "end_time": 1e-3, "seed": 1,
                "sampling_interval": 1e-6, "signal_delay_mode": "fixed_rtt",
                "update_mode": "per_rtt", "packet_size": 8000.0},
        "convergence": {"eps": 0.05, "window": 20, "judge": "all"},
    },
    {
        "name": "fat_tree",
        "topology": {"kind": "fat_tree", "K": 4, "bandwidth": 100e9,
                     "prop_delay": 0.1e-6},
        "flow_groups": [{"count": 4, "src": "random", "dst": "random",
                         "weight": 1.5, "initial_rate": 1e9}],
        "sim": {"dt": 0.1e-6, "end_time": 1e-4, "seed": 3},
    },
]


def _paths(node, prefix=()):
    """Every key path below ``node``: sections, list entries and leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


FUZZ_SITES = [(b, path) for b, base in enumerate(FUZZ_BASES)
              for path in _paths(base)]


def _leaf(node, path):
    for key in path:
        node = node[key]
    return node

# integers are small, or large enough that the size pre-flight refuses them
# as topology sizes or flow counts; sizes in between would take long to build
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                  st.integers(min_value=10**12), st.floats(), st.text(max_size=4))
_VALUE = st.one_of(_LEAF, st.lists(_LEAF, max_size=3),
                   st.dictionaries(st.text(max_size=3), _LEAF, max_size=3))


def test_fuzz_bases_parse():
    for base in FUZZ_BASES:
        assert isinstance(scenario_from_dict(base), Scenario)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(FUZZ_SITES), _VALUE)
def test_one_bad_value_is_a_scenario_error(site, value):
    """Replacing any one leaf or section of a valid scenario with a value of
    another type or range either parses or raises ScenarioError."""
    b, path = site
    raw = copy.deepcopy(FUZZ_BASES[b])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        result = scenario_from_dict(raw)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)


def _parses(raw) -> bool:
    try:
        scenario_from_dict(raw)
    except ScenarioError:
        return False
    return True


# a valid value for each sweep parameter
SWEEP_VALUES = {"m": 0.5, "p": 20e-6, "k": 3e-6, "flow_count": 3, "K": 4,
                "initial_rate": 1e9}
NULL_SECTIONS = [(b, key) for b, base in enumerate(FUZZ_BASES) for key in base
                 if _parses({**base, key: None})]


@pytest.mark.parametrize("param", SWEEP_PARAMS)
@pytest.mark.parametrize("b, key", NULL_SECTIONS)
def test_sweep_value_on_a_null_section_is_a_scenario_error(b, key, param):
    """A sweep edits a scenario whose sections may be null, as ``--set``
    does: the result parses or raises ScenarioError."""
    raw = {**copy.deepcopy(FUZZ_BASES[b]), key: None}
    try:
        apply_sweep_value(raw, param, SWEEP_VALUES[param])
        result = scenario_from_dict(raw)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)


def test_yaml_without_topology_or_group_count_is_named(tmp_path):
    for raw, field in (({k: v for k, v in BASE.items() if k != "topology"},
                        "topology: missing"),
                       ({**FUZZ_BASES[2],
                         "flow_groups": [{"src": "random", "dst": "random"}]},
                        r"flow_groups\[0\]\.count: missing")):
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ScenarioError, match=f"^{field}"):
            load_scenario(str(path))


NUMERIC_SITES = [
    (b, path) for b, path in FUZZ_SITES
    if isinstance(_leaf(FUZZ_BASES[b], path), (int, float))
    and not isinstance(_leaf(FUZZ_BASES[b], path), bool)
]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("site", NUMERIC_SITES)
def test_boolean_in_a_numeric_leaf_is_a_scenario_error(site, flag):
    """YAML's true and false are never numbers: float() would read them as
    1 and 0."""
    b, path = site
    raw = copy.deepcopy(FUZZ_BASES[b])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = flag
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)
