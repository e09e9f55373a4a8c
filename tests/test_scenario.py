import copy

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
    with pytest.raises(ScenarioError, match="fat_tree"):
        apply_sweep_value(raw, "K", 8)
    assert set(SWEEP_PARAMS) == {"m", "p", "k", "flow_count", "K", "initial_rate"}


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
    assert [(f.route, f.weight_schedule) for f in sc1.flows] == \
           [(f.route, f.weight_schedule) for f in sc2.flows]
    for f in sc1.flows:
        w = f.weight_schedule[0][1]
        assert 0.5 <= w <= 4.0
    diff = scenario_from_dict({**raw, "sim": {**raw["sim"], "seed": 43}})
    assert [(f.route, f.weight_schedule) for f in sc1.flows] != \
           [(f.route, f.weight_schedule) for f in diff.flows]


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


def test_convergence_and_outputs_sections():
    raw = yaml.safe_load(yaml.safe_dump(BASE))
    raw["convergence"] = {"eps": 0.002, "window": 40}
    raw["require_converged"] = True
    raw["outputs"] = {"trace": "t.csv", "summary": "s.json"}
    sc = scenario_from_dict(raw)
    assert sc.convergence_eps == 0.002
    assert sc.convergence_window == 40
    assert sc.require_converged
    assert sc.trace_name == "t.csv" and sc.summary_name == "s.json"
    assert sc.convergence_judge == "all"


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
        "aimd": {"threshold": 20e-6, "md": 0.2, "packet_size": 8000.0},
        "sim": {"dt": 0.125e-6, "end_time": 1e-3, "seed": 1,
                "sampling_interval": 1e-6, "signal_delay_mode": "fixed_rtt",
                "update_mode": "per_rtt", "packet_size": 8000.0},
        "convergence": {"eps": 0.05, "window": 20, "judge": "all"},
        "outputs": {"trace": "t.csv", "summary": "t.json"},
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
# small integers keep drawn topology sizes and flow counts small
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
                  st.text(max_size=4))
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
