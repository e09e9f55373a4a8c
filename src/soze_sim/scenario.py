"""Scenario files: schema, validation, overrides, and flow generation.

A scenario is one YAML document describing a topology, flows, controller
constants, and simulation settings.  All values on the wire are plain SI
units -- seconds and bits/s -- never microseconds or Gbps.

The optional ``convergence`` section sets how a run's epochs (the spans
between flow joins, leaves and weight changes) are judged against the
water-filling oracle::

    convergence:
      eps: 0.05      # finite, > 0: largest relative rate error that counts
                     # as settled
      window: 20     # integer >= 1: control intervals the error must stay
                     # within eps
      judge: all     # all | final: which epochs decide the run's verdict

``judge: all`` (the default) requires every epoch with active flows to
converge; ``judge: final`` judges only the last such epoch, for scenarios
whose earlier epochs are join transients.  Every epoch is measured either
way.

``topology.kind: star`` (``n`` hosts) and ``fat_tree`` (``K``) give every
link one ``bandwidth`` and ``prop_delay``; ``inline``, the default, lists
nodes and cables::

    topology:
      nodes: [a, b]
      links:
        - {src: a, dst: b,        # node ids
           bandwidth: 100e9,      # bits/s: finite, > 0
           prop_delay: 1e-6,      # s: finite, >= 0; default 0
           id: a->b,              # default "src->dst"
           bidirectional: true}   # default true: also adds link "dst->src"

Ids and names are non-empty strings; an integer reads as its digits.
``name`` is the stem of a run's output files, ``<name>.trace.csv`` and
``<name>.summary.json`` inside the output directory, so it holds no ``/``,
``\\`` or ``..``.  A scenario lists at least one flow, explicitly or in a
group.  A flow's or group's ``start`` is a time >= 0 (the run starts at 0;
default 0).  A malformed field raises
``ScenarioError`` whose message starts with the field's name
(``flows[0].weight``, ``topology.links[1].bandwidth``), or with the override
or file it came from; a key that no reader reads is refused the same way
(``control.pp: unknown key``).  Each object checks its own values when it is
built, and a value it refuses is named by the entry it was built from:
``flows[i]`` for an explicit flow, ``flow_groups[i]`` for a group's flows,
and the section for the rest (``control: p must be > 0``).  Explicit
``route`` entries are checked against the topology; routes found from
``src`` and ``dst`` are valid as found.

``sim.seed`` (default 0) seeds one generator, which the flow groups draw
from in file order.  A group with a ``random`` end first draws all of its
endpoints over its ``n`` hosts: ``a = integers(n, size=count)``,
``b = integers(n - 1, size=count)``, then ``b += b >= a``, so each pair
``(a[i], b[i])`` is uniform over ordered pairs of distinct hosts.  A random
``src`` is host ``a[i]`` and a random ``dst`` host ``b[i]``; a random end
that would equal the group's fixed end takes the pair's other host.  Then
a group with ``weight: {uniform: [low, high]}`` draws
``uniform(low, high, size=count)``.  The seed also picks among equal-cost
routes.

A sweep parameter is set as ``--set`` sets its path: ``m``, ``p`` and ``k``
at ``control.m``, ``control.p`` and ``control.k``, ``flow_count`` at
``flow_groups.0.count`` and ``K`` at ``topology.K``; ``initial_rate`` sets
every flow's and group's ``initial_rate`` (dropping ``initial_rate_total``).
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import IO, Any, Iterator, Mapping, Sequence

import numpy as np
import yaml

from .baselines import AimdConfig
from .control import ControlParams
from .fluid import SIGNAL_DELAY_MODES, UPDATE_MODES, SimConfig, physical_memory
from .metrics import EPS, WINDOW
from .model import (
    FlowSpec,
    Link,
    Topology,
    fat_tree,
    hosts_of,
    route_flow,
    route_hops,
    star,
)


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending field."""


JUDGE_MODES = ("all", "final")
TOPOLOGY_KINDS = ("inline", "star", "fat_tree")

# the keys each section or entry reads; any other key is refused
TOP_KEYS = ("name", "require_converged", "default_controller", "topology",
            "flows", "flow_groups", "control", "aimd", "sim", "convergence")
LINK_KEYS = ("src", "dst", "bandwidth", "prop_delay", "id", "bidirectional")
FLOW_KEYS = ("id", "route", "src", "dst", "weight", "weight_schedule", "start",
             "stop", "controller", "initial_rate")
GROUP_KEYS = ("count", "id_prefix", "src", "dst", "weight", "start",
              "start_stagger", "initial_rate", "initial_rate_total", "stop",
              "controller")
# sim.seed is the reader's: it draws group endpoints and weights and picks
# among equal-cost routes; the engine has no use for it
SIM_KEYS = tuple(f.name for f in fields(SimConfig)
                 if f.name not in ("control", "aimd")) + ("seed",)


@dataclass
class Scenario:
    name: str
    topology: Topology
    flows: list[FlowSpec]
    sim: SimConfig
    seed: int = 0             # sim.seed
    require_converged: bool = False
    convergence_eps: float = EPS
    convergence_window: int = WINDOW
    convergence_judge: str = "all"
    raw: dict = field(default_factory=dict)


def parse_yaml(text: str | IO[str], source: str) -> Any:
    """``text`` (a string or an open file) read as YAML; text that is not
    YAML, or a file that is not UTF-8, raises a ScenarioError naming
    ``source``."""
    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        detail = (f"{exc.problem}, line {mark.line + 1}, column {mark.column + 1}"
                  if mark else str(exc))
        raise ScenarioError(f"{source}: expected valid YAML ({detail})") from exc


def load_scenario(path: str, overrides: Sequence[str] = ()) -> Scenario:
    with open(path) as fh:
        raw = parse_yaml(fh, path)
    return scenario_from_dict(raw, overrides=overrides)


def apply_override(raw: dict, spec: str) -> None:
    """Apply one ``dotted.path=value`` override in place; the value is read
    as YAML, so ``--set flows.0.weight=2`` sets a number."""
    if "=" not in spec:
        raise ScenarioError(f"override {spec!r}: expected key=value")
    key, _, text = spec.partition("=")
    source = f"override {key}"
    _assign(raw, key, parse_yaml(text, source), source)


def _assign(raw: dict, key: str, value: Any, source: str) -> None:
    """Set the dotted path ``key`` of ``raw`` to ``value``: integer segments
    index lists, and a missing or null section on the way is made empty.  A
    path that cannot be walked raises a ScenarioError naming ``source``."""
    parts = key.split(".")
    node: Any = raw
    for part, nxt in zip(parts, parts[1:]):
        slot = _slot(node, part, source)
        if (isinstance(node, dict) and slot not in node) or node[slot] is None:
            node[slot] = [] if nxt.isdigit() else {}
        node = node[slot]
    node[_slot(node, parts[-1], source)] = value


def _slot(node: Any, part: str, source: str) -> str | int:
    """The dict key or list index that path segment ``part`` names in
    ``node``."""
    if isinstance(node, dict):
        return part
    if not isinstance(node, list):
        raise ScenarioError(f"{source}: no {part!r} in a {type(node).__name__}")
    if not part.isdigit() or int(part) >= len(node):
        raise ScenarioError(f"{source}: bad list index {part!r}")
    return int(part)


SWEEP_PATHS = {"m": "control.m", "p": "control.p", "k": "control.k",
               "flow_count": "flow_groups.0.count", "K": "topology.K"}
SWEEP_PARAMS = (*SWEEP_PATHS, "initial_rate")


def apply_sweep_value(raw: dict, param: str, value: Any) -> None:
    """Point one sweepable parameter at ``value`` inside the raw scenario."""
    if param in SWEEP_PATHS:
        path = SWEEP_PATHS[param]
        _assign(raw, path, value, f"sweep {param} ({path})")
    elif param == "initial_rate":
        for f in raw.get("flows") or []:
            f["initial_rate"] = value
        for g in raw.get("flow_groups") or []:
            g["initial_rate"] = value
            g.pop("initial_rate_total", None)
    else:
        raise ScenarioError(
            f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}"
        )


def _name(path: str, key: str | int) -> str:
    """The name of field ``key`` inside ``path`` ("" at the top level); a
    list position reads as ``path[key]``."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _section(raw: Mapping, key: str, path: str, kind: type = dict) -> Any:
    """``raw[key]`` checked to be a ``kind`` (``dict`` or ``list``); unset or
    null reads as an empty one."""
    value = raw.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        what = "a mapping" if kind is dict else "a list"
        raise ScenarioError(f"{_name(path, key)}: expected {what}, got {value!r}")
    return value


def _entries(raw: Mapping, key: str, path: str) -> Iterator[tuple[str, Mapping]]:
    """``(name, entry)`` for each entry of the list ``raw[key]``, each
    checked to be a mapping."""
    for i, entry in enumerate(_section(raw, key, path, list)):
        name = _name(_name(path, key), i)
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{name}: expected a mapping, got {entry!r}")
        yield name, entry


def _real(value: Any, name: str) -> float:
    """``float(value)``; booleans, which float() reads as 0 and 1, and what
    float() refuses raise a ScenarioError naming the field ``name``."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ScenarioError(f"{name}: expected a number, got {value!r}")


def _number(raw: Mapping, key: str, path: str, default=None) -> Any:
    """``raw[key]`` as a finite float, ``default`` when unset; null is read
    as unset only where ``default`` is None."""
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    number = _real(value, _name(path, key))
    if not math.isfinite(number):
        raise ScenarioError(f"{_name(path, key)}: must be finite, got {value!r}")
    return number


def _numbers(cls, raw: Mapping, path: str):
    """An instance of the all-number dataclass ``cls``; each field is read
    from ``raw`` and keeps the class default when unset."""
    _only(raw, [f.name for f in fields(cls)], path)
    return cls(**{
        f.name: _number(raw, f.name, path, f.default)
        for f in fields(cls)
    })


def _integer(raw: Mapping, key: str, path: str, default: int | None = None,
             minimum: int | None = None) -> int:
    """``raw[key]`` as an int no less than ``minimum``; unset reads as
    ``default``, and is missing when that is None."""
    name = _name(path, key)
    if key not in raw and default is None:
        raise ScenarioError(f"{name}: missing")
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{name}: must be >= {minimum}, got {value!r}")
    return value


def _text(raw: Mapping, key: str | int, path: str, default: str | None) -> str:
    """``raw[key]`` as a non-empty string, ``default`` when unset; an integer
    reads as its digits."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (str, int)) or value == "":
        raise ScenarioError(
            f"{_name(path, key)}: expected a non-empty string, got {value!r}"
        )
    return str(value)


def _file_name(raw: Mapping, key: str, path: str, default: str) -> str:
    """``raw[key]`` as the name of a file inside the output directory: a
    non-empty string without ``/``, ``\\`` or ``..``; ``default`` when
    unset."""
    name = _text(raw, key, path, default)
    if "/" in name or "\\" in name or ".." in name:
        raise ScenarioError(f"{_name(path, key)}: expected a file name without "
                            f"'/', '\\' or '..', got {name!r}")
    return name


def _only(raw: Mapping, keys: Sequence[str], path: str) -> None:
    """Refuse a key of ``raw`` outside ``keys``, which would otherwise be
    ignored and leave the field it was meant for at its default."""
    for key in raw:
        if key not in keys:
            raise ScenarioError(f"{_name(path, str(key))}: unknown key")


def _flag(raw: Mapping, key: str, path: str, default: bool) -> bool:
    """``raw[key]`` as a YAML boolean, ``default`` when unset."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(
            f"{_name(path, key)}: expected true or false, got {value!r}"
        )
    return value


def _choice(raw: Mapping, key: str, path: str, choices: Sequence[str],
            default: str) -> str:
    value = raw.get(key, default)
    if value not in choices:
        raise ScenarioError(
            f"{_name(path, key)}: expected one of {list(choices)}, got {value!r}"
        )
    return value


@contextmanager
def _section_errors(path: str) -> Iterator[None]:
    """Re-raise a ValueError or TypeError from building the section ``path``
    as a ScenarioError naming it; a ScenarioError already names its field and
    passes unchanged."""
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _convergence_section(raw: Mapping) -> tuple[float, int, str]:
    """``(eps, window, judge)`` from the scenario's ``convergence`` section."""
    path = "convergence"
    _only(raw, ("eps", "window", "judge"), path)
    eps = _number(raw, "eps", path, Scenario.convergence_eps)
    if eps <= 0:
        raise ScenarioError(f"{path}.eps: must be a finite number > 0, got {eps!r}")
    window = _integer(raw, "window", path, Scenario.convergence_window, minimum=1)
    judge = _choice(raw, "judge", path, JUDGE_MODES, Scenario.convergence_judge)
    return eps, window, judge


def build_topology(raw: Mapping) -> Topology:
    """The inline topology ``raw`` (schema in the module docstring), read and
    validated.  A malformed field raises ScenarioError; a value out of range
    or two links with one id raise TopologyError."""
    _only(raw, ("kind", "nodes", "links"), "topology")
    if "nodes" not in raw:
        raise ScenarioError("topology.nodes: missing")
    listed = dict(enumerate(_section(raw, "nodes", "topology", list)))
    nodes = tuple(_text(listed, i, "topology.nodes", None) for i in listed)
    links: list[Link] = []
    for path, entry in _entries(raw, "links", "topology"):
        _only(entry, LINK_KEYS, path)
        src = _text(entry, "src", path, None)
        dst = _text(entry, "dst", path, None)
        bw = _real(entry.get("bandwidth"), f"{path}.bandwidth")
        delay = _real(entry.get("prop_delay", 0.0), f"{path}.prop_delay")
        links.append(Link(_text(entry, "id", path, f"{src}->{dst}"),
                          src, dst, bw, delay))
        if _flag(entry, "bidirectional", path, True):
            links.append(Link(f"{dst}->{src}", dst, src, bw, delay))
    return Topology(nodes=nodes, links=tuple(links))


def _topology_section(raw: Mapping) -> Topology:
    kind = _choice(raw, "kind", "topology", TOPOLOGY_KINDS, "inline")
    if kind == "inline":
        return build_topology(raw)
    build, size = (star, "n") if kind == "star" else (fat_tree, "K")
    _only(raw, ("kind", size, "bandwidth", "prop_delay"), "topology")
    return build(_integer(raw, size, "topology"),
                 _number(raw, "bandwidth", "topology", 100e9),
                 _number(raw, "prop_delay", "topology", 1e-6))


def _weight_schedule(entry: Mapping, path: str):
    if "weight_schedule" in entry:
        sched = entry["weight_schedule"]
        where = f"{path}.weight_schedule"
        try:
            return tuple((_real(t, where), _real(w, where)) for t, w in sched)
        except (TypeError, ValueError):
            raise ScenarioError(f"{where}: expected [time, weight] pairs")
    w = _number(entry, "weight", path, 1.0)
    return ((0.0, w),)


def _resolve_route(
    topology: Topology, entry: Mapping, fid: str, seed: int, path: str
):
    """A flow's ``route`` of link ids, or its route from ``src`` to ``dst``."""
    if "route" in entry:
        hops = dict(enumerate(_section(entry, "route", path, list)))
        return tuple(_text(hops, i, f"{path}.route", None) for i in hops)
    if entry.get("src") is None or entry.get("dst") is None:
        raise ScenarioError(f"{path}: need either 'route' or 'src'+'dst'")
    return route_flow(topology, _text(entry, "src", path, None),
                      _text(entry, "dst", path, None), seed=seed, flow_id=fid)


def _expand_group(
    topology: Topology,
    group: Mapping,
    gi: int,
    seed: int,
    rng: np.random.Generator,
    default_controller: str,
) -> list[FlowSpec]:
    path = f"flow_groups[{gi}]"
    _only(group, GROUP_KEYS, path)
    count = _integer(group, "count", path, minimum=1)
    prefix = _text(group, "id_prefix", path, f"g{gi}")
    controller = _text(group, "controller", path, default_controller)
    src0, dst0 = _text(group, "src", path, None), _text(group, "dst", path, None)
    hosts = hosts_of(topology)
    if "random" in (src0, dst0) and len(hosts) < 2:
        raise ScenarioError(f"{path}: random endpoints need >= 2 hosts")
    start0 = _number(group, "start", path, FlowSpec.start_time)
    stagger = _section(group, "start_stagger", path)
    if stagger:
        where = f"{path}.start_stagger"
        _only(stagger, ("batches", "interval"), where)
        batches = _integer(stagger, "batches", where, minimum=1)
        interval = _number(stagger, "interval", where, 0.0)
    init = _number(group, "initial_rate", path, None)
    init_total = _number(group, "initial_rate_total", path, None)
    rate = init if init is not None else (
        init_total / count if init_total is not None else None
    )
    stop = _number(group, "stop", path, None)
    uniform = None
    wspec = group.get("weight")
    if isinstance(wspec, Mapping) and "uniform" in wspec:
        where = f"{path}.weight.uniform"
        _only(wspec, ("uniform",), f"{path}.weight")
        bounds = _section(wspec, "uniform", f"{path}.weight", list)
        if len(bounds) != 2 or None in bounds:
            raise ScenarioError(f"{where}: expected [low, high], got {bounds!r}")
        uniform = [_number(dict(enumerate(bounds)), i, where) for i in (0, 1)]
        if not 0 < uniform[0] <= uniform[1]:
            raise ScenarioError(
                f"{where}: expected 0 < low <= high, got {bounds!r}")
    else:
        weight = _number(group, "weight", path, 1.0)
    srcs, dsts = [src0] * count, [dst0] * count
    if "random" in (src0, dst0):
        # a != b, uniform over ordered pairs of distinct hosts
        a = rng.integers(len(hosts), size=count)
        b = rng.integers(len(hosts) - 1, size=count)
        b += b >= a
        pairs = [(hosts[x], hosts[y]) for x, y in zip(a.tolist(), b.tolist())]
        # a random end that lands on the fixed end takes the other draw
        if src0 == "random":
            srcs = [x if x != dst0 else y for x, y in pairs]
        if dst0 == "random":
            dsts = [y if y != src0 else x for x, y in pairs]
    if uniform is not None:
        weights = rng.uniform(*uniform, size=count).tolist()
    else:
        weights = [weight] * count
    starts = [start0] * count
    if stagger:
        starts = [start0 + (i * batches // count) * interval for i in range(count)]
    flows: list[FlowSpec] = []
    for i, src, dst, w, start in zip(range(count), srcs, dsts, weights, starts):
        fid = f"{prefix}_{i}"
        flows.append(
            FlowSpec(
                id=fid,
                route=route_flow(topology, src, dst, seed=seed, flow_id=fid),
                weight_schedule=((0.0, w),),
                start_time=start,
                stop_time=stop,
                controller=controller,
                initial_rate=rate,
            )
        )
    return flows


# bytes one parsed item takes, measured on CPython and rounded up: a flow
# (its spec, id and schedule), one hop of a route as the engine stores it,
# and one link or node
_FLOW_BYTES, _HOP_BYTES, _LINK_BYTES = 1024, 64, 512


def _check_size(raw: Mapping) -> None:
    """Refuse a scenario whose topology and flows would not fit in physical
    memory, before any of them is built.  Hosts and links follow from
    ``topology.K`` or ``topology.n``; each route is counted at its longest
    (6 hops on a fat-tree, 2 on a star, one per node on an inline
    topology)."""
    topo = _section(raw, "topology", "")
    kind = topo.get("kind", "inline")
    if kind == "fat_tree":
        field, size = "topology.K", _integer(topo, "K", "topology")
        nodes, links, hops = size**3 // 4 + 5 * size**2 // 4, 3 * size**3 // 2, 6
    elif kind == "star":
        field, size = "topology.n", _integer(topo, "n", "topology")
        nodes, links, hops = size + 1, 2 * size, 2
    else:
        field = "topology"
        nodes = len(_section(topo, "nodes", "topology", list))
        links = len(_section(topo, "links", "topology", list))
        hops = max(nodes - 1, 1)
    counts = [
        _integer(group, "count", path, minimum=1)
        for path, group in _entries(raw, "flow_groups", "")
    ]
    flows = len(_section(raw, "flows", "", list)) + sum(counts)
    phys = physical_memory()
    need = _LINK_BYTES * (nodes + links)
    if need <= phys:
        need += flows * (_FLOW_BYTES + hops * _HOP_BYTES)
        field = (f"flow_groups[{counts.index(max(counts))}].count"
                 if counts else "flows")
    if need > phys:
        raise ScenarioError(
            f"{field}: {flows} flows on {links} links need about "
            f"{need / 2**30:.3g} GiB to build, more than the "
            f"{phys / 2**30:.3g} GiB of physical memory"
        )


def scenario_from_dict(raw: dict, overrides: Sequence[str] = ()) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(
            f"top level: expected a mapping, got {type(raw).__name__}"
        )
    raw = copy.deepcopy(raw)
    for spec in overrides:
        apply_override(raw, spec)

    _only(raw, TOP_KEYS, "")
    name = _file_name(raw, "name", "", "scenario")
    require_converged = _flag(raw, "require_converged", "", False)
    if "topology" not in raw:
        raise ScenarioError("topology: missing")
    _check_size(raw)
    with _section_errors("topology"):
        topology = _topology_section(_section(raw, "topology", ""))

    sim_raw = _section(raw, "sim", "")
    _only(sim_raw, SIM_KEYS, "sim")
    ctrl_raw = _section(raw, "control", "")
    aimd_raw = _section(raw, "aimd", "")
    seed = _integer(sim_raw, "seed", "sim", Scenario.seed, minimum=0)
    default_controller = _text(raw, "default_controller", "", FlowSpec.controller)
    rng = np.random.default_rng(seed)

    flows: list[FlowSpec] = []
    for i, (path, entry) in enumerate(_entries(raw, "flows", "")):
        _only(entry, FLOW_KEYS, path)
        fid = _text(entry, "id", path, f"f{i}")
        with _section_errors(path):
            flow = FlowSpec(
                id=fid,
                route=_resolve_route(topology, entry, fid, seed, path),
                weight_schedule=_weight_schedule(entry, path),
                start_time=_number(entry, "start", path, FlowSpec.start_time),
                stop_time=_number(entry, "stop", path, None),
                controller=_text(entry, "controller", path, default_controller),
                initial_rate=_number(entry, "initial_rate", path, None),
            )
            # a route from route_flow is valid by construction
            if "route" in entry:
                route_hops(topology, [flow])
        flows.append(flow)
    for gi, (path, group) in enumerate(_entries(raw, "flow_groups", "")):
        with _section_errors(path):
            flows.extend(
                _expand_group(topology, group, gi, seed, rng, default_controller)
            )

    if not flows:
        raise ScenarioError("flows: expected at least one flow")
    ids = [f.id for f in flows]
    if len(set(ids)) != len(ids):
        dup = sorted({x for x in ids if ids.count(x) > 1})
        raise ScenarioError(f"flows: duplicate ids {dup}")

    with _section_errors("control"):
        control = _numbers(ControlParams, ctrl_raw, "control")
    with _section_errors("aimd"):
        aimd = _numbers(AimdConfig, aimd_raw, "aimd")

    if sim_raw.get("dt") is None or sim_raw.get("end_time") is None:
        raise ScenarioError("sim: need both 'dt' and 'end_time'")
    with _section_errors("sim"):
        sim = SimConfig(
            dt=_number(sim_raw, "dt", "sim"),
            end_time=_number(sim_raw, "end_time", "sim"),
            control=control,
            signal_delay_mode=_choice(sim_raw, "signal_delay_mode", "sim",
                                      SIGNAL_DELAY_MODES,
                                      SimConfig.signal_delay_mode),
            update_mode=_choice(sim_raw, "update_mode", "sim", UPDATE_MODES,
                                SimConfig.update_mode),
            packet_size=_number(sim_raw, "packet_size", "sim",
                                SimConfig.packet_size),
            sampling_interval=_number(sim_raw, "sampling_interval", "sim", None),
            aimd=aimd,
        )

    eps, window, judge = _convergence_section(_section(raw, "convergence", ""))
    return Scenario(
        name=name,
        topology=topology,
        flows=flows,
        sim=sim,
        seed=seed,
        require_converged=require_converged,
        convergence_eps=eps,
        convergence_window=window,
        convergence_judge=judge,
        raw=raw,
    )
