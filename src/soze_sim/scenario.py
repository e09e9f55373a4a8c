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
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .baselines import AimdConfig
from .control import ControlParams
from .fluid import SimConfig, physical_memory
from .model import (
    FlowSpec,
    Topology,
    build_topology,
    fat_tree,
    hosts_of,
    route_flow,
    star,
    validate_flow,
)


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending field."""


JUDGE_MODES = ("all", "final")


@dataclass
class Scenario:
    name: str
    topology: Topology
    flows: list[FlowSpec]
    sim: SimConfig
    require_converged: bool = False
    convergence_eps: float = 0.05
    convergence_window: int = 20
    convergence_judge: str = "all"
    trace_name: str | None = None
    summary_name: str | None = None
    raw: dict = field(default_factory=dict)


def load_scenario(path: str, overrides: Sequence[str] = ()) -> Scenario:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    return scenario_from_dict(raw, overrides=overrides)


def apply_override(raw: dict, spec: str) -> None:
    """Apply one ``dotted.path=value`` override in place.

    Path segments that parse as integers index into lists; values are parsed
    as YAML so ``--set control.m=1.5`` and ``--set flows.0.weight=2`` work.
    """
    if "=" not in spec:
        raise ScenarioError(f"override {spec!r}: expected key=value")
    key, _, text = spec.partition("=")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"override {key}: unparsable value {text!r}") from exc
    parts = key.split(".")
    node: Any = raw
    for i, part in enumerate(parts[:-1]):
        nxt = _descend(node, part, key)
        if nxt is None:
            nxt = {} if not parts[i + 1].isdigit() else []
            _assign(node, part, nxt, key)
        node = nxt
    _assign(node, parts[-1], value, key)


def _descend(node: Any, part: str, key: str) -> Any:
    if isinstance(node, list):
        if not part.isdigit() or int(part) >= len(node):
            raise ScenarioError(f"override {key}: bad list index {part!r}")
        return node[int(part)]
    if isinstance(node, dict):
        return node.get(part)
    raise ScenarioError(f"override {key}: {part!r} is not a container")


def _assign(node: Any, part: str, value: Any, key: str) -> None:
    if isinstance(node, list):
        if not part.isdigit() or int(part) >= len(node):
            raise ScenarioError(f"override {key}: bad list index {part!r}")
        node[int(part)] = value
    elif isinstance(node, dict):
        node[part] = value
    else:
        raise ScenarioError(f"override {key}: cannot assign into {type(node)}")


SWEEP_PARAMS = ("m", "p", "k", "flow_count", "K", "initial_rate")


def apply_sweep_value(raw: dict, param: str, value: Any) -> None:
    """Point one sweepable parameter at ``value`` inside the raw scenario."""
    if param in ("m", "p", "k"):
        raw.setdefault("control", {})[param] = value
    elif param == "K":
        topo = raw.get("topology", {})
        if topo.get("kind") != "fat_tree":
            raise ScenarioError("sweep K: topology.kind must be fat_tree")
        topo["K"] = value
    elif param == "flow_count":
        groups = raw.get("flow_groups")
        if not groups:
            raise ScenarioError("sweep flow_count: scenario has no flow_groups")
        groups[0]["count"] = value
    elif param == "initial_rate":
        for f in raw.get("flows", []):
            f["initial_rate"] = value
        for g in raw.get("flow_groups", []):
            g["initial_rate"] = value
            g.pop("initial_rate_total", None)
    else:
        raise ScenarioError(
            f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}"
        )


def _need(raw: Mapping, key: str, path: str) -> Any:
    if key not in raw:
        raise ScenarioError(f"{path}.{key}: missing")
    return raw[key]


def _section(raw: Mapping, key: str, path: str, kind: type = dict) -> Any:
    """``raw[key]`` checked to be a ``kind`` (``dict`` or ``list``); unset or
    null reads as an empty one.  ``path`` is the enclosing field, "" at the
    top level."""
    value = raw.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        name = f"{path}.{key}" if path else key
        what = "a mapping" if kind is dict else "a list"
        raise ScenarioError(f"{name}: expected {what}, got {value!r}")
    return value


def _real(value: Any) -> float:
    """``float(value)``, refusing booleans, which float() reads as 0 and 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _number(raw: Mapping, key: str, path: str, default=None) -> Any:
    """``raw[key]`` as a finite float, ``default`` when unset; null is read
    as unset only where ``default`` is None."""
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    try:
        number = _real(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ScenarioError(f"{path}.{key}: must be finite, got {value!r}")
    return number


def _numbers(cls, raw: Mapping, path: str):
    """An instance of the all-number dataclass ``cls``; each field is read
    from ``raw`` and keeps the class default when unset."""
    return cls(**{
        f.name: _number(raw, f.name, path, f.default)
        for f in fields(cls)
    })


def _integer(raw: Mapping, key: str, path: str, default: int | None = None,
             minimum: int | None = None) -> int:
    """``raw[key]`` as an int no less than ``minimum``; unset reads as
    ``default``, and is missing when that is None."""
    if key not in raw and default is None:
        raise ScenarioError(f"{path}.{key}: missing")
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}, got {value!r}")
    return value


def _text(raw: Mapping, key: str, path: str, default: str) -> str:
    """``raw[key]`` as a non-empty string, ``default`` when unset; an integer
    reads as its digits.  ``path`` is the enclosing field, "" at the top
    level."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (str, int)) or value == "":
        name = f"{path}.{key}" if path else key
        raise ScenarioError(f"{name}: expected a non-empty string, got {value!r}")
    return str(value)


def _choice(raw: Mapping, key: str, path: str, choices: Sequence[str],
            default: str) -> str:
    value = raw.get(key, default)
    if value not in choices:
        raise ScenarioError(
            f"{path}.{key}: expected one of {list(choices)}, got {value!r}"
        )
    return value


def _convergence_section(raw: Mapping) -> tuple[float, int, str]:
    """``(eps, window, judge)`` from the scenario's ``convergence`` section."""
    path = "convergence"
    eps = _number(raw, "eps", path, Scenario.convergence_eps)
    if eps <= 0:
        raise ScenarioError(f"{path}.eps: must be a finite number > 0, got {eps!r}")
    window = _integer(raw, "window", path, Scenario.convergence_window, minimum=1)
    judge = _choice(raw, "judge", path, JUDGE_MODES, Scenario.convergence_judge)
    return eps, window, judge


def _build_topology_section(raw: Mapping) -> Topology:
    kind = raw.get("kind", "inline")
    if kind == "star":
        return star(_integer(raw, "n", "topology"),
                    _number(raw, "bandwidth", "topology", 100e9),
                    _number(raw, "prop_delay", "topology", 1e-6))
    if kind == "fat_tree":
        return fat_tree(_integer(raw, "K", "topology"),
                        _number(raw, "bandwidth", "topology", 100e9),
                        _number(raw, "prop_delay", "topology", 1e-6))
    if kind == "inline":
        _need(raw, "nodes", "topology")
        return build_topology({
            **raw,
            "nodes": _section(raw, "nodes", "topology", list),
            "links": _section(raw, "links", "topology", list),
        })
    raise ScenarioError(f"topology.kind: unknown kind {kind!r}")


def _weight_schedule(entry: Mapping, start: float, path: str):
    if "weight_schedule" in entry:
        sched = entry["weight_schedule"]
        try:
            return tuple((_real(t), _real(w)) for t, w in sched)
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{path}.weight_schedule: expected [time, weight] pairs")
    w = _number(entry, "weight", path, 1.0)
    return ((min(0.0, start), w),)


def _resolve_route(
    topology: Topology, entry: Mapping, fid: str, seed: int, path: str
):
    if "route" in entry:
        return tuple(str(x) for x in _section(entry, "route", path, list))
    src = entry.get("src")
    dst = entry.get("dst")
    if src is None or dst is None:
        raise ScenarioError(f"{path}: need either 'route' or 'src'+'dst'")
    try:
        return route_flow(topology, str(src), str(dst), seed=seed, flow_id=fid)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _expand_group(
    topology: Topology,
    group: Mapping,
    gi: int,
    seed: int,
    rng: np.random.Generator,
    default_controller: str,
) -> list[FlowSpec]:
    path = f"flow_groups[{gi}]"
    count = _integer(group, "count", path, minimum=1)
    prefix = _text(group, "id_prefix", path, f"g{gi}")
    controller = _text(group, "controller", path, default_controller)
    hosts = hosts_of(topology)
    start0 = _number(group, "start", path, 0.0)
    stagger = _section(group, "start_stagger", path)
    if stagger:
        where = f"{path}.start_stagger"
        batches = _integer(stagger, "batches", where, minimum=1)
        interval = _number(stagger, "interval", where, 0.0)
    init = _number(group, "initial_rate", path, None)
    init_total = _number(group, "initial_rate_total", path, None)
    uniform = None
    wspec = group.get("weight")
    if isinstance(wspec, Mapping) and "uniform" in wspec:
        where = f"{path}.weight.uniform"
        bounds = _section(wspec, "uniform", f"{path}.weight", list)
        if len(bounds) != 2 or None in bounds:
            raise ScenarioError(f"{where}: expected [low, high], got {bounds!r}")
        uniform = [_number(dict(enumerate(bounds)), i, where) for i in (0, 1)]
        if not 0 <= uniform[0] <= uniform[1]:
            raise ScenarioError(f"{where}: need 0 <= low <= high, got {bounds!r}")
    else:
        weight = _number(group, "weight", path, 1.0)
    flows: list[FlowSpec] = []
    for i in range(count):
        fid = f"{prefix}_{i}"
        src, dst = group.get("src"), group.get("dst")
        if src == "random" or dst == "random":
            if len(hosts) < 2:
                raise ScenarioError(f"{path}: random endpoints need >= 2 hosts")
            a, b = (int(x) for x in rng.choice(len(hosts), size=2, replace=False))
            if src == "random":
                src = hosts[a] if hosts[a] != dst else hosts[b]
            if dst == "random":
                dst = hosts[b] if hosts[b] != src else hosts[a]
        if uniform is not None:
            weight = float(rng.uniform(*uniform))
        start = start0
        if stagger:
            start = start0 + (i * batches // count) * interval
        entry = {"src": src, "dst": dst}
        route = _resolve_route(topology, entry, fid, seed, f"{path}[{i}]")
        rate = init if init is not None else (
            init_total / count if init_total is not None else None
        )
        flows.append(
            FlowSpec(
                id=fid,
                route=route,
                weight_schedule=((min(0.0, start), weight),),
                start_time=start,
                stop_time=_number(group, "stop", path, None),
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
        _integer(group, "count", f"flow_groups[{i}]", minimum=1)
        if isinstance(group, Mapping) else 0
        for i, group in enumerate(_section(raw, "flow_groups", "", list))
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
    raw = copy.deepcopy(raw)
    for spec in overrides:
        apply_override(raw, spec)

    name = _text(raw, "name", "", "scenario")
    if "/" in name or "\\" in name:
        # the name is the stem of the output file names
        raise ScenarioError(
            f"name: expected a name without a path separator, got {name!r}"
        )
    require_converged = raw.get("require_converged", False)
    if not isinstance(require_converged, bool):
        raise ScenarioError(
            f"require_converged: expected true or false, got {require_converged!r}"
        )
    if "topology" not in raw:
        raise ScenarioError("topology: missing")
    _check_size(raw)
    try:
        topology = _build_topology_section(_section(raw, "topology", ""))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"topology: {exc}") from exc

    sim_raw = _section(raw, "sim", "")
    ctrl_raw = _section(raw, "control", "")
    aimd_raw = _section(raw, "aimd", "")
    seed = _integer(sim_raw, "seed", "sim", 0, minimum=0)
    default_controller = _text(raw, "default_controller", "", "soze")
    rng = np.random.default_rng(seed)

    flows: list[FlowSpec] = []
    for i, entry in enumerate(_section(raw, "flows", "", list)):
        path = f"flows[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{path}: expected a mapping, got {entry!r}")
        fid = _text(entry, "id", path, f"f{i}")
        start = _number(entry, "start", path, 0.0)
        flows.append(
            FlowSpec(
                id=fid,
                route=_resolve_route(topology, entry, fid, seed, path),
                weight_schedule=_weight_schedule(entry, start, path),
                start_time=start,
                stop_time=_number(entry, "stop", path, None),
                controller=_text(entry, "controller", path, default_controller),
                initial_rate=_number(entry, "initial_rate", path, None),
            )
        )
    for gi, group in enumerate(_section(raw, "flow_groups", "", list)):
        if not isinstance(group, Mapping):
            raise ScenarioError(f"flow_groups[{gi}]: expected a mapping, got {group!r}")
        flows.extend(
            _expand_group(topology, group, gi, seed, rng, default_controller)
        )

    ids = [f.id for f in flows]
    if len(set(ids)) != len(ids):
        dup = sorted({x for x in ids if ids.count(x) > 1})
        raise ScenarioError(f"flows: duplicate ids {dup}")
    for f in flows:
        try:
            validate_flow(topology, f)
        except ValueError as exc:
            raise ScenarioError(f"flows[{f.id}]: {exc}") from exc

    try:
        control = _numbers(ControlParams, ctrl_raw, "control")
        control.validate()
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"control: {exc}") from exc

    try:
        aimd = _numbers(AimdConfig, aimd_raw, "aimd")
        aimd.validate()
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"aimd: {exc}") from exc

    if sim_raw.get("dt") is None or sim_raw.get("end_time") is None:
        raise ScenarioError("sim: need both 'dt' and 'end_time'")
    try:
        sim = SimConfig(
            dt=_number(sim_raw, "dt", "sim"),
            end_time=_number(sim_raw, "end_time", "sim"),
            control=control,
            signal_delay_mode=str(
                sim_raw.get("signal_delay_mode", SimConfig.signal_delay_mode)
            ),
            update_mode=str(sim_raw.get("update_mode", SimConfig.update_mode)),
            packet_size=_number(sim_raw, "packet_size", "sim",
                                SimConfig.packet_size),
            seed=seed,
            sampling_interval=_number(sim_raw, "sampling_interval", "sim", None),
            aimd=aimd,
        )
        sim.validate()
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"sim: {exc}") from exc

    eps, window, judge = _convergence_section(_section(raw, "convergence", ""))
    outputs = _section(raw, "outputs", "")
    for key in ("trace", "summary"):
        value = outputs.get(key)
        if value is not None and not isinstance(value, str):
            raise ScenarioError(f"outputs.{key}: expected a file name, got {value!r}")
    return Scenario(
        name=name,
        topology=topology,
        flows=flows,
        sim=sim,
        require_converged=require_converged,
        convergence_eps=eps,
        convergence_window=window,
        convergence_judge=judge,
        trace_name=outputs.get("trace"),
        summary_name=outputs.get("summary"),
        raw=raw,
    )
