"""In-memory span tracer for the traced benchmark pass.

Spans are recorded from the benchmark's own code, around calls into each
soze-sim module: the tracer swaps the module attributes that callers look up
(``soze_sim.cli.water_fill``, ``soze_sim.scenario.route_flow``, ...) for
timing wrappers and puts the originals back on ``uninstall``.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span(self, name: str):
        return _SpanCtx(self, name)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``; ``count`` is
        called with (counts, args, result) after each call."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if count is not None:
                count(counts, args, out)
            return out

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Spans per name, raising calls included."""
        return dict(Counter(s.name for s in self.spans))

    def totals(self) -> dict[str, float]:
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: children outside their parent,
        unfinished spans, negative self times."""
        by_id = {s.id: s for s in self.spans}
        problems = []
        for s in self.spans:
            if s.end < s.start:
                problems.append(f"span {s.name}#{s.id} ends before it starts")
            if s.parent is not None:
                p = by_id[s.parent]
                if s.start < p.start or s.end > p.end:
                    problems.append(f"span {s.name}#{s.id} leaves parent {p.name}")
        for name, t in self.self_times().items():
            if t < -1e-9:
                problems.append(f"negative self time for {name}: {t}")
        return problems


class _SpanCtx:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.span = Span(len(t.spans), self.name, parent, time.perf_counter())
        t.spans.append(self.span)
        t._stack.append(self.span.id)
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


def _count_route(counts, args, out):
    counts["model.route_hops"] += len(out)


def _count_scenario(counts, args, out):
    counts["scenario.flows"] += len(out.flows)


def _count_run(counts, args, trace):
    engine = args[0]
    steps = engine.n_steps
    counts["fluid.steps"] += steps
    counts["fluid.flow_steps"] += steps * len(engine.flows)
    counts["fluid.hop_steps"] += steps * int(engine.route_pad.sum())


def _count_update(counts, args, out):
    counts["control.updated_flows"] += len(args[0])


def _count_oracle(counts, args, out):
    counts["oracle.flows"] += len(args[1])


def _count_csv(counts, args, out):
    trace, path = args[0], args[1]
    cols = 1 + 2 * len(trace.flow_ids) + len(trace.link_ids)
    counts["fluid.csv_cells"] += len(trace.times) * cols
    counts["fluid.csv_bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap each soze-sim layer boundary the CLI crosses."""
    import yaml
    from soze_sim import cli, fluid, metrics, scenario

    # YAML parsing: inside scenario.load, and cmd_sweep's own reads
    tracer.wrap(yaml, "safe_load", "scenario.yaml")
    tracer.wrap(cli, "build_parser", "cli.argparse")
    tracer.wrap(cli, "load_scenario", "scenario.load", _count_scenario)
    tracer.wrap(cli, "scenario_from_dict", "scenario.load", _count_scenario)
    tracer.wrap(scenario, "route_flow", "model.route", _count_route)
    tracer.wrap(fluid.FluidSimulation, "__init__", "fluid.setup")
    tracer.wrap(fluid.FluidSimulation, "run", "fluid.run", _count_run)
    # fluid calls update_ratio (per_rtt) or inverse_target (per_packet);
    # update_ratio reaches control.inverse_target, which is not wrapped
    tracer.wrap(fluid, "update_ratio", "control.update", _count_update)
    tracer.wrap(fluid, "inverse_target", "control.update", _count_update)
    # execute_scenario's own time is serializing the summary JSON; both
    # JSON files go through cli._atomic_write (to_csv uses fluid's own)
    tracer.wrap(cli, "execute_scenario", "cli.execute")
    tracer.wrap(cli, "_atomic_write", "cli.write_json")
    tracer.wrap(cli, "summarize_run", "cli.summarize")
    tracer.wrap(cli, "water_fill", "oracle.water_fill", _count_oracle)
    tracer.wrap(metrics, "convergence_time", "metrics.convergence")
    tracer.wrap(fluid.Trace, "to_csv", "fluid.to_csv", _count_csv)
