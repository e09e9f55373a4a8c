"""Scenario runner CLI: run simulations, sweep parameters, query the oracle.

Subcommands::

    soze-sim run <scenario.yaml> [--set key=value]... [--out DIR]
    soze-sim sweep <scenario.yaml> --param NAME --values a,b,c [--out DIR]
    soze-sim oracle <scenario.yaml> [--set key=value]...

A run writes ``<name>.trace.csv`` and ``<name>.summary.json`` into the
output directory, ``name`` being the scenario's.  The summary holds one entry
per epoch (the span between two flow events); an epoch with active flows
carries its oracle allocation, its ``convergence`` report, a ``status`` of
``converged``, ``not_settled`` or ``too_short_for_window`` (the epoch cannot
hold one convergence window; its ``convergence.error`` says why), and
``judged``, whether the scenario's ``convergence.judge`` setting counts it.
The summary's ``status`` is ``converged`` or names the first judged epoch
that did not converge; ``all_converged`` is true when every judged epoch
converged.  Each report block holds its report type's fields, as ``vars``
of the object itself (no copy): ``control`` a ``ControlParams``,
``lemma_report`` a ``LemmaReport``, an epoch's ``oracle`` (and ``soze-sim
oracle``'s ``allocation``) an ``AllocationResult`` and its ``convergence``
a ``ConvergenceReport``.

A sweep instance is the run with ``--param`` set to one value, written as
``<name>.<param>=<value>.trace.csv`` and ``<name>.<param>=<value>.summary.json``;
the sweep writes ``<name>.sweep_<param>.json``, one row per value:

* ``converged`` -- the instance summary's ``all_converged``;
* ``status`` -- the instance summary's ``status``;
* ``convergence_rtts``, ``final_fairness_error`` -- from the last judged
  epoch's convergence report (``None`` when it has no such figure);
* ``param``, ``value``, ``wall_time_s`` and ``summary_path``.

Exit codes: 0 success, 2 configuration error, 3 convergence required but not
reached.  A configuration error -- a scenario file that cannot be read or is
not YAML, a malformed field, ``--set`` or ``--values`` -- prints
``error: <field, file or flag>: ...`` and no traceback.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import dataclass, replace

from . import metrics
from .control import check_lemma_conditions
from .fluid import FluidSimulation, Trace, _atomic_write
from .model import FlowSpec
from .oracle import AllocationResult, water_fill
from .scenario import (
    Scenario,
    ScenarioError,
    apply_sweep_value,
    load_scenario,
    parse_yaml,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3


def _epoch_boundaries(flows: list[FlowSpec], end_time: float) -> list[float]:
    marks = {0.0}
    for f in flows:
        marks.add(f.start_time)
        if f.stop_time is not None and f.stop_time < end_time:
            marks.add(f.stop_time)
        for t, _ in f.weight_schedule:
            if 0.0 <= t < end_time:
                marks.add(t)
    return sorted(m for m in marks if m < end_time)


def epoch_allocations(
    scenario: Scenario,
) -> list[tuple[float, float, list[FlowSpec], AllocationResult | None]]:
    """Water-filling allocation for every event epoch of the scenario."""
    end = scenario.sim.end_time
    bounds = _epoch_boundaries(scenario.flows, end)
    out = []
    for i, t0 in enumerate(bounds):
        t1 = bounds[i + 1] if i + 1 < len(bounds) else end
        active = [f for f in scenario.flows if f.start_time <= t0
                  and (f.stop_time is None or f.stop_time > t0)]
        if active:
            weights = {f.id: f.weight_at(t0) for f in active}
            alloc = water_fill(scenario.topology, active, weights)
        else:
            alloc = None
        out.append((t0, t1, active, alloc))
    return out


def summarize_run(scenario: Scenario, engine: FluidSimulation, trace: Trace,
                  wall_time: float) -> dict:
    """Build the summary report: per-epoch oracle tables and convergence.

    Every epoch with active flows is measured; ``scenario.convergence_judge``
    decides which of them (all, or only the last) the verdict counts.
    """
    params = engine.params
    gate = float(engine.gate.max())
    lemma = check_lemma_conditions(
        params if params.update_interval is not None
        else replace(params, update_interval=gate)
    )
    epochs = []
    for t0, t1, active, alloc in epoch_allocations(scenario):
        entry: dict = {"start": t0, "end": t1,
                       "flows": [f.id for f in active]}
        epochs.append(entry)
        if alloc is None:
            entry["oracle"] = None
            continue
        entry["oracle"] = vars(alloc)
        try:
            report = metrics.convergence_time(
                trace,
                alloc,
                eps=scenario.convergence_eps,
                window=scenario.convergence_window,
                start=t0,
                end=t1,
                after=t0,
            )
        except ValueError as exc:
            entry["convergence"] = {"converged": False, "error": str(exc)}
            entry["status"] = "too_short_for_window"
        else:
            entry["convergence"] = vars(report)
            entry["status"] = "converged" if report.converged else "not_settled"
        entry["judged"] = scenario.convergence_judge == "all"
    measured = [ep for ep in epochs if "status" in ep]
    if scenario.convergence_judge == "final" and measured:
        measured[-1]["judged"] = True
    status = next(
        (f"{ep['status']} in epoch {i} [{ep['start']:.6g}, {ep['end']:.6g})"
         for i, ep in enumerate(epochs)
         if ep.get("judged") and ep["status"] != "converged"),
        "converged",
    )

    return {
        "scenario": scenario.name,
        "wall_time_s": wall_time,
        "control": vars(params),
        "sim": {
            "dt": scenario.sim.dt,
            "end_time": scenario.sim.end_time,
            "signal_delay_mode": scenario.sim.signal_delay_mode,
            "update_mode": scenario.sim.update_mode,
            "seed": scenario.seed,
            "sampling_interval": trace.sampling_interval,
        },
        "lemma_report": vars(lemma),
        "epochs": epochs,
        "require_converged": scenario.require_converged,
        "all_converged": status == "converged",
        "status": status,
    }


@dataclass
class RunOutput:
    summary: dict
    trace_path: str
    summary_path: str


def execute_scenario(scenario: Scenario, out_dir: str,
                     stem: str | None = None) -> RunOutput:
    """Simulate ``scenario`` and write ``<stem>.trace.csv`` and
    ``<stem>.summary.json`` (the stem defaulting to its name) in ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    engine = FluidSimulation(scenario.topology, scenario.flows, scenario.sim)
    trace = engine.run()
    wall = time.perf_counter() - t0
    summary = summarize_run(scenario, engine, trace, wall)
    path = os.path.join(out_dir, stem or scenario.name)
    result = RunOutput(summary, f"{path}.trace.csv", f"{path}.summary.json")
    trace.to_csv(result.trace_path)
    _atomic_write(result.summary_path,
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return result


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, overrides=args.set or ())
    result = execute_scenario(scenario, args.out)
    summary = result.summary
    print(f"scenario: {summary['scenario']}")
    print(f"trace:    {result.trace_path}")
    print(f"summary:  {result.summary_path}")
    for ep in summary["epochs"]:
        print(f"  {_describe_epoch(ep)}")
    if scenario.require_converged and not summary["all_converged"]:
        print(f"convergence required but not reached: {summary['status']}",
              file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


def _sweep_instance(base_raw: dict, param: str, value,
                    out_dir: str) -> tuple[dict, list[dict]]:
    """Run one sweep value; return its sweep row and its summary epochs."""
    raw = copy.deepcopy(base_raw)
    apply_sweep_value(raw, param, value)
    scenario = scenario_from_dict(raw)
    result = execute_scenario(scenario, out_dir,
                              stem=f"{scenario.name}.{param}={value}")
    summary = result.summary
    judged = [ep for ep in summary["epochs"] if ep.get("judged")]
    last = judged[-1]["convergence"] if judged else {}
    row = {
        "param": param,
        "value": value,
        "converged": summary["all_converged"],
        "status": summary["status"],
        "convergence_rtts": last.get("convergence_rtts"),
        "final_fairness_error": last.get("final_fairness_error"),
        "wall_time_s": summary["wall_time_s"],
        "summary_path": result.summary_path,
    }
    return row, summary["epochs"]


def _describe_epoch(ep: dict) -> str:
    """One printed line per summary epoch: span, status, error, oracle."""
    head = f"epoch [{ep['start']:.6g}, {ep['end']:.6g}s)"
    if ep["oracle"] is None:
        return f"{head} no active flows"
    conv = ep["convergence"]
    if "error" in conv:
        detail = f"({conv['error']})"
    else:
        detail = f"err={conv['final_fairness_error']:.4g}"
    judged = "" if ep["judged"] else " [not judged]"
    rates = ", ".join(
        f"{fid}={r / 1e9:.2f}G" for fid, r in ep["oracle"]["rates"].items()
    )
    return f"{head} status={ep['status']}{judged} {detail} oracle: {rates}"


def cmd_sweep(args) -> int:
    values = [parse_yaml(v, "--values") for v in args.values.split(",") if v]
    if not values:
        raise ScenarioError(f"--values: expected a comma-separated list, "
                            f"got {args.values!r}")
    base = load_scenario(args.scenario, overrides=args.set or ())
    # a bad --param fails in the first instance, before it writes a file
    results = [_sweep_instance(base.raw, args.param, v, args.out)
               for v in values]
    rows = [row for row, _ in results]
    sweep_path = os.path.join(args.out, f"{base.name}.sweep_{args.param}.json")
    _atomic_write(sweep_path, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"sweep summary: {sweep_path}")
    for row, epochs in results:
        print(
            f"  {args.param}={row['value']}: converged={row['converged']} "
            f"status={row['status']} rtts={row['convergence_rtts']} "
            f"err={row['final_fairness_error']}"
        )
        for ep in epochs:
            print(f"    {_describe_epoch(ep)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario, overrides=args.set or ())
    table = []
    for t0, t1, active, alloc in epoch_allocations(scenario):
        table.append({
            "start": t0,
            "end": t1,
            "flows": [f.id for f in active],
            "allocation": vars(alloc) if alloc else None,
        })
    print(json.dumps({"scenario": scenario.name, "epochs": table},
                     indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soze-sim",
        description="Fluid-model weighted bandwidth allocation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="print the allocation without simulating")
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
