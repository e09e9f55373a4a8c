"""soze-sim benchmark: end-to-end metrics per workload, per-layer split when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads in
``perfbench/workloads.py`` or ``all``.  Each pass runs every CLI operation
of the workload once, in a fresh process, and checks its outputs; the
parent samples the pass's process tree for its peak memory.

``--trace 0`` repeats untraced passes (at least two) for about S seconds and
reports the ``end_to_end`` metrics of BENCHMARK.json: for ``wall_s`` the
sum over operations of each one's median wall time, for ``setup_s`` the sum
over operations of each one's median set-up time, repeated between the
operations of every pass, and medians over the passes for the rest.  ``--trace 1``
runs one untraced pass (plus one without the process pool when the workload
sweeps), then two traced passes, and reports the ``per_layer`` metrics.
Traced passes run sweep instances in-process (``SOZE_SIM_THREADS=1``) so
their spans are collected; end-to-end numbers come only from untraced
passes.  Either mode prints a table and, as the last line of stdout, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, manifest and spans included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
POOL = min(os.cpu_count() or 1, 2)   # sweep workers in untraced passes
MIN_PASSES = 2                       # untraced; the determinism check needs two
SETUP_BUDGET_S = 0.05                # set-up repetitions per operation and pass
RUN_LIMIT_S = 170.0                  # a pass still running then is killed
RSS_POLL_S = 0.01                    # process-tree RSS sampling period
MIB = float(1 << 20)

# counts that must repeat exactly across traced passes
DETERMINISTIC_COUNTS = ("fluid.steps", "fluid.flow_steps",
                        "control.updated_flows", "oracle.calls")


class PassFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tree_rss_kib(pid: int) -> int:
    """Summed RSS of ``pid`` and all its descendants (0 once it has ended)."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except (OSError, ValueError):   # the process ended meanwhile
            pass
    return total


class TreeRssPoller(threading.Thread):
    """Samples the summed RSS of a process tree every RSS_POLL_S seconds,
    as (time.monotonic(), KiB) pairs."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: list[tuple[float, int]] = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(RSS_POLL_S):
            self.samples.append((time.monotonic(), tree_rss_kib(self.pid)))

    def peak_kib(self, start: float, end: float) -> int:
        return max((kib for t, kib in self.samples if start <= t <= end),
                   default=0)


def run_pass(workload: str, seed: int, label: str, *, traced: bool,
             threads: int, probe_memory: bool, tiny: bool,
             deadline: float, checked_traces: set[str]) -> dict:
    """Run one pass in a child process and return its JSON record."""
    config = {
        "root": ROOT, "workload": workload, "seed": seed, "tiny": tiny,
        "traced": traced, "probe_memory": probe_memory,
        "setup_budget_s": SETUP_BUDGET_S,
        "checked_traces": sorted(checked_traces),
        "out_dir": os.path.join(OUT, "work", f"{workload}-{label}"),
        "spans_path": os.path.join(OUT, "spans", f"{workload}-seed{seed}-{label}.json")
        if traced else None,
    }
    env = dict(os.environ, SOZE_SIM_THREADS=str(threads))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "passrun.py"), json.dumps(config)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    poller = TreeRssPoller(proc.pid)
    poller.start()
    try:
        out, err = proc.communicate(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass {label} timed out")
    finally:
        poller.done.set()
        poller.join()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {label} exited {proc.returncode}: {err[-2000:]}")
    record = json.loads(lines[-1])
    record["label"] = label
    # the tree's peak while the CLI ran: polled, and no lower than what the
    # kernel recorded for the pass process or its largest finished child
    record["peak_rss_mib"] = max(poller.peak_kib(*record["ops_window"]),
                                 *record["rss_kib"].values()) / 1024.0
    return record


def crashed_pass(workload: str, seed: int, label: str, tiny: bool,
                 exc: Exception) -> dict:
    """A pass that died: every operation counts as attempted and failed."""
    ops = workloads.ops_for(workload, seed, tiny)
    return {"label": label, "crashed": str(exc), "ops": [
        {"argv": op.argv(), "failures": [f"pass crashed: {exc}"]} for op in ops
    ]}


def check_determinism(passes: list[dict]) -> None:
    """Mark operations whose traces (or traced counts) differ from the first
    good pass as failed."""
    good = ok(passes)
    if not good:
        return
    ref = good[0]
    for p in good[1:]:
        for a, b in zip(ref["ops"], p["ops"]):
            if a["trace_sha256"] != b["trace_sha256"]:
                b["failures"].append(
                    f"trace sha256 differs from pass {ref['label']}")
    traced = [p for p in good if "layers" in p]
    for p in traced[1:]:
        want, got = (deterministic_counts(q) for q in (traced[0], p))
        if want != got:
            p["ops"][-1]["failures"].append(
                f"counts {got} differ from pass {traced[0]['label']}: {want}")


def deterministic_counts(traced_pass: dict) -> dict:
    layers = traced_pass["layers"]
    counts = {**layers["counts"],
              "oracle.calls": layers["calls"].get("oracle.water_fill", 0)}
    return {k: counts.get(k, 0) for k in DETERMINISTIC_COUNTS}


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it; below 20
    samples that would be the median or lower."""
    n = len(values)
    if n < 20:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def op_medians(passes: list[dict]) -> list[float]:
    """Median wall time of each operation over the given passes."""
    return [statistics.median(p["ops"][i]["wall_s"] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def ok(passes: list[dict]) -> list[dict]:
    return [p for p in passes if "crashed" not in p]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    good = ok(passes)
    walls = [p["wall_s"] for p in good]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["failures"])
    judged = sum(op.get("judged_epochs", 0) for op in ops)
    converged = sum(op.get("converged_epochs", 0) for op in ops)
    # each operation's median over the passes, summed: a pass's wall time,
    # with every operation's slow or fast outliers left out on their own
    wall = sum(op_medians(good))
    values = {
        "wall_s": wall,
        # each operation's set-up is repeated in every pass; sum the
        # operations' medians over all repetitions of the run
        "setup_s": sum(statistics.median(x for p in good for x in p["setup_s"][i])
                       for i in range(len(good[0]["setup_s"]))),
        "flow_steps_per_s": good[0]["flow_steps"] / wall,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in good),
        "output_mib": statistics.median(
            sum(op["output_bytes"] for op in p["ops"]) / MIB for p in good),
        "unconverged_frac": (judged - converged) / judged if judged else 1.0,
        "ok_ratio": 1.0 - failed / len(ops),
    }
    detail = {"wall_s_samples": walls, "wall_s_tail": tail(walls),
              "fail_ratio": failed / len(ops), "judged_epochs": judged,
              "converged_epochs": converged}
    return values, detail


def per_layer(untraced: list[dict], baseline: list[dict],
              traced: list[dict]) -> tuple[dict, dict]:
    good_t = ok(traced)

    def med(fn):
        return statistics.median(fn(p["layers"]) for p in good_t)

    def total(name):
        return med(lambda l: l["total_s"].get(name, 0.0))

    counts = good_t[0]["layers"]["counts"]
    calls = good_t[0]["layers"]["calls"]

    def count(name):
        return counts.get(name, 0)

    traced_wall = statistics.median(p["wall_s"] for p in good_t)
    base_wall = statistics.median(p["wall_s"] for p in ok(baseline))
    run_s = total("fluid.run")
    # the sweep layer is measured where the pool runs: untraced passes.  A
    # run operation counts as a sweep of one instance on one worker.  An
    # instance's wall_time_s covers engine build and run only, not the
    # summary or the CSV, so busy time and parallel efficiency read low.
    good_u = ok(untraced)
    n_u = max(len(good_u), 1)
    ops_u = [op for p in good_u for op in p["ops"]]
    busy = sum(op["busy_s"] for op in ops_u)
    capacity = sum(op["wall_s"] * (min(POOL, op["instances"])
                                   if op["argv"][0] == "sweep" else 1)
                   for op in ops_u)
    probed = [p["run_peak_mib"] for p in good_t if "run_peak_mib" in p]
    queue_lag = workloads.QUEUE_LAG.argv()
    queue_lag_s = sum(s for op, s in zip(good_u[0]["ops"], op_medians(good_u))
                      if op["argv"][:len(queue_lag)] == queue_lag) if good_u else 0.0
    values = {
        "fluid.run_s": run_s,
        "fluid.steps": count("fluid.steps"),
        "fluid.flow_steps": count("fluid.flow_steps"),
        "fluid.us_per_step": 1e6 * run_s / count("fluid.steps"),
        "fluid.hop_steps": count("fluid.hop_steps"),
        "fluid.ns_per_hop_step": 1e9 * run_s / count("fluid.hop_steps"),
        "fluid.run_peak_mib": probed[0] if probed else float("nan"),
        "control.update_s": total("control.update"),
        "control.update_calls": calls.get("control.update", 0),
        "control.updated_flows": count("control.updated_flows"),
        "control.update_yield":
            count("control.updated_flows") / count("fluid.flow_steps"),
        "scenario.load_s": total("scenario.load"),
        "scenario.flows": count("scenario.flows"),
        "model.route_s": total("model.route"),
        "model.route_calls": calls.get("model.route", 0),
        "model.route_hops": count("model.route_hops"),
        "fluid.setup_s": total("fluid.setup"),
        "oracle.water_fill_s": total("oracle.water_fill"),
        "oracle.calls": calls.get("oracle.water_fill", 0),
        "oracle.flows": count("oracle.flows"),
        "metrics.convergence_s": total("metrics.convergence"),
        "metrics.calls": calls.get("metrics.convergence", 0),
        "cli.summarize_self_s": med(lambda l: l["self_s"].get("cli.summarize", 0.0)),
        "cli.execute_self_s": med(lambda l: l["self_s"].get("cli.execute", 0.0)),
        "cli.write_json_s": total("cli.write_json"),
        "fluid.to_csv_s": total("fluid.to_csv"),
        "fluid.csv_cells": count("fluid.csv_cells"),
        "fluid.csv_mib": count("fluid.csv_bytes") / MIB,
        "fluid.ns_per_csv_cell":
            1e9 * total("fluid.to_csv") / max(count("fluid.csv_cells"), 1),
        "cli.sweep_instances": sum(op["instances"] for op in ops_u) / n_u,
        "cli.sweep_busy_s": busy / n_u,
        "cli.sweep_parallel_eff": busy / capacity if capacity else 0.0,
        "signal.queue_lag_op_s": queue_lag_s,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead": traced_wall / base_wall - 1.0,
        "bench.unattributed_s": med(lambda l: l["self_s"].get("bench.pass", 0.0)),
    }
    self_s = {name: med(lambda l, n=name: l["self_s"].get(n, 0.0))
              for name in good_t[0]["layers"]["self_s"]}
    return values, self_s


def check_layers(traced: list[dict]) -> None:
    """Spans must nest, the layers' self times must add up to the pass's
    wall time as timed outside the tracer, and the unattributed part (the
    harness loop plus whatever the CLI does outside a wrapped layer:
    argparse, printing, reading sweep YAML) must stay within 10% of it."""
    for p in ok(traced):
        layers = p["layers"]
        problems = list(layers["problems"])
        wall = p["wall_s"]
        covered = sum(layers["self_s"].values())
        if not 0.0 <= wall - covered <= 0.01 * wall:
            problems.append(f"self times sum to {covered} s, pass wall is {wall} s")
        if layers["self_s"]["bench.pass"] > 0.10 * wall:
            problems.append("unattributed time above 10% of the traced wall")
        p["ops"][-1]["failures"] += problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload; return the result record (see module docstring)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    checked: set[str] = set()   # traces whose values already passed

    def one(label, **kw):
        try:
            p = run_pass(workload, seed, label, tiny=tiny, deadline=deadline,
                         checked_traces=checked, **kw)
        except (PassFailed, ValueError, OSError) as exc:
            return crashed_pass(workload, seed, label, tiny, exc)
        for op in p["ops"]:
            if not op["failures"]:
                checked.update(op["trace_sha256"].values())
        return p

    plain = dict(traced=False, threads=POOL, probe_memory=False)
    untraced = []
    while (len(untraced) < (1 if trace else MIN_PASSES) or not trace and
           (time.monotonic() - start) * (1 + 1 / len(untraced)) <= seconds):
        untraced.append(one(f"u{len(untraced)}", **plain))
    extra, traced = [], []
    if trace:
        # traced passes run sweeps in-process; compare them with an
        # untraced pass that does the same
        if any(op.param for op in workloads.ops_for(workload, seed, tiny)):
            extra = [one("b0", traced=False, threads=1, probe_memory=False)]
        traced = [one(f"t{i}", traced=True, threads=1, probe_memory=i == 0)
                  for i in range(2)]
        check_layers(traced)
    passes = untraced + extra + traced
    check_determinism(passes)

    result = {"workload": workload, "seed": seed, "trace": trace,
              "passes": passes, "e2e": None}
    if ok(untraced):
        result["e2e"], result["e2e_detail"] = end_to_end(untraced)
    if ok(traced) and ok(extra or untraced):
        result["layers"], result["layer_self_s"] = per_layer(
            untraced, extra or untraced, traced)
    ops = [op for p in passes for op in p["ops"]]
    result["attempted"] = len(ops)
    result["failed"] = sum(1 for op in ops if op["failures"])
    return result


def manifest(seed: int, names: list[str]) -> dict:
    import numpy
    import yaml

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".yaml")):
                path = os.path.join(base, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "seed": seed,
        "sweep_pool_size": POOL,
        "traced_sweep_threads": 1,
        "args_sha256": {n: workloads.args_sha256(n, seed) for n in names},
    }


def print_tables(result: dict, spec: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']})")
    if result["e2e"] is not None:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for key, value in result["e2e"].items():
            print(f"  {key:<20} {value:>14.6g} {units[key]}")
        d = result["e2e_detail"]
        n = len(d["wall_s_samples"])
        t = d["wall_s_tail"]
        print(f"  wall_s over {n} passes: median {result['e2e']['wall_s']:.4g} s, "
              + (f"{t[0]} {t[1]:.4g} s" if t else
                 "no tail percentile (needs 20 passes for 10 beyond it)"))
        print(f"  fail_ratio {d['fail_ratio']:.4g} "
              f"({result['failed']}/{result['attempted']} operations), "
              f"converged epochs {d['converged_epochs']}/{d['judged_epochs']}")
    if "layers" in result:
        wall = result["layers"]["bench.traced_wall_s"]
        print("  layer self time (traced pass; sweeps in-process):")
        for layer, s in sorted(result["layer_self_s"].items(),
                               key=lambda kv: -kv[1]):
            label = "bench.unattributed" if layer == "bench.pass" else layer
            print(f"    {label:<22} {s:>10.4f} s {100 * s / wall:6.1f}%")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key, value in result["layers"].items():
            print(f"  {key:<24} {value:>14.6g} {units[key]}")
    for p in result["passes"]:
        for op in p["ops"]:
            for msg in op["failures"]:
                print(f"  FAILED {p['label']} {' '.join(op['argv'][:2])}: "
                      f"{msg[:500]}")


def metrics_json(result: dict, spec: dict, trace: bool) -> dict:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers" if trace else "e2e"] or {}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section if m["name"] in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "soze_sim", "cli.py")):
        print(f"error: no soze-sim sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    trace = bool(args.trace)
    record = {"manifest": manifest(args.seed, names), "results": []}
    metrics, attempted, failed, complete = {}, 0, 0, True
    for name in names:
        result = measure(name, args.seed, args.seconds, trace)
        record["results"].append(result)
        print_tables(result, spec)
        got = metrics_json(result, spec, trace)
        section = spec["per_layer"] if trace else spec["end_to_end"]
        complete &= len(got) == len(section) and all(
            math.isfinite(v["value"]) for v in got.values())
        if len(names) > 1:
            got = {f"{name}.{k}": v for k, v in got.items()}
        metrics.update(got)
        attempted += result["attempted"]
        failed += result["failed"]

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"manifest: {json.dumps(record['manifest'])}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
