"""One benchmark pass, run in a fresh process so its peak memory is its own.

    python3 perfbench/passrun.py '<json config>'

The config names the repository root, the workload, the seed, the output
directory, whether to trace, whether to probe the engine's run memory, how
long to spend repeating each set-up step, and the sha256 of traces whose
values an earlier pass of the run has already checked.  The pass:

1. runs every CLI operation of the workload through ``soze_sim.cli.main``;
   the operations are the timed step of an untraced pass,
2. after each operation of an untraced pass, times its set-up
   (``load_scenario`` and ``FluidSimulation(...)`` for each of its
   simulations) as a separate step, repeated until the budget is spent,
3. reads the peak RSS of this process and of its largest sweep worker (the
   parent polls the whole process tree as well),
4. checks every operation's outputs against those simulations,

and prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import checks
import tracer as tracing
import workloads


def import_soze(root: str):
    """Import soze_sim from ``<root>/src`` and nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import soze_sim
    import soze_sim.cli

    if not os.path.realpath(soze_sim.__file__).startswith(src + os.sep):
        raise ImportError(f"soze_sim imported from {soze_sim.__file__}, "
                          f"not from {src}")
    return soze_sim


def run_ops(cli, ops, out_dir: str, tracer=None, after_op=None):
    """Run each operation through the CLI; exceptions become failed records.

    ``after_op(i)`` runs after operation ``i``; its time is left out of the
    returned wall time.
    """
    records = []
    trace_ctx = tracer.span if tracer else lambda name: contextlib.nullcontext()
    aside = 0.0
    t0 = time.perf_counter()
    with trace_ctx("bench.pass"):
        for i, op in enumerate(ops):
            argv = op.argv() + ["--out", os.path.join(out_dir, f"op{i}")]
            log = io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), \
                        contextlib.redirect_stderr(log):
                    rc = cli.main(argv)
            except SystemExit as exc:        # argparse rejects its input
                rc = exc.code
            except Exception:
                rc = None
                error = traceback.format_exc()
            records.append({"rc": rc, "wall_s": time.perf_counter() - start,
                            "error": error, "log_tail": log.getvalue()[-2000:]})
            if after_op is not None:
                t = time.perf_counter()
                after_op(i)
                aside += time.perf_counter() - t
    return records, time.perf_counter() - t0 - aside


def peak_rss_kib() -> dict:
    """High-water RSS of this process and of its largest finished child."""
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def build_sims(soze, op):
    """The (scenario, engine) pairs an operation simulates, built the way
    ``cmd_run`` and the sweep worker build them."""
    import yaml
    from soze_sim.scenario import apply_sweep_value, scenario_from_dict

    def engine(sc):
        return soze.FluidSimulation(sc.topology, sc.flows, sc.sim)

    if op.param is None:
        sc = soze.load_scenario(op.path, overrides=op.sets)
        return [(sc, engine(sc))]
    with open(op.path) as fh:
        raw = yaml.safe_load(fh)
    sims = []
    for text in op.values:
        sc = scenario_from_dict(raw, overrides=op.sets)
        apply_sweep_value(sc.raw, op.param, yaml.safe_load(text))
        sc = scenario_from_dict(sc.raw)
        sims.append((sc, engine(sc)))
    return sims


def timed_setup(soze, op, budget_s: float, max_reps: int = 50):
    """Repeat the set-up step of one operation until ``budget_s`` is spent
    (at least twice).  Returns the per-repetition times and the simulations
    of the last repetition."""
    samples = []
    while True:
        t0 = time.perf_counter()
        sims = build_sims(soze, op)
        samples.append(time.perf_counter() - t0)
        if len(samples) >= max_reps or (len(samples) >= 2 and
                                        sum(samples) >= budget_s):
            return samples, sims


def run_peak_mib(engine) -> float:
    """RSS growth while ``engine.run()`` executes, in a forked copy.

    Forking keeps the process high-water mark of earlier work out of the
    figure; tracemalloc would give the same answer at 4-8x the run time.
    """
    sys.stdout.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            engine.run()
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(w, str(after - before).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("memory probe child produced no result")
    return int(data) / 1024.0


def check_ops(ops, records, sims, out_dir: str,
              checked: set[str]) -> list[dict]:
    results = []
    for i, (op, rec, op_sims) in enumerate(zip(ops, records, sims)):
        failures = [f"exception: {rec['error']}"] if rec["error"] else []
        ok_codes = (0, 3) if any(sc.require_converged for sc, _ in op_sims) \
            else (0,)
        try:
            res = checks.check_op(
                rec["rc"], os.path.join(out_dir, f"op{i}"),
                [checks.FlowBounds.of(e) for _, e in op_sims],
                sweep=op.param is not None, ok_codes=ok_codes,
                checked=checked,
            )
        except Exception:
            res = checks.OpCheck(failures=[f"check crashed: {traceback.format_exc()}"])
        failures += res.failures
        if failures and rec["log_tail"]:
            failures.append(f"output: {rec['log_tail']}")
        results.append({
            "argv": op.argv(), "rc": rec["rc"], "wall_s": rec["wall_s"],
            "failures": failures,
            "judged_epochs": res.judged_epochs,
            "converged_epochs": res.converged_epochs,
            "output_bytes": res.output_bytes,
            "trace_sha256": res.trace_sha256,
            "instances": res.instances,
            "busy_s": res.busy_s,
        })
    return results


def traced_layers(tracer) -> dict:
    return {
        "self_s": tracer.self_times(),
        "total_s": tracer.totals(),
        "calls": tracer.calls(),
        "counts": dict(tracer.counts),
        "problems": tracer.check_nesting(),
    }


def write_spans(tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "fields": ["id", "name", "parent", "start", "end"],
            "spans": [[s.id, s.name, s.parent, s.start, s.end]
                      for s in tracer.spans],
            "counts": dict(tracer.counts),
        }, fh)


def main(config: dict) -> dict:
    root = config["root"]
    soze = import_soze(root)
    ops = workloads.ops_for(config["workload"], config["seed"], config["tiny"])
    out_dir = config["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)   # left over by a killed pass
    tracer = tracing.Tracer() if config["traced"] else None
    setup_samples, sims = [None] * len(ops), [None] * len(ops)

    def setup(i):
        setup_samples[i], sims[i] = timed_setup(soze, ops[i],
                                                config["setup_budget_s"])

    ops_start = time.monotonic()
    if tracer is not None:
        with tracer:
            tracing.install(tracer)
            records, wall = run_ops(soze.cli, ops, out_dir, tracer)
    else:
        # set-up is timed between the operations, outside their wall time
        records, wall = run_ops(soze.cli, ops, out_dir, after_op=setup)
    ops_window = (ops_start, time.monotonic())
    rss = peak_rss_kib()
    for i in range(len(ops)):
        if sims[i] is None:
            sims[i] = build_sims(soze, ops[i])

    result = {
        "wall_s": wall,
        "ops_window": ops_window,
        "rss_kib": rss,
        "setup_s": setup_samples,
        "flow_steps": sum(e.n_steps * len(e.flows)
                          for op_sims in sims for _, e in op_sims),
        "ops": check_ops(ops, records, sims, out_dir,
                         set(config.get("checked_traces", ()))),
    }
    if tracer is not None:
        result["layers"] = traced_layers(tracer)
        write_spans(tracer, config["spans_path"])
    if config["probe_memory"]:
        result["run_peak_mib"] = max(
            run_peak_mib(e) for op_sims in sims for _, e in op_sims
        )
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    os.chdir(cfg["root"])
    print(json.dumps(main(cfg)))
