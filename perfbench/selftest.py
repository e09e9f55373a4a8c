"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

They check that a tiny-size run of every workload emits every metric of
BENCHMARK.json with its unit, that a NaN trace and a non-zero exit are
counted as failures rather than crashing the harness, that spans nest
inside their parents with self times >= 0, that the layer-coverage check
flags a pass whose time is not attributed to a layer, and that the RSS
poller counts child processes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import checks
import passrun
import run
import tracer as tracing
import workloads

SCRATCH = os.path.join(run.OUT, "selftest")


def _fresh_dir(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _bounds(n_flows: int) -> checks.FlowBounds:
    return checks.FlowBounds(dt=1e-6, rate_floor=1e6, caps=(1e11,) * n_flows,
                             start_steps=(0,) * n_flows,
                             stop_steps=(None,) * n_flows)


def _write_run_outputs(out_dir: str, rows: list[str]) -> None:
    header = "time_s,flow_a_rate_bps,flow_a_signal_s,link_l_qdelay_s\n"
    with open(os.path.join(out_dir, "x.trace.csv"), "w") as fh:
        fh.write(header + "".join(r + "\n" for r in rows))
    with open(os.path.join(out_dir, "x.summary.json"), "w") as fh:
        fh.write('{"wall_time_s": 0.1, '
                 '"epochs": [{"convergence": {"converged": true}}]}\n')


def test_tiny_runs_emit_every_metric():
    spec = run.load_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(workloads.LAYER_MAP) <= layer_names
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        for name in workloads.WORKLOADS:
            result = run.measure(name, 3, 0, trace, tiny=True)
            got = run.metrics_json(result, spec, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            assert {k: v["unit"] for k, v in got.items()} == want, name
            assert result["failed"] == 0, [
                op["failures"] for p in result["passes"] for op in p["ops"]]


def test_nan_trace_is_a_failure():
    out = _fresh_dir("nan")
    _write_run_outputs(out, ["0.0,1e9,0.0,0.0", "1e-06,nan,0.0,0.0"])
    result = checks.check_op(0, out, [_bounds(1)], sweep=False)
    assert any("non-finite" in f for f in result.failures)
    assert result.judged_epochs == 1


def test_invariant_breaks_are_failures():
    out = _fresh_dir("invariants")
    _write_run_outputs(out, ["0.0,1e9,0.0,0.0", "1e-06,1e3,0.0,-1e-9"])
    failures = checks.check_op(0, out, [_bounds(1)], sweep=False).failures
    assert any("negative queue" in f for f in failures)
    assert any("outside" in f for f in failures)
    clean = _fresh_dir("clean")
    _write_run_outputs(clean, ["0.0,1e9,0.0,0.0", "1e-06,2e9,0.0,1e-9"])
    assert checks.check_op(0, clean, [_bounds(1)], sweep=False).failures == []


def test_nonzero_exit_and_exceptions_are_failures():
    class FakeCli:
        def __init__(self, outcome):
            self.outcome = outcome

        def main(self, argv):
            if isinstance(self.outcome, Exception):
                raise self.outcome
            return self.outcome

    op = workloads.QUEUE_LAG
    out = _fresh_dir("exit")
    for outcome in (2, RuntimeError("boom")):
        records, _ = passrun.run_ops(FakeCli(outcome), [op], out)
        rec = records[0]
        result = checks.check_op(rec["rc"], os.path.join(out, "op0"),
                                 [_bounds(3)], sweep=False)
        assert result.failures, outcome
    assert records[0]["error"] and "boom" in records[0]["error"]

    # the real CLI on a missing scenario exits 2 and is counted, not raised
    missing = workloads.Op("no_such_scenario")
    records, _ = passrun.run_ops(passrun.import_soze(run.ROOT).cli,
                                 [missing], out)
    assert records[0]["rc"] == 2


def test_spans_nest_and_self_times_cover_the_wall():
    class Layer:
        @staticmethod
        def inner():
            time.sleep(0.002)

        @staticmethod
        def outer():
            Layer.inner()
            time.sleep(0.001)

    original = Layer.inner
    t = tracing.Tracer()
    with t:
        t.wrap(Layer, "inner", "inner")
        t.wrap(Layer, "outer", "outer")
        with t.span("root"):
            Layer.outer()
            Layer.inner()
    assert Layer.inner is original
    assert t.check_nesting() == []
    self_s = t.self_times()
    assert all(v >= 0 for v in self_s.values())
    root = t.totals()["root"]
    assert abs(sum(self_s.values()) - root) < 1e-9
    assert t.calls() == {"root": 1, "outer": 1, "inner": 2}

    # a child that ends after its parent is reported
    t.spans[1].end = t.spans[0].end + 1.0
    assert t.check_nesting()


def test_layer_check_flags_unattributed_time():
    def traced_pass(unattributed):
        return {"label": "t0", "wall_s": 1.0, "ops": [{"failures": []}],
                "layers": {"problems": [], "total_s": {"bench.pass": 1.0},
                           "self_s": {"bench.pass": unattributed,
                                      "fluid.run": 1.0 - unattributed}}}

    good, bad = traced_pass(0.05), traced_pass(0.5)
    run.check_layers([good, bad])
    assert good["ops"][-1]["failures"] == []
    assert any("unattributed" in f for f in bad["ops"][-1]["failures"])

    lost = traced_pass(0.05)
    lost["layers"]["self_s"]["fluid.run"] = 0.5   # a span went missing
    run.check_layers([lost])
    assert any("sum to" in f for f in lost["ops"][-1]["failures"])


def test_tree_rss_counts_children():
    child = subprocess.Popen([sys.executable, "-c",
                              "import sys, time; b = bytearray(64 << 20); "
                              "b[::4096] = b'x' * len(b[::4096]); "
                              "print(flush=True); time.sleep(2)"],
                             stdout=subprocess.PIPE)
    try:
        child.stdout.readline()   # the child has touched its 64 MiB
        own = run.tree_rss_kib(child.pid)
        tree = run.tree_rss_kib(os.getpid())
        assert own > 60 * 1024
        assert tree >= own + 1024
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert run.tree_rss_kib(child.pid) == 0


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
