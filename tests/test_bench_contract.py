"""The benchmark's traced pass (``perfbench/tracer.py``) times soze-sim by
swapping module attributes for wrappers.  A refactor that stops calling
through one of those attributes would silently zero that layer's figures;
these tests fail instead."""

import importlib.util
import os
import sys

import soze_sim
from soze_sim import cli

from conftest import scenario_path

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")

# counts that each traced layer must report above zero
COUNTS = ("oracle.flows", "control.updated_flows", "model.route_hops",
          "fluid.hop_steps")


def load_perfbench(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, with ``perfbench/`` on the path
    for its own imports."""
    monkeypatch.syspath_prepend(PERFBENCH)
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_and_sweep_reach_every_wrapped_layer(tmp_path, monkeypatch):
    tracing = load_perfbench(monkeypatch, "tracer")
    wrapped = []

    class Recording(tracing.Tracer):
        def wrap(self, owner, attr, name, count=None):
            wrapped.append(name)
            super().wrap(owner, attr, name, count)

    tracer = Recording()
    tracing.install(tracer)
    try:
        assert cli.main(["run", scenario_path("weighted_split"),
                         "--set", "sim.end_time=2e-5",
                         "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["sweep", scenario_path("m_sweep"), "--param", "m",
                         "--values", "0.25,1.0", "--set", "sim.end_time=2e-5",
                         "--out", str(tmp_path / "sweep")]) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(cli.water_fill, "__wrapped__")
    calls = tracer.calls()
    assert wrapped and [n for n in wrapped if not calls.get(n)] == []
    assert {c: tracer.counts[c] for c in COUNTS if tracer.counts[c] <= 0} == {}
    assert tracer.check_nesting() == []


def test_setup_step_builds_engines_for_a_run_and_a_sweep(monkeypatch):
    """``setup_s`` times ``passrun.build_sims``, which reaches the scenario
    readers, the sweep setter and the engine by name."""
    passrun = load_perfbench(monkeypatch, "passrun")
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(ROOT)    # workload paths are relative to the root
    run = workloads.ops_for("builtin_suite", 7, tiny=True)[0]
    sweeps = workloads.ops_for("sweep_ladders", 7, tiny=True)
    assert run.param is None
    assert [op.param for op in sweeps] == ["m", "flow_count"]
    for op in (run, *sweeps):
        sims = passrun.build_sims(soze_sim, op)
        assert len(sims) == (1 if op.param is None else len(op.values))
        for sc, engine in sims:
            assert isinstance(engine, soze_sim.FluidSimulation)
            assert engine.flow_ids == tuple(f.id for f in sc.flows)
