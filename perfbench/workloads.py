"""Workload definitions for the soze-sim benchmark.

A workload is a fixed list of CLI operations (``soze-sim run`` or
``soze-sim sweep``); one *pass* runs all of them once, in order, in one
process.  Paths are relative to the repository root.  Only ``fattree_k8``
takes its inputs from the benchmark seed; the others run shipped scenarios
whose inputs are fixed.

Each workload's docstring says why it exists.  ``LAYER_MAP`` records, for
every per-layer metric, which end-to-end metric it should move and on which
workload, plus the workloads where it should not move.  Later changes cite
both by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

SCENARIOS = "src/soze_sim/scenarios"

# The acceptance suite's FIG_MAXMIN_OVERRIDES (tests/test_acceptance.py):
# fig_maxmin with its weight steps compressed into 7.5 ms.
FIG_MAXMIN_OVERRIDES = (
    "flows.0.weight_schedule="
    "[[0.0,1.0],[0.0015,2.0],[0.003,3.0],[0.0045,4.0],[0.006,5.0]]",
    "sim.end_time=0.0075",
)

BUILTIN_SCENARIOS = (
    "agility_weight_change",
    "fat_tree_random",
    "fig_maxmin",
    "granularity_sweep",
    "lemma2_boundary",
    "m_sweep",
    "single_link_4flows",
    "single_link_nflows",
    "step_in_out",
    "weighted_split",
)


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``run`` when ``param`` is None, else ``sweep``."""

    scenario: str                 # file stem under SCENARIOS
    sets: tuple[str, ...] = ()
    param: str | None = None
    values: tuple[str, ...] = ()

    @property
    def path(self) -> str:
        return f"{SCENARIOS}/{self.scenario}.yaml"

    def argv(self) -> list[str]:
        """CLI arguments without ``--out``, which the pass adds per run."""
        if self.param is None:
            out = ["run", self.path]
        else:
            out = ["sweep", self.path, "--param", self.param,
                   "--values", ",".join(self.values)]
        for spec in self.sets:
            out += ["--set", spec]
        return out


# step_in_out with signal_delay_mode=propagation_plus_queue, cut to 0.6 ms so
# that f1 still joins at 0.5 ms.  The only operation on the bisection signal
# path, where a history-buffer change made for the fixed-lag path would show;
# its own wall time is the per-layer metric ``signal.queue_lag_op_s``.  It is
# part of builtin_suite rather than a workload of its own, so that fewer
# workloads get longer, steadier runs.
QUEUE_LAG = Op("step_in_out", (
    "sim.signal_delay_mode=propagation_plus_queue",
    "sim.end_time=6e-4",
))


def _builtin_suite(seed: int) -> list[Op]:
    """All 10 shipped scenarios plus single_link_4flows under AIMD, with
    fig_maxmin shortened as in the acceptance suite, then the queue-lag
    operation (``QUEUE_LAG``).

    Tiny arrays (2-50 flows), so the fixed per-step cost of the fluid loop
    dominates.  Oracle, routing and CSV work are negligible, which makes
    this the should-not-move side for those layers.  Also covers
    per_packet updates, the AIMD path and the bisection signal path.
    """
    ops = [
        Op(name, FIG_MAXMIN_OVERRIDES if name == "fig_maxmin" else ())
        for name in BUILTIN_SCENARIOS
    ]
    ops.append(Op("single_link_4flows", ("default_controller=aimd",)))
    ops.append(QUEUE_LAG)
    return ops


def _fattree_k8(seed: int) -> list[Op]:
    """K=8 fat-tree, 2000 flows for 0.2 ms; the seed draws their endpoints
    and weights.

    The only load where per-hop vector work shows (768 links, about 10k
    route hops); routing, oracle, metrics and to_csv each take a visible
    share.
    """
    return [Op("fat_tree_random", (
        "topology.K=8",
        "flow_groups.0.count=2000",
        "sim.end_time=2e-4",
        f"sim.seed={seed}",
    ))]


def _sweep_ladders(seed: int) -> list[Op]:
    """m_sweep over five m values, then single_link_nflows over 10, 100 and
    1000 flows.

    The first exercises the sweep layer: per-instance setup and the process
    pool, capped at min(nproc, 2).  The second is output-heavy: to_csv is
    about half its wall time while the simulation uses 2 links.  The known
    sweep ``converged`` defect shows as it is in ``unconverged_frac``.
    """
    return [
        Op("m_sweep", param="m", values=("0.25", "1.0", "1.9", "2.0", "2.5")),
        Op("single_link_nflows", param="flow_count",
           values=("10", "100", "1000")),
    ]


WORKLOADS = {
    "builtin_suite": _builtin_suite,
    "fattree_k8": _fattree_k8,
    "sweep_ladders": _sweep_ladders,
}

# per-layer metric -> (end-to-end metric it should move, workloads where it
# should, workloads where the prediction is no change)
LAYER_MAP = {
    "fluid.run_s": ("wall_s", ("builtin_suite",), ()),
    "fluid.steps": ("wall_s", ("builtin_suite",), ()),
    "fluid.flow_steps": ("wall_s", ("builtin_suite",), ()),
    "fluid.us_per_step": ("wall_s", ("builtin_suite",), ()),
    "fluid.hop_steps": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "fluid.ns_per_hop_step": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "fluid.run_peak_mib": ("peak_rss_mib", ("fattree_k8", "builtin_suite"), ()),
    "control.update_s": ("wall_s", ("builtin_suite",), ()),
    "control.update_calls": ("wall_s", ("builtin_suite",), ()),
    "control.updated_flows": ("wall_s", ("builtin_suite",), ()),
    "control.update_yield": ("wall_s", ("builtin_suite",), ()),
    "scenario.load_s": ("setup_s", ("fattree_k8",), ("builtin_suite",)),
    "scenario.flows": ("setup_s", ("fattree_k8",), ("builtin_suite",)),
    "model.route_s": ("setup_s", ("fattree_k8",), ("builtin_suite",)),
    "model.route_calls": ("setup_s", ("fattree_k8",), ("builtin_suite",)),
    "model.route_hops": ("setup_s", ("fattree_k8",), ("builtin_suite",)),
    "fluid.setup_s": ("setup_s", ("fattree_k8",), ("builtin_suite",)),
    "oracle.water_fill_s": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "oracle.calls": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "oracle.flows": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "metrics.convergence_s": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "metrics.calls": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    "cli.summarize_self_s": ("wall_s", ("fattree_k8",), ("builtin_suite",)),
    # summary JSON: serialized in execute_scenario, written by _atomic_write
    "cli.execute_self_s": ("wall_s, output_mib", ("fattree_k8", "sweep_ladders"),
                           ("builtin_suite",)),
    "cli.write_json_s": ("wall_s, output_mib", ("fattree_k8", "sweep_ladders"),
                         ("builtin_suite",)),
    "fluid.to_csv_s": ("wall_s, output_mib", ("sweep_ladders", "fattree_k8"),
                       ("builtin_suite",)),
    "fluid.csv_cells": ("wall_s, output_mib", ("sweep_ladders", "fattree_k8"),
                        ("builtin_suite",)),
    "fluid.csv_mib": ("wall_s, output_mib", ("sweep_ladders", "fattree_k8"),
                      ("builtin_suite",)),
    "fluid.ns_per_csv_cell": ("wall_s, output_mib",
                              ("sweep_ladders", "fattree_k8"), ("builtin_suite",)),
    # over every operation; a run is a sweep of one instance on one worker
    "cli.sweep_instances": ("wall_s", ("sweep_ladders",), ()),
    "cli.sweep_busy_s": ("wall_s", ("sweep_ladders",), ()),
    "cli.sweep_parallel_eff": ("wall_s", ("sweep_ladders",), ()),
    # untraced wall time of the QUEUE_LAG operation alone
    "signal.queue_lag_op_s": ("wall_s", ("builtin_suite",), ()),
}


# Self-tests shrink every operation to 20 us of simulated time.
TINY_END_TIME = "sim.end_time=2e-5"


def ops_for(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    ops = WORKLOADS[workload](seed)
    if tiny:
        ops = [replace(op, sets=op.sets + (TINY_END_TIME,)) for op in ops]
    return ops


def args_sha256(workload: str, seed: int) -> str:
    """sha256 of the workload's resolved CLI arguments, in order."""
    argvs = [op.argv() for op in ops_for(workload, seed)]
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()
