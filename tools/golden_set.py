"""Run the golden set and write one sha256 per output to OUT_DIR/SHA256SUMS,
or check the sums against a reference file.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tools/golden_set.py OUT_DIR
    PYTHONPATH=src python3 tools/golden_set.py --check tools/GOLDEN.sha256

Every command goes through ``soze_sim.cli.main``:

- the 19 golden runs: the 10 built-in scenarios (``fig_maxmin`` under the
  acceptance suite's overrides), ``single_link_4flows`` under AIMD,
  ``weighted_split`` with ``per_packet`` updates, ``step_in_out`` with the
  queue lag cut to 0.6 ms, ``fat_tree_random`` at K=8 with 2000 flows and
  seed 5, ``single_link_nflows`` with 1000 flows, ``step_in_out`` with
  ``per_packet`` updates and ``f2`` under AIMD (a Söze flow, ``f1``, stops
  mid-run), ``weighted_split`` with a gap between ``w3``'s stop and
  ``w1``'s start (an epoch with no active flows), ``weighted_split``
  with ``w1``'s start and ``w3``'s stop after the run's end (events that
  never apply), and ``fat_tree_random`` with every flow sent to ``h0``
  (random sources drawn against a fixed destination);
- ``soze-sim oracle`` on the 10 built-in scenarios;
- the 5-value ``m_sweep`` sweep over ``m``, and ``single_link_nflows``
  swept over ``flow_count`` at 10 and 100 flows.

SHA256SUMS gets one line per trace CSV (its bytes), per summary JSON
(re-dumped without ``wall_time_s``), per sweep row file (each row without
``wall_time_s`` and ``summary_path``) and per command's exit code and
stdout, with OUT_DIR written as ``OUT``.  Its first line is a ``#`` header
naming the Python, numpy and orjson versions the sums were made with.

``--check FILE`` runs the set in a temporary directory, prints every sum
line that differs from FILE's (``-`` for FILE's, ``+`` for this run's) and
exits 1 if any does, 0 if none does; ``#`` lines are not compared.  The
checked-in ``tools/GOLDEN.sha256`` holds the sums of the current outputs.
Some of them may depend on the host (numpy's SIMD paths), so this is a tool
check, not a test.  A change that alters output bytes on purpose
regenerates that file, and the diff shows which outputs moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np
import orjson

from soze_sim import cli

SCENARIOS = os.path.join(os.path.dirname(cli.__file__), "scenarios")
BUILTINS = sorted(n[:-5] for n in os.listdir(SCENARIOS) if n.endswith(".yaml"))
# tests/test_acceptance.py's FIG_MAXMIN_OVERRIDES
FIG_MAXMIN = (
    "flows.0.weight_schedule="
    "[[0.0,1.0],[0.0015,2.0],[0.003,3.0],[0.0045,4.0],[0.006,5.0]]",
    "sim.end_time=0.0075",
)
RUNS = [(n, n, FIG_MAXMIN if n == "fig_maxmin" else ()) for n in BUILTINS] + [
    ("single_link_4flows.aimd", "single_link_4flows",
     ("default_controller=aimd",)),
    ("weighted_split.per_packet", "weighted_split", ("sim.update_mode=per_packet",)),
    ("step_in_out.queue_lag", "step_in_out",
     ("sim.signal_delay_mode=propagation_plus_queue", "sim.end_time=6e-4")),
    ("fat_tree_random.k8", "fat_tree_random",
     ("topology.K=8", "flow_groups.0.count=2000", "sim.seed=5")),
    ("single_link_nflows.1000", "single_link_nflows", ("flow_groups.0.count=1000",)),
    ("step_in_out.per_packet_aimd", "step_in_out",
     ("sim.update_mode=per_packet", "flows.2.controller=aimd")),
    ("weighted_split.gap", "weighted_split",
     ("flows.0.stop=2e-4", "flows.1.start=3e-4", "sim.end_time=6e-4")),
    ("weighted_split.late", "weighted_split",
     ("flows.0.stop=3e-3", "flows.1.start=2e-3")),
    ("fat_tree_random.incast", "fat_tree_random", ("flow_groups.0.dst=h0",)),
]
SWEEPS = [("m_sweep", "m", "0.25,1.0,1.9,2.0,2.5"),
          ("single_link_nflows", "flow_count", "10,100")]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def without(record: dict, *keys: str) -> dict:
    return {k: v for k, v in record.items() if k not in keys}


def canonical(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def call(argv: list[str], out: str) -> bytes:
    """``cli.main(argv)``'s exit code and stdout, with ``out`` as ``OUT``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}".replace(out, "OUT").encode()


def output_sums(out: str, label: str) -> list[tuple[str, str]]:
    """The sums of the trace CSVs, summaries and sweep rows under
    ``out/label``, in name order."""
    sums = []
    for name in sorted(os.listdir(os.path.join(out, label))):
        path = os.path.join(out, label, name)
        with open(path, "rb") as fh:
            data = fh.read()
        if name.endswith(".summary.json"):
            data = canonical(without(json.loads(data), "wall_time_s"))
        elif ".sweep_" in name:
            data = canonical([without(row, "wall_time_s", "summary_path")
                              for row in json.loads(data)])
        sums.append((sha256(data), f"{label}/{name}"))
    return sums


def golden_sums(out: str) -> list[str]:
    """Run the golden set under ``out``; one ``digest  name`` line per output."""
    sums = []
    for label, scenario, sets in RUNS:
        cmd = ["run", os.path.join(SCENARIOS, f"{scenario}.yaml"),
               "--out", os.path.join(out, label)]
        for spec in sets:
            cmd += ["--set", spec]
        sums.append((sha256(call(cmd, out)), f"{label}/stdout"))
        sums += output_sums(out, label)
    for name in BUILTINS:
        cmd = ["oracle", os.path.join(SCENARIOS, f"{name}.yaml")]
        sums.append((sha256(call(cmd, out)), f"oracle/{name}/stdout"))
    for scenario, param, values in SWEEPS:
        label = f"{scenario}.sweep_{param}"
        cmd = ["sweep", os.path.join(SCENARIOS, f"{scenario}.yaml"),
               "--param", param, "--values", values,
               "--out", os.path.join(out, label)]
        sums.append((sha256(call(cmd, out)), f"{label}/stdout"))
        sums += output_sums(out, label)
    return [f"{digest}  {name}\n" for digest, name in sums]


def check(path: str) -> int:
    """Print the sum lines that differ from ``path``'s; 1 if any does."""
    with open(path) as fh:
        want = [line for line in fh if not line.startswith("#")]
    with tempfile.TemporaryDirectory() as out:
        got = golden_sums(out)
    diff = [f"-{line}" for line in want if line not in got]
    diff += [f"+{line}" for line in got if line not in want]
    sys.stdout.writelines(diff)
    print(f"{len(got)} sums, {len(diff)} lines differ from {path}")
    return 1 if diff else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--check":
        return check(argv[1])
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: PYTHONPATH=src python3 tools/golden_set.py OUT_DIR\n"
              "       PYTHONPATH=src python3 tools/golden_set.py --check FILE",
              file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    sums = golden_sums(out)
    with open(os.path.join(out, "SHA256SUMS"), "w") as fh:
        fh.write(f"# python {platform.python_version()}, numpy {np.__version__}, "
                 f"orjson {orjson.__version__}\n")
        fh.writelines(sums)
    print(f"{len(sums)} sums in {time.perf_counter() - t0:.1f} s: "
          f"{os.path.join(out, 'SHA256SUMS')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
