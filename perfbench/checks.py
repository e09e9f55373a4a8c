"""Output checks for one benchmark operation.

An operation fails when its exit code is wrong, a summary or sweep JSON does
not parse, or a trace breaks an engine invariant: every value finite, every
queue delay >= 0, every active flow's rate within [rate_floor, cap].
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FlowBounds:
    """What the trace check needs to know about one simulation."""

    dt: float
    rate_floor: float
    caps: tuple[float, ...]
    start_steps: tuple[int, ...]
    stop_steps: tuple[int | None, ...]   # None: never stops

    @classmethod
    def of(cls, engine) -> "FlowBounds":
        dt = engine.config.dt
        return cls(
            dt=dt,
            rate_floor=engine.params.rate_floor,
            caps=tuple(float(c) for c in engine.caps),
            start_steps=tuple(max(0, int(round(f.start_time / dt)))
                              for f in engine.flows),
            stop_steps=tuple(None if f.stop_time is None
                             else max(0, int(round(f.stop_time / dt)))
                             for f in engine.flows),
        )

    def active(self, times: np.ndarray) -> np.ndarray:
        """(samples, flows) mask of flows active at each sample time.

        The sample at step n is taken after the events of step n-1 (and at
        n = 0 after those of step 0), as the engine does.
        """
        applied = np.maximum(np.rint(times / self.dt).astype(np.int64) - 1, 0)
        start = np.array(self.start_steps)
        stop = np.array([s if s is not None else np.iinfo(np.int64).max
                         for s in self.stop_steps])
        return (start <= applied[:, None]) & (applied[:, None] < stop)


@dataclass
class OpCheck:
    failures: list[str] = field(default_factory=list)
    judged_epochs: int = 0
    converged_epochs: int = 0
    output_bytes: int = 0
    trace_sha256: dict[str, str] = field(default_factory=dict)
    instances: int = 0              # summaries written; a run writes one
    busy_s: float = 0.0             # sum of the summaries' wall_time_s


def check_trace(path: str, bounds: FlowBounds) -> list[str]:
    """Invariant violations in one trace CSV (empty list when it passes)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    name = os.path.basename(path)
    if data.shape[1] != len(header):
        return [f"{name}: {data.shape[1]} columns, header has {len(header)}"]
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append(f"{name}: non-finite trace value")
    rate_cols = [i for i, h in enumerate(header) if h.endswith("_rate_bps")]
    queue_cols = [i for i, h in enumerate(header) if h.endswith("_qdelay_s")]
    if len(rate_cols) != len(bounds.caps):
        return problems + [f"{name}: {len(rate_cols)} flows, expected "
                           f"{len(bounds.caps)}"]
    if np.any(data[:, queue_cols] < 0):
        problems.append(f"{name}: negative queue delay")
    rates = data[:, rate_cols]
    active = bounds.active(data[:, 0])
    caps = np.array(bounds.caps)
    outside = active & ((rates < bounds.rate_floor) | (rates > caps))
    if np.any(outside):
        row, col = np.argwhere(outside)[0]
        problems.append(
            f"{name}: active flow {header[rate_cols[col]]} rate "
            f"{rates[row, col]!r} outside [{bounds.rate_floor}, {caps[col]}] "
            f"at t={data[row, 0]!r}"
        )
    return problems


def _load_json(path: str, result: OpCheck):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        result.failures.append(f"{os.path.basename(path)}: {exc}")
        return None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_op(rc, out_dir: str, bounds: list[FlowBounds], *,
             sweep: bool, ok_codes: tuple[int, ...] = (0,),
             checked: set[str] = frozenset()) -> OpCheck:
    """Check one operation's exit code and every file it wrote.

    ``bounds`` holds one entry per simulation, in sweep-value order for a
    sweep.  A trace whose sha256 is in ``checked`` has the same bytes as one
    that already passed ``check_trace``, so its values are not read again.
    Returns the failures found plus the convergence tally, the bytes written
    and each trace's sha256.
    """
    result = OpCheck()
    if rc not in ok_codes:
        result.failures.append(f"exit code {rc!r}")
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    result.output_bytes = sum(os.path.getsize(os.path.join(out_dir, n))
                              for n in names)

    if sweep:
        sweeps = [n for n in names if ".sweep_" in n and n.endswith(".json")]
        if len(sweeps) != 1:
            result.failures.append(f"expected one sweep JSON, found {sweeps}")
            return result
        rows = _load_json(os.path.join(out_dir, sweeps[0]), result)
        if rows is None:
            return result
        if len(rows) != len(bounds):
            result.failures.append(f"{len(rows)} sweep rows, expected {len(bounds)}")
            return result
        stems = [os.path.basename(r["summary_path"])[:-len(".summary.json")]
                 for r in rows]
    else:
        stems = [n[:-len(".summary.json")] for n in names
                 if n.endswith(".summary.json")]
        if len(stems) != 1:
            result.failures.append(f"expected one summary, found {stems}")
            return result

    for stem, b in zip(stems, bounds):
        summary = _load_json(os.path.join(out_dir, stem + ".summary.json"),
                             result)
        if summary is not None:
            result.instances += 1
            busy = summary.get("wall_time_s")
            if isinstance(busy, (int, float)):
                result.busy_s += busy
            else:
                result.failures.append(f"{stem}.summary.json: no wall_time_s")
            for ep in summary.get("epochs", []):
                conv = ep.get("convergence")
                if conv is not None:
                    result.judged_epochs += 1
                    result.converged_epochs += conv.get("converged") is True
        trace_path = os.path.join(out_dir, stem + ".trace.csv")
        if not os.path.exists(trace_path):
            result.failures.append(f"missing {stem}.trace.csv")
            continue
        digest = _sha256(trace_path)
        result.trace_sha256[stem] = digest
        if digest in checked:
            continue
        try:
            result.failures += check_trace(trace_path, b)
        except (OSError, ValueError, StopIteration) as exc:
            result.failures.append(f"{stem}.trace.csv: unreadable ({exc})")
    return result
