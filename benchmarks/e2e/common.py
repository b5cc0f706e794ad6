"""Helpers shared by the benchmark driver and its batch child process.

Nothing here imports ``repro`` at module level: the driver must be able
to report a missing source tree before touching the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default ``linear``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def workload_rng(workload: str, seed: int) -> random.Random:
    """Seeded draw of a workload's inputs (string seeds hash stably)."""
    return random.Random(f"fpart-e2e:{workload}:{seed}")


def certify(hg, device, assignment: List[int], num_devices: int,
            status: str, validate) -> List[str]:
    """Problems with one returned partition; empty when it is correct.

    ``validate`` is ``repro.partition.validate.validate_assignment``
    passed in by the caller, so a traced caller can route it through
    its wrapper.  The check is independent of the partitioner: block
    sizes and pins are recomputed from the raw hypergraph.
    """
    problems = []
    if status != "feasible":
        problems.append(f"status {status}")
    stray = [b for b in assignment if not 0 <= b < num_devices]
    if stray:
        # validate_assignment indexes by block id and would raise.
        return problems + [f"block ids {sorted(set(stray))[:3]} outside "
                           f"0..{num_devices - 1}"]
    try:
        report = validate(hg, assignment, device, num_blocks=num_devices)
    except ValueError as error:
        return problems + [f"malformed assignment: {error}"]
    if not report.feasible:
        problems.append("infeasible: " + "; ".join(report.violations[:3]))
    return problems


def digest(assignment: List[int]) -> str:
    """Short fingerprint of an assignment, compared across runs."""
    return hashlib.sha256(json.dumps(assignment).encode()).hexdigest()[:16]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def read_jsonl(path) -> List[Dict]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def load_benchmark() -> Dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        return json.load(stream)
