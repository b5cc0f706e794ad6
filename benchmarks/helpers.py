"""Shared utilities for the benchmark harness.

Every bench regenerates one table or figure of the paper; the rendered
text goes to ``benchmarks/results/<name>.txt`` *and* to stdout (visible
with ``pytest -s``), so a full ``pytest benchmarks/ --benchmark-only``
leaves a results directory mirroring the paper's evaluation section.

Environment knob (see DESIGN.md section 4):

* ``REPRO_FULL=1`` — include the four largest circuits
  (s13207…s38584) in the FPART runs and run the reimplemented
  baselines (k-way.x*, FBB-MW*) on them too.  The default is the six
  smaller circuits, so a laptop run finishes in minutes; the large
  circuits are slow in pure Python (the flow-based baseline needs
  minutes each).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Tuple

from repro.circuits import (
    COMBINATIONAL_CIRCUITS,
    LARGE_CIRCUITS,
    MCNC_NAMES,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Circuits too slow for the measured baselines by default.
SLOWEST = ("s38417", "s38584")


def save(name: str, text: str) -> None:
    """Write a rendered table/figure and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")


def fpart_circuits(device: str) -> Tuple[str, ...]:
    """Circuit set for FPART measurements on one device.

    Small-by-default; ``REPRO_FULL=1`` adds the large circuits.
    """
    base = (
        COMBINATIONAL_CIRCUITS if device.upper() == "XC2064" else MCNC_NAMES
    )
    if os.environ.get("REPRO_FULL"):
        return base
    return tuple(c for c in base if c not in LARGE_CIRCUITS)


def baseline_circuits(device: str) -> Tuple[str, ...]:
    """Circuit set for the reimplemented baselines on one device."""
    base = fpart_circuits(device)
    if os.environ.get("REPRO_FULL"):
        return base
    return tuple(c for c in base if c not in SLOWEST)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

