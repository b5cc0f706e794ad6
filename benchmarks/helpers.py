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
import random
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

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


# ----------------------------------------------------------------------
# Perf-regression bench plumbing (shared by bench_perf_regression.py)
# ----------------------------------------------------------------------

def replay_fixture(
    circuit: str,
    device_name: str,
    moves: int,
    seed: int = 1999,
):
    """A real mid-run partition state plus a recorded random move trace.

    Runs FPART once on ``circuit``/``device_name`` and rebuilds its final
    assignment as a fresh state, so every bench case times the same
    workload shape (``k`` matches a real run).
    Returns ``(hg, device, state, k, trace)`` with ``trace`` a list of
    ``(cell, to_block)`` pairs drawn from a fixed-seed RNG.
    """
    from repro.circuits import mcnc_circuit
    from repro.core import FpartConfig, device_by_name, fpart
    from repro.partition import PartitionState

    hg = mcnc_circuit(circuit)
    device = device_by_name(device_name)
    result = fpart(hg, device, config=FpartConfig())
    k = result.num_devices
    state = PartitionState(hg, result.assignment, k)
    rng = random.Random(seed)
    trace = [
        (rng.randrange(hg.num_cells), rng.randrange(k)) for _ in range(moves)
    ]
    return hg, device, state, k, trace


def attach_untracked(evaluator, state) -> None:
    """Attach an incremental evaluator but drive it by hand.

    The listener registration is removed again so ``state.move()`` does
    not notify the evaluator: the bench calls ``on_move`` itself inside
    its timed window (production rides the listener; the work is the
    same, this just makes it timeable).
    """
    evaluator.attach(state)
    state.remove_listener(evaluator)


def interleaved_min(
    arm_a: Callable[[], float],
    arm_b: Callable[[], float],
    reset: Callable[[], None] = lambda: None,
    repeats: int = 3,
) -> Tuple[float, float]:
    """Min-of-``repeats`` of two timed arms, run A, B, A, B, ...

    Each arm returns the seconds of one measurement; ``reset()``
    restores the fixture after every arm call.  The arms are
    interleaved repeat-by-repeat rather than measured as two blocks:
    the harness runs whole-circuit benches for tens of seconds before
    the overhead cases, and on throttling hosts the clock drifts
    monotonically — a blocked A/A/A/B/B/B order then biases whichever
    arm runs second.  Pairing cancels the drift; the minimum is the
    standard noise-rejecting aggregate for replay-style benchmarks.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        best_a = min(best_a, arm_a())
        reset()
        best_b = min(best_b, arm_b())
        reset()
    return best_a, best_b
