"""The perf harness's overhead procedure and verdict rule.

The harness is a standalone script, not a package module, so it is
loaded by path; its ``bench_*`` functions are reached only through the
module object, where pytest does not collect them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

HARNESS = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "bench_perf_regression.py"
)


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("perf_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(*overheads_pct):
    """``(off, on)`` timings whose paired overheads are the given %."""
    return [(1.0, 1.0 + pct / 100.0) for pct in overheads_pct]


@pytest.mark.parametrize(
    "overheads, verdict",
    [
        # Tight spread, median under the ceiling.
        ((0.5, 1.0, 1.2, 1.5, 0.8), "pass"),
        # Tight spread, median over the ceiling.
        ((2.5, 3.0, 3.2, 2.8, 3.5), "fail"),
        # Spread wider than the ceiling, median under it: noise.
        ((-4.0, -2.0, 0.5, 3.0, 5.0), "unresolved"),
        # Spread wider than the ceiling, median over it, q1 under it:
        # still noise.
        ((-1.0, 0.0, 3.0, 6.0, 8.0), "unresolved"),
        # Spread wider than the ceiling, but every pair is over it.
        ((2.5, 3.0, 6.0, 9.0, 12.0), "fail"),
        # Spread wider than the ceiling and one pair under it, but q1
        # is over it: most pairs are over budget.
        ((1.0, 2.5, 6.0, 9.0, 12.0), "fail"),
    ],
)
def test_verdict_rule(harness, overheads, verdict):
    row = harness.overhead_verdict(_pairs(*overheads), ceiling_pct=2.0)
    assert row["verdict"] == verdict
    assert row["pairs"] == len(overheads)
    assert row["q1_pct"] <= row["median_pct"] <= row["q3_pct"]


def test_verdict_reports_median_and_quartiles(harness):
    row = harness.overhead_verdict(_pairs(1.0, 2.0, 3.0, 4.0, 5.0), 10.0)
    assert (row["q1_pct"], row["median_pct"], row["q3_pct"]) == (2.0, 3.0, 4.0)
    assert (row["wall_s_off"], row["wall_s_on"], row["ceiling_pct"]) == (
        1.0, 1.03, 10.0
    )


def test_paired_overhead_alternates_order(harness):
    calls = []

    def arm(name):
        def timed():
            calls.append(name)
            return 2.0 if name == "on" else 1.0
        return timed

    timings = harness.paired_overhead(arm("off"), arm("on"), pairs=3)
    assert timings == [(1.0, 2.0)] * 3
    assert calls == ["off", "on", "on", "off", "off", "on"]
