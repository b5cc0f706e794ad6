"""Fault injection at the evaluator seam.

The partitioner accepts an evaluator override
(``FpartPartitioner(..., evaluator=...)``), which is the single seam
every solve-path component funnels through: ``create_bipartition`` and
the driver call ``evaluate()``, the Sanchis engine calls ``key_of()``
per candidate move and ``cost_of()`` per pass.  Wrapping it therefore
lets tests detonate an exception (or inject latency) at an *arbitrary
depth* of the real call graph — mid-pass inside the engine, during
bipartitioning — and then assert that:

* the run degrades to a valid best-so-far :class:`FpartResult` instead
  of crashing (non-strict mode), and re-raises faithfully under
  ``strict=True``;
* every rollback layer left the :class:`~repro.partition.PartitionState`
  consistent (``check_consistency()``);
* injected latency trips the wall-clock deadline budget.

The wrapper deliberately duck-types rather than subclassing
``CostEvaluator``: the engine's ``isinstance(..,
IncrementalCostEvaluator)`` fast path then falls back to the O(k)
sweep, so faults hit the oracle path whose results all other paths must
match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["InjectedFault", "FaultPlan", "FaultyEvaluator"]


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultyEvaluator` — never by production code,
    so tests can assert the trapped error is exactly the injected one."""


@dataclass
class FaultPlan:
    """When and how the wrapper misbehaves.

    fail_on_call:
        1-based index (over counted methods) of the call that raises
        :class:`InjectedFault`.  ``None`` never raises.
    methods:
        Which evaluator methods count toward the call index.
    delay:
        Seconds slept before every counted call — models a slow
        evaluator and drives deadline-budget tests without wall-clock
        flakiness from real workloads.
    once:
        When True (default) only the exact ``fail_on_call``-th call
        raises; later calls succeed, which exercises the degradation
        path's final best-solution re-evaluation.  When False every call
        from ``fail_on_call`` on raises, exercising the "evaluator is
        the faulty component" branch of the degradation handler.
    """

    fail_on_call: Optional[int] = None
    methods: Tuple[str, ...] = ("evaluate", "cost_of", "key_of")
    delay: float = 0.0
    once: bool = True


@dataclass
class FaultStats:
    """Observed wrapper activity, for test assertions."""

    calls: int = 0
    fired: int = 0
    per_method: dict = field(default_factory=dict)


class FaultyEvaluator:
    """Delegating evaluator wrapper that injects faults per plan."""

    def __init__(self, inner, plan: Optional[FaultPlan] = None) -> None:
        self.inner = inner
        self.plan = plan or FaultPlan()
        self.stats = FaultStats()

    def _tick(self, method: str) -> None:
        plan = self.plan
        if method not in plan.methods:
            return
        stats = self.stats
        stats.calls += 1
        stats.per_method[method] = stats.per_method.get(method, 0) + 1
        if plan.delay:
            time.sleep(plan.delay)
        target = plan.fail_on_call
        if target is None:
            return
        hit = stats.calls == target if plan.once else stats.calls >= target
        if hit:
            stats.fired += 1
            raise InjectedFault(
                f"injected fault in {method}() at call #{stats.calls}"
            )

    # -- counted evaluator surface -------------------------------------

    def evaluate(self, state, remainder):
        self._tick("evaluate")
        return self.inner.evaluate(state, remainder)

    def cost_of(self, state, remainder):
        self._tick("cost_of")
        return self.inner.cost_of(state, remainder)

    def key_of(self, state, remainder):
        self._tick("key_of")
        return self.inner.key_of(state, remainder)

    # -- transparent passthrough ---------------------------------------

    def __getattr__(self, name):
        return getattr(self.inner, name)
