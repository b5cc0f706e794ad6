"""The ``Improve()`` call of Algorithm 1.

Wraps a :class:`~repro.sanchis.SanchisEngine` run with the solution-stack
protocol of section 3.6:

1. a first run collects the best pass solutions into two stacks
   (semi-feasible / infeasible);
2. a series of further runs restarts from every stacked solution —
   semi-feasible first, then infeasible (exploring around a good
   infeasible solution is the paper's escape hatch from local minima);
3. the best solution over all runs is restored into the state.

Feasibility classification is done against the evaluator's device; with
stack depth ``D`` at most ``2 D + 1`` starting solutions are explored.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACE, TraceWriter, cost_fields
from ..partition import PartitionState
from ..sanchis import SanchisEngine
from .config import FpartConfig
from .cost import CostEvaluator, SolutionCost
from .device import Device
from .feasibility import Feasibility
from .move_region import MoveRegion
from .runguard import NULL_GUARD, RunGuard
from .solution_stack import DualSolutionStacks

__all__ = ["improve"]


def _classify_cost(cost: SolutionCost, num_blocks: int) -> Feasibility:
    bad = num_blocks - cost.feasible_blocks
    if bad == 0:
        return Feasibility.FEASIBLE
    if bad == 1:
        return Feasibility.SEMI_FEASIBLE
    return Feasibility.INFEASIBLE


def improve(
    state: PartitionState,
    blocks: Sequence[int],
    remainder: int,
    evaluator: CostEvaluator,
    device: Device,
    config: FpartConfig,
    lower_bound: int,
    guard: RunGuard = NULL_GUARD,
    metrics: MetricsRegistry = NULL_METRICS,
    tracer: TraceWriter = NULL_TRACE,
) -> SolutionCost:
    """Improve the partition among ``blocks``; returns the final cost.

    The state ends at the best solution found.  ``config.stack_depth``
    of 0 disables the restart protocol (a single engine run).

    The ``guard`` is consulted per applied move inside the engine and
    between stacked restarts.  When a budget trips (or a fault escapes
    an engine run) the state is restored to the best solution seen *so
    far in this call* before the exception propagates, so callers always
    observe a consistent, best-known state.

    ``metrics`` / ``tracer`` (defaulting to the shared null objects)
    record stack traffic here and are passed through to the engine;
    retained snapshots additionally emit ``solution_push`` trace events.
    """
    two_block = len(set(blocks)) == 2
    region = MoveRegion(
        device,
        config,
        remainder,
        two_block,
        state.num_blocks,
        lower_bound,
    )

    def make_engine() -> SanchisEngine:
        return SanchisEngine(
            state, blocks, remainder, evaluator, region, config, guard,
            metrics, tracer,
        )

    stacks = DualSolutionStacks(config.stack_depth)
    metrics.counter("improve.calls").inc()

    def collect(cost: SolutionCost) -> None:
        feasibility = _classify_cost(cost, state.num_blocks)
        retained = stacks.offer(feasibility, cost, state.assignment())
        metrics.counter("stack.offers").inc()
        if retained:
            metrics.counter("stack.pushes").inc()
            if tracer.enabled:
                tracer.emit(
                    "solution_push",
                    stack=feasibility.name.lower(),
                    cost=cost_fields(cost),
                )

    best_cost: SolutionCost = None  # type: ignore[assignment]
    best_assignment = state.assignment()
    try:
        first = make_engine().run(observer=collect)
        best_cost = first.best_cost
        best_assignment = state.assignment()

        for start_cost, start_assignment in stacks.starting_solutions():
            if start_assignment == best_assignment:
                continue
            guard.check()
            metrics.counter("stack.pops").inc()
            state.restore(start_assignment)
            result = make_engine().run()
            if result.best_cost < best_cost:
                best_cost = result.best_cost
                best_assignment = state.assignment()
    finally:
        # On the normal path the state already sits at best_assignment
        # and this replays nothing; on an exception path it rewinds any
        # partially-explored restart to the best solution seen.
        state.restore(best_assignment)
    return best_cost
