"""The ``Improve()`` call of Algorithm 1: one Sanchis engine run.

The paper's section 3.6 restarts the engine from stacked pass-best
solutions.  Here they are not built: ``SanchisEngine.run_pass`` is a
deterministic function of the assignment, so a restart from a pass end
of the first run only recomputes that run's later passes and returns its
best (see the section 3.6 deviation in ``docs/ALGORITHM.md``).
"""

from __future__ import annotations

from typing import Sequence

from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACE, TraceWriter
from ..partition import PartitionState
from ..sanchis import SanchisEngine
from .config import FpartConfig
from .cost import CostEvaluator, SolutionCost
from .device import Device
from .move_region import MoveRegion
from .runguard import NULL_GUARD, RunGuard

__all__ = ["improve"]


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

    The state ends at the best solution found.  The ``guard`` is
    consulted per applied move inside the engine.  When a budget trips
    (or a fault escapes the engine) the interrupted pass has already
    rewound to its best prefix, so the state holds the best solution
    seen in this call when the exception propagates.

    ``metrics`` / ``tracer`` (defaulting to the shared null objects) are
    passed through to the engine.
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
    metrics.counter("improve.calls").inc()
    engine = SanchisEngine(
        state, blocks, remainder, evaluator, region, config, guard,
        metrics, tracer,
    )
    return engine.run().best_cost
