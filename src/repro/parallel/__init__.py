"""Parallel execution: process pool, deterministic reduction, restarts.

Three layers, bottom up (DESIGN.md §8):

* :mod:`repro.parallel.pool` — a zero-dependency work-queue scheduler
  over ``multiprocessing`` with per-task timeouts, crash containment
  and worker respawn;
* :mod:`repro.parallel.reduce` — the determinism contract: portfolios
  reduce by the paper's lexicographic tuple with a stable
  submission-index tiebreak, so the winner is invariant to worker
  count and completion order;
* :mod:`repro.parallel.restarts` — the multi-seed FPART portfolio
  driver behind ``fpart partition --restarts R --jobs N``.

The same reduction also powers the constructive builder portfolio in
:mod:`repro.initial.initial` and the sharded experiment sweeps in
:mod:`repro.analysis.experiments`.
"""

from .backoff import DEFAULT_RESPAWN_BACKOFF, BackoffPolicy
from .pool import TASK_STATUSES, ParallelTask, TaskOutcome, WorkerPool
from .reduce import (
    Candidate,
    rank_candidates,
    reduce_candidates,
    result_quality_key,
)
from .restarts import (
    PORTFOLIO_STATUSES,
    PortfolioResult,
    RestartReport,
    reduce_portfolio,
    restart_seed,
    run_restarts,
)

__all__ = [
    "BackoffPolicy",
    "DEFAULT_RESPAWN_BACKOFF",
    "TASK_STATUSES",
    "ParallelTask",
    "TaskOutcome",
    "WorkerPool",
    "Candidate",
    "rank_candidates",
    "reduce_candidates",
    "result_quality_key",
    "PORTFOLIO_STATUSES",
    "PortfolioResult",
    "RestartReport",
    "reduce_portfolio",
    "restart_seed",
    "run_restarts",
]
