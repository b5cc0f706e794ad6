"""Multi-seed FPART restarts: the portfolio layer over the pool.

FPART is deterministic for a fixed seed, so quality beyond one run
comes from running *several* seeds and keeping the lexicographic best —
the classic portfolio argument (and the paper's own best-of discipline
applied one level up).  :func:`run_restarts` launches ``restarts``
independent seeded runs (seed of restart ``i`` is ``config.seed + i``)
over a :class:`~repro.parallel.pool.WorkerPool` and reduces the
survivors with :func:`~repro.parallel.reduce.reduce_candidates`, so the
winner is bit-identical for any ``jobs``.

Degradation: a crashed/timed-out restart removes one candidate, never
the portfolio — the result's ``status`` says whether the reduction saw
the ``complete`` portfolio or only a ``partial`` one (``failed`` when
nothing survived).  Faults are injectable per restart through
``fault_plans`` (the :class:`~repro.testing.faults.FaultPlan` seam),
which is also how the scaling bench builds its latency-dominated
workload.

Budget composition: an umbrella :class:`~repro.core.runguard.RunGuard`
caps every worker — each restart's config deadline *and* the pool's
hard per-task timeout are clamped to
:meth:`RunGuard.remaining_seconds`, so the cooperative (in-worker) and
pre-emptive (pool) enforcement layers promise the same wall clock.

With a ``runs_dir`` every restart runs under a fresh metrics registry
and records **itself**, snapshot included, into the shared
:class:`~repro.obs.runstore.RunStore` from its worker process (run id
``<portfolio>r<i>``, labels carrying the portfolio id, restart index
and seed) — the concurrent-writer pattern the store's index lock is for.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.config import FpartConfig
from ..core.device import Device
from ..core.fpart import FpartPartitioner, FpartResult
from ..core.runguard import RunGuard
from ..hypergraph import Hypergraph
from ..logging import new_run_id
from ..obs.trace import cost_fields
from .pool import ParallelTask, TaskOutcome, WorkerPool
from .reduce import Candidate, reduce_candidates, result_quality_key

__all__ = [
    "PORTFOLIO_STATUSES",
    "RestartReport",
    "PortfolioResult",
    "restart_seed",
    "run_restarts",
]

#: Possible values of :attr:`PortfolioResult.status`.
PORTFOLIO_STATUSES = ("complete", "partial", "failed")


def restart_seed(base_seed: int, index: int) -> int:
    """Seed of restart ``index``: the documented ``seed + i`` ladder.

    Restart 0 under the default base seed 0 therefore *is* the
    canonical single-run trajectory — ``--restarts 1`` changes nothing.
    """
    return base_seed + index


@dataclass(frozen=True)
class RestartReport:
    """What one restart slot produced (survivor or casualty)."""

    index: int
    seed: int
    run_id: str
    task_status: str
    """Pool-level outcome: ``ok``/``error``/``crashed``/``timeout``/
    ``not_run`` (:data:`repro.parallel.pool.TASK_STATUSES`)."""
    result_status: Optional[str] = None
    """:attr:`FpartResult.status` when the task returned one."""
    num_devices: int = 0
    cost: Optional[Dict[str, float]] = None
    wall_seconds: float = 0.0
    error: Optional[str] = None


@dataclass
class PortfolioResult:
    """Reduced outcome of one restart portfolio."""

    winner: Optional[FpartResult]
    winner_index: Optional[int]
    reports: List[RestartReport]
    status: str
    """``complete`` (every restart returned a result), ``partial``
    (some casualties, but the survivors reduced), or ``failed``."""
    restarts: int
    jobs: int
    portfolio_id: str

    @property
    def survivors(self) -> int:
        return sum(1 for r in self.reports if r.task_status == "ok")


def _restart_worker(
    hg: Hypergraph,
    device: Device,
    config: FpartConfig,
    run_id: str,
    seed: int,
    runs_dir: Optional[str],
    portfolio_id: str,
    index: int,
    fault_plan: Optional[Any],
) -> Dict[str, Any]:
    """One restart, executed inside a pool worker (or inline).

    Module-level and argument-picklable by the pool contract.  The
    restart records itself into the shared run store *from here*, so
    parallel restarts genuinely contend on the index lock.
    """
    from ..obs.metrics import NULL_METRICS, MetricsRegistry

    config = dataclasses.replace(config, seed=seed)
    metrics = MetricsRegistry() if runs_dir is not None else NULL_METRICS
    evaluator = None
    if fault_plan is not None:
        from ..core.cost import make_evaluator
        from ..testing.faults import FaultyEvaluator

        evaluator = FaultyEvaluator(
            make_evaluator(
                device, config, device.lower_bound(hg), hg.num_terminals
            ),
            fault_plan,
        )
    result = FpartPartitioner(
        hg,
        device,
        config,
        keep_trace=False,
        evaluator=evaluator,
        run_id=run_id,
        metrics=metrics,
    ).run()
    if runs_dir is not None:
        from ..obs.runstore import RunRecord, RunStore

        RunStore(runs_dir).record_run(
            RunRecord.for_fpart(
                result,
                run_id,
                config,
                labels={
                    "portfolio": portfolio_id,
                    "restart": str(index),
                    "seed": str(seed),
                },
            ),
            metrics=metrics.snapshot(),
        )
    return {"result": result}


def _worker_deadline(
    config: FpartConfig, guard: Optional[RunGuard]
) -> Optional[float]:
    """Tightest of the per-run deadline and the umbrella's remainder."""
    caps = [config.deadline_seconds]
    if guard is not None:
        caps.append(guard.remaining_seconds())
    caps = [c for c in caps if c is not None]
    return min(caps) if caps else None


def run_restarts(
    hg: Hypergraph,
    device: Device,
    config: FpartConfig,
    restarts: int,
    jobs: int = 1,
    runs_dir: Optional[str] = None,
    timeout_seconds: Optional[float] = None,
    guard: Optional[RunGuard] = None,
    fault_plans: Optional[Dict[int, Any]] = None,
    portfolio_id: Optional[str] = None,
) -> PortfolioResult:
    """Run a seeded restart portfolio and reduce it deterministically.

    Parameters mirror the CLI: ``restarts`` independent runs over
    ``jobs`` workers.  ``timeout_seconds`` is the pool's hard per-task
    backstop; ``guard`` an umbrella :class:`RunGuard` whose remaining
    wall clock clamps both it and the workers' cooperative deadlines.
    ``fault_plans`` maps restart indexes to
    :class:`~repro.testing.faults.FaultPlan` objects (test/bench seam).
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    portfolio_id = portfolio_id or new_run_id()[:6]
    pool_timeout = timeout_seconds
    if guard is not None:
        remaining = guard.remaining_seconds()
        if remaining is not None:
            # An already-exhausted umbrella still launches the workers
            # (they degrade immediately under their zero deadline); the
            # pool just needs *some* positive backstop.
            remaining = max(remaining, 0.001)
            pool_timeout = (
                remaining
                if pool_timeout is None
                else min(pool_timeout, remaining)
            )
    worker_deadline = _worker_deadline(config, guard)
    worker_config = (
        config
        if worker_deadline == config.deadline_seconds
        else dataclasses.replace(config, deadline_seconds=worker_deadline)
    )

    seeds = [restart_seed(config.seed, i) for i in range(restarts)]
    run_ids = [f"{portfolio_id}r{i:02d}" for i in range(restarts)]
    tasks = [
        ParallelTask(
            index=i,
            fn=_restart_worker,
            kwargs={
                "hg": hg,
                "device": device,
                "config": worker_config,
                "run_id": run_ids[i],
                "seed": seeds[i],
                "runs_dir": runs_dir,
                "portfolio_id": portfolio_id,
                "index": i,
                "fault_plan": (fault_plans or {}).get(i),
            },
            label=f"restart {i} (seed {seeds[i]})",
        )
        for i in range(restarts)
    ]
    outcomes = WorkerPool(jobs, timeout_seconds=pool_timeout).run(tasks)
    return reduce_portfolio(
        outcomes, seeds, run_ids, jobs=jobs, portfolio_id=portfolio_id
    )


def reduce_portfolio(
    outcomes: List[TaskOutcome],
    seeds: List[int],
    run_ids: List[str],
    jobs: int,
    portfolio_id: str,
) -> PortfolioResult:
    """Fold pool outcomes into the deterministic portfolio verdict.

    Split out from :func:`run_restarts` so the invariance tests can
    feed it hand-shuffled outcome sets directly.
    """
    reports: List[RestartReport] = []
    candidates: List[Candidate] = []
    for outcome in sorted(outcomes, key=lambda o: o.index):
        i = outcome.index
        if outcome.ok:
            result: FpartResult = outcome.value["result"]
            cost = (
                cost_fields(result.cost) if result.cost is not None else None
            )
            reports.append(
                RestartReport(
                    index=i,
                    seed=seeds[i],
                    run_id=run_ids[i],
                    task_status="ok",
                    result_status=result.status,
                    num_devices=result.num_devices,
                    cost=cost,
                    wall_seconds=outcome.wall_seconds,
                    error=result.error,
                )
            )
            candidates.append(
                Candidate(
                    index=i,
                    key=result_quality_key(
                        result.status, result.num_devices, cost
                    ),
                    value=result,
                )
            )
        else:
            reports.append(
                RestartReport(
                    index=i,
                    seed=seeds[i],
                    run_id=run_ids[i],
                    task_status=outcome.status,
                    wall_seconds=outcome.wall_seconds,
                    error=outcome.error,
                )
            )
    if not candidates:
        return PortfolioResult(
            winner=None,
            winner_index=None,
            reports=reports,
            status="failed",
            restarts=len(outcomes),
            jobs=jobs,
            portfolio_id=portfolio_id,
        )
    best = reduce_candidates(candidates)
    status = "complete" if len(candidates) == len(outcomes) else "partial"
    return PortfolioResult(
        winner=best.value,
        winner_index=best.index,
        reports=reports,
        status=status,
        restarts=len(outcomes),
        jobs=jobs,
        portfolio_id=portfolio_id,
    )
