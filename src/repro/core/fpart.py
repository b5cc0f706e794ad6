"""FPART — Algorithm 1 of the paper.

Recursive multi-way partitioning: bipartition the remainder, improve the
fresh pair, improve against strategically selected earlier blocks (and,
for small-M circuits, across all blocks at once), until the whole
solution meets device constraints.

Deviations from the paper's pseudo-code, both required for the reported
results to be reachable:

* feasibility is checked *before* bipartitioning, so a circuit that fits
  ``k`` devices is never split into ``k + 1`` (Table 4 reports k = 1 for
  c3540 on XC3090, impossible with an unconditional first split);
* the "remainder" of the next iteration is re-identified as the
  currently infeasible block — after a multi-way improvement pass the
  violating block need not be the block that was the remainder before
  (the paper's own definition of a semi-feasible solution names the
  violating subset the remainder);
* an empty remainder is dropped, which is how the extra ``k = M``
  improvement round can land exactly on the lower bound.

Run-guard layer
---------------
Every run is executed under a :class:`~repro.core.runguard.RunGuard`
(wall-clock deadline, iteration cap, move cap — resolved from the
config by :meth:`RunBudget.from_config`).  FPART always holds a best
*semi-feasible* solution, and this driver exploits that: the best
lexicographic solution observed across the whole run is tracked, and on
budget exhaustion — or a trapped internal error — the partitioner
restores it and returns a degraded :class:`FpartResult` (see
:attr:`FpartResult.status`) instead of discarding everything.
``FpartConfig(strict=True)`` restores the historical raise-on-failure
behaviour.  Periodic :class:`~repro.core.checkpoint.RunCheckpoint`
snapshots make long runs resumable; because every tie-break in the
solve path is deterministically ordered, a resumed seeded run finishes
bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..hypergraph import Hypergraph
from ..initial import create_bipartition
from ..logging import run_logger
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.progress import HeartbeatEmitter
from ..obs.trace import NULL_TRACE, TraceWriter, cost_fields
from ..partition import PartitionState
from .checkpoint import (
    CheckpointManager,
    RunCheckpoint,
    config_digest,
    rng_state_from_json,
    rng_state_to_json,
)
from .config import DEFAULT_CONFIG, FpartConfig
from .cost import CostEvaluator, SolutionCost, make_evaluator
from .device import Device
from .exceptions import (
    BudgetExhaustedError,
    UnpartitionableError,
)
from .feasibility import Feasibility, block_is_feasible, classify
from .improve import improve
from .runguard import RunBudget, RunGuard
from .strategy import iteration_schedule

__all__ = ["FpartResult", "ImproveTraceEntry", "FpartPartitioner", "fpart"]

#: Possible values of :attr:`FpartResult.status`.
RESULT_STATUSES = ("feasible", "semi_feasible", "budget_exhausted", "failed")


@dataclass(frozen=True)
class ImproveTraceEntry:
    """Record of one scheduled ``Improve()`` call (Figure 1 data)."""

    iteration: int
    label: str
    blocks: Tuple[int, ...]
    cost_before: SolutionCost
    cost_after: SolutionCost


@dataclass
class FpartResult:
    """Outcome of one FPART run."""

    circuit: str
    device: str
    num_devices: int
    lower_bound: int
    feasible: bool
    assignment: List[int]
    block_sizes: List[int]
    block_pins: List[int]
    iterations: int
    runtime_seconds: float
    trace: List[ImproveTraceEntry] = field(default_factory=list)
    status: str = "feasible"
    """How the run ended:

    * ``"feasible"`` — every block meets the device constraints;
    * ``"budget_exhausted"`` — a run budget (deadline / iteration cap /
      move cap) tripped; the assignment is the best lexicographic
      solution observed before exhaustion;
    * ``"semi_feasible"`` — a trapped internal error stopped the run and
      the best solution observed has exactly one violating block (the
      paper's semi-feasible shape);
    * ``"failed"`` — the run stopped (trapped error or unpartitionable
      remainder) with more than one violating block remaining.

    Only ``strict`` runs raise instead of reporting the last three.
    """
    error: Optional[str] = None
    """Message of the trapped error/exhaustion for degraded statuses."""
    run_id: str = ""
    """Correlates this result with its log lines and checkpoints."""
    cost: Optional[SolutionCost] = None
    """Final lexicographic cost of the returned assignment (``None``
    only when the evaluator itself is the faulted component) — what the
    run store persists and ``fpart compare`` judges regressions on."""

    @property
    def gap_to_lower_bound(self) -> int:
        """Devices above the theoretical minimum ``M``."""
        return self.num_devices - self.lower_bound

    def summary(self) -> str:
        """One-line report, Table 2–5 style."""
        degraded = "" if self.status == "feasible" else f", {self.status}"
        return (
            f"{self.circuit} on {self.device}: {self.num_devices} devices "
            f"(M={self.lower_bound}, feasible={self.feasible}{degraded}, "
            f"{self.iterations} iterations, {self.runtime_seconds:.2f}s)"
        )


class _BestSolution:
    """Best lexicographic solution observed across the whole run.

    Snapshots are cheap (one list copy) and only taken when the cost
    actually improves, so the tracker adds no measurable overhead to the
    solve path.
    """

    __slots__ = ("cost", "assignment", "num_blocks", "remainder")

    def __init__(self) -> None:
        self.cost: Optional[SolutionCost] = None
        self.assignment: List[int] = []
        self.num_blocks = 0
        self.remainder = 0

    def seed(self, state: PartitionState, remainder: int) -> None:
        """Record a fallback snapshot before the first cost evaluation,
        so degradation has something to restore even when the very first
        evaluator call is the faulting one."""
        self.assignment = state.assignment()
        self.num_blocks = state.num_blocks
        self.remainder = remainder

    def offer(
        self, cost: SolutionCost, state: PartitionState, remainder: int
    ) -> bool:
        if self.cost is not None and not (cost < self.cost):
            return False
        self.cost = cost
        self.assignment = state.assignment()
        self.num_blocks = state.num_blocks
        self.remainder = remainder
        return True


class FpartPartitioner:
    """Configured FPART runner for one circuit / device pair.

    Parameters beyond the classic trio:

    guard:
        Externally-owned :class:`RunGuard` (e.g. shared across several
        runs under one global deadline).  Defaults to a fresh guard
        resolved from the config's budget fields.
    checkpoint:
        :class:`CheckpointManager` writing periodic resume snapshots.
    evaluator:
        Cost-evaluator override — the fault-injection seam used by
        ``repro.testing.faults`` (and the ablation benches).
    run_id:
        Log/checkpoint correlation id; generated when omitted.  A run
        resumed from a checkpoint adopts the checkpoint's id unless one
        was passed explicitly, so the whole lineage — log lines,
        checkpoint files, trace events, metrics dumps and
        :attr:`FpartResult.run_id` — shares a single id.
    metrics:
        :class:`~repro.obs.metrics.MetricsRegistry` receiving run
        telemetry (``NULL_METRICS`` default records nothing).
    tracer:
        :class:`~repro.obs.trace.TraceWriter` receiving the JSONL event
        stream (``NULL_TRACE`` default emits nothing).  The writer's
        ``run_id`` is synchronized to the partitioner's at run start.
    heartbeat:
        :class:`~repro.obs.progress.HeartbeatEmitter` for live progress;
        attached to the run's guard tick for the duration of
        :meth:`run` (detached again on every exit path).

    Example
    -------
    >>> from repro.circuits import generate_circuit
    >>> from repro.core import XC3042, FpartPartitioner
    >>> hg = generate_circuit("demo", num_cells=300, num_ios=40, seed=7)
    >>> result = FpartPartitioner(hg, XC3042).run()
    >>> result.feasible
    True
    """

    def __init__(
        self,
        hg: Hypergraph,
        device: Device,
        config: FpartConfig = DEFAULT_CONFIG,
        keep_trace: bool = True,
        guard: Optional[RunGuard] = None,
        checkpoint: Optional[CheckpointManager] = None,
        evaluator: Optional[CostEvaluator] = None,
        run_id: Optional[str] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        tracer: TraceWriter = NULL_TRACE,
        heartbeat: Optional[HeartbeatEmitter] = None,
    ) -> None:
        for c in range(hg.num_cells):
            if hg.cell_size(c) > device.s_max:
                raise UnpartitionableError(
                    f"cell {c} (size {hg.cell_size(c)}) exceeds device "
                    f"capacity S_MAX={device.s_max}"
                )
        self.hg = hg
        self.device = device
        self.config = config
        self.keep_trace = keep_trace
        self.lower_bound = device.lower_bound(hg)
        self.guard = guard
        self.checkpoint = checkpoint
        self.evaluator = evaluator
        self.metrics = metrics
        self.tracer = tracer
        self.heartbeat = heartbeat
        from ..logging import new_run_id

        self._explicit_run_id = run_id is not None
        self.run_id = run_id or new_run_id()
        # The run's single randomness root.  seed == 0 (the default)
        # keeps the canonical rng-free trajectory; any other seed
        # perturbs constructive seed selection through this one object,
        # so the whole run is a pure function of (inputs, seed).
        self._rng: Optional[random.Random] = (
            random.Random(config.seed) if config.seed != 0 else None
        )

    # ------------------------------------------------------------------

    def _scheduled_steps(self, state, remainder, new_block, m):
        """Iteration schedule filtered by the strategy ablation knob."""
        strategy = self.config.improvement_strategy
        if strategy == "none":
            return
        for step in iteration_schedule(
            state, remainder, new_block, m, self.device, self.config
        ):
            yield step
            if strategy == "last_pair":
                return

    def _infeasible_blocks(self, state: PartitionState) -> List[int]:
        device = self.device
        return [
            b
            for b in range(state.num_blocks)
            if not block_is_feasible(
                state.block_size(b), state.block_pins(b), device
            )
        ]

    def _drop_empty_blocks(self, state: PartitionState) -> PartitionState:
        """Compact away empty blocks (a remainder emptied by improvement)."""
        nonempty = state.nonempty_blocks()
        if len(nonempty) == state.num_blocks:
            return state
        renumber = {old: new for new, old in enumerate(nonempty)}
        assignment = [renumber[b] for b in state.assignment()]
        return PartitionState(self.hg, assignment, len(nonempty))

    # -- checkpoint plumbing -------------------------------------------

    def _make_checkpoint(
        self,
        iteration: int,
        state: PartitionState,
        remainder: int,
        best: _BestSolution,
        guard: RunGuard,
    ) -> RunCheckpoint:
        return RunCheckpoint(
            circuit=self.hg.name or "circuit",
            # Full repr, not just the name: a --delta-modified device
            # shares its catalog name but not its capacity.
            device=repr(self.device),
            config=config_digest(self.config),
            iteration=iteration,
            remainder=remainder,
            num_blocks=state.num_blocks,
            assignment=state.assignment(),
            best_assignment=list(best.assignment),
            best_num_blocks=best.num_blocks,
            best_remainder=best.remainder,
            seed=self.config.seed,
            rng_state=(
                rng_state_to_json(self._rng.getstate())
                if self._rng is not None
                else None
            ),
            guard={
                "iterations": guard.iterations,
                "moves": guard.moves,
                "elapsed_seconds": guard.elapsed(),
            },
            run_id=self.run_id,
        )

    def _restore_best(self, best: _BestSolution) -> Tuple[PartitionState, int]:
        """Rebuild the best-so-far solution as a fresh consistent state."""
        state = PartitionState(self.hg, best.assignment, best.num_blocks)
        return state, best.remainder

    # ------------------------------------------------------------------

    def run(
        self, resume_from: Optional[RunCheckpoint] = None
    ) -> FpartResult:
        """Execute Algorithm 1 under the run guard.

        Returns an :class:`FpartResult` whose :attr:`~FpartResult.status`
        says how the run ended.  In the default (non-strict) mode this
        method only raises for *pre-run* defects — an
        :class:`UnpartitionableError` from the constructor's oversized
        cell check, or a :class:`~repro.core.exceptions.CheckpointError`
        for a mismatched ``resume_from`` snapshot.  Everything that goes
        wrong *during* the search degrades gracefully instead: the state
        is rewound to the best lexicographic solution observed and
        returned with status ``"budget_exhausted"`` (a
        :class:`BudgetExhaustedError` budget trip), ``"semi_feasible"``
        or ``"failed"``.

        With ``FpartConfig(strict=True)`` the historical behaviour is
        preserved: :class:`IterationLimitError` when the iteration
        safety cap (``max_iterations``, default ``4 M + 16``) is hit,
        :class:`BudgetExhaustedError` for the other budgets,
        :class:`UnpartitionableError` when the remainder degenerates to
        a single cell that cannot be made feasible, and any internal
        error propagates unchanged.

        ``resume_from`` continues a checkpointed run from its last saved
        iteration boundary; a resumed seeded run reproduces the
        uninterrupted run's final assignment bit-identically.
        """
        start = time.perf_counter()
        hg = self.hg
        device = self.device
        config = self.config
        m = self.lower_bound
        circuit = hg.name or "circuit"
        # One id end-to-end: unless the caller pinned one, a resumed run
        # continues under the checkpoint's id, so its log lines, trace
        # events, metrics dump and result all correlate with the
        # original run's artifacts.
        if (
            resume_from is not None
            and not self._explicit_run_id
            and resume_from.run_id
        ):
            self.run_id = resume_from.run_id
        log = run_logger("core.fpart", self.run_id)
        metrics = self.metrics
        tracer = self.tracer
        if tracer.enabled:
            tracer.run_id = self.run_id
        evaluator = self.evaluator or make_evaluator(
            device, config, m, hg.num_terminals
        )
        sweeps_before = getattr(evaluator, "full_sweeps", 0)
        guard = self.guard or RunGuard(RunBudget.from_config(config, m))
        heartbeat = self.heartbeat
        if heartbeat is not None:
            heartbeat.attach(guard)

        best = _BestSolution()
        if resume_from is not None:
            cp = resume_from
            cp.validate_for(circuit, repr(device), config)
            state = PartitionState(hg, cp.assignment, cp.num_blocks)
            remainder = cp.remainder
            iteration = cp.iteration
            guard.preload(
                iterations=int(cp.guard.get("iterations", cp.iteration)),
                moves=int(cp.guard.get("moves", 0)),
                elapsed=float(cp.guard.get("elapsed_seconds", 0.0)),
            )
            if cp.rng_state is not None and self._rng is not None:
                # Replay-exact resume for seeded runs: continue the
                # Mersenne stream where the checkpoint froze it.
                self._rng.setstate(rng_state_from_json(cp.rng_state))
            best_state = PartitionState(
                hg, cp.best_assignment, cp.best_num_blocks
            )
            best.offer(
                evaluator.evaluate(best_state, cp.best_remainder),
                best_state,
                cp.best_remainder,
            )
            log.info(
                "resume %s/%s from iteration %d (k=%d)",
                circuit, device.name, iteration, state.num_blocks,
            )
        else:
            state = PartitionState.single_block(hg)
            remainder = 0
            iteration = 0
        guard.start()
        best.seed(state, remainder)

        log.info(
            "run start %s/%s: M=%d budget=%s strict=%s",
            circuit, device.name, m, guard.budget, config.strict,
        )
        if tracer.enabled:
            budget = guard.budget
            tracer.emit(
                "run_start",
                circuit=circuit,
                device=device.name,
                lower_bound=m,
                budget={
                    "deadline_seconds": budget.deadline_seconds,
                    "max_iterations": budget.max_iterations,
                    "max_moves": budget.max_moves,
                },
                guard=guard.stats(),
                resumed=resume_from is not None,
            )
        trace: List[ImproveTraceEntry] = []
        status = "feasible"
        error: Optional[str] = None
        bip_timer = metrics.timer("fpart.phase.bipartition")
        imp_timer = metrics.timer("fpart.phase.improve")

        def offer_best(cost: SolutionCost) -> None:
            # Trace only genuine lexicographic improvements: the event
            # stream mirrors the tracker the degradation path restores.
            if best.offer(cost, state, remainder):
                if heartbeat is not None:
                    heartbeat.note_best(cost)
                if tracer.enabled:
                    tracer.emit(
                        "lex_improve",
                        iteration=iteration,
                        cost=cost_fields(cost),
                    )

        def close_trace(end_status: str, exc: BaseException) -> None:
            # Strict-mode propagation still closes the event stream, so
            # every trace that saw run_start also carries a terminal
            # run_end with the failure status.
            if heartbeat is not None:
                # Terminal beat: streaming clients must never be left
                # waiting for a next tick that cannot come.
                heartbeat.finish(guard, end_status)
            if tracer.enabled:
                tracer.emit(
                    "run_end",
                    status=end_status,
                    iterations=iteration,
                    guard=guard.stats(),
                    cost=None,
                    error=str(exc),
                )

        try:
            offer_best(evaluator.evaluate(state, remainder))
            while classify(state, device) is not Feasibility.FEASIBLE:
                iteration += 1
                guard.tick_iteration()
                metrics.counter("fpart.iterations").inc()

                with bip_timer:
                    new_block = create_bipartition(
                        state,
                        remainder,
                        device,
                        evaluator,
                        rng=self._rng,
                        jobs=config.builder_jobs,
                        metrics=metrics,
                    )

                for step in self._scheduled_steps(
                    state, remainder, new_block, m
                ):
                    cost_before = evaluator.evaluate(state, remainder)
                    with imp_timer:
                        cost_after = improve(
                            state,
                            list(step.blocks),
                            remainder,
                            evaluator,
                            device,
                            config,
                            m,
                            guard=guard,
                            metrics=metrics,
                            tracer=tracer,
                        )
                    if self.keep_trace:
                        trace.append(
                            ImproveTraceEntry(
                                iteration=iteration,
                                label=step.label,
                                blocks=step.blocks,
                                cost_before=cost_before,
                                cost_after=cost_after,
                            )
                        )
                    offer_best(cost_after)
                    if classify(state, device) is Feasibility.FEASIBLE:
                        break

                # Multi-way improvement may have shifted the violation to
                # a different block: the infeasible block *is* the
                # remainder of a semi-feasible solution by definition.
                bad = self._infeasible_blocks(state)
                if bad:
                    remainder = max(
                        bad,
                        key=lambda b: (
                            state.block_size(b),
                            state.block_pins(b),
                        ),
                    )
                offer_best(evaluator.evaluate(state, remainder))
                log.debug(
                    "iteration %d done: k=%d remainder=%d infeasible=%d",
                    iteration, state.num_blocks, remainder, len(bad),
                )

                if self.checkpoint is not None and self.checkpoint.due(
                    iteration
                ):
                    self.checkpoint.save(
                        self._make_checkpoint(
                            iteration, state, remainder, best, guard
                        )
                    )
                    metrics.counter("fpart.checkpoints").inc()
                    if tracer.enabled:
                        tracer.emit(
                            "checkpoint",
                            iteration=iteration,
                            guard=guard.stats(),
                        )
                    log.debug(
                        "checkpoint saved at iteration %d -> %s",
                        iteration, self.checkpoint.path,
                    )
        except BudgetExhaustedError as exc:
            if config.strict:
                close_trace("budget_exhausted", exc)
                raise
            status = "budget_exhausted"
            error = str(exc)
            log.warning("budget exhausted (%s): %s", exc.reason, exc)
            self._offer_current(best, evaluator, state, remainder)
            state, remainder = self._restore_best(best)
        except UnpartitionableError as exc:
            if config.strict:
                close_trace("failed", exc)
                raise
            status = "failed"
            error = str(exc)
            log.error("unpartitionable remainder: %s", exc)
            self._offer_current(best, evaluator, state, remainder)
            state, remainder = self._restore_best(best)
        except Exception as exc:  # trapped internal fault
            if config.strict:
                close_trace("failed", exc)
                raise
            error = f"{type(exc).__name__}: {exc}"
            log.exception("internal error trapped; degrading: %s", exc)
            self._offer_current(best, evaluator, state, remainder)
            state, remainder = self._restore_best(best)
            bad = self._infeasible_blocks(state)
            status = "semi_feasible" if len(bad) <= 1 else "failed"
        finally:
            # Every exit path — return, strict raise, KeyboardInterrupt —
            # releases the guard hook and pushes buffered events to disk.
            if heartbeat is not None:
                heartbeat.detach(guard)
            tracer.flush()

        state = self._drop_empty_blocks(state)
        feasible = classify(state, device) is Feasibility.FEASIBLE
        if feasible:
            status = "feasible"
            error = None

        if self.checkpoint is not None and status == "feasible":
            # Final snapshot: resuming a finished run returns immediately.
            # Degraded runs keep their last iteration-boundary snapshot
            # instead, so a later resume with a larger budget continues
            # the exact trajectory (best-rewinding here would fork it).
            self.checkpoint.save(
                self._make_checkpoint(iteration, state, remainder, best, guard)
            )
            metrics.counter("fpart.checkpoints").inc()
            if tracer.enabled:
                tracer.emit(
                    "checkpoint", iteration=iteration, guard=guard.stats()
                )

        runtime = time.perf_counter() - start
        if metrics.enabled:
            metrics.counter("fpart.runs").inc()
            metrics.counter("cost.full_sweeps").inc(
                getattr(evaluator, "full_sweeps", 0) - sweeps_before
            )
            metrics.gauge("fpart.num_devices").set(state.num_blocks)
            metrics.gauge("fpart.runtime_seconds").set(runtime)
        # Dropping empty blocks can renumber past the old remainder;
        # clamp (the remainder is moot once the run ended anyway).
        final_rem = min(remainder, state.num_blocks - 1)
        try:
            final_cost: Optional[SolutionCost] = evaluator.evaluate(
                state, final_rem
            )
        except Exception:  # the evaluator may be the faulted part
            final_cost = None
        if heartbeat is not None:
            # Terminal heartbeat on every completion path — feasible or
            # degraded — so progress streams always observe a final beat.
            heartbeat.finish(guard, status)
        if tracer.enabled:
            tracer.emit(
                "run_end",
                status=status,
                iterations=iteration,
                guard=guard.stats(),
                cost=cost_fields(final_cost)
                if final_cost is not None
                else None,
                num_devices=state.num_blocks,
            )
            tracer.flush()
        log.info(
            "run end %s/%s: status=%s k=%d iterations=%d moves=%d %.2fs",
            circuit, device.name, status, state.num_blocks, iteration,
            guard.moves, runtime,
        )
        return FpartResult(
            circuit=circuit,
            device=device.name,
            num_devices=state.num_blocks,
            lower_bound=m,
            feasible=feasible,
            assignment=state.assignment(),
            block_sizes=list(state.block_sizes),
            block_pins=list(state.block_pin_counts),
            iterations=iteration,
            runtime_seconds=runtime,
            trace=trace,
            status=status,
            error=error,
            run_id=self.run_id,
            cost=final_cost,
        )

    @staticmethod
    def _offer_current(
        best: _BestSolution,
        evaluator: CostEvaluator,
        state: PartitionState,
        remainder: int,
    ) -> None:
        """Offer the interrupted state itself — it can beat the tracker
        (e.g. a budget tripping inside ``improve()`` after its internal
        best was restored but before the driver re-offered it).  The
        evaluator may be the very component that faulted, so a second
        failure here is swallowed: the tracker then simply keeps its
        last recorded best.
        """
        try:
            best.offer(evaluator.evaluate(state, remainder), state, remainder)
        except Exception:
            pass


def fpart(
    hg: Hypergraph,
    device: Device,
    config: FpartConfig = DEFAULT_CONFIG,
) -> FpartResult:
    """Functional entry point: partition ``hg`` for ``device``."""
    return FpartPartitioner(hg, device, config).run()
