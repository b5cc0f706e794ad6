"""Run budgets and the cooperative run guard.

Production-scale partitioning runs need bounded runtime and a usable
answer when the bound is hit.  This module provides the two pieces every
solve-path component shares:

* :class:`RunBudget` — an immutable description of the limits of one run
  (wall-clock deadline, Algorithm 1 iteration cap, applied-move cap);
* :class:`RunGuard` — the mutable enforcement object threaded through
  ``core/fpart.py``, ``core/improve.py``, ``fm/bipartition.py`` and
  ``sanchis/engine.py``.  Checks are *cooperative*: the driver ticks the
  guard at iteration boundaries and the inner move loops consume *move
  leases* so the per-move overhead is a local integer decrement, not a
  clock read.

Lease protocol
--------------
Inner loops run::

    budget_left = guard.lease()          # checks clock + move cap
    while ...:
        apply_move()
        budget_left -= 1
        if budget_left <= 0:
            budget_left = guard.lease()  # raises when exhausted
    guard.settle(budget_left)            # refund the unused tail

``lease()`` charges the previously outstanding lease as spent, checks
the deadline and the move cap, and grants up to ``check_interval`` more
moves (fewer when the cap is closer).  The clock is therefore consulted
at most once per ``check_interval`` applied moves, which keeps the
guard within the 2% instrumentation budget measured on whole runs by
``benchmarks/bench_perf_regression.py``.

Exhaustion raises :class:`~repro.core.exceptions.BudgetExhaustedError`
(:class:`~repro.core.exceptions.IterationLimitError` for the iteration
cap, preserving the pre-guard exception type).  Every raising component
is written so the partition state stays consistent when the exception
propagates (pass loops rewind to the best prefix in ``finally``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .config import FpartConfig
from .exceptions import BudgetExhaustedError, IterationLimitError

__all__ = [
    "RunBudget",
    "RunGuard",
    "NULL_GUARD",
    "default_iteration_cap",
]


def default_iteration_cap(lower_bound: int) -> int:
    """The paper-era safety cap on Algorithm 1 iterations: ``4 M + 16``."""
    return 4 * lower_bound + 16


@dataclass(frozen=True)
class RunBudget:
    """Limits of one partitioning run.  ``None`` disables a limit."""

    deadline_seconds: Optional[float] = None
    """Wall-clock budget, measured from :meth:`RunGuard.start`."""
    max_iterations: Optional[int] = None
    """Cap on Algorithm 1 iterations (bipartition + improvement rounds)."""
    max_moves: Optional[int] = None
    """Cap on applied engine moves across the whole run (FM + Sanchis)."""
    check_interval: int = 256
    """Moves granted per lease — how often the clock is consulted."""

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.max_moves is not None and self.max_moves < 0:
            raise ValueError("max_moves must be non-negative")
        if self.check_interval < 1:
            raise ValueError("check_interval must be positive")

    @property
    def unlimited(self) -> bool:
        """True when no limit is set (the guard degenerates to counting)."""
        return (
            self.deadline_seconds is None
            and self.max_iterations is None
            and self.max_moves is None
        )

    @classmethod
    def from_config(cls, config: FpartConfig, lower_bound: int) -> "RunBudget":
        """Resolve the budget of one FPART run from its config.

        The iteration cap defaults to :func:`default_iteration_cap`
        (``4 M + 16``) when the config leaves it unset.
        """
        max_iterations = (
            config.max_iterations
            if config.max_iterations is not None
            else default_iteration_cap(lower_bound)
        )
        return cls(
            deadline_seconds=config.deadline_seconds,
            max_iterations=max_iterations,
            max_moves=config.max_moves,
            check_interval=config.guard_check_interval,
        )


class RunGuard:
    """Cooperative budget enforcement for one run.

    The guard is single-threaded state shared by the driver and every
    engine of one run: iteration ticks come from ``FpartPartitioner``,
    move leases from the FM/Sanchis pass loops.  All counters survive
    checkpoint/resume through :meth:`preload`.
    """

    __slots__ = ("budget", "on_tick", "_t0", "_iterations", "_moves",
                 "_outstanding", "_elapsed_offset", "_tripped",
                 "_stop_requested")

    def __init__(self, budget: Optional[RunBudget] = None) -> None:
        self.budget = budget if budget is not None else RunBudget()
        #: Optional observer called with the guard on every budget check
        #: (once per move lease / Algorithm 1 iteration — off the
        #: evaluator-path window).  The heartbeat emitter of
        #: ``repro.obs.progress`` installs itself here; the hook must
        #: only *read* guard state.
        self.on_tick = None
        self._t0: Optional[float] = None
        self._iterations = 0
        self._moves = 0
        self._outstanding = 0
        self._elapsed_offset = 0.0
        self._tripped: Optional[str] = None
        self._stop_requested: Optional[str] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "RunGuard":
        """(Re)start the wall clock; returns self for chaining."""
        self._t0 = time.monotonic()
        return self

    def preload(
        self, iterations: int = 0, moves: int = 0, elapsed: float = 0.0
    ) -> None:
        """Seed counters from a resumed checkpoint (before :meth:`start`)."""
        self._iterations = iterations
        self._moves = moves
        self._elapsed_offset = elapsed

    # -- introspection ---------------------------------------------------

    @property
    def iterations(self) -> int:
        """Algorithm 1 iterations ticked so far."""
        return self._iterations

    @property
    def moves(self) -> int:
        """Applied engine moves charged so far (lease granularity)."""
        return self._moves

    @property
    def tripped(self) -> Optional[str]:
        """The reason of the first exhaustion, or None."""
        return self._tripped

    def elapsed(self) -> float:
        """Wall-clock seconds consumed (including pre-resume time)."""
        if self._t0 is None:
            return self._elapsed_offset
        return self._elapsed_offset + (time.monotonic() - self._t0)

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock budget left, or ``None`` when no deadline is set.

        This is the guard's composition surface for fan-out: a driver
        that launches worker runs under an umbrella guard caps each
        worker's own deadline (and the pool's hard per-task timeout) at
        the umbrella's remaining budget, so children can never outlive
        the parent's promise (see ``repro.parallel.restarts``).
        """
        deadline = self.budget.deadline_seconds
        if deadline is None:
            return None
        return max(deadline - self.elapsed(), 0.0)

    def stats(self) -> dict:
        """Counters for logging / checkpointing."""
        return {
            "iterations": self._iterations,
            "moves": self._moves,
            "elapsed_seconds": self.elapsed(),
            "tripped": self._tripped,
        }

    # -- enforcement -----------------------------------------------------

    def _trip(self, reason: str, message: str) -> None:
        self._tripped = reason
        if reason == "iterations":
            raise IterationLimitError(message)
        raise BudgetExhaustedError(message, reason)

    def request_stop(self, reason: str = "stop requested") -> None:
        """Ask the run to stop at its next budget check.

        The cooperative analogue of a deadline firing *now*: the next
        :meth:`check` (a move-lease boundary or an Algorithm 1
        iteration tick — points where the partition state is
        consistent) raises :class:`BudgetExhaustedError` with reason
        ``"interrupted"``, so a non-strict run degrades to its best
        solution exactly as it would on budget exhaustion.  Async-signal
        safe: it only stores a string, which is why the SIGTERM/SIGINT
        handlers of ``fpart partition`` and the serve drain path can
        call it from a signal context.
        """
        self._stop_requested = reason

    @property
    def stop_requested(self) -> Optional[str]:
        """Reason of a pending :meth:`request_stop`, or None."""
        return self._stop_requested

    def check(self) -> None:
        """Raise if the wall-clock deadline has passed (cheap elsewhere)."""
        if self.on_tick is not None:
            self.on_tick(self)
        if self._stop_requested is not None:
            self._trip("interrupted", self._stop_requested)
        deadline = self.budget.deadline_seconds
        if deadline is not None:
            if self._t0 is None:
                self.start()
            if self.elapsed() > deadline:
                self._trip(
                    "deadline",
                    f"wall-clock deadline of {deadline}s exceeded "
                    f"({self.elapsed():.2f}s elapsed)",
                )

    def tick_iteration(self) -> None:
        """Record one Algorithm 1 iteration; raise when over budget.

        Called at the top of each iteration, so an iteration cap of
        ``N`` allows exactly ``N`` full iterations.
        """
        self._iterations += 1
        cap = self.budget.max_iterations
        if cap is not None and self._iterations > cap:
            self._trip(
                "iterations",
                f"no feasible solution after {cap} iterations",
            )
        self.check()

    def lease(self) -> int:
        """Charge the outstanding lease, check budgets, grant a new one."""
        self._moves += self._outstanding
        self._outstanding = 0
        self.check()
        grant = self.budget.check_interval
        cap = self.budget.max_moves
        if cap is not None:
            remaining = cap - self._moves
            if remaining <= 0:
                self._trip("moves", f"move budget of {cap} moves exhausted")
            grant = min(grant, remaining)
        self._outstanding = grant
        return grant

    def settle(self, unused: int) -> None:
        """Refund the unused tail of the current lease (pass ended)."""
        if unused < 0:
            unused = 0
        self._moves += max(self._outstanding - unused, 0)
        self._outstanding = 0


class _NullGuard(RunGuard):
    """A guard with no limits and near-zero per-pass cost.

    Engines default to this so the guard plumbing has one code path.
    ``lease()`` grants a practically infinite budget, making the
    per-move cost a single local integer decrement.
    """

    _GRANT = 1 << 60

    def __init__(self) -> None:
        super().__init__(RunBudget(check_interval=self._GRANT))

    def check(self) -> None:  # pragma: no cover - trivial
        pass

    def tick_iteration(self) -> None:
        self._iterations += 1

    def lease(self) -> int:
        return self._GRANT

    def settle(self, unused: int) -> None:
        pass


#: Shared no-op guard used when a caller does not supply one.
NULL_GUARD = _NullGuard()
