"""Live run progress: a heartbeat driven from the run-guard tick.

Long partitioning runs were previously silent between log lines; the
:class:`HeartbeatEmitter` rides the :class:`~repro.core.runguard.RunGuard`
tick hook (consulted once per move lease and once per Algorithm 1
iteration — already off the evaluator-path window) and, at most once
per ``interval_seconds``, emits a ``progress`` trace event and an
optional human-readable stderr line:

    fpart: progress iter=12 moves=15360 elapsed=3.2s best f=5 d_k=0.41 ...

The emitter only *reads* guard counters and the driver's best-so-far
cost, so enabling progress cannot change the search (the bit-identical
instrumented-run contract of DESIGN.md §7 covers it).  Rate limiting
happens inside the tick callback with one monotonic clock read per
lease, within the 2% instrumentation budget measured on whole runs by
``benchmarks/bench_perf_regression.py``.
"""

from __future__ import annotations

import time
from typing import IO, Optional

from .trace import NULL_TRACE, TraceWriter, cost_fields

__all__ = ["HeartbeatEmitter"]


class HeartbeatEmitter:
    """Periodic progress reporter for one run.

    Parameters
    ----------
    tracer:
        Trace sink of the ``progress`` events (the run's
        :class:`TraceWriter`; the shared ``NULL_TRACE`` drops them).
    stream:
        Optional text stream for one-line human progress (CLI
        ``--progress`` passes stderr).
    interval_seconds:
        Minimum seconds between emissions; ``0`` emits on every guard
        tick (used by tests).
    """

    __slots__ = ("tracer", "stream", "interval_seconds", "_clock",
                 "_last_emit", "_best_cost", "emitted", "finished")

    def __init__(
        self,
        tracer: TraceWriter = NULL_TRACE,
        stream: Optional[IO] = None,
        interval_seconds: float = 2.0,
        _clock=time.monotonic,
    ) -> None:
        if interval_seconds < 0:
            raise ValueError("interval_seconds must be non-negative")
        self.tracer = tracer
        self.stream = stream
        self.interval_seconds = interval_seconds
        self._clock = _clock
        self._last_emit: Optional[float] = None
        self._best_cost = None
        self.emitted = 0
        self.finished = False

    # -- driver hooks ----------------------------------------------------

    def attach(self, guard) -> "HeartbeatEmitter":
        """Install this emitter as the guard's tick hook."""
        guard.on_tick = self._on_tick
        self._last_emit = self._clock()
        return self

    def detach(self, guard) -> None:
        """Remove the hook (only when it is still ours)."""
        if guard.on_tick == self._on_tick:
            guard.on_tick = None

    def note_best(self, cost) -> None:
        """Record the run's current best lexicographic cost (driver)."""
        self._best_cost = cost

    # -- emission --------------------------------------------------------

    def _on_tick(self, guard) -> None:
        now = self._clock()
        if (
            self._last_emit is not None
            and now - self._last_emit < self.interval_seconds
        ):
            return
        self._last_emit = now
        self.emit(guard)

    def emit(self, guard, final_status: Optional[str] = None) -> None:
        """Emit one progress beat from the guard's counters.

        ``final_status`` marks the beat as the run's *terminal* one
        (``final: true`` plus the run status in the trace event) — see
        :meth:`finish`.
        """
        elapsed = guard.elapsed()
        fields = {
            "iteration": guard.iterations,
            "moves": guard.moves,
            "elapsed_seconds": round(elapsed, 3),
        }
        if final_status is not None:
            fields["final"] = True
            fields["status"] = final_status
        best = self._best_cost
        if best is not None:
            fields["cost"] = cost_fields(best)
        if self.tracer.enabled:
            # Flushed per beat so a tail of the trace (the serve job
            # stream) sees progress live; beats are rate-limited and
            # off the per-move path.
            self.tracer.emit("progress", **fields)
            self.tracer.flush()
        if self.stream is not None:
            line = (
                f"fpart: progress iter={guard.iterations} "
                f"moves={guard.moves} elapsed={elapsed:.1f}s"
            )
            if best is not None:
                line += (
                    f" best f={best.feasible_blocks}"
                    f" d_k={best.distance:.3f}"
                    f" T_SUM={best.total_pins}"
                )
            if final_status is not None:
                line += f" done status={final_status}"
            self.stream.write(line + "\n")
            self.stream.flush()
        self.emitted += 1

    def finish(self, guard, status: str) -> None:
        """Emit the terminal heartbeat exactly once, whatever the path.

        The terminal beat records how the run ended (``final: true``
        and the status) in the trace and on the ``--progress`` line,
        so a reader of either sees the last best cost even when the
        run degrades or fails between ticks.  (The serve job stream
        does not wait for it: it ends when the job turns terminal.)
        The driver calls this on every exit path — feasible return,
        graceful degradation, strict raise — and the once-latch makes
        multiple exit paths safe to wire independently.  Rate limiting
        is bypassed: the terminal beat always lands.
        """
        if self.finished:
            return
        self.finished = True
        self.emit(guard, final_status=status)
