"""Zero-dependency process pool with a work-queue scheduler.

The execution substrate of :mod:`repro.parallel`: the parent keeps a
queue of :class:`ParallelTask` payloads and feeds them to worker
processes one at a time over **per-worker duplex pipes** — a worker
gets its next task the moment it reports the previous one, so a slow
task never blocks the others behind a static round-robin split.
Everything is stdlib ``multiprocessing``; nothing is imported that the
container does not already have.

Per-worker pipes (rather than one shared queue) are a deliberate
robustness choice: killing a process that holds a shared queue's
internal lock — or that dies mid-``put`` through the queue's feeder
thread — corrupts the stream for every survivor.  With one pipe per
worker a dying worker can only tear its *own* channel, which the
parent observes as ``EOFError`` and converts into a casualty outcome.

Two driving modes share one scheduler:

* **batch** — :meth:`WorkerPool.run` executes a fixed task list and
  returns every outcome in *task order* (the historical API; the
  restart portfolios and sharded sweeps use it);
* **persistent** — :meth:`WorkerPool.submit` / :meth:`WorkerPool.poll`
  keep the same worker processes alive across submissions, delivering
  outcomes in *completion order* as they happen.  This is the substrate
  of the ``fpart serve`` daemon, where jobs arrive over HTTP for days
  and re-forking a pool per job would dominate small-job latency.

:meth:`WorkerPool.poll` blocks in one ``multiprocessing.connection.wait``
over the worker pipes and a self-pipe, bounded by the pool's own next
deadline (a task timeout, the end of a respawn backoff) and the
caller's optional ``timeout``.  :meth:`WorkerPool.wakeup`, the one
thread-safe method, cuts that wait short from another thread.

Degradation contract
--------------------
The pool never lets one bad task sink the batch:

* a task that **raises** inside the worker returns an ``"error"``
  outcome (the worker survives and receives the next task);
* a worker that **dies** (segfault, ``os._exit``, OOM kill) is detected
  through its broken pipe; the task it was running is marked
  ``"crashed"`` and a replacement worker is spawned while unassigned
  tasks remain;
* a task that exceeds its **timeout** has its worker terminated and is
  marked ``"timeout"`` — the hard backstop behind the cooperative
  :class:`~repro.core.runguard.RunGuard` deadline that well-behaved
  tasks enforce on themselves (see DESIGN.md §8 for how the two
  compose).

Respawn pacing
--------------
Replacement workers are *not* spawned immediately: consecutive
casualties grow an exponential-backoff delay with deterministic jitter
(:class:`~repro.parallel.backoff.BackoffPolicy`), so a workload that
kills its worker deterministically on startup burns its respawn budget
over seconds instead of forking a storm of doomed processes in a tight
loop.  The first message any worker delivers resets the streak — a
healthy pool pays zero delay.  ``max_respawns`` remains the hard
budget; the backoff only paces how fast it is spent.

``jobs=1`` runs every batch task inline in the calling process: no
fork, no pickling, bit-identical to what the same tasks produce under
any ``jobs=N`` (the determinism tests in ``tests/test_parallel.py`` pin
this).  Inline mode cannot pre-empt a hung task; it relies on the
task's own run guard, which is exactly the composition the restart
driver sets up.  Persistent mode always uses worker processes — a
daemon cannot afford to run jobs on its scheduler thread.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import NULL_METRICS
from .backoff import DEFAULT_RESPAWN_BACKOFF, BackoffPolicy

__all__ = [
    "TASK_STATUSES",
    "ParallelTask",
    "TaskOutcome",
    "WorkerPool",
]

#: Possible values of :attr:`TaskOutcome.status`.
TASK_STATUSES = ("ok", "error", "crashed", "timeout", "not_run")


@dataclass(frozen=True)
class ParallelTask:
    """One unit of work: a picklable top-level callable plus arguments.

    ``fn`` must be importable from the worker process (a module-level
    function), and ``args``/``kwargs`` plus the return value must
    pickle — the standard multiprocessing contract.
    """

    index: int
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    timeout_seconds: Optional[float] = None
    """Hard wall-clock cap for this task, measured from the moment it is
    handed to a worker.  ``None`` defers to the pool default."""


@dataclass(frozen=True)
class TaskOutcome:
    """How one task ended.  ``value`` is set only for ``"ok"``."""

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    wall_seconds: float = 0.0
    label: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worker_main(conn) -> None:
    """Worker loop: receive a task, run it, report, repeat until EOF.

    Runs in the child process.  Every exit from the task callable —
    return, raise — is converted into one complete, synchronous
    ``send`` before the next ``recv``, so the parent's view of this
    pipe is always a whole message or a clean break.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        index, fn, args, kwargs = item
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - task isolation
            message = (
                index,
                "error",
                None,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
            )
        else:
            message = (index, "ok", value, None, time.perf_counter() - start)
        try:
            conn.send(message)
        except Exception as exc:  # e.g. an unpicklable return value
            conn.send(
                (
                    index,
                    "error",
                    None,
                    f"result not transferable: {type(exc).__name__}: {exc}",
                    time.perf_counter() - start,
                )
            )


class _WorkerSlot:
    """Parent-side bookkeeping for one live worker process."""

    __slots__ = ("process", "conn", "task", "started_at")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[ParallelTask] = None
        self.started_at = 0.0

    def assign(self, task: ParallelTask) -> None:
        self.task = task
        self.started_at = time.perf_counter()
        self.conn.send((task.index, task.fn, task.args, task.kwargs))

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass

    def reap(self, kill: bool = False) -> None:
        if kill and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Work-queue scheduler over ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` runs :meth:`run` batches inline
        (no subprocesses); persistent mode forks even for ``jobs=1``.
    timeout_seconds:
        Default per-task hard timeout (:attr:`ParallelTask.timeout_seconds`
        overrides it per task); ``None`` disables the backstop.
    max_respawns:
        Replacement workers allowed before the pool stops replacing
        casualties and drains still-unassigned tasks as ``"not_run"`` —
        a backstop against a poisoned workload killing workers forever.
        Defaults to twice the task count for :meth:`run` batches and to
        unlimited for persistent pools (whose pacing comes from
        ``respawn_backoff`` instead).
    respawn_backoff:
        :class:`BackoffPolicy` pacing replacement spawns after
        consecutive casualties (``None`` restores the historical
        immediate respawn).  Applied delays are logged on
        :attr:`respawn_delays` so fault-injection tests can assert the
        schedule exactly.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  The pool
        records each respawn (``parallel.respawns`` counter), the
        computed backoff delay (``parallel.respawn_delay_ms``
        histogram) and the worst consecutive-casualty streak
        (``parallel.respawn_streak`` gauge).  Defaults to the null
        registry — uninstrumented pools pay nothing.
    """

    def __init__(
        self,
        jobs: int,
        timeout_seconds: Optional[float] = None,
        max_respawns: Optional[int] = None,
        respawn_backoff: Optional[BackoffPolicy] = DEFAULT_RESPAWN_BACKOFF,
        metrics=NULL_METRICS,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")
        self.jobs = jobs
        self.timeout_seconds = timeout_seconds
        self.max_respawns = max_respawns
        self.respawn_backoff = respawn_backoff
        self.metrics = metrics
        #: Applied respawn delays in casualty order (observability/tests).
        self.respawn_delays: List[float] = []
        self._ctx = None
        self._slots: List[_WorkerSlot] = []
        self._pending: deque = deque()
        self._completed: deque = deque()
        self._total_spawns = 0
        self._respawns_used = 0
        self._respawn_streak = 0
        self._next_spawn_at = 0.0
        self._respawn_budget: Optional[int] = max_respawns
        # Self-pipe behind wakeup(), non-blocking at both ends.  The
        # lock only keeps a write from racing close() on the fd.
        self._selfpipe_r, self._selfpipe_w = os.pipe()
        os.set_blocking(self._selfpipe_r, False)
        os.set_blocking(self._selfpipe_w, False)
        self._selfpipe_lock = threading.Lock()

    # -- public API ------------------------------------------------------

    def run(self, tasks: Sequence[ParallelTask]) -> List[TaskOutcome]:
        """Execute every task, then close; outcomes come in task order."""
        try:
            tasks = list(tasks)
            indexes = [t.index for t in tasks]
            if len(set(indexes)) != len(indexes):
                raise ValueError("task indexes must be unique")
            if self.jobs == 1 or len(tasks) <= 1:
                return [self._run_inline(task) for task in tasks]
            self._respawn_budget = (
                self.max_respawns
                if self.max_respawns is not None
                else 2 * len(tasks)
            )
            outcomes: Dict[int, TaskOutcome] = {}
            for task in tasks:
                self.submit(task)
            while len(outcomes) < len(tasks):
                for outcome in self.poll():
                    outcomes[outcome.index] = outcome
            return [outcomes[task.index] for task in tasks]
        finally:
            self.close()

    # -- persistent API --------------------------------------------------

    def submit(self, task: ParallelTask) -> None:
        """Enqueue one task; it starts as soon as a worker frees up.

        Task indexes must be unique among tasks the pool still holds
        (queued or running) — completed indexes may be reused, which is
        how a daemon resubmits a retried job under a fresh attempt.
        """
        live = {t.index for t in self._pending}
        live.update(
            slot.task.index for slot in self._slots if slot.task is not None
        )
        if task.index in live:
            raise ValueError(f"task index {task.index} is already queued")
        self._pending.append(task)

    def poll(self, timeout: Optional[float] = None) -> List[TaskOutcome]:
        """One scheduler step; returns outcomes in completion order.

        Feeds idle workers, (re)spawns paced by the backoff policy, then
        waits once — until a worker reports or dies, :meth:`wakeup` is
        called, the pool's next deadline passes or ``timeout`` seconds
        elapse — and converts broken pipes and expired per-task
        timeouts into casualty outcomes.  Unassigned tasks drain as
        ``"not_run"`` once the respawn budget is spent with no live
        worker left.  Outcomes already waiting skip the wait.
        """
        self._feed()
        if self._pending and not self._slots and not self._spawn_allowed():
            # Every worker is gone and the respawn budget is spent:
            # drain what never ran.
            for task in self._pending:
                self._completed.append(
                    TaskOutcome(
                        index=task.index,
                        status="not_run",
                        error="no live workers remain",
                        label=task.label,
                    )
                )
            self._pending.clear()
        conn_to_slot = {slot.conn: slot for slot in self._slots}
        ready = mp_connection.wait(
            [*conn_to_slot, self._selfpipe_r], self._wait_seconds(timeout)
        )
        for conn in ready:
            slot = conn_to_slot.get(conn)
            if slot is None:
                os.read(self._selfpipe_r, 4096)  # ready: cannot block
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._casualty(slot, "crashed")
                continue
            self._respawn_streak = 0
            index, status, value, error, wall = message
            task = slot.task
            slot.task = None
            self._completed.append(
                TaskOutcome(
                    index=index,
                    status=status,
                    value=value,
                    error=error,
                    wall_seconds=wall,
                    label=task.label if task is not None else "",
                )
            )
        now = time.perf_counter()
        for slot in list(self._slots):
            deadline = self._deadline_of(slot)
            if deadline is not None and now > deadline:
                self._casualty(slot, "timeout")
        self._feed()
        drained = list(self._completed)
        self._completed.clear()
        return drained

    def wakeup(self) -> None:
        """End the current or next :meth:`poll` wait; any thread may call."""
        with self._selfpipe_lock:
            if self._selfpipe_w < 0:
                return  # closed: nobody is left to wake
            try:
                os.write(self._selfpipe_w, b"\0")
            except BlockingIOError:
                pass  # pipe full: the pool is already awake

    def kill(self, index: int) -> bool:
        """Terminate the worker running ``index`` (cooperating caller).

        The task surfaces as a ``"crashed"`` outcome; the kill does not
        count toward the respawn backoff streak — the pool was asked to
        do this, the workload did not misbehave.
        """
        for slot in self._slots:
            if slot.task is not None and slot.task.index == index:
                self._casualty(slot, "crashed", count_failure=False)
                return True
        return False

    def close(self) -> None:
        """Shut every worker down and release the self-pipe (final)."""
        for slot in self._slots:
            slot.shutdown()
        for slot in self._slots:
            slot.reap(kill=True)
        self._slots = []
        self._pending.clear()
        with self._selfpipe_lock:
            if self._selfpipe_w >= 0:
                os.close(self._selfpipe_r)
                os.close(self._selfpipe_w)
                self._selfpipe_r = self._selfpipe_w = -1

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- inline path -----------------------------------------------------

    def _run_inline(self, task: ParallelTask) -> TaskOutcome:
        start = time.perf_counter()
        try:
            value = task.fn(*task.args, **task.kwargs)
        except Exception as exc:  # noqa: BLE001 - task isolation
            return TaskOutcome(
                index=task.index,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                wall_seconds=time.perf_counter() - start,
                label=task.label,
            )
        return TaskOutcome(
            index=task.index,
            status="ok",
            value=value,
            wall_seconds=time.perf_counter() - start,
            label=task.label,
        )

    # -- scheduler internals ---------------------------------------------

    def _deadline_of(self, slot: _WorkerSlot) -> Optional[float]:
        """When the slot's running task times out (``None``: never)."""
        if slot.task is None:
            return None
        cap = slot.task.timeout_seconds
        if cap is None:
            cap = self.timeout_seconds
        return None if cap is None else slot.started_at + cap

    def _wait_seconds(self, timeout: Optional[float]) -> Optional[float]:
        """How long :meth:`poll` may block (``None`` = until an event):
        the caller's bound or the pool's next deadline, if sooner."""
        if self._completed:
            return 0.0
        now = time.perf_counter()
        deadlines = [] if timeout is None else [now + timeout]
        deadlines += [
            d for d in map(self._deadline_of, self._slots) if d is not None
        ]
        if (
            self._pending
            and len(self._slots) < self.jobs
            and self._spawn_allowed()
        ):
            deadlines.append(self._next_spawn_at)
        return max(min(deadlines) - now, 0.0) if deadlines else None

    def _spawn(self) -> None:
        if self._ctx is None:
            self._ctx = multiprocessing.get_context()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        self._slots.append(_WorkerSlot(process, parent_conn))
        self._total_spawns += 1

    def _spawn_allowed(self) -> bool:
        """May a *replacement* worker still be spawned?"""
        if self._total_spawns < self.jobs:
            return True
        return self._respawn_budget is None or self._respawn_budget > 0

    def _feed(self) -> None:
        """Bring capacity up for pending work, then hand tasks out."""
        while self._pending and len(self._slots) < self.jobs:
            if self._total_spawns >= self.jobs:
                # Replacement (initial capacity is free and immediate):
                # bounded by the budget, paced by the backoff.
                if not self._spawn_allowed():
                    break
                if time.perf_counter() < self._next_spawn_at:
                    break
                if self._respawn_budget is not None:
                    self._respawn_budget -= 1
                self._respawns_used += 1
                self.metrics.counter("parallel.respawns").inc()
            self._spawn()
        for slot in self._slots:
            if slot.task is None and self._pending:
                task = self._pending.popleft()
                try:
                    slot.assign(task)
                except (BrokenPipeError, OSError):
                    # Worker died between tasks; retry the task on
                    # another worker via the casualty path's respawn,
                    # but record no outcome for it.
                    self._pending.appendleft(task)
                    slot.task = None

    def _note_casualty_backoff(self) -> None:
        """Grow the respawn delay after one more consecutive casualty."""
        if self.respawn_backoff is None:
            return
        delay = self.respawn_backoff.delay(
            self._respawn_streak, key=f"respawn{self._respawns_used}"
        )
        self._respawn_streak += 1
        self.respawn_delays.append(delay)
        self.metrics.histogram(
            "parallel.respawn_delay_ms", lo=0, hi=4000, width=125
        ).record(int(delay * 1000))
        self.metrics.gauge("parallel.respawn_streak").set_max(
            self._respawn_streak
        )
        self._next_spawn_at = max(
            self._next_spawn_at, time.perf_counter() + delay
        )

    def _casualty(
        self, slot: _WorkerSlot, status: str, count_failure: bool = True
    ) -> None:
        """Reap a lost worker; a task it was running ends as ``status``."""
        task = slot.task
        if task is not None:
            self._completed.append(
                TaskOutcome(
                    index=task.index,
                    status=status,
                    error=f"worker pid={slot.process.pid} {status}",
                    wall_seconds=time.perf_counter() - slot.started_at,
                    label=task.label,
                )
            )
        slot.task = None
        self._slots.remove(slot)
        slot.reap(kill=True)
        if count_failure:
            self._note_casualty_backoff()

