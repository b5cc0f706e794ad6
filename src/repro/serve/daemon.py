"""The partitioning service: job table + scheduler over a WorkerPool.

:class:`PartitionService` is the daemon's brain, deliberately separate
from its HTTP skin (``server.py``) so the whole lifecycle — submit,
schedule, retry, crash, recover, drain — is testable in-process without
a socket.

Durability contract
-------------------
Every externally visible decision is journalled *before* the in-memory
state changes (write-ahead, see ``journal.py``).  On construction the
service replays the journal into the job table, then *recovers*: any
job last journalled as ``admitted`` or ``running`` provably did not
finish (its terminal event would have been journalled first), so it is
folded back to ``queued``.  Because every job attempt checkpoints every
iteration and checkpoint resume is bit-identical (DESIGN.md §5), a
recovered job finishes with exactly the assignment an uninterrupted run
would have produced — the property the kill/restart CI job asserts.

Idempotency
-----------
Submissions are keyed by a digest over (netlist content, device, delta,
budget-masked config digest).  A duplicate of an in-flight job attaches
to it; a duplicate of a finished job is served from the table without
touching the pool.  ``stats()["tasks_submitted"]`` counts actual pool
submissions, which is how the tests *prove* zero recomputation.

Threading
---------
Three kinds of threads touch the service: HTTP handler threads
(submit/cancel/inspect), the single scheduler thread, and the signal
path (drain request).  All shared state — job table, journal, counters
— is mutated under one re-entrant lock.  The :class:`WorkerPool` is
**not** thread-safe apart from ``wakeup()``, so the scheduler thread
makes every other pool call and blocks only in ``poll()``, until a
worker reports, a thread has news (submit, cancel, resume, shutdown
call ``wakeup()``) or the earliest retry backoff runs out.  HTTP-side
cancel flips table state and wakes the scheduler, which reconciles
(kills the worker, ignores the stale outcome) at once.  Threads that
wait on job state use :meth:`PartitionService.wait_for`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..core.checkpoint import CheckpointManager, config_digest
from ..core.exceptions import CheckpointError
from ..obs.export import to_openmetrics
from ..obs.metrics import MetricsRegistry, NULL_METRICS
from ..logging import new_run_id
from ..obs.spans import new_trace_id
from ..obs.trace import NULL_TRACE, TraceWriter
from ..parallel.backoff import BackoffPolicy
from ..parallel.pool import ParallelTask, TaskOutcome, WorkerPool
from .jobs import Job, JobError, JobSpec, JobTable, TERMINAL_STATES
from .journal import Journal
from .queue import AdmissionController, AdmissionDecision, TenantPolicy
from .worker import job_config, run_partition_job

__all__ = ["ServiceConfig", "PartitionService", "submission_digest"]

#: Fixed bucket layouts (milliseconds) of the service latency
#: histograms exposed on ``GET /metrics``.  Millisecond integers keep
#: the O(1) :class:`~repro.obs.metrics.Histogram` record path; the
#: ranges are sized for interactive service traffic — anything slower
#: lands in the overflow bucket, which the cumulative ``+Inf`` bucket
#: still counts.
SERVE_HISTOGRAMS = {
    "serve.queue_wait_ms": (0, 8000, 250),
    "serve.attempt_wall_ms": (0, 32000, 1000),
    "serve.submit_to_terminal_ms": (0, 64000, 2000),
    "serve.retry_delay_ms": (0, 8000, 250),
}

#: Retry pacing for crashed/timed-out job attempts.  Seconds-scale (not
#: the pool's millisecond respawn scale): a crashing job should not hog
#: a worker slot back-to-back.
DEFAULT_RETRY_BACKOFF = BackoffPolicy(
    base_seconds=0.5, multiplier=2.0, max_seconds=30.0, jitter_ratio=0.25
)


def submission_digest(
    netlist: str, device: str, delta: float, config_overrides: Dict
) -> str:
    """Idempotency key of one submission.

    Hashes the netlist *content* (two paths to the same file dedupe;
    an edited netlist does not), the device/delta pair, and the
    budget-masked config digest — so two submissions differing only in
    budget knobs still dedupe onto one computation, matching the
    checkpoint compatibility rule.
    """
    file_sha = hashlib.sha256(Path(netlist).read_bytes()).hexdigest()
    # ``test_*`` keys are fault-injection hooks, not search parameters —
    # they are stripped here exactly like budget knobs are masked by
    # ``config_digest``.
    overrides = {
        k: v for k, v in config_overrides.items() if not k.startswith("test_")
    }
    cfg_sha = config_digest(job_config(overrides))
    blob = f"{file_sha}|{device.upper()}|{delta}|{cfg_sha}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    state_dir: str
    jobs: int = 2
    """Worker processes (concurrent running jobs)."""
    queue_capacity: int = 32
    max_attempts: int = 3
    job_timeout_seconds: Optional[float] = None
    """Hard per-attempt wall-clock cap enforced by the pool."""
    drain_seconds: float = 10.0
    """Grace period for running jobs when draining."""
    retry_backoff: BackoffPolicy = DEFAULT_RETRY_BACKOFF
    tenant_policies: Dict[str, TenantPolicy] = field(default_factory=dict)
    default_tenant_policy: TenantPolicy = field(default_factory=TenantPolicy)
    allow_test_hooks: bool = False
    """Honor the hidden ``test_sleep_seconds`` spec field (tests/CI)."""
    obs_enabled: bool = True
    """Service-level observability: span log + live metrics registry.

    Off swaps in :data:`~repro.obs.metrics.NULL_METRICS` and
    :data:`~repro.obs.trace.NULL_TRACE` (``/metrics`` then serves an
    empty-but-valid document) — the knob the ``serve_obs_overhead``
    bench compares against."""
    prof_slow_ms: Optional[float] = None
    """Profile-on-slow threshold in milliseconds (``None`` = off).

    When set, every attempt runs under the sampling profiler (a
    read-only observer — assignments are bit-identical) and attempts
    whose wall exceeds the threshold leave their folded stacks in
    ``<state-dir>/profiles/<job>.folded``, stamped with the job's
    trace_id and served at ``GET /jobs/<id>/profile``."""


class PartitionService:
    """Crash-safe partitioning job service (no HTTP — see server.py)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.runs_dir = self.state_dir / "runs"
        self.profiles_dir = self.state_dir / "profiles"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._journal = Journal(self.state_dir / "journal.jsonl")
        self._table = JobTable()
        self._draining = False
        self._closed = False
        self._scheduler: Optional[threading.Thread] = None
        #: Test seam: when set, the scheduler parks without admitting —
        #: used to hold the queue saturated deterministically.
        self._paused = False
        self._admission = AdmissionController(
            capacity=config.queue_capacity,
            default_policy=config.default_tenant_policy,
            policies=dict(config.tenant_policies),
        )
        self._index_to_job: Dict[int, str] = {}
        self._next_index = 0
        self._stats = {
            "submissions": 0,
            "deduped": 0,
            "rejected": 0,
            "tasks_submitted": 0,
            "retries": 0,
            "recovered": 0,
            "completed": 0,
        }
        self._span_stream = None
        self.spans: TraceWriter = NULL_TRACE
        self.metrics: MetricsRegistry = NULL_METRICS
        if config.obs_enabled:
            self.metrics = MetricsRegistry()
            # Appended and line-buffered: daemon generations share one
            # file, each under its own run id, and every span line is
            # on disk once written.  Spans are diagnostics, not state,
            # so nothing is fsync'd.
            self._span_stream = open(
                self.state_dir / "spans.jsonl", "a",
                buffering=1, encoding="utf-8",
            )
            self.spans = TraceWriter(self._span_stream, new_run_id())
        self._pool = WorkerPool(  # spawns nothing until the first submit
            config.jobs,
            timeout_seconds=config.job_timeout_seconds,
            max_respawns=None,
            metrics=self.metrics,
        )
        self._recover()

    def _observe_ms(self, name: str, seconds: float) -> None:
        """Record a latency into its fixed-bucket service histogram."""
        lo, hi, width = SERVE_HISTOGRAMS[name]
        self.metrics.histogram(name, lo=lo, hi=hi, width=width).record(
            int(seconds * 1000)
        )

    # -- recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal, then re-queue everything non-terminal.

        Replay also rebuilds the service counters that describe the
        journal's own history — every replayed retry re-queue bumps
        ``serve.retries`` and every recovery/drain re-queue bumps
        ``serve.requeues`` — so a scrape of ``/metrics`` right after a
        SIGKILL→restart reflects the journal, not a blank registry.
        """
        retry_counter = self.metrics.counter("serve.retries")
        requeue_counter = self.metrics.counter("serve.requeues")
        for record in self._journal.replay():
            event = record["event"]
            if event in ("submitted", "snapshot"):
                job = Job.from_dict(record["job"])
                if job.job_id not in self._table:
                    self._table.add(job)
                else:
                    self._table.apply_raw(
                        job.job_id,
                        job.state,
                        attempts=job.attempts,
                        next_attempt_at=job.next_attempt_at,
                        result=job.result,
                        error=job.error,
                        trace_id=job.trace_id,
                        open_spans=job.open_spans,
                    )
            elif event == "state":
                job_id = record["job_id"]
                if record["state"] == "queued":
                    # A retry re-queue journals its backoff deadline; a
                    # drain re-queue has none.
                    if "next_attempt_at" in record:
                        retry_counter.inc()
                    else:
                        requeue_counter.inc()
                if job_id in self._table:
                    self._table.apply_raw(
                        job_id,
                        record["state"],
                        **{
                            k: record[k]
                            for k in (
                                "attempts",
                                "next_attempt_at",
                                "result",
                                "error",
                                "trace_id",
                                "open_spans",
                            )
                            if k in record
                        },
                    )
            elif event == "recovered":
                requeue_counter.inc()
            # Other events ("drain", ...) are audit-only.
        # Journalled as started but not ended: the previous process
        # died with these in flight; re-queue to resume from their
        # checkpoints.  Replay is the only writer that still knows the
        # open attempt span's id, so it closes it as ``crashed``.
        self._stats["recovered"] = len(
            self._requeue_in_flight_locked(
                "recovered", "crashed", "recovered", recovered=True
            )
        )

    def _requeue_in_flight_locked(
        self, event: str, span_status: str, queued_reason: str, **span_attrs
    ) -> List[str]:
        """Fold every admitted/running job back to ``queued``; returns
        their ids.  ``event`` is journalled before the table changes."""
        requeued = []
        for job in self._table.by_state("admitted", "running"):
            attempt_span = job.open_spans.pop("attempt", "")
            if attempt_span:
                self.spans.end_span(
                    attempt_span, job.trace_id, span_status,
                    job_id=job.job_id, **span_attrs,
                )
            if job.trace_id and "job" in job.open_spans:
                job.open_spans["queued"] = self.spans.start_span(
                    "queued",
                    job.trace_id,
                    job.open_spans["job"],
                    job_id=job.job_id,
                    reason=queued_reason,
                )
            self._journal.append(event, job_id=job.job_id, state="queued")
            self._table.set_state(job.job_id, "queued")
            self.metrics.counter("serve.requeues").inc()
            requeued.append(job.job_id)
        return requeued

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "PartitionService":
        """Spin up the scheduler thread (it owns the pool)."""
        with self._lock:
            if self._scheduler is not None:
                raise RuntimeError("service already started")
            self._scheduler = threading.Thread(
                target=self._scheduler_loop,
                name="fpart-serve-scheduler",
                daemon=True,
            )
            self._scheduler.start()
        return self

    def close(self) -> None:
        """Immediate shutdown (no grace); prefer :meth:`drain`."""
        self._stop_scheduler(join_seconds=10.0)
        with self._lock:
            self._journal.close()
            self._close_spans_locked()

    def _stop_scheduler(self, join_seconds: float) -> None:
        """Stop the scheduler thread, which closes the pool on exit."""
        with self._lock:
            self._closed = True
        self._pool.wakeup()
        if self._scheduler is not None:
            self._scheduler.join(timeout=join_seconds)
            self._scheduler = None
        else:
            self._pool.close()  # never started: only the wakeup pipe

    def drain(self, timeout: Optional[float] = None) -> Dict:
        """Graceful shutdown: stop admitting, give runners a grace
        period, re-queue the rest (journalled), compact the journal.

        Returns a summary dict for logging.  Safe to call from a signal
        handler path (sets flags; the blocking wait happens here, not in
        the handler).
        """
        grace = self.config.drain_seconds if timeout is None else timeout
        with self._lock:
            self._draining = True
            self._journal.append("drain", grace_seconds=grace)
        self.wait_for(
            lambda: not self._table.by_state("running", "admitted"), grace
        )
        self._stop_scheduler(join_seconds=max(grace, 5.0))
        with self._lock:
            # Anything still non-terminal goes back to queued for the
            # next daemon generation; checkpoints make the handoff
            # lossless.
            requeued = self._requeue_in_flight_locked(
                "state", "requeued", "drain", reason="drain"
            )
            self._compact_locked()
            self._journal.close()
            self._close_spans_locked()
        counts = self.counts()
        return {"requeued": requeued, "counts": counts}

    def _close_spans_locked(self) -> None:
        """Close the span log; a span opened after this is dropped."""
        self.spans = NULL_TRACE
        if self._span_stream is not None:
            self._span_stream.close()
            self._span_stream = None

    def _compact_locked(self) -> None:
        self._journal.compact(
            {"job": job.to_dict()} for job in self._table.jobs()
        )

    # -- submission ------------------------------------------------------

    def submit(
        self, payload: Dict, force: bool = False, trace_id: str = ""
    ) -> Dict:
        """Handle one submission; returns an HTTP-shaped response dict.

        Response keys: ``status`` (HTTP code), plus either a job view
        (201 created / 200 attached-or-cached, with ``dedup`` saying
        which) or an error (+ ``retry_after`` on 429).

        ``trace_id`` is the request's correlation id (the HTTP layer
        mints one or accepts ``X-Trace-Id``); an accepted job adopts it
        for life — journal records, worker trace, run store entry and
        the job's span tree all carry it.
        """
        trace_id = trace_id or new_trace_id()
        try:
            spec = JobSpec.from_dict(payload)
            digest = submission_digest(
                spec.netlist, spec.device, spec.delta, spec.config
            )
        except (JobError, ValueError, KeyError, TypeError) as error:
            self.metrics.counter(
                "serve.rejected", labels={"code": "400"}
            ).inc()
            return {"status": 400, "error": str(error)}
        except FileNotFoundError as error:
            self.metrics.counter(
                "serve.rejected", labels={"code": "404"}
            ).inc()
            return {"status": 404, "error": str(error)}

        with self._lock:
            self._stats["submissions"] += 1
            self.metrics.counter("serve.submissions").inc()
            if not force:
                twin = self._table.find_digest(digest)
                # A failed or cancelled twin has no result to serve and
                # no work to attach to — resubmission starts fresh.
                if twin is not None and twin.state not in (
                    "failed", "cancelled",
                ):
                    # Attach to the in-flight twin or serve the cached
                    # terminal result; either way the pool sees nothing.
                    self._stats["deduped"] += 1
                    self.metrics.counter("serve.dedup_hits").inc()
                    return {
                        "status": 200,
                        "dedup": (
                            "cached" if twin.terminal else "in_flight"
                        ),
                        "job": twin.to_dict(),
                    }
            admission_span = self.spans.start_span(
                "admission", trace_id, "", tenant=spec.tenant
            )
            decision = self._admission.decide(
                spec.tenant,
                queue_depth=len(self._table.by_state("queued", "admitted")),
                active_by_tenant=self._table.active_by_tenant(),
                draining=self._draining,
            )
            if not decision.accepted:
                self._stats["rejected"] += 1
                self.metrics.counter(
                    "serve.rejected",
                    labels={"code": str(decision.http_status)},
                ).inc()
                self.spans.end_span(
                    admission_span, trace_id, "rejected",
                    code=decision.http_status, reason=decision.reason,
                )
                response = {
                    "status": decision.http_status,
                    "error": decision.reason,
                }
                if decision.retry_after is not None:
                    response["retry_after"] = decision.retry_after
                return response
            clamped = self._admission.clamp_config(spec.tenant, spec.config)
            if clamped != spec.config:
                spec = JobSpec.from_dict({**spec.to_dict(), "config": clamped})
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                spec=spec,
                digest=digest,
                max_attempts=self.config.max_attempts,
                trace_id=trace_id,
            )
            self.spans.end_span(
                admission_span, trace_id, "accepted", job_id=job.job_id
            )
            # The job's root span plus its first queued wait; their ids
            # ride ``open_spans`` into the journalled job dict so any
            # daemon generation can close them.
            root = self.spans.start_span(
                "job", trace_id, "",
                job_id=job.job_id, tenant=spec.tenant, digest=digest,
            )
            job.open_spans["job"] = root
            job.open_spans["queued"] = self.spans.start_span(
                "queued", trace_id, root, job_id=job.job_id
            )
            # Write-ahead: journal first, then mutate the table.
            self._journal.append("submitted", job=job.to_dict())
            self._table.add(job)
        self._pool.wakeup()
        return {"status": 201, "dedup": None, "job": job.to_dict()}

    def cancel(self, job_id: str) -> Dict:
        with self._lock:
            try:
                job = self._table.get(job_id)
            except JobError as error:
                return {"status": 404, "error": str(error)}
            if job.terminal:
                return {"status": 409, "error": f"job is {job.state}"}
            self._journal.append("state", job_id=job_id, state="cancelled")
            self._table.set_state(job_id, "cancelled")
            self._close_job_spans_locked(job, "cancelled")
            self._changed.notify_all()
        self._pool.wakeup()
        return {"status": 200, "job": job.to_dict()}

    def _close_job_spans_locked(self, job: Job, status: str) -> None:
        """Close every open span of a job hitting a terminal state."""
        for role in ("queued", "attempt"):
            span_id = job.open_spans.pop(role, "")
            if span_id:
                self.spans.end_span(
                    span_id, job.trace_id, status, job_id=job.job_id
                )
        root = job.open_spans.pop("job", "")
        if root:
            self.spans.end_span(
                root, job.trace_id, status, job_id=job.job_id
            )
            self._observe_ms(
                "serve.submit_to_terminal_ms", time.time() - job.created
            )

    # -- inspection ------------------------------------------------------

    def job(self, job_id: str) -> Dict:
        with self._lock:
            try:
                return {"status": 200, "job": self._table.get(job_id).to_dict()}
            except JobError as error:
                return {"status": 404, "error": str(error)}

    def jobs(self) -> List[Dict]:
        with self._lock:
            return [job.to_dict() for job in self._table.jobs()]

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def result(self, job_id: str) -> Dict:
        """Full result payload (assignment included) from result.json."""
        with self._lock:
            try:
                job = self._table.get(job_id)
            except JobError as error:
                return {"status": 404, "error": str(error)}
            state = job.state
        path = self.job_dir(job_id) / "result.json"
        if not path.exists():
            return {
                "status": 409,
                "error": f"job is {state}; no result on disk yet",
            }
        with open(path, "r", encoding="utf-8") as stream:
            return {"status": 200, "result": json.load(stream)}

    def job_profile(self, job_id: str) -> Dict:
        """The profile-on-slow capture of a job, as folded stacks.

        200 carries the folded text plus the correlation metadata from
        the capture's comment header (trace_id included); 404 when the
        job is unknown or no attempt crossed the slow threshold.  The
        capture is read from disk on every request — it survives daemon
        restarts exactly like results do.
        """
        with self._lock:
            if job_id not in self._table:
                return {"status": 404, "error": f"unknown job: {job_id}"}
        path = self.profiles_dir / f"{job_id}.folded"
        if not path.exists():
            threshold = self.config.prof_slow_ms
            return {
                "status": 404,
                "error": (
                    "no profile captured for this job"
                    + (
                        f" (slow threshold {threshold:g} ms)"
                        if threshold is not None
                        else " (profile-on-slow is off; start the daemon "
                        "with --prof-slow-ms)"
                    )
                ),
            }
        folded = path.read_text(encoding="utf-8")
        meta: Dict[str, str] = {}
        for line in folded.splitlines():
            if not line.startswith("# "):
                break
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        return {
            "status": 200,
            "job_id": job_id,
            "trace_id": meta.get("trace_id", ""),
            "run_id": meta.get("run_id", ""),
            "attempt": meta.get("attempt", ""),
            "wall_seconds": meta.get("wall_seconds", ""),
            "samples": meta.get("samples", ""),
            "folded": folded,
        }

    def wait_for(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        """Wait until ``predicate()`` holds (returns its last value).

        It runs under the service lock, re-checked whenever a job enters
        or leaves ``running`` and when ``timeout`` runs out."""
        with self._changed:
            return self._changed.wait_for(predicate, timeout)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return self._table.counts()

    def stats(self) -> Dict:
        with self._lock:
            stats = dict(self._stats)
            stats["counts"] = self._table.counts()
            stats["draining"] = self._draining
            return stats

    def openmetrics(self) -> str:
        """The live ``GET /metrics`` document (OpenMetrics text).

        Point-in-time gauges (queue depth, active jobs, per-tenant
        quota usage, draining flag) are refreshed from the job table at
        render time — they describe *now*, unlike the counters and
        histograms which accumulate as events happen.  With
        observability disabled the registry is the null one and the
        document is just its ``# EOF`` terminator — still valid, so
        scrapers never see a 404 flip on a config change.
        """
        with self._lock:
            if self.metrics.enabled:
                counts = self._table.counts()
                self.metrics.gauge("serve.queue_depth").set(
                    counts["queued"] + counts["admitted"]
                )
                self.metrics.gauge("serve.active_jobs").set(
                    counts["running"]
                )
                self.metrics.gauge("serve.draining").set(
                    1.0 if self._draining else 0.0
                )
                # Zero every previously seen tenant first: a tenant
                # whose jobs all finished must read 0, not its stale
                # last value.
                for key, gauge in self.metrics._gauges.items():
                    if key.startswith("serve.tenant_active_jobs{"):
                        gauge.set(0.0)
                for tenant, active in sorted(
                    self._table.active_by_tenant().items()
                ):
                    self.metrics.gauge(
                        "serve.tenant_active_jobs",
                        labels={"tenant": tenant},
                    ).set(active)
            snapshot = self.metrics.snapshot()
        return to_openmetrics(snapshot)

    def healthz(self) -> Dict:
        """Liveness: the process is up and its lock is not wedged."""
        with self._lock:
            return {"status": 200, "ok": True, "draining": self._draining}

    def readyz(self) -> Dict:
        """Readiness: accepting work (not draining, scheduler alive)."""
        with self._lock:
            scheduler_alive = (
                self._scheduler is not None and self._scheduler.is_alive()
            )
            ready = scheduler_alive and not self._draining and not self._closed
            return {
                "status": 200 if ready else 503,
                "ready": ready,
                "draining": self._draining,
            }

    # -- test seams ------------------------------------------------------

    def pause_scheduler(self) -> None:
        """Stop admitting queued jobs (jobs pile up; HTTP stays live)."""
        with self._lock:
            self._paused = True

    def resume_scheduler(self) -> None:
        with self._lock:
            self._paused = False
        self._pool.wakeup()

    # -- scheduler (single thread owns the pool) -------------------------

    def _scheduler_loop(self) -> None:
        pool = self._pool
        try:
            while True:
                with self._lock:
                    if self._closed:
                        break
                    self._admit_due_locked(pool)
                    retry_in = self._retry_wait_locked()
                outcomes = pool.poll(timeout=retry_in)
                with self._changed:
                    for outcome in outcomes:
                        self._handle_outcome_locked(outcome)
                    if outcomes:
                        self._changed.notify_all()
                    # Jobs cancelled HTTP-side still hold a worker.
                    doomed = [
                        index
                        for index, job_id in self._index_to_job.items()
                        if self._table.get(job_id).state == "cancelled"
                    ]
                for index in doomed:
                    pool.kill(index)
        finally:
            pool.close()

    def _retry_wait_locked(self) -> Optional[float]:
        """Seconds until the earliest future retry is due, or ``None``.

        A due job held back by full slots needs no timer: only an
        outcome frees a slot, and an outcome ends the wait itself."""
        if self._paused or self._draining:
            return None
        now = time.time()
        future = [
            job.next_attempt_at
            for job in self._table.by_state("queued")
            if job.next_attempt_at > now
        ]
        return min(future) - now if future else None

    def _admit_due_locked(self, pool: WorkerPool) -> None:
        """Move due queued jobs into the pool (lock held)."""
        if self._paused or self._draining:
            return
        now = time.time()
        free = self.config.jobs - len(self._index_to_job)
        if free <= 0:
            return
        for job in self._table.by_state("queued"):
            if free <= 0:
                break
            if job.next_attempt_at > now:
                continue
            index = self._next_index
            self._next_index += 1
            attempt = job.attempts + 1
            spec = job.spec
            sleep = 0.0
            crashes = 0
            if self.config.allow_test_hooks:
                sleep = float(spec.config.get("test_sleep_seconds", 0.0))
                crashes = int(spec.config.get("test_crash_attempts", 0))
            overrides = {
                k: v
                for k, v in spec.config.items()
                if k not in ("test_sleep_seconds", "test_crash_attempts")
            }
            # Spans: the queued wait ends here, the attempt begins; its
            # id crosses the process boundary as a plain kwarg so the
            # worker's ``partition-run`` span parents under it.
            queued_span = job.open_spans.pop("queued", "")
            if queued_span:
                wait = max(now - job.updated, 0.0)
                self.spans.end_span(
                    queued_span, job.trace_id, "admitted",
                    job_id=job.job_id, wait_ms=round(wait * 1000, 1),
                )
                self._observe_ms("serve.queue_wait_ms", wait)
            attempt_span = ""
            if job.trace_id:
                attempt_span = self.spans.start_span(
                    f"attempt[{attempt}]",
                    job.trace_id,
                    job.open_spans.get("job", ""),
                    job_id=job.job_id,
                )
                job.open_spans["attempt"] = attempt_span
            task = ParallelTask(
                index=index,
                fn=run_partition_job,
                kwargs={
                    "job_id": job.job_id,
                    "attempt": attempt,
                    "netlist": spec.netlist,
                    "device_name": spec.device,
                    "delta": spec.delta,
                    "config_overrides": overrides,
                    "job_dir": str(self.job_dir(job.job_id)),
                    "runs_dir": str(self.runs_dir),
                    "tenant": spec.tenant,
                    "test_sleep_seconds": sleep,
                    "test_crash_attempts": crashes,
                    "trace_id": job.trace_id,
                    "parent_span_id": attempt_span,
                    "prof_slow_ms": self.config.prof_slow_ms,
                    "profiles_dir": str(self.profiles_dir),
                },
                label=f"job {job.job_id} attempt {attempt}",
            )
            # Write-ahead, then table, then pool.  ``admitted`` marks
            # the job as owned by the scheduler; ``running`` that the
            # pool holds it (the distinction matters only to observers
            # — recovery folds both back to ``queued``).  The open span
            # ids ride the event so a post-SIGKILL replay can close the
            # attempt span as ``crashed``.
            self._journal.append(
                "state", job_id=job.job_id, state="admitted",
                attempts=attempt, open_spans=dict(job.open_spans),
            )
            self._table.set_state(job.job_id, "admitted", attempts=attempt)
            pool.submit(task)
            self._journal.append("state", job_id=job.job_id, state="running")
            self._table.set_state(job.job_id, "running")
            self._index_to_job[index] = job.job_id
            self._stats["tasks_submitted"] += 1
            free -= 1
            self._changed.notify_all()

    def _handle_outcome_locked(self, outcome: TaskOutcome) -> None:
        """Apply one pool outcome to the job table (lock held)."""
        job_id = self._index_to_job.pop(outcome.index, None)
        if job_id is None:
            return
        job = self._table.get(job_id)
        if job.state == "cancelled":
            # The kill we requested (or a stale completion racing a
            # cancel): the terminal state already stands.
            return
        # The attempt span closes with the pool's verdict whatever
        # it is — a worker that died mid-span cannot close it, so
        # the daemon does (status ``crashed``/``timeout``).
        attempt_span = job.open_spans.pop("attempt", "")
        if attempt_span:
            self.spans.end_span(
                attempt_span, job.trace_id, outcome.status,
                job_id=job_id,
                wall_ms=round(outcome.wall_seconds * 1000, 1),
            )
        self._observe_ms("serve.attempt_wall_ms", outcome.wall_seconds)
        if outcome.status == "ok":
            summary = outcome.value
            state = (
                "done" if summary.get("status") == "feasible" else "degraded"
            )
            self._journal.append(
                "state", job_id=job_id, state=state, result=summary
            )
            self._table.set_state(job_id, state, result=summary)
            self._stats["completed"] += 1
            self.metrics.counter("serve.completed").inc()
            if summary.get("profile_captured"):
                self.metrics.counter("serve.profiles_captured").inc()
            self._close_job_spans_locked(job, state)
            return
        if outcome.status == "error":
            # The job itself raised: deterministic, retry would fail
            # the same way.
            self._journal.append(
                "state", job_id=job_id, state="failed", error=outcome.error
            )
            self._table.set_state(job_id, "failed", error=outcome.error)
            self._close_job_spans_locked(job, "failed")
            return
        # crashed / timeout / not_run: the environment failed, not
        # the job.  Retry with backoff until attempts run out, then
        # degrade to the checkpoint's best-so-far if one exists.
        if job.attempts < job.max_attempts:
            delay = self.config.retry_backoff.delay(
                job.attempts - 1, key=job_id
            )
            next_at = time.time() + delay
            if job.trace_id and "job" in job.open_spans:
                job.open_spans["queued"] = self.spans.start_span(
                    "queued",
                    job.trace_id,
                    job.open_spans["job"],
                    job_id=job_id,
                    reason=outcome.status,
                    retry_delay_ms=round(delay * 1000, 1),
                )
            self._journal.append(
                "state",
                job_id=job_id,
                state="queued",
                next_attempt_at=next_at,
                error=outcome.error,
                open_spans=dict(job.open_spans),
            )
            self._table.set_state(
                job_id, "queued", next_attempt_at=next_at,
                error=outcome.error,
            )
            self._stats["retries"] += 1
            self.metrics.counter("serve.retries").inc()
            self._observe_ms("serve.retry_delay_ms", delay)
        else:
            summary = self._best_so_far(job_id)
            if summary is not None:
                state = "degraded"
                error = (
                    f"{outcome.status} after {job.attempts} attempts; "
                    f"serving checkpoint best-so-far"
                )
            else:
                state = "failed"
                error = (
                    f"{outcome.status} after {job.attempts} attempts "
                    f"with no checkpoint to degrade to"
                )
            self._journal.append(
                "state", job_id=job_id, state=state,
                result=summary, error=error,
            )
            self._table.set_state(
                job_id, state, result=summary, error=error
            )
            self._close_job_spans_locked(job, state)

    def _best_so_far(self, job_id: str) -> Optional[Dict]:
        """Best-so-far summary from the job's checkpoint, if loadable."""
        path = self.job_dir(job_id) / "checkpoint.json"
        manager = CheckpointManager(path, every=1)
        if not manager.exists():
            return None
        try:
            state = manager.load()
        except CheckpointError:
            return None
        if not state.best_assignment:
            return None
        return {
            "status": "budget_exhausted",
            "num_devices": state.best_num_blocks,
            "iterations": state.iteration,
            "from_checkpoint": True,
        }
