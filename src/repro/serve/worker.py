"""The in-worker job runner for the partitioning service.

:func:`run_partition_job` is the module-level, picklable function the
daemon submits to its persistent :class:`~repro.parallel.pool.WorkerPool`.
It owns everything that must happen *inside* the worker process for one
attempt of one job:

* load the netlist (same extension autodetection as the CLI);
* materialise the config from the job's overrides over
  ``DEFAULT_CONFIG``;
* **always checkpoint, every iteration** — the service's recovery story
  is the repo's existing bit-identical checkpoint/resume contract, so a
  job whose worker (or whole daemon) is SIGKILL'd resumes from its last
  completed iteration and still produces the exact assignment a clean
  run would;
* resume from an existing checkpoint when one is present (a corrupt
  checkpoint falls back to a fresh run — availability over history);
* stream ``progress`` heartbeats into the job's ``trace.jsonl``, which
  the HTTP layer tails for chunked-JSONL job streaming;
* record the finished attempt through :meth:`RunStore.record
  <repro.obs.runstore.RunStore.record>` like every other producer: the
  store record holds the metrics snapshot, ``phases.txt`` and copies of
  the job's ``trace.jsonl`` and slow profile, which stay where the
  daemon reads them;
* write the full assignment to ``result.json`` atomically.

The return value is a compact JSON-safe summary — the daemon keeps it
in the job table and journals it; the heavyweight assignment stays on
disk next to the job.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..core.checkpoint import CheckpointManager
from ..core.config import DEFAULT_CONFIG, FpartConfig
from ..core.device import device_by_name
from ..core.exceptions import CheckpointError
from ..core.fpart import FpartPartitioner
from ..hypergraph.io import load_netlist
from ..obs.progress import HeartbeatEmitter
from ..obs.runstore import (
    RunRecord,
    RunStore,
    atomic_write_text,
    run_metrics,
)
from ..obs.trace import TraceWriter, cost_fields

__all__ = ["run_partition_job", "job_config"]


def job_config(overrides: Dict[str, Any]) -> FpartConfig:
    """Config for one job: client overrides applied over the default."""
    if not overrides:
        return DEFAULT_CONFIG
    known = {f.name for f in dataclasses.fields(FpartConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)


def _write_result_json(job_dir: Path, payload: Dict) -> None:
    tmp = job_dir / "result.json.tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, sort_keys=True)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, job_dir / "result.json")


def run_partition_job(
    job_id: str,
    attempt: int,
    netlist: str,
    device_name: str,
    delta: float,
    config_overrides: Dict[str, Any],
    job_dir: str,
    runs_dir: Optional[str] = None,
    tenant: str = "default",
    test_sleep_seconds: float = 0.0,
    test_crash_attempts: int = 0,
    trace_id: str = "",
    parent_span_id: str = "",
    prof_slow_ms: Optional[float] = None,
    profiles_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one attempt of one job; returns a JSON-safe summary.

    The two ``test_*`` parameters are fault-injection seams, forwarded
    by the service only when it runs with test hooks enabled:
    ``test_sleep_seconds`` holds a job in ``running`` long enough for
    the kill/restart tests to SIGKILL the daemon deterministically;
    ``test_crash_attempts`` makes the worker die (``os._exit``) on the
    first N attempts, exercising the retry-with-backoff path.

    ``trace_id``/``parent_span_id`` carry the service correlation id
    across the ``multiprocessing`` boundary (see ``repro.obs.spans``):
    the attempt's trace stream opens a ``partition-run`` span parented
    under the daemon's attempt span, and the run-store record is
    labelled with the trace id — the last two of the four surfaces one
    correlation id joins.  A worker killed mid-run leaves the span
    open; the daemon closes it service-side as ``crashed``.

    ``prof_slow_ms`` enables profile-on-slow: the attempt runs under
    the sampling profiler (read-only observer — assignments are
    unaffected) and the folded stacks are kept in
    ``<profiles_dir>/<job_id>.folded`` only when the attempt's wall
    exceeds the threshold.  The capture is stamped with the job's
    trace_id in a comment header and reported in the returned summary
    (``profile_captured``) so the daemon can count it and serve it at
    ``GET /jobs/<id>/profile``.
    """
    if attempt <= test_crash_attempts:
        os._exit(17)
    if test_sleep_seconds > 0:
        time.sleep(test_sleep_seconds)

    directory = Path(job_dir)
    directory.mkdir(parents=True, exist_ok=True)
    hg = load_netlist(netlist)
    device = device_by_name(device_name).with_delta(delta)
    config = job_config(config_overrides)

    # Every serve job checkpoints every iteration: the checkpoint IS the
    # recovery mechanism, and its resume path is bit-identical (PR 2).
    checkpoint = CheckpointManager(directory / "checkpoint.json", every=1)
    resumed = False
    if checkpoint.exists():
        try:
            checkpoint.load()
            resumed = True
        except CheckpointError:
            # Unreadable checkpoint: start over rather than fail the job.
            resumed = False

    run_id = f"{job_id[:8]}a{attempt}"
    trace_path = directory / "trace.jsonl"
    tracer = TraceWriter(trace_path, run_id=run_id)
    metrics = run_metrics(runs_dir)
    heartbeat = HeartbeatEmitter(tracer=tracer, interval_seconds=0.5)
    run_span = ""
    if trace_id:
        run_span = tracer.start_span(
            "partition-run", trace_id, parent_span_id,
            job_id=job_id, attempt=attempt,
        )
    sampler = None
    if prof_slow_ms is not None:
        from ..obs.prof import PROF_DEFAULT_HZ, SamplingProfiler

        sampler = SamplingProfiler(hz=PROF_DEFAULT_HZ).start()
    started = time.monotonic()
    try:
        result = FpartPartitioner(
            hg,
            device,
            config,
            keep_trace=False,
            checkpoint=checkpoint,
            run_id=run_id,
            metrics=metrics,
            tracer=tracer,
            heartbeat=heartbeat,
        ).run()
        if run_span:
            tracer.end_span(run_span, trace_id, result.status)
    finally:
        tracer.close()
        if sampler is not None:
            sampler.stop()
    wall = time.monotonic() - started

    profile = None
    if sampler is not None and wall * 1000.0 >= prof_slow_ms:
        profile = _capture_profile(
            sampler, profiles_dir or str(directory), job_id, attempt,
            run_id, trace_id, wall,
        )

    cost = cost_fields(result.cost) if result.cost is not None else None
    if runs_dir is not None:
        RunStore(runs_dir).record(
            RunRecord.for_fpart(
                result,
                run_id,
                config,
                labels={
                    "job": job_id,
                    "attempt": str(attempt),
                    "tenant": tenant,
                    **({"trace_id": trace_id} if trace_id else {}),
                },
            ),
            metrics,
            trace=trace_path,
            profile=profile,
        )

    _write_result_json(
        directory,
        {
            "job_id": job_id,
            "attempt": attempt,
            "run_id": run_id,
            "trace_id": trace_id,
            "status": result.status,
            "circuit": result.circuit,
            "device": result.device,
            "num_devices": result.num_devices,
            "lower_bound": result.lower_bound,
            "feasible": result.feasible,
            "cost": cost,
            "iterations": result.iterations,
            "wall_seconds": result.runtime_seconds,
            "assignment": list(result.assignment)
            if result.assignment is not None
            else None,
            "error": result.error,
            "resumed": resumed,
        },
    )
    return {
        "run_id": run_id,
        "status": result.status,
        "num_devices": result.num_devices,
        "lower_bound": result.lower_bound,
        "feasible": result.feasible,
        "cost": cost,
        "iterations": result.iterations,
        "wall_seconds": round(wall, 3),
        "resumed": resumed,
        "attempt": attempt,
        "profile_captured": profile is not None,
    }


def _capture_profile(
    sampler,
    profiles_dir: str,
    job_id: str,
    attempt: int,
    run_id: str,
    trace_id: str,
    wall: float,
) -> Optional[Path]:
    """Persist a slow attempt's folded stacks; returns the file or None.

    The file is keyed by job (the latest slow attempt wins — that is
    the one worth looking at) and carries the correlation metadata as
    ``#`` comment lines, which every folded-stack consumer (including
    :func:`repro.obs.prof.parse_folded`) skips.  Best-effort: a capture
    failure never fails a finished attempt.
    """
    try:
        directory = Path(profiles_dir)
        directory.mkdir(parents=True, exist_ok=True)
        header = (
            f"# job_id: {job_id}\n"
            f"# attempt: {attempt}\n"
            f"# run_id: {run_id}\n"
            f"# trace_id: {trace_id}\n"
            f"# wall_seconds: {wall:.3f}\n"
            f"# samples: {sampler.samples}\n"
            f"# hz: {sampler.hz:g}\n"
        )
        return atomic_write_text(
            directory / f"{job_id}.folded", header + sampler.folded()
        )
    except OSError:
        return None
