"""Service-level observability: spans, /metrics, correlation, recovery.

The ISSUE's acceptance criteria, asserted end to end:

* one correlation id is observable across all four surfaces — the JSON
  access log, the write-ahead journal, the run's JSONL trace span
  events, and the run-store record — for a job submitted over HTTP to
  a real subprocess daemon;
* ``GET /metrics`` passes ``validate_openmetrics`` and, after a
  SIGKILL→restart cycle, the requeue/retry counters reflect the
  replayed journal rather than a blank registry;
* a worker crash mid-span still closes the attempt span (status
  ``crashed``) via the daemon's outcome/recovery paths.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.circuits import generate_circuit
from repro.hypergraph.io import write_hgr
from repro.obs.export import parse_openmetrics, validate_openmetrics
from repro.obs.runstore import RunStore
from repro.obs.spans import build_span_tree
from repro.obs.trace import read_trace
from repro.serve import TERMINAL_STATES, PartitionService, ServiceConfig

from test_serve_recovery import start_daemon, stop_daemon


@pytest.fixture
def netlist_file(tmp_path):
    hg = generate_circuit("obs", num_cells=100, num_ios=20, seed=7)
    path = tmp_path / "obs.hgr"
    write_hgr(hg, path)
    return path


@pytest.fixture
def service(tmp_path):
    svc = PartitionService(
        ServiceConfig(
            state_dir=str(tmp_path / "state"),
            jobs=2,
            allow_test_hooks=True,
        )
    ).start()
    yield svc
    svc.close()


def wait_terminal(service, job_id, timeout=60.0):
    def terminal():
        return service.job(job_id)["job"]["state"] in TERMINAL_STATES

    if not service.wait_for(terminal, timeout):
        raise AssertionError(f"job {job_id} not terminal within {timeout}s")
    return service.job(job_id)["job"]


def sample_value(samples, name):
    for sample_name, _labels, value in samples:
        if sample_name == name:
            return value
    return 0.0


# ---------------------------------------------------------------------------
# in-process: correlation + metrics


class TestInProcessObservability:
    def test_trace_id_flows_to_every_surface(
        self, service, netlist_file, tmp_path
    ):
        trace_id = "feed0123feed0123"
        response = service.submit(
            {"netlist": str(netlist_file)}, trace_id=trace_id
        )
        assert response["status"] == 201
        job_id = response["job"]["job_id"]
        job = wait_terminal(service, job_id)
        assert job["state"] == "done"

        # 1. the job record (journalled — restartable state)
        assert job["trace_id"] == trace_id
        journal = (tmp_path / "state" / "journal.jsonl").read_text()
        assert trace_id in journal

        # 2. the service span log
        span_events = read_trace(tmp_path / "state" / "spans.jsonl")
        assert any(e["trace_id"] == trace_id for e in span_events)
        (root,) = [
            n
            for n in build_span_tree(span_events)
            if n.name == "job" and n.trace_id == trace_id
        ]
        assert root.status == "done"
        assert {c.name for c in root.children} >= {"queued", "attempt[1]"}

        # 3. the worker-side run trace
        trace_lines = (
            (tmp_path / "state" / "jobs" / job_id / "trace.jsonl")
            .read_text()
            .splitlines()
        )
        worker_spans = [
            json.loads(line)
            for line in trace_lines
            if '"span_' in line
        ]
        assert any(
            e["event"] == "span_start" and e["name"] == "partition-run"
            for e in worker_spans
        )
        assert all(e["trace_id"] == trace_id for e in worker_spans)

        # 4. the run store record
        store = RunStore(str(tmp_path / "state" / "runs"))
        (record,) = [
            r
            for r in store.records()
            if r.labels.get("trace_id") == trace_id
        ]
        assert record.labels["job"] == job_id

    def test_metrics_document_is_valid_and_populated(
        self, service, netlist_file
    ):
        response = service.submit({"netlist": str(netlist_file)})
        wait_terminal(service, response["job"]["job_id"])
        text = service.openmetrics()
        assert validate_openmetrics(text) == []
        samples = parse_openmetrics(text)
        assert sample_value(samples, "serve_submissions_total") == 1.0
        assert sample_value(samples, "serve_completed_total") == 1.0
        # Latency histograms observed real values.
        for family in (
            "serve_queue_wait_ms",
            "serve_attempt_wall_ms",
            "serve_submit_to_terminal_ms",
        ):
            assert sample_value(samples, f"{family}_count") >= 1.0

    def test_dedup_and_rejection_counters(self, service, netlist_file):
        first = service.submit({"netlist": str(netlist_file)})
        wait_terminal(service, first["job"]["job_id"])
        again = service.submit({"netlist": str(netlist_file)})
        assert again["status"] == 200
        missing = service.submit({"netlist": str(netlist_file) + ".nope"})
        assert missing["status"] == 404
        samples = parse_openmetrics(service.openmetrics())
        assert sample_value(samples, "serve_dedup_hits_total") == 1.0
        rejected = [
            (labels, value)
            for name, labels, value in samples
            if name == "serve_rejected_total"
        ]
        assert ({"code": "404"}, 1.0) in rejected

    def test_crashed_attempt_closes_span_and_counts_retry(
        self, service, netlist_file, tmp_path
    ):
        response = service.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_crash_attempts": 1},
            }
        )
        job = wait_terminal(service, response["job"]["job_id"])
        assert job["state"] == "done"
        assert job["attempts"] == 2
        samples = parse_openmetrics(service.openmetrics())
        assert sample_value(samples, "serve_retries_total") >= 1.0
        assert sample_value(samples, "serve_retry_delay_ms_count") >= 1.0
        span_events = read_trace(tmp_path / "state" / "spans.jsonl")
        attempts = {
            n.name: n.status
            for root in build_span_tree(span_events)
            for n in root.children
            if n.name.startswith("attempt")
        }
        assert attempts.get("attempt[1]") == "crashed"
        assert attempts.get("attempt[2]") == "ok"

    def test_profile_on_slow_captures_and_serves_folded_stacks(
        self, tmp_path, netlist_file
    ):
        from repro.obs.prof import parse_folded

        svc = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "slow"),
                jobs=1,
                allow_test_hooks=True,
                prof_slow_ms=1.0,  # every real attempt is "slow"
            )
        ).start()
        try:
            trace_id = "beefbeefbeefbeef"
            response = svc.submit(
                {"netlist": str(netlist_file)}, trace_id=trace_id
            )
            job_id = response["job"]["job_id"]
            job = wait_terminal(svc, job_id)
            assert job["state"] == "done"

            profile = svc.job_profile(job_id)
            assert profile["status"] == 200
            assert profile["job_id"] == job_id
            assert profile["trace_id"] == trace_id
            assert float(profile["wall_seconds"]) > 0
            parse_folded(profile["folded"])  # well-formed document
            # The capture survives on disk, keyed by job.
            path = tmp_path / "slow" / "profiles" / f"{job_id}.folded"
            assert path.exists()
            assert f"# trace_id: {trace_id}" in path.read_text()

            samples = parse_openmetrics(svc.openmetrics())
            assert sample_value(samples, "serve_profiles_captured_total") \
                == 1.0

            # Same payload over the HTTP route.
            from urllib.request import urlopen

            from repro.serve import make_server, serve_forever_in_thread

            server = make_server("127.0.0.1", 0, svc)
            serve_forever_in_thread(server)
            try:
                port = server.server_address[1]
                with urlopen(
                    f"http://127.0.0.1:{port}/jobs/{job_id}/profile"
                ) as response:
                    assert response.status == 200
                    payload = json.loads(response.read())
                assert payload["trace_id"] == trace_id
                assert payload["folded"] == profile["folded"]
            finally:
                server.shutdown()
        finally:
            svc.close()

    def test_profile_missing_when_threshold_not_crossed(
        self, tmp_path, netlist_file
    ):
        svc = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "fast"),
                jobs=1,
                allow_test_hooks=True,
                prof_slow_ms=1e9,  # nothing is ever slow enough
            )
        ).start()
        try:
            response = svc.submit({"netlist": str(netlist_file)})
            job_id = response["job"]["job_id"]
            wait_terminal(svc, job_id)
            profile = svc.job_profile(job_id)
            assert profile["status"] == 404
            assert svc.job_profile("no-such-job")["status"] == 404
            samples = parse_openmetrics(svc.openmetrics())
            assert sample_value(
                samples, "serve_profiles_captured_total"
            ) == 0.0
        finally:
            svc.close()

    def test_obs_disabled_pays_nothing_and_stays_scrapable(
        self, tmp_path, netlist_file
    ):
        svc = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "dark"),
                jobs=1,
                allow_test_hooks=True,
                obs_enabled=False,
            )
        ).start()
        try:
            response = svc.submit({"netlist": str(netlist_file)})
            job = wait_terminal(svc, response["job"]["job_id"])
            assert job["state"] == "done"
            assert not (tmp_path / "dark" / "spans.jsonl").exists()
            text = svc.openmetrics()
            assert validate_openmetrics(text) == []
            assert parse_openmetrics(text) == []
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# subprocess daemon: the four surfaces over real HTTP


class TestDaemonObservability:
    def test_correlation_id_joins_all_four_surfaces(
        self, tmp_path, netlist_file
    ):
        state_dir = tmp_path / "state"
        trace_id = "beef4444beef4444"
        process, client = start_daemon(state_dir)
        try:
            response = client.submit(
                {"netlist": str(netlist_file)}, trace_id=trace_id
            )
            assert response["status"] == 201
            job_id = response["job"]["job_id"]
            job = client.wait(job_id, timeout=90.0)
            assert job["state"] == "done"
            assert job["trace_id"] == trace_id

            # Live /metrics from the daemon validates and saw the job.
            text = client.metrics_text()
            assert validate_openmetrics(text) == []
            samples = parse_openmetrics(text)
            assert (
                sample_value(samples, "serve_submit_to_terminal_ms_count")
                >= 1.0
            )
        finally:
            stop_daemon(process)

        # surface 1: JSON access log
        access = [
            json.loads(line)
            for line in (state_dir / "access.jsonl")
            .read_text()
            .splitlines()
        ]
        submits = [
            a
            for a in access
            if a["path"] == "/jobs" and a["method"] == "POST"
        ]
        assert any(a["trace_id"] == trace_id for a in submits)
        assert all(
            {"method", "path", "status", "duration_ms", "trace_id"}
            <= set(a)
            for a in access
        )

        # surface 2: write-ahead journal
        assert trace_id in (state_dir / "journal.jsonl").read_text()

        # surface 3: the run's trace span events
        trace_events = [
            json.loads(line)
            for line in (state_dir / "jobs" / job_id / "trace.jsonl")
            .read_text()
            .splitlines()
        ]
        spans = [
            e
            for e in trace_events
            if e["event"] in ("span_start", "span_end")
        ]
        assert spans and all(e["trace_id"] == trace_id for e in spans)

        # surface 4: the run store record
        store = RunStore(str(state_dir / "runs"))
        assert any(
            r.labels.get("trace_id") == trace_id for r in store.records()
        )

    def test_sigkill_restart_counters_reflect_replayed_journal(
        self, tmp_path, netlist_file
    ):
        state_dir = tmp_path / "state"
        process, client = start_daemon(state_dir)
        job_id = None
        try:
            response = client.submit(
                {
                    "netlist": str(netlist_file),
                    "config": {"test_sleep_seconds": 30.0},
                }
            )
            assert response["status"] == 201
            job_id = response["job"]["job_id"]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if client.job(job_id)["job"]["state"] == "running":
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("job never started running")
        finally:
            os.kill(process.pid, signal.SIGKILL)
            stop_daemon(process)

        # Second generation: recovery re-queues the orphaned job and the
        # metrics registry is rebuilt *from the journal*, not zeroed.
        process, client = start_daemon(state_dir)
        try:
            samples = parse_openmetrics(client.metrics_text())
            assert sample_value(samples, "serve_requeues_total") >= 1.0
            job = client.wait(job_id, timeout=120.0)
            assert job["state"] == "done"
        finally:
            stop_daemon(process)

        # The attempt span orphaned by the SIGKILL was closed as
        # ``crashed`` by recovery — no span leaks across generations.
        span_events = read_trace(state_dir / "spans.jsonl")
        crashed = [
            e
            for e in span_events
            if e["event"] == "span_end" and e.get("status") == "crashed"
        ]
        assert crashed
