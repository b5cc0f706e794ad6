"""Unit and in-process integration tests for ``repro.serve``.

Covers the journal's durability/replay semantics, the job state
machine, admission control, idempotent submission digests, and the full
service lifecycle (submit → run → done, dedup with zero recomputation,
crash retry with backoff, degraded fallback, cancel, drain, saturation
429 + Retry-After with a live /healthz) — everything that does not need
a separate daemon process.  Kill/restart recovery of a real subprocess
daemon lives in ``test_serve_recovery.py``.
"""

from __future__ import annotations

import http.server
import json
import statistics
import threading
import time

import pytest

from repro.circuits import generate_circuit
from repro.core.runguard import RunBudget
from repro.hypergraph.io import write_hgr
from repro.serve import (
    AdmissionController,
    Job,
    JobError,
    JobSpec,
    JobTable,
    Journal,
    JournalError,
    PartitionService,
    ServeClient,
    ServiceConfig,
    TERMINAL_STATES,
    TenantPolicy,
    make_server,
    serve_forever_in_thread,
    submission_digest,
)


# ---------------------------------------------------------------------------
# journal


class TestJournal:
    def test_append_and_replay_roundtrip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("submitted", job_id="a")
        journal.append("state", job_id="a", state="running")
        journal.close()
        events = Journal(tmp_path / "j.jsonl").replay()
        assert [e["event"] for e in events] == ["submitted", "state"]
        assert [e["seq"] for e in events] == [1, 2]

    def test_seq_continues_after_replay(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("a")
        journal.append("b")
        journal.close()
        reopened = Journal(tmp_path / "j.jsonl")
        reopened.replay()
        record = reopened.append("c")
        reopened.close()
        assert record["seq"] == 3

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        journal.close()
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"schema": 1, "seq": 3, "event": "tor')
        events = Journal(path).replay()
        assert [e["event"] for e in events] == ["a", "b"]

    def test_append_after_torn_tail_does_not_corrupt(self, tmp_path):
        # Replay must truncate the torn fragment so the first
        # post-recovery append starts at a line boundary; otherwise the
        # *next* restart finds a merged, non-trailing corrupt line.
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append("a")
        journal.close()
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"schema": 1, "seq": 2, "event": "tor')
        recovered = Journal(path)
        assert [e["event"] for e in recovered.replay()] == ["a"]
        recovered.append("recovered")
        recovered.close()
        events = Journal(path).replay()
        assert [e["event"] for e in events] == ["a", "recovered"]

    def test_unterminated_parseable_tail_is_dropped(self, tmp_path):
        # Even a fragment that happens to parse is unacknowledged if the
        # newline never hit the disk.
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append("a")
        journal.close()
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"schema": 1, "seq": 2, "event": "unacked"}')
        events = Journal(path).replay()
        assert [e["event"] for e in events] == ["a"]

    def test_corrupt_final_terminated_line_raises(self, tmp_path):
        # A newline-terminated line was acknowledged; damage to it is
        # real corruption, not a torn tail, and must not be dropped.
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        journal.close()
        lines = path.read_text().splitlines()
        lines[-1] = "garbage {{{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            Journal(path).replay()

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        journal.close()
        lines = path.read_text().splitlines()
        lines[0] = "garbage {{{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            Journal(path).replay()

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"schema": 99, "seq": 1, "event": "x"}\n')
        with pytest.raises(JournalError, match="schema"):
            Journal(path).replay()

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").replay() == []

    def test_compact_rewrites_atomically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        for i in range(10):
            journal.append("state", job_id="a", state="queued", i=i)
        journal.compact([{"job": {"job_id": "a"}}])
        events = Journal(path).replay()
        assert len(events) == 1
        assert events[0]["event"] == "snapshot"
        assert not (tmp_path / "j.jsonl.tmp").exists()


# ---------------------------------------------------------------------------
# job model


def make_job(job_id="j1", state="queued", **spec_overrides):
    spec = JobSpec(netlist="c.hgr", **spec_overrides)
    return Job(job_id=job_id, spec=spec, digest="d" * 16, state=state)


class TestJobStateMachine:
    def test_happy_path_transitions(self):
        table = JobTable()
        table.add(make_job())
        table.set_state("j1", "admitted")
        table.set_state("j1", "running")
        job = table.set_state("j1", "done", result={"status": "feasible"})
        assert job.terminal

    def test_illegal_transition_rejected(self):
        table = JobTable()
        table.add(make_job())
        with pytest.raises(JobError, match="illegal transition"):
            table.set_state("j1", "done")

    def test_terminal_states_are_final(self):
        table = JobTable()
        table.add(make_job(state="cancelled"))
        with pytest.raises(JobError, match="illegal transition"):
            table.set_state("j1", "queued")

    def test_running_can_requeue_for_retry(self):
        table = JobTable()
        table.add(make_job(state="running"))
        job = table.set_state("j1", "queued", next_attempt_at=123.0)
        assert job.state == "queued"
        assert job.next_attempt_at == 123.0

    def test_replay_apply_raw_skips_validation(self):
        table = JobTable()
        table.add(make_job(state="done"))
        table.apply_raw("j1", "queued")  # replay trusts the journal
        assert table.get("j1").state == "queued"

    def test_spec_validation(self):
        with pytest.raises(JobError, match="netlist"):
            JobSpec.from_dict({"netlist": ""})
        with pytest.raises(JobError, match="delta"):
            JobSpec.from_dict({"netlist": "x", "delta": 2.0})

    def test_delta_defaults_to_device_ratio(self):
        assert JobSpec.from_dict({"netlist": "x"}).delta == 0.9
        spec = JobSpec.from_dict({"netlist": "x", "device": "XC2064"})
        assert spec.delta == 1.0
        explicit = JobSpec.from_dict({"netlist": "x", "delta": 0.5})
        assert explicit.delta == 0.5
        with pytest.raises(JobError, match="unknown device"):
            JobSpec.from_dict({"netlist": "x", "device": "NOPE"})

    def test_job_roundtrips_through_dict(self):
        job = make_job(tenant="team-a", priority=2)
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.spec == job.spec
        assert clone.state == job.state

    def test_find_digest_prefers_live_twin(self):
        table = JobTable()
        done = make_job("j1", state="done")
        live = Job(job_id="j2", spec=done.spec, digest=done.digest)
        table.add(done)
        table.add(live)
        assert table.find_digest("d" * 16).job_id == "j2"


# ---------------------------------------------------------------------------
# admission control


class TestAdmission:
    def test_accepts_under_capacity(self):
        ctrl = AdmissionController(capacity=2)
        decision = ctrl.decide("t", queue_depth=1, active_by_tenant={})
        assert decision.accepted

    def test_queue_saturation_gets_429_with_retry_after(self):
        ctrl = AdmissionController(capacity=2, retry_after_seconds=7)
        decision = ctrl.decide("t", queue_depth=2, active_by_tenant={})
        assert not decision.accepted
        assert decision.http_status == 429
        assert decision.retry_after == 7

    def test_tenant_quota_gets_429(self):
        ctrl = AdmissionController(
            capacity=100, default_policy=TenantPolicy(max_active=1)
        )
        decision = ctrl.decide("t", 0, {"t": 1})
        assert decision.http_status == 429
        assert "quota" in decision.reason

    def test_quota_is_per_tenant(self):
        ctrl = AdmissionController(
            capacity=100, default_policy=TenantPolicy(max_active=1)
        )
        assert ctrl.decide("other", 0, {"t": 5}).accepted

    def test_draining_gets_503(self):
        ctrl = AdmissionController()
        decision = ctrl.decide("t", 0, {}, draining=True)
        assert decision.http_status == 503

    def test_budget_clamp_tightens_never_loosens(self):
        ctrl = AdmissionController(
            default_policy=TenantPolicy(
                budget=RunBudget(deadline_seconds=10.0, max_iterations=50)
            )
        )
        clamped = ctrl.clamp_config("t", {"deadline_seconds": 99.0})
        assert clamped["deadline_seconds"] == 10.0
        assert clamped["max_iterations"] == 50
        loose = ctrl.clamp_config("t", {"deadline_seconds": 1.0})
        assert loose["deadline_seconds"] == 1.0

    def test_no_budget_policy_passes_config_through(self):
        ctrl = AdmissionController()
        assert ctrl.clamp_config("t", {"seed": 3}) == {"seed": 3}


# ---------------------------------------------------------------------------
# submission digest


@pytest.fixture
def netlist_file(tmp_path):
    hg = generate_circuit("svc", num_cells=100, num_ios=20, seed=5)
    path = tmp_path / "svc.hgr"
    write_hgr(hg, path)
    return path


class TestSubmissionDigest:
    def test_same_request_same_digest(self, netlist_file):
        a = submission_digest(str(netlist_file), "XC3042", 0.1, {})
        b = submission_digest(str(netlist_file), "xc3042", 0.1, {})
        assert a == b  # device case-insensitive

    def test_content_addressed_not_path_addressed(
        self, netlist_file, tmp_path
    ):
        copy = tmp_path / "copy.hgr"
        copy.write_bytes(netlist_file.read_bytes())
        assert submission_digest(
            str(copy), "XC3042", 0.1, {}
        ) == submission_digest(str(netlist_file), "XC3042", 0.1, {})

    def test_search_params_change_digest(self, netlist_file):
        base = submission_digest(str(netlist_file), "XC3042", 0.1, {})
        assert submission_digest(
            str(netlist_file), "XC3042", 0.1, {"seed": 9}
        ) != base
        assert submission_digest(str(netlist_file), "XC3020", 0.1, {}) != base
        assert submission_digest(str(netlist_file), "XC3042", 0.2, {}) != base

    def test_budget_and_test_hooks_do_not_change_digest(self, netlist_file):
        base = submission_digest(str(netlist_file), "XC3042", 0.1, {})
        assert submission_digest(
            str(netlist_file),
            "XC3042",
            0.1,
            {"deadline_seconds": 5.0, "test_sleep_seconds": 1.0},
        ) == base


# ---------------------------------------------------------------------------
# service lifecycle (in-process)


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


def wait_state(service, job_id, states, timeout):
    def reached():
        return service.job(job_id)["job"]["state"] in states

    if not service.wait_for(reached, timeout):
        raise AssertionError(f"job {job_id} not in {states} within {timeout}s")
    return service.job(job_id)["job"]


def wait_terminal(service, job_id, timeout=60.0):
    return wait_state(service, job_id, TERMINAL_STATES, timeout)


class TestServiceLifecycle:
    def test_submit_runs_to_done(self, service, netlist_file):
        response = service.submit({"netlist": str(netlist_file)})
        assert response["status"] == 201
        job = wait_terminal(service, response["job"]["job_id"])
        assert job["state"] == "done"
        assert job["result"]["status"] == "feasible"
        result = service.result(job["job_id"])
        assert result["status"] == 200
        assert len(result["result"]["assignment"]) == 100

    def test_duplicate_submission_zero_recompute(self, service, netlist_file):
        first = service.submit({"netlist": str(netlist_file)})
        job = wait_terminal(service, first["job"]["job_id"])
        again = service.submit({"netlist": str(netlist_file)})
        assert again["status"] == 200
        assert again["dedup"] == "cached"
        assert again["job"]["job_id"] == job["job_id"]
        # The proof: exactly one task ever reached the pool.
        assert service.stats()["tasks_submitted"] == 1

    def test_omitted_and_explicit_device_delta_dedupe(
        self, service, netlist_file
    ):
        first = service.submit({"netlist": str(netlist_file)})
        assert first["job"]["spec"]["delta"] == 0.9
        wait_terminal(service, first["job"]["job_id"])
        again = service.submit({"netlist": str(netlist_file), "delta": 0.9})
        assert again["dedup"] == "cached"
        assert again["job"]["job_id"] == first["job"]["job_id"]
        assert service.stats()["tasks_submitted"] == 1

    def test_inflight_duplicate_attaches(self, service, netlist_file):
        first = service.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_sleep_seconds": 1.0},
            }
        )
        again = service.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_sleep_seconds": 1.0},
            }
        )
        assert again["status"] == 200
        assert again["dedup"] == "in_flight"
        assert again["job"]["job_id"] == first["job"]["job_id"]
        wait_terminal(service, first["job"]["job_id"])
        assert service.stats()["tasks_submitted"] == 1

    def test_force_overrides_dedup(self, service, netlist_file):
        first = service.submit({"netlist": str(netlist_file)})
        wait_terminal(service, first["job"]["job_id"])
        forced = service.submit({"netlist": str(netlist_file)}, force=True)
        assert forced["status"] == 201
        wait_terminal(service, forced["job"]["job_id"])
        assert service.stats()["tasks_submitted"] == 2

    def test_bad_spec_rejected(self, service, tmp_path, netlist_file):
        assert service.submit({})["status"] == 400
        assert (
            service.submit({"netlist": str(tmp_path / "absent.hgr")})[
                "status"
            ]
            == 404
        )
        assert (
            service.submit(
                {
                    "netlist": str(netlist_file),
                    "config": {"no_such_knob": 1},
                }
            )["status"]
            == 400
        )

    def test_crash_retries_then_succeeds(self, service, netlist_file):
        response = service.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_crash_attempts": 1},
            }
        )
        job = wait_terminal(service, response["job"]["job_id"], timeout=90)
        assert job["state"] == "done"
        assert job["attempts"] == 2
        assert service.stats()["retries"] == 1

    def test_exhausted_retries_without_checkpoint_fail(
        self, service, netlist_file
    ):
        response = service.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_crash_attempts": 99},
            }
        )
        job = wait_terminal(service, response["job"]["job_id"], timeout=90)
        assert job["state"] == "failed"
        assert job["attempts"] == service.config.max_attempts
        assert "no checkpoint" in job["error"]

    def test_cancel_queued_job(self, service, netlist_file):
        service.pause_scheduler()
        response = service.submit({"netlist": str(netlist_file)})
        job_id = response["job"]["job_id"]
        cancelled = service.cancel(job_id)
        assert cancelled["status"] == 200
        assert service.job(job_id)["job"]["state"] == "cancelled"
        service.resume_scheduler()
        # Cancelling again is a 409, and nothing ever ran.
        assert service.cancel(job_id)["status"] == 409
        assert service.stats()["tasks_submitted"] == 0

    def test_resubmit_after_cancel_starts_fresh_job(
        self, service, netlist_file
    ):
        # A cancelled twin is terminal but has no result; dedup against
        # it would pin the digest to result=None forever.
        service.pause_scheduler()
        first = service.submit({"netlist": str(netlist_file)})
        job_id = first["job"]["job_id"]
        assert service.cancel(job_id)["status"] == 200
        service.resume_scheduler()
        again = service.submit({"netlist": str(netlist_file)})
        assert again["status"] == 201
        assert again["job"]["job_id"] != job_id
        job = wait_terminal(service, again["job"]["job_id"])
        assert job["state"] == "done"
        assert job["result"]["status"] == "feasible"

    def test_cancel_running_job_kills_its_worker(
        self, tmp_path, netlist_file
    ):
        svc = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "state"),
                jobs=1,
                allow_test_hooks=True,
            )
        ).start()
        try:
            hung = svc.submit(
                {
                    "netlist": str(netlist_file),
                    "config": {"test_sleep_seconds": 60.0},
                }
            )["job"]["job_id"]
            wait_state(svc, hung, {"running"}, timeout=10)
            assert svc.cancel(hung)["status"] == 200
            # The one worker slot frees only once the kill's outcome is
            # handled, so a follow-up job finishing well inside the
            # hung job's sleep proves the worker died.
            follow = svc.submit({"netlist": str(netlist_file)}, force=True)
            job = wait_terminal(svc, follow["job"]["job_id"], timeout=30)
            assert job["state"] == "done"
            cancelled = svc.job(hung)["job"]
            assert cancelled["state"] == "cancelled"
            assert cancelled["attempts"] == 1
            assert cancelled["result"] is None
            assert svc.stats()["tasks_submitted"] == 2
        finally:
            svc.close()

    def test_idle_service_admits_without_polling_delay(
        self, tmp_path, netlist_file
    ):
        svc = PartitionService(
            ServiceConfig(state_dir=str(tmp_path / "state"), jobs=1)
        ).start()
        try:
            for _ in range(10):
                response = svc.submit(
                    {"netlist": str(netlist_file)}, force=True
                )
                wait_terminal(svc, response["job"]["job_id"])
        finally:
            svc.close()
        waits = [
            event["wait_ms"]
            for event in map(
                json.loads,
                (tmp_path / "state" / "spans.jsonl").read_text().splitlines(),
            )
            if event["event"] == "span_end" and "wait_ms" in event
        ]
        assert len(waits) == 10
        # The median, not the max: one wait stretched by a busy CPU
        # says nothing about the scheduler's wakeup path.
        assert statistics.median(waits) < 20.0

    def test_unknown_job_404(self, service):
        assert service.job("nope")["status"] == 404
        assert service.cancel("nope")["status"] == 404
        assert service.result("nope")["status"] == 404

    def test_drain_requeues_running_jobs(self, tmp_path, netlist_file):
        svc = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "state"),
                jobs=1,
                allow_test_hooks=True,
            )
        ).start()
        response = svc.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_sleep_seconds": 30.0},
            }
        )
        job_id = response["job"]["job_id"]
        wait_state(svc, job_id, {"running"}, timeout=10)
        summary = svc.drain(timeout=0.3)
        assert job_id in summary["requeued"]
        # The next daemon generation picks it up from the journal.
        svc2 = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "state"),
                jobs=1,
                allow_test_hooks=True,
            )
        )
        assert svc2.job(job_id)["job"]["state"] == "queued"
        svc2.close()


# ---------------------------------------------------------------------------
# HTTP layer (in-process server + client)


@pytest.fixture
def endpoint(service):
    server = make_server("127.0.0.1", 0, service)
    serve_forever_in_thread(server)
    client = ServeClient("127.0.0.1", server.server_address[1])
    yield service, client
    server.shutdown()
    server.server_close()


class TestHTTP:
    def test_health_and_ready(self, endpoint):
        service, client = endpoint
        assert client.healthz()["ok"] is True
        assert client.readyz()["ready"] is True

    def test_submit_wait_result_roundtrip(self, endpoint, netlist_file):
        _, client = endpoint
        response = client.submit({"netlist": str(netlist_file)})
        assert response["status"] == 201
        job = client.wait(response["job"]["job_id"], timeout=60)
        assert job["state"] == "done"
        result = client.result(job["job_id"])
        assert result["result"]["feasible"] is True
        assert len(client.jobs()) == 1

    def test_saturation_429_with_retry_after_and_live_healthz(
        self, netlist_file, tmp_path
    ):
        service = PartitionService(
            ServiceConfig(
                state_dir=str(tmp_path / "sat-state"),
                jobs=1,
                queue_capacity=4,
                default_tenant_policy=TenantPolicy(max_active=100),
            )
        ).start()
        server = make_server("127.0.0.1", 0, service)
        serve_forever_in_thread(server)
        client = ServeClient("127.0.0.1", server.server_address[1])
        try:
            service.pause_scheduler()  # hold the queue at depth
            capacity = service.config.queue_capacity
            accepted = 0
            rejected = None
            for i in range(capacity + 1):
                # Distinct netlists defeat dedup, so each one queues.
                unique = tmp_path / f"u{i}.hgr"
                unique.write_bytes(
                    netlist_file.read_bytes() + f"\n% {i}\n".encode()
                )
                response = client.submit({"netlist": str(unique)})
                if response["status"] == 201:
                    accepted += 1
                else:
                    rejected = response
            assert accepted == capacity
            assert rejected is not None
            assert rejected["status"] == 429
            assert rejected["retry_after"] >= 1
            # The daemon is saturated yet observably alive.
            assert client.healthz()["ok"] is True
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_tenant_quota_429_leaves_other_tenants_alone(
        self, endpoint, netlist_file, tmp_path
    ):
        service, client = endpoint
        service.pause_scheduler()
        quota = service.config.default_tenant_policy.max_active
        rejected = None
        for i in range(quota + 1):
            unique = tmp_path / f"q{i}.hgr"
            unique.write_bytes(
                netlist_file.read_bytes() + f"\n% {i}\n".encode()
            )
            response = client.submit(
                {"netlist": str(unique), "tenant": "greedy"}
            )
            if response["status"] != 201:
                rejected = response
        assert rejected is not None and rejected["status"] == 429
        other = client.submit(
            {"netlist": str(netlist_file), "tenant": "modest"}
        )
        assert other["status"] == 201
        service.resume_scheduler()

    def test_stream_ends_with_job_end(self, endpoint, netlist_file):
        _, client = endpoint
        response = client.submit({"netlist": str(netlist_file)})
        job_id = response["job"]["job_id"]
        events = list(client.stream(job_id, timeout=60))
        assert events[-1]["event"] == "job_end"
        assert events[-1]["state"] == "done"
        progress = [e for e in events if e.get("event") == "progress"]
        assert progress, "expected heartbeat progress events in the stream"
        assert progress[-1].get("final") is True

    def test_stream_yields_before_body_ends(self):
        # A stub daemon sends one progress line as a chunk, then holds
        # the connection open: the client must yield that event at once,
        # not when the body ends.
        hold = threading.Event()

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                line = b'{"event": "progress"}\n'
                self.wfile.write(b"%x\r\n%s\r\n" % (len(line), line))
                self.wfile.flush()
                hold.wait(3.0)
                try:
                    self.wfile.write(b"0\r\n\r\n")
                except OSError:
                    pass  # the client hung up after its first event

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServeClient("127.0.0.1", server.server_address[1])
            stream = client.stream("stub", timeout=10)
            started = time.monotonic()
            assert next(stream) == {"event": "progress"}
            assert time.monotonic() - started < 2.0
            stream.close()
        finally:
            hold.set()
            server.shutdown()
            server.server_close()

    def test_cancel_via_http(self, endpoint, netlist_file):
        service, client = endpoint
        service.pause_scheduler()
        response = client.submit({"netlist": str(netlist_file)})
        job_id = response["job"]["job_id"]
        assert client.cancel(job_id)["status"] == 200
        assert client.job(job_id)["job"]["state"] == "cancelled"
        service.resume_scheduler()

    def test_unknown_routes_404(self, endpoint):
        _, client = endpoint
        assert client._request("GET", "/nope")["status"] == 404
        assert client._request("POST", "/jobs/x/nope")["status"] == 404
