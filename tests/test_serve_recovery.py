"""Kill/restart recovery of the real ``fpart serve`` daemon.

These tests exercise the daemon as users run it: a subprocess started
through the CLI, discovered via ``<state-dir>/serve.json``, and killed
without ceremony.  They assert the ISSUE's acceptance criteria end to
end:

* a SIGKILL'd daemon restarted on the same state dir recovers the
  in-flight job from its write-ahead journal and finishes it with an
  assignment **bit-identical** to an uninterrupted in-process run of
  the same request (FPART is deterministic, checkpoint resume is
  bit-identical, therefore recovery must be too);
* resubmitting the finished request to the restarted daemon is served
  from the journal-recovered table with **zero recomputation**;
* SIGTERM drains gracefully: exit code 0, the running job re-queued,
  and the next daemon generation completes it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.circuits import generate_circuit
from repro.core import DEFAULT_CONFIG, FpartPartitioner, device_by_name
from repro.hypergraph.io import write_hgr
from repro.serve import ServeClient

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def netlist_file(tmp_path):
    hg = generate_circuit("recov", num_cells=100, num_ios=20, seed=11)
    path = tmp_path / "recov.hgr"
    write_hgr(hg, path)
    return path


def start_daemon(state_dir, *extra, timeout=20.0):
    """Launch ``fpart serve`` and wait for its discovery file."""
    endpoint_file = Path(state_dir) / "serve.json"
    before = endpoint_file.stat().st_mtime if endpoint_file.exists() else None
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state_dir),
            "--port",
            "0",
            "--jobs",
            "1",
            "--test-hooks",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died on startup: "
                f"{process.stderr.read().decode(errors='replace')}"
            )
        if endpoint_file.exists():
            stat = endpoint_file.stat()
            if before is None or stat.st_mtime != before:
                try:
                    endpoint = json.loads(endpoint_file.read_text())
                except ValueError:
                    time.sleep(0.05)
                    continue
                if endpoint.get("pid") == process.pid:
                    client = ServeClient(
                        endpoint["host"], endpoint["port"], timeout=10.0
                    )
                    try:
                        if client.healthz().get("ok"):
                            return process, client
                    except Exception:
                        pass
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon did not become healthy in time")


def stop_daemon(process):
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10)
    process.stdout.close()
    process.stderr.close()


def direct_assignment(netlist_file, delta=0.9):
    """The reference run: same request, no daemon in the way (an
    omitted spec delta is the device's own ratio, 0.9 for XC3042)."""
    from repro.hypergraph.io import read_hgr

    hg = read_hgr(netlist_file)
    device = device_by_name("XC3042").with_delta(delta)
    result = FpartPartitioner(
        hg, device, DEFAULT_CONFIG, keep_trace=False
    ).run()
    assert result.status == "feasible"
    return list(result.assignment)


class TestKillRestartRecovery:
    def test_sigkill_midjob_recovers_bit_identical(
        self, tmp_path, netlist_file
    ):
        state = tmp_path / "state"
        process, client = start_daemon(state)
        try:
            # The sleep hook holds the job in `running` so the SIGKILL
            # provably lands mid-job (journal says running, no terminal
            # event) rather than racing a fast completion.
            response = client.submit(
                {
                    "netlist": str(netlist_file),
                    "config": {"test_sleep_seconds": 3.0},
                }
            )
            assert response["status"] == 201
            job_id = response["job"]["job_id"]
            # A second, distinct request (different delta → different
            # digest) sits behind it in the queue of the 1-worker
            # daemon: the SIGKILL lands with one job *running* and one
            # *queued*, the acceptance criterion's exact shape.
            queued = client.submit(
                {"netlist": str(netlist_file), "delta": 0.15}
            )
            assert queued["status"] == 201
            queued_id = queued["job"]["job_id"]
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if client.job(job_id)["job"]["state"] == "running":
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("job never reached running")
            assert client.job(queued_id)["job"]["state"] == "queued"
        finally:
            # SIGKILL: no drain, no journal flush beyond what append
            # already fsynced.
            stop_daemon(process)

        process, client = start_daemon(state)
        try:
            # The restarted daemon must know both jobs (journal replay)
            # and finish them without a resubmit.  The recovered
            # attempt re-enters through the same spec, so the sleep
            # hook runs again — give it room.
            job = client.job(job_id)["job"]
            assert job is not None, "running job lost across SIGKILL"
            assert client.job(queued_id)["job"] is not None, (
                "queued job lost across SIGKILL"
            )
            final = client.wait(job_id, timeout=90)
            assert final["state"] == "done"
            result = client.result(job_id)["result"]
            assert result["assignment"] == direct_assignment(netlist_file)
            final = client.wait(queued_id, timeout=90)
            assert final["state"] == "done"
            result = client.result(queued_id)["result"]
            assert result["assignment"] == direct_assignment(
                netlist_file, delta=0.15
            )
            # Only the *running* job needed a recovery re-queue; the
            # queued one replays in place (its completion above is the
            # proof it survived).
            stats = client.stats()["stats"]
            assert stats["recovered"] == 1
        finally:
            stop_daemon(process)

    def test_resubmit_after_restart_is_cached(self, tmp_path, netlist_file):
        state = tmp_path / "state"
        process, client = start_daemon(state)
        try:
            response = client.submit({"netlist": str(netlist_file)})
            job_id = response["job"]["job_id"]
            client.wait(job_id, timeout=90)
        finally:
            stop_daemon(process)

        process, client = start_daemon(state)
        try:
            again = client.submit({"netlist": str(netlist_file)})
            assert again["status"] == 200
            assert again["dedup"] == "cached"
            assert again["job"]["job_id"] == job_id
            # Zero recomputation in this daemon generation.
            assert client.stats()["stats"]["tasks_submitted"] == 0
        finally:
            stop_daemon(process)

    def test_sigterm_drains_and_next_generation_finishes(
        self, tmp_path, netlist_file
    ):
        state = tmp_path / "state"
        process, client = start_daemon(state, "--drain-seconds", "0.3")
        try:
            response = client.submit(
                {
                    "netlist": str(netlist_file),
                    "config": {"test_sleep_seconds": 3.0},
                }
            )
            job_id = response["job"]["job_id"]
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if client.job(job_id)["job"]["state"] == "running":
                    break
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
            stderr = process.stderr.read().decode(errors="replace")
            assert "re-queued" in stderr
        finally:
            stop_daemon(process)

        process, client = start_daemon(state)
        try:
            final = client.wait(job_id, timeout=90)
            assert final["state"] == "done"
            assert (
                client.result(job_id)["result"]["assignment"]
                == direct_assignment(netlist_file)
            )
        finally:
            stop_daemon(process)
