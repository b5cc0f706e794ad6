"""``serve-mix`` workload: a closed-loop job mix through ``fpart serve``.

The load generator is this one thread.  It keeps two jobs in flight
(callers that wait for their result): as soon as one reaches a terminal
state the next is submitted, and every in-flight job is polled with
``GET /jobs/<id>`` every 10 ms.  Connections are per request, so at
most one is open at a time.  The daemon runs with ``--jobs 1`` and
observability on, as it does by default.

The mix is planned up front from the seed, in blocks of 20 shuffled
submissions: 14 tiny unique jobs (90-120 cells on XC3042, one device),
3 medium unique jobs (420-480 cells, M = 4) and 3 exact resubmissions
of an earlier spec.  Every spec sets ``"delta": 0.9``, the catalog's
XC3042 filling ratio, because ``JobSpec.delta`` defaults to 0.1.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (BenchError, beyond, certify, digest, median, percentile,
                    read_jsonl, workload_rng)

BLOCK = ["tiny"] * 14 + ["medium"] * 3 + ["resubmit"] * 3
# (cells range, pads range) of each unique job kind.
SIZES = {"tiny": ((90, 120), (20, 40)), "medium": ((420, 480), (60, 80))}
DELTA = 0.9
POLL_SECONDS = 0.010
SHUTDOWN_TIMEOUT = 30.0
#: Submissions planned per second of run; more than the daemon finishes.
PLAN_PER_SECOND = 25
#: Deterministic per-job counts are taken over this prefix of the plan.
COUNT_WINDOW = 100
#: Distinct specs replayed in-process by the traced pass.
REPLAY_SPECS = 20
TERMINAL = {"done", "degraded", "failed", "cancelled"}


def request(port: int, method: str, path: str, body: Optional[Dict] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=json.dumps(body) if body else None,
                     headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def plan(seed: int, count: int, netlists: Path) -> List[Dict]:
    """The seeded submission sequence; writes the unique netlists."""
    from repro.circuits.generator import generate_circuit
    from repro.hypergraph.io import write_hgr

    rng = workload_rng("serve-mix", seed)
    kinds: List[str] = []
    while len(kinds) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        if not kinds:
            # The first submission has nothing earlier to resubmit.
            first = next(i for i, kind in enumerate(block)
                         if kind != "resubmit")
            block.insert(0, block.pop(first))
        kinds.extend(block)
    jobs: List[Dict] = []
    unique: List[int] = []
    for position, kind in enumerate(kinds[:count]):
        if kind == "resubmit":
            original = jobs[rng.choice(unique)]
            jobs.append({"kind": kind, "spec": original["spec"],
                         "original": original["position"],
                         "position": position})
            continue
        (lo, hi), (pads_lo, pads_hi) = SIZES[kind]
        name = f"{kind}-{seed}-{position}"
        hg = generate_circuit(name, rng.randint(lo, hi),
                              rng.randint(pads_lo, pads_hi),
                              seed=rng.getrandbits(63))
        path = netlists / f"{name}.hgr"
        write_hgr(hg, path)
        unique.append(position)
        jobs.append({"kind": kind, "position": position, "spec": {
            "netlist": str(path), "device": "XC3042", "delta": DELTA}})
    return jobs


def _children() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        tree.setdefault(int(fields[1]), []).append(int(entry))
    return tree


def descendants(pid: int) -> List[int]:
    tree, found, todo = _children(), [], [pid]
    while todo:
        for child in tree.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
            return stream.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _sigkill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def vmhwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Daemon:
    """One ``fpart serve`` subprocess; ``ready_s`` is spawn to ready."""

    def __init__(self, state_dir: Path, env: Dict[str, str]) -> None:
        state_dir.mkdir(parents=True)
        self.state_dir = state_dir
        started = time.perf_counter()
        self.log = open(state_dir.parent / f"{state_dir.name}.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--state-dir",
             str(state_dir), "--port", "0", "--jobs", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._wait_ready(started + 60.0)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_ready(self, deadline: float) -> int:
        endpoint = self.state_dir / "serve.json"
        port = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            if port is None and endpoint.exists():
                port = json.loads(endpoint.read_text())["port"]
            if port is not None:
                try:
                    if request(port, "GET", "/readyz")[0] == 200:
                        return port
                except OSError:
                    pass
            time.sleep(0.005)
        raise BenchError("daemon not ready within 60 s")

    def stop(self) -> List[str]:
        """SIGTERM, wait; problems if it fails or leaves workers behind."""
        workers = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        problems = []
        try:
            code = self.proc.wait(timeout=SHUTDOWN_TIMEOUT)
            if code != 0:
                problems.append(f"daemon exited {code} on SIGTERM")
        except subprocess.TimeoutExpired:
            problems.append("daemon ignored SIGTERM")
        self.kill()
        deadline = time.perf_counter() + 10.0
        while any(alive(p) for p in workers) and \
                time.perf_counter() < deadline:
            time.sleep(0.05)
        orphans = [p for p in workers if alive(p)]
        for pid in orphans:
            _sigkill(pid)
        if orphans:
            problems.append(f"orphan workers after shutdown: {orphans}")
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            for pid in descendants(self.proc.pid):
                _sigkill(pid)
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def drive(port: int, jobs: List[Dict], seconds: float) -> Dict:
    """Closed loop with two jobs in flight; returns client timings."""
    done: List[Dict] = []
    problems: List[str] = []
    by_position: Dict[int, Dict] = {}
    inflight: Dict[str, List[Dict]] = {}
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    next_job = 0

    def finish(job: Dict, view: Dict) -> None:
        job["t_done"] = clock()
        job["wall_done"] = time.time()
        job["state"] = view["state"]
        job["result"] = view.get("result")
        done.append(job)

    while True:
        while (len(inflight) < 2 and next_job < len(jobs)
               and clock() < deadline):
            job = jobs[next_job]
            next_job += 1
            job["t_sent"] = clock()
            status, body = request(port, "POST", "/jobs", job["spec"])
            job["post_s"] = clock() - job["t_sent"]
            if status not in (200, 201):
                problems.append(f"POST /jobs -> {status}: {body}")
                continue
            view = body["job"]
            job["job_id"] = view["job_id"]
            job["dedup"] = body.get("dedup")
            by_position[job["position"]] = job
            if view["state"] in TERMINAL:
                finish(job, view)
            else:
                inflight.setdefault(job["job_id"], []).append(job)
        if not inflight:
            break
        time.sleep(POLL_SECONDS)
        for job_id in list(inflight):
            status, body = request(port, "GET", f"/jobs/{job_id}")
            if status != 200:
                problems.append(f"GET /jobs/{job_id} -> {status}")
                del inflight[job_id]
            elif body["job"]["state"] in TERMINAL:
                for job in inflight.pop(job_id):
                    finish(job, body["job"])
    elapsed = max(j["t_done"] for j in done) - start if done else seconds
    return {"done": done, "problems": problems, "elapsed": elapsed,
            "by_position": by_position}


def check(state_dir: Path, run: Dict) -> List[str]:
    """Certify every job's outcome; empty when all are correct."""
    from repro.core.device import device_by_name
    from repro.hypergraph.io import read_hgr
    from repro.partition.validate import validate_assignment

    device = device_by_name("XC3042").with_delta(DELTA)
    problems = list(run["problems"])
    by_position = run["by_position"]
    for job in run["done"]:
        where = f"job {job['position']} ({job['kind']})"
        if job["state"] != "done":
            problems.append(f"{where} ended {job['state']}")
            continue
        if job["kind"] == "resubmit":
            original = by_position.get(job["original"], {})
            if job["job_id"] != original.get("job_id") or \
                    job["result"] != original.get("result"):
                problems.append(f"{where} did not return job "
                                f"{job['original']}'s result")
            continue
        with open(state_dir / "jobs" / job["job_id"] / "result.json") as f:
            result = json.load(f)
        job["assignment"] = result["assignment"]
        job["run_s"] = result["wall_seconds"]
        job["num_devices"] = result["num_devices"]
        job["lower_bound"] = result["lower_bound"]
        hg = read_hgr(job["spec"]["netlist"])
        for problem in certify(hg, device, result["assignment"],
                               result["num_devices"], result["status"],
                               validate_assignment):
            problems.append(f"{where}: {problem}")
    return problems


def serve_layers(state_dir: Path, run: Dict) -> Dict[str, float]:
    """Per-layer serve metrics from the daemon's own artifacts.

    Latency layers are shares of the unique jobs' summed latency
    (submit round-trip, queued wait, worker run, worker overhead =
    attempt - run, notify lag = terminal to observed); the millisecond
    values go to the printed table.  Counts use the plan's first
    ``COUNT_WINDOW`` submissions so they repeat exactly.
    """
    spans: Dict[str, Dict] = {}
    for event in read_jsonl(state_dir / "spans.jsonl"):
        span = spans.setdefault(event["span_id"], {})
        span[event["event"]] = event
    per_job: Dict[str, Dict[str, float]] = {}
    for span in spans.values():
        start, end = span.get("span_start"), span.get("span_end")
        if not (start and end):
            continue
        name = start["name"].split("[")[0]
        job_id = start.get("job_id") or end.get("job_id")
        if job_id:
            entry = per_job.setdefault(job_id, {})
            entry[name] = entry.get(name, 0.0) + end["t"] - start["t"]
            if name == "job":
                entry["end_wall"] = end["t"]
    journal = read_jsonl(state_dir / "journal.jsonl")

    unique = [j for j in run["done"] if j["kind"] != "resubmit"]
    latency = sum(j["t_done"] - j["t_sent"] for j in unique)
    parts = {"submit": 0.0, "queued": 0.0, "run": 0.0, "overhead": 0.0,
             "notify": 0.0, "attempt": 0.0}
    for job in unique:
        spans_of = per_job[job["job_id"]]
        parts["submit"] += job["post_s"]
        parts["queued"] += spans_of["queued"]
        parts["attempt"] += spans_of["attempt"]
        parts["run"] += job["run_s"]
        parts["overhead"] += spans_of["attempt"] - job["run_s"]
        parts["notify"] += job["wall_done"] - spans_of["end_wall"]
    window = [run["by_position"][p] for p in range(COUNT_WINDOW)
              if p in run["by_position"]]
    window_unique = [j for j in window if j["kind"] != "resubmit"]
    checkpoints = 0
    for job in window_unique:
        trace = state_dir / "jobs" / job["job_id"] / "trace.jsonl"
        checkpoints += sum(1 for e in read_jsonl(trace)
                           if e["event"] == "checkpoint")
    computed = sum(1 for e in journal if e["event"] == "submitted")
    waits = [per_job[j["job_id"]]["queued"] for j in unique]
    table = {
        "serve.submit_ms (p50)": 1e3 * median([j["post_s"] for j in unique]),
        "serve.queue_wait_ms (p50)": 1e3 * median(waits),
        "serve.queue_wait_ms (p95)": 1e3 * percentile(waits, 95),
        "serve.attempt_ms (mean)": 1e3 * parts["attempt"] / len(unique),
        "serve.run_ms (mean)": 1e3 * parts["run"] / len(unique),
        "serve.worker_overhead_ms (mean)":
            1e3 * parts["overhead"] / len(unique),
        "serve.notify_lag_ms (mean)": 1e3 * parts["notify"] / len(unique),
    }
    return {
        "serve.submit_share": parts["submit"] / latency,
        "serve.queue_wait_share": parts["queued"] / latency,
        "serve.run_share": parts["run"] / latency,
        "serve.worker_overhead_share": parts["overhead"] / latency,
        "serve.notify_lag_share": parts["notify"] / latency,
        "serve.busy_frac": parts["attempt"] / run["elapsed"],
        "serve.journal_appends_per_job": len(journal) / computed,
        "serve.checkpoints_per_job": checkpoints / len(window_unique),
        "serve.dedup_hit_frac":
            sum(1 for j in window if j["dedup"]) / len(window),
    }, table


def serve_mix(work: Path, seed: int, seconds: float, trace: bool,
              smoke_jobs: Optional[int], env: Dict[str, str],
              run_batch) -> Dict:
    """Run the workload; returns the same report shape as batch runs."""
    netlists = work / "netlists"
    netlists.mkdir()
    count = smoke_jobs or int(PLAN_PER_SECOND * seconds)
    jobs = plan(seed, count, netlists)

    daemons = []
    try:
        for generation in range(3):
            daemons.append(Daemon(work / f"state{generation}", env))
            if generation < 2:
                problems = daemons[-1].stop()
                if problems:
                    raise BenchError("; ".join(problems))
        daemon = daemons[-1]
        run = drive(daemon.port, jobs, seconds)
        problems = check(daemon.state_dir, run)
        layers = table = None
        if trace and not problems:
            layers, table = serve_layers(daemon.state_dir, run)
        rss = vmhwm_mb(daemon.proc.pid) + sum(
            vmhwm_mb(pid) for pid in descendants(daemon.proc.pid))
        problems += daemon.stop()
    finally:
        for daemon in daemons:
            daemon.kill()

    done = run["done"]
    unique = [j for j in done if j["kind"] != "resubmit"]
    latencies = [j["t_done"] - j["t_sent"] for j in done]
    window = sorted((j for j in unique if j["position"] < COUNT_WINDOW
                     and "assignment" in j), key=lambda j: j["position"])
    report = {
        "attempted": len(done) + len(run["problems"]),
        "problems": problems,
        "digests": [digest(j["assignment"]) for j in window],
        "e2e": {
            "jobs_per_s": len(done) / run["elapsed"],
            "job_tail_ms": 1e3 * percentile(latencies, 95),
            "devices_vs_bound": sum(j["num_devices"] for j in window)
            / max(sum(j["lower_bound"] for j in window), 1),
            "setup_s": median([d.ready_s for d in daemons]),
            "peak_rss_mb": rss,
        },
        "notes": [
            f"{len(done)} jobs ({len(unique)} computed) in "
            f"{run['elapsed']:.1f} s; p50 {1e3 * median(latencies):.1f} "
            f"ms; tail = p95 with {beyond(latencies, 95)} samples beyond",
        ],
        "layers": None,
    }
    if trace and not problems:
        replayed = window[:REPLAY_SPECS]
        child = run_batch({
            "device": "XC3042", "trace": True, "seconds": None,
            "inputs": [j["spec"]["netlist"] for j in replayed]})
        report["problems"] += child["failures"]
        report["attempted"] += child["attempted"]
        for job, replay in zip(replayed, child["digests"]):
            if replay != digest(job["assignment"]):
                report["problems"].append(
                    f"job {job['position']}: daemon result differs from "
                    "an in-process run")
        report["layers"] = {**child["layers"], **layers,
                            "bench.job_p50_ms": 1e3 * median(latencies)}
        report["notes"] += [f"{k:34s} {v:10.3f}" for k, v in table.items()]
    return report
