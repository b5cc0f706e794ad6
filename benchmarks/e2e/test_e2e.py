"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload at ``--scale smoke`` (2 inputs x 1 round, 12 serve
jobs) in both modes, checks the printed metrics against
``BENCHMARK.json``, that no daemon outlives the run, that the
correctness gate rejects a corrupted assignment, and the ``compare``
verdicts.  Kept outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import HERE, ROOT, SRC, certify, load_benchmark

sys.path.insert(0, str(SRC))

from repro.circuits.generator import generate_circuit  # noqa: E402
from repro.core.device import XC3042  # noqa: E402
from repro.core.fpart import FpartPartitioner  # noqa: E402
from repro.partition.validate import validate_assignment  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _processes_mentioning(text: str):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as stream:
                if text.encode() in stream.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def test_smoke_prints_every_declared_metric(tmp_path):
    bench = load_benchmark()
    results = tmp_path / "runs.jsonl"
    proc = subprocess.Popen(
        RUN + ["--scale", "smoke", "--seed", "1999", "--append",
               str(results)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    final = json.loads(stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0

    records = [json.loads(line) for line in results.read_text().splitlines()]
    workloads = {w["name"] for w in bench["workloads"]}
    assert {(r["workload"], r["trace"]) for r in records} == {
        (w, t) for w in workloads for t in (0, 1)}
    for record in records:
        declared = bench["per_layer" if record["trace"] else "end_to_end"]
        assert set(record) == {"workload", "seed", "trace", "correct",
                               "attempted", "failed", "metrics", "digests"}
        assert record["digests"]
        assert {name: m["unit"] for name, m in record["metrics"].items()} \
            == {m["name"]: m["unit"] for m in declared}
        for metric in declared:
            assert f"{metric['name']} " in stdout
            assert isinstance(record["metrics"][metric["name"]]["value"],
                              float)
    # The daemon's state dir is named after run.py's pid.
    assert _processes_mentioning(f"serve-mix-1999-{proc.pid}") == []


def test_gate_rejects_a_corrupted_assignment():
    hg = generate_circuit("gate", 300, 40, seed=7)
    result = FpartPartitioner(hg, XC3042, keep_trace=False).run()
    assignment = list(result.assignment)
    ok = certify(hg, XC3042, assignment, result.num_devices, result.status,
                 validate_assignment)
    assert ok == []

    everything_in_one = [0] * hg.num_cells
    assert certify(hg, XC3042, everything_in_one, result.num_devices,
                   result.status, validate_assignment)
    stray = list(assignment)
    stray[0] = result.num_devices  # a block the result does not report
    assert certify(hg, XC3042, stray, result.num_devices, result.status,
                   validate_assignment)
    assert certify(hg, XC3042, assignment, result.num_devices,
                   "budget_exhausted", validate_assignment)


def test_compare_verdicts(tmp_path):
    def write(path, values):
        with open(path, "w") as stream:
            for seed, (rate, tail) in enumerate(values):
                metrics = {"jobs_per_s": {"value": rate, "unit": "1/s"},
                           "job_tail_ms": {"value": tail, "unit": "ms"}}
                stream.write(json.dumps({
                    "workload": "smallm", "seed": seed, "trace": 0,
                    "correct": True, "attempted": 1, "failed": 0,
                    "metrics": metrics}) + "\n")

    parent = [(1.0 + 0.001 * i, 100.0 + 0.1 * i) for i in range(10)]
    # Throughput 30% higher (better); latency 40% higher (worse).
    change = [(1.3 + 0.001 * i, 140.0 + 0.1 * i) for i in range(10)]
    write(tmp_path / "a.jsonl", parent)
    write(tmp_path / "b.jsonl", change)
    out = subprocess.run(
        RUN + ["compare", str(tmp_path / "a.jsonl"),
               str(tmp_path / "b.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    rows = {line.split()[1]: line.split()[-1]
            for line in out.stdout.splitlines() if line.startswith("smallm")}
    assert rows == {"jobs_per_s": "better", "job_tail_ms": "worse"}

    noisy = [(1.0 + 0.5 * (i % 2), 100.0 + 0.1 * i) for i in range(10)]
    write(tmp_path / "c.jsonl", noisy)
    out = subprocess.run(
        RUN + ["compare", str(tmp_path / "a.jsonl"),
               str(tmp_path / "c.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    rows = {line.split()[1]: line.split()[-1]
            for line in out.stdout.splitlines() if line.startswith("smallm")}
    assert rows == {"jobs_per_s": "unresolved", "job_tail_ms": "within-bound"}
