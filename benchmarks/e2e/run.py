"""End-to-end FPART benchmark: batch sweeps and a live serve mix.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1999             # every workload
    python3 benchmarks/e2e/run.py --workload smallm --seed 3 \\
        --seconds 30 --trace 0 [--append runs.jsonl]
    python3 benchmarks/e2e/run.py compare parent.jsonl change.jsonl

Inputs are generated from ``--seed`` with ``repro.circuits.generator``
and written as ``.hgr`` files; the program under test sees only the
files.  Every output is certified, and the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Exit status 1 means a wrong or
missing answer, 2 a benchmark that could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import (HERE, ROOT, SRC, BenchError, beyond, load_benchmark,
                    median, percentile, read_jsonl, workload_rng)

# Both on XC3020 (S_MAX = 57.6): M = 7 (small-M strategy) against
# M = 18-20 (big-M strategy).  ``per_second`` sizes the input list a
# little beyond what a 2-vCPU Xeon container finishes in the run, so
# the deadline, not the list, normally ends the measurement.  The first
# QUALITY_SHARE of the list always runs: devices_vs_bound is taken over
# that fixed prefix, so it does not depend on speed.
BATCH = {
    "smallm": {"device": "XC3020", "cells": (350, 400), "pads": 50,
               "per_second": 4.5},
    "bigm": {"device": "XC3020", "cells": (1000, 1100), "pads": 150,
             "per_second": 1.2},
}
QUALITY_SHARE = 0.6
TRACE_INPUTS = 10
SMOKE_INPUTS = 2
SMOKE_SERVE_JOBS = 12
DEFAULT_SEED = 1999
CHILD_TIMEOUT = 150.0
WORK = ROOT / ".bench_work"
IMPORT_PROBE = "import repro.cli; from repro.core.fpart import FpartPartitioner"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_batch_child(config: Dict, work: Path) -> Dict:
    """Run ``batch.py`` in a fresh interpreter; returns its report."""
    path = work / f"batch-{time.monotonic_ns()}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "batch.py"), str(path)],
            env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"batch child exceeded {CHILD_TIMEOUT:.0f} s") \
            from error
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"batch child exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds() -> float:
    """Median wall of a fresh interpreter importing the entry points."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return median(times)


def make_inputs(workload: str, seed: int, count: int, work: Path) -> List[str]:
    from repro.circuits.generator import generate_circuit
    from repro.hypergraph.io import write_hgr

    spec = BATCH[workload]
    rng = workload_rng(workload, seed)
    paths = []
    for i in range(count):
        name = f"{workload}-{seed}-{i}"
        hg = generate_circuit(name, rng.randint(*spec["cells"]),
                              spec["pads"], seed=rng.getrandbits(63))
        path = work / f"{name}.hgr"
        write_hgr(hg, path)
        paths.append(str(path))
    return paths


def batch_workload(workload: str, seed: int, seconds: float, trace: bool,
                   smoke: bool, work: Path) -> Dict:
    spec = BATCH[workload]
    count = SMOKE_INPUTS if smoke else round(spec["per_second"] * seconds)
    inputs = make_inputs(workload, seed,
                         TRACE_INPUTS if trace and not smoke else count, work)
    quality = max(1, int(QUALITY_SHARE * count))
    setup_import = 0.0 if trace else import_seconds()
    child = run_batch_child({
        "device": spec["device"], "inputs": inputs, "trace": trace,
        "seconds": None if smoke else seconds,
        "min_inputs": quality,
        "spans_out": str(WORK / f"{workload}.spans.jsonl") if trace else None,
    }, work)
    runs = child["walls"]
    done = len(child["digests"])
    if trace:
        child["layers"]["bench.job_p50_ms"] = 1e3 * median(runs)
    return {
        "attempted": child["attempted"],
        "problems": child["failures"],
        "digests": child["digests"],
        "e2e": {
            "jobs_per_s": len(runs) / sum(runs),
            "job_tail_ms": 1e3 * percentile(runs, 75),
            "devices_vs_bound": sum(child["devices"][:quality])
            / sum(child["lower_bounds"][:quality]),
            "setup_s": setup_import + median(child["parse_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
        },
        "notes": [
            f"{len(runs)} runs over {done} of {len(inputs)} inputs "
            f"({sum(runs):.1f} s partitioning); p50 "
            f"{1e3 * median(runs):.1f} ms; tail = p75 with "
            f"{beyond(runs, 75)} runs beyond; {sum(child['devices'])} "
            f"devices vs lower bound {sum(child['lower_bounds'])}",
        ],
        "layers": child["layers"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if workload in BATCH:
            return batch_workload(workload, seed, seconds, trace, smoke, work)
        from serve_mix import serve_mix

        return serve_mix(
            work, seed, seconds, trace,
            SMOKE_SERVE_JOBS if smoke else None, child_env(),
            lambda config: run_batch_child(
                {**config, "spans_out": str(WORK / f"{workload}.spans.jsonl")},
                work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(report: Dict, trace: bool, bench: Dict) -> Dict:
    """The contract's JSON object for one workload run."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = dict(report["layers"] or {}) if trace else report["e2e"]
    if trace:
        for metric in declared:
            # A batch workload starts no daemon, so its serve layers
            # carry no share of the latency.
            if metric["name"].startswith("serve."):
                values.setdefault(metric["name"], 0.0)
    failed = len(report["problems"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not failed:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": max(report["attempted"], failed, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }


def print_report(workload: str, seed: int, trace: bool, report: Dict,
                 line: Dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload}  seed {seed}  {kind}")
    for note in report["notes"]:
        print(f"   {note}")
    for name, metric in line["metrics"].items():
        print(f"   {name:34s} {metric['value']:12.4f} {metric['unit']}")
    print(f"   error_frac {line['failed']}/{line['attempted']}")
    for problem in report["problems"][:20]:
        print(f"   FAILED: {problem}")


def compare(path_a: str, path_b: str, bench: Dict) -> int:
    """Per workload and end-to-end metric: medians, quartiles, verdict.

    ``better`` needs the change to win at least 9 of 10 seed-paired runs
    and its median to move by more than the parent's quartile spread;
    ``worse`` is a median worse by more than the bound; a spread wider
    than the bound is ``unresolved`` unless every change run beats every
    parent run.  Anything else is ``within-bound``.  Exits 1 when an
    input's assignment differs between the two files.
    """
    runs_a = [r for r in read_jsonl(path_a) if not r["trace"]]
    runs_b = [r for r in read_jsonl(path_b) if not r["trace"]]
    print(f"{'workload':10s} {'metric':18s} {'parent med [q1, q3]':>28s} "
          f"{'change med [q1, q3]':>28s} {'worse by':>8s}  verdict")
    for workload in sorted({r["workload"] for r in runs_a}):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a = {r["seed"]: r["metrics"][name]["value"] for r in runs_a
                 if r["workload"] == workload and name in r["metrics"]}
            b = {r["seed"]: r["metrics"][name]["value"] for r in runs_b
                 if r["workload"] == workload and name in r["metrics"]}
            if len(a) < 2 or len(b) < 2:
                continue
            qa = [percentile(list(a.values()), q) for q in (25, 50, 75)]
            qb = [percentile(list(b.values()), q) for q in (25, 50, 75)]
            change = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            paired = [s for s in a if s in b]
            wins = sum(1 for s in paired if sign * (b[s] - a[s]) < 0)
            all_better = all(sign * (x - y) < 0
                             for x in b.values() for y in a.values())
            if spread > bound:
                verdict = "better" if all_better else "unresolved"
            elif change > bound:
                verdict = "worse"
            elif (paired and wins >= 0.9 * len(paired)
                  and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "better"
            else:
                verdict = "within-bound"
            print(f"{workload:10s} {name:18s} "
                  f"{qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(58)
                  + f"{qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".rjust(28)
                  + f" {100 * change:+7.2f}%  {verdict}")

    # Same seed, same inputs: the assignments must not have changed.
    digests = {(r["workload"], r["seed"]): r.get("digests", [])
               for r in read_jsonl(path_a)}
    compared, differ = 0, []
    for record in read_jsonl(path_b):
        theirs = digests.get((record["workload"], record["seed"]), [])
        for i, (x, y) in enumerate(zip(theirs, record.get("digests", []))):
            compared += 1
            if x != y:
                differ.append(f"{record['workload']} seed {record['seed']} "
                              f"input {i}")
    print(f"assignments: {compared - len(differ)} of {compared} common "
          "inputs identical" + "".join(f"\n  differs: {d}" for d in differ))
    return 1 if differ else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "compare"))
    parser.add_argument("files", nargs="*", help="compare: A.jsonl B.jsonl")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 = traced per-layer pass (default: both)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: 2 inputs x 1 round, 12 serve jobs")
    parser.add_argument("--append", metavar="FILE",
                        help="append each result as a JSON line")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare needs two result files")
        return compare(*args.files, bench)

    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads)}")
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    passes = [(w, t) for t in ((0, 1) if args.trace is None else (args.trace,))
              for w in ([args.workload] if args.workload else workloads)]

    lines = {}
    for workload, trace in passes:
        try:
            report = run_workload(workload, args.seed, seconds, bool(trace),
                                  args.scale == "smoke")
            line = result_line(report, bool(trace), bench)
        except Exception as error:  # report, then fail the whole run
            print(f"run.py: {workload}: {type(error).__name__}: {error}",
                  file=sys.stderr)
            return 2
        print_report(workload, args.seed, bool(trace), report, line)
        lines[(workload, trace)] = line
        if args.append:
            with open(args.append, "a", encoding="utf-8") as stream:
                stream.write(json.dumps({
                    "workload": workload, "seed": args.seed, "trace": trace,
                    **line, "digests": report["digests"]}) + "\n")
        sys.stdout.flush()

    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{name}": value
                        for (w, _), l in lines.items()
                        for name, value in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
