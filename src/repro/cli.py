"""Command-line interface.

Installed as ``fpart`` (also ``python -m repro``).  Subcommands:

* ``partition`` — partition a netlist file for a device with any of the
  implemented algorithms and report (or save) the block assignment;
* ``verify`` — validate a saved assignment against a device;
* ``split`` — emit one netlist file per device from a saved assignment;
* ``generate`` — emit a synthetic benchmark netlist;
* ``info`` — print hypergraph statistics of a netlist file;
* ``table`` — regenerate one of the paper's comparison tables live;
* ``history`` — list the runs recorded in a ``--runs-dir`` registry;
* ``compare`` — judge a recorded run against a baseline run (exit 0 ok,
  3 on a quality/latency regression — CI-gateable);
* ``export`` — re-render stored telemetry as OpenMetrics text or a
  Chrome-tracing (catapult) JSON timeline (service spans and sampled
  profiles merge onto the same timeline when stored alongside);
* ``flame`` — render a folded-stack sampling profile (``partition
  --prof`` / serve profile-on-slow) as a flamegraph SVG;
* ``serve`` — run the crash-safe HTTP/JSON partitioning job daemon
  (write-ahead journal, idempotent submission, graceful drain).

Netlist files are autodetected by extension: ``.hgr`` (extended hMETIS),
``.nets`` (named netlist) or ``.blif`` (structural BLIF).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import render_device_comparison, run_device_experiment
from .baselines import bfs_pack, fbb_multiway, kwayx
from .circuits import generate_circuit
from .core import (
    DEFAULT_CONFIG,
    CheckpointManager,
    FpartPartitioner,
    PartitioningError,
    device_by_name,
    fpart,
)
from .hypergraph import (
    Hypergraph,
    NetlistFormatError,
    compute_stats,
    load_netlist,
    write_blif,
    write_hgr,
    write_netlist,
)
from .logging import configure_logging
from .partition import read_assignment_file, validate_assignment

__all__ = ["main", "build_parser"]

# sysexits(3)-style exit codes, plus 3 for "ran, but degraded".
EXIT_INFEASIBLE = 1
EXIT_DEGRADED = 3
EXIT_DATAERR = 65
EXIT_NOINPUT = 66
EXIT_SOFTWARE = 70


def _save(hg: Hypergraph, path: str) -> None:
    file = Path(path)
    if file.suffix == ".nets":
        write_netlist(hg, file)
    elif file.suffix == ".blif":
        write_blif(hg, file)
    else:
        write_hgr(hg, file)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="fpart",
        description=(
            "Multi-way FPGA netlist partitioning "
            "(FPART, Krupnova & Saucier, DATE 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a netlist file")
    p.add_argument("netlist", help="input .hgr or .nets file")
    p.add_argument(
        "--device",
        default="XC3042",
        help="target device name (XC3020/XC3042/XC3090/XC2064)",
    )
    p.add_argument(
        "--algorithm",
        choices=["fpart", "kwayx", "fbb", "pack"],
        default="fpart",
        help="partitioning algorithm",
    )
    p.add_argument(
        "--delta",
        type=float,
        default=None,
        help="override the device filling ratio",
    )
    p.add_argument(
        "--output",
        default=None,
        help="write 'cell block' lines to this file",
    )
    p.add_argument(
        "--verbose", action="store_true", help="per-block detail"
    )
    p.add_argument(
        "--prof",
        action="store_true",
        help="attach the low-overhead sampling profiler (97 Hz) to the "
        "solve and write folded stacks (render with 'fpart flame')",
    )
    p.add_argument(
        "--prof-out",
        default=None,
        metavar="PATH",
        help="folded-stack output path for --prof (default: "
        "profile.folded, or <runs-dir>/<run_id>/profile.folded "
        "with --runs-dir)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best solution so far is "
        "returned with a degraded status (fpart only)",
    )
    p.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="Algorithm 1 iteration cap (default 4*M+16; fpart only)",
    )
    p.add_argument(
        "--max-moves",
        type=int,
        default=None,
        metavar="N",
        help="cap on applied engine moves across the run (fpart only)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="raise on budget exhaustion / internal errors instead of "
        "returning the best degraded solution (fpart only)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="run seed; 0 (default) is the canonical deterministic "
        "trajectory, any other value perturbs constructive tie-breaks "
        "reproducibly (fpart only)",
    )
    p.add_argument(
        "--restarts",
        type=int,
        default=1,
        metavar="R",
        help="run R independent seeded restarts (seeds S..S+R-1) and "
        "keep the lexicographic best; the winner is bit-identical for "
        "any --jobs (fpart only)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the restart portfolio (default 1 = "
        "in-process)",
    )
    p.add_argument(
        "--restart-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-restart wall-clock cap enforced by the pool "
        "(a timed-out restart is dropped from the portfolio)",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a resumable JSON snapshot at iteration boundaries "
        "(fpart only)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="snapshot every N iterations (default 1)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint if the file exists",
    )
    p.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable run logging on stderr (DEBUG/INFO/WARNING)",
    )
    p.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        help="log line format for --log-level (default text)",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a run-metrics JSON dump to this file (fpart only)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL trace event stream to this file (fpart only)",
    )
    p.add_argument(
        "--trace-sample",
        type=int,
        default=64,
        metavar="N",
        help="applied moves between move_batch trace events "
        "(0 disables move batches; default 64)",
    )
    p.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="record this run in an append-only run registry (implies "
        "metrics collection; traces into DIR/<run_id>/trace.jsonl "
        "unless --trace names another path; fpart only)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="print a live progress line to stderr while the run is "
        "searching (fpart only)",
    )
    p.add_argument(
        "--progress-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between progress heartbeats (default 2.0)",
    )

    g = sub.add_parser("generate", help="generate a synthetic netlist")
    g.add_argument("name", help="circuit name (also the seed)")
    g.add_argument("--cells", type=int, required=True)
    g.add_argument("--ios", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--output", "-o", required=True, help=".hgr or .nets path")

    i = sub.add_parser("info", help="netlist statistics")
    i.add_argument("netlist")
    i.add_argument(
        "--lint", action="store_true",
        help="also run structural sanity checks",
    )

    v = sub.add_parser(
        "verify", help="validate a saved assignment against a device"
    )
    v.add_argument("netlist", help="input netlist file")
    v.add_argument("assignment", help="'cell block' file from partition")
    v.add_argument("--device", default="XC3042")
    v.add_argument("--delta", type=float, default=None)

    s = sub.add_parser(
        "split", help="write one netlist per device from an assignment"
    )
    s.add_argument("netlist", help="input netlist file")
    s.add_argument("assignment", help="'cell block' file from partition")
    s.add_argument(
        "--output-dir", "-d", required=True,
        help="directory for the per-device netlists",
    )
    s.add_argument(
        "--format", choices=["hgr", "nets", "blif"], default="hgr"
    )

    r = sub.add_parser(
        "report", help="full markdown report for one netlist/device, or "
        "a convergence report from a --trace stream",
    )
    r.add_argument(
        "netlist", nargs="?", default=None,
        help="input netlist file (omit when using --trace)",
    )
    r.add_argument("--device", default="XC3042")
    r.add_argument("--delta", type=float, default=None)
    r.add_argument(
        "--no-baselines", action="store_true",
        help="skip the baseline comparison section",
    )
    r.add_argument("--output", "-o", default=None, help="write to file")
    r.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="render the per-pass convergence table from a JSONL trace "
        "written by 'partition --trace' instead of re-running",
    )
    r.add_argument(
        "--svg",
        default=None,
        metavar="PATH",
        help="with --trace/--from-runs: also write an SVG convergence "
        "plot",
    )
    r.add_argument(
        "--spans",
        action="store_true",
        help="render the span tree (service correlation spans) from "
        "the given event log (positional or --trace) instead of the "
        "convergence table",
    )
    r.add_argument(
        "--from-runs",
        nargs=2,
        default=None,
        metavar=("DIR", "RUN_ID"),
        help="render the convergence report of a run recorded with "
        "'partition --runs-dir DIR' (RUN_ID may be a unique prefix)",
    )
    r.add_argument(
        "--phases",
        action="store_true",
        help="render the per-run algorithm-phase table instead of the "
        "convergence report (with --from-runs, or with a --metrics "
        "JSON dump as the positional argument)",
    )

    t = sub.add_parser("table", help="regenerate a paper comparison table")
    t.add_argument(
        "device", help="device of the table (XC3020/XC3042/XC3090/XC2064)"
    )
    t.add_argument(
        "--circuits",
        nargs="*",
        default=None,
        help="restrict to these circuits",
    )
    t.add_argument(
        "--methods",
        nargs="*",
        default=["FPART"],
        help="measured methods (FPART, 'k-way.x*', 'FBB-MW*', BFS-pack)",
    )
    t.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="also record every measured run in this run registry",
    )
    t.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the sweep's circuit x method cells across N worker "
        "processes (results and record order are identical for any N)",
    )

    h = sub.add_parser(
        "history", help="list the runs recorded in a runs directory"
    )
    h.add_argument("--runs-dir", required=True, metavar="DIR")
    h.add_argument("--circuit", default=None, help="filter by circuit")
    h.add_argument("--device", default=None, help="filter by device")
    h.add_argument("--method", default=None, help="filter by method")
    h.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the N most recent runs",
    )
    h.add_argument(
        "--best",
        action="store_true",
        help="print only the lexicographically best matching run "
        "(status rank, devices, then the f/d_k/T_SUM/d_k_e tuple — the "
        "ordering restart portfolios reduce with)",
    )

    c = sub.add_parser(
        "compare",
        help="judge a recorded run against a baseline run "
        "(exit 0 ok / 3 regression)",
    )
    c.add_argument("--runs-dir", required=True, metavar="DIR")
    c.add_argument(
        "candidate", help="candidate run id (a unique prefix is accepted)"
    )
    c.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="baseline run id; defaults to the most recent earlier run "
        "of the same circuit/device/method/config",
    )
    c.add_argument(
        "--max-slowdown",
        type=float,
        default=None,
        metavar="PCT",
        help="also fail when the candidate's wall time exceeds the "
        "baseline's by more than PCT percent (latency gating is opt-in "
        "because identical runs differ by timer noise)",
    )

    e = sub.add_parser(
        "export",
        help="re-render stored run telemetry in standard formats",
    )
    e.add_argument("--runs-dir", required=True, metavar="DIR")
    e.add_argument("run_id", help="recorded run id (prefix accepted)")
    e.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help="write the run's metrics snapshot as an OpenMetrics "
        "(Prometheus textfile-collector) document",
    )
    e.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="write the run's trace stream as Chrome-tracing (catapult) "
        "JSON for chrome://tracing / Perfetto",
    )

    f = sub.add_parser(
        "flame",
        help="render a folded-stack profile (from 'partition --prof' "
        "or the serve profile-on-slow capture) as a flamegraph SVG",
    )
    f.add_argument(
        "folded",
        nargs="?",
        default=None,
        help="folded-stack file (omit when using --from-runs)",
    )
    f.add_argument(
        "--from-runs",
        nargs=2,
        default=None,
        metavar=("DIR", "RUN_ID"),
        help="render the profile stored with 'partition --prof "
        "--runs-dir DIR' (RUN_ID may be a unique prefix)",
    )
    f.add_argument(
        "--output",
        "-o",
        default="flame.svg",
        metavar="PATH",
        help="SVG output path (default flame.svg)",
    )
    f.add_argument(
        "--title",
        default=None,
        help="flamegraph title (default: derived from the input)",
    )

    d = sub.add_parser(
        "serve",
        help="run the partitioning HTTP/JSON job daemon",
    )
    d.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="durable state root (journal, per-job dirs, run store); "
        "restarting with the same dir recovers in-flight jobs",
    )
    d.add_argument("--host", default="127.0.0.1")
    d.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 picks a free port; the bound port is "
        "printed and written to <state-dir>/serve.json)",
    )
    d.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes = concurrently running jobs (default 2)",
    )
    d.add_argument(
        "--queue-capacity",
        type=int,
        default=32,
        help="bounded admission queue size; beyond it submissions get "
        "429 + Retry-After (default 32)",
    )
    d.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per job before degrading to checkpoint "
        "best-so-far (default 3)",
    )
    d.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-attempt wall-clock cap enforced by the pool",
    )
    d.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="grace period for running jobs on SIGTERM before they are "
        "checkpointed and re-queued (default 10)",
    )
    d.add_argument(
        "--prof-slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="profile-on-slow: sample every attempt and keep the "
        "profile when its wall exceeds MS milliseconds "
        "(<state-dir>/profiles/<job>.folded, served at "
        "GET /jobs/<id>/profile)",
    )
    d.add_argument(
        "--no-obs",
        action="store_true",
        help="disable span tracing, /metrics and the JSON access log "
        "(observability is on by default)",
    )
    d.add_argument(
        "--test-hooks",
        action="store_true",
        help=argparse.SUPPRESS,  # fault-injection seam for tests/CI only
    )

    w = sub.add_parser(
        "top",
        help="live terminal dashboard over a running serve daemon",
    )
    w.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="discover the endpoint from <state-dir>/serve.json",
    )
    w.add_argument("--host", default=None, help="explicit daemon host")
    w.add_argument(
        "--port", type=int, default=None, help="explicit daemon port"
    )
    w.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    w.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames then exit (default: until Ctrl-C)",
    )
    return parser


def _fpart_config(args: argparse.Namespace):
    """DEFAULT_CONFIG with the CLI's budget/strictness overrides."""
    overrides = {}
    if args.deadline is not None:
        overrides["deadline_seconds"] = args.deadline
    if args.max_iterations is not None:
        overrides["max_iterations"] = args.max_iterations
    if args.max_moves is not None:
        overrides["max_moves"] = args.max_moves
    if args.strict:
        overrides["strict"] = True
    if args.seed:
        overrides["seed"] = args.seed
    if not overrides:
        return DEFAULT_CONFIG
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)


def _run_fpart_portfolio(hg, device, args: argparse.Namespace):
    """Run the ``--restarts`` portfolio and return the reduced winner.

    Per-run telemetry flags would need one stream per restart and are
    rejected; ``--runs-dir`` composes — every restart records itself
    into the shared registry from its worker, and this driver skips the
    single-run recording path so the winner is never stored twice.
    """
    from .core.runguard import RunBudget, RunGuard
    from .parallel import run_restarts

    for active, name in (
        (args.checkpoint, "--checkpoint"),
        (args.resume, "--resume"),
        (args.prof, "--prof"),
        (args.trace, "--trace"),
        (args.metrics, "--metrics"),
        (args.progress, "--progress"),
    ):
        if active:
            raise PartitioningError(
                f"{name} is incompatible with --restarts > 1"
            )
    config = _fpart_config(args)
    guard = None
    if config.deadline_seconds is not None:
        # Umbrella guard: the portfolio as a whole honours --deadline;
        # each restart's own deadline and the pool's hard timeout are
        # clamped to what remains.
        guard = RunGuard(
            RunBudget(deadline_seconds=config.deadline_seconds)
        ).start()
    portfolio = run_restarts(
        hg,
        device,
        config,
        restarts=args.restarts,
        jobs=args.jobs,
        runs_dir=args.runs_dir,
        timeout_seconds=args.restart_timeout,
        guard=guard,
    )
    print(
        f"portfolio {portfolio.portfolio_id}: {portfolio.restarts} "
        f"restarts (seeds {config.seed}..{config.seed + args.restarts - 1}) "
        f"jobs={args.jobs} status={portfolio.status}"
    )
    for report in portfolio.reports:
        status = report.result_status or report.task_status
        t_sum = (report.cost or {}).get("t_sum")
        marker = "  <- winner" if report.index == portfolio.winner_index else ""
        print(
            f"  restart {report.index} seed={report.seed} "
            f"run={report.run_id} status={status} k={report.num_devices} "
            f"T_SUM={'-' if t_sum is None else int(t_sum)} "
            f"wall={report.wall_seconds:.2f}s{marker}"
        )
    if portfolio.winner is None:
        raise PartitioningError(
            "portfolio failed: no restart produced a solution"
        )
    return portfolio.winner


def _run_fpart_cli(hg, device, args: argparse.Namespace, solve):
    """Run FPART honouring guard/checkpoint/resume/telemetry flags.

    ``solve`` is :func:`_cmd_partition`'s profiling wrapper; it sees
    only ``partitioner.run``, so checkpoint loading stays outside the
    ``--prof`` samples and ``--prof --resume`` profiles the resumed
    search segment.  One run id flows end-to-end: a resumed run reuses
    the checkpoint's id, and the same id stamps trace events, the
    metrics dump and the result.
    """
    from .core import GracefulInterrupt
    from .core.runguard import RunBudget, RunGuard
    from .logging import new_run_id
    from .obs import (
        NULL_TRACE,
        HeartbeatEmitter,
        MetricsRegistry,
        RunRecord,
        RunStore,
        TraceWriter,
        run_metrics,
    )

    config = _fpart_config(args)
    manager = (
        CheckpointManager(args.checkpoint, every=args.checkpoint_every)
        if args.checkpoint
        else None
    )
    resume_cp = None
    if args.resume:
        if manager is None:
            raise PartitioningError("--resume requires --checkpoint PATH")
        if manager.exists():
            resume_cp = manager.load()
            print(
                f"resuming from {args.checkpoint} "
                f"(iteration {resume_cp.iteration})"
            )
        else:
            print(f"no checkpoint at {args.checkpoint}; starting fresh")

    run_id = (
        resume_cp.run_id
        if resume_cp is not None and resume_cp.run_id
        else new_run_id()
    )
    store = RunStore(args.runs_dir) if args.runs_dir else None
    # Traces land inside the run's own directory unless --trace pins
    # another path; the recorder copies one written elsewhere.  A
    # resumed run whose id is already recorded keeps out of the stored
    # run's directory: the recorder rejects the duplicate id, and its
    # artifacts must survive the attempt.
    metrics = MetricsRegistry() if args.metrics else run_metrics(args.runs_dir)
    trace_path = args.trace
    prof_out = None
    run_dir = store.run_dir(run_id) if store is not None else None
    if run_dir is not None and not (run_dir / "run.json").exists():
        run_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_path or str(run_dir / "trace.jsonl")
        prof_out = str(run_dir / "profile.folded")
    tracer = (
        TraceWriter(trace_path, run_id, sample_moves=args.trace_sample)
        if trace_path
        else NULL_TRACE
    )
    heartbeat = (
        HeartbeatEmitter(
            tracer=tracer,
            stream=sys.stderr if args.progress else None,
            interval_seconds=args.progress_interval,
        )
        if args.progress or tracer.enabled
        else None
    )
    # Foreground runs own the guard so SIGTERM/SIGINT can be routed into
    # a cooperative stop: the run degrades to best-so-far (exit 3), the
    # last iteration-boundary checkpoint stays valid, and a later
    # --resume continues the exact trajectory.
    guard = RunGuard(
        RunBudget.from_config(config, device.lower_bound(hg))
    )
    partitioner = FpartPartitioner(
        hg,
        device,
        config,
        guard=guard,
        checkpoint=manager,
        run_id=run_id,
        metrics=metrics,
        tracer=tracer,
        heartbeat=heartbeat,
    )
    interrupt = GracefulInterrupt(guard)
    try:
        interrupt.install()
        result = solve(
            lambda: partitioner.run(resume_from=resume_cp), prof_out
        )
    finally:
        interrupt.restore()
        tracer.close()
    if interrupt.signaled:
        print(
            f"fpart: interrupted by {interrupt.signaled}; "
            + (
                f"checkpoint kept at {args.checkpoint} (resume with "
                f"--resume)"
                if args.checkpoint
                else "returning best solution so far"
            ),
            file=sys.stderr,
        )
    if args.metrics:
        metrics.dump_json(args.metrics, run_id=partitioner.run_id)
        print(f"metrics written to {args.metrics}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if store is not None and store.record(
        RunRecord.for_fpart(result, partitioner.run_id, config),
        metrics,
        trace=trace_path,
        profile=(args.prof_out or prof_out) if args.prof else None,
    ):
        print(f"run {partitioner.run_id} recorded in {args.runs_dir}")
    return result


def _cmd_partition(args: argparse.Namespace) -> int:
    if args.log_level:
        from .logging import DEFAULT_FORMAT

        configure_logging(
            args.log_level,
            fmt="json" if args.log_format == "json" else DEFAULT_FORMAT,
        )
    if args.algorithm != "fpart" and (
        args.metrics or args.trace or args.runs_dir or args.progress
        or args.restarts != 1 or args.seed
    ):
        raise PartitioningError(
            "--metrics/--trace/--runs-dir/--progress/--restarts/"
            "--seed require --algorithm fpart"
        )
    if args.restarts < 1:
        raise PartitioningError("--restarts must be at least 1")
    if args.jobs < 1:
        raise PartitioningError("--jobs must be at least 1")
    hg = load_netlist(args.netlist)
    device = device_by_name(args.device)
    if args.delta is not None:
        device = device.with_delta(args.delta)

    runners = {
        "kwayx": lambda: kwayx(hg, device),
        "fbb": lambda: fbb_multiway(hg, device),
        "pack": lambda: bfs_pack(hg, device),
    }

    def solve(run, prof_out=None):
        """Call ``run()``; under --prof, sample exactly that call and
        write its folded stacks to --prof-out (else ``prof_out``, else
        ``profile.folded``)."""
        if not args.prof:
            return run()
        from .obs import SamplingProfiler, atomic_write_text

        sampler = SamplingProfiler().start()
        try:
            result = run()
        finally:
            sampler.stop()
        path = args.prof_out or prof_out or "profile.folded"
        atomic_write_text(path, sampler.folded())
        print(
            f"profile: {sampler.samples} samples at {sampler.hz:g} Hz "
            f"written to {path}"
        )
        return result

    if args.algorithm == "fpart" and args.restarts > 1:
        res = _run_fpart_portfolio(hg, device, args)
    elif args.algorithm == "fpart":
        res = _run_fpart_cli(hg, device, args, solve)
    else:
        res = solve(runners[args.algorithm])

    if args.algorithm == "fpart":
        assignment = res.assignment
        print(res.summary())
        if args.verbose:
            for b, (size, pins) in enumerate(
                zip(res.block_sizes, res.block_pins)
            ):
                print(f"  block {b}: size={size} pins={pins}")
    elif args.algorithm == "kwayx":
        assignment = list(res.assignment)
        print(res.summary())
    else:  # fbb / pack report block lists
        assignment = [0] * hg.num_cells
        for b, block in enumerate(res.blocks):
            for c in block:
                assignment[c] = b
        print(res.summary())

    if args.output:
        with open(args.output, "w", encoding="ascii") as stream:
            for cell, block in enumerate(assignment):
                stream.write(f"{hg.cell_label(cell)} {block}\n")
        print(f"assignment written to {args.output}")
    if args.algorithm == "fpart" and res.status != "feasible":
        print(
            f"warning: degraded run ({res.status})"
            + (f": {res.error}" if res.error else ""),
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    hg = generate_circuit(
        args.name, num_cells=args.cells, num_ios=args.ios, seed=args.seed
    )
    _save(hg, args.output)
    print(f"wrote {hg!r} to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .hypergraph import lint_netlist, render_lint

    hg = load_netlist(args.netlist)
    print(hg)
    print(compute_stats(hg).summary())
    if args.lint:
        print(render_lint(lint_netlist(hg)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    hg = load_netlist(args.netlist)
    device = device_by_name(args.device)
    if args.delta is not None:
        device = device.with_delta(args.delta)
    assignment = read_assignment_file(args.assignment, hg)
    report = validate_assignment(hg, assignment, device)
    print(report.summary())
    for block in range(report.num_blocks):
        print(
            f"  block {block}: size={report.block_sizes[block]} "
            f"pins={report.block_pins[block]}"
        )
    return 0 if report.feasible else EXIT_INFEASIBLE


def _cmd_split(args: argparse.Namespace) -> int:
    from .hypergraph import split_into_devices

    hg = load_netlist(args.netlist)
    assignment = read_assignment_file(args.assignment, hg)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pieces = split_into_devices(hg, assignment)
    stem = Path(args.netlist).stem
    for index, piece in enumerate(pieces):
        path = out_dir / f"{stem}_dev{index}.{args.format}"
        _save(piece.sub, str(path))
        print(
            f"device {index}: {piece.sub.num_cells} cells, "
            f"{piece.sub.num_terminals} pads -> {path}"
        )
    print(f"{len(pieces)} device netlists written to {out_dir}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if getattr(args, "phases", False):
        return _cmd_report_phases(args)
    if args.from_runs:
        return _cmd_report_from_runs(args)
    if args.spans and args.trace is None and args.netlist is not None:
        # `fpart report --spans spans.jsonl`: the positional file is
        # the event log, not a netlist.
        args.trace = args.netlist
    if args.trace:
        return _cmd_report_trace(args)
    if args.netlist is None:
        raise PartitioningError(
            "report needs a netlist (or --trace PATH / --from-runs)"
        )
    from .analysis import generate_report

    hg = load_netlist(args.netlist)
    device = device_by_name(args.device)
    if args.delta is not None:
        device = device.with_delta(args.delta)
    report = generate_report(
        hg, device, include_baselines=not args.no_baselines
    )
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_report_trace(args: argparse.Namespace) -> int:
    """Convergence report (or span tree) from a JSONL trace stream."""
    from .analysis.convergence import (
        render_convergence_svg,
        render_pass_table,
    )
    from .obs import read_trace, validate_trace

    if not Path(args.trace).exists():
        raise FileNotFoundError(f"no such trace file: {args.trace}")
    events = read_trace(args.trace)
    if getattr(args, "spans", False):
        # Span view: tolerant by design — a trace with no span events
        # (a plain CLI run) renders the degenerate placeholder, and
        # schema validation is skipped because a span log shared by
        # several daemon generations carries one run id per generation.
        from .obs import render_span_tree

        text = render_span_tree(events)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
            print(f"report written to {args.output}")
        else:
            print(text)
        return 0
    problems = validate_trace(events)
    if problems:
        for problem in problems:
            print(f"fpart: trace: {problem}", file=sys.stderr)
        raise PartitioningError(
            f"{args.trace}: {len(problems)} trace schema error(s)"
        )
    run_id = events[0].get("run_id", "-") if events else "-"
    table = f"Convergence of run {run_id} ({args.trace}):\n"
    table += render_pass_table(events)
    if args.output:
        Path(args.output).write_text(table + "\n", encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(table)
    if args.svg:
        Path(args.svg).write_text(
            render_convergence_svg(events), encoding="utf-8"
        )
        print(f"convergence plot written to {args.svg}")
    return 0


def _cmd_report_phases(args: argparse.Namespace) -> int:
    """Per-run phase table from a stored run or a --metrics dump.

    ``fpart report --phases --from-runs DIR RUN_ID`` reads the stored
    snapshot and the recorded wall; ``fpart report --phases m.json``
    reads a ``partition --metrics`` dump, taking measured wall from the
    ``fpart.runtime_seconds`` gauge the partitioner records.
    """
    from .obs import render_phase_table

    if args.from_runs:
        from .obs import RunStore

        runs_dir, run_id = args.from_runs
        record, snapshot = RunStore(runs_dir).artifact(run_id, "metrics")
        wall = record.wall_seconds
        run_id = record.run_id
    else:
        if args.netlist is None:
            raise PartitioningError(
                "report --phases needs --from-runs DIR RUN_ID or a "
                "--metrics JSON dump as the positional argument"
            )
        if not Path(args.netlist).exists():
            raise FileNotFoundError(f"no such metrics file: {args.netlist}")
        payload = json.loads(Path(args.netlist).read_text(encoding="utf-8"))
        snapshot = payload.get("metrics", payload)
        run_id = payload.get("run_id", "")
        wall = snapshot.get("gauges", {}).get("fpart.runtime_seconds")
    text = render_phase_table(snapshot, wall_seconds=wall, run_id=run_id)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_flame(args: argparse.Namespace) -> int:
    """Render a folded-stack profile as a flamegraph SVG."""
    from .obs import render_flamegraph

    if args.from_runs:
        from .obs import RunStore

        runs_dir, run_id = args.from_runs
        record, folded_path = RunStore(runs_dir).artifact(
            run_id, "profile.folded"
        )
        title = args.title or f"fpart run {record.run_id}"
    elif args.folded:
        folded_path = Path(args.folded)
        if not folded_path.exists():
            raise FileNotFoundError(f"no such folded file: {args.folded}")
        title = args.title or f"fpart profile ({folded_path.name})"
    else:
        raise PartitioningError(
            "flame needs a folded-stack file or --from-runs DIR RUN_ID"
        )
    folded = folded_path.read_text(encoding="utf-8")
    svg = render_flamegraph(folded, title=title)
    Path(args.output).write_text(svg, encoding="utf-8")
    print(f"flamegraph written to {args.output}")
    return 0


def _cmd_report_from_runs(args: argparse.Namespace) -> int:
    """Convergence report of a run recorded in a ``--runs-dir`` store."""
    from .analysis.convergence import (
        render_convergence_svg,
        render_pass_table,
    )
    from .obs import RunStore, RunStoreError, read_trace

    runs_dir, run_id = args.from_runs
    store = RunStore(runs_dir)
    record = store.get(run_id)
    cost = record.cost or {}
    lines = [
        f"Run {record.run_id} ({record.circuit} on {record.device}, "
        f"{record.method}):",
        f"  recorded: {record.created_utc}",
        f"  status: {record.status}  devices: {record.num_devices} "
        f"(M={record.lower_bound})",
        f"  wall: {record.wall_seconds:.3f}s  "
        f"iterations: {record.iterations}",
    ]
    if cost:
        lines.append(
            f"  cost: f={cost.get('f')} d_k={cost.get('d_k')} "
            f"T_SUM={cost.get('t_sum')} d_k_e={cost.get('d_k_e')}"
        )
    try:
        _, trace_file = store.artifact(record.run_id, "trace.jsonl")
    except RunStoreError:
        lines.append("  (no trace stream stored for this run)")
    else:
        events = read_trace(trace_file)
        lines.append("")
        lines.append(render_pass_table(events))
        if args.svg:
            Path(args.svg).write_text(
                render_convergence_svg(events), encoding="utf-8"
            )
            lines.append(f"convergence plot written to {args.svg}")
    report = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from .obs import RunStore, render_history

    store = RunStore(args.runs_dir)
    records = store.records(
        circuit=args.circuit, device=args.device, method=args.method
    )
    if args.best:
        from .obs.compare import quality_key

        if not records:
            print("no runs recorded")
            return EXIT_DATAERR
        # Same (key, arrival-order) tiebreak as the portfolio reduction:
        # min() keeps the earliest record among equals.
        best = min(records, key=quality_key)
        print(render_history([best]))
        cost = best.cost or {}
        if cost:
            print(
                f"best: {best.run_id} "
                f"(f={cost.get('f')} d_k={cost.get('d_k')} "
                f"T_SUM={cost.get('t_sum')} d_k_e={cost.get('d_k_e')})"
            )
        else:
            print(f"best: {best.run_id}")
        return 0
    print(render_history(records, limit=args.limit))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .obs import RunStore, compare_runs

    store = RunStore(args.runs_dir)
    comparison = compare_runs(
        store,
        args.candidate,
        baseline_id=args.baseline,
        max_slowdown_pct=args.max_slowdown,
    )
    print(comparison.render())
    return EXIT_DEGRADED if comparison.regressed else 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .obs import (
        RunStore,
        RunStoreError,
        read_trace,
        write_chrome_trace,
        write_openmetrics,
    )

    if not args.openmetrics and not args.chrome_trace:
        raise PartitioningError(
            "export needs --openmetrics PATH and/or --chrome-trace PATH"
        )
    store = RunStore(args.runs_dir)
    record = store.get(args.run_id)
    if args.openmetrics:
        _, snapshot = store.artifact(record.run_id, "metrics")
        write_openmetrics(
            args.openmetrics,
            snapshot,
            labels={
                "run_id": record.run_id,
                "circuit": record.circuit,
                "device": record.device,
            },
        )
        print(f"OpenMetrics written to {args.openmetrics}")
    if args.chrome_trace:
        _, trace_file = store.artifact(record.run_id, "trace.jsonl")
        # Side channels, when present: this run's service spans (the
        # serve state-dir layout keeps spans.jsonl next to runs/, and a
        # job's record carries its trace id) and its stored profile.
        spans = None
        trace_id = record.labels.get("trace_id")
        spans_file = Path(args.runs_dir).parent / "spans.jsonl"
        if trace_id and spans_file.exists():
            spans = [
                e for e in read_trace(spans_file)
                if e.get("trace_id") == trace_id
            ] or None
        try:
            _, folded_file = store.artifact(record.run_id, "profile.folded")
            profile = folded_file.read_text(encoding="utf-8")
        except RunStoreError:
            profile = None
        write_chrome_trace(
            args.chrome_trace,
            read_trace(trace_file),
            spans=spans,
            profile=profile,
        )
        merged = [name for name, side in
                  (("spans", spans), ("profile", profile)) if side]
        print(
            f"Chrome trace written to {args.chrome_trace}"
            + (f" (merged: {', '.join(merged)})" if merged else "")
        )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise PartitioningError("--jobs must be at least 1")
    records = run_device_experiment(
        args.device,
        circuits=args.circuits,
        methods=args.methods,
        runs_dir=args.runs_dir,
        jobs=args.jobs,
    )
    print(render_device_comparison(args.device, records, args.methods))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the partitioning daemon until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from .obs import atomic_write_text
    from .serve import (
        PartitionService,
        ServiceConfig,
        make_server,
        serve_forever_in_thread,
    )

    obs_enabled = not getattr(args, "no_obs", False)
    service = PartitionService(
        ServiceConfig(
            state_dir=args.state_dir,
            jobs=args.jobs,
            queue_capacity=args.queue_capacity,
            max_attempts=args.max_attempts,
            job_timeout_seconds=args.job_timeout,
            drain_seconds=args.drain_seconds,
            allow_test_hooks=args.test_hooks,
            obs_enabled=obs_enabled,
            prof_slow_ms=args.prof_slow_ms,
        )
    ).start()
    if obs_enabled:
        from .serve.server import attach_access_log

        attach_access_log(Path(args.state_dir) / "access.jsonl")
    server = make_server(args.host, args.port, service)
    host, port = server.server_address[0], server.server_address[1]

    # Discovery file: tests and scripts find the bound port here even
    # when --port 0 asked the OS to pick one.
    state_dir = Path(args.state_dir)
    endpoint = {"host": host, "port": port, "pid": os.getpid()}
    atomic_write_text(
        state_dir / "serve.json", json.dumps(endpoint, sort_keys=True)
    )

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)

    recovered = service.stats()["recovered"]
    print(
        f"fpart: serve listening on http://{host}:{port} "
        f"(state {state_dir}, {args.jobs} workers"
        + (f", {recovered} jobs recovered)" if recovered else ")"),
        file=sys.stderr,
    )
    http_thread = serve_forever_in_thread(server)
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("fpart: serve draining...", file=sys.stderr)
    summary = service.drain()
    server.shutdown()
    http_thread.join(timeout=5.0)
    requeued = len(summary["requeued"])
    print(
        "fpart: serve stopped"
        + (f" ({requeued} jobs re-queued for next start)" if requeued else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running serve daemon."""
    from .serve import ServeClient, ServeClientError
    from .serve.top import discover_endpoint, run_top

    if args.host is not None and args.port is not None:
        host, port = args.host, args.port
    elif args.state_dir is not None:
        host, port = discover_endpoint(args.state_dir)
    else:
        raise PartitioningError(
            "top needs --state-dir DIR or both --host and --port"
        )
    client = ServeClient(host, port)
    try:
        return run_top(
            client, interval=args.interval, iterations=args.iterations
        )
    except ServeClientError as error:
        raise PartitioningError(f"top: {error}") from error


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    User-facing failures become one-line ``fpart: error: ...`` messages
    on stderr with sysexits-style codes (65 = malformed input, 66 =
    missing file, 70 = partitioning failure) — never a traceback.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "partition": _cmd_partition,
        "generate": _cmd_generate,
        "info": _cmd_info,
        "verify": _cmd_verify,
        "split": _cmd_split,
        "report": _cmd_report,
        "table": _cmd_table,
        "history": _cmd_history,
        "compare": _cmd_compare,
        "export": _cmd_export,
        "flame": _cmd_flame,
        "serve": _cmd_serve,
        "top": _cmd_top,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as error:
        print(f"fpart: error: {error}", file=sys.stderr)
        return EXIT_NOINPUT
    except NetlistFormatError as error:
        print(f"fpart: error: invalid netlist: {error}", file=sys.stderr)
        return EXIT_DATAERR
    except ValueError as error:
        # Assignment files raise plain ValueError.
        print(f"fpart: error: {error}", file=sys.stderr)
        return EXIT_DATAERR
    except KeyError as error:
        # Device catalog lookups.
        print(f"fpart: error: {error.args[0]}", file=sys.stderr)
        return EXIT_DATAERR
    except OSError as error:
        print(f"fpart: error: {error}", file=sys.stderr)
        return EXIT_NOINPUT
    except PartitioningError as error:
        print(f"fpart: error: {error}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
