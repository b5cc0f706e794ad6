"""Perf-regression harness: whole-run and evaluator-path timings.

Standalone (NOT a pytest-benchmark bench)::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py
    PYTHONPATH=src python benchmarks/bench_perf_regression.py --smoke

Measures two things and writes ``BENCH_perf.json`` at the repo root
(schema documented in EXPERIMENTS.md):

1. **Whole-run wall time** of canonical FPART workloads, once on the
   default incremental evaluator and once with the full-sweep
   :class:`~repro.core.cost.CostEvaluator` injected through
   ``FpartPartitioner(..., evaluator=...)``; the two runs must produce
   identical assignments (the incremental evaluator is bit-identical by
   construction, so any divergence is a bug).

2. **Evaluator-path speedup** — the per-move cost-evaluation work,
   which is what this harness guards against regressing.  The pre-change
   engine re-evaluated the full O(k) sweep (plus a frozen-dataclass
   ``SolutionCost``) after every applied move; the incremental path does
   one fused two-block refresh that also rebuilds the raw comparison
   key, which the engines then read from ``last_key_cell``.  Keys are
   verified bitwise equal move-for-move, then both paths are timed over
   the same recorded move trace on a mid-run FPART state, and the
   harness fails (exit 1) if the speedup drops below the floor.

3. **Serve-obs case** (schema 6) — the wall-clock overhead of service
   observability (span tracing, /metrics, journalled span ids) on
   sleep-dominated serve jobs, obs on vs ``obs_enabled=False``.

4. **Prof-overhead case** (schema 7) — the wall-clock overhead of the
   sampling profiler (``repro.obs.prof``, default 97 Hz) on whole FPART
   runs, profiled vs unprofiled arms.  The profiler only *reads* frames
   from a background thread, so both arms must stay bit-identical; the
   measured cost is GIL contention from the sampler thread waking
   ``hz`` times a second.

Cross-PR trajectory: commit the refreshed ``BENCH_perf.json`` whenever
the numbers move materially; ``git log -p BENCH_perf.json`` then shows
the perf history of the repo.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from helpers import (  # noqa: E402
    attach_untracked,
    interleaved_min,
    replay_fixture,
)
from repro.circuits import mcnc_circuit  # noqa: E402
from repro.core import (  # noqa: E402
    NULL_GUARD,
    CostEvaluator,
    FpartConfig,
    FpartPartitioner,
    IncrementalCostEvaluator,
    RunBudget,
    RunGuard,
    device_by_name,
    fpart,
)

#: Minimum acceptable evaluator-path speedup (the acceptance bar) on
#: the canonical s15850 workload (k=7 blocks).  The legacy sweep is
#: O(k), so the achievable ratio shrinks with the block count; the
#: smoke workload (s9234, k=4) gets a proportionally lower floor.
SPEEDUP_FLOOR = 3.0
SMOKE_SPEEDUP_FLOOR = 2.0

#: Maximum acceptable run-guard overhead on the evaluator path, in
#: percent.  The guard's per-move cost is one local integer decrement
#: (the clock is consulted once per ``check_interval`` moves), so the
#: budget checks must stay within 2% of the unguarded path.  The smoke
#: ceiling is looser because short CI traces amplify timer noise.
GUARD_OVERHEAD_CEILING_PCT = 2.0
SMOKE_GUARD_OVERHEAD_CEILING_PCT = 10.0

#: Maximum acceptable metrics-on overhead on the evaluator path, in
#: percent (the observability overhead contract, DESIGN.md).  The
#: engines keep all metric accumulation off the evaluator-path window —
#: per-move observations ride the selection path into pass-local
#: variables and are flushed to the registry once per pass — so the
#: metrics-on evaluator path must stay within 2% of metrics-off.
METRICS_OVERHEAD_CEILING_PCT = 2.0
SMOKE_METRICS_OVERHEAD_CEILING_PCT = 10.0

#: Maximum acceptable wall-clock overhead of service observability
#: (spans + metrics + journalled span ids) on the serve path, in
#: percent.  Measured on sleep-dominated jobs so the number isolates
#: the daemon-side bookkeeping from partitioning compute; the smoke
#: ceiling is looser because short CI runs amplify scheduler-poll
#: quantisation noise.
SERVE_OBS_OVERHEAD_CEILING_PCT = 2.0
SMOKE_SERVE_OBS_OVERHEAD_CEILING_PCT = 10.0

#: Maximum acceptable wall-clock overhead of the sampling profiler at
#: its default rate (97 Hz) on whole FPART runs, in percent.  The
#: sampler never executes bytecode in the profiled thread — its cost is
#: pure GIL contention from ~97 brief wakeups a second — so 2% is an
#: honest production bound; the smoke ceiling is looser because smoke
#: runs are short enough that a single scheduler hiccup is >2%.
PROF_OVERHEAD_CEILING_PCT = 2.0
SMOKE_PROF_OVERHEAD_CEILING_PCT = 10.0

#: Minimum acceptable restart-portfolio wall-clock speedup at
#: ``jobs=4`` vs ``jobs=1`` on the latency-dominated scaling workload
#: (see :func:`bench_parallel_scaling` for why the workload is
#: sleep-padded rather than compute-bound).
PARALLEL_SPEEDUP_FLOOR = 2.5
SMOKE_PARALLEL_SPEEDUP_FLOOR = 1.8

#: Canonical workloads: (circuit, device).  s15850/XC3042 is the
#: largest Table 3 row exercised by default (M=7 ⇒ 42 directions).
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("s9234", "XC3042"),
    ("s15850", "XC3042"),
)
SMOKE_WORKLOADS: Tuple[Tuple[str, str], ...] = (("s9234", "XC3042"),)


def _time_run(circuit: str, device_name: str, incremental: bool):
    hg = mcnc_circuit(circuit)
    device = device_by_name(device_name)
    config = FpartConfig()
    evaluator = None
    if not incremental:
        evaluator = CostEvaluator(
            device, config, device.lower_bound(hg), hg.num_terminals
        )
    start = time.perf_counter()
    result = FpartPartitioner(hg, device, config, evaluator=evaluator).run()
    elapsed = time.perf_counter() - start
    return elapsed, result


def bench_whole_runs(workloads) -> List[Dict]:
    rows: List[Dict] = []
    for circuit, device_name in workloads:
        t_inc, r_inc = _time_run(circuit, device_name, incremental=True)
        t_full, r_full = _time_run(circuit, device_name, incremental=False)
        identical = list(r_inc.assignment) == list(r_full.assignment)
        rows.append(
            {
                "circuit": circuit,
                "device": device_name,
                "devices_used": r_inc.num_devices,
                "wall_s_incremental": round(t_inc, 4),
                "wall_s_full": round(t_full, 4),
                "assignments_identical": identical,
            }
        )
        print(
            f"run {circuit}/{device_name}: "
            f"incremental={t_inc:.2f}s full-sweep={t_full:.2f}s "
            f"identical={identical}"
        )
        if not identical:
            raise SystemExit(
                f"FATAL: {circuit}/{device_name} diverged between "
                "incremental and full-sweep cost modes"
            )
    return rows


def bench_evaluator_path(
    circuit: str = "s15850",
    device_name: str = "XC3042",
    moves: int = 20000,
    floor: float = SPEEDUP_FLOOR,
) -> Dict:
    """Per-move evaluator work: pre-change full sweep vs incremental.

    Replays one recorded random move trace on a real mid-run partition
    (the workload's final FPART state, whose block count matches a real
    run) through both evaluator paths.  The incremental arm is timed
    the way the engines read it: one fused listener call refreshes the
    aggregates *and* the key, then the key cell is read.  Keys are
    verified bitwise equal move-for-move before anything is timed.
    """
    hg, device, state, k, trace = replay_fixture(circuit, device_name, moves)
    m = device.lower_bound(hg)
    config = FpartConfig()
    baseline = state.assignment()
    perf_counter = time.perf_counter

    # Pre-change path: full O(k) sweep + SolutionCost per applied move
    # (exactly what the engine did before the incremental evaluator).
    legacy = CostEvaluator(device, config, m, hg.num_terminals)
    # Incremental path: normally riding on ``state.move()`` as a
    # listener — driven by hand here so it can be timed.
    inc = IncrementalCostEvaluator(device, config, m, hg.num_terminals)

    def reset() -> None:
        state.restore(baseline)
        attach_untracked(inc, state)  # resync after the untracked restore
        inc.set_remainder(0)

    reset()
    for cell, to_block in trace:
        from_block = state.block_of(cell)
        state.move(cell, to_block)
        inc.on_move(from_block, to_block)
        if inc.last_key_cell[0] != legacy.evaluate(state, 0).key:
            raise SystemExit(
                "FATAL: incremental evaluator key diverged from the "
                "full sweep"
            )
    reset()

    # Both loops apply the same moves; only the time spent inside the
    # cost-evaluation work is accumulated (the move itself is common to
    # both paths and excluded).
    def legacy_loop() -> float:
        total = 0.0
        for cell, to_block in trace:
            state.move(cell, to_block)
            start = perf_counter()
            legacy.evaluate(state, 0).key  # noqa: B018 — timed expression
            total += perf_counter() - start
        return total

    def incremental_loop() -> float:
        on_move = inc.on_move
        key_cell = inc.last_key_cell
        total = 0.0
        for cell, to_block in trace:
            from_block = state.block_of(cell)
            state.move(cell, to_block)
            start = perf_counter()
            on_move(from_block, to_block)
            key_cell[0]  # noqa: B018 — the engine's per-move key read
            total += perf_counter() - start
        return total

    t_legacy, t_inc = interleaved_min(legacy_loop, incremental_loop, reset)
    inc.detach()

    t_inc = max(t_inc, 1e-9)
    speedup = t_legacy / t_inc
    row = {
        "circuit": circuit,
        "device": device_name,
        "blocks": k,
        "moves": moves,
        "per_move_us_full_sweep": round(t_legacy / moves * 1e6, 3),
        "per_move_us_incremental": round(t_inc / moves * 1e6, 3),
        "speedup": round(speedup, 2),
        "keys_identical": True,
        "floor": floor,
    }
    print(
        f"evaluator path {circuit}/{device_name} (k={k}, {moves} moves): "
        f"full-sweep={row['per_move_us_full_sweep']}us/move "
        f"incremental={row['per_move_us_incremental']}us/move "
        f"speedup={speedup:.1f}x (floor {floor}x, keys identical)"
    )
    return row


def bench_guard_overhead(
    circuit: str = "s15850",
    device_name: str = "XC3042",
    moves: int = 20000,
    ceiling_pct: float = GUARD_OVERHEAD_CEILING_PCT,
) -> Dict:
    """Run-guard lease protocol overhead on the incremental hot path.

    Replays the evaluator-path move trace twice through the exact
    per-move sequence the engines run — incremental refresh, key query,
    then the guard's ``budget_left`` decrement with a periodic
    ``lease()`` — once under the no-op :data:`NULL_GUARD` and once under
    a real :class:`RunGuard` with live (but far-away) deadline and move
    budgets.  The acceptance bar: the real guard must add less than
    ``ceiling_pct`` percent.
    """
    hg, device, state, k, trace = replay_fixture(circuit, device_name, moves)
    m = device.lower_bound(hg)
    config = FpartConfig()
    baseline = state.assignment()
    perf_counter = time.perf_counter

    inc = IncrementalCostEvaluator(device, config, m, hg.num_terminals)
    attach_untracked(inc, state)

    def loop(guard) -> float:
        total = 0.0
        budget_left = guard.lease()
        for cell, to_block in trace:
            from_block = state.block_of(cell)
            state.move(cell, to_block)
            start = perf_counter()
            inc.on_move(from_block, to_block)
            inc.current_key(0)
            budget_left -= 1
            if budget_left <= 0:
                budget_left = guard.lease()
            total += perf_counter() - start
        guard.settle(budget_left)
        return total

    def live_guard() -> RunGuard:
        # Real budgets, set far enough away that nothing trips: the
        # timed work is the checking, not the tripping.
        return RunGuard(
            RunBudget(
                deadline_seconds=3600.0,
                max_moves=10**12,
                check_interval=256,
            )
        ).start()

    def reset() -> None:
        state.restore(baseline)
        attach_untracked(inc, state)

    t_null, t_guarded = interleaved_min(
        lambda: loop(NULL_GUARD), lambda: loop(live_guard()), reset,
        repeats=5,
    )
    inc.detach()

    overhead_pct = (t_guarded / max(t_null, 1e-9) - 1.0) * 100.0
    row = {
        "circuit": circuit,
        "device": device_name,
        "blocks": k,
        "moves": moves,
        "per_move_us_unguarded": round(t_null / moves * 1e6, 3),
        "per_move_us_guarded": round(t_guarded / moves * 1e6, 3),
        "overhead_pct": round(overhead_pct, 2),
        "ceiling_pct": ceiling_pct,
    }
    print(
        f"guard overhead {circuit}/{device_name} (k={k}, {moves} moves): "
        f"unguarded={row['per_move_us_unguarded']}us/move "
        f"guarded={row['per_move_us_guarded']}us/move "
        f"overhead={overhead_pct:.2f}% (ceiling {ceiling_pct}%)"
    )
    return row


def bench_metrics_overhead(
    circuit: str = "s15850",
    device_name: str = "XC3042",
    moves: int = 20000,
    ceiling_pct: float = METRICS_OVERHEAD_CEILING_PCT,
) -> Dict:
    """Metrics-on vs metrics-off cost of the evaluator-path window.

    Replays the shared move trace through the exact per-move sequence
    the instrumented Sanchis engine runs on the evaluator path:
    incremental refresh, key query, the unconditional ``applied``
    counter.  The metrics-on loop additionally charges the registry
    flush (counter increment + histogram bucket merge) at every chunk
    boundary *inside* the timed window — the engine flushes once per
    pass in its ``finally`` clause, and real passes are usually longer
    than a chunk, so this over-counts and bounds the production
    overhead from above.  The per-move gain bucketing rides the
    selection path (not timed here); the whole-run identity check in
    the observability integration tests covers it.
    """
    from repro.obs import MetricsRegistry, NULL_METRICS
    from repro.obs.metrics import GAIN_HIST_HI, GAIN_HIST_LO

    hg, device, state, k, trace = replay_fixture(circuit, device_name, moves)
    m = device.lower_bound(hg)
    config = FpartConfig()
    baseline = state.assignment()
    perf_counter = time.perf_counter

    inc = IncrementalCostEvaluator(device, config, m, hg.num_terminals)
    attach_untracked(inc, state)

    flush_every = 2048  # pass-boundary stand-in (conservative: real
    # passes are usually longer, so real flushes are rarer)

    def loop(metrics) -> float:
        collect = metrics.enabled
        ghist = [0] * (GAIN_HIST_HI - GAIN_HIST_LO)
        applied = 0
        total = 0.0
        for chunk_start in range(0, len(trace), flush_every):
            for cell, to_block in trace[chunk_start:chunk_start + flush_every]:
                from_block = state.block_of(cell)
                state.move(cell, to_block)
                start = perf_counter()
                inc.on_move(from_block, to_block)
                inc.current_key(0)
                applied += 1
                total += perf_counter() - start
            if collect:
                start = perf_counter()
                metrics.counter("sanchis.moves_tried").inc(flush_every)
                metrics.histogram(
                    "sanchis.gain1", GAIN_HIST_LO, GAIN_HIST_HI
                ).add_buckets(ghist)
                total += perf_counter() - start
        return total

    def reset() -> None:
        state.restore(baseline)
        attach_untracked(inc, state)

    t_off, t_on = interleaved_min(
        lambda: loop(NULL_METRICS), lambda: loop(MetricsRegistry()), reset,
        repeats=5,
    )
    inc.detach()

    overhead_pct = (t_on / max(t_off, 1e-9) - 1.0) * 100.0
    row = {
        "circuit": circuit,
        "device": device_name,
        "blocks": k,
        "moves": moves,
        "per_move_us_metrics_off": round(t_off / moves * 1e6, 3),
        "per_move_us_metrics_on": round(t_on / moves * 1e6, 3),
        "overhead_pct": round(overhead_pct, 2),
        "ceiling_pct": ceiling_pct,
    }
    print(
        f"metrics overhead {circuit}/{device_name} (k={k}, {moves} moves): "
        f"off={row['per_move_us_metrics_off']}us/move "
        f"on={row['per_move_us_metrics_on']}us/move "
        f"overhead={overhead_pct:.2f}% (ceiling {ceiling_pct}%)"
    )
    return row


def bench_parallel_scaling(
    circuit: str = "s9234",
    device_name: str = "XC3042",
    restarts: int = 4,
    jobs: int = 4,
    delay_s: float = 0.06,
    floor: float = PARALLEL_SPEEDUP_FLOOR,
) -> Dict:
    """Restart-portfolio wall-clock scaling: ``jobs=N`` vs ``jobs=1``.

    CI containers may expose a single core, so a compute-bound portfolio
    cannot demonstrate real multi-core scaling there.  Each restart's
    evaluator is therefore latency-padded through the fault-injection
    seam (``FaultPlan.delay`` on ``evaluate()``), making every restart
    sleep-dominated: what the ratio measures is the pool's *scheduler
    overlap* — workers waiting concurrently instead of in sequence —
    which is core-count independent, still includes the full spawn/
    pickle/reduce overhead of the parallel path, and regresses whenever
    the pool serialises or leaks workers.  On a real multi-core host the
    compute part overlaps the same way.  Winner bit-identity between the
    two arms is asserted on the side (a divergence is a determinism bug,
    not a perf regression).
    """
    from repro.parallel import run_restarts
    from repro.testing.faults import FaultPlan

    hg = mcnc_circuit(circuit)
    device = device_by_name(device_name)
    config = FpartConfig()
    # Same plan in every restart and both arms: pure latency, no faults,
    # so the padded runs stay bit-identical to each other.
    plans = {
        i: FaultPlan(delay=delay_s, methods=("evaluate",))
        for i in range(restarts)
    }

    def timed(n_jobs: int):
        start = time.perf_counter()
        portfolio = run_restarts(
            hg, device, config,
            restarts=restarts, jobs=n_jobs, fault_plans=plans,
        )
        return time.perf_counter() - start, portfolio

    t_serial, p_serial = timed(1)
    t_parallel, p_parallel = timed(jobs)
    for arm, portfolio in (("jobs=1", p_serial), (f"jobs={jobs}", p_parallel)):
        if portfolio.status != "complete" or portfolio.winner is None:
            raise SystemExit(
                f"FATAL: parallel_scaling {arm} portfolio degraded "
                f"({portfolio.status})"
            )
    identical = p_serial.winner_index == p_parallel.winner_index and list(
        p_serial.winner.assignment
    ) == list(p_parallel.winner.assignment)
    if not identical:
        raise SystemExit(
            "FATAL: portfolio winner diverged between jobs=1 and "
            f"jobs={jobs}"
        )
    speedup = t_serial / max(t_parallel, 1e-9)
    row = {
        "circuit": circuit,
        "device": device_name,
        "restarts": restarts,
        "jobs": jobs,
        "evaluator_delay_s": delay_s,
        "latency_dominated": True,
        "wall_s_jobs1": round(t_serial, 3),
        "wall_s_jobsN": round(t_parallel, 3),
        "winner_identical": identical,
        "speedup": round(speedup, 2),
        "floor": floor,
    }
    print(
        f"parallel scaling {circuit}/{device_name} "
        f"({restarts} restarts, delay {delay_s * 1e3:.0f}ms/evaluate): "
        f"jobs=1 {t_serial:.2f}s jobs={jobs} {t_parallel:.2f}s "
        f"speedup={speedup:.2f}x (floor {floor}x, winner identical)"
    )
    return row


def bench_serve_obs_overhead(
    jobs_count: int = 6,
    sleep_s: float = 0.2,
    workers: int = 2,
    repeats: int = 2,
    ceiling_pct: float = SERVE_OBS_OVERHEAD_CEILING_PCT,
) -> Dict:
    """Wall-clock cost of serve-side observability: obs on vs obs off.

    Runs the same batch of sleep-dominated jobs (the fault-injection
    ``test_sleep_seconds`` seam, so no partitioning compute muddies the
    measurement) through two in-process :class:`PartitionService`
    instances — one with spans/metrics enabled, one with
    ``obs_enabled=False`` — and reports the relative overhead of the
    instrumented arm.  Each arm takes the best of ``repeats`` interleaved
    runs to shave scheduler-poll jitter.  Jobs are submitted with
    ``force=True`` so dedup never short-circuits the later arm.
    """
    import shutil
    import tempfile

    from repro.circuits import generate_circuit
    from repro.hypergraph.io import write_hgr
    from repro.serve import PartitionService, ServiceConfig

    def run_batch(obs_enabled: bool) -> float:
        root = Path(tempfile.mkdtemp(prefix="fpart-obs-bench-"))
        try:
            netlist = root / "bench.hgr"
            write_hgr(
                generate_circuit(
                    "obsbench", num_cells=60, num_ios=10, seed=3
                ),
                netlist,
            )
            service = PartitionService(
                ServiceConfig(
                    state_dir=str(root / "state"),
                    jobs=workers,
                    allow_test_hooks=True,
                    obs_enabled=obs_enabled,
                )
            ).start()
            try:
                start = time.perf_counter()
                ids = []
                for i in range(jobs_count):
                    response = service.submit(
                        {
                            "netlist": str(netlist),
                            "config": {
                                "test_sleep_seconds": sleep_s,
                                "seed": i + 1,
                            },
                        },
                        force=True,
                    )
                    assert response["status"] == 201, response
                    ids.append(response["job"]["job_id"])
                terminal = {"done", "degraded", "failed", "cancelled"}
                while any(
                    service.job(job_id)["job"]["state"] not in terminal
                    for job_id in ids
                ):
                    time.sleep(0.01)
                return time.perf_counter() - start
            finally:
                service.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    wall_off, wall_on = interleaved_min(
        lambda: run_batch(obs_enabled=False),
        lambda: run_batch(obs_enabled=True),
        repeats=repeats,
    )
    overhead_pct = (wall_on - wall_off) / wall_off * 100.0
    row = {
        "jobs": jobs_count,
        "sleep_s": sleep_s,
        "workers": workers,
        "repeats": repeats,
        "wall_s_obs_off": round(wall_off, 3),
        "wall_s_obs_on": round(wall_on, 3),
        "overhead_pct": round(overhead_pct, 2),
        "ceiling_pct": ceiling_pct,
    }
    print(
        f"serve obs overhead ({jobs_count} jobs x {sleep_s * 1e3:.0f}ms, "
        f"{workers} workers): off {wall_off:.3f}s on {wall_on:.3f}s "
        f"overhead={overhead_pct:+.2f}% (ceiling {ceiling_pct}%)"
    )
    return row


def bench_prof_overhead(
    circuit: str = "s15850",
    device_name: str = "XC3042",
    repeats: int = 3,
    ceiling_pct: float = PROF_OVERHEAD_CEILING_PCT,
) -> Dict:
    """Sampling-profiler overhead on whole FPART runs, on vs off.

    Runs the same workload ``repeats`` times per arm, interleaved — once
    plain, once under a live :class:`~repro.obs.prof.SamplingProfiler`
    at the default 97 Hz — taking the best wall of each arm (the
    standard best-of-N noise shave for whole-run timing).  Every run's
    assignment is compared bit-for-bit against the first plain run's:
    the profiler observes frames from another thread and must never
    perturb the result.  The acceptance bar is ``ceiling_pct`` percent
    relative overhead.
    """
    from repro.obs.prof import PROF_DEFAULT_HZ, SamplingProfiler

    hg = mcnc_circuit(circuit)
    device = device_by_name(device_name)
    config = FpartConfig()

    assignments = []
    profiled_runs = []  # (wall, samples) of every profiled run

    def run_once(profiled: bool) -> float:
        sampler = SamplingProfiler().start() if profiled else None
        try:
            start = time.perf_counter()
            result = fpart(hg, device, config=config)
            elapsed = time.perf_counter() - start
        finally:
            if sampler is not None:
                sampler.stop()
        if sampler is not None:
            profiled_runs.append((elapsed, sampler.samples))
        assignments.append(list(result.assignment))
        return elapsed

    wall_off, wall_on = interleaved_min(
        lambda: run_once(profiled=False),
        lambda: run_once(profiled=True),
        repeats=repeats,
    )
    samples = min(profiled_runs)[1]
    identical = all(a == assignments[0] for a in assignments)
    if not identical:
        raise SystemExit(
            f"FATAL: {circuit}/{device_name} assignment diverged under "
            "the sampling profiler — the profiler must be a pure observer"
        )

    overhead_pct = (wall_on / max(wall_off, 1e-9) - 1.0) * 100.0
    row = {
        "circuit": circuit,
        "device": device_name,
        "hz": PROF_DEFAULT_HZ,
        "repeats": repeats,
        "samples_best_run": samples,
        "wall_s_prof_off": round(wall_off, 4),
        "wall_s_prof_on": round(wall_on, 4),
        "assignments_identical": identical,
        "overhead_pct": round(overhead_pct, 2),
        "ceiling_pct": ceiling_pct,
    }
    print(
        f"prof overhead {circuit}/{device_name} "
        f"({PROF_DEFAULT_HZ} Hz, best of {repeats}): "
        f"off={wall_off:.2f}s on={wall_on:.2f}s "
        f"({samples} samples) overhead={overhead_pct:+.2f}% "
        f"(ceiling {ceiling_pct}%, identical={identical})"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload set for CI (s9234 only, shorter trace)",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_perf.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    workloads = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    moves = 4000 if args.smoke else 20000
    floor = SMOKE_SPEEDUP_FLOOR if args.smoke else SPEEDUP_FLOOR
    guard_ceiling = (
        SMOKE_GUARD_OVERHEAD_CEILING_PCT
        if args.smoke
        else GUARD_OVERHEAD_CEILING_PCT
    )
    metrics_ceiling = (
        SMOKE_METRICS_OVERHEAD_CEILING_PCT
        if args.smoke
        else METRICS_OVERHEAD_CEILING_PCT
    )
    eval_circuit = workloads[-1][0]

    runs = bench_whole_runs(workloads)
    evaluator = bench_evaluator_path(
        eval_circuit, "XC3042", moves=moves, floor=floor
    )
    guard = bench_guard_overhead(
        eval_circuit, "XC3042", moves=moves, ceiling_pct=guard_ceiling
    )
    metrics_row = bench_metrics_overhead(
        eval_circuit, "XC3042", moves=moves, ceiling_pct=metrics_ceiling
    )
    parallel_floor = (
        SMOKE_PARALLEL_SPEEDUP_FLOOR if args.smoke else PARALLEL_SPEEDUP_FLOOR
    )
    parallel_row = bench_parallel_scaling(
        delay_s=0.025 if args.smoke else 0.06,
        floor=parallel_floor,
    )
    serve_obs_ceiling = (
        SMOKE_SERVE_OBS_OVERHEAD_CEILING_PCT
        if args.smoke
        else SERVE_OBS_OVERHEAD_CEILING_PCT
    )
    serve_obs_row = bench_serve_obs_overhead(
        jobs_count=4 if args.smoke else 6,
        sleep_s=0.15 if args.smoke else 0.2,
        ceiling_pct=serve_obs_ceiling,
    )
    prof_ceiling = (
        SMOKE_PROF_OVERHEAD_CEILING_PCT
        if args.smoke
        else PROF_OVERHEAD_CEILING_PCT
    )
    prof_row = bench_prof_overhead(
        eval_circuit,
        "XC3042",
        repeats=2 if args.smoke else 3,
        ceiling_pct=prof_ceiling,
    )

    report = {
        "schema": 10,
        "generated_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "python": platform.python_version(),
        "mode": "smoke" if args.smoke else "full",
        "speedup_floor": floor,
        "whole_runs": runs,
        "evaluator_path": evaluator,
        "guard_overhead": guard,
        "metrics_overhead": metrics_row,
        "parallel_scaling": parallel_row,
        "serve_obs_overhead": serve_obs_row,
        "prof_overhead": prof_row,
    }
    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {out}")

    failed = False
    if evaluator["speedup"] < floor:
        print(
            f"FAIL: evaluator-path speedup {evaluator['speedup']}x is "
            f"below the {floor}x floor"
        )
        failed = True
    if guard["overhead_pct"] > guard_ceiling:
        print(
            f"FAIL: guard overhead {guard['overhead_pct']}% exceeds "
            f"the {guard_ceiling}% ceiling"
        )
        failed = True
    if metrics_row["overhead_pct"] > metrics_ceiling:
        print(
            f"FAIL: metrics overhead {metrics_row['overhead_pct']}% exceeds "
            f"the {metrics_ceiling}% ceiling"
        )
        failed = True
    if parallel_row["speedup"] < parallel_floor:
        print(
            f"FAIL: parallel-restart speedup {parallel_row['speedup']}x "
            f"is below the {parallel_floor}x floor"
        )
        failed = True
    if serve_obs_row["overhead_pct"] > serve_obs_ceiling:
        print(
            f"FAIL: serve obs overhead {serve_obs_row['overhead_pct']}% "
            f"exceeds the {serve_obs_ceiling}% ceiling"
        )
        failed = True
    if prof_row["overhead_pct"] > prof_ceiling:
        print(
            f"FAIL: profiler overhead {prof_row['overhead_pct']}% "
            f"exceeds the {prof_ceiling}% ceiling"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
