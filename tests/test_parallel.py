"""Parallel execution subsystem tests.

Pins the contracts of ``repro.parallel``:

* **pool** — outcomes arrive in task-index order whatever the
  completion order; a raising task degrades to ``"error"``, a dying
  worker to ``"crashed"``, a hung task to ``"timeout"``, and none of
  them poison the other tasks;
* **reduction** — the lexicographic winner is a pure function of the
  candidate set: invariant to worker count, completion order and
  submission shuffling (the property the paper's best-of discipline
  needs to survive parallelisation);
* **restarts** — ``run_restarts`` is bit-identical for any ``jobs``,
  seeds follow the ``seed + i`` ladder, casualties degrade the
  portfolio to ``partial`` instead of sinking it, and every restart
  records itself into a shared run store;
* **sweeps** — sharded ``run_device_experiment`` returns the same
  records in the same order as the serial sweep, and the per-cell metric
  snapshots its workers store merge to the serial totals;
* **CLI** — ``partition --restarts/--jobs`` and ``history --best``.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time

import pytest

from repro.circuits import generate_circuit
from repro.core import FpartConfig, device_by_name
from repro.core.runguard import RunBudget, RunGuard
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, merge_snapshots
from repro.obs.runstore import RunStore
from repro.parallel import (
    Candidate,
    ParallelTask,
    TASK_STATUSES,
    TaskOutcome,
    WorkerPool,
    rank_candidates,
    reduce_candidates,
    reduce_portfolio,
    restart_seed,
    result_quality_key,
    run_restarts,
)
from repro.testing import FaultPlan


# -- picklable task payloads (module-level by the pool contract) ---------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _die(_x):
    os._exit(13)


def _sleep_then_square(seconds, x):
    time.sleep(seconds)
    return x * x


def _hang(_x):
    time.sleep(60.0)


@pytest.fixture
def circuit():
    return generate_circuit("par-test", num_cells=150, num_ios=24, seed=7)


@pytest.fixture
def device():
    return device_by_name("XC3020")


class TestWorkerPool:
    def test_inline_matches_pool(self):
        tasks = [
            ParallelTask(index=i, fn=_square, args=(i,)) for i in range(5)
        ]
        inline = WorkerPool(1).run(tasks)
        pooled = WorkerPool(2).run(tasks)
        assert [o.value for o in inline] == [0, 1, 4, 9, 16]
        assert [o.value for o in pooled] == [o.value for o in inline]
        assert all(o.ok for o in pooled)

    def test_outcomes_in_index_order_not_completion_order(self):
        # Task 0 finishes last; outcomes must still lead with index 0.
        tasks = [
            ParallelTask(index=0, fn=_sleep_then_square, args=(0.3, 3)),
            ParallelTask(index=1, fn=_sleep_then_square, args=(0.0, 4)),
            ParallelTask(index=2, fn=_sleep_then_square, args=(0.0, 5)),
        ]
        outcomes = WorkerPool(3).run(tasks)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.value for o in outcomes] == [9, 16, 25]

    def test_raising_task_is_error_not_poison(self):
        tasks = [
            ParallelTask(index=0, fn=_square, args=(2,)),
            ParallelTask(index=1, fn=_boom, args=(1,)),
            ParallelTask(index=2, fn=_square, args=(3,)),
        ]
        outcomes = WorkerPool(2).run(tasks)
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]
        assert "boom 1" in outcomes[1].error
        assert outcomes[0].value == 4 and outcomes[2].value == 9

    def test_dead_worker_is_crashed_and_others_survive(self):
        tasks = [
            ParallelTask(index=0, fn=_square, args=(6,)),
            ParallelTask(index=1, fn=_die, args=(0,)),
            ParallelTask(index=2, fn=_square, args=(7,)),
        ]
        outcomes = WorkerPool(2).run(tasks)
        assert outcomes[1].status == "crashed"
        assert outcomes[1].error is not None
        assert outcomes[0].value == 36 and outcomes[2].value == 49

    def test_hung_task_times_out(self):
        start = time.monotonic()
        outcomes = WorkerPool(2, timeout_seconds=0.8).run(
            [
                ParallelTask(index=0, fn=_hang, args=(0,)),
                ParallelTask(index=1, fn=_square, args=(8,)),
            ]
        )
        assert outcomes[0].status == "timeout"
        assert outcomes[1].value == 64
        assert time.monotonic() - start < 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)
        with pytest.raises(ValueError):
            WorkerPool(1).run(
                [
                    ParallelTask(index=0, fn=_square, args=(1,)),
                    ParallelTask(index=0, fn=_square, args=(2,)),
                ]
            )

    def test_unbounded_poll_returns_on_wakeup(self):
        # An idle worker gives the wait nothing to end it: only the
        # wakeup from another thread can.
        with WorkerPool(1) as pool:
            pool.submit(ParallelTask(index=0, fn=_square, args=(2,)))
            done = []
            while not done:
                done = pool.poll()
            assert done[0].value == 4
            waker = threading.Timer(0.2, pool.wakeup)
            waker.start()
            start = time.monotonic()
            assert pool.poll() == []
            assert time.monotonic() - start < 2.0
            waker.join()

    def test_unbounded_poll_still_times_out_hung_task(self):
        # With no caller timeout the wait is bounded by the task's own
        # deadline, so the hang still surfaces as "timeout".
        start = time.monotonic()
        with WorkerPool(1, timeout_seconds=0.5) as pool:
            pool.submit(ParallelTask(index=0, fn=_hang, args=(0,)))
            done = []
            while not done:
                done = pool.poll()
        assert done[0].status == "timeout"
        assert time.monotonic() - start < 20.0

    def test_wakeup_races_poll_and_close_from_many_threads(self):
        # More waking threads than cores, switching often: every
        # unbounded poll must still return (no lost wakeup), and close()
        # racing the writers must neither raise in them nor let them
        # write to a released descriptor.
        errors = []
        stop = threading.Event()

        def hammer(pool):
            try:
                while not stop.is_set():
                    pool.wakeup()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = WorkerPool(2)
            threads = [
                threading.Thread(target=hammer, args=(pool,))
                for _ in range(min(len(os.sched_getaffinity(0)), 8) + 2)
            ]
            for thread in threads:
                thread.start()
            for _ in range(200):
                assert pool.poll() == []
            pool.close()
            time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert errors == []

    def test_closed_pools_leak_no_fds(self):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for _ in range(200):
            pool = WorkerPool(2)
            pool.wakeup()
            assert pool.poll(timeout=0) == []
            pool.close()
        assert open_fds() == before

    def test_statuses_catalogued(self):
        assert set(TASK_STATUSES) == {
            "ok", "error", "crashed", "timeout", "not_run"
        }


class TestReduction:
    def test_quality_key_orders_like_the_paper(self):
        feasible = result_quality_key(
            "feasible", 4, {"f": 10.0, "d_k": 0.0, "t_sum": 50, "d_k_e": 0.1}
        )
        semi = result_quality_key(
            "semi_feasible", 4,
            {"f": 10.0, "d_k": 0.0, "t_sum": 50, "d_k_e": 0.1},
        )
        more_devices = result_quality_key(
            "feasible", 5, {"f": 10.0, "d_k": 0.0, "t_sum": 50, "d_k_e": 0.1}
        )
        bigger_f = result_quality_key(
            "feasible", 4, {"f": 12.0, "d_k": 0.0, "t_sum": 99, "d_k_e": 0.9}
        )
        worse_tsum = result_quality_key(
            "feasible", 4, {"f": 10.0, "d_k": 0.0, "t_sum": 60, "d_k_e": 0.0}
        )
        assert feasible < semi
        assert feasible < more_devices
        assert bigger_f < feasible  # larger free space F wins (negated)
        assert feasible < worse_tsum
        assert result_quality_key(None, 0, None) > semi

    def test_stable_index_tiebreak(self):
        key = result_quality_key(
            "feasible", 4, {"f": 1.0, "d_k": 0.0, "t_sum": 5, "d_k_e": 0.0}
        )
        candidates = [
            Candidate(index=3, key=key, value="c3"),
            Candidate(index=1, key=key, value="c1"),
            Candidate(index=2, key=key, value="c2"),
        ]
        assert reduce_candidates(candidates).index == 1
        assert [c.index for c in rank_candidates(candidates)] == [1, 2, 3]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            reduce_candidates([])


class _StubResult:
    """Duck-typed FpartResult stand-in (cost=None path)."""

    def __init__(self, status, num_devices):
        self.status = status
        self.num_devices = num_devices
        self.cost = None
        self.error = None


class TestPortfolioInvariance:
    def _outcomes(self):
        shapes = [
            ("ok", _StubResult("semi_feasible", 4)),
            ("ok", _StubResult("feasible", 4)),
            ("crashed", None),
            ("ok", _StubResult("feasible", 5)),
            ("timeout", None),
            ("ok", _StubResult("feasible", 4)),
        ]
        return [
            TaskOutcome(
                index=i,
                status=status,
                value={"result": result} if status == "ok" else None,
                error=None if status == "ok" else status,
            )
            for i, (status, result) in enumerate(shapes)
        ]

    def test_winner_invariant_to_completion_order_and_jobs(self):
        seeds = list(range(6))
        run_ids = [f"t{i}" for i in range(6)]
        baseline = reduce_portfolio(
            self._outcomes(), seeds, run_ids, jobs=1, portfolio_id="t"
        )
        # Index 1 and 5 tie on quality; the stable tiebreak keeps 1.
        assert baseline.winner_index == 1
        assert baseline.status == "partial"
        assert baseline.survivors == 4
        for shuffle_seed in range(8):
            for jobs in (1, 2, 4):
                shuffled = self._outcomes()
                random.Random(shuffle_seed).shuffle(shuffled)
                portfolio = reduce_portfolio(
                    shuffled, seeds, run_ids, jobs=jobs, portfolio_id="t"
                )
                assert portfolio.winner_index == baseline.winner_index
                assert portfolio.status == baseline.status
                # Reports come back in submission order regardless.
                assert [r.index for r in portfolio.reports] == seeds

    def test_all_casualties_is_failed(self):
        outcomes = [
            TaskOutcome(index=i, status="crashed", error="dead")
            for i in range(3)
        ]
        portfolio = reduce_portfolio(
            outcomes, [0, 1, 2], ["a", "b", "c"], jobs=2, portfolio_id="t"
        )
        assert portfolio.status == "failed"
        assert portfolio.winner is None
        assert portfolio.winner_index is None


class TestRunRestarts:
    def test_seed_ladder(self):
        assert [restart_seed(5, i) for i in range(3)] == [5, 6, 7]

    def test_bit_identical_across_jobs(self, circuit, device):
        config = FpartConfig()
        portfolios = [
            run_restarts(circuit, device, config, restarts=3, jobs=jobs)
            for jobs in (1, 2, 4)
        ]
        reference = portfolios[0]
        assert reference.status == "complete"
        assert reference.winner is not None
        for portfolio in portfolios[1:]:
            assert portfolio.winner_index == reference.winner_index
            assert list(portfolio.winner.assignment) == list(
                reference.winner.assignment
            )
            assert [
                (r.result_status, r.num_devices, r.cost)
                for r in portfolio.reports
            ] == [
                (r.result_status, r.num_devices, r.cost)
                for r in reference.reports
            ]

    def test_restart_zero_is_the_canonical_run(self, circuit, device):
        from repro.core import fpart

        solo = fpart(circuit, device)
        portfolio = run_restarts(
            circuit, device, FpartConfig(), restarts=2, jobs=2
        )
        restart0 = [r for r in portfolio.reports if r.index == 0][0]
        assert restart0.seed == 0
        assert restart0.num_devices == solo.num_devices
        assert restart0.result_status == solo.status

    def test_injected_death_degrades_to_partial(self, circuit, device):
        config = FpartConfig(strict=True)
        portfolio = run_restarts(
            circuit,
            device,
            config,
            restarts=3,
            jobs=2,
            fault_plans={
                1: FaultPlan(fail_on_call=1, methods=("evaluate",), once=False)
            },
        )
        assert portfolio.status == "partial"
        assert portfolio.winner is not None
        broken = [r for r in portfolio.reports if r.index == 1][0]
        assert broken.task_status == "error"
        assert "injected fault" in broken.error

    def test_every_restart_failing_is_failed(self, circuit, device):
        config = FpartConfig(strict=True)
        plans = {
            i: FaultPlan(fail_on_call=1, methods=("evaluate",), once=False)
            for i in range(2)
        }
        portfolio = run_restarts(
            circuit, device, config, restarts=2, jobs=2, fault_plans=plans
        )
        assert portfolio.status == "failed"
        assert portfolio.winner is None

    def test_concurrent_run_recording(self, circuit, device, tmp_path):
        runs_dir = str(tmp_path / "runs")
        portfolio = run_restarts(
            circuit,
            device,
            FpartConfig(),
            restarts=3,
            jobs=3,
            runs_dir=runs_dir,
        )
        records = RunStore(runs_dir).records()
        assert len(records) == 3
        assert {r.run_id for r in records} == {
            rep.run_id for rep in portfolio.reports
        }
        for record in records:
            assert record.labels["portfolio"] == portfolio.portfolio_id
            assert record.seed == int(record.labels["seed"])

    def test_umbrella_guard_is_honoured(self, circuit, device):
        guard = RunGuard(RunBudget(deadline_seconds=0.001)).start()
        time.sleep(0.01)  # budget fully consumed before the fan-out
        portfolio = run_restarts(
            circuit, device, FpartConfig(), restarts=2, jobs=2, guard=guard
        )
        # Every slot must resolve to a catalogued outcome — exhausted
        # budget degrades (timeout / budget_exhausted), never hangs.
        for report in portfolio.reports:
            assert report.task_status in TASK_STATUSES
            if report.task_status == "ok":
                assert report.result_status in (
                    "budget_exhausted", "semi_feasible", "feasible", "ok"
                )

    def test_metrics_snapshots_merge(self, circuit, device, tmp_path):
        # A run store implies metrics: every restart records a snapshot.
        runs_dir = str(tmp_path / "runs")
        portfolio = run_restarts(
            circuit, device, FpartConfig(), restarts=2, jobs=2,
            runs_dir=runs_dir,
        )
        store = RunStore(runs_dir)
        snapshots = [store.metrics_of(r.run_id) for r in portfolio.reports]
        assert len(snapshots) == 2
        assert all(s and s["counters"] for s in snapshots)
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge(snapshot)
        assert (
            merged.snapshot()["counters"]
            == merge_snapshots(snapshots)["counters"]
        )


class TestShardedSweep:
    def test_matches_serial_sweep(self, tmp_path):
        from repro.analysis.experiments import run_device_experiment

        kwargs = dict(circuits=["c3540"], methods=["FPART", "BFS-pack"])
        serial = run_device_experiment(
            "XC3042", runs_dir=str(tmp_path / "a"), **kwargs
        )
        sharded = run_device_experiment(
            "XC3042", jobs=2, runs_dir=str(tmp_path / "b"), **kwargs
        )
        assert [
            (r.circuit, r.method, r.num_devices, r.status, r.feasible)
            for r in sharded
        ] == [
            (r.circuit, r.method, r.num_devices, r.status, r.feasible)
            for r in serial
        ]

        def merged_counters(runs_dir):
            store = RunStore(str(runs_dir))
            return merge_snapshots(
                [store.metrics_of(r.run_id) for r in store.records()]
            )["counters"]

        # Each worker records its cells' snapshots into the store;
        # deterministic metric sections agree, timers are wall-clock.
        serial_counters = merged_counters(tmp_path / "a")
        assert serial_counters["fpart.runs"] == 1
        assert merged_counters(tmp_path / "b") == serial_counters
        assert len(RunStore(str(tmp_path / "a")).records()) == len(
            RunStore(str(tmp_path / "b")).records()
        )


class TestMetricsMerge:
    def test_merge_equals_merge_snapshots(self):
        registries = []
        for base in (1, 2):
            reg = MetricsRegistry()
            reg.counter("moves").inc(10 * base)
            reg.gauge("peak").set_max(float(base))
            timer = reg.timer("pass")
            timer.total_seconds += 0.5 * base
            timer.count += base
            reg.histogram("gain", -4, 4).record(base)
            registries.append(reg)
        snapshots = [r.snapshot() for r in registries]
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge(snapshot)
        assert merged.snapshot() == merge_snapshots(snapshots)

    def test_layout_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", 0, 4).record(1)
        b = MetricsRegistry()
        b.histogram("h", 0, 8).record(1)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_null_registry_merge_is_noop(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        assert NULL_METRICS.merge(reg.snapshot()) is NULL_METRICS
        assert NULL_METRICS.snapshot()["counters"] == {}


class TestCli:
    @pytest.fixture
    def netlist(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "c.hgr"
        assert main(
            ["generate", "par-cli", "--cells", "120", "--ios", "16",
             "-o", str(path)]
        ) == 0
        return path

    def test_restarts_jobs_and_history_best(self, netlist, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        rc = main(
            ["partition", str(netlist), "--device", "XC3020",
             "--restarts", "2", "--jobs", "2", "--runs-dir", runs_dir]
        )
        assert rc in (0, 3)
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "<- winner" in out
        records = RunStore(runs_dir).records()
        assert len(records) == 2
        assert main(["history", "--runs-dir", runs_dir, "--best"]) == 0
        best_out = capsys.readouterr().out
        assert "best:" in best_out

    def test_recording_failure_keeps_the_portfolio(
        self, netlist, tmp_path, capsys
    ):
        from repro.cli import main

        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "index.jsonl").write_text("{corrupt\n")
        rc = main(
            ["partition", str(netlist), "--restarts", "2",
             "--runs-dir", str(runs_dir)]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "status=complete" in captured.out
        assert "<- winner" in captured.out
        warnings = [
            line for line in captured.err.splitlines()
            if "not recorded" in line
        ]
        assert len(warnings) == 2
        assert all("corrupt index line" in line for line in warnings)

    def test_restarts_reject_per_run_telemetry(self, netlist, tmp_path):
        from repro.cli import EXIT_SOFTWARE, main

        rc = main(
            ["partition", str(netlist), "--restarts", "2",
             "--trace", str(tmp_path / "t.jsonl")]
        )
        assert rc == EXIT_SOFTWARE

    def test_restart_flags_require_fpart(self, netlist):
        from repro.cli import EXIT_SOFTWARE, main

        rc = main(
            ["partition", str(netlist), "--algorithm", "pack",
             "--restarts", "2"]
        )
        assert rc == EXIT_SOFTWARE


# -- respawn telemetry ---------------------------------------------------


class TestPoolMetrics:
    def test_casualties_record_respawn_metrics(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(jobs=2, metrics=metrics)
        tasks = [
            ParallelTask(index=0, fn=_die, args=(0,)),
            ParallelTask(index=1, fn=_die, args=(0,)),
            ParallelTask(index=2, fn=_square, args=(4,)),
        ]
        outcomes = pool.run(tasks)
        assert outcomes[2].value == 16
        snapshot = metrics.snapshot()
        # The metrics outlive close()'s scheduler-state reset — that is
        # the point: the daemon scrapes them across pool lifecycles.
        assert snapshot["counters"]["parallel.respawns"] >= 1
        hist = snapshot["histograms"]["parallel.respawn_delay_ms"]
        # One delay recorded per casualty, matching the public log.
        assert hist["total"] == len(pool.respawn_delays)
        assert hist["total"] >= 2
        assert snapshot["gauges"]["parallel.respawn_streak"] >= 1

    def test_default_pool_is_uninstrumented(self):
        pool = WorkerPool(jobs=1)
        assert pool.metrics is NULL_METRICS
        outcomes = pool.run([ParallelTask(index=0, fn=_square, args=(3,))])
        assert outcomes[0].value == 9
