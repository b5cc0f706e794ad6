"""CLI cross-run surface: --runs-dir / history / compare / export."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import EXIT_DEGRADED, main
from repro.obs import (
    RunStore,
    read_trace,
    validate_openmetrics,
    validate_trace,
)


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "c.hgr"
    assert main(
        ["generate", "store-demo", "--cells", "150", "--ios", "20",
         "--seed", "11", "-o", str(path)]
    ) == 0
    return path


def _partition_into_store(netlist_file, runs_dir, *extra):
    return main(
        ["partition", str(netlist_file), "--device", "XC3020",
         "--runs-dir", str(runs_dir), *extra]
    )


@pytest.fixture
def store_with_two_runs(netlist_file, tmp_path):
    runs_dir = tmp_path / "runs"
    assert _partition_into_store(netlist_file, runs_dir) == 0
    assert _partition_into_store(netlist_file, runs_dir) == 0
    return runs_dir


class TestPartitionRunsDir:
    def test_records_run_with_metrics_and_trace(
        self, netlist_file, tmp_path, capsys
    ):
        runs_dir = tmp_path / "runs"
        assert _partition_into_store(netlist_file, runs_dir) == 0
        assert "recorded in" in capsys.readouterr().out
        store = RunStore(runs_dir)
        records = store.records()
        assert len(records) == 1
        record = records[0]
        assert record.circuit == "store-demo"
        assert record.device == "XC3020"
        assert record.status == "feasible"
        assert record.cost is not None and record.cost["f"] > 0
        assert record.config_digest
        # The store implies telemetry: metrics + an in-store trace.
        assert store.metrics_of(record.run_id)["counters"]["fpart.runs"] == 1
        trace = store.trace_path(record.run_id)
        assert trace is not None
        events = read_trace(trace)
        assert validate_trace(events) == []
        assert {e["run_id"] for e in events} == {record.run_id}

    def test_explicit_trace_is_copied_into_store(
        self, netlist_file, tmp_path
    ):
        runs_dir = tmp_path / "runs"
        trace = tmp_path / "elsewhere.jsonl"
        assert _partition_into_store(
            netlist_file, runs_dir, "--trace", str(trace)
        ) == 0
        store = RunStore(runs_dir)
        record = store.records()[0]
        assert trace.exists()
        stored = store.trace_path(record.run_id)
        assert stored is not None
        assert stored.read_text() == trace.read_text()

    def test_runs_dir_requires_fpart(self, netlist_file, tmp_path, capsys):
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--algorithm", "pack", "--runs-dir", str(tmp_path / "runs")]
        ) != 0
        assert "fpart" in capsys.readouterr().err

    def test_recording_does_not_change_the_result(
        self, netlist_file, tmp_path
    ):
        plain = tmp_path / "plain.txt"
        stored = tmp_path / "stored.txt"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--output", str(plain)]
        ) == 0
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--output", str(stored),
             "--runs-dir", str(tmp_path / "runs")]
        ) == 0
        assert stored.read_text() == plain.read_text()

    def test_progress_flag_writes_stderr_heartbeats(
        self, netlist_file, tmp_path, capsys
    ):
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--progress", "--progress-interval", "0"]
        ) == 0
        err = capsys.readouterr().err
        assert "fpart: progress iter=" in err


class TestHistory:
    def test_lists_recorded_runs(self, store_with_two_runs, capsys):
        assert main(
            ["history", "--runs-dir", str(store_with_two_runs)]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("store-demo") == 2
        assert "XC3020" in out

    def test_filter_excludes(self, store_with_two_runs, capsys):
        assert main(
            ["history", "--runs-dir", str(store_with_two_runs),
             "--circuit", "absent"]
        ) == 0
        assert "no runs" in capsys.readouterr().out

    def test_limit(self, store_with_two_runs, capsys):
        assert main(
            ["history", "--runs-dir", str(store_with_two_runs),
             "--limit", "1"]
        ) == 0
        assert capsys.readouterr().out.count("store-demo") == 1


class TestCompareCli:
    def test_identical_seeded_runs_exit_zero(
        self, store_with_two_runs, capsys
    ):
        candidate = RunStore(store_with_two_runs).records()[-1].run_id
        assert main(
            ["compare", "--runs-dir", str(store_with_two_runs), candidate]
        ) == 0
        out = capsys.readouterr().out
        assert "quality: equal" in out
        assert "verdict: EQUAL" in out

    def test_injected_quality_regression_exits_three(
        self, store_with_two_runs, capsys
    ):
        store = RunStore(store_with_two_runs)
        latest = store.records()[-1]
        worse = dataclasses.replace(
            latest,
            run_id="bad00001",
            num_devices=latest.num_devices + 1,
            created_utc="",
        )
        store.record_run(worse)
        assert main(
            ["compare", "--runs-dir", str(store_with_two_runs), "bad00001"]
        ) == EXIT_DEGRADED
        assert "REGRESSION" in capsys.readouterr().out

    def test_latency_gate_opt_in(self, store_with_two_runs, capsys):
        store = RunStore(store_with_two_runs)
        latest = store.records()[-1]
        slow = dataclasses.replace(
            latest,
            run_id="slow0001",
            wall_seconds=latest.wall_seconds * 10,
            created_utc="",
        )
        store.record_run(slow)
        # Reported but not gated without --max-slowdown...
        assert main(
            ["compare", "--runs-dir", str(store_with_two_runs), "slow0001"]
        ) == 0
        capsys.readouterr()
        # ...gated with it.
        assert main(
            ["compare", "--runs-dir", str(store_with_two_runs),
             "slow0001", "--max-slowdown", "100"]
        ) == EXIT_DEGRADED

    def test_unknown_run_id_is_a_data_error(
        self, store_with_two_runs, capsys
    ):
        code = main(
            ["compare", "--runs-dir", str(store_with_two_runs), "zzzz9999"]
        )
        assert code == 65
        assert "no run" in capsys.readouterr().err


class TestExportCli:
    def test_openmetrics_export_validates(
        self, store_with_two_runs, tmp_path, capsys
    ):
        run_id = RunStore(store_with_two_runs).records()[0].run_id
        out = tmp_path / "run.prom"
        assert main(
            ["export", "--runs-dir", str(store_with_two_runs), run_id,
             "--openmetrics", str(out)]
        ) == 0
        text = out.read_text()
        assert validate_openmetrics(text) == []
        assert f'run_id="{run_id}"' in text
        assert "fpart_runs_total" in text

    def test_chrome_trace_export_loads(
        self, store_with_two_runs, tmp_path
    ):
        run_id = RunStore(store_with_two_runs).records()[0].run_id
        out = tmp_path / "chrome.json"
        assert main(
            ["export", "--runs-dir", str(store_with_two_runs), run_id,
             "--chrome-trace", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        assert obj["otherData"]["run_id"] == run_id
        assert any(e["ph"] == "X" for e in obj["traceEvents"])

    def test_requires_an_output_flag(self, store_with_two_runs, capsys):
        run_id = RunStore(store_with_two_runs).records()[0].run_id
        assert main(
            ["export", "--runs-dir", str(store_with_two_runs), run_id]
        ) != 0
        assert "--openmetrics" in capsys.readouterr().err


class TestReportFromRuns:
    def test_renders_record_and_convergence(
        self, store_with_two_runs, capsys
    ):
        run_id = RunStore(store_with_two_runs).records()[0].run_id
        assert main(
            ["report", "--from-runs", str(store_with_two_runs), run_id]
        ) == 0
        out = capsys.readouterr().out
        assert f"Run {run_id}" in out
        assert "status: feasible" in out
        assert "T_SUM" in out  # convergence table from the stored trace

    def test_prefix_lookup_and_output_file(
        self, store_with_two_runs, tmp_path, capsys
    ):
        run_id = RunStore(store_with_two_runs).records()[0].run_id
        out = tmp_path / "report.txt"
        assert main(
            ["report", "--from-runs", str(store_with_two_runs),
             run_id[:6], "--output", str(out)]
        ) == 0
        assert f"Run {run_id}" in out.read_text()

    def test_unknown_run_errors(self, store_with_two_runs, capsys):
        assert main(
            ["report", "--from-runs", str(store_with_two_runs), "zzzz"]
        ) == 65
        assert "no run" in capsys.readouterr().err

    def test_restart_runs_carry_metrics(self, netlist_file, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert _partition_into_store(
            netlist_file, runs_dir, "--restarts", "2"
        ) == 0
        restarts = RunStore(runs_dir).records()
        assert len(restarts) == 2
        for record in restarts:
            assert main(
                ["report", "--phases", "--from-runs", str(runs_dir),
                 record.run_id]
            ) == 0
            assert "attributed:" in capsys.readouterr().out
            out = tmp_path / f"{record.run_id}.prom"
            assert main(
                ["export", "--runs-dir", str(runs_dir), record.run_id,
                 "--openmetrics", str(out)]
            ) == 0
            assert validate_openmetrics(out.read_text()) == []


class TestExperimentRunsDir:
    def test_run_method_records_sweep_cells(self, tmp_path):
        from repro.analysis.experiments import run_method

        runs_dir = tmp_path / "runs"
        record = run_method(
            "FPART", "c3540", "XC3042",
            runs_dir=str(runs_dir),
        )
        baseline = run_method(
            "BFS-pack", "c3540", "XC3042", runs_dir=str(runs_dir)
        )
        store = RunStore(runs_dir)
        stored = {r.run_id: r for r in store.records()}
        assert record.run_id in stored
        assert baseline.run_id in stored
        fpart_rec = stored[record.run_id]
        assert fpart_rec.method == "FPART"
        assert fpart_rec.cost is not None
        assert fpart_rec.iterations > 0
        assert store.metrics_of(record.run_id)
        assert stored[baseline.run_id].method == "BFS-pack"
        assert stored[baseline.run_id].status == "ok"
