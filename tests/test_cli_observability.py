"""CLI telemetry surface: --metrics / --trace / report --trace."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import METRICS_SCHEMA, read_trace, validate_trace


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "c.hgr"
    assert main(
        ["generate", "obs-demo", "--cells", "150", "--ios", "20",
         "--seed", "11", "-o", str(path)]
    ) == 0
    return path


def _partition(netlist_file, tmp_path, *extra):
    trace = tmp_path / "run.jsonl"
    metrics = tmp_path / "run-metrics.json"
    code = main(
        ["partition", str(netlist_file), "--device", "XC3020",
         "--metrics", str(metrics), "--trace", str(trace), *extra]
    )
    return code, trace, metrics


class TestPartitionTelemetry:
    def test_writes_schema_valid_trace_and_metrics(
        self, netlist_file, tmp_path, capsys
    ):
        code, trace, metrics = _partition(netlist_file, tmp_path)
        assert code == 0
        events = read_trace(trace)
        assert validate_trace(events) == []
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["metrics"]["counters"]["fpart.runs"] == 1
        assert payload["metrics"]["counters"]["sanchis.moves_tried"] > 0
        # One id across both artifacts.
        assert payload["run_id"]
        assert {e["run_id"] for e in events} == {payload["run_id"]}

    def test_trace_sample_zero_suppresses_move_batches(
        self, netlist_file, tmp_path
    ):
        code, trace, _ = _partition(
            netlist_file, tmp_path, "--trace-sample", "0"
        )
        assert code == 0
        assert not [
            e for e in read_trace(trace) if e["event"] == "move_batch"
        ]

    def test_telemetry_requires_fpart(self, netlist_file, tmp_path, capsys):
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--algorithm", "pack", "--metrics", str(tmp_path / "m.json")]
        ) != 0
        assert "fpart" in capsys.readouterr().err

    def test_json_log_format(self, netlist_file, capsys):
        import logging

        from repro.logging import ROOT_LOGGER_NAME

        logger = logging.getLogger(ROOT_LOGGER_NAME)
        try:
            assert main(
                ["partition", str(netlist_file), "--device", "XC3020",
                 "--log-level", "INFO", "--log-format", "json"]
            ) == 0
            lines = [
                line for line in capsys.readouterr().err.splitlines()
                if line.strip()
            ]
            assert lines
            for line in lines:
                record = json.loads(line)
                assert {"t", "level", "logger", "msg"} <= set(record)
            assert any("run " in json.loads(l)["msg"] for l in lines)
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_configured", False):
                    logger.removeHandler(handler)
                    handler.close()

    def test_identical_result_with_and_without_telemetry(
        self, netlist_file, tmp_path, capsys
    ):
        plain_out = tmp_path / "plain.txt"
        traced_out = tmp_path / "traced.txt"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--output", str(plain_out)]
        ) == 0
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--output", str(traced_out),
             "--metrics", str(tmp_path / "m.json"),
             "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        assert traced_out.read_text() == plain_out.read_text()


class TestReportTrace:
    def _trace(self, netlist_file, tmp_path):
        code, trace, _ = _partition(netlist_file, tmp_path)
        assert code == 0
        return trace

    def test_renders_convergence_table(self, netlist_file, tmp_path, capsys):
        trace = self._trace(netlist_file, tmp_path)
        assert main(["report", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Convergence of run" in out
        assert "T_SUM" in out
        assert "final" in out

    def test_output_and_svg_files(self, netlist_file, tmp_path, capsys):
        trace = self._trace(netlist_file, tmp_path)
        table = tmp_path / "table.txt"
        svg = tmp_path / "plot.svg"
        assert main(
            ["report", "--trace", str(trace),
             "--output", str(table), "--svg", str(svg)]
        ) == 0
        assert "T_SUM" in table.read_text()
        assert svg.read_text().startswith("<svg")

    def test_report_is_deterministic(self, netlist_file, tmp_path, capsys):
        trace = self._trace(netlist_file, tmp_path)
        capsys.readouterr()  # drain the partition stage's output
        assert main(["report", "--trace", str(trace)]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == first

    def test_invalid_trace_fails_with_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1, "seq": 0, "event": "nope"}\n')
        assert main(["report", "--trace", str(bad)]) != 0
        captured = capsys.readouterr()
        assert "trace" in captured.err

    def test_requires_netlist_or_trace(self, capsys):
        assert main(["report"]) != 0
        assert "netlist" in capsys.readouterr().err.lower()


class TestReportSpans:
    def test_degenerate_trace_renders_placeholder(
        self, netlist_file, tmp_path, capsys
    ):
        # A plain CLI trace has no span events: --spans must succeed
        # with the placeholder, not error out.
        code, trace, _ = _partition(netlist_file, tmp_path)
        assert code == 0
        assert main(["report", "--trace", str(trace), "--spans"]) == 0
        assert "(no span events)" in capsys.readouterr().out

    def test_renders_service_span_log(self, tmp_path, capsys):
        from repro.obs import TraceWriter, new_trace_id

        with TraceWriter(tmp_path / "spans.jsonl", "gen1") as log:
            tid = new_trace_id()
            root = log.start_span("job", tid, job_id="j1")
            child = log.start_span("attempt[1]", tid, parent_id=root)
            log.end_span(child, tid, "ok")
            log.end_span(root, tid, "done")
        assert main(
            ["report", "--trace", str(tmp_path / "spans.jsonl"), "--spans"]
        ) == 0
        out = capsys.readouterr().out
        assert tid in out
        assert "attempt[1]" in out
        # The span log also works as the positional file — it is an
        # event stream, not a netlist.
        assert main(
            ["report", "--spans", str(tmp_path / "spans.jsonl")]
        ) == 0
        assert tid in capsys.readouterr().out

    def test_spans_to_output_file(self, tmp_path, capsys):
        from repro.obs import TraceWriter, new_trace_id

        with TraceWriter(tmp_path / "spans.jsonl", "gen1") as log:
            tid = new_trace_id()
            log.end_span(log.start_span("job", tid), tid, "done")
        target = tmp_path / "spans.txt"
        assert main(
            ["report", "--trace", str(tmp_path / "spans.jsonl"),
             "--spans", "--output", str(target)]
        ) == 0
        assert tid in target.read_text()


class TestProfilingCli:
    def test_prof_writes_folded_and_stays_bit_identical(
        self, netlist_file, tmp_path, capsys
    ):
        from repro.obs.prof import parse_folded

        plain_out = tmp_path / "plain.txt"
        prof_out = tmp_path / "prof.txt"
        folded = tmp_path / "run.folded"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--output", str(plain_out)]
        ) == 0
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--output", str(prof_out),
             "--prof", "--prof-out", str(folded)]
        ) == 0
        assert prof_out.read_text() == plain_out.read_text()
        parse_folded(folded.read_text())  # well-formed (possibly empty)
        assert "profile:" in capsys.readouterr().out

    def test_prof_artifact_lands_in_run_store(self, netlist_file, tmp_path):
        from repro.obs.runstore import RunStore

        runs = tmp_path / "runs"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--prof", "--runs-dir", str(runs)]
        ) == 0
        store = RunStore(runs)
        record = store.records()[-1]
        run_dir = store.run_dir(record.run_id)
        assert (run_dir / "profile.folded").exists()
        assert (run_dir / "phases.txt").exists()
        assert "attributed:" in (run_dir / "phases.txt").read_text()

    def test_flame_renders_svg(self, tmp_path):
        folded = tmp_path / "p.folded"
        folded.write_text("main;solve 6\nmain;io 2\n")
        out = tmp_path / "flame.svg"
        assert main(
            ["flame", str(folded), "--output", str(out)]
        ) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "solve" in svg

    def test_flame_from_runs(self, netlist_file, tmp_path):
        from repro.obs.runstore import RunStore

        runs = tmp_path / "runs"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--prof", "--runs-dir", str(runs)]
        ) == 0
        run_id = RunStore(runs).records()[-1].run_id
        out = tmp_path / "flame.svg"
        assert main(
            ["flame", "--from-runs", str(runs), run_id,
             "--output", str(out)]
        ) == 0
        assert run_id in out.read_text()

    def test_report_phases_from_metrics_dump(
        self, netlist_file, tmp_path, capsys
    ):
        metrics = tmp_path / "m.json"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--phases", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "bipartition" in out and "improve" in out
        assert "attributed:" in out
        # The per-move line divides whole-run wall by the counter.
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        moves = counters["sanchis.moves_tried"]
        assert f"({moves} moves tried, whole-run wall / moves)" in out
        assert "per-move: " in out

    def test_report_phases_from_runs(self, netlist_file, tmp_path, capsys):
        from repro.obs.runstore import RunStore

        runs = tmp_path / "runs"
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--runs-dir", str(runs)]
        ) == 0
        run_id = RunStore(runs).records()[-1].run_id
        capsys.readouterr()
        assert main(
            ["report", "--phases", "--from-runs", str(runs), run_id]
        ) == 0
        assert "phase breakdown — run" in capsys.readouterr().out

    def test_prof_on_baseline_stays_bit_identical(
        self, netlist_file, tmp_path, capsys
    ):
        from repro.obs.prof import parse_folded

        plain_out = tmp_path / "plain.txt"
        prof_out = tmp_path / "prof.txt"
        folded = tmp_path / "kwayx.folded"
        base = ["partition", str(netlist_file), "--device", "XC3020",
                "--algorithm", "kwayx"]
        assert main([*base, "--output", str(plain_out)]) == 0
        assert main(
            [*base, "--output", str(prof_out),
             "--prof", "--prof-out", str(folded)]
        ) == 0
        assert prof_out.read_bytes() == plain_out.read_bytes()
        parse_folded(folded.read_text())  # well-formed (possibly empty)
        assert f"written to {folded}" in capsys.readouterr().out

    def test_prof_rejected_with_restart_portfolio(
        self, netlist_file, capsys
    ):
        assert main(
            ["partition", str(netlist_file), "--device", "XC3020",
             "--restarts", "2", "--prof"]
        ) != 0
        assert "--prof" in capsys.readouterr().err


class TestTopDashboard:
    def test_render_top_from_synthetic_samples(self):
        from repro.serve.top import render_top

        samples = [
            ("serve_queue_depth", {}, 3.0),
            ("serve_active_jobs", {}, 2.0),
            ("serve_draining", {}, 0.0),
            ("serve_submissions_total", {}, 10.0),
            ("serve_completed_total", {}, 7.0),
            ("serve_dedup_hits_total", {}, 1.0),
            ("serve_rejected_total", {"code": "429"}, 2.0),
            ("serve_queue_wait_ms_bucket", {"le": "250.0"}, 4.0),
            ("serve_queue_wait_ms_bucket", {"le": "+Inf"}, 4.0),
            ("serve_tenant_active_jobs", {"tenant": "acme"}, 2.0),
        ]
        stats = {"counts": {"queued": 3, "running": 2, "done": 7}}
        frame = render_top(samples, stats)
        assert "queue depth" in frame and "3" in frame
        assert "429=2" in frame
        assert "acme" in frame
        assert "queued=3" in frame

    def test_rates_from_consecutive_polls(self):
        from repro.serve.top import render_top

        before = [("serve_submissions_total", {}, 10.0)]
        now = [("serve_submissions_total", {}, 15.0)]
        frame = render_top(now, {}, previous=before, elapsed=5.0)
        assert "15 (1.0/s)" in frame

    def test_histogram_quantile_interpolates(self):
        from repro.serve.top import histogram_quantile

        samples = [
            ("h_bucket", {"le": "100.0"}, 2.0),
            ("h_bucket", {"le": "200.0"}, 8.0),
            ("h_bucket", {"le": "+Inf"}, 10.0),
        ]
        p50 = histogram_quantile(samples, "h", 0.5)
        assert 100.0 < p50 < 200.0
        assert histogram_quantile(samples, "h", 0.99) == 200.0
        assert histogram_quantile([], "h", 0.5) is None
        empty = [("h_bucket", {"le": "+Inf"}, 0.0)]
        assert histogram_quantile(empty, "h", 0.5) is None

    def test_histogram_quantile_boundaries(self):
        from repro.serve.top import histogram_quantile

        samples = [
            ("h_bucket", {"le": "100.0"}, 2.0),
            ("h_bucket", {"le": "200.0"}, 8.0),
            ("h_bucket", {"le": "+Inf"}, 10.0),
        ]
        # q=0: rank 0 lands in the first bucket, at its lower edge.
        assert histogram_quantile(samples, "h", 0.0) == 0.0
        # q=1: rank == total; the last finite bucket holds only 8 of 10
        # observations, so the estimate is the +Inf bucket's lower edge.
        assert histogram_quantile(samples, "h", 1.0) == 200.0

    def test_histogram_quantile_single_bucket(self):
        from repro.serve.top import histogram_quantile

        samples = [
            ("h_bucket", {"le": "50.0"}, 4.0),
            ("h_bucket", {"le": "+Inf"}, 4.0),
        ]
        # All mass in one finite bucket: interpolation runs from 0 to
        # its upper edge.
        assert histogram_quantile(samples, "h", 0.5) == 25.0
        assert histogram_quantile(samples, "h", 1.0) == 50.0

    def test_histogram_quantile_all_mass_in_inf(self):
        from repro.serve.top import histogram_quantile

        samples = [
            ("h_bucket", {"le": "100.0"}, 0.0),
            ("h_bucket", {"le": "+Inf"}, 6.0),
        ]
        # The +Inf bucket has no upper edge to interpolate toward; the
        # estimate degrades to the last finite edge for every quantile.
        assert histogram_quantile(samples, "h", 0.5) == 100.0
        assert histogram_quantile(samples, "h", 0.95) == 100.0

    def test_counters_reset_detection(self):
        from repro.serve.top import counters_reset

        before = [
            ("serve_submissions_total", {}, 10.0),
            ("serve_rejected_total", {"code": "429"}, 3.0),
        ]
        same = [
            ("serve_submissions_total", {}, 12.0),
            ("serve_rejected_total", {"code": "429"}, 3.0),
        ]
        restarted = [
            ("serve_submissions_total", {}, 2.0),
            ("serve_rejected_total", {"code": "429"}, 0.0),
        ]
        assert not counters_reset(same, before)
        assert counters_reset(restarted, before)
        # First frame: no baseline, nothing to compare.
        assert not counters_reset(same, None)
        # A label set present only in one snapshot never matches.
        assert not counters_reset(
            [("serve_rejected_total", {"code": "503"}, 1.0)], before
        )

    def test_render_top_discards_baseline_on_restart(self):
        from repro.serve.top import render_top

        before = [
            ("serve_submissions_total", {}, 100.0),
            ("serve_completed_total", {}, 90.0),
        ]
        now = [
            ("serve_submissions_total", {}, 5.0),
            ("serve_completed_total", {}, 2.0),
        ]
        frame = render_top(now, {}, previous=before, elapsed=5.0)
        # The daemon restarted: EVERY rate is suppressed (plain totals),
        # not just the ones that went backwards — a clamped 0.0/s would
        # hide real post-restart activity.
        assert "/s)" not in frame
        assert "submissions  5" in frame
        assert "completed    2" in frame

    def test_render_top_zero_elapsed_first_frame(self):
        from repro.serve.top import render_top

        now = [("serve_submissions_total", {}, 7.0)]
        # elapsed=0 with a baseline must not divide by zero.
        frame = render_top(now, {}, previous=now, elapsed=0.0)
        assert "submissions  7" in frame
        assert "/s)" not in frame

    def test_top_requires_endpoint(self, capsys):
        assert main(["top"]) != 0
        assert "state-dir" in capsys.readouterr().err

    def test_top_discovers_endpoint_and_renders(self, tmp_path, capsys):
        import threading

        from repro.serve import (
            PartitionService,
            ServiceConfig,
            make_server,
            serve_forever_in_thread,
        )

        state = tmp_path / "state"
        svc = PartitionService(
            ServiceConfig(state_dir=str(state), jobs=1)
        ).start()
        server = make_server("127.0.0.1", 0, svc)
        serve_forever_in_thread(server)
        (state / "serve.json").write_text(
            json.dumps(
                {
                    "host": "127.0.0.1",
                    "port": server.server_address[1],
                    "pid": 1,
                }
            )
        )
        try:
            assert main(
                ["top", "--state-dir", str(state), "--iterations", "1"]
            ) == 0
            out = capsys.readouterr().out
            assert "fpart top" in out
            assert "queue depth" in out
        finally:
            svc.close()
            server.shutdown()
            server.server_close()
