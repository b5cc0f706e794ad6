"""Unit tests of the JSONL trace stream (repro.obs.trace)."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.trace import (
    COST_KEYS,
    EVENT_TYPES,
    NULL_TRACE,
    TRACE_SCHEMA,
    TraceWriter,
    cost_fields,
    read_trace,
    validate_event,
    validate_trace,
)


class FakeCost:
    feasible_blocks = 2
    distance = 1.5
    total_pins = 300
    ext_balance = 0.25
    cut_nets = 17


def _writer(run_id="run1", sample_moves=64):
    sink = io.StringIO()
    clock_state = {"t": 100.0}

    def clock():
        clock_state["t"] += 0.5
        return clock_state["t"]

    return TraceWriter(sink, run_id, sample_moves, _clock=clock), sink


class TestTraceWriter:
    def test_events_carry_common_fields_in_order(self):
        writer, sink = _writer()
        writer.emit("run_start", circuit="c", device="d",
                    lower_bound=2, budget={}, guard={})
        writer.emit("run_end", status="ok", iterations=1, guard={})
        writer.close()
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        second = json.loads(lines[1])
        assert first["schema"] == TRACE_SCHEMA
        assert first["seq"] == 0 and second["seq"] == 1
        assert first["run_id"] == "run1"
        assert second["t"] > first["t"] >= 0
        # sort_keys output: deterministic byte layout
        assert lines[0] == json.dumps(first, sort_keys=True)

    def test_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, "rid") as writer:
            writer.emit("run_start", circuit="c", device="d",
                        lower_bound=1, budget={}, guard={})
        events = read_trace(path)
        assert len(events) == 1
        assert events[0]["event"] == "run_start"
        assert validate_trace(events) == []

    def test_negative_sample_moves_rejected(self):
        with pytest.raises(ValueError):
            TraceWriter(io.StringIO(), "r", sample_moves=-1)

    def test_null_trace_is_inert(self):
        assert NULL_TRACE.enabled is False
        assert TraceWriter.enabled is True
        assert NULL_TRACE.emit("run_start") == 0
        NULL_TRACE.close()
        assert NULL_TRACE.sample_moves == 0

    def test_t_is_epoch_seconds(self):
        before = time.time()
        sink = io.StringIO()
        TraceWriter(sink, "r").emit("run_start")
        after = time.time()
        (event,) = map(json.loads, sink.getvalue().splitlines())
        assert before - 1e-6 <= event["t"] <= after + 1e-6

    def test_concurrent_emits_stay_whole_and_ordered(self):
        sink = io.StringIO()
        writer = TraceWriter(sink, "r")

        def spans():
            for _ in range(200):
                writer.end_span(writer.start_span("s", "t"), "t", "ok")

        threads = [threading.Thread(target=spans) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [e["seq"] for e in events] == list(range(1600))
        assert validate_trace(events) == []

    def test_cost_fields_layout(self):
        fields = cost_fields(FakeCost())
        assert tuple(sorted(fields)) == tuple(sorted(COST_KEYS))
        assert fields["f"] == 2
        assert fields["d_k"] == 1.5
        assert fields["t_sum"] == 300
        assert fields["d_k_e"] == 0.25
        assert fields["cut"] == 17


def _valid_stream():
    writer, sink = _writer()
    writer.emit("run_start", circuit="c", device="d",
                lower_bound=2, budget={}, guard={})
    writer.emit("pass_start", pass_index=0, blocks=[0, 1],
                cost=cost_fields(FakeCost()))
    writer.emit("move_batch", moves=64, key=[1, 2.0, 3, 4.0])
    writer.emit("lex_improve", iteration=0, cost=cost_fields(FakeCost()))
    writer.emit("checkpoint", iteration=0, guard={})
    writer.emit("progress", iteration=1, moves=64, elapsed_seconds=0.5)
    writer.emit("run_end", status="ok", iterations=1, guard={})
    # Service-side wrappers append span events around the run (§11) —
    # the validator allows them anywhere in the stream.
    writer.emit("span_start", span_id="ab12cd34", name="partition-run",
                trace_id="feed0123feed0123")
    writer.emit("span_end", span_id="ab12cd34", status="ok",
                trace_id="feed0123feed0123")
    writer.close()
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestValidation:
    def test_all_event_types_validate(self):
        events = _valid_stream()
        assert {e["event"] for e in events} == set(EVENT_TYPES)
        assert validate_trace(events) == []

    def test_missing_run_end_is_not_an_error(self):
        events = _valid_stream()[:-1]
        assert validate_trace(events) == []

    def test_non_dict_event(self):
        assert validate_event([1, 2]) == ["event is not a JSON object"]

    def test_unknown_event_type(self):
        events = _valid_stream()
        events[1]["event"] = "mystery"
        assert any("unknown event type" in e for e in validate_trace(events))

    def test_missing_required_field(self):
        events = _valid_stream()
        del events[0]["circuit"]
        problems = validate_trace(events)
        assert any("missing field 'circuit'" in p for p in problems)

    def test_incomplete_cost_payload(self):
        events = _valid_stream()
        del events[1]["cost"]["t_sum"]
        problems = validate_trace(events)
        assert any("cost missing 't_sum'" in p for p in problems)

    def test_seq_must_strictly_increase(self):
        events = _valid_stream()
        events[2]["seq"] = events[1]["seq"]
        problems = validate_trace(events)
        assert any("not greater than" in p for p in problems)

    def test_mixed_run_ids_rejected(self):
        events = _valid_stream()
        events[3]["run_id"] = "other"
        problems = validate_trace(events)
        assert any("differs from" in p for p in problems)

    def test_stream_must_start_with_run_start(self):
        events = _valid_stream()[1:]
        problems = validate_trace(events)
        assert any("expected 'run_start'" in p for p in problems)

    def test_wrong_schema_version(self):
        events = _valid_stream()
        events[0]["schema"] = 99
        problems = validate_trace(events)
        assert any("schema is 99" in p for p in problems)


class TestReadTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_trace(path) == [{"a": 1}, {"b": 2}]

    def test_corrupt_line_reports_lineno(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r":2: corrupt trace line"):
            read_trace(path)


class TestCliValidator:
    def _write(self, tmp_path, events):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
        )
        return path

    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, _valid_stream())
        assert obs_main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "9 events OK" in out
        assert "run_start=1" in out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        events = _valid_stream()
        del events[0]["circuit"]
        path = self._write(tmp_path, events)
        assert obs_main(["trace", str(path)]) == 1
        assert "schema error" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert obs_main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "error" in capsys.readouterr().out

    def test_openmetrics_document(self, tmp_path, capsys):
        good = tmp_path / "m.prom"
        good.write_text("# TYPE runs counter\nruns_total 2\n# EOF\n")
        assert obs_main(["openmetrics", str(good)]) == 0
        assert "1 samples OK" in capsys.readouterr().out
        bad = tmp_path / "bad.prom"
        bad.write_text("runs_total 2\n")
        assert obs_main(["openmetrics", str(bad)]) == 1
        assert "format error" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["trace", "openmetrics"])
    def test_module_runs_without_runtime_warning(self, tmp_path, kind):
        # runpy warns when `-m` names a module its package already
        # imported; the package's own __main__ must run clean.
        if kind == "trace":
            path = self._write(tmp_path, _valid_stream())
        else:
            path = tmp_path / "m.prom"
            path.write_text("# TYPE runs counter\nruns_total 2\n# EOF\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.obs", kind, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout
        assert "Warning" not in proc.stderr
