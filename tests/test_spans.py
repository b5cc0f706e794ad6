"""Unit tests for the span/correlation-id layer (``repro.obs.spans``).

Span logs are written by :class:`~repro.obs.trace.TraceWriter`'s
``start_span``/``end_span``, the one event writer."""

from __future__ import annotations

import json

import pytest

from repro.obs.spans import (
    build_span_tree,
    new_span_id,
    new_trace_id,
    render_span_tree,
)
from repro.obs.trace import NULL_TRACE, TraceWriter, read_trace, validate_trace


class TestIds:
    def test_trace_id_shape(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)  # hex

    def test_span_id_shape(self):
        sid = new_span_id()
        assert len(sid) == 8
        int(sid, 16)

    def test_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64


class TestSpanLog:
    def test_start_end_roundtrip(self, tmp_path):
        with TraceWriter(tmp_path / "spans.jsonl", "gen1") as log:
            tid = new_trace_id()
            root = log.start_span("job", tid, job_id="j1")
            child = log.start_span("queued", tid, parent_id=root)
            log.end_span(child, tid, "admitted", wait_ms=3)
            log.end_span(root, tid, "done")
        events = read_trace(tmp_path / "spans.jsonl")
        assert [e["event"] for e in events] == [
            "span_start",
            "span_start",
            "span_end",
            "span_end",
        ]
        assert all(e["trace_id"] == tid for e in events)
        assert events[1]["parent_id"] == root
        # The span log carries the trace envelope: one run id, rising
        # seq, epoch t — so it validates like any trace.
        assert validate_trace(events) == []
        assert events[0]["t"] > 1e9

    def test_explicit_span_id_is_kept(self, tmp_path):
        with TraceWriter(tmp_path / "spans.jsonl", "gen1") as log:
            assert log.start_span("job", "t" * 16, span_id="abcd0123") \
                == "abcd0123"
        (event,) = read_trace(tmp_path / "spans.jsonl")
        assert event["span_id"] == "abcd0123"

    def test_every_line_is_one_json_object(self, tmp_path):
        with TraceWriter(tmp_path / "spans.jsonl", "gen1") as log:
            tid = new_trace_id()
            log.end_span(log.start_span("a", tid), tid, "ok")
        for line in (tmp_path / "spans.jsonl").read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_null_span_log_writes_nothing(self, tmp_path):
        sid = NULL_TRACE.start_span("job", "t" * 16)
        assert sid == ""
        assert NULL_TRACE.start_span("job", "t" * 16, span_id="s1") == "s1"
        NULL_TRACE.end_span(sid, "t" * 16, "done")
        NULL_TRACE.close()
        assert list(tmp_path.iterdir()) == []


class TestBuildSpanTree:
    def test_parenting_and_order(self, tmp_path):
        with TraceWriter(tmp_path / "s.jsonl", "gen1") as log:
            tid = new_trace_id()
            root = log.start_span("job", tid)
            a = log.start_span("queued", tid, parent_id=root)
            log.end_span(a, tid, "admitted")
            b = log.start_span("attempt[1]", tid, parent_id=root)
            log.end_span(b, tid, "ok")
            log.end_span(root, tid, "done")
        roots = build_span_tree(read_trace(tmp_path / "s.jsonl"))
        assert len(roots) == 1
        assert roots[0].name == "job"
        assert [c.name for c in roots[0].children] == [
            "queued",
            "attempt[1]",
        ]

    def test_unclosed_span_gets_placeholder_status(self):
        events = [
            {
                "event": "span_start",
                "t": 1.0,
                "trace_id": "t" * 16,
                "span_id": "a" * 8,
                "parent_id": "",
                "name": "job",
            }
        ]
        (root,) = build_span_tree(events, unclosed_status="crashed")
        assert root.status == "crashed"

    def test_orphan_becomes_root(self):
        events = [
            {
                "event": "span_start",
                "t": 1.0,
                "trace_id": "t" * 16,
                "span_id": "a" * 8,
                "parent_id": "gone4444",
                "name": "attempt[1]",
            }
        ]
        roots = build_span_tree(events)
        assert [r.name for r in roots] == ["attempt[1]"]

    def test_non_span_events_ignored(self):
        events = [
            {"event": "run_start", "t": 0.0},
            {
                "event": "span_start",
                "t": 1.0,
                "trace_id": "t" * 16,
                "span_id": "a" * 8,
                "parent_id": "",
                "name": "job",
            },
            {"event": "progress", "t": 2.0},
        ]
        assert len(build_span_tree(events)) == 1


class TestRenderSpanTree:
    def test_degenerate_trace_renders_placeholder(self):
        # A plain CLI trace has no span events; `fpart report --spans`
        # must not error on it.
        assert render_span_tree([]) == "(no span events)"
        assert (
            render_span_tree([{"event": "run_start", "t": 0.0}])
            == "(no span events)"
        )

    def test_render_includes_names_and_status(self, tmp_path):
        with TraceWriter(tmp_path / "s.jsonl", "gen1") as log:
            tid = new_trace_id()
            root = log.start_span("job", tid, job_id="j1")
            log.end_span(root, tid, "done")
        text = render_span_tree(read_trace(tmp_path / "s.jsonl"))
        assert tid in text
        assert "job" in text
        assert "done" in text
        assert "job_id=j1" in text
