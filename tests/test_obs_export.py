"""Exporter tests: OpenMetrics rendering and Chrome-trace conversion."""

from __future__ import annotations

import io
import json

import pytest

from repro.circuits import generate_circuit
from repro.core import XC3020, FpartPartitioner
from repro.obs.export import (
    parse_openmetrics,
    to_openmetrics,
    trace_to_chrome,
    validate_openmetrics,
    write_chrome_trace,
    write_openmetrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceWriter


@pytest.fixture()
def snapshot():
    reg = MetricsRegistry()
    reg.counter("fpart.runs").inc(2)
    reg.gauge("fpart.num_devices").set(3)
    timer = reg.timer("fpart.phase.improve")
    with timer:
        pass
    hist = reg.histogram("sanchis.gain", lo=-2, hi=3)
    for v in (-5, -1, 0, 2, 7):
        hist.record(v)
    return reg.snapshot()


@pytest.fixture(scope="module")
def traced_run():
    hg = generate_circuit("exp-demo", num_cells=150, num_ios=20, seed=11)
    buf = io.StringIO()
    tracer = TraceWriter(buf, run_id="deadbeef", sample_moves=32)
    FpartPartitioner(hg, XC3020, run_id="deadbeef", tracer=tracer).run()
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestOpenMetrics:
    def test_document_validates(self, snapshot):
        text = to_openmetrics(snapshot, labels={"run_id": "deadbeef"})
        assert validate_openmetrics(text) == []

    def test_counter_gauge_summary_families(self, snapshot):
        text = to_openmetrics(snapshot)
        assert "# TYPE fpart_runs counter" in text
        assert "fpart_runs_total 2" in text
        assert "# TYPE fpart_num_devices gauge" in text
        assert "fpart_num_devices 3" in text
        assert "# TYPE fpart_phase_improve summary" in text
        assert "fpart_phase_improve_count 1" in text

    def test_histogram_buckets_are_cumulative(self, snapshot):
        text = to_openmetrics(snapshot)
        buckets = [
            line
            for line in text.splitlines()
            if line.startswith("sanchis_gain_bucket")
        ]
        # 5 range buckets + the +Inf bucket.
        assert len(buckets) == 6
        counts = [int(line.split()[-1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1].split()[-1] == "5"  # +Inf == total
        assert 'le="+Inf"' in buckets[-1]
        assert "sanchis_gain_count 5" in text

    def test_labels_attached_to_every_sample(self, snapshot):
        text = to_openmetrics(snapshot, labels={"circuit": "c880"})
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert 'circuit="c880"' in line

    def test_terminator_is_last_line(self, snapshot):
        text = to_openmetrics(snapshot)
        assert text.endswith("# EOF\n")

    def test_deterministic(self, snapshot):
        assert to_openmetrics(snapshot) == to_openmetrics(snapshot)

    def test_empty_snapshot_is_valid(self):
        text = to_openmetrics(
            {"counters": {}, "gauges": {}, "timers": {}, "histograms": {}}
        )
        assert validate_openmetrics(text) == []

    def test_validate_rejects_bad_documents(self):
        assert validate_openmetrics("") != []
        assert any(
            "EOF" in problem
            for problem in validate_openmetrics("metric 1\n")
        )
        assert any(
            "malformed sample" in problem
            for problem in validate_openmetrics("not a metric line!\n# EOF\n")
        )
        assert any(
            "not the last line" in problem
            for problem in validate_openmetrics("# EOF\nmetric 1\n")
        )

    def test_write_is_atomic(self, snapshot, tmp_path):
        out = tmp_path / "run.prom"
        write_openmetrics(out, snapshot)
        assert validate_openmetrics(out.read_text()) == []
        assert list(tmp_path.iterdir()) == [out]

    def test_empty_registry_renders_bare_terminator(self):
        text = to_openmetrics(MetricsRegistry().snapshot())
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == []

    def test_zero_observation_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("quiet.hist", lo=0, hi=10, width=5)
        text = to_openmetrics(reg.snapshot())
        assert validate_openmetrics(text) == []
        assert "quiet_hist_count 0" in text
        assert "quiet_hist_sum 0" in text
        # Cumulative buckets all report zero, +Inf included.
        for line in text.splitlines():
            if line.startswith("quiet_hist_bucket"):
                assert line.endswith(" 0")

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter(
            "odd.counter", labels={"path": 'a"b\\c\nd'}
        ).inc()
        text = to_openmetrics(reg.snapshot())
        assert validate_openmetrics(text) == []
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        # The escaped document round-trips to the original value.
        ((name, labels, value),) = parse_openmetrics(text)
        assert name == "odd_counter_total"
        assert labels == {"path": 'a"b\\c\nd'}
        assert value == 1.0

    def test_labelled_samples_share_one_type_line(self):
        reg = MetricsRegistry()
        reg.counter("serve.rejected", labels={"code": "404"}).inc()
        reg.counter("serve.rejected", labels={"code": "429"}).inc(2)
        text = to_openmetrics(reg.snapshot())
        assert validate_openmetrics(text) == []
        assert text.count("# TYPE serve_rejected counter") == 1
        assert 'serve_rejected_total{code="404"} 1' in text
        assert 'serve_rejected_total{code="429"} 2' in text


class TestParseOpenMetrics:
    def test_roundtrip_real_document(self, snapshot):
        text = to_openmetrics(snapshot, labels={"run_id": "deadbeef"})
        samples = parse_openmetrics(text)
        assert samples  # every non-comment line parsed
        assert all(
            labels.get("run_id") == "deadbeef" for _n, labels, _v in samples
        )
        by_name = {name: value for name, _labels, value in samples}
        assert by_name["fpart_runs_total"] == 2.0

    def test_inf_bucket_parses(self):
        samples = parse_openmetrics(
            'h_bucket{le="+Inf"} 5\n# EOF\n'
        )
        assert samples == [("h_bucket", {"le": "+Inf"}, 5.0)]

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_openmetrics("ok_total 1\nwhat even is this!\n# EOF\n")


class TestChromeTrace:
    def test_converts_real_run(self, traced_run):
        obj = trace_to_chrome(traced_run)
        assert obj["displayTimeUnit"] == "ms"
        assert obj["otherData"]["run_id"] == "deadbeef"
        # Valid catapult JSON: serialisable and phase fields present.
        reloaded = json.loads(json.dumps(obj))
        phases = {e["ph"] for e in reloaded["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases
        for event in reloaded["traceEvents"]:
            assert {"ph", "name", "pid"} <= set(event)
            if event["ph"] in ("X", "i", "C"):
                assert event["ts"] >= 0

    def test_pass_spans_match_pass_starts(self, traced_run):
        obj = trace_to_chrome(traced_run)
        spans = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        passes = [e for e in traced_run if e["event"] == "pass_start"]
        assert len(spans) == len(passes)
        for span in spans:
            assert span["dur"] >= 0

    def test_counter_tracks_present(self, traced_run):
        obj = trace_to_chrome(traced_run)
        tracks = {
            e["name"] for e in obj["traceEvents"] if e["ph"] == "C"
        }
        assert tracks == {"d_k", "T_SUM"}

    def test_run_end_becomes_instant(self, traced_run):
        obj = trace_to_chrome(traced_run)
        instants = [
            e["name"] for e in obj["traceEvents"] if e["ph"] == "i"
        ]
        assert "run_start" in instants
        assert "run_end" in instants

    def test_empty_stream(self):
        obj = trace_to_chrome([])
        # Metadata only, still a loadable document.
        assert all(e["ph"] == "M" for e in obj["traceEvents"])
        json.dumps(obj)

    def test_write_chrome_trace(self, traced_run, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(out, traced_run)
        obj = json.loads(out.read_text())
        assert obj["traceEvents"]
        assert list(tmp_path.iterdir()) == [out]


SPAN_EVENTS = [
    {"event": "span_start", "t": 100.0, "span_id": "s1", "name": "attempt",
     "trace_id": "t-abc", "parent_id": ""},
    {"event": "span_start", "t": 100.2, "span_id": "s2",
     "name": "partition-run", "trace_id": "t-abc", "parent_id": "s1"},
    {"event": "span_end", "t": 101.0, "span_id": "s2", "status": "ok"},
    {"event": "span_end", "t": 101.5, "span_id": "s1", "status": "ok"},
]


class TestChromeTraceMergedChannels:
    def test_spans_become_duration_events_on_their_own_track(self):
        from repro.obs.export import _TID_SPANS, spans_to_chrome_events

        events = spans_to_chrome_events(SPAN_EVENTS)
        x = [e for e in events if e["ph"] == "X"]
        assert len(x) == 2
        assert {e["tid"] for e in x} == {_TID_SPANS}
        by_name = {e["name"]: e for e in x}
        # Stamped on the spans' own clock; merging callers re-base.
        assert by_name["attempt"]["ts"] == pytest.approx(100.0e6)
        assert by_name["partition-run"]["ts"] == pytest.approx(100.2e6)
        assert by_name["attempt"]["dur"] == pytest.approx(1.5e6)
        assert by_name["partition-run"]["args"]["parent_id"] == "s1"
        assert by_name["attempt"]["args"]["trace_id"] == "t-abc"

    def test_unclosed_span_reported_open(self):
        from repro.obs.export import spans_to_chrome_events

        events = spans_to_chrome_events(SPAN_EVENTS[:2])
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["attempt"]["args"]["status"] == "open"
        # Open spans extend to the last observed timestamp.
        assert by_name["attempt"]["dur"] == pytest.approx(0.2e6)

    def test_profile_slices_nest_by_frame_depth(self):
        from repro.obs.export import _TID_PROFILE, profile_to_chrome_events
        from repro.obs.prof import PROF_DEFAULT_HZ

        folded = "main;solve 8\nmain;solve;evaluate 2\nio 5\n"
        events = profile_to_chrome_events(folded)
        x = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in x} == {_TID_PROFILE}
        by_name = {e["name"]: e for e in x}
        # Every producer samples at PROF_DEFAULT_HZ, so a stack of n
        # samples is n / PROF_DEFAULT_HZ seconds wide, children nested.
        sample_us = 1e6 / PROF_DEFAULT_HZ
        assert by_name["main"]["dur"] == pytest.approx(10 * sample_us, abs=0.1)
        assert by_name["solve"]["dur"] == pytest.approx(10 * sample_us, abs=0.1)
        assert by_name["evaluate"]["dur"] == pytest.approx(
            2 * sample_us, abs=0.1
        )
        assert by_name["evaluate"]["args"]["samples"] == 2
        # The whole track spans samples / PROF_DEFAULT_HZ seconds.
        roots = [by_name["io"], by_name["main"]]
        end = max(e["ts"] + e["dur"] for e in roots)
        assert end == pytest.approx(15 * sample_us, abs=0.2)

    def test_trace_to_chrome_merges_both_channels(self, traced_run):
        from repro.obs.export import _TID_PROFILE, _TID_SPANS

        obj = trace_to_chrome(
            traced_run,
            spans=SPAN_EVENTS,
            profile="a;b 3\n",
        )
        tids = {e.get("tid") for e in obj["traceEvents"] if e["ph"] == "X"}
        assert {_TID_SPANS, _TID_PROFILE} <= tids
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "service spans" in names
        assert "profile (sampled)" in names

    def test_trace_and_spans_share_one_origin(self):
        from repro.obs.export import _TID_PASSES, _TID_SPANS

        trace = [
            {"event": "run_start", "t": 100.25, "run_id": "r"},
            {"event": "pass_start", "t": 100.3, "pass_index": 0},
            {"event": "run_end", "t": 100.9},
        ]
        obj = trace_to_chrome(trace, spans=SPAN_EVENTS)
        x = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        (attempt,) = [e for e in x if e["name"] == "attempt"]
        (run,) = [e for e in x if e["name"] == "partition-run"]
        (first_pass,) = [e for e in x if e["tid"] == _TID_PASSES]
        # The earliest t of either stream (the attempt's start) is 0;
        # everything else is its exact offset from it.
        assert attempt["tid"] == _TID_SPANS
        assert attempt["ts"] == 0
        assert run["ts"] == pytest.approx(0.2e6)
        assert first_pass["ts"] == pytest.approx(0.3e6)
        assert first_pass["dur"] == pytest.approx(0.6e6)
        assert run["ts"] <= first_pass["ts"]
        assert (first_pass["ts"] + first_pass["dur"]
                <= run["ts"] + run["dur"])

    def test_no_extra_tracks_without_channels(self, traced_run):
        obj = trace_to_chrome(traced_run)
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"passes", "events"}
