"""Sampling profiler, folded stacks, flamegraphs, phase attribution."""

from __future__ import annotations

import time

import pytest

from repro.obs.prof import (
    PROF_DEFAULT_HZ,
    SamplingProfiler,
    attributed_fraction,
    fold_stacks,
    parse_folded,
    phase_table,
    render_flamegraph,
    render_phase_table,
)


def _busy(seconds: float) -> int:
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSamplingProfiler:
    def test_samples_a_busy_thread(self):
        prof = SamplingProfiler(hz=250)
        with prof:
            _busy(0.3)
        assert prof.samples > 10
        assert prof.wall_seconds > 0.2
        # Every captured stack is rooted at this test's call chain and
        # contains the busy loop somewhere.
        stacks = prof.stacks()
        assert stacks
        assert any(
            any(label.endswith("._busy") for label in stack)
            for stack in stacks
        )

    def test_folded_output_parses_and_is_sorted(self):
        prof = SamplingProfiler(hz=250)
        with prof:
            _busy(0.2)
        folded = prof.folded()
        parsed = parse_folded(folded)
        assert sum(n for _, n in parsed) == prof.samples
        lines = folded.splitlines()
        assert lines == sorted(lines)

    def test_stop_is_idempotent_and_double_start_rejected(self):
        prof = SamplingProfiler(hz=50).start()
        with pytest.raises(RuntimeError):
            prof.start()
        prof.stop()
        prof.stop()  # no-op, no error
        assert prof._thread is None

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_default_rate_is_prime(self):
        n = PROF_DEFAULT_HZ
        assert n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestFoldedStacks:
    COUNTS = {
        ("main", "solve", "evaluate"): 5,
        ("main", "solve"): 2,
        ("main", "io", "read"): 1,
    }

    def test_fold_parse_roundtrip(self):
        folded = fold_stacks(self.COUNTS)
        assert dict(parse_folded(folded)) == self.COUNTS

    def test_deterministic(self):
        reordered = dict(reversed(list(self.COUNTS.items())))
        assert fold_stacks(self.COUNTS) == fold_stacks(reordered)

    def test_trim_prefix_drops_scaffolding(self):
        folded = fold_stacks(self.COUNTS, trim_prefix=["main"])
        parsed = dict(parse_folded(folded))
        assert parsed == {
            ("solve", "evaluate"): 5,
            ("solve",): 2,
            ("io", "read"): 1,
        }

    def test_trim_keeps_stacks_without_the_frame(self):
        counts = {("other", "work"): 3}
        folded = fold_stacks(counts, trim_prefix=["main"])
        assert dict(parse_folded(folded)) == counts

    def test_parse_skips_comments_and_blanks(self):
        text = "# trace_id: abc\n\na;b 2\n# tail\nc 1\n"
        assert parse_folded(text) == [(("a", "b"), 2), (("c",), 1)]

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_folded("no-count-line\n")
        with pytest.raises(ValueError):
            parse_folded("a;b notanumber\n")

    def test_empty_fold_is_empty_string(self):
        assert fold_stacks({}) == ""
        assert parse_folded("") == []


class TestFlamegraph:
    FOLDED = "main;solve;evaluate 60\nmain;solve;select 30\nmain;io 10\n"

    def test_svg_structure(self):
        svg = render_flamegraph(self.FOLDED, title="unit test")
        assert svg.startswith("<svg xmlns=")
        assert svg.endswith("</svg>")
        assert "unit test (100 samples)" in svg
        # Root frame plus every named frame gets a tooltip.
        for label in ("all", "main", "solve", "evaluate", "select", "io"):
            assert f"<title>{label} (" in svg

    def test_widths_proportional_to_samples(self):
        svg = render_flamegraph(self.FOLDED)
        assert "(60 samples, 60.0%)" in svg
        assert "(10 samples, 10.0%)" in svg

    def test_deterministic(self):
        assert render_flamegraph(self.FOLDED) == render_flamegraph(
            self.FOLDED
        )

    def test_escapes_markup_in_labels_and_title(self):
        svg = render_flamegraph("mod.<listcomp> 5\n", title="a<b&c")
        assert "<listcomp>" not in svg
        assert "mod.&lt;listcomp&gt;" in svg
        assert "a&lt;b&amp;c" in svg

    def test_tiny_frames_culled(self):
        folded = "big 10000\nbig;tiny 1\n"
        svg = render_flamegraph(folded)
        assert "<title>big (" in svg
        assert "<title>tiny (" not in svg


def _snapshot(timers, wall=None):
    snap = {"counters": {}, "gauges": {}, "timers": timers}
    if wall is not None:
        snap["gauges"]["fpart.runtime_seconds"] = wall
    return snap


def _timer(total, count):
    return {"total_seconds": total, "count": count}


class TestPhaseTable:
    SNAP = _snapshot(
        {
            "fpart.phase.bipartition": _timer(0.6, 3),
            "fpart.phase.bipartition.ratio_cut": _timer(0.4, 3),
            "fpart.phase.bipartition.evaluate": _timer(0.1, 6),
            "fpart.phase.improve": _timer(1.2, 5),
            "sanchis.pass_seconds": _timer(1.1, 12),
        }
    )

    def test_two_level_tree(self):
        rows = phase_table(self.SNAP)
        assert [r.name for r in rows] == ["bipartition", "improve"]
        bip = rows[0]
        assert bip.seconds == pytest.approx(0.6)
        assert [c.name for c in bip.children] == ["evaluate", "ratio_cut"]

    def test_sanchis_pass_alias_nests_under_improve(self):
        rows = phase_table(self.SNAP)
        improve = rows[1]
        assert [c.name for c in improve.children] == ["pass"]
        assert improve.children[0].seconds == pytest.approx(1.1)
        assert improve.children[0].count == 12

    def test_other_row_closes_the_wall(self):
        rows = phase_table(self.SNAP, wall_seconds=2.0)
        assert rows[-1].name == "other"
        assert rows[-1].seconds == pytest.approx(0.2)

    def test_other_row_clamped_at_zero(self):
        rows = phase_table(self.SNAP, wall_seconds=1.0)
        assert rows[-1].seconds == 0.0

    def test_attributed_fraction(self):
        assert attributed_fraction(self.SNAP, 2.0) == pytest.approx(0.9)
        assert attributed_fraction(self.SNAP, 0.0) == 0.0

    def test_render_contains_footer_and_percentages(self):
        text = render_phase_table(self.SNAP, wall_seconds=2.0, run_id="r1")
        assert "phase breakdown — run r1" in text
        assert "attributed: 90.0% of wall" in text
        assert "bipartition" in text and "ratio_cut" in text

    def test_render_without_timers(self):
        assert "no phase timers" in render_phase_table(_snapshot({}))


class TestPhaseAttributionOnRealRun:
    def test_phase_timers_cover_the_run_wall(self):
        """The ≥95% attribution contract on a real circuit (DESIGN.md §12)."""
        from repro.circuits import mcnc_circuit
        from repro.core import device_by_name
        from repro.core.fpart import FpartPartitioner
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        result = FpartPartitioner(
            mcnc_circuit("s9234"),
            device_by_name("XC3042"),
            metrics=metrics,
        ).run()
        snapshot = metrics.snapshot()
        fraction = attributed_fraction(snapshot, result.runtime_seconds)
        assert fraction >= 0.95
        # The table's top-level rows never exceed the wall they nest in.
        assert fraction <= 1.05
        sub = [
            key
            for key in snapshot["timers"]
            if key.startswith("fpart.phase.bipartition.")
        ]
        assert sub, "constructive sub-phase timers missing"
