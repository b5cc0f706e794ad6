"""End-to-end observability: telemetry must never change the search.

The contract of the ``repro.obs`` subsystem is that instrumentation is
purely observational — a run with a live :class:`MetricsRegistry` and
:class:`TraceWriter` attached produces bit-identical partitioning
results to an uninstrumented run, the trace stream validates against
its schema, and one run id links the result, the checkpoint files, the
trace events and the metrics dump.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import XC2064, XC3020, XC3042, mcnc_circuit
from repro.core import (
    CheckpointManager,
    FpartConfig,
    FpartPartitioner,
)
from repro.obs import (
    MetricsRegistry,
    TraceWriter,
    read_trace,
    validate_trace,
)


def _traced_run(hg, device, trace_sink, sample_moves=16, **kwargs):
    metrics = MetricsRegistry()
    tracer = TraceWriter(trace_sink, run_id="ignored", sample_moves=sample_moves)
    result = FpartPartitioner(
        hg, device, metrics=metrics, tracer=tracer, **kwargs
    ).run()
    tracer.close()
    return result, metrics, tracer


def _events(sink: io.StringIO):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestObservationDoesNotPerturb:
    def test_s9234_xc3042_identical_assignment(self):
        hg = mcnc_circuit("s9234", "XC3000")
        plain = FpartPartitioner(hg, XC3042).run()
        sink = io.StringIO()
        traced, metrics, _ = _traced_run(hg, XC3042, sink)
        assert traced.assignment == plain.assignment
        assert traced.num_devices == plain.num_devices
        assert traced.iterations == plain.iterations
        # ... while actually having observed the run.
        snap = metrics.snapshot()
        assert snap["counters"]["fpart.iterations"] == plain.iterations
        assert snap["counters"]["sanchis.moves_tried"] > 0
        assert snap["histograms"]["sanchis.gain1"]["total"] > 0
        assert validate_trace(_events(sink)) == []

    def test_medium_circuit_identical(self, medium_circuit, small_device):
        plain = FpartPartitioner(medium_circuit, small_device).run()
        sink = io.StringIO()
        traced, _, _ = _traced_run(medium_circuit, small_device, sink)
        assert traced.assignment == plain.assignment


class TestRecoveryStall:
    """``sanchis.recovery_stall.{k2,multi}``: the stall count at each
    pass-best improvement, split by the pass's block count."""

    @staticmethod
    def _golden_smallm():
        from repro.circuits import generate_circuit

        return generate_circuit(
            "golden-smallm", num_cells=380, num_ios=50, seed=1
        )

    def test_histograms_do_not_perturb(self):
        hg = self._golden_smallm()
        plain = FpartPartitioner(hg, XC3020).run()
        metrics = MetricsRegistry()
        observed = FpartPartitioner(hg, XC3020, metrics=metrics).run()
        assert observed.assignment == plain.assignment
        assert observed.cost.key == plain.cost.key
        histograms = metrics.snapshot()["histograms"]
        assert histograms["sanchis.recovery_stall.k2"]["total"] > 0
        # Flushed once per multi-block pass, improvements or not.
        assert "sanchis.recovery_stall.multi" in histograms

    @pytest.mark.parametrize("case", ["golden-smallm", "c3540-XC2064"])
    def test_multi_block_recoveries_stay_below_the_limit(self, case):
        """On these inputs every multi-block pass-best improvement of
        the classical full pass comes within the default stall limit,
        so the cut cannot change their trajectories."""
        if case == "golden-smallm":
            hg, device = self._golden_smallm(), XC3020
        else:
            hg, device = mcnc_circuit("c3540", "XC2000"), XC2064
        metrics = MetricsRegistry()
        FpartPartitioner(
            hg, device, FpartConfig(pass_stall_limit=None), metrics=metrics
        ).run()
        hist = metrics.snapshot()["histograms"][
            "sanchis.recovery_stall.multi"
        ]
        hit = [i for i, n in enumerate(hist["counts"]) if n]
        if case == "c3540-XC2064":
            assert hit  # this input does recover inside multi-block passes
        if hit:
            top = hist["lo"] + (hit[-1] + 1) * hist["width"]
            assert top <= FpartConfig().pass_stall_limit


class TestTraceStream:
    def test_lifecycle_events_and_schema(self, medium_circuit, small_device):
        sink = io.StringIO()
        result, _, _ = _traced_run(medium_circuit, small_device, sink)
        events = _events(sink)
        assert validate_trace(events) == []
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "pass_start" in kinds
        assert "lex_improve" in kinds
        end = events[-1]
        assert end["status"] == result.status
        assert end["iterations"] == result.iterations
        assert end["num_devices"] == result.num_devices
        assert end["cost"] is not None

    def test_sampling_zero_disables_move_batches(
        self, medium_circuit, small_device
    ):
        sink = io.StringIO()
        _traced_run(medium_circuit, small_device, sink, sample_moves=0)
        assert not [
            e for e in _events(sink) if e["event"] == "move_batch"
        ]

    def test_small_sampling_interval_emits_move_batches(
        self, medium_circuit, small_device
    ):
        sink = io.StringIO()
        _traced_run(medium_circuit, small_device, sink, sample_moves=8)
        batches = [e for e in _events(sink) if e["event"] == "move_batch"]
        assert batches
        assert all(len(b["key"]) == 4 for b in batches)


class TestRunIdLineage:
    def test_one_id_across_result_trace_checkpoint_metrics(
        self, medium_circuit, small_device, tmp_path
    ):
        manager = CheckpointManager(tmp_path / "run.ckpt", every=1)
        sink = io.StringIO()
        metrics = MetricsRegistry()
        tracer = TraceWriter(sink, run_id="placeholder", sample_moves=0)
        result = FpartPartitioner(
            medium_circuit,
            small_device,
            checkpoint=manager,
            metrics=metrics,
            tracer=tracer,
        ).run()
        tracer.close()
        assert result.run_id
        assert manager.load().run_id == result.run_id
        trace_ids = {e["run_id"] for e in _events(sink)}
        assert trace_ids == {result.run_id}
        dump = json.loads(
            metrics.dump_json(
                tmp_path / "m.json", run_id=result.run_id
            ).read_text()
        )
        assert dump["run_id"] == result.run_id

    def test_resume_adopts_checkpoint_run_id(
        self, medium_circuit, small_device, tmp_path
    ):
        manager = CheckpointManager(tmp_path / "run.ckpt", every=1)
        interrupted = FpartPartitioner(
            medium_circuit,
            small_device,
            FpartConfig(max_iterations=1),
            checkpoint=manager,
        ).run()
        cp = manager.load()
        assert cp.run_id == interrupted.run_id

        resumed = FpartPartitioner(medium_circuit, small_device).run(
            resume_from=cp
        )
        assert resumed.run_id == interrupted.run_id

    def test_explicit_run_id_wins_over_checkpoint(
        self, medium_circuit, small_device, tmp_path
    ):
        manager = CheckpointManager(tmp_path / "run.ckpt", every=1)
        FpartPartitioner(
            medium_circuit,
            small_device,
            FpartConfig(max_iterations=1),
            checkpoint=manager,
        ).run()
        resumed = FpartPartitioner(
            medium_circuit, small_device, run_id="mine1234"
        ).run(resume_from=manager.load())
        assert resumed.run_id == "mine1234"

    def test_resumed_trace_marks_run_start(
        self, medium_circuit, small_device, tmp_path
    ):
        manager = CheckpointManager(tmp_path / "run.ckpt", every=1)
        FpartPartitioner(
            medium_circuit,
            small_device,
            FpartConfig(max_iterations=1),
            checkpoint=manager,
        ).run()
        sink = io.StringIO()
        metrics = MetricsRegistry()
        tracer = TraceWriter(sink, run_id="placeholder", sample_moves=0)
        FpartPartitioner(
            medium_circuit, small_device, metrics=metrics, tracer=tracer
        ).run(resume_from=manager.load())
        tracer.close()
        events = _events(sink)
        assert validate_trace(events) == []
        assert events[0]["event"] == "run_start"
        assert events[0]["resumed"] is True


class TestTraceFileRoundTrip:
    def test_file_trace_validates_and_reports(
        self, medium_circuit, small_device, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        metrics = MetricsRegistry()
        tracer = TraceWriter(path, run_id="x", sample_moves=32)
        FpartPartitioner(
            medium_circuit, small_device, metrics=metrics, tracer=tracer
        ).run()
        tracer.close()
        events = read_trace(path)
        assert validate_trace(events) == []
        from repro.analysis import convergence_from_trace, render_pass_table

        points = convergence_from_trace(events)
        assert points
        assert points[-1].kind == "final"
        table = render_pass_table(events)
        assert "T_SUM" in table
        assert table == render_pass_table(events)  # deterministic
