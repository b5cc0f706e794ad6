"""Heartbeat progress tests and terminal run_end closure on all paths."""

from __future__ import annotations

import io
import json

import pytest

from repro.circuits import generate_circuit
from repro.core import XC3020, XC3042, FpartPartitioner
from repro.core.config import FpartConfig
from repro.core.cost import make_evaluator
from repro.core.runguard import RunGuard
from repro.obs.progress import HeartbeatEmitter
from repro.obs.trace import NULL_TRACE, TraceWriter, validate_trace
from repro.testing.faults import FaultPlan, FaultyEvaluator


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_guard():
    guard = RunGuard()
    guard.start()
    return guard


class TestHeartbeatEmitter:
    def test_rate_limited_by_interval(self):
        clock = FakeClock()
        hb = HeartbeatEmitter(interval_seconds=2.0, _clock=clock)
        guard = make_guard()
        hb.attach(guard)
        guard.check()  # t=0: inside the interval
        assert hb.emitted == 0
        clock.now = 1.9
        guard.check()
        assert hb.emitted == 0
        clock.now = 2.1
        guard.check()
        assert hb.emitted == 1
        clock.now = 2.2
        guard.check()  # window restarts after an emission
        assert hb.emitted == 1

    def test_interval_zero_emits_every_tick(self):
        hb = HeartbeatEmitter(interval_seconds=0.0)
        guard = make_guard()
        hb.attach(guard)
        for _ in range(3):
            guard.check()
        assert hb.emitted == 3

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            HeartbeatEmitter(interval_seconds=-1.0)

    def test_detach_removes_only_own_hook(self):
        hb = HeartbeatEmitter()
        other = HeartbeatEmitter()
        guard = make_guard()
        hb.attach(guard)
        other.detach(guard)  # not its hook: no-op
        assert guard.on_tick is not None
        hb.detach(guard)
        assert guard.on_tick is None

    def test_trace_event_fields(self):
        buf = io.StringIO()
        tracer = TraceWriter(buf, run_id="cafe0001")
        hb = HeartbeatEmitter(tracer=tracer, interval_seconds=0.0)
        guard = make_guard()
        guard.tick_iteration()
        hb.emit(guard)
        event = json.loads(buf.getvalue().splitlines()[-1])
        assert event["event"] == "progress"
        assert event["iteration"] == 1
        assert event["moves"] == 0
        assert event["elapsed_seconds"] >= 0
        assert "cost" not in event  # no best recorded yet

    def test_beat_reaches_disk_before_close(self, tmp_path):
        # A live tail (the serve job stream) reads the trace file from
        # another handle while the run is still going.
        path = tmp_path / "trace.jsonl"
        tracer = TraceWriter(path, run_id="cafe0002")
        try:
            HeartbeatEmitter(tracer=tracer, interval_seconds=0.0).emit(
                make_guard()
            )
            with open(path, encoding="utf-8") as tail:
                lines = tail.read().splitlines()
            assert [json.loads(line)["event"] for line in lines] == [
                "progress"
            ]
        finally:
            tracer.close()

    def test_stderr_line_with_best_cost(self):
        hg = generate_circuit("hb", num_cells=60, num_ios=10, seed=3)
        config = FpartConfig()
        device = XC3042
        evaluator = make_evaluator(
            device, config, device.lower_bound(hg), hg.num_terminals
        )
        from repro.partition import PartitionState

        cost = evaluator.evaluate(PartitionState.single_block(hg), 0)
        stream = io.StringIO()
        hb = HeartbeatEmitter(stream=stream, interval_seconds=0.0)
        hb.note_best(cost)
        hb.emit(make_guard())
        line = stream.getvalue()
        assert line.startswith("fpart: progress iter=0 moves=0")
        assert "best f=" in line and "T_SUM=" in line

    def test_null_tracer_and_no_stream_counts_only(self):
        hb = HeartbeatEmitter(tracer=NULL_TRACE, interval_seconds=0.0)
        hb.emit(make_guard())
        assert hb.emitted == 1


def _run(hg, device, **kwargs):
    return FpartPartitioner(hg, device, **kwargs).run()


class TestHeartbeatIntegration:
    def test_progress_events_in_valid_trace(self):
        hg = generate_circuit("hb-int", num_cells=150, num_ios=20, seed=11)
        buf = io.StringIO()
        tracer = TraceWriter(buf, run_id="cafe0002", sample_moves=0)
        hb = HeartbeatEmitter(tracer=tracer, interval_seconds=0.0)
        result = _run(hg, XC3020, tracer=tracer, heartbeat=hb)
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert validate_trace(events) == []
        progress = [e for e in events if e["event"] == "progress"]
        assert progress
        assert hb.emitted == len(progress)
        # Beats carry the best tuple once one exists.
        assert any("cost" in e for e in progress)
        assert result.feasible

    def test_heartbeat_does_not_change_the_search(self):
        hg = generate_circuit("hb-bit", num_cells=150, num_ios=20, seed=11)
        plain = _run(hg, XC3020)
        hb = HeartbeatEmitter(
            stream=io.StringIO(), interval_seconds=0.0
        )
        beating = _run(hg, XC3020, heartbeat=hb)
        assert hb.emitted > 0
        assert beating.assignment == plain.assignment
        assert beating.iterations == plain.iterations

    def test_guard_hook_detached_after_run(self):
        hg = generate_circuit("hb-det", num_cells=60, num_ios=10, seed=3)
        guard = RunGuard()
        hb = HeartbeatEmitter(interval_seconds=0.0)
        _run(hg, XC3042, guard=guard, heartbeat=hb)
        assert guard.on_tick is None


class TestRunEndOnAllPaths:
    """Satellite: every trace that saw run_start also sees run_end."""

    def _traced_faulty_run(self, strict, plan, **config_kwargs):
        hg = generate_circuit("fault", num_cells=150, num_ios=20, seed=11)
        config = FpartConfig(strict=strict, **config_kwargs)
        device = XC3020
        base = make_evaluator(
            device, config, device.lower_bound(hg), hg.num_terminals
        )
        evaluator = FaultyEvaluator(base, plan)
        buf = io.StringIO()
        tracer = TraceWriter(buf, run_id="cafe0003", sample_moves=0)
        partitioner = FpartPartitioner(
            hg, device, config, evaluator=evaluator, tracer=tracer
        )
        outcome = None
        try:
            outcome = partitioner.run()
        except Exception as error:
            outcome = error
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        return outcome, events

    def test_strict_injected_fault_closes_trace(self):
        outcome, events = self._traced_faulty_run(
            strict=True, plan=FaultPlan(fail_on_call=20)
        )
        assert isinstance(outcome, Exception)
        assert validate_trace(events) == []
        last = events[-1]
        assert last["event"] == "run_end"
        assert last["status"] == "failed"
        assert "injected fault" in last["error"]

    def test_strict_budget_exhaustion_closes_trace(self):
        outcome, events = self._traced_faulty_run(
            strict=True, plan=FaultPlan(), max_iterations=1
        )
        assert isinstance(outcome, Exception)
        last = events[-1]
        assert last["event"] == "run_end"
        assert last["status"] == "budget_exhausted"
        assert validate_trace(events) == []

    def test_degraded_run_ends_with_degraded_status(self):
        outcome, events = self._traced_faulty_run(
            strict=False, plan=FaultPlan(fail_on_call=20)
        )
        assert not isinstance(outcome, Exception)
        assert outcome.status in ("semi_feasible", "failed")
        last = events[-1]
        assert last["event"] == "run_end"
        assert last["status"] == outcome.status
        assert validate_trace(events) == []

    def test_feasible_run_end_carries_final_cost(self):
        hg = generate_circuit("ok", num_cells=150, num_ios=20, seed=11)
        buf = io.StringIO()
        tracer = TraceWriter(buf, run_id="cafe0004", sample_moves=0)
        result = _run(hg, XC3020, tracer=tracer)
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        last = events[-1]
        assert last["event"] == "run_end"
        assert last["status"] == "feasible"
        assert last["cost"] is not None
        assert result.cost is not None
        assert last["cost"]["t_sum"] == result.cost.total_pins

    def test_exactly_one_run_end_per_trace(self):
        for strict in (False, True):
            _, events = self._traced_faulty_run(
                strict=strict, plan=FaultPlan(fail_on_call=20)
            )
            ends = [e for e in events if e["event"] == "run_end"]
            assert len(ends) == 1


class TestTerminalHeartbeat:
    """Satellite: the final heartbeat carries the run's terminal status.

    Streaming consumers block on the next progress event; a run that
    degrades or fails between beats must still emit one last marked
    beat (``final: true`` + status) so the stream ends promptly instead
    of timing out.
    """

    def test_finish_emits_final_fields(self):
        buf = io.StringIO()
        tracer = TraceWriter(buf, run_id="cafe0005", sample_moves=0)
        tracer.emit("run_start", circuit="x", device="XC3020",
                    lower_bound=1, budget={}, strict=False)
        hb = HeartbeatEmitter(tracer=tracer, interval_seconds=1000.0)
        guard = make_guard()
        hb.attach(guard)
        hb.finish(guard, "budget_exhausted")
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        beat = events[-1]
        assert beat["event"] == "progress"
        assert beat["final"] is True
        assert beat["status"] == "budget_exhausted"

    def test_finish_bypasses_rate_limit(self):
        clock = FakeClock()
        hb = HeartbeatEmitter(interval_seconds=1000.0, _clock=clock)
        guard = make_guard()
        hb.attach(guard)
        guard.check()
        assert hb.emitted == 0  # normal beats rate-limited out
        hb.finish(guard, "failed")
        assert hb.emitted == 1  # the terminal beat always lands

    def test_finish_is_once_latched(self):
        hb = HeartbeatEmitter(interval_seconds=0.0)
        guard = make_guard()
        hb.finish(guard, "feasible")
        hb.finish(guard, "failed")  # second exit path: ignored
        assert hb.emitted == 1
        assert hb.finished is True

    def test_stderr_line_marks_completion(self):
        stream = io.StringIO()
        hb = HeartbeatEmitter(stream=stream, interval_seconds=0.0)
        hb.finish(make_guard(), "budget_exhausted")
        assert "done status=budget_exhausted" in stream.getvalue()

    def _traced_run_with_heartbeat(self, strict, plan, **config_kwargs):
        hg = generate_circuit("fault", num_cells=150, num_ios=20, seed=11)
        config = FpartConfig(strict=strict, **config_kwargs)
        device = XC3020
        evaluator = None
        if plan is not None:
            base = make_evaluator(
                device, config, device.lower_bound(hg), hg.num_terminals
            )
            evaluator = FaultyEvaluator(base, plan)
        buf = io.StringIO()
        tracer = TraceWriter(buf, run_id="cafe0006", sample_moves=0)
        heartbeat = HeartbeatEmitter(tracer=tracer, interval_seconds=0.0)
        partitioner = FpartPartitioner(
            hg, device, config,
            evaluator=evaluator, tracer=tracer, heartbeat=heartbeat,
        )
        try:
            outcome = partitioner.run()
        except Exception as error:
            outcome = error
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        return outcome, events

    def _final_beats(self, events):
        return [
            e for e in events
            if e["event"] == "progress" and e.get("final")
        ]

    def test_feasible_run_final_beat(self):
        outcome, events = self._traced_run_with_heartbeat(
            strict=False, plan=None
        )
        beats = self._final_beats(events)
        assert len(beats) == 1
        assert beats[0]["status"] == outcome.status == "feasible"
        assert validate_trace(events) == []

    def test_degraded_run_final_beat(self):
        outcome, events = self._traced_run_with_heartbeat(
            strict=False, plan=FaultPlan(fail_on_call=20)
        )
        beats = self._final_beats(events)
        assert len(beats) == 1
        assert beats[0]["status"] == outcome.status
        assert outcome.status in ("semi_feasible", "failed")

    def test_strict_raise_still_emits_final_beat(self):
        outcome, events = self._traced_run_with_heartbeat(
            strict=True, plan=FaultPlan(fail_on_call=20)
        )
        assert isinstance(outcome, Exception)
        beats = self._final_beats(events)
        assert len(beats) == 1
        assert beats[0]["status"] == "failed"

    def test_budget_exhausted_final_beat(self):
        outcome, events = self._traced_run_with_heartbeat(
            strict=False, plan=None, max_iterations=1
        )
        beats = self._final_beats(events)
        assert len(beats) == 1
        assert beats[0]["status"] == outcome.status
        # The terminal beat lands before run_end closes the trace.
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "run_end"
        assert kinds[-2] == "progress"
