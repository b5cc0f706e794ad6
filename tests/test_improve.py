"""The Improve() driver: one engine run and monotone improvement."""

import pytest

from repro.circuits import generate_circuit
from repro.core import (
    DEFAULT_CONFIG,
    XC3020,
    BudgetExhaustedError,
    CostEvaluator,
    FpartConfig,
    RunBudget,
    RunGuard,
    improve,
)
from repro.obs.metrics import MetricsRegistry
from repro.partition import PartitionState
from repro.sanchis import SanchisEngine


def run_improve(state, blocks, remainder, device, m, config=DEFAULT_CONFIG, **kw):
    evaluator = CostEvaluator(device, config, m, state.hg.num_terminals)
    return improve(
        state, blocks, remainder, evaluator, device, config, m, **kw
    )


class TestImprove:
    def test_never_worse_than_start(self, two_clusters, tiny_device):
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 1, 1, 1, 1, 1, 1]
        )
        evaluator = CostEvaluator(
            tiny_device, DEFAULT_CONFIG, 2, two_clusters.num_terminals
        )
        before = evaluator.evaluate(state, 1)
        after = run_improve(state, [0, 1], 1, tiny_device, m=2)
        assert after <= before
        state.check_consistency()

    def test_reaches_feasible_two_way(self, two_clusters, tiny_device):
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 1, 1, 1, 1, 1, 1]
        )
        cost = run_improve(state, [0, 1], 1, tiny_device, m=2)
        assert cost.feasible_blocks == 2

    def test_final_state_matches_reported_cost(self, medium_circuit, small_device):
        n = medium_circuit.num_cells
        state = PartitionState.from_assignment(
            medium_circuit, [0 if c < 30 else 1 for c in range(n)]
        )
        config = DEFAULT_CONFIG
        evaluator = CostEvaluator(
            small_device, config, 4, medium_circuit.num_terminals
        )
        cost = run_improve(state, [0, 1], 1, small_device, m=4)
        assert evaluator.evaluate(state, 1).key == cost.key

    def test_one_engine_run_per_call(
        self, medium_circuit, small_device, monkeypatch
    ):
        runs = []
        engine_run = SanchisEngine.run

        def counting_run(engine):
            runs.append(engine)
            return engine_run(engine)

        monkeypatch.setattr(SanchisEngine, "run", counting_run)
        state = PartitionState.from_assignment(
            medium_circuit, [c % 2 for c in range(medium_circuit.num_cells)]
        )
        metrics = MetricsRegistry()
        run_improve(state, [0, 1], 1, small_device, m=4, metrics=metrics)
        assert len(runs) == metrics.counter("improve.calls").value == 1

    def test_budget_trip_keeps_best_seen(self):
        # The move budget trips in the second pass, after the first pass
        # has already improved on the start: the state must hold the
        # best solution seen, not the call's start.
        hg = generate_circuit("trip", 380, 50, seed=7)
        start = [c % 2 for c in range(hg.num_cells)]
        state = PartitionState.from_assignment(hg, list(start))
        evaluator = CostEvaluator(XC3020, DEFAULT_CONFIG, 2, hg.num_terminals)
        start_cost = evaluator.evaluate(state, 1)

        one_pass = FpartConfig(max_passes=1)
        first = PartitionState.from_assignment(hg, list(start))
        first_pass_cost = run_improve(
            first, [0, 1], 1, XC3020, m=2, config=one_pass
        )
        assert first_pass_cost < start_cost

        guard = RunGuard(RunBudget(max_moves=400))
        guard.start()
        with pytest.raises(BudgetExhaustedError):
            run_improve(state, [0, 1], 1, XC3020, m=2, guard=guard)
        state.check_consistency()
        assert evaluator.evaluate(state, 1) <= first_pass_cost

    def test_deterministic(self, medium_circuit, small_device):
        n = medium_circuit.num_cells
        start = [0 if c < 30 else 1 for c in range(n)]
        results = []
        for _ in range(2):
            state = PartitionState.from_assignment(
                medium_circuit, list(start)
            )
            run_improve(state, [0, 1], 1, small_device, m=4)
            results.append(state.assignment())
        assert results[0] == results[1]

    def test_multiway_improve(self, medium_circuit, small_device):
        n = medium_circuit.num_cells
        state = PartitionState.from_assignment(
            medium_circuit, [c % 4 for c in range(n)]
        )
        evaluator = CostEvaluator(
            small_device, DEFAULT_CONFIG, 4, medium_circuit.num_terminals
        )
        before = evaluator.evaluate(state, 3)
        after = run_improve(state, [0, 1, 2, 3], 3, small_device, m=4)
        assert after <= before
        state.check_consistency()
