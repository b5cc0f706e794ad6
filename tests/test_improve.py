"""The Improve() driver: stack restarts and monotone improvement."""

from repro.core import (
    DEFAULT_CONFIG,
    CostEvaluator,
    Device,
    FpartConfig,
    improve,
)
from repro.obs.metrics import MetricsRegistry
from repro.partition import PartitionState


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

    def test_stack_restarts_replay_the_single_run(
        self, medium_circuit, small_device
    ):
        # A Sanchis pass is a deterministic function of the assignment,
        # so a restart from a stacked pass end replays the first run's
        # chain: the default depth lands where depth 0 does.
        start = [c % 2 for c in range(medium_circuit.num_cells)]

        state_no = PartitionState.from_assignment(medium_circuit, list(start))
        cost_no = run_improve(
            state_no, [0, 1], 1, small_device, m=4,
            config=FpartConfig(stack_depth=0),
        )
        state_yes = PartitionState.from_assignment(medium_circuit, list(start))
        metrics = MetricsRegistry()
        cost_yes = run_improve(
            state_yes, [0, 1], 1, small_device, m=4, metrics=metrics
        )
        assert metrics.counter("stack.pops").value > 0  # restarts ran
        assert cost_yes.key == cost_no.key
        assert state_yes.assignment() == state_no.assignment()

    def test_zero_depth_config_single_run(self, two_clusters, tiny_device):
        config = FpartConfig(stack_depth=0)
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 1, 1, 1, 1, 1, 1]
        )
        cost = run_improve(state, [0, 1], 1, tiny_device, m=2, config=config)
        assert cost.feasible_blocks == 2  # easy case still solved

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
