"""FPART end-to-end (Algorithm 1)."""

import pytest

from repro.circuits import generate_circuit
from repro.core import (
    Device,
    Feasibility,
    FpartConfig,
    FpartPartitioner,
    UnpartitionableError,
    classify,
    fpart,
)
from repro.partition import PartitionState


class TestBasics:
    def test_two_clusters_two_devices(self, two_clusters, tiny_device):
        result = fpart(two_clusters, tiny_device)
        assert result.feasible
        assert result.num_devices == 2
        assert result.lower_bound == 2
        assert sorted(result.block_sizes) == [4, 4]

    def test_fits_single_device(self, two_clusters):
        big = Device("BIG", s_ds=100, t_max=100, delta=1.0)
        result = fpart(two_clusters, big)
        assert result.num_devices == 1
        assert result.iterations == 0

    def test_result_blocks_all_feasible(self, medium_circuit, small_device):
        result = fpart(medium_circuit, small_device)
        assert result.feasible
        for size, pins in zip(result.block_sizes, result.block_pins):
            assert size <= small_device.s_max
            assert pins <= small_device.t_max

    def test_assignment_consistent_with_reported_blocks(
        self, medium_circuit, small_device
    ):
        result = fpart(medium_circuit, small_device)
        state = PartitionState.from_assignment(
            medium_circuit, result.assignment, result.num_devices
        )
        assert list(state.block_sizes) == result.block_sizes
        assert list(state.block_pin_counts) == result.block_pins
        assert classify(state, small_device) is Feasibility.FEASIBLE

    def test_at_least_lower_bound(self, medium_circuit, small_device):
        result = fpart(medium_circuit, small_device)
        assert result.num_devices >= result.lower_bound
        assert result.gap_to_lower_bound >= 0

    def test_deterministic(self, medium_circuit, small_device):
        a = fpart(medium_circuit, small_device)
        b = fpart(medium_circuit, small_device)
        assert a.assignment == b.assignment
        assert a.num_devices == b.num_devices

    def test_summary_mentions_everything(self, two_clusters, tiny_device):
        text = fpart(two_clusters, tiny_device).summary()
        assert "two_clusters" in text
        assert "TINY" in text
        assert "M=2" in text


class TestTrace:
    def test_trace_recorded(self, medium_circuit, small_device):
        result = FpartPartitioner(medium_circuit, small_device).run()
        assert result.trace
        labels = {entry.label for entry in result.trace}
        assert "last_pair" in labels
        for entry in result.trace:
            assert entry.cost_after <= entry.cost_before

    def test_trace_disabled(self, medium_circuit, small_device):
        result = FpartPartitioner(
            medium_circuit, small_device, keep_trace=False
        ).run()
        assert result.trace == []

    def test_iterations_positive_when_split_needed(
        self, medium_circuit, small_device
    ):
        result = fpart(medium_circuit, small_device)
        assert result.iterations >= result.num_devices - 1


class TestErrors:
    def test_oversized_cell_rejected_up_front(self, tiny_device):
        from repro.hypergraph import Hypergraph

        hg = Hypergraph([10, 1], [(0, 1)])
        with pytest.raises(UnpartitionableError, match="exceeds device"):
            FpartPartitioner(hg, tiny_device)

    def test_iteration_limit_strict_raises(self, two_clusters, tiny_device):
        from repro.core import IterationLimitError

        config = FpartConfig(max_iterations=0, strict=True)
        with pytest.raises(IterationLimitError):
            FpartPartitioner(two_clusters, tiny_device, config).run()

    def test_iteration_limit_degrades_by_default(
        self, two_clusters, tiny_device
    ):
        config = FpartConfig(max_iterations=0)
        result = FpartPartitioner(two_clusters, tiny_device, config).run()
        assert result.status == "budget_exhausted"
        assert not result.feasible
        assert result.error
        assert len(result.assignment) == two_clusters.num_cells

    def test_default_iteration_cap_is_4m_plus_16(
        self, two_clusters, tiny_device
    ):
        from repro.core import RunBudget, default_iteration_cap

        m = tiny_device.lower_bound(two_clusters)
        budget = RunBudget.from_config(FpartConfig(), m)
        assert budget.max_iterations == 4 * m + 16
        assert default_iteration_cap(m) == 4 * m + 16


class TestConfigurations:
    def test_fast_profile_still_feasible(self, medium_circuit, small_device):
        config = FpartConfig(max_passes=4)
        result = fpart(medium_circuit, small_device, config)
        assert result.feasible

    def test_cut_cost_ablation_still_feasible(self, medium_circuit, small_device):
        config = FpartConfig(use_infeasibility_cost=False)
        result = fpart(medium_circuit, small_device, config)
        assert result.feasible

    def test_level1_only_still_feasible(self, medium_circuit, small_device):
        config = FpartConfig(use_level2_gains=False)
        result = fpart(medium_circuit, small_device, config)
        assert result.feasible

    def test_weighted_cells(self, small_device):
        hg = generate_circuit(
            "weighted",
            num_cells=60,
            num_ios=8,
            seed=3,
            cell_sizes=[1 + (i % 3) for i in range(60)],
        )
        result = fpart(hg, small_device)
        assert result.feasible
        assert sum(result.block_sizes) == hg.total_size

    def test_io_constrained_circuit(self):
        # Pin-dominated: lots of pads relative to logic.
        hg = generate_circuit("io-heavy", num_cells=80, num_ios=60, seed=9)
        device = Device("IOLTD", s_ds=60, t_max=25, delta=1.0)
        result = fpart(hg, device)
        assert result.feasible
        assert result.lower_bound >= 3  # ceil(60/25)
        assert all(p <= 25 for p in result.block_pins)
