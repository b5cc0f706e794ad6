"""Cross-module integration: full runs validated end to end."""

import pytest

from repro import (
    XC2064,
    XC3020,
    XC3042,
    XC3090,
    Feasibility,
    PartitionState,
    classify,
    fpart,
    mcnc_circuit,
)
from repro.baselines import bfs_pack, fbb_multiway, kwayx
from repro.circuits import generate_circuit
from repro.core import FpartConfig
from repro.partition import block_pin_counts, block_sizes


def validate_result(hg, device, result):
    """Re-derive every reported quantity from the raw assignment."""
    state = PartitionState.from_assignment(
        hg, result.assignment, result.num_devices
    )
    assert classify(state, device) is Feasibility.FEASIBLE
    assert list(state.block_sizes) == block_sizes(
        hg, result.assignment, result.num_devices
    )
    assert list(state.block_pin_counts) == block_pin_counts(
        hg, result.assignment, result.num_devices
    )
    assert all(state.block_num_cells(b) for b in range(result.num_devices))


class TestFpartOnStandins:
    @pytest.mark.parametrize(
        "circuit,device,paper",
        [
            ("c3540", XC3042, 3),
            ("c3540", XC3090, 1),
            ("s9234", XC3042, 4),
            ("s9234", XC3090, 2),
        ],
    )
    def test_small_cases_match_paper(self, circuit, device, paper):
        family = "XC2000" if device.name == "XC2064" else "XC3000"
        hg = mcnc_circuit(circuit, family)
        result = fpart(hg, device)
        validate_result(hg, device, result)
        # The stand-ins are not the real netlists: require the paper's
        # count within one device (and never below the lower bound).
        assert result.lower_bound <= result.num_devices <= paper + 1

    def test_xc3020_c3540_full_validation(self):
        hg = mcnc_circuit("c3540", "XC3000")
        result = fpart(hg, XC3020)
        validate_result(hg, XC3020, result)
        assert result.num_devices <= 7  # paper: 6, lower bound 5

    def test_xc2064_c3540(self):
        hg = mcnc_circuit("c3540", "XC2000")
        result = fpart(hg, XC2064)
        validate_result(hg, XC2064, result)
        assert result.num_devices <= 7  # paper: 6, M = 6


class TestMethodOrdering:
    """The comparison shape of Tables 2-5: FPART <= the baselines."""

    @pytest.mark.parametrize("circuit", ["c3540", "s9234"])
    def test_fpart_leq_kwayx_xc3020(self, circuit):
        hg = mcnc_circuit(circuit, "XC3000")
        assert (
            fpart(hg, XC3020).num_devices
            <= kwayx(hg, XC3020).num_devices
        )

    @pytest.mark.parametrize("circuit", ["c3540", "s9234"])
    def test_fpart_leq_fbb_xc3020(self, circuit):
        hg = mcnc_circuit(circuit, "XC3000")
        assert (
            fpart(hg, XC3020).num_devices
            <= fbb_multiway(hg, XC3020).num_devices
        )

    def test_fpart_leq_naive(self):
        hg = mcnc_circuit("c5315", "XC3000")
        assert (
            fpart(hg, XC3020).num_devices
            <= bfs_pack(hg, XC3020).num_devices
        )


class TestConfigAblation:
    def test_infeasibility_cost_not_worse_than_cut_cost(self):
        hg = mcnc_circuit("s9234", "XC3000")
        full = fpart(hg, XC3020)
        cut_only = fpart(
            hg, XC3020, FpartConfig(use_infeasibility_cost=False)
        )
        assert full.num_devices <= cut_only.num_devices


class TestRobustness:
    def test_disconnected_circuit(self, small_device):
        from repro.hypergraph import Hypergraph

        # Three disjoint 30-cell cliques of 2-pin nets.
        nets = []
        for base in (0, 30, 60):
            nets.extend(
                (base + i, base + i + 1) for i in range(29)
            )
        hg = Hypergraph([1] * 90, nets, [0], name="islands")
        result = fpart(hg, small_device)
        assert result.feasible

    def test_star_topology(self, small_device):
        from repro.hypergraph import Hypergraph

        # One hub net touching many cells plus private 2-pin nets.
        nets = [tuple(range(0, 50, 2))]
        nets.extend((i, i + 1) for i in range(0, 49))
        hg = Hypergraph([1] * 50, nets, [0], name="star")
        result = fpart(hg, small_device)
        assert result.feasible

    def test_heavy_cells_near_capacity(self):
        from repro.core import Device
        from repro.hypergraph import Hypergraph

        device = Device("HC", s_ds=10, t_max=20, delta=1.0)
        # Cells of size 6: only one fits per device alongside a size-3.
        sizes = [6, 6, 6, 3, 3, 3]
        nets = [(0, 3), (1, 4), (2, 5), (0, 1), (1, 2)]
        hg = Hypergraph(sizes, nets, [], name="heavy")
        result = fpart(hg, device)
        assert result.feasible
        assert all(s <= 10 for s in result.block_sizes)

    def test_single_cell_circuit(self, small_device):
        from repro.hypergraph import Hypergraph

        hg = Hypergraph([5], [(0,)], [0], name="solo")
        result = fpart(hg, small_device)
        assert result.num_devices == 1
        assert result.feasible
