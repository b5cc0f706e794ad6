"""The paper's future-work extensions (section 5).

Pin-count gains (instead of cut-net gains) and early pass abort of
multi-block passes — both implemented as config knobs and validated
here.
"""

import pytest

from repro.circuits import mcnc_circuit
from repro.core import XC3020, FpartConfig, fpart
from repro.fm import pin_gain
from repro.partition import PartitionState, block_pin_counts


def brute_force_pin_gain(state, cell, to_block):
    """Oracle: -(delta T_f + delta T_t) measured by applying the move."""
    f = state.block_of(cell)
    before = state.block_pins(f) + state.block_pins(to_block)
    origin = state.move(cell, to_block)
    after = state.block_pins(f) + state.block_pins(to_block)
    state.move(cell, origin)
    return before - after


class TestPinGain:
    def test_matches_oracle_two_way(self, two_clusters):
        state = PartitionState.from_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1]
        )
        for cell in range(8):
            to = 1 - state.block_of(cell)
            assert pin_gain(state, cell, to) == brute_force_pin_gain(
                state, cell, to
            ), cell

    def test_matches_oracle_multiway(self, medium_circuit):
        state = PartitionState.from_assignment(
            medium_circuit,
            [c % 4 for c in range(medium_circuit.num_cells)],
        )
        for cell in range(0, medium_circuit.num_cells, 5):
            for to in range(4):
                if to == state.block_of(cell):
                    continue
                assert pin_gain(state, cell, to) == brute_force_pin_gain(
                    state, cell, to
                ), (cell, to)

    def test_matches_oracle_with_pads(self, clique5):
        state = PartitionState.from_assignment(clique5, [0, 0, 1, 1, 0])
        for cell in range(5):
            to = 1 - state.block_of(cell)
            assert pin_gain(state, cell, to) == brute_force_pin_gain(
                state, cell, to
            ), cell

    def test_differs_from_cut_gain(self):
        from repro.fm import move_gain
        from repro.hypergraph import Hypergraph

        # Net (0,1) with a pad, blocks {0} and {1}: moving cell 0 to
        # block 1 keeps the pad pin (external) but uncuts the net.
        hg = Hypergraph([1, 1], [(0, 1)], terminal_nets=[0])
        state = PartitionState.from_assignment(hg, [0, 1])
        assert move_gain(state, 0, 1) == 1      # cut 1 -> 0
        assert pin_gain(state, 0, 1) == 1       # pins 2 -> 1 on (f, t)


class TestPinGainMode:
    def test_fpart_feasible_in_pin_mode(self, medium_circuit, small_device):
        result = fpart(
            medium_circuit, small_device, FpartConfig(gain_mode="pin")
        )
        assert result.feasible
        assert result.num_devices >= result.lower_bound

    def test_pin_mode_on_standin(self):
        hg = mcnc_circuit("c3540", "XC3000")
        result = fpart(hg, XC3020, FpartConfig(gain_mode="pin"))
        assert result.feasible
        assert result.num_devices <= 7  # within one of the cut mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="gain_mode"):
            FpartConfig(gain_mode="area")


class TestPassStall:
    def test_stall_limit_feasible(self, medium_circuit, small_device):
        result = fpart(
            medium_circuit,
            small_device,
            FpartConfig(pass_stall_limit=25),
        )
        assert result.feasible

    def test_stall_limit_validation(self):
        with pytest.raises(ValueError, match="pass_stall_limit"):
            FpartConfig(pass_stall_limit=0)

    @staticmethod
    def _one_pass(hg, device, k, limit):
        """One engine pass over ``k`` round-robin blocks; returns the
        moves kept, the moves tried and the assignment it leaves."""
        from repro.core import CostEvaluator, MoveRegion
        from repro.obs import MetricsRegistry
        from repro.sanchis import SanchisEngine

        config = FpartConfig(pass_stall_limit=limit, max_passes=1)
        state = PartitionState.from_assignment(
            hg, [c % k for c in range(hg.num_cells)]
        )
        evaluator = CostEvaluator(device, config, 4, hg.num_terminals)
        region = MoveRegion(device, config, k - 1, k == 2, k, 4)
        metrics = MetricsRegistry()
        engine = SanchisEngine(
            state, list(range(k)), k - 1, evaluator, region, config,
            metrics=metrics,
        )
        moves, _ = engine.run_pass()
        tried = metrics.snapshot()["counters"]["sanchis.moves_tried"]
        return moves, tried, state.assignment()

    def test_stall_caps_pass_moves(self, medium_circuit):
        """A multi-block pass stops once it has gone ``limit`` moves
        without a new pass-best while holding fewer feasible blocks
        than that best (pin-roomy device: the round-robin start has
        feasible blocks to lose)."""
        from repro.core import Device

        device = Device("PINROOM", s_ds=40, t_max=60, delta=1.0)
        kept, tried, _ = self._one_pass(medium_circuit, device, 3, 5)
        _, full_tried, _ = self._one_pass(medium_circuit, device, 3, None)
        assert kept + 5 <= tried < full_tried

    def test_two_block_pass_ignores_limit(self, medium_circuit):
        """2-block passes always run to completion: the limit changes
        neither the moves tried nor the moves kept.  (On this device,
        the multi-block rule applied to the same pass would stop it
        after 59 of its 120 moves.)"""
        from repro.core import Device

        device = Device("ROOMY", s_ds=60, t_max=60, delta=1.0)
        capped = self._one_pass(medium_circuit, device, 2, 5)
        full = self._one_pass(medium_circuit, device, 2, None)
        assert capped == full
        assert full[1] == medium_circuit.num_cells

    @pytest.mark.parametrize("case", ["golden-smallm", "c6288-XC3020"])
    def test_default_limit_matches_full_pass(self, case):
        """Oracle: the default limit cuts only rolled-back work, so the
        result equals the classical full pass bit for bit."""
        from repro.circuits import generate_circuit

        if case == "golden-smallm":
            hg = generate_circuit(
                "golden-smallm", num_cells=380, num_ios=50, seed=1
            )
        else:
            hg = mcnc_circuit("c6288", "XC3000")
        assert FpartConfig().pass_stall_limit == 128
        default = fpart(hg, XC3020)
        full = fpart(hg, XC3020, FpartConfig(pass_stall_limit=None))
        assert default.assignment == full.assignment
        assert default.cost.key == full.cost.key
