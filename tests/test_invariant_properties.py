"""Cross-cutting invariant properties (hypothesis).

Covers the pieces earlier property modules did not: move-region
monotonicity, lexicographic-cost total ordering, pin-gain correctness
under arbitrary states, and end-to-end FPART feasibility on random
circuits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_CONFIG,
    Device,
    FpartConfig,
    MoveRegion,
    SolutionCost,
    fpart,
)
from repro.circuits import generate_circuit
from repro.fm import pin_gain
from repro.hypergraph import Hypergraph
from repro.partition import PartitionState, validate_assignment


@st.composite
def costs(draw):
    return SolutionCost(
        feasible_blocks=draw(st.integers(0, 6)),
        distance=draw(st.floats(0, 10, allow_nan=False)),
        total_pins=draw(st.integers(0, 500)),
        ext_balance=draw(st.floats(0, 5, allow_nan=False)),
        cut_nets=draw(st.integers(0, 200)),
    )


class TestCostOrdering:
    @given(costs(), costs(), costs())
    @settings(max_examples=150, deadline=None)
    def test_total_order_transitive(self, a, b, c):
        if a < b and b < c:
            assert a < c
        if a <= b and b <= a:
            assert a.key == b.key

    @given(costs(), costs())
    @settings(max_examples=100, deadline=None)
    def test_trichotomy(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(costs())
    @settings(max_examples=50, deadline=None)
    def test_feasible_blocks_dominate(self, a):
        better = SolutionCost(
            feasible_blocks=a.feasible_blocks + 1,
            distance=a.distance + 100,
            total_pins=a.total_pins + 100,
            ext_balance=a.ext_balance + 100,
            cut_nets=a.cut_nets,
        )
        assert better < a


class TestMoveRegionProperties:
    DEV = Device("MR", s_ds=100, t_max=50, delta=1.0)

    @given(
        st.integers(2, 6),   # num_blocks
        st.integers(1, 10),  # lower bound
        st.booleans(),       # two_block
        st.integers(1, 120),  # block size probe
    )
    @settings(max_examples=150, deadline=None)
    def test_region_consistency(self, k, m, two_block, probe_size):
        region = MoveRegion(
            self.DEV, DEFAULT_CONFIG, remainder=0, two_block=two_block,
            num_blocks=k, lower_bound=m,
        )
        hg = Hypergraph([probe_size, 1], [(0, 1)])
        state = PartitionState.from_assignment(
            hg, [1, 1], num_blocks=max(2, k)
        )
        # The remainder always donates and receives.
        assert region.can_receive(state, 0, 10**6)
        assert region.can_donate(state, 0, 10**6)
        # Caps never exceed the k<=M window and never fall below S_MAX.
        assert self.DEV.s_max <= region.size_cap <= 1.05 * self.DEV.s_max
        # can_receive is antitone in the size delta.
        if region.can_receive(state, 1, probe_size):
            assert region.can_receive(state, 1, probe_size - 1) or probe_size == 1


class TestPinGainProperty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pin_gain_matches_measurement(self, data):
        n = data.draw(st.integers(3, 9))
        num_nets = data.draw(st.integers(2, 12))
        nets = []
        for _ in range(num_nets):
            degree = data.draw(st.integers(2, min(4, n)))
            pins = data.draw(
                st.lists(
                    st.integers(0, n - 1),
                    min_size=degree, max_size=degree, unique=True,
                )
            )
            nets.append(tuple(pins))
        pads = data.draw(
            st.lists(st.integers(0, num_nets - 1), max_size=3)
        )
        hg = Hypergraph([1] * n, nets, pads)
        k = data.draw(st.integers(2, 4))
        assignment = data.draw(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
        )
        state = PartitionState.from_assignment(hg, assignment, k)
        cell = data.draw(st.integers(0, n - 1))
        to = data.draw(st.integers(0, k - 1))
        f = state.block_of(cell)
        if to == f:
            return
        predicted = pin_gain(state, cell, to)
        before = state.block_pins(f) + state.block_pins(to)
        state.move(cell, to)
        after = state.block_pins(f) + state.block_pins(to)
        assert predicted == before - after


class TestEndToEndProperty:
    @given(
        st.integers(40, 120),  # cells
        st.integers(4, 20),    # ios
        st.integers(0, 10_000),  # seed
    )
    @settings(max_examples=12, deadline=None)
    def test_fpart_always_valid(self, cells, ios, seed):
        hg = generate_circuit(
            f"prop{seed}", num_cells=cells, num_ios=ios, seed=seed
        )
        device = Device("PP", s_ds=30, t_max=25, delta=1.0)
        result = fpart(hg, device, FpartConfig(max_passes=4))
        report = validate_assignment(
            hg, result.assignment, device, result.num_devices
        )
        assert report.feasible
        assert result.num_devices >= report.lower_bound
