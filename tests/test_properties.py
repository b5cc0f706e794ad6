"""Property-based tests (hypothesis) on the core data structures.

Strategy: generate small random hypergraphs and random move sequences,
then check the incremental structures against their from-scratch oracles
and the algebraic invariants the paper's machinery relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fm import GainBuckets, move_gain
from repro.hypergraph import Hypergraph, dumps_hgr, loads_hgr
from repro.initial import GrowingBlock
from repro.partition import (
    PartitionState,
    block_ext_io_counts,
    block_pin_counts,
    block_sizes,
    cut_nets,
)


# ----------------------------------------------------------------------
# Hypergraph generation strategy
# ----------------------------------------------------------------------

@st.composite
def hypergraphs(draw, max_cells=12, max_nets=16):
    num_cells = draw(st.integers(2, max_cells))
    sizes = draw(
        st.lists(
            st.integers(1, 5), min_size=num_cells, max_size=num_cells
        )
    )
    num_nets = draw(st.integers(1, max_nets))
    nets = []
    for _ in range(num_nets):
        degree = draw(st.integers(1, min(5, num_cells)))
        pins = draw(
            st.lists(
                st.integers(0, num_cells - 1),
                min_size=degree,
                max_size=degree,
                unique=True,
            )
        )
        nets.append(tuple(pins))
    num_pads = draw(st.integers(0, 4))
    terminal_nets = draw(
        st.lists(
            st.integers(0, num_nets - 1),
            min_size=num_pads,
            max_size=num_pads,
        )
    )
    return Hypergraph(sizes, nets, terminal_nets)


@st.composite
def states_with_moves(draw, max_blocks=4, max_moves=20):
    hg = draw(hypergraphs())
    k = draw(st.integers(1, max_blocks))
    assignment = draw(
        st.lists(
            st.integers(0, k - 1),
            min_size=hg.num_cells,
            max_size=hg.num_cells,
        )
    )
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(0, hg.num_cells - 1), st.integers(0, k - 1)
            ),
            max_size=max_moves,
        )
    )
    return hg, assignment, k, moves


# ----------------------------------------------------------------------
# PartitionState invariants
# ----------------------------------------------------------------------

class TestPartitionStateProperties:
    @given(states_with_moves())
    @settings(max_examples=120, deadline=None)
    def test_incremental_matches_oracle_after_moves(self, data):
        hg, assignment, k, moves = data
        state = PartitionState(hg, assignment, k)
        for cell, to in moves:
            state.move(cell, to)
        snapshot = state.assignment()
        assert list(state.block_sizes) == block_sizes(hg, snapshot, k)
        assert list(state.block_pin_counts) == block_pin_counts(
            hg, snapshot, k
        )
        assert list(state.block_ext_io_counts) == block_ext_io_counts(
            hg, snapshot, k
        )
        assert state.cut_nets == cut_nets(hg, snapshot)
        assert state.total_pins == sum(state.block_pin_counts)

    @given(states_with_moves())
    @settings(max_examples=60, deadline=None)
    def test_moves_are_reversible(self, data):
        hg, assignment, k, moves = data
        state = PartitionState(hg, assignment, k)
        baseline = (
            state.assignment(),
            state.block_sizes,
            state.block_pin_counts,
            state.cut_nets,
        )
        undo = []
        for cell, to in moves:
            undo.append((cell, state.move(cell, to)))
        for cell, origin in reversed(undo):
            state.move(cell, origin)
        assert (
            state.assignment(),
            state.block_sizes,
            state.block_pin_counts,
            state.cut_nets,
        ) == baseline

    @given(states_with_moves())
    @settings(max_examples=60, deadline=None)
    def test_conservation_laws(self, data):
        hg, assignment, k, moves = data
        state = PartitionState(hg, assignment, k)
        for cell, to in moves:
            state.move(cell, to)
        assert sum(state.block_sizes) == hg.total_size
        assert sum(state.block_num_cells(b) for b in range(k)) == hg.num_cells
        assert 0 <= state.cut_nets <= hg.num_nets


# ----------------------------------------------------------------------
# Gain correctness
# ----------------------------------------------------------------------

class TestGainProperties:
    @given(states_with_moves(max_moves=0))
    @settings(max_examples=80, deadline=None)
    def test_gain_equals_cut_delta(self, data):
        hg, assignment, k, _ = data
        state = PartitionState(hg, assignment, k)
        before = state.cut_nets
        for cell in range(hg.num_cells):
            for to in range(k):
                if to == state.block_of(cell):
                    continue
                predicted = move_gain(state, cell, to)
                origin = state.move(cell, to)
                assert before - state.cut_nets == predicted
                state.move(cell, origin)
                assert state.cut_nets == before


# ----------------------------------------------------------------------
# GrowingBlock against PartitionState
# ----------------------------------------------------------------------

class TestGrowingBlockProperties:
    @given(hypergraphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_growing_block_matches_partition_pins(self, hg, data):
        subset = data.draw(
            st.sets(
                st.integers(0, hg.num_cells - 1),
                min_size=1,
                max_size=hg.num_cells,
            )
        )
        block = GrowingBlock(hg, subset)
        assignment = [0 if c in subset else 1 for c in range(hg.num_cells)]
        if len(subset) == hg.num_cells:
            oracle = block_pin_counts(hg, assignment, 1)[0]
        else:
            oracle = block_pin_counts(hg, assignment, 2)[0]
        assert block.pins == oracle
        assert block.size == sum(hg.cell_size(c) for c in subset)

    @given(hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_remove_roundtrip(self, hg, data):
        start = data.draw(
            st.sets(st.integers(0, hg.num_cells - 1), max_size=hg.num_cells)
        )
        cell = data.draw(st.integers(0, hg.num_cells - 1))
        block = GrowingBlock(hg, start)
        before = (set(block.cells), block.size, block.pins)
        if cell in block:
            block.remove(cell)
            block.add(cell)
        else:
            block.add(cell)
            block.remove(cell)
        assert (set(block.cells), block.size, block.pins) == before
        block.check_consistency()

    @given(hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_preview_is_honest(self, hg, data):
        subset = data.draw(
            st.sets(st.integers(0, hg.num_cells - 1), max_size=hg.num_cells - 1)
        )
        block = GrowingBlock(hg, subset)
        outside = sorted(set(range(hg.num_cells)) - set(subset))
        if not outside:
            return
        cell = outside[0]
        preview = block.preview_add(cell)
        block.add(cell)
        assert (block.size, block.pins) == preview


# ----------------------------------------------------------------------
# Serialization round-trip
# ----------------------------------------------------------------------

class TestIoProperties:
    @given(hypergraphs())
    @settings(max_examples=80, deadline=None)
    def test_hgr_roundtrip(self, hg):
        assert loads_hgr(dumps_hgr(hg)) == hg


# ----------------------------------------------------------------------
# Gain buckets behave like a max-priority multiset
# ----------------------------------------------------------------------

class TestBucketProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(-5, 5)),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_pop_order_is_sorted(self, items):
        buckets = GainBuckets(5, 31)
        inserted = {}
        for cell, gain in items:
            if cell not in inserted:
                buckets.insert(cell, gain)
                inserted[cell] = gain
        popped = []
        while True:
            cell = buckets.pop_max()
            if cell is None:
                break
            popped.append(inserted[cell])
        assert popped == sorted(popped, reverse=True)
        assert len(popped) == len(inserted)
