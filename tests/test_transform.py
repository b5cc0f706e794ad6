"""Netlist transformation utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fpart
from repro.hypergraph import (
    Hypergraph,
    compute_stats,
    merge_cells,
    relabel,
    remove_dangling,
    split_into_devices,
)


class TestSplitIntoDevices:
    def test_two_clusters(self, two_clusters, tiny_device):
        result = fpart(two_clusters, tiny_device)
        pieces = split_into_devices(
            two_clusters, result.assignment, result.num_devices
        )
        assert len(pieces) == 2
        assert {len(p.sub.cell_sizes) for p in pieces} == {4}
        # The bridge net gave each side one extra pad.
        for piece in pieces:
            assert piece.sub.num_terminals >= 1

    def test_sizes_conserved(self, medium_circuit, small_device):
        result = fpart(medium_circuit, small_device)
        pieces = split_into_devices(medium_circuit, result.assignment)
        assert (
            sum(p.sub.total_size for p in pieces)
            == medium_circuit.total_size
        )

    def test_piece_pins_match_block_pins(self, medium_circuit, small_device):
        """Each piece's pad count equals the block's pin count — the
        subcircuit-extraction and PartitionState pin models agree."""
        from repro.partition import block_pin_counts

        result = fpart(medium_circuit, small_device)
        pins = block_pin_counts(
            medium_circuit, result.assignment, result.num_devices
        )
        pieces = split_into_devices(
            medium_circuit, result.assignment, result.num_devices
        )
        piece_index = 0
        for block in range(result.num_devices):
            piece = pieces[piece_index]
            piece_index += 1
            assert piece.sub.num_terminals == pins[block], block

    def test_empty_blocks_skipped(self, chain4):
        pieces = split_into_devices(chain4, [0, 0, 2, 2], num_blocks=3)
        assert len(pieces) == 2

    def test_length_mismatch(self, chain4):
        with pytest.raises(ValueError, match="mismatch"):
            split_into_devices(chain4, [0, 0])


class TestMergeCells:
    def test_basic_merge(self, two_clusters):
        merged, cell_map = merge_cells(two_clusters, [[0, 1, 2, 3]])
        assert merged.num_cells == 5
        cluster = cell_map[0]
        assert all(cell_map[c] == cluster for c in range(4))
        # Total size conserved.
        assert merged.total_size == two_clusters.total_size
        # Cluster-internal padless nets vanish; the bridge survives.
        assert merged.num_nets < two_clusters.num_nets

    def test_multiple_groups(self, two_clusters):
        merged, cell_map = merge_cells(
            two_clusters, [[0, 1], [4, 5], [6, 7]]
        )
        assert merged.num_cells == 5
        assert cell_map[4] == cell_map[5]
        assert cell_map[4] != cell_map[6]

    def test_overlap_rejected(self, chain4):
        with pytest.raises(ValueError, match="two groups"):
            merge_cells(chain4, [[0, 1], [1, 2]])

    def test_out_of_range_rejected(self, chain4):
        with pytest.raises(ValueError, match="out of range"):
            merge_cells(chain4, [[0, 9]])

    def test_drivers_follow(self):
        hg = Hypergraph(
            [1, 1, 1], [(0, 1), (1, 2)], net_drivers=[0, 1]
        )
        merged, cell_map = merge_cells(hg, [[0, 1]])
        # Net (1,2) survives with its driver mapped into the cluster.
        assert merged.num_nets == 1
        assert merged.net_driver(0) == cell_map[1]

    def test_pads_keep_nets_alive(self, chain4):
        # Net 0 has a pad: merging its two pins keeps the net.
        merged, _ = merge_cells(chain4, [[0, 1]])
        padded = [
            e
            for e in range(merged.num_nets)
            if merged.net_terminal_count(e)
        ]
        assert len(padded) == 1


class TestRemoveDangling:
    def test_drops_single_pin_padless(self):
        hg = Hypergraph([1, 1], [(0,), (0, 1), (1,)], terminal_nets=[2])
        cleaned, net_map = remove_dangling(hg)
        assert cleaned.num_nets == 2
        assert net_map == [-1, 0, 1]
        assert cleaned.num_terminals == 1

    def test_idempotent(self, two_clusters):
        cleaned, net_map = remove_dangling(two_clusters)
        assert cleaned == two_clusters
        assert all(m >= 0 for m in net_map)


class TestRelabel:
    def test_labels_replaced(self, chain4):
        renamed = relabel(
            chain4,
            cell_names=["a", "b", "c", "d"],
            name="renamed",
        )
        assert renamed.cell_label(2) == "c"
        assert renamed.name == "renamed"
        assert renamed == chain4  # structure untouched

    def test_defaults_keep_old(self, chain4):
        clone = relabel(chain4)
        assert clone.name == chain4.name
        assert clone == chain4


@st.composite
def driven_hypergraphs(draw, max_cells=10, max_nets=14):
    """Random hypergraphs where every net has a known driver."""
    num_cells = draw(st.integers(2, max_cells))
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=num_cells, max_size=num_cells)
    )
    num_nets = draw(st.integers(1, max_nets))
    nets = []
    drivers = []
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
        drivers.append(pins[draw(st.integers(0, degree - 1))])
    num_pads = draw(st.integers(0, 3))
    terminal_nets = draw(
        st.lists(
            st.integers(0, num_nets - 1),
            min_size=num_pads,
            max_size=num_pads,
        )
    )
    return Hypergraph(sizes, nets, terminal_nets, net_drivers=drivers)


class TestTransformProperties:
    @given(driven_hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_partitions_cells(self, hg, data):
        k = data.draw(st.integers(1, 3))
        assignment = data.draw(
            st.lists(
                st.integers(0, k - 1),
                min_size=hg.num_cells,
                max_size=hg.num_cells,
            )
        )
        pieces = split_into_devices(hg, assignment, k)
        seen = sorted(
            parent
            for piece in pieces
            for parent in piece.cell_to_parent
        )
        assert seen == list(range(hg.num_cells))

    @given(driven_hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_conserves_size(self, hg, data):
        group = data.draw(
            st.sets(
                st.integers(0, hg.num_cells - 1),
                min_size=1,
                max_size=hg.num_cells,
            )
        )
        merged, cell_map = merge_cells(hg, [sorted(group)])
        assert merged.total_size == hg.total_size
        assert len(cell_map) == hg.num_cells
        assert merged.num_cells == hg.num_cells - len(group) + 1
