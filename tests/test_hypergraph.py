"""Unit tests for the core hypergraph type."""

import pickle

import pytest

from repro.circuits import generate_circuit
from repro.core import fpart
from repro.core.device import device_by_name
from repro.hypergraph import Hypergraph


class TestConstruction:
    def test_basic_counts(self, chain4):
        assert chain4.num_cells == 4
        assert chain4.num_nets == 3
        assert chain4.num_terminals == 1
        assert chain4.total_size == 4

    def test_weighted_sizes(self, clique5):
        assert clique5.total_size == 2 + 1 + 1 + 1 + 3
        assert clique5.cell_size(4) == 3

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="non-positive size"):
            Hypergraph([1, 0], [(0, 1)])

    def test_rejects_empty_net(self):
        with pytest.raises(ValueError, match="no interior pins"):
            Hypergraph([1, 1], [()])

    def test_rejects_duplicate_pins(self):
        with pytest.raises(ValueError, match="duplicate pins"):
            Hypergraph([1, 1], [(0, 0)])

    def test_rejects_out_of_range_pin(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph([1, 1], [(0, 2)])

    def test_rejects_bad_terminal_net(self):
        with pytest.raises(ValueError, match="invalid net"):
            Hypergraph([1, 1], [(0, 1)], terminal_nets=[5])

    def test_rejects_name_length_mismatch(self):
        with pytest.raises(ValueError, match="cell_names"):
            Hypergraph([1, 1], [(0, 1)], cell_names=["a"])
        with pytest.raises(ValueError, match="net_names"):
            Hypergraph([1, 1], [(0, 1)], net_names=["a", "b"])

    def test_single_pin_net_allowed(self):
        hg = Hypergraph([1], [(0,)])
        assert hg.net_degree(0) == 1


class TestAccessors:
    def test_incidence(self, chain4):
        assert chain4.nets_of(0) == (0,)
        assert chain4.nets_of(1) == (0, 1)
        assert chain4.pins_of(1) == (1, 2)

    def test_terminal_counts(self, chain4):
        assert chain4.net_terminal_count(0) == 1
        assert chain4.net_terminal_count(1) == 0
        assert chain4.is_external_net(0)
        assert not chain4.is_external_net(2)

    def test_multiple_pads_per_net(self, clique5):
        assert clique5.net_terminal_count(1) == 2
        assert clique5.external_pin_map() == {1: 2}

    def test_labels_default_and_named(self):
        hg = Hypergraph(
            [1, 1], [(0, 1)], cell_names=["u1", "u2"], net_names=["n"]
        )
        assert hg.cell_label(0) == "u1"
        assert hg.net_label(0) == "n"
        bare = Hypergraph([1, 1], [(0, 1)])
        assert bare.cell_label(1) == "x1"
        assert bare.net_label(0) == "e0"

    def test_cell_nets_inverts_nets_in_ascending_order(self):
        # The partition core's tie-breaks depend on walking each cell's
        # nets in ascending net order.
        hg = generate_circuit("cell-nets", num_cells=300, num_ios=30, seed=5)
        assert len(hg.cell_nets) == hg.num_cells
        for c in range(hg.num_cells):
            expected = tuple(
                e for e, pins in enumerate(hg.nets) if c in pins
            )
            assert hg.cell_nets[c] == expected
            assert hg.nets_of(c) == expected

    def test_repr_mentions_counts(self, chain4):
        text = repr(chain4)
        assert "4 cells" in text and "3 nets" in text


class TestTraversal:
    def test_neighbors(self, chain4):
        assert chain4.neighbors(1) == (0, 2)
        assert chain4.neighbors(0) == (1,)

    def test_neighbors_immutable_and_cached(self, chain4):
        first = chain4.neighbors(1)
        assert isinstance(first, tuple)
        assert chain4.neighbors(1) is first  # cached, shared safely

    def test_neighbors_dedupe(self, two_clusters):
        # Cell 0 shares nets with 1, 2, 3 — each reported once.
        assert sorted(two_clusters.neighbors(0)) == [1, 2, 3]

    def test_bfs_distances(self, chain4):
        assert chain4.bfs_distances(0) == [0, 1, 2, 3]

    def test_bfs_unreachable(self):
        hg = Hypergraph([1, 1, 1], [(0, 1)])
        dist = hg.bfs_distances(0)
        assert dist == [0, 1, -1]

    def test_farthest_cell(self, chain4):
        cell, dist = chain4.farthest_cell(0)
        assert (cell, dist) == (3, 3)

    def test_farthest_prefers_disconnected(self):
        hg = Hypergraph([1, 1, 1], [(0, 1)])
        cell, dist = hg.farthest_cell(0)
        assert cell == 2 and dist == -1

    def test_connected_components(self, two_clusters):
        assert two_clusters.connected_components() == [list(range(8))]

    def test_components_split(self):
        hg = Hypergraph([1] * 5, [(0, 1), (2, 3)])
        assert hg.connected_components() == [[0, 1], [2, 3], [4]]


class TestEquality:
    def test_equal_and_hash(self, chain4):
        clone = Hypergraph([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3)], [0])
        assert clone == chain4
        assert hash(clone) == hash(chain4)

    def test_not_equal_different_pads(self, chain4):
        other = Hypergraph([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3)], [1])
        assert other != chain4

    def test_from_edges(self):
        hg = Hypergraph.from_edges(3, [(0, 1), (1, 2)])
        assert hg.num_nets == 2
        assert hg.total_size == 3


class TestPickle:
    """Restart workers receive the hypergraph pickled."""

    def test_round_trip_keeps_incidence(self):
        hg = generate_circuit("pickle-demo", num_cells=200, num_ios=24, seed=3)
        hg.neighbors(0)  # pickle with a partly filled neighbour cache
        copy = pickle.loads(pickle.dumps(hg))
        assert copy == hg
        assert copy.name == hg.name
        assert copy.cell_nets == hg.cell_nets
        for c in range(hg.num_cells):
            assert copy.nets_of(c) == hg.nets_of(c)
        for e in range(hg.num_nets):
            assert copy.pins_of(e) == hg.pins_of(e)

    def test_fpart_on_copy_matches_original(self):
        hg = generate_circuit("pickle-run", num_cells=200, num_ios=24, seed=4)
        device = device_by_name("XC3020")
        copy = pickle.loads(pickle.dumps(hg))
        assert fpart(copy, device).assignment == fpart(hg, device).assignment
