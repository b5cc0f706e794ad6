"""Net-driver annotations across the substrate."""

import pytest

from repro.circuits import generate_circuit
from repro.hypergraph import (
    Hypergraph,
    dumps_hgr,
    extract_subcircuit,
    loads_blif,
    loads_hgr,
)


class TestHypergraphDrivers:
    def test_default_no_drivers(self, chain4):
        assert not chain4.has_drivers()
        assert chain4.net_driver(0) is None
        assert all(
            chain4.net_driver(e) is None for e in range(chain4.num_nets)
        )

    def test_explicit_drivers(self):
        hg = Hypergraph(
            [1, 1, 1], [(0, 1), (1, 2)], net_drivers=[0, 1]
        )
        assert hg.has_drivers()
        assert hg.net_driver(0) == 0
        assert hg.net_driver(1) == 1
        assert hg.net_drivers == (0, 1)

    def test_partial_drivers(self):
        hg = Hypergraph(
            [1, 1], [(0, 1), (0, 1)], net_drivers=[0, None]
        )
        assert hg.has_drivers()
        assert hg.net_driver(1) is None

    def test_driver_must_be_a_pin(self):
        with pytest.raises(ValueError, match="not one of its pins"):
            Hypergraph([1, 1], [(0, 1)], net_drivers=[2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Hypergraph([1, 1], [(0, 1)], net_drivers=[0, 0])

    def test_equality_ignores_drivers(self):
        a = Hypergraph([1, 1], [(0, 1)], net_drivers=[0])
        b = Hypergraph([1, 1], [(0, 1)])
        assert a == b


class TestDriversEverywhere:
    def test_generator_annotates(self):
        hg = generate_circuit("drv", num_cells=50, num_ios=10, seed=1)
        assert hg.has_drivers()
        # Each of the first 50 nets is driven by its namesake cell.
        for e in range(50):
            assert hg.net_driver(e) == e
        # Input-pad nets are externally driven.
        for e in range(50, hg.num_nets):
            assert hg.net_driver(e) is None

    def test_hgr_roundtrip_preserves_drivers(self):
        hg = generate_circuit("drv-io", num_cells=30, num_ios=6, seed=2)
        back = loads_hgr(dumps_hgr(hg))
        assert back.net_drivers == hg.net_drivers

    def test_blif_annotates(self):
        hg = loads_blif(
            ".model m\n.inputs a\n.outputs y\n"
            ".names a t\n1 1\n.names t y\n1 1\n.end\n"
        )
        by_name = {hg.net_label(e): e for e in range(hg.num_nets)}
        assert hg.net_driver(by_name["t"]) == 0   # n_t drives t
        assert hg.net_driver(by_name["a"]) is None  # primary input

    def test_subcircuit_keeps_inside_drivers(self):
        hg = Hypergraph(
            [1, 1, 1], [(0, 1), (1, 2)], net_drivers=[0, 1]
        )
        sub = extract_subcircuit(hg, [1, 2]).sub
        by_deg = {
            sub.net_degree(e): e for e in range(sub.num_nets)
        }
        # Net (1,2) stays with its driver (cell 1 -> sub index 0).
        assert sub.net_driver(by_deg[2]) == 0
        # Net (0,1) lost its driver (cell 0 left).
        assert sub.net_driver(by_deg[1]) is None
