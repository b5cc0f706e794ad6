"""Synthetic circuit generator and MCNC Table 1 stand-ins."""

import os
import subprocess
import sys

import pytest

from repro.circuits import (
    COMBINATIONAL_CIRCUITS,
    LARGE_CIRCUITS,
    MCNC_NAMES,
    MCNC_TABLE1,
    SMALL_CIRCUITS,
    GeneratorParams,
    generate_circuit,
    mcnc_circuit,
    seed_from_name,
    table1_rows,
)
from repro.hypergraph import compute_stats


def test_cli_start_does_not_import_numpy():
    # Only generate_circuit needs numpy; loading the CLI and the
    # partitioner must not pay for it.
    probe = (
        "import sys, repro.cli\n"
        "from repro.core.fpart import FpartPartitioner\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestGenerator:
    def test_requested_counts(self):
        hg = generate_circuit("g", num_cells=150, num_ios=24, seed=5)
        assert hg.num_cells == 150
        assert hg.num_terminals == 24
        assert hg.total_size == 150

    def test_deterministic_by_name(self):
        assert generate_circuit("same", 80, 10) == generate_circuit(
            "same", 80, 10
        )

    def test_different_names_differ(self):
        assert generate_circuit("a", 80, 10) != generate_circuit("b", 80, 10)

    def test_explicit_seed_overrides_name(self):
        a = generate_circuit("x", 80, 10, seed=1)
        b = generate_circuit("y", 80, 10, seed=1)
        assert a.nets == b.nets

    def test_logic_like_profile(self):
        hg = generate_circuit("profile", num_cells=400, num_ios=50, seed=2)
        stats = compute_stats(hg)
        assert 2.0 <= stats.avg_net_degree <= 5.0
        assert stats.net_degree_histogram.get(2, 0) > stats.num_nets * 0.3
        assert stats.max_net_degree <= 33  # wide nets are capped

    def test_one_driver_per_cell_plus_inputs(self):
        hg = generate_circuit("drivers", num_cells=100, num_ios=20, seed=3)
        # nets = cells + input pads (half of 20).
        assert hg.num_nets == 100 + 10

    def test_weighted_cells(self):
        sizes = [2] * 50
        hg = generate_circuit("w", 50, 6, seed=1, cell_sizes=sizes)
        assert hg.total_size == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="two cells"):
            generate_circuit("v", 1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            generate_circuit("v", 10, -1)
        with pytest.raises(ValueError, match="mismatch"):
            generate_circuit("v", 10, 1, cell_sizes=[1])

    def test_seed_from_name_stable(self):
        assert seed_from_name("abc") == seed_from_name("abc")
        assert seed_from_name("abc") != seed_from_name("abd")
        assert seed_from_name("abc", extra=1) != seed_from_name("abc")

    def test_mostly_connected(self):
        hg = generate_circuit("conn", num_cells=300, num_ios=40, seed=4)
        components = hg.connected_components()
        assert len(components[0]) > 0.9 * hg.num_cells


class TestMcnc:
    def test_table1_complete(self):
        assert len(MCNC_TABLE1) == 10
        assert MCNC_NAMES[0] == "c3540"
        assert set(SMALL_CIRCUITS) | set(LARGE_CIRCUITS) == set(MCNC_NAMES)
        assert set(COMBINATIONAL_CIRCUITS) == {"c3540", "c5315", "c7552", "c6288"}

    @pytest.mark.parametrize("row", MCNC_TABLE1, ids=lambda r: r.name)
    def test_standins_match_table1(self, row):
        for family in ("XC2000", "XC3000"):
            hg = mcnc_circuit(row.name, family)
            assert hg.num_cells == row.clbs(family)
            assert hg.num_terminals == row.iobs
            assert hg.total_size == row.clbs(family)

    def test_family_aliases(self):
        row = MCNC_TABLE1[0]
        assert row.clbs("XC3020") == row.clbs_xc3000
        assert row.clbs("XC2064") == row.clbs_xc2000
        with pytest.raises(KeyError):
            row.clbs("XC4000")

    def test_families_differ(self):
        assert mcnc_circuit("c3540", "XC2000") != mcnc_circuit(
            "c3540", "XC3000"
        )

    def test_deterministic(self):
        assert mcnc_circuit("s5378") == mcnc_circuit("s5378")

    def test_unknown_circuit(self):
        with pytest.raises(KeyError, match="unknown MCNC"):
            mcnc_circuit("c17")

    def test_table1_rows_copy(self):
        rows = table1_rows()
        rows.clear()
        assert len(table1_rows()) == 10

    def test_custom_params(self):
        loose = GeneratorParams(escalation_p=0.2)
        a = mcnc_circuit("c3540", "XC3000", params=loose)
        b = mcnc_circuit("c3540", "XC3000")
        assert a != b  # params change the structure
        assert a.num_cells == b.num_cells  # but not the Table 1 contract
