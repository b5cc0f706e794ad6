"""Netlist linter and the generic parameter sweep."""

import pytest

from repro.analysis import render_sweep, sweep_config
from repro.circuits import generate_circuit
from repro.core import Device
from repro.hypergraph import Hypergraph, lint_netlist, render_lint


class TestLint:
    def test_clean_netlist(self):
        hg = generate_circuit("clean", num_cells=60, num_ios=8, seed=1)
        findings = lint_netlist(hg)
        codes = {f.code for f in findings}
        # A generated circuit is connected (usually) and has no
        # dangling cells / trivial nets.
        assert "dangling-cells" not in codes
        assert "trivial-nets" not in codes

    def test_dangling_cell(self):
        hg = Hypergraph([1, 1, 1], [(0, 1)])
        codes = {f.code for f in lint_netlist(hg)}
        assert "dangling-cells" in codes
        assert "disconnected" in codes

    def test_trivial_net(self):
        hg = Hypergraph([1, 1], [(0,), (0, 1)])
        codes = {f.code for f in lint_netlist(hg)}
        assert "trivial-nets" in codes

    def test_duplicate_nets(self):
        hg = Hypergraph([1, 1], [(0, 1), (0, 1)])
        codes = {f.code for f in lint_netlist(hg)}
        assert "duplicate-nets" in codes

    def test_wide_net(self):
        hg = Hypergraph([1] * 70, [tuple(range(70))])
        codes = {f.code for f in lint_netlist(hg)}
        assert "wide-nets" in codes

    def test_giant_cell(self):
        hg = Hypergraph([90, 1, 1], [(0, 1), (1, 2)])
        codes = {f.code for f in lint_netlist(hg)}
        assert "giant-cell" in codes

    def test_warnings_sorted_first(self):
        hg = Hypergraph([90, 1, 1], [(0, 1)])  # giant + dangling + disc.
        findings = lint_netlist(hg)
        severities = [f.severity for f in findings]
        assert severities == sorted(
            severities, key=lambda s: s != "warning"
        )

    def test_render(self):
        hg = Hypergraph([1, 1, 1], [(0, 1)])
        text = render_lint(lint_netlist(hg))
        assert "finding" in text
        assert "[warning]" in text

    def test_render_clean(self):
        # Fully connected, driven, single-component, balanced netlist.
        nets = [(i, (i + 1) % 10) for i in range(10)]
        hg = Hypergraph(
            [1] * 10,
            nets,
            terminal_nets=[0],
            net_drivers=[pins[0] for pins in nets],
        )
        assert render_lint(lint_netlist(hg)) == "lint: clean"

    def test_cli_lint_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.hgr"
        main(["generate", "lint-demo", "--cells", "40", "--ios", "6",
              "-o", str(path)])
        main(["info", str(path), "--lint"])
        assert "lint:" in capsys.readouterr().out


class TestSweep:
    DEV = Device("S", s_ds=50, t_max=40, delta=1.0)

    @pytest.fixture(scope="class")
    def circuits(self):
        return [
            generate_circuit("sweep-a", num_cells=120, num_ios=16, seed=1),
            generate_circuit("sweep-b", num_cells=150, num_ios=20, seed=2),
        ]

    def test_sweep_shape(self, circuits):
        cells = sweep_config(
            circuits, self.DEV, "max_passes", [1, 4]
        )
        assert len(cells) == 4
        assert all(c.feasible for c in cells)
        assert {c.value for c in cells} == {1, 4}

    def test_unknown_field(self, circuits):
        with pytest.raises(ValueError, match="unknown config field"):
            sweep_config(circuits, self.DEV, "frobnicate", [1])

    def test_invalid_value_propagates(self, circuits):
        with pytest.raises(ValueError):
            sweep_config(circuits[:1], self.DEV, "max_passes", [0])

    def test_render(self, circuits):
        cells = sweep_config(
            circuits, self.DEV, "use_level2_gains", [True, False]
        )
        text = render_sweep(cells, "use_level2_gains")
        assert "use_level2_gains=True" in text
        assert "sweep-a" in text
        assert "Total" in text

    def test_render_with_time(self, circuits):
        cells = sweep_config(circuits[:1], self.DEV, "max_passes", [2])
        text = render_sweep(cells, "max_passes", show_time=True)
        assert "s)" in text
