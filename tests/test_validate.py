"""Partition validation and assignment files."""

import pytest

from repro.core import Device, fpart
from repro.partition import (
    read_assignment_file,
    validate_assignment,
)

DEV = Device("V", s_ds=4, t_max=6, delta=1.0)


class TestValidateAssignment:
    def test_feasible(self, two_clusters):
        report = validate_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1], DEV
        )
        assert report.feasible
        assert report.num_blocks == 2
        assert report.cut_nets == 1
        assert report.block_sizes == (4, 4)
        assert "FEASIBLE" in report.summary()

    def test_size_violation_reported(self, two_clusters):
        report = validate_assignment(two_clusters, [0] * 8, DEV)
        assert not report.feasible
        assert any("S_MAX" in v for v in report.violations)
        assert "INFEASIBLE" in report.summary()

    def test_pin_violation_reported(self, two_clusters):
        tight = Device("P", s_ds=10, t_max=1, delta=1.0)
        report = validate_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1], tight
        )
        assert not report.feasible
        assert any("T_MAX" in v for v in report.violations)

    def test_empty_block_reported(self, two_clusters):
        report = validate_assignment(
            two_clusters, [0, 0, 0, 0, 2, 2, 2, 2], DEV, num_blocks=3
        )
        assert not report.feasible
        assert any("empty" in v for v in report.violations)

    def test_malformed_inputs(self, two_clusters):
        with pytest.raises(ValueError, match="covers"):
            validate_assignment(two_clusters, [0, 0], DEV)
        with pytest.raises(ValueError, match="negative"):
            validate_assignment(two_clusters, [0] * 7 + [-1], DEV)

    def test_block_id_beyond_num_blocks(self, two_clusters):
        # A typed error, not an IndexError from the per-block tallies.
        with pytest.raises(ValueError, match="cell 7 has block 2"):
            validate_assignment(two_clusters, [0] * 7 + [2], DEV, num_blocks=2)
        report = validate_assignment(two_clusters, [0] * 7 + [2], DEV)
        assert report.num_blocks == 3

    def test_fpart_result_always_validates(self, medium_circuit, small_device):
        result = fpart(medium_circuit, small_device)
        report = validate_assignment(
            medium_circuit,
            result.assignment,
            small_device,
            result.num_devices,
        )
        assert report.feasible
        assert report.num_blocks == result.num_devices


class TestAssignmentFiles:
    def _write(self, tmp_path, lines):
        path = tmp_path / "a.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_roundtrip(self, tmp_path, two_clusters):
        lines = [
            f"{two_clusters.cell_label(c)} {c // 4}" for c in range(8)
        ]
        path = self._write(tmp_path, lines)
        assignment = read_assignment_file(path, two_clusters)
        assert assignment == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_comments_and_blanks(self, tmp_path, chain4):
        lines = ["# comment", ""] + [
            f"{chain4.cell_label(c)} 0" for c in range(4)
        ]
        path = self._write(tmp_path, lines)
        assert read_assignment_file(path, chain4) == [0, 0, 0, 0]

    def test_unknown_label(self, tmp_path, chain4):
        path = self._write(tmp_path, ["ghost 0"])
        with pytest.raises(ValueError, match="unknown cell"):
            read_assignment_file(path, chain4)

    def test_missing_cell(self, tmp_path, chain4):
        path = self._write(tmp_path, ["x0 0"])
        with pytest.raises(ValueError, match="unassigned"):
            read_assignment_file(path, chain4)

    def test_duplicate_cell(self, tmp_path, chain4):
        path = self._write(
            tmp_path, [f"x{c} 0" for c in range(4)] + ["x0 1"]
        )
        with pytest.raises(ValueError, match="reassigned"):
            read_assignment_file(path, chain4)

    def test_malformed_line(self, tmp_path, chain4):
        path = self._write(tmp_path, ["x0"])
        with pytest.raises(ValueError, match="expected"):
            read_assignment_file(path, chain4)


class TestCliVerify:
    def test_verify_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        netlist = tmp_path / "c.hgr"
        assignment = tmp_path / "a.txt"
        main(["generate", "v-demo", "--cells", "60", "--ios", "8",
              "-o", str(netlist)])
        main(["partition", str(netlist), "--device", "XC3020",
              "--output", str(assignment)])
        code = main(["verify", str(netlist), str(assignment),
                     "--device", "XC3020"])
        assert code == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_verify_detects_violation(self, tmp_path, capsys):
        from repro.cli import main

        netlist = tmp_path / "c.hgr"
        assignment = tmp_path / "a.txt"
        main(["generate", "v-bad", "--cells", "60", "--ios", "8",
              "-o", str(netlist)])
        with open(assignment, "w") as stream:
            for c in range(60):
                stream.write(f"x{c} 0\n")  # everything in one block
        code = main(["verify", str(netlist), str(assignment),
                     "--device", "XC3020"])
        assert code == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_verify_blif_input(self, tmp_path, capsys):
        from repro.cli import main
        from repro.hypergraph import loads_blif, write_blif

        hg = loads_blif(
            ".model m\n.inputs a\n.outputs y\n"
            ".gate g A=a O=t\n.gate g A=t O=y\n.end\n"
        )
        netlist = tmp_path / "m.blif"
        write_blif(hg, netlist)
        assignment = tmp_path / "a.txt"
        main(["partition", str(netlist), "--device", "XC3020",
              "--output", str(assignment)])
        assert main(
            ["verify", str(netlist), str(assignment), "--device", "XC3020"]
        ) == 0
