"""Serialization round-trips and format edge cases."""

import io

import pytest

from repro.circuits import generate_circuit
from repro.hypergraph import (
    Hypergraph,
    NetlistFormatError,
    dumps_hgr,
    loads_hgr,
    read_hgr,
    read_netlist,
    write_hgr,
    write_netlist,
)


class TestHgr:
    def test_roundtrip_simple(self, chain4):
        assert loads_hgr(dumps_hgr(chain4)) == chain4

    def test_roundtrip_preserves_name_and_pads(self, clique5):
        back = loads_hgr(dumps_hgr(clique5))
        assert back == clique5
        assert back.name == "clique5"
        assert back.net_terminal_count(1) == 2

    def test_roundtrip_generated(self):
        hg = generate_circuit("io-rt", num_cells=60, num_ios=10, seed=1)
        assert loads_hgr(dumps_hgr(hg)) == hg

    def test_file_roundtrip(self, tmp_path, two_clusters):
        path = tmp_path / "c.hgr"
        write_hgr(two_clusters, path)
        assert read_hgr(path) == two_clusters

    def test_reads_unweighted_fmt0(self):
        text = "2 3\n1 2\n2 3\n"
        hg = loads_hgr(text)
        assert hg.num_cells == 3
        assert hg.cell_sizes == (1, 1, 1)
        assert hg.pins_of(1) == (1, 2)

    def test_reads_net_weights_fmt1(self):
        # Net weights are parsed and dropped.
        text = "2 3 1\n5 1 2\n7 2 3\n"
        hg = loads_hgr(text)
        assert hg.pins_of(0) == (0, 1)
        assert hg.pins_of(1) == (1, 2)

    def test_skips_plain_comments(self):
        text = "% a comment\n1 2 10\n1 2\n3\n4\n"
        hg = loads_hgr(text)
        assert hg.cell_sizes == (3, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            loads_hgr("")

    def test_rejects_truncated_body(self):
        with pytest.raises(ValueError, match="expected"):
            loads_hgr("2 2 0\n1 2\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            loads_hgr("7\n")

    @pytest.mark.parametrize("fmt", [2, 7, 100, -1])
    def test_rejects_unknown_fmt_code(self, fmt):
        with pytest.raises(NetlistFormatError, match="fmt"):
            loads_hgr(f"1 2 {fmt}\n1 2\n")

    @pytest.mark.parametrize("header", ["-1 2", "0 -1", "-1 -1 10"])
    def test_rejects_negative_counts(self, header):
        with pytest.raises(NetlistFormatError, match="header"):
            loads_hgr(header + "\n")

    def test_reads_net_and_cell_weights_fmt11(self):
        hg = loads_hgr("1 2 11\n5 1 2\n3\n4\n")
        assert hg.pins_of(0) == (0, 1)
        assert hg.cell_sizes == (3, 4)

    def test_cli_info_rejects_unknown_fmt_with_65(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "fmt.hgr"
        bad.write_text("2 3 7\n1 2\n2 3\n", encoding="ascii")
        assert main(["info", str(bad)]) == 65
        assert "fmt" in capsys.readouterr().err


class TestNetlist:
    def test_roundtrip(self, tmp_path, clique5):
        path = tmp_path / "c.nets"
        write_netlist(clique5, path)
        back = read_netlist(path)
        assert back == clique5
        assert back.name == "clique5"

    def test_roundtrip_stream(self, two_clusters):
        buffer = io.StringIO()
        write_netlist(two_clusters, buffer)
        buffer.seek(0)
        assert read_netlist(buffer) == two_clusters

    def test_pad_marker(self):
        text = "cell a 1\ncell b 2\nnet n a b @3\n"
        hg = read_netlist(io.StringIO(text))
        assert hg.net_terminal_count(0) == 3
        assert hg.cell_size(1) == 2

    def test_rejects_unknown_record(self):
        with pytest.raises(ValueError, match="unknown record"):
            read_netlist(io.StringIO("frob x\n"))

    def test_rejects_malformed_cell(self):
        with pytest.raises(ValueError, match="bad cell line"):
            read_netlist(io.StringIO("cell a\n"))

    def test_rejects_malformed_net(self):
        with pytest.raises(ValueError, match="bad net line"):
            read_netlist(io.StringIO("cell a 1\nnet n\n"))
