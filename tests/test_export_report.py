"""The markdown report generator and the table command's run records."""

import pytest

from repro.analysis import generate_report
from repro.circuits import generate_circuit
from repro.core import Device
from repro.obs.runstore import RunStore


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        hg = generate_circuit("report", num_cells=150, num_ios=20, seed=3)
        device = Device("RPT", s_ds=50, t_max=40, delta=1.0)
        return generate_report(hg, device)

    def test_sections_present(self, report):
        assert report.startswith("# Partitioning report")
        for heading in (
            "## Per-device utilization",
            "## Quality metrics",
            "## Convergence",
            "## Baseline comparison",
        ):
            assert heading in report

    def test_mentions_devices_and_bound(self, report):
        assert "devices**" in report
        assert "M=" in report

    def test_baselines_listed(self, report):
        assert "k-way.x*" in report
        assert "BFS packing" in report

    def test_no_baselines_flag(self):
        hg = generate_circuit("report2", num_cells=80, num_ios=10, seed=4)
        device = Device("RPT", s_ds=40, t_max=30, delta=1.0)
        text = generate_report(hg, device, include_baselines=False)
        assert "## Baseline comparison" not in text


class TestCliIntegration:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        netlist = tmp_path / "c.hgr"
        main(["generate", "cli-report", "--cells", "80", "--ios", "10",
              "-o", str(netlist)])
        out_file = tmp_path / "report.md"
        assert main(
            ["report", str(netlist), "--device", "XC3020",
             "--no-baselines", "-o", str(out_file)]
        ) == 0
        assert out_file.read_text().startswith("# Partitioning report")

    def test_table_export(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = tmp_path / "runs"
        assert main(
            ["table", "XC3042", "--circuits", "c3540",
             "--methods", "FPART", "BFS-pack", "--runs-dir", str(runs_dir)]
        ) == 0
        table = capsys.readouterr().out
        store = RunStore(runs_dir)
        records = store.records()
        assert [(r.circuit, r.device, r.method) for r in records] == [
            ("c3540", "XC3042", "FPART"),
            ("c3540", "XC3042", "BFS-pack"),
        ]
        fpart, pack = records
        assert fpart.status == "feasible" and pack.status == "ok"
        assert fpart.cost is not None and pack.cost is None
        # The stored counts are the ones the printed table shows.
        row = next(line for line in table.splitlines() if "c3540" in line)
        assert row.split()[-3:-1] == [
            str(fpart.num_devices), str(pack.num_devices)
        ]
        assert store.metrics_of(fpart.run_id)["counters"]["fpart.runs"] == 1
