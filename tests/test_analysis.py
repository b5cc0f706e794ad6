"""Published data integrity, table rendering, experiment runner, figures."""

import pytest

from repro.analysis import (
    TABLE2_XC3020,
    TABLE3_XC3042,
    TABLE4_XC3090,
    TABLE5_XC2064,
    TABLE6_CPU_SECONDS,
    figure1_schedule,
    figure2_solutions,
    figure3_regions,
    published_table_for_device,
    render_cpu_table,
    render_device_comparison,
    render_figure1,
    render_figure2,
    render_figure3,
    render_table,
    run_device_experiment,
    run_method,
)
from repro.core import DEFAULT_CONFIG, XC3042, Feasibility, FpartPartitioner
from repro.circuits import mcnc_circuit


class TestPublishedData:
    def test_totals_match_paper_table2(self):
        # The paper's printed totals: 210 210 198 188 183 180 172.
        expected = {
            "k-way.x": 210, "r+p.0": 210, "PROP(p,o,p)": 198,
            "PROP(p,r,o,p)": 188, "FBB-MW": 183, "FPART": 180, "M": 172,
        }
        for column, total in expected.items():
            assert TABLE2_XC3020.column_total(column) == total

    def test_totals_match_paper_table3(self):
        expected = {
            "k-way.x": 94, "r+p.0": 93, "PROP(p,o,p)": 87,
            "PROP(p,r,o,p)": 82, "FBB-MW": 84, "FPART": 84, "M": 81,
        }
        for column, total in expected.items():
            assert TABLE3_XC3042.column_total(column) == total

    def test_totals_match_paper_table4(self):
        # Full-column totals only exist for complete columns.
        assert TABLE4_XC3090.column_total("k-way.x") == 14 + 34
        assert TABLE4_XC3090.column_total("r+p.0") == 14 + 26
        assert TABLE4_XC3090.column_total("FPART") == 14 + 27
        assert TABLE4_XC3090.column_total("M") == 14 + 26
        assert TABLE4_XC3090.column_total("SC") is None  # has '-' cells

    def test_totals_match_paper_table5(self):
        expected = {
            "k-way.x": 42, "SC": 43, "WCDP": 44,
            "FBB-MW": 40, "FPART": 40, "M": 39,
        }
        for column, total in expected.items():
            assert TABLE5_XC2064.column_total(column) == total

    def test_fpart_beats_or_ties_fbb_on_biggest(self):
        # The paper's claim: FPART outperforms FBB-MW on s38417/s38584.
        for circuit in ("s38417", "s38584"):
            assert TABLE2_XC3020.value(circuit, "FPART") < TABLE2_XC3020.value(
                circuit, "FBB-MW"
            )

    def test_lookup_by_device(self):
        assert published_table_for_device("xc3020") is TABLE2_XC3020
        with pytest.raises(KeyError):
            published_table_for_device("XC4010")

    def test_cpu_table_shape(self):
        assert len(TABLE6_CPU_SECONDS) == 10
        assert "XC2064" not in TABLE6_CPU_SECONDS["s5378"]
        assert TABLE6_CPU_SECONDS["s38584"]["XC3020"] == 875.26


class TestRenderTable:
    def test_alignment_and_dashes(self):
        text = render_table(
            ["Circuit", "A", "B"],
            [["c3540", 6, None], ["s9234", 10, 2.5]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Circuit" in lines[1]
        assert "-" in lines[2]
        assert "c3540" in lines[3] and "-" in lines[3]
        assert "2.50" in lines[4]

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["A", "B"], [[1]])


class TestExperimentRunner:
    def test_run_method_record(self):
        record = run_method("FPART", "c3540", "XC3042")
        assert record.feasible
        assert record.num_devices >= record.lower_bound == 3
        assert record.wall_seconds > 0
        # Keyed by the sweep's circuit name, not the mapped netlist's.
        assert (record.circuit, record.device) == ("c3540", "XC3042")

    def test_comparison_render_includes_published(self):
        records = run_device_experiment(
            "XC3042", circuits=["c3540"], methods=["FPART"]
        )
        text = render_device_comparison("XC3042", records, ["FPART"])
        assert "FPART (paper)" in text
        assert "FPART (ours)" in text
        assert "Total" in text
        assert "c3540" in text

    def test_cpu_table_renders(self):
        records = run_device_experiment(
            "XC3042", circuits=["c3540"], methods=["FPART"]
        )
        text = render_cpu_table(records)
        assert "c3540" in text
        assert "paper" in text

    def test_collect_metrics_snapshots_and_aggregates(self, tmp_path):
        from repro.obs import RunStore, merge_snapshots

        records = run_device_experiment(
            "XC3042",
            circuits=["c3540"],
            methods=["FPART", "BFS-pack"],
            runs_dir=str(tmp_path),
        )
        store = RunStore(tmp_path)
        fpart_rec = next(r for r in records if r.method == "FPART")
        pack_rec = next(r for r in records if r.method == "BFS-pack")
        fpart_snapshot = store.metrics_of(fpart_rec.run_id)
        assert fpart_snapshot["counters"]["fpart.runs"] == 1
        # BFS-pack bypasses the instrumented engines: empty snapshot.
        assert store.metrics_of(pack_rec.run_id)["counters"] == {}
        merged = merge_snapshots(
            [store.metrics_of(r.run_id) for r in records]
        )
        assert merged["counters"]["fpart.runs"] == 1
        assert merged["counters"]["sanchis.moves_tried"] > 0

    def test_failed_cell_is_blank_and_excluded_from_totals(self):
        from repro.obs import RunRecord

        failed = [
            RunRecord(
                run_id="f1", circuit="c3540", device="XC3042",
                status="failed",
            )
        ]
        text = render_device_comparison("XC3042", failed, ["FPART"])
        row = next(line for line in text.splitlines() if "c3540" in line)
        # The "FPART (ours)" column is blank ("-"), so is its total.
        assert row.split()[-2] == "-"
        assert text.splitlines()[-1].split()[-2] == "-"
        assert "c3540" not in render_cpu_table(failed)

    def test_failed_cell_keeps_its_error_in_the_store(self, tmp_path):
        from repro.analysis.experiments import run_sweep_cell
        from repro.obs import RunStore, render_history

        record = run_sweep_cell(
            "no-such-method", "c3540", "XC3042",
            retries=0, runs_dir=str(tmp_path),
        )
        assert record.status == "failed"
        (stored,) = RunStore(tmp_path).records()
        assert stored.run_id == record.run_id
        assert stored.status == "failed"
        assert "no-such-method" in stored.labels["error"]
        assert stored.labels["error"].startswith("KeyError")
        assert f"error: {stored.labels['error']}" in render_history([stored])


class TestFigures:
    @pytest.fixture(scope="class")
    def fpart_result(self):
        return FpartPartitioner(
            mcnc_circuit("c3540", "XC3000"), XC3042
        ).run()

    def test_figure1(self, fpart_result):
        schedule = figure1_schedule(fpart_result)
        assert schedule  # at least one iteration
        first_labels = schedule[0][1]
        assert first_labels[0] == "last_pair"
        text = render_figure1(fpart_result)
        assert "iteration" in text

    def test_figure2(self, fpart_result):
        hg = mcnc_circuit("c3540", "XC3000")
        solutions = figure2_solutions(
            hg, fpart_result.assignment, XC3042, DEFAULT_CONFIG
        )
        assert solutions[0].feasibility is Feasibility.FEASIBLE
        kinds = {s.feasibility for s in solutions}
        assert Feasibility.SEMI_FEASIBLE in kinds
        text = render_figure2(solutions, XC3042)
        assert "Feasible region" in text
        assert "OUTSIDE" in text

    def test_figure3(self):
        regions = figure3_regions(XC3042, DEFAULT_CONFIG)
        floor2, cap2 = regions["two_block_non_remainder"]
        floor_m, cap_m = regions["multi_block_non_remainder"]
        assert floor2 > floor_m          # 2-block floor is stricter
        assert cap2 == cap_m
        assert regions["remainder"][1] == float("inf")
        text = render_figure3(XC3042, DEFAULT_CONFIG)
        assert "unbounded" in text
