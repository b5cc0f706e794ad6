"""CLI error hygiene: one-line messages, distinct exit codes, run-guard
flags (``--deadline`` / ``--max-iterations`` / ``--strict`` /
``--checkpoint`` / ``--resume``)."""

import pytest

from repro.cli import main
from repro.obs import RunStore


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "c.hgr"
    assert main(
        ["generate", "cli-err-demo", "--cells", "120", "--ios", "16",
         "-o", str(path)]
    ) == 0
    return path


class TestExitCodes:
    def test_missing_netlist_is_66(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "ghost.hgr")])
        assert code == 66
        err = capsys.readouterr().err
        assert err.startswith("fpart: error:")
        assert "Traceback" not in err

    def test_malformed_blif_is_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model x\n.frobnicate y\n.end\n", encoding="ascii")
        code = main(["info", str(bad)])
        assert code == 65
        err = capsys.readouterr().err
        assert "invalid netlist" in err
        assert "Traceback" not in err

    def test_malformed_hgr_is_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.hgr"
        bad.write_text("1\n", encoding="ascii")  # header too short
        code = main(["info", str(bad)])
        assert code == 65
        assert "fpart: error" in capsys.readouterr().err

    def test_truncated_hgr_body_is_65(self, tmp_path, capsys):
        bad = tmp_path / "trunc.hgr"
        bad.write_text("3 4 0\n1 2\n", encoding="ascii")  # 1 of 3 nets
        assert main(["info", str(bad)]) == 65
        assert "fpart: error" in capsys.readouterr().err

    def test_unknown_device_is_65(self, netlist_file, capsys):
        code = main(
            ["partition", str(netlist_file), "--device", "XC9999"]
        )
        assert code == 65
        assert "fpart: error" in capsys.readouterr().err

    def test_resume_without_checkpoint_is_70(self, netlist_file, capsys):
        code = main(["partition", str(netlist_file), "--resume"])
        assert code == 70
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_verify_missing_assignment_is_65(
        self, netlist_file, tmp_path, capsys
    ):
        code = main(
            ["verify", str(netlist_file), str(tmp_path / "nope.txt")]
        )
        assert code in (65, 66)  # read_assignment_file raises ValueError/OSError
        assert "fpart: error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, unknown, valid",
        [
            (["--circuits", "c3540", "--methods", "bogus"], "bogus",
             "BFS-pack"),
            (["--circuits", "nosuch"], "nosuch", "s9234"),
        ],
    )
    def test_table_unknown_name_is_65(
        self, args, unknown, valid, capsys
    ):
        code = main(["table", "XC3042", *args])
        assert code == 65
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any cell ran
        assert unknown in captured.err and valid in captured.err

    @pytest.mark.parametrize(
        "producer, command, artifact",
        [
            ("sweep-pack", ["report", "--phases", "--from-runs"], "metrics"),
            ("sweep-pack", ["export", "--openmetrics", "{out}", "--runs-dir"],
             "metrics"),
            ("sweep-fpart", ["export", "--chrome-trace", "{out}",
                             "--runs-dir"], "trace.jsonl"),
            ("cli", ["flame", "-o", "{out}", "--from-runs"],
             "profile.folded"),
        ],
        ids=["report-phases", "export-openmetrics", "export-chrome-trace",
             "flame"],
    )
    def test_missing_stored_artifact_is_65(
        self, producer, command, artifact, netlist_file, tmp_path, capsys
    ):
        from repro.analysis.experiments import run_method

        runs_dir = tmp_path / "runs"
        if producer == "cli":
            # Recorded without --prof: no profile.
            assert main(
                ["partition", str(netlist_file), "--runs-dir", str(runs_dir)]
            ) == 0
            (record,) = RunStore(runs_dir).records()
            run_id = record.run_id
        else:
            # Sweep cells are untraced; baselines record no metrics.
            method = "BFS-pack" if producer == "sweep-pack" else "FPART"
            run_id = run_method(
                method, "c3540", "XC3042", runs_dir=str(runs_dir)
            ).run_id
        capsys.readouterr()
        out = str(tmp_path / "out")
        args = [arg.replace("{out}", out) for arg in command]
        code = main([*args, str(runs_dir), run_id])
        assert code == 65
        err = capsys.readouterr().err
        assert err.startswith("fpart: error:")
        assert f"run {run_id} has no stored {artifact}" in err


class TestGuardFlags:
    def test_budget_exhaustion_exits_3(self, netlist_file, capsys):
        code = main(
            ["partition", str(netlist_file), "--device", "XC2064",
             "--max-iterations", "0"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "budget_exhausted" in captured.err

    def test_strict_budget_exhaustion_exits_70(self, netlist_file, capsys):
        code = main(
            ["partition", str(netlist_file), "--device", "XC2064",
             "--max-iterations", "0", "--strict"]
        )
        assert code == 70
        assert "fpart: error" in capsys.readouterr().err

    def test_checkpoint_resume_round_trip(
        self, netlist_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.ckpt"
        out_clean = tmp_path / "clean.txt"
        out_resumed = tmp_path / "resumed.txt"
        # delta 0.6 forces a multi-iteration run on this fixture.
        base = ["partition", str(netlist_file), "--device", "XC2064",
                "--delta", "0.6"]
        assert main(base + ["--output", str(out_clean)]) == 0
        # Interrupt after one iteration, checkpointing every iteration.
        assert main(
            base + ["--max-iterations", "1", "--checkpoint", str(ckpt)]
        ) == 3
        assert ckpt.exists()
        # Resume with the full default budget and compare.
        assert main(
            base + ["--checkpoint", str(ckpt), "--resume",
                    "--output", str(out_resumed)]
        ) == 0
        assert out_resumed.read_text() == out_clean.read_text()

    def test_resume_with_no_file_starts_fresh(
        self, netlist_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "fresh.ckpt"
        code = main(
            ["partition", str(netlist_file), "--device", "XC2064",
             "--checkpoint", str(ckpt), "--resume"]
        )
        assert code == 0
        assert "starting fresh" in capsys.readouterr().out

    def test_deadline_flag_accepted(self, netlist_file):
        # Generous deadline: must complete normally.
        assert main(
            ["partition", str(netlist_file), "--device", "XC2064",
             "--deadline", "3600"]
        ) == 0
