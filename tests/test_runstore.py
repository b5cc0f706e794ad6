"""Unit tests of the run registry (repro.obs.runstore)."""

from __future__ import annotations

import json

import pytest

from repro.obs.runstore import (
    INDEX_NAME,
    RUNSTORE_SCHEMA,
    RunRecord,
    RunStore,
    RunStoreError,
    atomic_write_text,
)


def make_record(run_id="run00001", **overrides):
    fields = dict(
        run_id=run_id,
        circuit="demo",
        device="XC3042",
        method="FPART",
        status="feasible",
        num_devices=3,
        lower_bound=3,
        feasible=True,
        cost={"f": 3, "d_k": 0.0, "t_sum": 150, "d_k_e": 0.1, "cut": 57},
        wall_seconds=0.5,
        iterations=2,
        config_digest="abc123",
        seed=1,
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [target]


class TestRunRecord:
    def test_json_roundtrip(self):
        record = make_record()
        raw = json.loads(record.to_json_line())
        assert RunRecord.from_dict(raw) == record

    def test_rejects_unknown_schema(self):
        raw = json.loads(make_record().to_json_line())
        raw["schema"] = RUNSTORE_SCHEMA + 1
        with pytest.raises(RunStoreError, match="schema"):
            RunRecord.from_dict(raw)

    def test_rejects_unknown_fields(self):
        raw = json.loads(make_record().to_json_line())
        raw["mystery"] = 1
        with pytest.raises(RunStoreError, match="malformed"):
            RunRecord.from_dict(raw)

    def test_for_fpart_from_finished_run(self):
        from repro.circuits import generate_circuit
        from repro.core import FpartConfig, FpartPartitioner
        from repro.core.checkpoint import config_digest
        from repro.core.device import device_by_name

        hg = generate_circuit("rec", num_cells=120, num_ios=16, seed=3)
        config = FpartConfig(seed=7)
        result = FpartPartitioner(
            hg, device_by_name("XC3020"), config
        ).run()
        record = RunRecord.for_fpart(
            result, "run00042", config, labels={"restart": "2"}
        )
        assert record.run_id == "run00042"
        assert (record.circuit, record.device) == ("rec", "XC3020")
        assert record.method == "FPART"
        assert record.status == result.status == "feasible"
        assert record.feasible is True
        assert record.num_devices == result.num_devices
        assert record.lower_bound == result.lower_bound
        assert record.iterations == result.iterations
        assert record.wall_seconds == result.runtime_seconds
        assert record.cost == {
            "f": result.cost.feasible_blocks,
            "d_k": result.cost.distance,
            "t_sum": result.cost.total_pins,
            "d_k_e": result.cost.ext_balance,
            "cut": result.cost.cut_nets,
        }
        assert record.config_digest == config_digest(config)
        assert record.seed == 7
        assert record.labels == {"restart": "2"}
        assert RunRecord.for_fpart(result, "r", config).labels == {}


class TestRunStore:
    def test_record_and_read_back(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_dir = store.record_run(
            make_record(), metrics={"counters": {"fpart.runs": 1}}
        )
        assert run_dir == store.run_dir("run00001")
        assert (run_dir / "run.json").exists()
        records = store.records()
        assert [r.run_id for r in records] == ["run00001"]
        assert records[0].created_utc  # stamped at record time
        assert store.metrics_of("run00001") == {
            "counters": {"fpart.runs": 1}
        }

    def test_index_is_append_ordered(self, tmp_path):
        store = RunStore(tmp_path)
        for i in range(3):
            store.record_run(make_record(f"run0000{i}"))
        assert [r.run_id for r in store.records()] == [
            "run00000", "run00001", "run00002",
        ]
        assert len(
            (tmp_path / INDEX_NAME).read_text().strip().splitlines()
        ) == 3

    def test_duplicate_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record())
        with pytest.raises(RunStoreError, match="already recorded"):
            store.record_run(make_record())

    def test_filters(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("aaaa0001", circuit="c1"))
        store.record_run(make_record("aaaa0002", circuit="c2"))
        store.record_run(make_record("aaaa0003", circuit="c1", method="BFS"))
        assert len(store.records(circuit="c1")) == 2
        assert len(store.records(circuit="c1", method="FPART")) == 1
        assert store.records(device="nope") == []

    def test_get_exact_prefix_ambiguous_and_missing(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("abcd1111"))
        store.record_run(make_record("abce2222"))
        assert store.get("abcd1111").run_id == "abcd1111"
        assert store.get("abce").run_id == "abce2222"
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.get("abc")
        with pytest.raises(RunStoreError, match="no run"):
            store.get("zzzz")

    def test_invalid_run_ids_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(RunStoreError, match="invalid run id"):
                store.run_dir(bad)

    def test_corrupt_index_line_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record())
        with open(store.index_path, "a", encoding="utf-8") as stream:
            stream.write("{not json\n")
        with pytest.raises(RunStoreError, match="corrupt index"):
            store.records()

    def test_artifacts_are_copied(self, tmp_path):
        source = tmp_path / "elsewhere.jsonl"
        source.write_text('{"event": "run_start"}\n')
        store = RunStore(tmp_path / "runs")
        store.record_run(
            make_record(), artifacts={"trace.jsonl": source}
        )
        _, stored = store.artifact("run00001", "trace.jsonl")
        assert stored.read_text() == source.read_text()

    def test_missing_artifact_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record())
        with pytest.raises(RunStoreError, match="no stored trace.jsonl"):
            store.artifact("run00001", "trace.jsonl")
        with pytest.raises(RunStoreError, match="no stored metrics"):
            store.artifact("run00001", "metrics")

    def test_artifact_names_must_be_bare(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(RunStoreError, match="artifact name"):
            store.record_run(
                make_record(), artifacts={"../evil": tmp_path / "x"}
            )

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.record_run(make_record())
        leftovers = [
            p for p in (tmp_path / "runs").rglob("*.tmp")
        ]
        assert leftovers == []


class TestBaselineFor:
    def test_picks_most_recent_comparable_earlier_run(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("aaaa0001"))
        store.record_run(make_record("aaaa0002", circuit="other"))
        store.record_run(make_record("aaaa0003"))
        store.record_run(make_record("aaaa0004"))
        baseline = store.baseline_for(store.get("aaaa0004"))
        assert baseline is not None and baseline.run_id == "aaaa0003"

    def test_requires_same_config_digest(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("aaaa0001", config_digest="x"))
        store.record_run(make_record("aaaa0002", config_digest="y"))
        assert store.baseline_for(store.get("aaaa0002")) is None

    def test_none_for_first_run(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("aaaa0001"))
        assert store.baseline_for(store.get("aaaa0001")) is None

    def test_unrecorded_candidate_uses_latest(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("aaaa0001"))
        fresh = make_record("bbbb0001")
        baseline = store.baseline_for(fresh)
        assert baseline is not None and baseline.run_id == "aaaa0001"


def _record_batch(root, worker, count):
    """Spawned in a child process by the concurrency test."""
    store = RunStore(root)
    for i in range(count):
        store.record_run(
            make_record(f"w{worker}n{i:03d}", config_digest=str(worker))
        )


class TestConcurrentWriters:
    def test_parallel_recorders_lose_no_lines(self, tmp_path):
        """N processes appending into one store: the advisory index
        lock must serialise the read-modify-write so every line lands
        (without it, concurrent rewrites silently drop records)."""
        import multiprocessing

        ctx = multiprocessing.get_context()
        workers, per_worker = 4, 8
        processes = [
            ctx.Process(
                target=_record_batch, args=(str(tmp_path), w, per_worker)
            )
            for w in range(workers)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join(timeout=60)
            assert p.exitcode == 0
        records = RunStore(tmp_path).records()
        assert len(records) == workers * per_worker
        assert len({r.run_id for r in records}) == workers * per_worker
        # Every indexed run has its artifact directory on disk.
        for record in records:
            assert (tmp_path / record.run_id / "run.json").exists()

    def test_duplicate_id_still_rejected_across_processes(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(make_record("dup00001"))
        with pytest.raises(RunStoreError):
            store.record_run(make_record("dup00001"))

    def test_lock_file_is_not_a_record(self, tmp_path):
        from repro.obs.runstore import LOCK_NAME

        store = RunStore(tmp_path)
        store.record_run(make_record("aaaa0001"))
        assert (tmp_path / LOCK_NAME).exists()
        assert len(store.records()) == 1


class TestCrashMidWriteRecovery:
    """A writer killed between the run-dir write and the index append.

    ``record_run`` deliberately orders its writes so the index line
    lands last: a crash in the window leaves a complete run directory
    on disk but no index entry — an *orphan*, invisible to readers.
    These tests simulate the kill at that exact point (the index-append
    seam raises, exactly what the process dying there looks like to the
    filesystem) and assert the store stays fully usable.
    """

    def _crash_one_record(self, tmp_path, monkeypatch, run_id="dead0001"):
        store = RunStore(tmp_path)

        def killed(self, line):
            raise SystemExit("simulated kill between artifact and index")

        monkeypatch.setattr(RunStore, "_append_index", killed)
        with pytest.raises(SystemExit):
            store.record_run(make_record(run_id))
        monkeypatch.undo()
        # The orphan run directory exists; the index never saw it.
        assert (tmp_path / run_id / "run.json").exists()

    def test_store_reopens_cleanly_and_skips_orphan(
        self, tmp_path, monkeypatch
    ):
        store = RunStore(tmp_path)
        store.record_run(make_record("live0001"))
        self._crash_one_record(tmp_path, monkeypatch)
        reopened = RunStore(tmp_path)
        ids = [r.run_id for r in reopened.records()]
        assert ids == ["live0001"]  # orphan invisible, survivor intact

    def test_new_writes_succeed_after_crash(self, tmp_path, monkeypatch):
        self._crash_one_record(tmp_path, monkeypatch)
        store = RunStore(tmp_path)
        store.record_run(make_record("live0002"))
        assert [r.run_id for r in store.records()] == ["live0002"]

    def test_same_run_id_can_be_recorded_again(self, tmp_path, monkeypatch):
        # The crashed attempt never made the index, so a retry of the
        # same run id must not hit the duplicate guard; its re-recorded
        # run.json overwrites the orphan directory's.
        self._crash_one_record(tmp_path, monkeypatch, run_id="retry001")
        store = RunStore(tmp_path)
        store.record_run(make_record("retry001"))
        assert [r.run_id for r in store.records()] == ["retry001"]

    def test_fpart_history_skips_orphan(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        store.record_run(make_record("live0001"))
        self._crash_one_record(tmp_path, monkeypatch)
        assert main(["history", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "live0001" in out
        assert "dead0001" not in out
