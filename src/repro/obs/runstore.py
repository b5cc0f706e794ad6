"""Cross-run history: an append-only, zero-dependency run registry.

A :class:`RunStore` turns the per-run telemetry of ``repro.obs`` into a
queryable history directory (CLI ``--runs-dir``)::

    <runs-dir>/
        index.jsonl            # one compact RunRecord per line
        <run_id>/
            run.json           # full record + metrics snapshot
            phases.txt         # phase table (when the snapshot is non-empty)
            trace.jsonl        # JSONL trace stream (when traced)
            profile.folded     # sampled profile (when profiled)

The index is the query surface (``fpart history`` scans only it); the
per-run directories hold everything needed to re-render a run offline
(``fpart report --from-runs``, ``fpart export``, ``fpart flame``,
all through :meth:`RunStore.artifact`).  Records never mutate: a run is
appended exactly once, at the end of the run, which is what makes the
index an audit log of every partition the host executed.  Every
producer (CLI, serve worker, restart worker, sweep) records through
:meth:`RunStore.record`, so a stored run holds the same artifacts
whoever ran it (DESIGN.md §7).

Durability
----------
All writes are atomic (temp file + ``os.replace``, the same pattern as
``repro.core.checkpoint``): a killed run can lose *its own* record but
can never truncate the index or leave a half-written ``run.json``
behind.  The per-run directory is written before the index line, so an
indexed run always has its artifact directory on disk.

Concurrency
-----------
Parallel restarts and sharded sweeps have several worker processes
recording into the *same* runs directory.  The index append is a
read-modify-write (the whole file is rewritten through ``os.replace``),
so concurrent appends would silently drop lines; :meth:`record_run`
therefore serialises writers through an advisory ``flock`` on
``<runs-dir>/.index.lock`` — uniqueness re-check and append happen
under the same critical section.  On platforms without ``fcntl`` the
lock degrades to a no-op (single-writer behaviour, as before).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .metrics import NULL_METRICS, MetricsRegistry
from .prof import render_phase_table
from .trace import cost_fields

try:  # POSIX only; Windows degrades to unlocked single-writer mode.
    import fcntl
except ImportError:  # pragma: no cover - exercised on Windows only
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "RUNSTORE_SCHEMA",
    "INDEX_NAME",
    "LOCK_NAME",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "atomic_write_text",
    "run_metrics",
]

#: Version of the index-line / ``run.json`` layout.
RUNSTORE_SCHEMA = 1

#: Name of the JSONL index file inside a runs directory.
INDEX_NAME = "index.jsonl"

#: Name of the advisory writer-lock file next to the index.
LOCK_NAME = ".index.lock"


class RunStoreError(ValueError):
    """A malformed runs directory or an invalid store operation."""


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` via temp file + ``os.replace``."""
    out = Path(path)
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, out)
    return out


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run_metrics(runs_dir: Optional[Union[str, Path]]) -> MetricsRegistry:
    """The registry a run collects into: a run store implies metrics,
    so every stored run carries a snapshot."""
    return MetricsRegistry() if runs_dir else NULL_METRICS


def _has_metrics(snapshot: Optional[Dict]) -> bool:
    """True when a snapshot recorded anything (baselines record none)."""
    return bool(snapshot) and any(snapshot.values())


@dataclass(frozen=True)
class RunRecord:
    """One finished run, as persisted on the index.

    The quality fields mirror what the paper's tables compare: the
    device count against the lower bound plus the final lexicographic
    tuple ``{f, d_k, t_sum, d_k_e, cut}`` (``cost_fields`` layout; may
    be ``None`` for methods that do not evaluate the FPART cost).
    """

    run_id: str
    circuit: str
    device: str
    method: str = "FPART"
    status: str = "feasible"
    num_devices: int = 0
    lower_bound: int = 0
    feasible: bool = False
    cost: Optional[Dict[str, float]] = None
    wall_seconds: float = 0.0
    iterations: int = 0
    config_digest: str = ""
    seed: int = 0
    created_utc: str = ""
    labels: Dict[str, str] = field(default_factory=dict)
    schema: int = RUNSTORE_SCHEMA

    @classmethod
    def for_fpart(
        cls,
        result,
        run_id: str,
        config,
        labels: Optional[Mapping[str, str]] = None,
    ) -> "RunRecord":
        """The record of one finished FPART run.

        ``result`` is an :class:`~repro.core.fpart.FpartResult` and
        ``config`` the :class:`~repro.core.config.FpartConfig` it ran
        under (the source of the digest and the seed).
        """
        # Deferred: repro.core imports this package.
        from ..core.checkpoint import config_digest

        return cls(
            run_id=run_id,
            circuit=result.circuit,
            device=result.device,
            method="FPART",
            status=result.status,
            num_devices=result.num_devices,
            lower_bound=result.lower_bound,
            feasible=result.feasible,
            cost=cost_fields(result.cost) if result.cost is not None else None,
            wall_seconds=result.runtime_seconds,
            iterations=result.iterations,
            config_digest=config_digest(config),
            seed=config.seed,
            labels=dict(labels or {}),
        )

    def to_json_line(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunRecord":
        if not isinstance(raw, dict):
            raise RunStoreError("run record is not a JSON object")
        schema = raw.get("schema")
        if schema != RUNSTORE_SCHEMA:
            raise RunStoreError(
                f"unsupported run-record schema {schema!r} "
                f"(expected {RUNSTORE_SCHEMA})"
            )
        try:
            return cls(**raw)
        except TypeError as error:
            raise RunStoreError(f"malformed run record: {error}") from error


class RunStore:
    """Append-only registry of finished runs under one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    def run_dir(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise RunStoreError(f"invalid run id {run_id!r}")
        return self.root / run_id

    # -- writing ---------------------------------------------------------

    @contextlib.contextmanager
    def _writer_lock(self) -> Iterator[None]:
        """Advisory exclusive lock serialising index writers.

        ``flock`` on ``<runs-dir>/.index.lock`` — held across the
        uniqueness check and the index rewrite so concurrent recorders
        (parallel restarts, sharded sweep workers) cannot interleave a
        read-modify-write and drop each other's lines.  Released (and
        thus safe) even if the holder dies: the kernel drops the lock
        with the file descriptor.
        """
        if fcntl is None:  # pragma: no cover - Windows fallback
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / LOCK_NAME, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def record(
        self,
        record: RunRecord,
        metrics: MetricsRegistry = NULL_METRICS,
        trace: Optional[Union[str, Path]] = None,
        profile: Optional[Union[str, Path]] = None,
    ) -> Optional[Path]:
        """The one recorder: persist a finished run, or warn and return
        None.

        Embeds the snapshot of ``metrics`` (:func:`run_metrics`) when it
        is enabled and copies in the run's ``trace`` and folded-stack
        ``profile``.  A store failure (a corrupt index, a run id
        recorded twice) is one warning on stderr: recording is
        observability and never fails a finished run.
        """
        snapshot = metrics.snapshot() if metrics.enabled else None
        artifacts = {"trace.jsonl": trace, "profile.folded": profile}
        try:
            return self.record_run(record, snapshot, artifacts)
        except (RunStoreError, OSError) as error:
            print(
                f"fpart: warning: run {record.run_id} not recorded in "
                f"{self.root}: {error}",
                file=sys.stderr,
            )
            return None

    def record_run(
        self,
        record: RunRecord,
        metrics: Optional[Dict] = None,
        artifacts: Optional[Dict[str, Union[str, Path]]] = None,
    ) -> Path:
        """Persist one finished run; returns its artifact directory.

        The raising primitive behind :meth:`record`.  ``metrics`` is a
        :meth:`MetricsRegistry.snapshot` dict embedded in ``run.json``
        (a non-empty one also renders ``phases.txt``); ``artifacts``
        maps destination file names to source paths (or None) copied
        into the run directory.  The index line is appended last, so a
        crash mid-record leaves no dangling index entry.  Safe to call
        from several processes sharing one runs directory: writers
        serialise on :meth:`_writer_lock`.
        """
        with self._writer_lock():
            existing = {r.run_id for r in self.records()}
            if record.run_id in existing:
                raise RunStoreError(
                    f"run {record.run_id!r} is already recorded in "
                    f"{self.root}"
                )
            if not record.created_utc:
                record = dataclasses.replace(record, created_utc=_utc_now())
            run_dir = self.run_dir(record.run_id)
            run_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": RUNSTORE_SCHEMA,
                "record": dataclasses.asdict(record),
                "metrics": metrics,
            }
            atomic_write_text(
                run_dir / "run.json",
                json.dumps(payload, indent=1, sort_keys=True) + "\n",
            )
            if _has_metrics(metrics):
                # The phase breakdown rides along rendered, so a stored
                # run is inspectable without re-deriving it.
                atomic_write_text(
                    run_dir / "phases.txt",
                    render_phase_table(
                        metrics,
                        wall_seconds=record.wall_seconds,
                        run_id=record.run_id,
                    )
                    + "\n",
                )
            for name, source in (artifacts or {}).items():
                if Path(name).name != name:
                    raise RunStoreError(f"invalid artifact name {name!r}")
                if source is None:
                    continue
                src = Path(source)
                if src.resolve() != (run_dir / name).resolve():
                    shutil.copyfile(src, run_dir / name)
            self._append_index(record.to_json_line())
        return run_dir

    def _append_index(self, line: str) -> None:
        """Atomic append: rewrite the whole index through ``os.replace``.

        The index stays small (one short line per run), so the rewrite
        is cheap; in exchange a kill at any point leaves either the old
        or the new complete file, never a torn line.  Callers must hold
        :meth:`_writer_lock` — the read-modify-write is not safe against
        concurrent appenders on its own.
        """
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            text = ""
        atomic_write_text(self.index_path, text + line + "\n")

    # -- reading ---------------------------------------------------------

    def records(
        self,
        circuit: Optional[str] = None,
        device: Optional[str] = None,
        method: Optional[str] = None,
    ) -> List[RunRecord]:
        """All indexed runs, oldest first, with optional exact filters."""
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        records: List[RunRecord] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except ValueError as error:
                raise RunStoreError(
                    f"{self.index_path}:{lineno}: corrupt index line: {error}"
                ) from error
            records.append(RunRecord.from_dict(raw))
        if circuit is not None:
            records = [r for r in records if r.circuit == circuit]
        if device is not None:
            records = [r for r in records if r.device == device]
        if method is not None:
            records = [r for r in records if r.method == method]
        return records

    def get(self, run_id: str) -> RunRecord:
        """Look one run up by id; a unique id prefix is accepted."""
        records = self.records()
        exact = [r for r in records if r.run_id == run_id]
        if exact:
            return exact[0]
        prefixed = [r for r in records if r.run_id.startswith(run_id)]
        if len(prefixed) == 1:
            return prefixed[0]
        if len(prefixed) > 1:
            ids = ", ".join(r.run_id for r in prefixed)
            raise RunStoreError(
                f"run id prefix {run_id!r} is ambiguous ({ids})"
            )
        raise RunStoreError(f"no run {run_id!r} in {self.root}")

    def load_payload(self, run_id: str) -> Dict:
        """The full ``run.json`` payload (record + metrics snapshot)."""
        record = self.get(run_id)
        path = self.run_dir(record.run_id) / "run.json"
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as error:
            raise RunStoreError(
                f"run {record.run_id} has no run.json under {self.root}"
            ) from error
        except ValueError as error:
            raise RunStoreError(f"corrupt {path}: {error}") from error
        return raw

    def metrics_of(self, run_id: str) -> Optional[Dict]:
        return self.load_payload(run_id).get("metrics")

    def artifact(
        self, run_id: str, name: str
    ) -> Tuple[RunRecord, Union[Dict, Path]]:
        """``(record, artifact)`` of a run id or unique prefix.

        ``name`` is ``"metrics"`` for the run's snapshot, else a file of
        the run directory (``"trace.jsonl"``, ``"profile.folded"``) for
        its path.  An unknown run and a missing artifact (an empty
        snapshot counts as missing) both raise :class:`RunStoreError`.
        """
        record = self.get(run_id)
        if name == "metrics":
            found = self.metrics_of(record.run_id)
            if not _has_metrics(found):
                found = None
        else:
            path = self.run_dir(record.run_id) / name
            found = path if path.is_file() else None
        if found is None:
            raise RunStoreError(f"run {record.run_id} has no stored {name}")
        return record, found

    def baseline_for(self, record: RunRecord) -> Optional[RunRecord]:
        """The most recent earlier run comparable to ``record``.

        Comparable = same circuit, device, method and config digest —
        the population a quality regression is meaningful within.
        """
        candidates = [
            r
            for r in self.records(
                circuit=record.circuit,
                device=record.device,
                method=record.method,
            )
            if r.run_id != record.run_id
            and r.config_digest == record.config_digest
        ]
        if not candidates:
            return None
        before = candidates
        if record.run_id in {r.run_id for r in self.records()}:
            ids = [r.run_id for r in self.records()]
            cutoff = ids.index(record.run_id)
            before = [r for r in candidates if ids.index(r.run_id) < cutoff]
            if not before:
                return None
        return before[-1]
