"""Experiment runner regenerating the paper's evaluation.

Builds each benchmark circuit (Table 1 stand-ins), runs FPART and the
reimplemented baselines, and renders comparison tables whose published
columns carry the paper's verbatim numbers next to the measured ones.

Every measured (circuit, device, method) cell is one
:class:`~repro.obs.runstore.RunRecord` — the same record ``fpart
partition --runs-dir`` writes.  With ``runs_dir`` each cell runs under
a fresh metrics registry and is recorded through :meth:`RunStore.record
<repro.obs.runstore.RunStore.record>` like every other producer; a
sweep-wide view is :func:`~repro.obs.metrics.merge_snapshots` over
:meth:`RunStore.metrics_of`.  ``tests/test_paper_quality.py`` re-runs
the default subset against the committed device counts in
``tests/data/mcnc_fpart_baseline/index.jsonl``.

The default circuit set is the six smaller circuits (DESIGN.md
section 4), so a laptop run finishes in minutes.  Set ``REPRO_FULL=1``
to include the four large circuits (s13207…s38584 — slow in pure
Python).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines import bfs_pack, fbb_multiway, kwayx
from ..circuits import (
    COMBINATIONAL_CIRCUITS,
    LARGE_CIRCUITS,
    MCNC_NAMES,
    mcnc_circuit,
)
from ..core import (
    DEFAULT_CONFIG,
    FpartConfig,
    FpartPartitioner,
    device_by_name,
)
from ..core.checkpoint import config_digest
from ..hypergraph import Hypergraph
from ..logging import get_logger, new_run_id
from ..obs.runstore import RunRecord, RunStore, run_metrics
from .published import (
    TABLE6_CPU_SECONDS,
    PublishedTable,
    published_table_for_device,
)
from .tables import render_table

__all__ = [
    "MEASURED_METHODS",
    "selected_circuits",
    "circuit_for_device",
    "run_method",
    "run_sweep_cell",
    "run_device_experiment",
    "render_device_comparison",
    "render_cpu_table",
]


#: The reimplemented baselines, ``(hg, device, config) -> result``; a
#: result carries ``num_devices``, ``lower_bound`` and ``feasible``.
_BASELINES: Dict[str, Callable] = {
    "k-way.x*": kwayx,
    "FBB-MW*": lambda hg, device, config: fbb_multiway(hg, device),
    "BFS-pack": lambda hg, device, config: bfs_pack(hg, device),
}

#: Methods measured live, in table order.
MEASURED_METHODS: Tuple[str, ...] = ("FPART", *_BASELINES)


def _device_circuits(device: str) -> Tuple[str, ...]:
    """Every circuit of one device's table (Table 5 is combinational)."""
    return COMBINATIONAL_CIRCUITS if device.upper() == "XC2064" else MCNC_NAMES


def selected_circuits(device: str) -> Tuple[str, ...]:
    """Benchmark circuits for one device.

    Small-by-default (DESIGN.md section 4); ``REPRO_FULL=1`` adds the
    four large circuits.
    """
    base = _device_circuits(device)
    if os.environ.get("REPRO_FULL"):
        return base
    return tuple(c for c in base if c not in LARGE_CIRCUITS)


def circuit_for_device(name: str, device: str) -> Hypergraph:
    """Build the stand-in circuit under the device's technology mapping."""
    family = "XC2000" if device.upper() == "XC2064" else "XC3000"
    return mcnc_circuit(name, family)


def run_method(
    method: str,
    circuit: str,
    device_name: str,
    config: FpartConfig = DEFAULT_CONFIG,
    runs_dir: Optional[str] = None,
) -> RunRecord:
    """Run one measured method on one circuit/device pair.

    An FPART cell is :meth:`RunRecord.for_fpart` of its result; a
    baseline cell has ``status="ok"``, no cost tuple and the wall time
    measured around the call.  Both are keyed by the sweep's own
    ``circuit``/``device_name``.  Exceptions, including the
    ``KeyError`` of an unknown method, propagate (fail fast);
    :func:`run_sweep_cell` is the isolating wrapper.

    With ``runs_dir`` the cell runs under a fresh metrics registry and
    is recorded, with its snapshot, into that
    :class:`~repro.obs.runstore.RunStore` (the baselines bypass the
    instrumented engines, so theirs is empty), making a whole sweep
    ``fpart history`` / ``fpart compare`` addressable.
    """
    device = device_by_name(device_name)
    hg = circuit_for_device(circuit, device_name)
    metrics = run_metrics(runs_dir)
    if method == "FPART":
        result = FpartPartitioner(hg, device, config, metrics=metrics).run()
        record = RunRecord.for_fpart(result, result.run_id, config)
    else:
        start = time.perf_counter()
        result = _BASELINES[method](hg, device, config)
        record = RunRecord(
            run_id=new_run_id(),
            circuit=circuit,
            device=device_name,
            method=method,
            status="ok",
            num_devices=result.num_devices,
            lower_bound=result.lower_bound,
            feasible=result.feasible,
            wall_seconds=time.perf_counter() - start,
            config_digest=config_digest(config),
            seed=config.seed,
        )
    # FpartResult names the mapped netlist ("c3540/XC3000"); the sweep
    # keys its cells by the table's circuit and device names.
    record = dataclasses.replace(record, circuit=circuit, device=device_name)
    if runs_dir:
        RunStore(runs_dir).record(record, metrics)
    return record


def _failed_cell(
    circuit: str,
    device_name: str,
    method: str,
    config: FpartConfig,
    error: str,
    runs_dir: Optional[str],
) -> RunRecord:
    """The ``status="failed"`` record a broken cell leaves behind.

    The error message rides in ``labels["error"]`` so ``fpart history``
    shows why the cell failed.
    """
    record = RunRecord(
        run_id=new_run_id(),
        circuit=circuit,
        device=device_name,
        method=method,
        status="failed",
        config_digest=config_digest(config),
        seed=config.seed,
        labels={"error": error},
    )
    if runs_dir:
        RunStore(runs_dir).record(record)
    return record


def run_sweep_cell(
    method: str,
    circuit: str,
    device_name: str,
    config: FpartConfig = DEFAULT_CONFIG,
    retries: int = 1,
    runs_dir: Optional[str] = None,
) -> RunRecord:
    """One isolated sweep cell: :func:`run_method` plus the retry loop.

    A cell that still raises after ``retries`` re-attempts becomes a
    ``status="failed"`` record instead of losing the whole sweep.
    Module-level (hence picklable) so sharded sweeps can ship whole
    cells to worker processes — a worker retries and degrades exactly
    like the serial sweep, including recording its own runs (failed
    ones too) into ``runs_dir``.
    """
    log = get_logger("analysis.experiments")
    attempt = 0
    while True:
        try:
            return run_method(
                method, circuit, device_name, config, runs_dir=runs_dir
            )
        except Exception as error:  # noqa: BLE001 - cell isolation
            attempt += 1
            if attempt <= retries:
                log.warning(
                    "retrying %s/%s/%s (attempt %d): %s",
                    circuit, device_name, method, attempt + 1, error,
                )
                continue
            log.error(
                "cell %s/%s/%s failed after %d attempts: %s",
                circuit, device_name, method, attempt, error,
            )
            return _failed_cell(
                circuit, device_name, method, config,
                f"{type(error).__name__}: {error}", runs_dir,
            )


def run_device_experiment(
    device_name: str,
    circuits: Optional[Sequence[str]] = None,
    methods: Optional[Sequence[str]] = None,
    config: FpartConfig = DEFAULT_CONFIG,
    retries: int = 1,
    runs_dir: Optional[str] = None,
    jobs: int = 1,
) -> List[RunRecord]:
    """All measured cells of one device's comparison table.

    Each (circuit, method) cell runs through :func:`run_sweep_cell`:
    one crashing baseline yields a ``status="failed"`` record instead
    of losing the whole multi-minute sweep.  ``runs_dir`` appends every
    cell — failed ones included — to the run registry, with a metrics
    snapshot per cell, making the sweep ``fpart history``-addressable.

    ``jobs > 1`` shards the cells across worker processes (each runs
    :func:`run_sweep_cell`, so retry, degradation and run-store
    recording semantics are identical).  Records always come back in
    serial circuit × method order, so the sweep output is independent
    of worker count and completion order; a worker that crashes or
    times out degrades to a ``failed`` record like any other broken
    cell.  An unknown method or circuit raises :class:`ValueError`
    before any cell runs.
    """
    if circuits is None:
        circuits = selected_circuits(device_name)
    if methods is None:
        methods = MEASURED_METHODS
    for kind, names, valid in (
        ("method", methods, MEASURED_METHODS),
        ("circuit", circuits, _device_circuits(device_name)),
    ):
        unknown = [n for n in names if n not in valid]
        if unknown:
            raise ValueError(
                f"unknown {kind} for {device_name}: {', '.join(unknown)} "
                f"(valid: {', '.join(valid)})"
            )
    cells = [(c, m) for c in circuits for m in methods]
    if jobs > 1:
        return _run_sharded(cells, device_name, config, retries, runs_dir, jobs)
    return [
        run_sweep_cell(
            method, circuit, device_name, config,
            retries=retries, runs_dir=runs_dir,
        )
        for circuit, method in cells
    ]


def _run_sharded(
    cells: Sequence[Tuple[str, str]],
    device_name: str,
    config: FpartConfig,
    retries: int,
    runs_dir: Optional[str],
    jobs: int,
) -> List[RunRecord]:
    """Fan sweep cells across a worker pool, keeping serial ordering."""
    # Deferred import: repro.parallel pulls in core.fpart at import
    # time; loading it lazily keeps `import repro.analysis` light and
    # cycle-proof.
    from ..parallel.pool import ParallelTask, WorkerPool

    log = get_logger("analysis.experiments")
    tasks = [
        ParallelTask(
            index=i,
            fn=run_sweep_cell,
            args=(method, circuit, device_name, config),
            kwargs={"retries": retries, "runs_dir": runs_dir},
            label=f"{circuit}/{method}",
        )
        for i, (circuit, method) in enumerate(cells)
    ]
    outcomes = WorkerPool(jobs=jobs).run(tasks)
    records = []
    for outcome, (circuit, method) in zip(outcomes, cells):
        if outcome.ok:
            records.append(outcome.value)
            continue
        # The worker itself died (crash/timeout) or never ran — the
        # in-worker retry loop could not leave a failed record, so the
        # parent degrades the cell the same way the serial sweep would.
        log.error(
            "cell %s/%s/%s lost to worker %s: %s",
            circuit, device_name, method, outcome.status, outcome.error,
        )
        records.append(
            _failed_cell(
                circuit, device_name, method, config,
                f"worker {outcome.status}: {outcome.error}", runs_dir,
            )
        )
    return records


def render_device_comparison(
    device_name: str,
    records: Sequence[RunRecord],
    methods: Optional[Sequence[str]] = None,
) -> str:
    """Comparison table: published columns + measured columns + M.

    Published cells come from the paper (Tables 2–5); measured methods
    are suffixed nothing — their header carries a ``*`` already where the
    implementation is ours.  A ``status="failed"`` cell renders blank.
    The last rows are per-column totals over the circuits present,
    mirroring the paper's "Total" row.
    """
    published: PublishedTable = published_table_for_device(device_name)
    if methods is None:
        methods = sorted(
            {r.method for r in records}, key=MEASURED_METHODS.index
        )
    by_cell = {(r.circuit, r.method): r for r in records}
    circuits = [
        c
        for c in published.rows
        if any((c, m) in by_cell for m in methods)
    ]

    pub_columns = [c for c in published.columns if c != "M"]
    headers = (
        ["Circuit"]
        + [f"{c} (paper)" for c in pub_columns]
        + [f"{m} (ours)" for m in methods]
        + ["M"]
    )
    rows: List[List] = []
    for circuit in circuits:
        row: List = [circuit]
        for column in pub_columns:
            row.append(published.value(circuit, column))
        for method in methods:
            record = by_cell.get((circuit, method))
            row.append(
                record.num_devices
                if record is not None and record.status != "failed"
                else None
            )
        row.append(published.value(circuit, "M"))
        rows.append(row)

    total_row: List = ["Total"]
    for column in pub_columns:
        values = [published.value(c, column) for c in circuits]
        total_row.append(
            None if any(v is None for v in values) else sum(values)
        )
    for method in methods:
        values = [
            by_cell[(c, method)].num_devices
            for c in circuits
            if (c, method) in by_cell
            and by_cell[(c, method)].status != "failed"
        ]
        total_row.append(sum(values) if values else None)
    total_row.append(sum(published.value(c, "M") for c in circuits))
    rows.append(total_row)

    return render_table(
        headers, rows, title=f"Partitioning into {device_name} devices"
    )


def render_cpu_table(records: Sequence[RunRecord]) -> str:
    """Table 6 analogue: measured FPART seconds vs the paper's Sparc."""
    fpart_records = [
        r for r in records if r.method == "FPART" and r.status != "failed"
    ]
    devices = sorted({r.device for r in fpart_records})
    circuits = [
        name
        for name in TABLE6_CPU_SECONDS
        if any(r.circuit == name for r in fpart_records)
    ]
    by_cell = {(r.circuit, r.device): r for r in fpart_records}
    headers = ["Circuit"]
    for device in devices:
        headers.append(f"{device} ours(s)")
        headers.append(f"{device} paper(s)")
    rows = []
    for circuit in circuits:
        row: List = [circuit]
        for device in devices:
            record = by_cell.get((circuit, device))
            row.append(record.wall_seconds if record else None)
            row.append(TABLE6_CPU_SECONDS[circuit].get(device))
        rows.append(row)
    return render_table(
        headers, rows, title="CPU time: FPART (this host) vs paper (Sparc Ultra 5)"
    )
