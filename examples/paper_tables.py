#!/usr/bin/env python
"""Regenerate a slice of the paper's evaluation from the public API.

Shows the experiment harness end-to-end: run the measured methods on a
couple of Table 2 circuits, print the comparison against the published
columns, a config sweep over the pass cap (`max_passes`), and keep the raw
records in a run store that ``fpart history --runs-dir DIR`` lists.

Run:  python examples/paper_tables.py
"""

import tempfile
from pathlib import Path

from repro.analysis import (
    render_device_comparison,
    render_sweep,
    run_device_experiment,
    sweep_config,
)
from repro.circuits import mcnc_circuit
from repro.core import XC3020


def main() -> None:
    circuits = ["c3540", "s9234"]
    runs_dir = tempfile.mkdtemp(prefix="repro-tables-")

    # 1. Table 2 slice, live FPART + k-way.x columns beside the paper's,
    #    every cell recorded (with its metrics snapshot) in a run store.
    records = run_device_experiment(
        "XC3020",
        circuits=circuits,
        methods=["FPART", "k-way.x*"],
        runs_dir=runs_dir,
    )
    print(
        render_device_comparison("XC3020", records, ["FPART", "k-way.x*"])
    )

    # 2. A custom ablation via the sweep utility.
    print()
    hgs = [mcnc_circuit(name, "XC3000") for name in circuits]
    cells = sweep_config(hgs, XC3020, "max_passes", [1, 2, 8])
    print(render_sweep(cells, "max_passes"))

    # 3. The machine-readable records: one JSON line per cell.
    print(f"\nrun records in {Path(runs_dir) / 'index.jsonl'}")
    print(f"list them with: fpart history --runs-dir {runs_dir}")


if __name__ == "__main__":
    main()
