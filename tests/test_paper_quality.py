"""Paper-quality gate: FPART's device counts on the default MCNC subset.

``tests/data/mcnc_fpart_baseline/index.jsonl`` is a run-store index
holding one FPART record per default-subset cell of Tables 2–5 (six
MCNC circuits on XC3020, XC3042 and XC3090, four combinational ones on
XC2064), written under the default config by::

    fpart table XC3020 --runs-dir DIR   # and XC3042, XC3090, XC2064

Every cell is re-run through :func:`run_method` and must be no worse on
the ``(status rank, num_devices)`` prefix of
:func:`repro.obs.compare.quality_key` — the device count the paper's
tables compare against the lower bound M.  The rest of the key (the
``T_SUM``/``d_k`` cost tuple) is deliberately not gated here; the
golden pins fix exact trajectories.  After an intended improvement,
regenerate the index with the commands above.
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import run_method
from repro.circuits import COMBINATIONAL_CIRCUITS, LARGE_CIRCUITS, MCNC_NAMES
from repro.obs.compare import quality_key
from repro.obs.runstore import RunStore

BASELINE = RunStore(Path(__file__).parent / "data" / "mcnc_fpart_baseline")
CELLS = BASELINE.records()


def _small(names):
    return [name for name in names if name not in LARGE_CIRCUITS]


def test_baseline_covers_the_default_subset():
    expected = [
        (circuit, device)
        for device in ("XC3020", "XC3042", "XC3090")
        for circuit in _small(MCNC_NAMES)
    ] + [(circuit, "XC2064") for circuit in _small(COMBINATIONAL_CIRCUITS)]
    assert [(r.circuit, r.device) for r in CELLS] == expected
    assert len(CELLS) == 22
    assert {r.method for r in CELLS} == {"FPART"}


@pytest.mark.parametrize(
    "baseline", CELLS, ids=[f"{r.circuit}-{r.device}" for r in CELLS]
)
def test_device_count_no_worse_than_baseline(baseline):
    record = run_method("FPART", baseline.circuit, baseline.device)
    assert record.lower_bound == baseline.lower_bound
    assert quality_key(record)[:2] <= quality_key(baseline)[:2], (
        f"{baseline.circuit}/{baseline.device}: {record.num_devices} "
        f"devices ({record.status}), baseline {baseline.num_devices} "
        f"({baseline.status}), M={baseline.lower_bound}"
    )
