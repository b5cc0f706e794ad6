"""Ablation F — early pass abort (section 5, second future-work idea).

"Another enhancement possibility is to reduce time wasted in the
infeasible region by stopping the FM pass if current solution moves
farther away from the feasible region."  Implemented as a stall limit
on multi-block passes (>= 3 participating blocks): such a pass aborts
once N consecutive moves have gone by without a new pass-best and its
current solution has fewer feasible blocks than the pass-best, while
2-block passes always run to completion.  The default limit (128)
leaves every MCNC table assignment unchanged, so it must cost no
devices against the full pass; the tighter limits quantify the
time/quality trade-off.
"""

import time

from repro.analysis import render_table
from repro.circuits import mcnc_circuit
from repro.core import XC3020, FpartConfig, fpart

from helpers import run_once, save

CIRCUITS = ("c3540", "c5315", "s5378", "s9234")
DEFAULT_LIMIT = FpartConfig().pass_stall_limit  # 128
LIMITS = (None, DEFAULT_LIMIT, 100, 25)


def _label(limit):
    return "full pass" if limit is None else f"stall={limit}"


def _run():
    totals = {limit: 0 for limit in LIMITS}
    times = {limit: 0.0 for limit in LIMITS}
    rows = []
    for name in CIRCUITS:
        hg = mcnc_circuit(name, "XC3000")
        row = [name]
        for limit in LIMITS:
            start = time.perf_counter()
            result = fpart(
                hg, XC3020, FpartConfig(pass_stall_limit=limit)
            )
            times[limit] += time.perf_counter() - start
            totals[limit] += result.num_devices
            row.append(result.num_devices)
        rows.append(row)
    rows.append(["Total"] + [totals[limit] for limit in LIMITS])
    rows.append(["Seconds"] + [round(times[limit], 2) for limit in LIMITS])
    return rows, totals, times


def bench_ablation_early_stop(benchmark):
    rows, totals, times = run_once(benchmark, _run)
    save(
        "ablation_early_stop",
        render_table(
            ["Circuit"] + [_label(limit) for limit in LIMITS],
            rows,
            title="Ablation F: early pass abort (XC3020)",
        ),
    )
    # The default cuts only rolled-back work: same devices as the full
    # pass...
    assert totals[DEFAULT_LIMIT] == totals[None]
    # ...aggressive abort must not collapse quality (small band)...
    assert totals[25] <= totals[None] + 3
    # ...and the tightest limit should not be slower than the full pass
    # by more than noise (it skips most of each pass's tail).
    assert times[25] <= times[None] * 1.5
