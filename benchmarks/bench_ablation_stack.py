"""Ablation B — solution-stack depth (section 3.6).

``D_stack = 4`` means up to 9 starting solutions per Improve() call;
depth 0 disables restarts entirely.  A Sanchis pass is a deterministic
function of the assignment, so a restart from a stacked pass end
replays the first run's chain and, unless that run stopped at
``max_passes``, returns its best: the depths agree exactly, and deeper
stacks only cost time.  The bench records devices, runtime and how many
circuits end at the same assignment under every depth.
"""

import time

from repro.analysis import render_table
from repro.circuits import mcnc_circuit
from repro.core import XC3020, FpartConfig, fpart

from helpers import run_once, save

CIRCUITS = ("c3540", "c5315", "s5378", "s9234")
DEPTHS = (0, 1, 4)


def _run():
    totals = {}
    times = {}
    rows = []
    identical = 0
    for name in CIRCUITS:
        hg = mcnc_circuit(name, "XC3000")
        row = [name]
        assignments = set()
        for depth in DEPTHS:
            start = time.perf_counter()
            result = fpart(hg, XC3020, FpartConfig(stack_depth=depth))
            times[depth] = times.get(depth, 0.0) + time.perf_counter() - start
            totals[depth] = totals.get(depth, 0) + result.num_devices
            assignments.add(tuple(result.assignment))
            row.append(result.num_devices)
        identical += len(assignments) == 1
        rows.append(row)
    rows.append(["Total"] + [totals[d] for d in DEPTHS])
    rows.append(["Seconds"] + [round(times[d], 2) for d in DEPTHS])
    return rows, totals, times, identical


def bench_ablation_stack_depth(benchmark):
    rows, totals, times, identical = run_once(benchmark, _run)
    depths = "/".join(str(d) for d in DEPTHS)
    save(
        "ablation_stack",
        render_table(
            ["Circuit"] + [f"D_stack={d}" for d in DEPTHS],
            rows,
            title="Ablation B: solution-stack depth (XC3020)",
        )
        + f"\nIdentical assignments across depths {depths}: "
        f"{identical}/{len(CIRCUITS)}",
    )
    # Deeper stacks never lose quality in aggregate.  (No timing
    # assertion: the restarts only add time, but single runs on a
    # shared host are too noisy to gate on.)
    assert totals[4] <= totals[0]
