"""Table 6 — FPART execution time per circuit and device.

Measures this host's wall-clock seconds next to the paper's SUN Sparc
Ultra 5 numbers.  Absolute values are incomparable across 25 years of
hardware; the *shape* assertions check what the paper's table shows:
time grows with the iteration count (smaller devices, bigger circuits
are slower for the same circuit/device family).
"""

from repro.analysis import render_cpu_table, run_method

from helpers import fpart_circuits, run_once, save

DEVICES = ("XC3020", "XC3042", "XC3090", "XC2064")


def _measure():
    records = []
    for device in DEVICES:
        for circuit in fpart_circuits(device):
            records.append(run_method("FPART", circuit, device))
    return records


def bench_table6_cpu_time(benchmark):
    records = run_once(benchmark, _measure)
    save("table6_cpu", render_cpu_table(records))

    by_cell = {(r.circuit, r.device): r for r in records}

    def seconds(circuit, device):
        record = by_cell.get((circuit, device))
        return record.wall_seconds if record else None

    # Shape 1: for each circuit, the small XC3020 run (many more
    # iterations) costs at least as much as the roomy XC3090 run.
    for circuit in fpart_circuits("XC3020"):
        t_small = seconds(circuit, "XC3020")
        t_big = seconds(circuit, "XC3090")
        if t_small is not None and t_big is not None:
            assert t_small >= 0.5 * t_big, (circuit, t_small, t_big)

    # Shape 2: the biggest circuit costs more than the smallest on the
    # same device (when both were run).
    t_c3540 = seconds("c3540", "XC3020")
    t_biggest = seconds("s38584", "XC3020") or seconds("s9234", "XC3020")
    assert t_biggest >= t_c3540
