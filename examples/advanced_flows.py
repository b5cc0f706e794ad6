#!/usr/bin/env python
"""Advanced flow: a technology-mapped BLIF design through FPART.

1. import a technology-mapped design from structural BLIF (every
   ``.names`` / ``.latch`` becomes one cell, every port one pad),
2. partition it with FPART,
3. report the partition's quality: block fill, pins and board traces.

Run:  python examples/advanced_flows.py
"""

import io

from repro import Device, fpart
from repro.analysis import analyze_partition, render_quality
from repro.hypergraph import loads_blif


def make_blif(stages: int = 40, width: int = 4) -> str:
    """A synthetic mapped pipeline in BLIF: stages x width LUT/FF pairs."""
    out = io.StringIO()
    out.write(".model pipeline\n")
    out.write(".inputs clk " + " ".join(f"in{i}" for i in range(width)))
    out.write("\n.outputs " + " ".join(f"out{i}" for i in range(width)))
    out.write("\n")
    for lane in range(width):
        previous = f"in{lane}"
        for stage in range(stages):
            neighbor = f"q{(lane + 1) % width}_{stage - 1}" if stage else previous
            lut = f"t{lane}_{stage}"
            out.write(f".names {previous} {neighbor} {lut}\n11 1\n")
            out.write(f".latch {lut} q{lane}_{stage} re clk 0\n")
            previous = f"q{lane}_{stage}"
        out.write(f".names {previous} out{lane}\n1 1\n")
    out.write(".end\n")
    return out.getvalue()


def main() -> None:
    # 1. Import.
    circuit = loads_blif(make_blif())
    print(f"Imported from BLIF: {circuit}")

    # 2. Partition.
    device = Device("DEMO", s_ds=48, t_max=24, delta=1.0)
    result = fpart(circuit, device)
    print(f"\n{result.summary()}")

    # 3. Quality report.
    quality = analyze_partition(
        circuit, result.assignment, device, result.num_devices
    )
    print()
    print(render_quality(quality, title="FPART partition quality"))


if __name__ == "__main__":
    main()
