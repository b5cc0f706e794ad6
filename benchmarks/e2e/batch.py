"""Batch workload child: partition a list of ``.hgr`` files in-process.

Run as ``python batch.py CONFIG.json`` in a fresh interpreter (the
driver ``run.py`` spawns it), so import cost and peak RSS belong to this
workload alone.  The config names the device, the inputs, the run
length and whether this is the traced pass.  The last stdout line is a
JSON report the driver turns into metrics.

Untraced mode: one untimed warm-up run, then each input once, in order,
until the inputs run out or the measured time reaches ``seconds`` —
but never fewer than ``min_inputs``, the prefix quality is judged on.
Runtime differs by ~20% from one generated circuit to the next, so many
distinct inputs measured once each make a steadier number than a few
inputs repeated.

Traced mode: rounds over the inputs, a fixed list (so every count
repeats exactly).  Each round runs every input untraced and then traced
through :class:`layers.LayerTracer`, so the per-layer numbers and the
tracing overhead come from the same inputs under the same conditions;
another round starts only if it fits in ``seconds``.

Every run is certified against the raw hypergraph, and every input's
assignment must be identical across all of its runs, traced or not.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from common import certify, digest, median
from layers import COUNT_METRICS, LayerTracer, layer_metrics


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    import repro.hypergraph.io  # noqa: F401  (reached via sys.modules)
    import repro.partition.validate  # noqa: F401
    from repro.core.device import device_by_name
    from repro.core.fpart import FpartPartitioner

    io = sys.modules["repro.hypergraph.io"]
    validation = sys.modules["repro.partition.validate"]
    device = device_by_name(config["device"])
    inputs = config["inputs"]
    clock = time.perf_counter

    graphs, parse_s = [], []
    for path in inputs:
        times = []
        for _ in range(3):
            start = clock()
            hg = io.read_hgr(path)
            times.append(clock() - start)
        graphs.append(hg)
        parse_s.append(median(times))

    def run(hg):
        start = clock()
        result = FpartPartitioner(hg, device, keep_trace=False).run()
        return clock() - start, result

    attempted = 0
    failures = []
    reference = {}

    def check(i, result) -> None:
        nonlocal attempted
        attempted += 1
        problems = certify(graphs[i], device, result.assignment,
                           result.num_devices, result.status,
                           validation.validate_assignment)
        if i not in reference:
            reference[i] = result
        elif result.assignment != reference[i].assignment:
            problems.append("assignment differs from the input's first run")
        if problems:
            failures.append(f"{Path(inputs[i]).name}: {'; '.join(problems)}")

    run(graphs[0])  # warm-up: lazy imports and first-call caches
    walls = []
    rounds_layers = []
    overheads = []
    spans_out = config.get("spans_out")
    if spans_out:
        Path(spans_out).write_text("", encoding="utf-8")

    def traced_round() -> None:
        tracer = LayerTracer()
        untraced = traced = 0.0
        for i, path in enumerate(inputs):
            wall, result = run(graphs[i])
            walls.append(wall)
            untraced += wall
            check(i, result)
            with tracer:
                io.read_hgr(path)  # parse span only; runs share graphs[i]
                wall, result = run(graphs[i])
                traced += wall
                check(i, result)
        rounds_layers.append(layer_metrics(tracer))
        overheads.append(100.0 * (traced - untraced) / untraced)
        if spans_out:
            tracer.write_jsonl(spans_out, round=len(rounds_layers))

    # No ``seconds``: one traced round, or every input once.
    seconds = config["seconds"]
    started = clock()
    if config["trace"]:
        traced_round()
        first = clock() - started
        for _ in range(int((seconds or 0) // first) - 1):
            traced_round()
    else:
        deadline = started + seconds if seconds else float("inf")
        for i, hg in enumerate(graphs):
            if i >= config["min_inputs"] and clock() >= deadline:
                break
            wall, result = run(hg)
            walls.append(wall)
            check(i, result)

    layers = None
    if rounds_layers:
        for later in rounds_layers[1:]:
            for name in COUNT_METRICS:
                if later[name] != rounds_layers[0][name]:
                    failures.append(f"{name} differs between traced rounds")
        layers = {name: median([r[name] for r in rounds_layers])
                  for name in rounds_layers[0]}
        layers["bench.trace_overhead_pct"] = median(overheads)

    done = [reference[i] for i in sorted(reference)]
    report = {
        "attempted": attempted,
        "failures": failures,
        "walls": walls,
        "parse_s": parse_s,
        "devices": [r.num_devices for r in done],
        "lower_bounds": [r.lower_bound for r in done],
        "digests": [digest(r.assignment) for r in done],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
