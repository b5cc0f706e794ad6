"""Outside-in layer tracing of an in-process FPART run.

:class:`LayerTracer` wraps public callables of the ``repro`` modules
(nothing under ``src/`` knows it is traced) and records one span per
call — name, start, end, parent — in memory.  Counts that are too
frequent for a span (``move_gain_vector``) are counted instead.
:func:`layer_metrics` folds the spans of one traced pass into the
per-layer metrics named in ``BENCHMARK.json``.

Wrapped callables and how they are reached:

* ``read_hgr`` and ``validate_assignment`` — the benchmark calls them
  through their module attribute, so the wrapper sits there;
* ``create_bipartition`` / ``improve`` — module globals of
  ``repro.core.fpart``, rebound through ``sys.modules`` because the
  package attribute ``repro.core.fpart`` is the ``fpart`` function;
* ``build_candidate`` — a module global of ``repro.initial.initial``,
  spanned per builder name;
* ``FpartPartitioner.run``, ``SanchisEngine.run``/``run_pass``,
  ``CostEvaluator.evaluate``, ``PartitionState.restore`` — class
  attributes (no subclass overrides them);
* ``move_gain_vector`` — the ``repro.sanchis.engine`` global, counted;
* ``PartitionState.rewind`` inside a pass — counts the moves a pass
  tried and rolled back, so per-move ratios divide by moves tried
  (``SanchisResult.moves_applied`` counts only the moves kept).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

from common import median

# (module, attribute, span name); the class-qualified ones are methods.
_SPANNED = (
    ("repro.hypergraph.io", "read_hgr", "hypergraph.read_hgr"),
    ("repro.partition.validate", "validate_assignment", "validate"),
    ("repro.core.fpart", "create_bipartition", "initial.bipartition"),
    ("repro.core.fpart", "improve", "improve"),
    ("repro.core.fpart", "FpartPartitioner.run", "fpart.run"),
    ("repro.sanchis.engine", "SanchisEngine.run", "sanchis.run"),
    ("repro.sanchis.engine", "SanchisEngine.run_pass", "sanchis.pass"),
    ("repro.core.cost", "CostEvaluator.evaluate", "cost.evaluate"),
    ("repro.partition.state", "PartitionState.restore", "partition.restore"),
)


class LayerTracer:
    """Installs span wrappers on entry and removes them on exit."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self._gain_calls = [0]
        self.moves_applied = 0
        self.moves_rolled_back = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    @property
    def gain_vectors(self) -> int:
        """Calls of ``move_gain_vector`` while installed."""
        return self._gain_calls[0]

    def _wrap(self, fn: Callable, name) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            record = [name(args) if callable(name) else name, clock(), 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return spanned

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        for module_name, path, name in _SPANNED:
            importlib.import_module(module_name)
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))

        initial = sys.modules["repro.initial.initial"]
        self._patch(initial, "build_candidate", self._wrap(
            initial.build_candidate, lambda args: f"initial.{args[0]}"))

        engine = sys.modules["repro.sanchis.engine"]
        calls = self._gain_calls

        def counted_gain(state, cell, to_block, locked,
                         _gain=engine.move_gain_vector):
            calls[0] += 1
            return _gain(state, cell, to_block, locked)

        self._patch(engine, "move_gain_vector", counted_gain)

        run = engine.SanchisEngine.run  # already the span wrapper

        def run_counting_moves(engine_self, *args, **kwargs):
            result = run(engine_self, *args, **kwargs)
            self.moves_applied += result.moves_applied
            return result

        self._patch(engine.SanchisEngine, "run", run_counting_moves)

        # A pass ends by rewinding to its best prefix: the moves undone
        # there plus the moves kept are the moves the pass tried.
        state_cls = sys.modules["repro.partition.state"].PartitionState
        rewind = state_cls.rewind

        def counting_rewind(state, mark):
            if self._stack and self.spans[self._stack[-1]][0] == \
                    "sanchis.pass":
                self.moves_rolled_back += state.journal_mark() - mark
            return rewind(state, mark)

        self._patch(state_cls, "rewind", counting_rewind)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, **labels) -> None:
        """Append the spans, one JSON object per line."""
        with open(path, "a", encoding="utf-8") as stream:
            for index, (name, start, end, parent) in enumerate(self.spans):
                stream.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, **labels}) + "\n")


def _durations(spans) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
    """Per-name span durations and per-name self time totals."""
    durations: Dict[str, List[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_time: Dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (
            end - start - child_time[index])
    return durations, self_time


#: Per-layer metrics that are counts: they must repeat exactly.
COUNT_METRICS = (
    "initial.calls", "improve.calls", "improve.engine_runs",
    "sanchis.passes", "sanchis.moves_applied", "sanchis.moves_tried",
    "fm.gain_vectors",
    "cost.evaluate_calls", "partition.restores",
)


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Fold one traced pass into the compute-layer metrics."""
    durations, self_time = _durations(tracer.spans)

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    bipartition = total("initial.bipartition")
    builders = total("initial.greedy_merge") + total("initial.ratio_cut") \
        + total("initial.seed_grow")
    improve_calls = calls("improve")
    engine_runs = calls("sanchis.run")
    pass_s = total("sanchis.pass")
    tried = tracer.moves_applied + tracer.moves_rolled_back
    return {
        "hypergraph.parse_ms": 1e3 * median(durations["hypergraph.read_hgr"]),
        "initial.calls": calls("initial.bipartition"),
        "initial.bipartition_s": bipartition,
        "initial.greedy_merge_s": total("initial.greedy_merge"),
        "initial.ratio_cut_s": total("initial.ratio_cut"),
        "initial.select_s": bipartition - builders,
        "improve.calls": improve_calls,
        "improve.s": total("improve"),
        "improve.engine_runs": engine_runs,
        "improve.restarts_per_call":
            (engine_runs - improve_calls) / max(improve_calls, 1),
        "improve.self_s": self_time.get("improve", 0.0),
        "sanchis.run_s": total("sanchis.run"),
        "sanchis.passes": calls("sanchis.pass"),
        "sanchis.pass_s": pass_s,
        "sanchis.moves_applied": tracer.moves_applied,
        "sanchis.moves_tried": tried,
        "sanchis.us_per_move": 1e6 * pass_s / max(tried, 1),
        "fm.gain_vectors": tracer.gain_vectors,
        "fm.gain_vectors_per_move": tracer.gain_vectors / max(tried, 1),
        "cost.evaluate_calls": calls("cost.evaluate"),
        "cost.evaluate_s": total("cost.evaluate"),
        "partition.restores": calls("partition.restore"),
        "partition.restore_s": total("partition.restore"),
        "fpart.self_s": total("fpart.run") - bipartition - total("improve"),
        "validate.certify_ms": 1e3 * median(durations["validate"]),
    }
