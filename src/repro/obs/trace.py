"""The one JSONL event stream: run traces, worker traces, service spans.

A :class:`TraceWriter` appends one JSON object per line to a file (or
any text stream).  It writes every event stream in the repo: a CLI
run's ``--trace`` file, a serve job's ``trace.jsonl`` and the daemon's
``spans.jsonl``.  Every event carries:

* ``schema`` — the stream format version (:data:`TRACE_SCHEMA`),
* ``seq`` — a strictly increasing sequence number,
* ``t`` — wall-clock epoch seconds (``time.time()``), one clock for
  every stream and process, so events of different files line up,
* ``event`` — one of :data:`EVENT_TYPES`,
* ``run_id`` — the run correlation id shared with log lines,
  checkpoints and :attr:`FpartResult.run_id` (for the daemon's span
  log: one id per daemon generation),

plus event-specific fields (see :data:`REQUIRED_FIELDS`).  Readers only
ever subtract ``t`` values, so traces written when ``t`` counted from
the writer's opening still read correctly.  Events whose payload
includes a solution cost use the :func:`cost_fields` layout — the
paper's lexicographic tuple ``(f, d_k, T_SUM, d_k^E)`` spelled out,
which is what ``fpart report --trace`` turns into the convergence
table.  :meth:`TraceWriter.start_span` / :meth:`TraceWriter.end_span`
write the ``span_start``/``span_end`` pair of the span model in
:mod:`repro.obs.spans`.

Sampling
--------
``move_batch`` events are the only high-frequency ones; the
``sample_moves`` knob (CLI ``--trace-sample``) controls how many applied
moves elapse between batches, so full-fidelity tracing stays opt-in.
The engines read :attr:`TraceWriter.sample_moves` once per pass and
skip the emit call entirely between samples, and the shared
:data:`NULL_TRACE` writer makes tracing-off a no-op.

Validation
----------
:func:`validate_event` / :func:`validate_trace` check a parsed stream
against the schema (used by tests and the CI observability job);
``python -m repro.obs trace FILE`` validates a file from the command
line.
"""

from __future__ import annotations

import io
import json
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .spans import new_span_id

__all__ = [
    "TRACE_SCHEMA",
    "EVENT_TYPES",
    "REQUIRED_FIELDS",
    "TraceWriter",
    "NullTraceWriter",
    "NULL_TRACE",
    "cost_fields",
    "read_trace",
    "validate_event",
    "validate_trace",
]

#: Version stamp written on every event.
TRACE_SCHEMA = 1

#: Every event type, in rough lifecycle order.
EVENT_TYPES = (
    "run_start",
    "pass_start",
    "move_batch",
    "lex_improve",
    "checkpoint",
    "progress",
    "run_end",
    "span_start",
    "span_end",
)

#: Event-specific required fields (common fields are checked separately).
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run_start": ("circuit", "device", "lower_bound", "budget", "guard"),
    "pass_start": ("pass_index", "blocks", "cost"),
    "move_batch": ("moves", "key"),
    "lex_improve": ("iteration", "cost"),
    "checkpoint": ("iteration", "guard"),
    "progress": ("iteration", "moves", "elapsed_seconds"),
    "run_end": ("status", "iterations", "guard"),
    "span_start": ("span_id", "name"),
    "span_end": ("span_id", "status"),
}

#: Keys of the cost payload emitted by :func:`cost_fields`.
COST_KEYS = ("f", "d_k", "t_sum", "d_k_e", "cut")


def cost_fields(cost) -> Dict[str, Union[int, float]]:
    """JSON layout of one lexicographic solution cost.

    Duck-typed over :class:`~repro.core.cost.SolutionCost` so this
    module stays import-free of the core package.
    """
    return {
        "f": cost.feasible_blocks,
        "d_k": cost.distance,
        "t_sum": cost.total_pins,
        "d_k_e": cost.ext_balance,
        "cut": cost.cut_nets,
    }


class TraceWriter:
    """Versioned JSONL event sink of one run or one daemon generation.

    Parameters
    ----------
    sink:
        File path (opened for append-less overwrite) or an open text
        stream (kept open on :meth:`close` when caller-owned).
    run_id:
        Correlation id stamped on every event.
    sample_moves:
        Applied moves between ``move_batch`` events (engines consult
        this; 0 disables move batches entirely).

    :meth:`emit` is serialised by a lock: the daemon's HTTP handler
    threads and its scheduler share one writer.
    """

    __slots__ = ("run_id", "sample_moves", "_stream", "_owns_stream",
                 "_seq", "_clock", "_lock")

    #: False only on :class:`NullTraceWriter`; checked once per pass.
    enabled = True

    def __init__(
        self,
        sink: Union[str, Path, io.TextIOBase],
        run_id: str,
        sample_moves: int = 64,
        _clock=time.time,
    ) -> None:
        if sample_moves < 0:
            raise ValueError("sample_moves must be non-negative")
        self.run_id = run_id
        self.sample_moves = sample_moves
        if isinstance(sink, (str, Path)):
            self._stream = open(sink, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._seq = 0
        self._clock = _clock
        self._lock = threading.Lock()

    def emit(self, event: str, **fields) -> int:
        """Write one event line; returns its sequence number."""
        with self._lock:
            payload = {
                "schema": TRACE_SCHEMA,
                "seq": self._seq,
                "t": round(self._clock(), 6),
                "event": event,
                "run_id": self.run_id,
            }
            payload.update(fields)
            self._stream.write(json.dumps(payload, sort_keys=True) + "\n")
            self._seq += 1
        return payload["seq"]

    def start_span(
        self,
        name: str,
        trace_id: str,
        parent_id: str = "",
        span_id: Optional[str] = None,
        **attrs,
    ) -> str:
        """Open a span; returns its id (the caller keeps it for
        :meth:`end_span`)."""
        span_id = span_id or new_span_id()
        self.emit(
            "span_start", trace_id=trace_id, span_id=span_id,
            parent_id=parent_id, name=name, **attrs,
        )
        return span_id

    def end_span(
        self, span_id: str, trace_id: str, status: str, **attrs
    ) -> None:
        """Close a span with a terminal status (``ok``/``crashed``/...)."""
        self.emit(
            "span_end", trace_id=trace_id, span_id=span_id, status=status,
            **attrs,
        )

    def flush(self) -> None:
        """Push buffered events to the sink (progress beats, run end)."""
        self._stream.flush()

    def close(self) -> None:
        """Flush and (when this writer opened the file) close the sink."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullTraceWriter(TraceWriter):
    """The do-nothing writer behind :data:`NULL_TRACE`."""

    __slots__ = ()

    enabled = False

    def __init__(self) -> None:
        self.run_id = ""
        self.sample_moves = 0
        self._stream = None
        self._owns_stream = False
        self._seq = 0

    def emit(self, event: str, **fields) -> int:
        return 0

    def start_span(
        self,
        name: str,
        trace_id: str,
        parent_id: str = "",
        span_id: Optional[str] = None,
        **attrs,
    ) -> str:
        return span_id or ""

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared no-op writer used when a caller does not supply one.
NULL_TRACE = NullTraceWriter()


# ---------------------------------------------------------------------------
# Reading & validation
# ---------------------------------------------------------------------------


def read_trace(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL trace file (a CLI ``--trace`` file, a job's
    ``trace.jsonl`` or the daemon's ``spans.jsonl``: one envelope, one
    clock) into a list of event dicts.

    Raises ``ValueError`` with the offending line number on corrupt
    JSON; schema problems are reported by :func:`validate_trace`.
    """
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as error:
                raise ValueError(
                    f"{path}:{lineno}: corrupt trace line: {error}"
                ) from error
    return events


def validate_event(event: object) -> List[str]:
    """Schema errors of one parsed event (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return ["event is not a JSON object"]
    schema = event.get("schema")
    if schema != TRACE_SCHEMA:
        errors.append(f"schema is {schema!r}, expected {TRACE_SCHEMA}")
    seq = event.get("seq")
    if not isinstance(seq, int) or seq < 0:
        errors.append(f"seq is {seq!r}, expected a non-negative int")
    t = event.get("t")
    if not isinstance(t, (int, float)) or t < 0:
        errors.append(f"t is {t!r}, expected a non-negative number")
    run_id = event.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        errors.append(f"run_id is {run_id!r}, expected a non-empty string")
    kind = event.get("event")
    if kind not in EVENT_TYPES:
        errors.append(f"unknown event type {kind!r}")
        return errors
    for field in REQUIRED_FIELDS[kind]:
        if field not in event:
            errors.append(f"{kind}: missing field {field!r}")
    cost = event.get("cost")
    if cost is not None:
        if not isinstance(cost, dict):
            errors.append(f"{kind}: cost is not an object")
        else:
            for key in COST_KEYS:
                if key not in cost:
                    errors.append(f"{kind}: cost missing {key!r}")
    return errors


def validate_trace(events: Iterable[dict]) -> List[str]:
    """Schema errors of a whole stream (per-event + stream invariants).

    Stream invariants: sequence numbers strictly increase, every event
    carries the same run id, and the first *non-span* event is
    ``run_start`` (service-side wrappers open a ``span_start`` before
    the partitioner runs, so span events may legally precede it).  A
    missing ``run_end`` is *not* an error — interrupted runs are exactly
    when a trace is most useful.
    """
    errors: List[str] = []
    last_seq: Optional[int] = None
    run_id: Optional[str] = None
    seen_non_span = False
    for index, event in enumerate(events):
        for problem in validate_event(event):
            errors.append(f"event {index}: {problem}")
        if not isinstance(event, dict):
            continue
        kind = event.get("event")
        if kind not in ("span_start", "span_end") and not seen_non_span:
            seen_non_span = True
            if kind != "run_start":
                errors.append(
                    f"event {index}: stream starts with {kind!r}, "
                    "expected 'run_start'"
                )
        seq = event.get("seq")
        if isinstance(seq, int):
            if last_seq is not None and seq <= last_seq:
                errors.append(
                    f"event {index}: seq {seq} not greater than {last_seq}"
                )
            last_seq = seq
        rid = event.get("run_id")
        if isinstance(rid, str) and rid:
            if run_id is None:
                run_id = rid
            elif rid != run_id:
                errors.append(
                    f"event {index}: run_id {rid!r} differs from {run_id!r}"
                )
    return errors
