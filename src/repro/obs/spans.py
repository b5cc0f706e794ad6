"""Span/correlation-ID tracing across the service stack.

The batch-side telemetry (``repro.obs.trace``) describes *one
partitioning run*; this module adds the layer above it: **spans** —
named, nested intervals with a shared *trace id* — so one submitted job
can be followed from the HTTP request through admission, queueing,
scheduling, each worker attempt and the in-worker partition run, down
to its terminal state.  One trace id joins all four telemetry surfaces
of the daemon:

* the JSON access log line of the submitting request,
* every journal record of the job (``Job.trace_id``),
* the job's per-run JSONL trace (``span_start``/``span_end`` events),
* its :class:`~repro.obs.runstore.RunStore` record
  (``labels["trace_id"]``).

Spans are written by the one event writer,
:class:`~repro.obs.trace.TraceWriter` (``start_span``/``end_span``),
with the trace envelope and its epoch-seconds clock:

* **service side** — the daemon's writer appends to
  ``<state-dir>/spans.jsonl`` (one ``run_id`` per daemon generation;
  the HTTP handlers and the scheduler share it);
* **worker side** — the run's writer puts the ``partition-run`` span
  into the job's ``trace.jsonl``, which is how the trace schema
  carries the service correlation id across the ``multiprocessing``
  boundary.

Both files share one clock, so their concatenation is one span tree
whose intervals nest: the worker's ``partition-run`` lies inside the
daemon's ``attempt[n]``.

ID propagation protocol
-----------------------
The trace id is minted (or accepted via the ``X-Trace-Id`` request
header) by the HTTP layer, stored on the job record — and therefore in
every journal line that snapshots the job — and forwarded to the worker
as plain ``run_partition_job`` keyword arguments together with the
parent (attempt) span id.  Span ids of *open* spans are kept in
``Job.open_spans`` and journalled with the ``admitted`` state event, so
a daemon that is SIGKILL'd mid-attempt can close the orphaned attempt
span with status ``"crashed"`` during journal replay — a span stream
never ends with a silently dangling interval.

:func:`build_span_tree` / :func:`render_span_tree` reconstruct and
pretty-print the tree from any event iterable (service span log, worker
trace, or a merged stream); traces without span events (batch runs)
degrade to an explicit "no span events" rendering rather than an error.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "SPAN_EVENT_TYPES",
    "new_trace_id",
    "new_span_id",
    "SpanNode",
    "build_span_tree",
    "render_span_tree",
]

#: The two span event types (shared with ``repro.obs.trace.EVENT_TYPES``).
SPAN_EVENT_TYPES = ("span_start", "span_end")


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace (correlation) id."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-digit span id (unique within one trace)."""
    return uuid.uuid4().hex[:8]


# ---------------------------------------------------------------------------
# Tree reconstruction & rendering
# ---------------------------------------------------------------------------

#: Envelope keys that are not span attributes when building trees.
_ENVELOPE_KEYS = frozenset(
    {
        "schema", "seq", "event", "run_id",
        "t", "trace_id", "span_id", "parent_id", "name", "status",
    }
)


@dataclass
class SpanNode:
    """One reconstructed span: identity, interval, status, children."""

    span_id: str
    trace_id: str = ""
    parent_id: str = ""
    name: str = "?"
    start_t: Optional[float] = None
    end_t: Optional[float] = None
    status: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end; ``None`` while either is missing."""
        if self.start_t is None or self.end_t is None:
            return None
        return max(self.end_t - self.start_t, 0.0)


def build_span_tree(
    events: Iterable[dict], unclosed_status: str = "open"
) -> List[SpanNode]:
    """Reconstruct span trees from any event stream (roots returned).

    Non-span events are ignored, so a worker ``trace.jsonl`` can be fed
    in unfiltered.  A ``span_end`` without a matching start still
    produces a node (end-only data beats no data); a start without an
    end keeps ``status=None`` and reports ``unclosed_status`` when
    rendered.  Orphans (parent id never seen) become roots.  Roots and
    children are ordered by start time, unstarted nodes last.
    """
    nodes: Dict[str, SpanNode] = {}
    order: List[str] = []
    for event in events:
        kind = event.get("event")
        if kind not in SPAN_EVENT_TYPES:
            continue
        span_id = str(event.get("span_id", ""))
        node = nodes.get(span_id)
        if node is None:
            node = nodes[span_id] = SpanNode(span_id=span_id)
            order.append(span_id)
        attrs = {
            k: v for k, v in event.items() if k not in _ENVELOPE_KEYS
        }
        if kind == "span_start":
            node.trace_id = str(event.get("trace_id", node.trace_id))
            node.parent_id = str(event.get("parent_id", node.parent_id))
            node.name = str(event.get("name", node.name))
            node.start_t = float(event.get("t", 0.0))
        else:
            node.trace_id = node.trace_id or str(event.get("trace_id", ""))
            node.end_t = float(event.get("t", 0.0))
            node.status = str(event.get("status", "?"))
        node.attrs.update(attrs)

    roots: List[SpanNode] = []
    for span_id in order:
        node = nodes[span_id]
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)

    def sort_key(node: SpanNode):
        return (node.start_t is None, node.start_t or 0.0, node.span_id)

    def sort_rec(items: List[SpanNode]) -> None:
        items.sort(key=sort_key)
        for item in items:
            sort_rec(item.children)

    sort_rec(roots)
    if unclosed_status:
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node.status is None:
                node.status = unclosed_status
            stack.extend(node.children)
    return roots


def _render_node(node: SpanNode, depth: int, lines: List[str]) -> None:
    duration = node.duration
    took = f"{duration * 1000:.1f}ms" if duration is not None else "?"
    extras = ""
    if node.attrs:
        pairs = ", ".join(
            f"{k}={node.attrs[k]}" for k in sorted(node.attrs)
        )
        extras = f"  [{pairs}]"
    lines.append(
        f"{'  ' * depth}{node.name}  ({took}, {node.status}, "
        f"span {node.span_id or '?'}){extras}"
    )
    for child in node.children:
        _render_node(child, depth + 1, lines)


def render_span_tree(events: Iterable[dict]) -> str:
    """Human-readable span tree of an event stream.

    A stream with no span events at all (every batch-mode trace) renders
    as an explicit one-line notice — the degenerate case is a valid
    input, not an error.
    """
    roots = build_span_tree(events)
    if not roots:
        return "(no span events)"
    lines: List[str] = []
    trace_ids = sorted({r.trace_id for r in roots if r.trace_id})
    if trace_ids:
        lines.append(f"trace {', '.join(trace_ids)}")
    for root in roots:
        _render_node(root, 0 if not trace_ids else 1, lines)
    return "\n".join(lines)
