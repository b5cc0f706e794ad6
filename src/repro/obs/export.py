"""Exporters: OpenMetrics text format and Chrome-tracing JSON.

Two zero-dependency bridges from the repo's native telemetry formats to
the ecosystem's standard viewers:

* :func:`to_openmetrics` renders any :meth:`MetricsRegistry.snapshot`
  dict as the OpenMetrics text exposition format (the Prometheus
  node-exporter *textfile collector* input), so a cron of partitioning
  runs can drop ``.prom`` files on a scrape target.  Counters map to
  counter families (``_total`` sample suffix), gauges to gauges, timers
  to summaries (``_count``/``_sum``) and fixed-bucket histograms to
  cumulative ``le``-bucketed histogram families.  The document ends
  with the mandatory ``# EOF`` terminator and
  :func:`validate_openmetrics` line-checks a rendered document (used by
  tests and the CI observability job).

* :func:`trace_to_chrome` converts a JSONL trace stream (see
  :mod:`repro.obs.trace`) into the catapult *Trace Event Format* JSON
  object, so pass/move-batch timelines open directly in
  ``chrome://tracing`` or Perfetto: engine passes become duration
  (``"X"``) events on one track, discrete events become instants on a
  second, and the lexicographic ``d_k``/``T_SUM`` series become counter
  (``"C"``) tracks plotted over run time.  Two optional side channels
  merge onto the same timeline: service *span* events from a
  ``spans.jsonl`` sibling (job/attempt lifecycle as ``"X"`` slices on
  their own track, on the trace's own clock) and a sampled *profile*
  (folded stacks laid out as nested thread slices, each stack weighted
  by its sample count — a flame chart inside the trace viewer).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .runstore import atomic_write_text
from .spans import build_span_tree

__all__ = [
    "to_openmetrics",
    "write_openmetrics",
    "validate_openmetrics",
    "parse_openmetrics",
    "trace_to_chrome",
    "spans_to_chrome_events",
    "profile_to_chrome_events",
    "write_chrome_trace",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Sample line of the text format: name, optional label set, value,
#: optional timestamp.  Values may be numbers, +Inf/-Inf or NaN.
_SAMPLE_LINE = re.compile(
    r"[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\})?"  # labels
    r" (?:[-+]?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?"
    r"|[-+]?Inf|NaN)"  # value
    r"( [0-9]+(\.[0-9]+)?)?\Z"  # optional timestamp
)
_COMMENT_LINE = re.compile(
    r"# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|unknown|info|stateset)"
    r"|EOF)\Z"
)


def _metric_name(dotted: str) -> str:
    """OpenMetrics-legal metric name from a dotted instrument name."""
    name = _SANITIZE.sub("_", dotted)
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_metric_name(k)}="{_escape_label(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


#: One ``name="escaped value"`` pair inside a label string.
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')


def _split_key(key: str) -> "Tuple[str, str]":
    """Split a registry key into (family name, raw label inner string).

    Registry keys produced by :func:`repro.obs.metrics.labelled_key`
    carry their label set in OpenMetrics syntax after the first ``{``;
    plain dotted names have no labels.
    """
    brace = key.find("{")
    if brace < 0 or not key.endswith("}"):
        return key, ""
    return key[:brace], key[brace + 1 : -1]


def _merge_label_inner(base: Dict[str, str], key_inner: str) -> str:
    """Combine base labels with a key's own labels (sorted by name).

    Key-side values are already escaped (they came from
    ``labelled_key``); base values are escaped here.  A name collision
    resolves in favour of the instrument's own label — the per-sample
    fact beats the document-wide default.
    """
    pairs = {
        _metric_name(k): _escape_label(v) for k, v in base.items()
    }
    for match in _LABEL_PAIR.finditer(key_inner):
        pairs[match.group(1)] = match.group(2)
    if not pairs:
        return ""
    return "{" + ",".join(
        f'{name}="{value}"' for name, value in sorted(pairs.items())
    ) + "}"


def to_openmetrics(
    snapshot: Dict[str, Dict],
    labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a metrics snapshot as an OpenMetrics text document.

    ``labels`` (e.g. ``{"run_id": ..., "circuit": ...}``) are attached
    to every sample.  Registry keys may carry their own label sets
    (``serve.active{tenant="acme"}`` — see
    :func:`repro.obs.metrics.labelled_key`); per-key labels are merged
    over the document labels and the ``# TYPE`` line is emitted once
    per family, with every labelled sample of the family grouped under
    it.  Families are emitted in sorted-name order so the same snapshot
    always renders byte-identically.
    """
    labels = labels or {}
    lines: List[str] = []

    def grouped(section: str) -> List[Tuple[str, str, str, str]]:
        """(family, sample labels, key labels, key) rows, family-grouped."""
        out = []
        for key in snapshot.get(section, {}):
            family_dotted, inner = _split_key(key)
            out.append(
                (
                    _metric_name(family_dotted),
                    _merge_label_inner(labels, inner),
                    inner,
                    key,
                )
            )
        out.sort()
        return out

    seen_counters: set = set()
    for family, sample_labels, _inner, key in grouped("counters"):
        if family not in seen_counters:
            seen_counters.add(family)
            lines.append(f"# TYPE {family} counter")
        value = snapshot["counters"][key]
        lines.append(f"{family}_total{sample_labels} {_fmt(value)}")

    seen_gauges: set = set()
    for family, sample_labels, _inner, key in grouped("gauges"):
        if family not in seen_gauges:
            seen_gauges.add(family)
            lines.append(f"# TYPE {family} gauge")
        value = snapshot["gauges"][key]
        lines.append(f"{family}{sample_labels} {_fmt(value)}")

    seen_summaries: set = set()
    for family, sample_labels, _inner, key in grouped("timers"):
        timer = snapshot["timers"][key]
        if family not in seen_summaries:
            seen_summaries.add(family)
            lines.append(f"# TYPE {family} summary")
        lines.append(f"{family}_count{sample_labels} {_fmt(timer['count'])}")
        lines.append(
            f"{family}_sum{sample_labels} {_fmt(timer['total_seconds'])}"
        )

    seen_histograms: set = set()
    for family, sample_labels, inner, key in grouped("histograms"):
        hist = snapshot["histograms"][key]
        if family not in seen_histograms:
            seen_histograms.add(family)
            lines.append(f"# TYPE {family} histogram")
        cumulative = int(hist.get("underflow", 0))
        lo = int(hist["lo"])
        width = int(hist.get("width", 1))
        for i, count in enumerate(hist["counts"]):
            cumulative += int(count)
            upper = lo + (i + 1) * width
            bucket_labels = _merge_label_inner(
                {**labels, "le": str(float(upper))}, inner
            )
            lines.append(f"{family}_bucket{bucket_labels} {cumulative}")
        inf_labels = _merge_label_inner({**labels, "le": "+Inf"}, inner)
        lines.append(f"{family}_bucket{inf_labels} {_fmt(hist['total'])}")
        lines.append(f"{family}_count{sample_labels} {_fmt(hist['total'])}")
        lines.append(f"{family}_sum{sample_labels} {_fmt(hist['sum'])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    path: Union[str, Path],
    snapshot: Dict[str, Dict],
    labels: Optional[Dict[str, str]] = None,
) -> Path:
    """Atomically write the rendered document; returns the path."""
    return atomic_write_text(path, to_openmetrics(snapshot, labels))


def validate_openmetrics(text: str) -> List[str]:
    """Line-format errors of an OpenMetrics document (empty = valid).

    Checks every line against the exposition grammar (comment lines,
    sample lines) and the document framing (non-empty, single ``# EOF``
    terminator as the last line).
    """
    errors: List[str] = []
    lines = text.splitlines()
    if not lines:
        return ["document is empty"]
    eof_lines = [i for i, line in enumerate(lines) if line == "# EOF"]
    if not eof_lines:
        errors.append("missing '# EOF' terminator")
    elif eof_lines[-1] != len(lines) - 1:
        errors.append("'# EOF' is not the last line")
    if len(eof_lines) > 1:
        errors.append("multiple '# EOF' lines")
    if text and not text.endswith("\n"):
        errors.append("document must end with a newline")
    for lineno, line in enumerate(lines, 1):
        if not line:
            errors.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            if not _COMMENT_LINE.match(line):
                errors.append(f"line {lineno}: malformed comment: {line!r}")
            continue
        if not _SAMPLE_LINE.match(line):
            errors.append(f"line {lineno}: malformed sample: {line!r}")
    return errors


_UNESCAPE = re.compile(r"\\(.)")


def _unescape_label(value: str) -> str:
    return _UNESCAPE.sub(
        lambda m: {"n": "\n"}.get(m.group(1), m.group(1)), value
    )


def parse_openmetrics(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse an exposition document into (name, labels, value) samples.

    The consumer side of :func:`to_openmetrics` — enough of a parser
    for ``fpart top`` to scrape the daemon's ``/metrics`` endpoint and
    for tests to assert on rendered values without string matching.
    Comment lines (``# TYPE``/``# HELP``/``# EOF``) are skipped; a line
    that fails the sample grammar raises ``ValueError`` with its line
    number.  Label values are unescaped; sample order is preserved.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        if not _SAMPLE_LINE.match(line):
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        brace = line.find("{")
        if brace >= 0:
            name = line[:brace]
            close = line.rfind("}")
            inner = line[brace + 1 : close]
            rest = line[close + 1 :].strip()
            labels = {
                match.group(1): _unescape_label(match.group(2))
                for match in _LABEL_PAIR.finditer(inner)
            }
        else:
            name, rest = line.split(" ", 1)
            labels = {}
        value_text = rest.split(" ")[0]
        samples.append((name, labels, float(value_text)))
    return samples


# ---------------------------------------------------------------------------
# Chrome tracing (catapult Trace Event Format)
# ---------------------------------------------------------------------------

_PID = 1
_TID_PASSES = 1
_TID_EVENTS = 2
_TID_SPANS = 3
_TID_PROFILE = 4

#: Cost components plotted as counter tracks, with their trace names.
_COUNTER_TRACKS = (("d_k", "d_k"), ("t_sum", "T_SUM"))


def _us(t_seconds: float) -> float:
    return round(float(t_seconds) * 1e6, 1)


def trace_to_chrome(
    events: Iterable[dict],
    spans: Optional[Iterable[dict]] = None,
    profile: Optional[str] = None,
) -> dict:
    """Convert a parsed JSONL trace into a catapult trace object.

    Engine passes (``pass_start`` … next ``pass_start``/``run_end``)
    become complete (``"X"``) events on the "passes" track; every other
    event becomes an instant (``"i"``) on the "events" track; the
    ``d_k``/``T_SUM`` series of pass-entry costs become counter
    (``"C"``) tracks.  The result serialises with ``json.dumps`` and
    loads directly in ``chrome://tracing`` / Perfetto.

    ``spans`` merges service span events (``span_start``/``span_end``
    rows from a ``spans.jsonl``, see :mod:`repro.obs.spans`) onto a
    "service spans" track; ``profile`` merges a folded-stack profile
    (string, see :mod:`repro.obs.prof`) as nested slices on a
    "profile (sampled)" track, each stack weighted by ``count /
    PROF_DEFAULT_HZ`` seconds.  Trace and spans share one clock, so
    both are re-based on one origin — the earliest ``t`` of either —
    and every slice is an exact offset on the shared axis.
    """
    events = list(events)
    span_events = list(spans) if spans is not None else []
    origin = min(
        (float(e["t"]) for e in events + span_events if "t" in e),
        default=0.0,
    )
    events = _rebased(events, origin)
    span_events = _rebased(span_events, origin)
    trace_events: List[dict] = []
    run_id = ""
    process_name = "fpart"
    for event in events:
        if event.get("event") == "run_start":
            run_id = event.get("run_id", "")
            process_name = (
                f"fpart {event.get('circuit', '?')}/{event.get('device', '?')}"
            )
            break

    trace_events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    )
    tracks = [(_TID_PASSES, "passes"), (_TID_EVENTS, "events")]
    if span_events:
        tracks.append((_TID_SPANS, "service spans"))
    if profile:
        tracks.append((_TID_PROFILE, "profile (sampled)"))
    for tid, name in tracks:
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": name},
            }
        )

    open_pass: Optional[dict] = None
    last_t = 0.0

    def close_pass(end_t: float) -> None:
        nonlocal open_pass
        if open_pass is None:
            return
        start_t = open_pass["t"]
        trace_events.append(
            {
                "ph": "X",
                "name": f"pass {open_pass.get('pass_index', '?')}",
                "cat": "pass",
                "pid": _PID,
                "tid": _TID_PASSES,
                "ts": _us(start_t),
                "dur": max(_us(end_t) - _us(start_t), 0.0),
                "args": {
                    "blocks": open_pass.get("blocks"),
                    "cost": open_pass.get("cost"),
                },
            }
        )
        open_pass = None

    for event in events:
        kind = event.get("event")
        t = float(event.get("t", last_t))
        last_t = max(last_t, t)
        if kind == "pass_start":
            close_pass(t)
            open_pass = event
            cost = event.get("cost") or {}
            for key, track in _COUNTER_TRACKS:
                if key in cost:
                    trace_events.append(
                        {
                            "ph": "C",
                            "name": track,
                            "pid": _PID,
                            "tid": 0,
                            "ts": _us(t),
                            "args": {track: float(cost[key])},
                        }
                    )
            continue
        if kind == "run_end":
            close_pass(t)
        args = {
            k: v
            for k, v in event.items()
            if k not in ("schema", "seq", "t", "event", "run_id")
        }
        trace_events.append(
            {
                "ph": "i",
                "s": "p",
                "name": kind or "?",
                "cat": "event",
                "pid": _PID,
                "tid": _TID_EVENTS,
                "ts": _us(t),
                "args": args,
            }
        )
    close_pass(last_t)
    if span_events:
        trace_events.extend(spans_to_chrome_events(span_events))
    if profile:
        trace_events.extend(profile_to_chrome_events(profile))

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id},
    }


def _rebased(events: List[dict], origin: float) -> List[dict]:
    """Copies of ``events`` with ``t`` measured from ``origin``."""
    return [
        {**e, "t": float(e["t"]) - origin} if "t" in e else e
        for e in events
    ]


def spans_to_chrome_events(
    span_events: Iterable[dict], tid: int = _TID_SPANS
) -> List[dict]:
    """Service span rows as complete (``"X"``) catapult events.

    Starts and ends are paired by :func:`~repro.obs.spans.build_span_tree`;
    each started span becomes one slice carrying trace/span/parent ids
    and the end status in ``args``, stamped with its own ``t`` (callers
    that merge tracks re-base first, as :func:`trace_to_chrome` does).
    A span with no matching end is emitted with the latest observed
    timestamp as its end and ``status: "open"`` — crashed attempts stay
    visible.
    """
    nodes = build_span_tree(span_events, unclosed_status="open")
    for node in nodes:  # breadth-first: the list grows as it is walked
        nodes.extend(node.children)
    last = max(
        (t for n in nodes for t in (n.start_t, n.end_t) if t is not None),
        default=0.0,
    )
    out: List[dict] = []
    for node in nodes:
        if node.start_t is None:
            continue  # an end without its start has no interval
        end_t = node.end_t if node.end_t is not None else last
        out.append(
            {
                "ph": "X",
                "name": node.name,
                "cat": "span",
                "pid": _PID,
                "tid": tid,
                "ts": _us(node.start_t),
                "dur": max(_us(end_t) - _us(node.start_t), 0.0),
                "args": {
                    "trace_id": node.trace_id,
                    "span_id": node.span_id,
                    "parent_id": node.parent_id,
                    "status": node.status,
                },
            }
        )
    return out


def profile_to_chrome_events(
    folded: str, tid: int = _TID_PROFILE
) -> List[dict]:
    """A folded-stack profile as nested thread slices (flame chart).

    Aggregated samples have counts, not timestamps, so the layout is
    *weighted*, not chronological: stacks are laid side by side in
    sorted order, each occupying ``count / PROF_DEFAULT_HZ`` seconds of
    synthetic track time (every producer samples at that one rate),
    with one nested slice per frame.  The result reads exactly like a
    flamegraph inside the trace viewer; slice positions do not
    correspond to when the samples were taken.
    """
    from .prof import PROF_DEFAULT_HZ, _build_flame_tree, parse_folded

    root = _build_flame_tree(parse_folded(folded))
    if root.value <= 0:
        return []
    interval = 1.0 / PROF_DEFAULT_HZ
    total = root.value
    out: List[dict] = []

    def emit(node, offset: float) -> None:
        child_offset = offset
        for label in sorted(node.children):
            child = node.children[label]
            seconds = child.value * interval
            out.append(
                {
                    "ph": "X",
                    "name": label,
                    "cat": "profile",
                    "pid": _PID,
                    "tid": tid,
                    "ts": _us(child_offset),
                    "dur": _us(seconds),
                    "args": {
                        "samples": child.value,
                        "pct": round(100.0 * child.value / total, 1),
                    },
                }
            )
            emit(child, child_offset)
            child_offset += seconds

    emit(root, 0.0)
    return out


def write_chrome_trace(
    path: Union[str, Path],
    events: Iterable[dict],
    spans: Optional[Iterable[dict]] = None,
    profile: Optional[str] = None,
) -> Path:
    """Atomically write the converted trace; returns the path."""
    return atomic_write_text(
        path,
        json.dumps(
            trace_to_chrome(events, spans=spans, profile=profile), indent=1
        )
        + "\n",
    )
