"""Continuous profiling: sampling profiler, folded stacks, flamegraphs,
and the per-run algorithm-phase attribution table.

This is the repo's one profiler: a **statistical** profiler that
samples the running thread's Python stack from a background daemon
thread via ``sys._current_frames()`` at :data:`PROF_DEFAULT_HZ`.
Exact call counts come from the metrics counters instead (the phase
table's per-move line), so no tracing profiler distorts the wall-clock
shape being measured.  Design constraints, in order:

1. **Zero interference with the solve.**  The profiled thread executes
   no extra bytecode; the sampler only *reads* frames from another
   thread.  Assignments are therefore bit-identical with profiling on
   (asserted by the ``run`` arm of the ``instrumentation_overhead``
   bench case), and the overhead at the default rate is GIL-contention
   only.
2. **Deterministic output.**  Samples aggregate into a dict keyed by the
   frame-label tuple; :meth:`SamplingProfiler.folded` sorts stacks
   lexicographically, so two dumps of the same aggregation are
   byte-identical (the *sampling* is inherently timing-dependent; the
   *rendering* is not).
3. **Zero dependencies.**  Folded-stack text (one ``frame;frame;frame
   count`` line per unique stack — the interchange format every
   flamegraph tool reads) and a hand-rolled SVG flamegraph in the
   ``repro.analysis.svg`` idiom: stdlib only, deterministic, viewable in
   any browser.

Phase attribution is the second half: the sampler answers "which
function", the phase table answers "which *algorithm phase*".  The
partitioner and builders record ``fpart.phase.*`` timers (see
DESIGN.md §12); :func:`phase_table` rolls a metrics snapshot up into a
two-level phase tree checked against measured wall, and
``fpart report --phases`` renders it.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PROF_DEFAULT_HZ",
    "SamplingProfiler",
    "fold_stacks",
    "parse_folded",
    "render_flamegraph",
    "PhaseRow",
    "phase_table",
    "render_phase_table",
    "attributed_fraction",
]

#: Default sampling rate.  A prime (not a divisor of common timer or
#: pass periods) so samples do not phase-lock with periodic work; 97 Hz
#: keeps the sampler thread's own CPU cost negligible while resolving
#: phases that last a few tens of milliseconds.
PROF_DEFAULT_HZ = 97


def _frame_label(frame: "sys._FrameType") -> str:  # type: ignore[name-defined]
    """``module.function`` label of one frame.

    The module name comes from the frame's globals (not the filename),
    so labels are stable across checkouts and virtualenvs.
    """
    name = frame.f_globals.get("__name__", "?")
    return f"{name}.{frame.f_code.co_name}"


class SamplingProfiler:
    """Background-thread sampling profiler over ``sys._current_frames()``.

    Samples one target thread (by default, the thread that calls
    :meth:`start`) at ``hz`` samples per second.  Usable as a context
    manager::

        prof = SamplingProfiler(hz=97)
        with prof:
            result = partitioner.run()
        Path("out.folded").write_text(prof.folded())

    The sampler thread is a daemon: an exception that escapes the
    profiled section can never leave a non-daemon thread keeping the
    process alive.  ``stop()`` is idempotent and joins the thread, so
    all samples are visible once it returns.
    """

    def __init__(self, hz: float = PROF_DEFAULT_HZ,
                 target_thread_id: Optional[int] = None) -> None:
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.hz = float(hz)
        self.interval = 1.0 / float(hz)
        self._target_thread_id = target_thread_id
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.samples = 0
        self.started_at: Optional[float] = None
        self.wall_seconds = 0.0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._target_thread_id is None:
            self._target_thread_id = threading.get_ident()
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-prof", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join()
        self._thread = None
        if self.started_at is not None:
            self.wall_seconds += time.perf_counter() - self.started_at
            self.started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- sampling --------------------------------------------------------

    def _sample_loop(self) -> None:
        target = self._target_thread_id
        counts = self._counts
        interval = self.interval
        wait = self._stop.wait
        while not wait(interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue  # target thread finished; keep waiting for stop
            stack: List[str] = []
            while frame is not None:
                stack.append(_frame_label(frame))
                frame = frame.f_back
            stack.reverse()
            key = tuple(stack)
            counts[key] = counts.get(key, 0) + 1
            self.samples += 1

    # -- output ----------------------------------------------------------

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """Aggregated samples: frame-label tuple (root first) → count."""
        return dict(self._counts)

    def folded(self, trim_prefix: Optional[Sequence[str]] = None) -> str:
        """Folded-stack text, stacks sorted lexicographically.

        ``trim_prefix`` drops leading interpreter/CLI scaffolding frames
        (everything up to and including the last frame whose label is in
        the set) so flamegraphs root at the interesting call, not at
        ``runpy._run_code``.  Stacks that do not contain a trim frame
        are kept whole.
        """
        return fold_stacks(self._counts, trim_prefix=trim_prefix)


def fold_stacks(
    counts: Dict[Tuple[str, ...], int],
    trim_prefix: Optional[Sequence[str]] = None,
) -> str:
    """Render an aggregation dict as folded-stack text (sorted)."""
    trim = set(trim_prefix or ())
    merged: Dict[Tuple[str, ...], int] = {}
    for stack, n in counts.items():
        if trim:
            cut = 0
            for i, label in enumerate(stack):
                if label in trim:
                    cut = i + 1
            stack = stack[cut:] or stack
        merged[stack] = merged.get(stack, 0) + n
    lines = [
        ";".join(stack) + f" {n}"
        for stack, n in sorted(merged.items())
        if stack
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_folded(text: str) -> List[Tuple[Tuple[str, ...], int]]:
    """Parse folded-stack text back into ``[(stack, count)]``.

    Comment lines (``# ...``) and blank lines are skipped, so profile
    files may carry a metadata header (the serve profile-on-slow capture
    stamps its trace_id this way).  Raises ``ValueError`` on a malformed
    sample line.
    """
    out: List[Tuple[Tuple[str, ...], int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stack_part, sep, count_part = line.rpartition(" ")
        if not sep or not stack_part:
            raise ValueError(f"malformed folded line {lineno}: {line!r}")
        try:
            count = int(count_part)
        except ValueError:
            raise ValueError(
                f"malformed folded count on line {lineno}: {count_part!r}"
            )
        out.append((tuple(stack_part.split(";")), count))
    return out


# -- flamegraph SVG ------------------------------------------------------

_FLAME_WIDTH = 960
_FLAME_ROW = 16
_FLAME_MARGIN = 8
_FLAME_MIN_PX = 0.5
#: Warm flame palette; a frame's colour is picked by a deterministic
#: checksum of its label (same function → same colour across renders,
#: no PYTHONHASHSEED dependence).
_FLAME_COLORS = (
    "#d43b3b", "#d4663b", "#d4913b", "#d4b23b",
    "#c7763b", "#d4503b", "#b2543b", "#d4813b",
)


def _flame_color(label: str) -> str:
    checksum = 0
    for ch in label:
        checksum = (checksum * 131 + ord(ch)) & 0xFFFFFF
    return _FLAME_COLORS[checksum % len(_FLAME_COLORS)]


class _FlameNode:
    __slots__ = ("label", "value", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        self.value = 0
        self.children: Dict[str, "_FlameNode"] = {}


def _build_flame_tree(
    samples: Sequence[Tuple[Tuple[str, ...], int]]
) -> _FlameNode:
    root = _FlameNode("all")
    for stack, count in samples:
        root.value += count
        node = root
        for label in stack:
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _FlameNode(label)
            child.value += count
            node = child
    return root


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_flamegraph(folded: str, title: str = "fpart flamegraph") -> str:
    """Hand-rolled flamegraph SVG from folded-stack text.

    Same conventions as ``repro.analysis.svg``: stdlib-only, monospace,
    white background, fully deterministic for a given input.  Width is
    proportional to sample count; frames narrower than half a pixel are
    culled; every rect carries a ``<title>`` tooltip with the full label
    and sample count, so the SVG is explorable in a browser without any
    JavaScript.
    """
    samples = parse_folded(folded)
    root = _build_flame_tree(samples)
    depth = _tree_depth(root)
    height = _FLAME_MARGIN * 2 + _FLAME_ROW * (depth + 2)
    total = max(root.value, 1)
    x_span = _FLAME_WIDTH - 2 * _FLAME_MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_FLAME_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_FLAME_WIDTH} {height}" '
        'font-family="monospace" font-size="11">',
        f'<title>{_escape(title)}</title>',
        f'<rect x="0" y="0" width="{_FLAME_WIDTH}" height="{height}" '
        'fill="white"/>',
        f'<text x="{_FLAME_WIDTH // 2}" y="{_FLAME_MARGIN + 11}" '
        f'text-anchor="middle">{_escape(title)} '
        f'({root.value} samples)</text>',
    ]
    base_y = height - _FLAME_MARGIN - _FLAME_ROW

    def emit(node: _FlameNode, x: float, y: float) -> None:
        width = x_span * node.value / total
        if width < _FLAME_MIN_PX:
            return
        color = "#3b6fd4" if node.label == "all" else _flame_color(node.label)
        parts.append(
            f'<g><rect x="{x:.1f}" y="{y:.1f}" width="{width:.1f}" '
            f'height="{_FLAME_ROW - 1}" fill="{color}" rx="1"/>'
            f'<title>{_escape(node.label)} ({node.value} samples, '
            f'{100.0 * node.value / total:.1f}%)</title>'
        )
        # ~6.2 px/char at font-size 11 monospace; label only when it fits.
        max_chars = int((width - 4) / 6.2)
        if max_chars >= 3:
            label = node.label
            if len(label) > max_chars:
                label = label[: max_chars - 1] + "…"
            parts.append(
                f'<text x="{x + 2:.1f}" y="{y + _FLAME_ROW - 5:.1f}" '
                f'fill="white">{_escape(label)}</text>'
            )
        parts.append("</g>")
        child_x = x
        for label in sorted(node.children):
            child = node.children[label]
            emit(child, child_x, y - _FLAME_ROW)
            child_x += x_span * child.value / total

    emit(root, _FLAME_MARGIN, base_y)
    parts.append("</svg>")
    return "\n".join(parts)


def _tree_depth(node: _FlameNode) -> int:
    if not node.children:
        return 1
    return 1 + max(_tree_depth(child) for child in node.children.values())


# -- phase attribution ---------------------------------------------------

#: Top-level algorithm phases of one FPART run, in pipeline order.  Each
#: entry is ``(display name, timer key, sub-phase timer prefix)`` —
#: sub-phases are every timer under the prefix (builder names, the
#: candidate-evaluation slot, the Sanchis pass timer aliased below).
_TOP_PHASES = (
    ("bipartition", "fpart.phase.bipartition", "fpart.phase.bipartition."),
    ("improve", "fpart.phase.improve", "fpart.phase.improve."),
)

#: Timers recorded outside the ``fpart.phase.*`` namespace that are
#: really sub-phases: the Sanchis engine's per-pass timer belongs under
#: ``improve``.
_PHASE_ALIASES = {"sanchis.pass_seconds": "fpart.phase.improve.pass"}


@dataclass
class PhaseRow:
    """One row of the per-run phase table."""

    name: str
    seconds: float
    count: int
    depth: int = 0
    children: List["PhaseRow"] = field(default_factory=list)


def phase_table(
    snapshot: Dict[str, Dict[str, object]],
    wall_seconds: Optional[float] = None,
) -> List[PhaseRow]:
    """Roll a metrics snapshot up into the two-level phase tree.

    Returns top-level rows (pipeline order) plus a trailing ``other``
    row holding the unattributed remainder when ``wall_seconds`` is
    known.  Sub-phase rows nest under their parent, sorted by name.
    """
    timers: Dict[str, Dict[str, object]] = dict(snapshot.get("timers", {}))
    for alias_from, alias_to in _PHASE_ALIASES.items():
        if alias_from in timers and alias_to not in timers:
            timers[alias_to] = timers[alias_from]
    rows: List[PhaseRow] = []
    for display, key, prefix in _TOP_PHASES:
        entry = timers.get(key)
        if entry is None:
            continue
        row = PhaseRow(
            name=display,
            seconds=float(entry["total_seconds"]),
            count=int(entry["count"]),
        )
        for sub_key in sorted(timers):
            if not sub_key.startswith(prefix):
                continue
            sub = timers[sub_key]
            row.children.append(
                PhaseRow(
                    name=sub_key[len(prefix):],
                    seconds=float(sub["total_seconds"]),
                    count=int(sub["count"]),
                    depth=1,
                )
            )
        rows.append(row)
    if wall_seconds is not None:
        attributed = sum(row.seconds for row in rows)
        rows.append(
            PhaseRow(
                name="other",
                seconds=max(wall_seconds - attributed, 0.0),
                count=0,
            )
        )
    return rows


def attributed_fraction(
    snapshot: Dict[str, Dict[str, object]], wall_seconds: float
) -> float:
    """Fraction of measured wall covered by the top-level phase timers."""
    if wall_seconds <= 0:
        return 0.0
    rows = phase_table(snapshot)
    return sum(row.seconds for row in rows) / wall_seconds


def render_phase_table(
    snapshot: Dict[str, Dict[str, object]],
    wall_seconds: Optional[float] = None,
    run_id: str = "",
) -> str:
    """Terminal rendering of the phase table (``fpart report --phases``).

    Percentages are of measured wall when known, of attributed time
    otherwise; the footer states the attributed fraction explicitly —
    the ≥95% contract this repo holds itself to (DESIGN.md §12) — and,
    when the run tried Sanchis moves, the whole-run wall per move tried
    (the ``sanchis.moves_tried`` counter).
    """
    rows = phase_table(snapshot, wall_seconds=wall_seconds)
    if not rows:
        return "no phase timers recorded (run with --metrics or --runs-dir)"
    denom = wall_seconds
    if denom is None or denom <= 0:
        denom = sum(row.seconds for row in rows) or 1.0
    lines: List[str] = []
    title = "phase breakdown"
    if run_id:
        title += f" — run {run_id}"
    lines.append(title)
    lines.append(f"{'phase':<28} {'seconds':>10} {'%wall':>7} {'count':>8}")
    lines.append("-" * 56)
    for row in rows:
        lines.append(
            f"{row.name:<28} {row.seconds:>10.3f} "
            f"{100.0 * row.seconds / denom:>6.1f}% {row.count:>8}"
        )
        for child in row.children:
            lines.append(
                f"  {child.name:<26} {child.seconds:>10.3f} "
                f"{100.0 * child.seconds / denom:>6.1f}% {child.count:>8}"
            )
    if wall_seconds is not None and wall_seconds > 0:
        attributed = sum(r.seconds for r in rows if r.name != "other")
        lines.append("-" * 56)
        lines.append(
            f"{'wall':<28} {wall_seconds:>10.3f} {100.0:>6.1f}%"
        )
        lines.append(
            f"attributed: {100.0 * attributed / wall_seconds:.1f}% of wall"
        )
        moves = snapshot.get("counters", {}).get("sanchis.moves_tried", 0)
        if moves:
            lines.append(
                f"per-move: {wall_seconds / moves * 1e6:.2f} us "
                f"({moves} moves tried, whole-run wall / moves)"
            )
    return "\n".join(lines)
