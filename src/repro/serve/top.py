"""``fpart top`` — a stdlib terminal dashboard for the serve daemon.

Polls the daemon's ``GET /metrics`` (OpenMetrics text, parsed with
:func:`repro.obs.export.parse_openmetrics`) and ``GET /stats`` and
renders a compact refresh-in-place view: queue depth, active jobs,
per-tenant load, counter *rates* (derived from deltas between polls),
and latency quantiles read off the cumulative histogram buckets.

Everything here is pure-function-over-samples so the renderer is unit
testable without a daemon: :func:`histogram_quantile` interpolates a
quantile from ``_bucket`` samples, :func:`render_top` turns two
consecutive snapshots into the screen text, and :func:`run_top` is the
thin loop that owns the terminal.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.export import parse_openmetrics

__all__ = [
    "discover_endpoint",
    "collect_samples",
    "counters_reset",
    "histogram_quantile",
    "render_top",
    "run_top",
]

#: Sample list as returned by ``parse_openmetrics``.
Samples = List[Tuple[str, Dict[str, str], float]]


def discover_endpoint(state_dir: str) -> Tuple[str, int]:
    """Read ``<state-dir>/serve.json`` (written by ``fpart serve``)."""
    path = Path(state_dir) / "serve.json"
    if not path.exists():
        raise FileNotFoundError(
            f"no serve.json under {state_dir!r} — is the daemon running?"
        )
    endpoint = json.loads(path.read_text(encoding="utf-8"))
    return str(endpoint["host"]), int(endpoint["port"])


def collect_samples(client) -> Tuple[Samples, Dict]:
    """One poll: parsed /metrics samples plus the /stats payload."""
    samples = parse_openmetrics(client.metrics_text())
    stats = client.stats().get("stats", {})
    return samples, stats


def _value(samples: Samples, name: str) -> float:
    for sample_name, _labels, value in samples:
        if sample_name == name:
            return value
    return 0.0


def _by_label(samples: Samples, name: str, label: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for sample_name, labels, value in samples:
        if sample_name == name and label in labels:
            out[labels[label]] = value
    return out


def histogram_quantile(
    samples: Samples, family: str, q: float
) -> Optional[float]:
    """Quantile (0 < ``q`` < 1) from ``<family>_bucket`` samples.

    Standard cumulative-bucket estimation: find the first bucket whose
    cumulative count covers ``q`` of the observations and interpolate
    linearly inside it (the +Inf bucket reports its lower edge — there
    is no upper edge to interpolate toward).  Returns ``None`` when the
    histogram has no observations.
    """
    buckets: List[Tuple[float, float]] = []
    for name, labels, value in samples:
        if name == f"{family}_bucket" and "le" in labels:
            le = labels["le"]
            upper = float("inf") if le == "+Inf" else float(le)
            buckets.append((upper, value))
    buckets.sort(key=lambda item: item[0])
    if not buckets or buckets[-1][1] <= 0:
        return None
    total = buckets[-1][1]
    rank = q * total
    previous_upper, previous_count = 0.0, 0.0
    for upper, count in buckets:
        if count >= rank:
            if upper == float("inf"):
                return previous_upper
            in_bucket = count - previous_count
            if in_bucket <= 0:
                return upper
            fraction = (rank - previous_count) / in_bucket
            return previous_upper + fraction * (upper - previous_upper)
        previous_upper, previous_count = upper, count
    return previous_upper


def _fmt_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1000:
        return f"{value / 1000:.2f}s"
    return f"{value:.0f}ms"


def _rate(
    now: Samples, before: Optional[Samples], name: str, elapsed: float
) -> str:
    current = _value(now, name)
    if before is None or elapsed <= 0:
        return f"{current:.0f}"
    delta = max(current - _value(before, name), 0.0)
    return f"{current:.0f} ({delta / elapsed:.1f}/s)"


def counters_reset(now: Samples, before: Optional[Samples]) -> bool:
    """True when any counter decreased since the prior poll.

    Counters are monotonic within one daemon lifetime, so a decrease
    can only mean the daemon restarted between polls.  Every delta in
    that frame is then meaningless — not just the negative ones — so
    the caller must discard the ``previous`` snapshot entirely and
    render the frame like a first frame (plain totals, no rates).
    """
    if before is None:
        return False
    current: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for name, labels, value in now:
        if name.endswith("_total"):
            current[(name, tuple(sorted(labels.items())))] = value
    for name, labels, value in before:
        if not name.endswith("_total"):
            continue
        key = (name, tuple(sorted(labels.items())))
        if key in current and current[key] < value:
            return True
    return False


def render_top(
    samples: Samples,
    stats: Dict,
    previous: Optional[Samples] = None,
    elapsed: float = 0.0,
) -> str:
    """Render one dashboard frame from a metrics + stats snapshot.

    ``previous``/``elapsed`` (the prior poll and the seconds since it)
    turn monotonic counters into per-second rates; the first frame
    shows plain totals.  A restart between polls (any counter lower
    than before, see :func:`counters_reset`) invalidates the whole
    baseline: the frame falls back to plain totals rather than showing
    clamped-to-zero rates that would hide real post-restart activity.
    """
    if counters_reset(samples, previous):
        previous, elapsed = None, 0.0
    states = stats.get("counts", {})
    lines = [
        "fpart top — partitioning service",
        "",
        "queue depth {:>6.0f}    active jobs {:>4.0f}    draining {}".format(
            _value(samples, "serve_queue_depth"),
            _value(samples, "serve_active_jobs"),
            "yes" if _value(samples, "serve_draining") else "no",
        ),
        "jobs: "
        + "  ".join(
            f"{state}={states.get(state, 0)}"
            for state in (
                "queued",
                "admitted",
                "running",
                "done",
                "degraded",
                "failed",
                "cancelled",
            )
        ),
        "",
        "counters (rate since last poll)",
        f"  submissions  {_rate(samples, previous, 'serve_submissions_total', elapsed)}",
        f"  completed    {_rate(samples, previous, 'serve_completed_total', elapsed)}",
        f"  dedup hits   {_rate(samples, previous, 'serve_dedup_hits_total', elapsed)}",
        f"  retries      {_rate(samples, previous, 'serve_retries_total', elapsed)}",
        f"  requeues     {_rate(samples, previous, 'serve_requeues_total', elapsed)}",
    ]
    rejected = _by_label(samples, "serve_rejected_total", "code")
    if rejected:
        lines.append(
            "  rejected     "
            + "  ".join(
                f"{code}={count:.0f}"
                for code, count in sorted(rejected.items())
            )
        )
    lines.extend(
        [
            "",
            "latency            p50       p95",
        ]
    )
    for title, family in (
        ("queue wait", "serve_queue_wait_ms"),
        ("attempt wall", "serve_attempt_wall_ms"),
        ("submit→done", "serve_submit_to_terminal_ms"),
    ):
        p50 = histogram_quantile(samples, family, 0.5)
        p95 = histogram_quantile(samples, family, 0.95)
        lines.append(f"  {title:<14} {_fmt_ms(p50):>9} {_fmt_ms(p95):>9}")
    tenants = _by_label(samples, "serve_tenant_active_jobs", "tenant")
    active_tenants = {t: n for t, n in tenants.items() if n > 0}
    if active_tenants:
        lines.append("")
        lines.append("tenants (active jobs)")
        for tenant, count in sorted(
            active_tenants.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"  {tenant:<20} {count:>4.0f}")
    return "\n".join(lines)


def run_top(
    client,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    out=None,
) -> int:
    """Dashboard loop: poll, render, repeat until Ctrl-C.

    ``iterations`` bounds the loop for tests and one-shot inspection
    (``fpart top --iterations 1``); ``None`` runs until interrupted.
    Refresh-in-place uses the ANSI clear-screen sequence only when
    writing to a TTY — piped output gets frames separated by blank
    lines instead of control codes.
    """
    import sys

    out = out if out is not None else sys.stdout
    is_tty = getattr(out, "isatty", lambda: False)()
    previous: Optional[Samples] = None
    previous_at = 0.0
    count = 0
    try:
        while iterations is None or count < iterations:
            samples, stats = collect_samples(client)
            now = time.monotonic()
            elapsed = now - previous_at if previous is not None else 0.0
            frame = render_top(samples, stats, previous, elapsed)
            if is_tty:
                out.write("\x1b[2J\x1b[H" + frame + "\n")
            else:
                out.write(frame + "\n\n")
            out.flush()
            previous, previous_at = samples, now
            count += 1
            if iterations is not None and count >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
