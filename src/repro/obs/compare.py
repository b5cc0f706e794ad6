"""Run-vs-run regression analysis over the run store.

The paper's evaluation is comparative (Tables 2–6 pit FPART against
k-way.x/FBB per circuit/device); this module gives the reproduction the
same discipline *across its own runs*: ``fpart compare`` pits a
candidate run against a baseline and renders a verdict a CI gate can
consume (exit 0 ok / 3 regression).

Quality is judged the way FPART itself judges solutions — by the
status, the device count against the lower bound, then the paper's
lexicographic tuple ``(f, d_k, T_SUM, d_k^E)``; see
:func:`quality_key`.  Wall-clock deltas are always reported but only
*gate* when the caller sets a slowdown threshold (two identical seeded
runs still differ by timer noise, so latency gating is opt-in with a
configurable noise floor).  Counter diffs between the two metrics
snapshots round the report out (e.g. a move-count explosion shows up
even when the final tuple happens to match).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .runstore import RunRecord, RunStore, RunStoreError

__all__ = [
    "STATUS_RANK",
    "quality_key",
    "result_quality_key",
    "RunComparison",
    "compare_records",
    "compare_runs",
    "render_history",
]

#: Result statuses, best first — a status downgrade is a regression
#: even when the device count happens to match.
STATUS_RANK: Dict[str, int] = {
    "feasible": 0,
    "ok": 0,
    "semi_feasible": 1,
    "budget_exhausted": 2,
    "failed": 3,
}

#: Components of the cost tuple, in lexicographic order, with their
#: comparison sign (+1 = smaller is better, -1 = larger is better).
_COST_COMPONENTS: Tuple[Tuple[str, int], ...] = (
    ("f", -1),
    ("d_k", 1),
    ("t_sum", 1),
    ("d_k_e", 1),
)


#: Status rank of an unknown status or of a candidate that produced no
#: result at all (worker crash/timeout) — worse than every real status.
_NO_RESULT_RANK = max(STATUS_RANK.values()) + 1


def result_quality_key(
    status: Optional[str],
    num_devices: int,
    cost: Optional[Dict[str, float]],
) -> Tuple:
    """Lexicographic quality of one result (smaller compares better).

    Order: status rank, device count, then the cost tuple with ``f``
    negated — exactly the ordering :class:`SolutionCost` uses, lifted to
    whole runs.  Results without a cost tuple compare on the prefix
    alone.  ``status=None`` marks a candidate with no result — it ranks
    below every completed run but still participates in a reduction, so
    a fully-dead portfolio reduces to a well-defined (if useless) winner
    instead of crashing.
    """
    cost = cost or {}
    return (STATUS_RANK.get(status, _NO_RESULT_RANK), num_devices) + tuple(
        sign * float(cost.get(name, 0.0)) for name, sign in _COST_COMPONENTS
    )


def quality_key(record: RunRecord) -> Tuple:
    """:func:`result_quality_key` of a stored run."""
    return result_quality_key(record.status, record.num_devices, record.cost)


@dataclass(frozen=True)
class RunComparison:
    """Verdict of one baseline→candidate comparison."""

    baseline: RunRecord
    candidate: RunRecord
    quality: str
    """``"improved"``, ``"equal"`` or ``"regressed"`` (lexicographic)."""
    wall_delta_pct: float
    """Candidate wall time relative to baseline, in percent (+ = slower)."""
    max_slowdown_pct: Optional[float]
    """The latency gate; ``None`` disables wall-clock gating."""
    counter_deltas: Dict[str, Tuple[float, float]]
    """Counters whose value changed: name → (baseline, candidate)."""

    @property
    def slower(self) -> bool:
        """True when the latency gate is set and the candidate broke it."""
        return (
            self.max_slowdown_pct is not None
            and self.wall_delta_pct > self.max_slowdown_pct
        )

    @property
    def regressed(self) -> bool:
        return self.quality == "regressed" or self.slower

    def render(self) -> str:
        """Deterministic multi-line report of the comparison."""
        base, cand = self.baseline, self.candidate
        lines = [
            f"compare {cand.circuit}/{cand.device} [{cand.method}]:",
            f"  baseline  {base.run_id}  k={base.num_devices} "
            f"status={base.status} wall={base.wall_seconds:.3f}s",
            f"  candidate {cand.run_id}  k={cand.num_devices} "
            f"status={cand.status} wall={cand.wall_seconds:.3f}s",
            f"  quality: {self.quality}",
        ]
        if base.cost and cand.cost:
            deltas = []
            for name, _sign in _COST_COMPONENTS:
                b = float(base.cost.get(name, 0.0))
                c = float(cand.cost.get(name, 0.0))
                if b != c:
                    deltas.append(f"{name} {b:g}->{c:g}")
            lines.append(
                "  cost delta: " + ("; ".join(deltas) if deltas else "none")
            )
        gate = (
            f" (gate {self.max_slowdown_pct:+.1f}%: "
            f"{'FAIL' if self.slower else 'ok'})"
            if self.max_slowdown_pct is not None
            else " (not gated)"
        )
        lines.append(f"  wall clock: {self.wall_delta_pct:+.1f}%{gate}")
        if self.counter_deltas:
            lines.append("  counter deltas:")
            for name in sorted(self.counter_deltas):
                b, c = self.counter_deltas[name]
                lines.append(f"    {name}: {b:g} -> {c:g} ({c - b:+g})")
        lines.append(
            "  verdict: "
            + ("REGRESSION" if self.regressed else self.quality.upper())
        )
        return "\n".join(lines)


def _counter_deltas(
    base_metrics: Optional[Dict], cand_metrics: Optional[Dict]
) -> Dict[str, Tuple[float, float]]:
    base = (base_metrics or {}).get("counters", {})
    cand = (cand_metrics or {}).get("counters", {})
    deltas: Dict[str, Tuple[float, float]] = {}
    for name in set(base) | set(cand):
        b = float(base.get(name, 0))
        c = float(cand.get(name, 0))
        if b != c:
            deltas[name] = (b, c)
    return deltas


def compare_records(
    baseline: RunRecord,
    candidate: RunRecord,
    max_slowdown_pct: Optional[float] = None,
    baseline_metrics: Optional[Dict] = None,
    candidate_metrics: Optional[Dict] = None,
) -> RunComparison:
    """Judge ``candidate`` against ``baseline``.

    Raises :class:`RunStoreError` when the two runs are not comparable
    (different circuit, device or method) — a cross-workload comparison
    would render a meaningless verdict.
    """
    for attr in ("circuit", "device", "method"):
        a, b = getattr(baseline, attr), getattr(candidate, attr)
        if a != b:
            raise RunStoreError(
                f"runs are not comparable: {attr} differs ({a!r} != {b!r})"
            )
    base_key = quality_key(baseline)
    cand_key = quality_key(candidate)
    if cand_key > base_key:
        quality = "regressed"
    elif cand_key < base_key:
        quality = "improved"
    else:
        quality = "equal"
    base_wall = max(baseline.wall_seconds, 1e-9)
    wall_delta_pct = (candidate.wall_seconds / base_wall - 1.0) * 100.0
    return RunComparison(
        baseline=baseline,
        candidate=candidate,
        quality=quality,
        wall_delta_pct=wall_delta_pct,
        max_slowdown_pct=max_slowdown_pct,
        counter_deltas=_counter_deltas(baseline_metrics, candidate_metrics),
    )


def compare_runs(
    store: RunStore,
    candidate_id: str,
    baseline_id: Optional[str] = None,
    max_slowdown_pct: Optional[float] = None,
) -> RunComparison:
    """Resolve two stored runs and compare them.

    With ``baseline_id`` omitted the baseline is auto-selected: the most
    recent earlier run of the same circuit/device/method/config digest
    (:meth:`RunStore.baseline_for`).
    """
    candidate = store.get(candidate_id)
    if baseline_id is not None:
        baseline = store.get(baseline_id)
    else:
        auto = store.baseline_for(candidate)
        if auto is None:
            raise RunStoreError(
                f"no comparable baseline run for {candidate.run_id} "
                f"({candidate.circuit}/{candidate.device})"
            )
        baseline = auto
    return compare_records(
        baseline,
        candidate,
        max_slowdown_pct=max_slowdown_pct,
        baseline_metrics=store.metrics_of(baseline.run_id),
        candidate_metrics=store.metrics_of(candidate.run_id),
    )


def render_history(
    records: Sequence[RunRecord], limit: Optional[int] = None
) -> str:
    """Plain-text run history table, oldest first.

    A run whose ``labels`` carry an ``error`` (a failed sweep cell) gets
    the message on an indented line under its row.
    """
    if limit is not None:
        records = records[-limit:]
    if not records:
        return "no runs recorded"
    header = (
        f"{'run_id':<10} {'when (UTC)':<20} {'circuit':<10} {'device':<8} "
        f"{'method':<9} {'status':<16} {'k':>3} {'M':>3} {'T_SUM':>7} "
        f"{'wall_s':>8}"
    )
    lines: List[str] = [header, "-" * len(header)]
    for r in records:
        t_sum = (r.cost or {}).get("t_sum")
        lines.append(
            f"{r.run_id:<10} {r.created_utc:<20} {r.circuit:<10} "
            f"{r.device:<8} {r.method:<9} {r.status:<16} "
            f"{r.num_devices:>3} {r.lower_bound:>3} "
            f"{'' if t_sum is None else int(t_sum):>7} "
            f"{r.wall_seconds:>8.3f}"
        )
        if r.labels.get("error"):
            lines.append(f"  error: {r.labels['error']}")
    return "\n".join(lines)
