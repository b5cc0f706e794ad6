"""Netlist linting: structural sanity checks before partitioning.

Real imported netlists carry artifacts — dangling cells, duplicate
nets, absurd fanouts, disconnected fragments — that silently degrade
partitioning quality.  The linter reports them without judging: every
finding carries a severity (``warning`` for quality hazards, ``info``
for noteworthy structure) and a human-readable message.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List

from .hypergraph import Hypergraph

__all__ = ["LintFinding", "lint_netlist", "render_lint"]


@dataclass(frozen=True)
class LintFinding:
    """One linter observation."""

    severity: str  # "warning" | "info"
    code: str
    message: str


def lint_netlist(
    hg: Hypergraph,
    wide_net_threshold: int = 64,
    big_cell_fraction: float = 0.25,
) -> List[LintFinding]:
    """Scan a netlist; returns findings ordered warnings-first."""
    findings: List[LintFinding] = []

    # Dangling cells (no nets at all).
    dangling = [
        c for c in range(hg.num_cells) if not hg.nets_of(c)
    ]
    if dangling:
        findings.append(
            LintFinding(
                "warning",
                "dangling-cells",
                f"{len(dangling)} cell(s) touch no net "
                f"(first: {hg.cell_label(dangling[0])}); they consume "
                "area but cannot be placed by connectivity",
            )
        )

    # Single-pin padless nets.
    trivial = [
        e
        for e in range(hg.num_nets)
        if hg.net_degree(e) == 1 and not hg.is_external_net(e)
    ]
    if trivial:
        findings.append(
            LintFinding(
                "warning",
                "trivial-nets",
                f"{len(trivial)} single-pin net(s) without pads; "
                "remove_dangling() would drop them",
            )
        )

    # Duplicate padless nets (identical pin sets).
    counter = Counter(
        hg.pins_of(e)
        for e in range(hg.num_nets)
        if not hg.is_external_net(e)
    )
    duplicates = sum(count - 1 for count in counter.values() if count > 1)
    if duplicates:
        findings.append(
            LintFinding(
                "info",
                "duplicate-nets",
                f"{duplicates} duplicate padless net(s) (identical pin "
                "sets); they double-count in cut metrics",
            )
        )

    # Very wide nets (clock/reset-like): usually worth excluding from
    # the cut objective in practice.
    wide = [
        e for e in range(hg.num_nets)
        if hg.net_degree(e) >= wide_net_threshold
    ]
    if wide:
        widest = max(wide, key=hg.net_degree)
        findings.append(
            LintFinding(
                "info",
                "wide-nets",
                f"{len(wide)} net(s) with >= {wide_net_threshold} pins "
                f"(widest: {hg.net_label(widest)} with "
                f"{hg.net_degree(widest)}); global signals dominate cut "
                "counts",
            )
        )

    # One cell dominating the total area.
    if hg.num_cells:
        biggest = max(range(hg.num_cells), key=hg.cell_size)
        if hg.cell_size(biggest) > big_cell_fraction * hg.total_size:
            findings.append(
                LintFinding(
                    "warning",
                    "giant-cell",
                    f"cell {hg.cell_label(biggest)} holds "
                    f"{100 * hg.cell_size(biggest) / hg.total_size:.0f}% "
                    "of the total area; feasibility hinges on it alone",
                )
            )

    # Disconnected fragments.
    components = hg.connected_components()
    if len(components) > 1:
        sizes = sorted((len(c) for c in components), reverse=True)
        findings.append(
            LintFinding(
                "info",
                "disconnected",
                f"{len(components)} connected components "
                f"(cell counts: {sizes[:5]}{'...' if len(sizes) > 5 else ''})",
            )
        )

    findings.sort(key=lambda f: (f.severity != "warning", f.code))
    return findings


def render_lint(findings: List[LintFinding]) -> str:
    """Human-readable lint report."""
    if not findings:
        return "lint: clean"
    lines = [f"lint: {len(findings)} finding(s)"]
    for finding in findings:
        lines.append(
            f"  [{finding.severity}] {finding.code}: {finding.message}"
        )
    return "\n".join(lines)
