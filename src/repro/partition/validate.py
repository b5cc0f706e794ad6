"""Standalone partition validation.

Checks an arbitrary cell→block assignment against a device — the final
word on whether a partition is implementable, independent of whichever
algorithm produced it.  Used by the CLI ``verify`` subcommand and by
integration tests as the acceptance oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..hypergraph import Hypergraph
from .cut import block_ext_io_counts, block_pin_counts, block_sizes, cut_nets

__all__ = ["ValidationReport", "validate_assignment", "read_assignment_file"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one assignment against one device."""

    feasible: bool
    num_blocks: int
    lower_bound: int
    cut_nets: int
    block_sizes: Tuple[int, ...]
    block_pins: Tuple[int, ...]
    block_ext_ios: Tuple[int, ...]
    violations: Tuple[str, ...] = field(default_factory=tuple)

    def summary(self) -> str:
        """One-line verdict."""
        if self.feasible:
            return (
                f"FEASIBLE: {self.num_blocks} blocks "
                f"(lower bound {self.lower_bound}), "
                f"{self.cut_nets} cut nets"
            )
        head = "; ".join(self.violations[:3])
        more = (
            f" (+{len(self.violations) - 3} more)"
            if len(self.violations) > 3
            else ""
        )
        return f"INFEASIBLE: {head}{more}"


def validate_assignment(
    hg: Hypergraph,
    assignment: Sequence[int],
    device: "Device",
    num_blocks: Optional[int] = None,
) -> ValidationReport:
    """Validate a cell→block map against device constraints.

    Never raises on an infeasible partition — every violation is
    collected into the report.  Raises ``ValueError`` only on malformed
    input (wrong length, negative block ids, or a block id outside
    ``range(num_blocks)`` when ``num_blocks`` is given).
    """
    if len(assignment) != hg.num_cells:
        raise ValueError(
            f"assignment covers {len(assignment)} cells, "
            f"circuit has {hg.num_cells}"
        )
    for cell, block in enumerate(assignment):
        if block < 0:
            raise ValueError(f"cell {cell} has negative block {block}")
    if num_blocks is None:
        num_blocks = max(assignment, default=-1) + 1 if assignment else 0
    else:
        for cell, block in enumerate(assignment):
            if block >= num_blocks:
                raise ValueError(
                    f"cell {cell} has block {block}, "
                    f"expected fewer than {num_blocks} blocks"
                )
    num_blocks = max(num_blocks, 1)

    sizes = block_sizes(hg, assignment, num_blocks)
    pins = block_pin_counts(hg, assignment, num_blocks)
    ext = block_ext_io_counts(hg, assignment, num_blocks)

    violations: List[str] = []
    for block in range(num_blocks):
        if sizes[block] > device.s_max:
            violations.append(
                f"block {block}: size {sizes[block]} > "
                f"S_MAX {device.s_max:g}"
            )
        if pins[block] > device.t_max:
            violations.append(
                f"block {block}: {pins[block]} pins > "
                f"T_MAX {device.t_max}"
            )
    empty = [b for b in range(num_blocks) if sizes[b] == 0]
    for block in empty:
        violations.append(f"block {block}: empty")

    return ValidationReport(
        feasible=not violations,
        num_blocks=num_blocks,
        lower_bound=device.lower_bound(hg),
        cut_nets=cut_nets(hg, assignment),
        block_sizes=tuple(sizes),
        block_pins=tuple(pins),
        block_ext_ios=tuple(ext),
        violations=tuple(violations),
    )


def read_assignment_file(
    path: Union[str, Path], hg: Hypergraph
) -> List[int]:
    """Read ``<cell-label> <block>`` lines (the CLI's output format).

    Labels are matched against the hypergraph's cell labels; every cell
    must be assigned exactly once.
    """
    label_to_cell: Dict[str, int] = {
        hg.cell_label(c): c for c in range(hg.num_cells)
    }
    assignment: List[Optional[int]] = [None] * hg.num_cells
    with open(path, "r", encoding="ascii") as stream:
        for line_no, raw in enumerate(stream, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected 'label block'")
            label, block_text = parts
            if label not in label_to_cell:
                raise ValueError(f"line {line_no}: unknown cell {label!r}")
            cell = label_to_cell[label]
            if assignment[cell] is not None:
                raise ValueError(f"line {line_no}: cell {label!r} reassigned")
            assignment[cell] = int(block_text)
    missing = [
        hg.cell_label(c) for c, b in enumerate(assignment) if b is None
    ]
    if missing:
        raise ValueError(
            f"{len(missing)} cells unassigned (first: {missing[0]!r})"
        )
    return [b for b in assignment if b is not None]
