"""k-way partition state and cut metrics."""

from .cut import (
    block_ext_io_counts,
    block_pin_counts,
    block_sizes,
    cut_nets,
    cutset,
)
from .state import PartitionState, StateListener
from .validate import (
    ValidationReport,
    read_assignment_file,
    validate_assignment,
)

__all__ = [
    "PartitionState",
    "StateListener",
    "ValidationReport",
    "validate_assignment",
    "read_assignment_file",
    "cut_nets",
    "cutset",
    "block_pin_counts",
    "block_ext_io_counts",
    "block_sizes",
]
