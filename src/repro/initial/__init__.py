"""Constructive initial-partition creation (section 3.2)."""

from .builders import (
    BUILDERS,
    SweepResult,
    greedy_merge_bipartition,
    ratio_cut_bipartition,
    ratio_cut_sweep,
    seed_grow_bipartition,
    swept_net_totals,
)
from .growing import GrowingBlock
from .initial import build_candidate, create_bipartition
from .seeds import SEED_POOL_SIZE, bfs_distances_within, select_seeds

__all__ = [
    "GrowingBlock",
    "SEED_POOL_SIZE",
    "select_seeds",
    "bfs_distances_within",
    "greedy_merge_bipartition",
    "ratio_cut_sweep",
    "ratio_cut_bipartition",
    "swept_net_totals",
    "seed_grow_bipartition",
    "SweepResult",
    "BUILDERS",
    "build_candidate",
    "create_bipartition",
]
