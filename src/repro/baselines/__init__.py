"""Published-method baselines reimplemented for live comparison.

* k-way.x-style recursive (p,p) partitioner ([9]/[11]),
* FBB-MW-style flow-based partitioner ([16]) on a Dinic max-flow core,
* naive BFS / random first-fit packers (sanity floor).
"""

from .fbb import FbbMultiway, FbbResult, fbb_bipartition, fbb_multiway
from .flow import INFINITY, FlowNetwork
from .kwayx import KwayxPartitioner, KwayxResult, kwayx
from .naive import NaiveResult, bfs_pack, random_pack

__all__ = [
    "FlowNetwork",
    "INFINITY",
    "fbb_bipartition",
    "FbbMultiway",
    "FbbResult",
    "fbb_multiway",
    "KwayxPartitioner",
    "KwayxResult",
    "kwayx",
    "NaiveResult",
    "bfs_pack",
    "random_pack",
]
