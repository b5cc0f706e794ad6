"""Deterministic lexicographic reduction of parallel candidates.

Parallel execution must not change *what* the partitioner answers, only
*how fast* it answers.  The contract that makes that true is this
module: every portfolio (initial-bipartition builders, multi-seed
restarts, sharded sweeps) reduces its candidates with
:func:`reduce_candidates`, which picks the winner by

1. the paper's lexicographic quality tuple — status rank, device count,
   then ``(f, d_k, T_SUM, d_k^E)`` with ``f`` maximised — exactly the
   ordering :func:`repro.obs.compare.quality_key` applies to stored
   runs (:func:`result_quality_key` is that same function, re-exported
   here for candidates that are not run records), and
2. the candidate's **submission index** as the final tiebreak.

The index is assigned when the portfolio is *built* (seed index,
builder order, cell order), never when a worker happens to finish, so
the reduction is a pure function of the candidate set: shuffling
completion order, changing ``--jobs``, or losing-and-retrying a worker
cannot flip the winner between equal-quality candidates.  The property
tests in ``tests/test_parallel.py`` pin this invariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Tuple

from ..obs.compare import result_quality_key

__all__ = [
    "Candidate",
    "result_quality_key",
    "reduce_candidates",
    "rank_candidates",
]


@dataclass(frozen=True)
class Candidate:
    """One reducible portfolio entry.

    ``index`` is the deterministic submission index (seed index,
    builder index, ...), ``key`` the precomputed quality tuple, and
    ``value`` the payload the winner carries (an ``FpartResult``, a
    report dict — reduction never inspects it).
    """

    index: int
    key: Tuple
    value: Any = None


def rank_candidates(candidates: Iterable[Candidate]) -> List[Candidate]:
    """Candidates ordered best-first by ``(key, index)``.

    Plain tuple comparison: the quality key decides, the submission
    index breaks exact ties.  Sorting is reproducible from the
    candidate *set* alone, independent of iteration order.
    """
    return sorted(candidates, key=lambda c: (c.key, c.index))


def reduce_candidates(candidates: Iterable[Candidate]) -> Candidate:
    """The deterministic winner of a portfolio.

    Raises ``ValueError`` on an empty portfolio — the caller decides
    what an empty portfolio means (the restart driver reports status
    ``"failed"`` instead of reducing).
    """
    ranked = rank_candidates(candidates)
    if not ranked:
        raise ValueError("cannot reduce an empty candidate portfolio")
    return ranked[0]
