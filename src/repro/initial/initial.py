"""Best-of-N initial bipartition driver (``Bipartition()`` of Algorithm 1).

Runs the constructive builder portfolio on the remainder block,
evaluates each candidate split with the run's lexicographic cost,
applies the best one to the partition state and returns the new block's
index.

The portfolio is the two paper builders — greedy two-seed merge and
ratio-cut sweep — plus, on seeded runs (an ``rng`` is supplied),
single-seed growing as a third, deliberately greedy member.  The
winner is chosen by strict lexicographic comparison with the builder's
*portfolio index* as tiebreak (the earlier builder wins exact ties),
which makes the outcome a pure function of the candidate list.

Candidate *construction* is side-effect-free on the partition state, so
with ``jobs > 1`` the builders run concurrently on a
:class:`~repro.parallel.pool.WorkerPool`; evaluation always happens
serially in portfolio order against the live state, so the chosen
split — and therefore the whole run — is bit-identical for any
``jobs``.  A builder that fails (in-process or in its worker) simply
drops out of the portfolio; the degenerate peel-the-biggest-cell
fallback still guarantees progress when every builder fails.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from ..core.cost import CostEvaluator
from ..core.device import Device
from ..core.exceptions import UnpartitionableError
from ..hypergraph import Hypergraph
from ..obs.metrics import MetricsRegistry, NULL_METRICS
from ..partition import PartitionState
from .builders import BUILDERS

__all__ = ["BUILDERS", "build_candidate", "create_bipartition"]


def build_candidate(
    name: str,
    hg: Hypergraph,
    cells: List[int],
    device: Device,
    rng_seed: Optional[int],
) -> Optional[frozenset]:
    """Run one builder; picklable entry point for pool workers.

    The builder's rng is reconstructed from ``rng_seed`` (an integer
    drawn by the caller from the run's root rng, in portfolio order),
    so concurrent construction consumes exactly the same random draws
    as serial construction.  Returns ``None`` when the builder produced
    no usable proper subset.
    """
    builder = BUILDERS[name]
    rng = random.Random(rng_seed) if rng_seed is not None else None
    subset = builder(hg, cells, device, rng=rng)
    if subset is None or not 0 < len(subset) < len(cells):
        return None
    return frozenset(subset)


def _portfolio(rng: Optional[random.Random]) -> List[str]:
    names = ["greedy_merge", "ratio_cut"]
    if rng is not None:
        names.append("seed_grow")
    return names


def _construct_candidates(
    names: List[str],
    hg: Hypergraph,
    cells: List[int],
    device: Device,
    rng: Optional[random.Random],
    jobs: int,
    metrics: MetricsRegistry = NULL_METRICS,
) -> List[Set[int]]:
    """All valid candidate subsets, in portfolio order, deduplicated.

    The per-builder rng seeds are drawn from the root rng *here, in
    portfolio order* — the single place randomness enters — which is
    what keeps serial and concurrent construction bit-identical.

    Serial construction times each builder under its own sub-phase
    timer (``fpart.phase.bipartition.<builder>``); with ``jobs > 1``
    the builders overlap in pool workers, so per-builder wall is not
    observable from here and the whole fan-out is attributed to one
    ``fpart.phase.bipartition.pool`` slot instead.
    """
    seeds = [
        rng.getrandbits(64) if rng is not None else None for _ in names
    ]
    raw: List[Optional[frozenset]] = []
    if jobs > 1 and len(names) > 1:
        # Deferred import: repro.parallel.restarts imports core.fpart,
        # which imports this module — a top-level import here would
        # close that cycle during package init.
        from ..parallel.pool import ParallelTask, WorkerPool

        with metrics.timer("fpart.phase.bipartition.pool"):
            outcomes = WorkerPool(jobs).run(
                [
                    ParallelTask(
                        index=i,
                        fn=build_candidate,
                        args=(name, hg, cells, device, seeds[i]),
                        label=name,
                    )
                    for i, name in enumerate(names)
                ]
            )
        raw = [o.value if o.ok else None for o in outcomes]
    else:
        for i, name in enumerate(names):
            try:
                with metrics.timer(f"fpart.phase.bipartition.{name}"):
                    raw.append(
                        build_candidate(name, hg, cells, device, seeds[i])
                    )
            except Exception:
                # Same degradation as a crashed worker: the builder
                # drops out, the rest of the portfolio still competes.
                raw.append(None)
    candidates: List[Set[int]] = []
    seen = set()
    for subset in raw:
        if subset is None or subset in seen:
            continue
        seen.add(subset)
        candidates.append(set(subset))
    return candidates


def create_bipartition(
    state: PartitionState,
    remainder: int,
    device: Device,
    evaluator: CostEvaluator,
    rng: Optional[random.Random] = None,
    jobs: int = 1,
    metrics: MetricsRegistry = NULL_METRICS,
) -> int:
    """Split the remainder block; returns the new block's index.

    The new block holds the produced subset ``P_k``; the remainder keeps
    the rest.  Raises :class:`UnpartitionableError` when the remainder
    has fewer than two cells (a single cell that violates constraints can
    never be made feasible without replication).

    ``rng`` is the run's root rng (``None`` = the canonical
    deterministic run); ``jobs`` parallelizes candidate construction
    without affecting the result.  ``metrics`` receives the
    ``fpart.phase.bipartition.*`` sub-phase timers (per builder, plus
    the candidate-evaluation slot) consumed by ``fpart report --phases``.
    """
    cells = sorted(state.block_cells(remainder))
    if len(cells) < 2:
        raise UnpartitionableError(
            f"remainder block {remainder} has {len(cells)} cell(s); "
            "cannot bipartition further"
        )
    hg = state.hg
    candidates = _construct_candidates(
        _portfolio(rng), hg, cells, device, rng, jobs, metrics=metrics
    )
    if not candidates:
        # Degenerate fallback (tiny remainders): peel the biggest cell.
        biggest = max(cells, key=lambda c: (hg.cell_size(c), -c))
        candidates.append({biggest})

    new_block = state.add_block()
    best_subset: Optional[Set[int]] = None
    best_cost = None
    evaluate_timer = metrics.timer("fpart.phase.bipartition.evaluate")
    for subset in candidates:
        with evaluate_timer:
            state.move_many(subset, new_block)
            cost = evaluator.evaluate(state, remainder)
            state.move_many(subset, remainder)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_subset = subset

    assert best_subset is not None
    state.move_many(best_subset, new_block)
    return new_block
