"""Classic Fiduccia–Mattheyses bipartitioning ([4]).

Operates on two blocks of a :class:`~repro.partition.PartitionState`,
moving only a caller-supplied set of cells, which lets the recursive
drivers run FM "in place" between the remainder and a produced block
without extracting subcircuits.

The objective is the classical one — minimize the number of cut nets —
subject to per-block size bounds.  Within a pass every movable cell moves
at most once (then locks); the pass ends when no legal move remains, and
the state is rolled back to the best prefix.  Runs repeat passes until a
pass fails to improve the cut.

Tie-breaking follows the paper's choices: LIFO buckets, and among
equal-gain directions the move that best equilibrates block sizes
(``MAX(S_FROM - S_TO)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.runguard import NULL_GUARD, RunGuard
from ..obs.metrics import (
    GAIN_HIST_HI,
    GAIN_HIST_LO,
    NULL_METRICS,
    MetricsRegistry,
)
from ..partition import PartitionState
from .buckets import GainBuckets
from .gains import move_gain

__all__ = ["FmResult", "FmBipartitioner", "fm_refine"]


@dataclass(frozen=True)
class FmResult:
    """Outcome of an FM run."""

    initial_cut: int
    final_cut: int
    passes: int
    moves_applied: int

    @property
    def improved(self) -> bool:
        return self.final_cut < self.initial_cut


class FmBipartitioner:
    """FM refinement between two blocks of an existing partition state.

    Parameters
    ----------
    state:
        Partition state to refine in place.
    block_a / block_b:
        The two participating blocks.
    cells:
        Movable cells; each must currently live in one of the two blocks.
    size_bounds:
        ``{block: (min_size, max_size)}`` — hard size window per block.
        A move is legal when the donor stays >= its min and the receiver
        stays <= its max.  Use 0 / a large number to disable a side.
    max_passes:
        Pass limit per :meth:`run`.
    guard:
        Run guard consulted per applied move (lease protocol); a pass
        cut short by the guard rewinds to its best prefix before the
        exception propagates.
    metrics:
        Metrics registry (``NULL_METRICS`` when telemetry is off).
        Observations accumulate in pass-local variables on the selection
        path and are flushed to ``fm.*`` instruments once per pass.
    """

    def __init__(
        self,
        state: PartitionState,
        block_a: int,
        block_b: int,
        cells: Iterable[int],
        size_bounds: Dict[int, Tuple[int, float]],
        max_passes: int = 8,
        guard: RunGuard = NULL_GUARD,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        if block_a == block_b:
            raise ValueError("blocks must differ")
        self.state = state
        self.block_a = block_a
        self.block_b = block_b
        self.cells = sorted(set(cells))
        for c in self.cells:
            if state.block_of(c) not in (block_a, block_b):
                raise ValueError(
                    f"cell {c} is in block {state.block_of(c)}, "
                    f"not in {{{block_a}, {block_b}}}"
                )
        for b in (block_a, block_b):
            if b not in size_bounds:
                raise ValueError(f"missing size bounds for block {b}")
        self.size_bounds = size_bounds
        self.max_passes = max_passes
        self.guard = guard
        self.metrics = metrics
        hg = state.hg
        self._max_deg = max(
            (len(hg.nets_of(c)) for c in self.cells), default=0
        )

    # ------------------------------------------------------------------

    def _other(self, block: int) -> int:
        return self.block_b if block == self.block_a else self.block_a

    def _legal(self, cell: int) -> bool:
        state = self.state
        f = state.block_of(cell)
        t = self._other(f)
        size = state.hg.cell_size(cell)
        min_f, _ = self.size_bounds[f]
        _, max_t = self.size_bounds[t]
        return (
            state.block_size(f) - size >= min_f
            and state.block_size(t) + size <= max_t
        )

    # ------------------------------------------------------------------

    def run_pass(self) -> Tuple[int, int]:
        """One FM pass; returns ``(moves_applied, best_cut)``.

        The state is left at the best prefix of the pass (restored by
        rewinding the state's undo journal, not by replaying an explicit
        move log).
        """
        state = self.state
        hg = state.hg
        buckets = {
            self.block_a: GainBuckets(self._max_deg, hg.num_cells),
            self.block_b: GainBuckets(self._max_deg, hg.num_cells),
        }
        free = set(self.cells)
        for c in self.cells:
            f = state.block_of(c)
            t = self._other(f)
            buckets[f].insert(c, move_gain(state, c, t))

        mark = state.journal_mark()
        best_mark = mark
        best_cut = state.cut_nets
        # Secondary criterion at equal cut: smaller size imbalance.
        best_imbalance = abs(
            state.block_size(self.block_a) - state.block_size(self.block_b)
        )

        # Telemetry: accumulate locally, flush once in the finally clause
        # (same contract as the Sanchis engine — no per-move registry
        # calls).
        metrics = self.metrics
        collect = metrics.enabled
        applied = 0
        ghist = [0] * (GAIN_HIST_HI - GAIN_HIST_LO)

        # Guard lease protocol + exception-safe rollback: the finally
        # clause restores the best prefix even when the guard (or an
        # injected fault) aborts the pass between moves.
        guard = self.guard
        budget_left = guard.lease()
        try:
            while True:
                chosen = self._select(buckets)
                if chosen is None:
                    break
                cell = chosen
                f = state.block_of(cell)
                t = self._other(f)
                applied += 1
                if collect:
                    g = buckets[f].gain_of(cell)
                    if g < GAIN_HIST_LO:
                        g = GAIN_HIST_LO
                    elif g >= GAIN_HIST_HI:
                        g = GAIN_HIST_HI - 1
                    ghist[g - GAIN_HIST_LO] += 1
                buckets[f].remove(cell)
                free.discard(cell)
                state.move(cell, t)

                for v in hg.neighbors(cell):
                    if v in free:
                        bv = state.block_of(v)
                        buckets[bv].update(
                            v, move_gain(state, v, self._other(bv))
                        )

                cut = state.cut_nets
                imbalance = abs(
                    state.block_size(self.block_a)
                    - state.block_size(self.block_b)
                )
                if cut < best_cut or (
                    cut == best_cut and imbalance < best_imbalance
                ):
                    best_cut = cut
                    best_imbalance = imbalance
                    best_mark = state.journal_mark()

                budget_left -= 1
                if budget_left <= 0:
                    budget_left = guard.lease()
        finally:
            guard.settle(budget_left)
            # Roll back to the best prefix.
            state.rewind(best_mark)
            if collect:
                accepted = best_mark - mark
                metrics.counter("fm.passes").inc()
                metrics.counter("fm.moves_tried").inc(applied)
                metrics.counter("fm.moves_accepted").inc(accepted)
                metrics.counter("fm.moves_rolled_back").inc(
                    applied - accepted
                )
                metrics.histogram(
                    "fm.gain", GAIN_HIST_LO, GAIN_HIST_HI
                ).add_buckets(ghist)
        return best_mark - mark, best_cut

    def _select(self, buckets: Dict[int, GainBuckets]) -> Optional[int]:
        """Pick the best legal move across both directions.

        Scans each direction's bucket list from the top, skipping cells
        whose move would violate the size window (they stay bucketed —
        later moves can re-legalize them).  Among directions with equal
        gain, prefers the donor with the larger size (``S_FROM - S_TO``).
        """
        state = self.state
        best_cell: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        for f in (self.block_a, self.block_b):
            for cell in buckets[f].iter_from_max():
                if not self._legal(cell):
                    continue
                gain = buckets[f].gain_of(cell)
                balance = state.block_size(f) - state.block_size(
                    self._other(f)
                )
                key = (gain, balance)
                if best_key is None or key > best_key:
                    best_key = key
                    best_cell = cell
                break  # only the best legal cell per direction matters
        # Negative-gain moves are deliberately accepted: hill climbing
        # within a pass (with best-prefix rollback) is the essence of FM.
        return best_cell

    def run(self) -> FmResult:
        """Repeat passes until the cut stops improving."""
        initial_cut = self.state.cut_nets
        total_moves = 0
        passes = 0
        best_cut = initial_cut
        while passes < self.max_passes:
            moves, cut = self.run_pass()
            passes += 1
            total_moves += moves
            if cut < best_cut:
                best_cut = cut
            else:
                break
        return FmResult(
            initial_cut=initial_cut,
            final_cut=self.state.cut_nets,
            passes=passes,
            moves_applied=total_moves,
        )


def fm_refine(
    state: PartitionState,
    block_a: int,
    block_b: int,
    size_bounds: Dict[int, Tuple[int, float]],
    cells: Optional[Sequence[int]] = None,
    max_passes: int = 8,
    guard: RunGuard = NULL_GUARD,
    metrics: MetricsRegistry = NULL_METRICS,
) -> FmResult:
    """Convenience wrapper: refine two blocks with FM, in place.

    ``cells`` defaults to every cell currently in either block.
    """
    if cells is None:
        cells = state.cells_of_blocks((block_a, block_b))
    return FmBipartitioner(
        state, block_a, block_b, cells, size_bounds, max_passes, guard,
        metrics,
    ).run()
