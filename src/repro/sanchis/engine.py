"""Sanchis-style multi-way iterative improvement ([14], sections 3.4–3.7).

One engine serves every ``Improve()`` call of Algorithm 1: a 2-block call
is simply the degenerate case with two participating blocks (classical
FM), a multi-block call maintains ``k * (k - 1)`` per-direction gain
structures.

Mechanics per pass (the classical discipline):

* every cell of a participating block is *free* at pass start and locks
  in its destination after moving once;
* the best move is chosen among the heads of all active direction
  structures by ``(level-1 gain, level-2 gain)``, ties broken toward the
  direction that best equilibrates sizes (``MAX(S_FROM - S_TO)``), then
  LIFO;
* a direction's structure is dropped while its source block may not
  donate or its target block may not receive (the move-region boundary
  rule of section 3.5);
* after every applied move the full solution cost
  ``(f, d_k, T_SUM, d_k^E)`` is evaluated and the best prefix remembered;
  the pass rolls back to it;
* negative-gain moves are accepted within a pass (hill climbing), which
  with best-prefix rollback is what lets the method escape local minima.

Implementation note: the per-direction "gain bucket + heap" of [14] is
realized as one lazy max-heap per direction with version-stamped entries
(stale entries are discarded at pop time) — the same asymptotic behaviour
with far simpler invalidation in the presence of the level-2 gains, whose
values change with every neighbouring lock.  Cells whose move is
temporarily outside the feasible move region are parked per direction and
re-offered when the region can have widened.

Per-move work is kept small three ways:

* the best direction is found through a *global* lazy max-heap of
  direction-head keys (``dir_heap``) instead of scanning all ``k(k-1)``
  directions per move; popped keys are validated against the direction's
  true head and corrected lazily, so selection still equals the
  brute-force scan by ``(g1, g2, balance, seq)``;
* neighbour gains are refreshed only for *dirty* nets — nets whose
  distribution change can actually alter some neighbour's gain vector
  (net enters/leaves a block, a near-boundary count crosses 1/2/3, or a
  first lock lands in the destination block); a cell's ``version`` is
  bumped only when it really is re-pushed;
* the solution cost after each move comes from the run's
  :class:`~repro.core.cost.IncrementalCostEvaluator` in O(1), read from
  its key cell, instead of a full O(k) sweep (a plain
  :class:`~repro.core.cost.CostEvaluator` injected by tests still works
  through ``key_of``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import FpartConfig
from ..core.cost import CostEvaluator, IncrementalCostEvaluator, SolutionCost
from ..core.move_region import MoveRegion
from ..core.runguard import NULL_GUARD, RunGuard
from ..fm.gains import move_gain_vector, pin_gain
from ..obs.metrics import (
    GAIN_HIST_HI,
    GAIN_HIST_LO,
    NULL_METRICS,
    MetricsRegistry,
)
from ..obs.trace import NULL_TRACE, TraceWriter, cost_fields
from ..partition import PartitionState

__all__ = ["SanchisEngine", "SanchisResult"]

# Heap entry: (-g1, -g2, -seq, version, cell).  heapq pops the smallest,
# so this orders by max g1, then max g2, then LIFO (latest seq first).
_Entry = Tuple[int, int, int, int, int]

# dir_heap entry: (-g1, -g2, -seq, from_block, to_block) — a direction
# head's key at some point in time, validated lazily at pop.
_DirEntry = Tuple[int, int, int, int, int]

# Callback invoked with the pass-best cost; the engine's state is at that
# solution when the callback runs (used for solution-stack collection).
PassObserver = Callable[[SolutionCost], None]


@dataclass(frozen=True)
class SanchisResult:
    """Outcome of one engine run (a series of passes)."""

    initial_cost: SolutionCost
    best_cost: SolutionCost
    passes: int
    moves_applied: int

    @property
    def improved(self) -> bool:
        return self.best_cost < self.initial_cost


class SanchisEngine:
    """Multi-way iterative improvement over a set of participating blocks.

    Parameters
    ----------
    state:
        Partition state refined in place.
    blocks:
        Participating blocks; cells move between any ordered pair.
    remainder:
        The remainder block (must be among ``blocks`` when present); it is
        exempt from the upper size cap and drives the cost's deviation
        penalty.
    evaluator:
        Run-wide :class:`CostEvaluator` (device, M, |Y0| baked in).
    region:
        Move-legality oracle for this improvement call.
    config:
        Engine knobs (gain levels, pass limit, tie-breaks).
    guard:
        Run guard consulted per applied move (lease protocol).  A pass
        interrupted by the guard rewinds to its best prefix before the
        :class:`~repro.core.exceptions.BudgetExhaustedError` propagates,
        so the state is always left consistent.
    metrics:
        Metrics registry (``NULL_METRICS`` when telemetry is off).  The
        overhead contract (DESIGN.md "Observability") keeps all
        accumulation off the per-move evaluator path: observations land
        in pass-local variables on the *selection* path and are flushed
        to the registry once per pass.
    tracer:
        Trace writer (``NULL_TRACE`` when tracing is off).  Emits
        ``pass_start`` per pass and sampled ``move_batch`` events, with
        the batch interval read once per pass from
        :attr:`~repro.obs.trace.TraceWriter.sample_moves`.
    """

    def __init__(
        self,
        state: PartitionState,
        blocks: Sequence[int],
        remainder: int,
        evaluator: CostEvaluator,
        region: MoveRegion,
        config: FpartConfig,
        guard: RunGuard = NULL_GUARD,
        metrics: MetricsRegistry = NULL_METRICS,
        tracer: TraceWriter = NULL_TRACE,
    ) -> None:
        blocks = list(dict.fromkeys(blocks))
        if len(blocks) < 2:
            raise ValueError("need at least two participating blocks")
        for b in blocks:
            if not 0 <= b < state.num_blocks:
                raise ValueError(f"invalid block {b}")
        if remainder not in blocks:
            raise ValueError("remainder must participate")
        self.state = state
        self.blocks = blocks
        self.block_set: Set[int] = set(blocks)
        self.remainder = remainder
        self.evaluator = evaluator
        self.region = region
        self.config = config
        self.guard = guard
        self.metrics = metrics
        self.tracer = tracer
        self.directions: List[Tuple[int, int]] = [
            (f, t) for f in blocks for t in blocks if f != t
        ]
        # Directions grouped by source / target block, for O(k) revival
        # of parked moves after a move changes two block sizes.
        self._dirs_from: Dict[int, List[Tuple[int, int]]] = {}
        self._dirs_to: Dict[int, List[Tuple[int, int]]] = {}
        for d in self.directions:
            self._dirs_from.setdefault(d[0], []).append(d)
            self._dirs_to.setdefault(d[1], []).append(d)

    # ------------------------------------------------------------------
    # One pass
    # ------------------------------------------------------------------

    def run_pass(self) -> Tuple[int, SolutionCost]:
        """One improvement pass; returns ``(moves_applied, best_cost)``.

        Leaves the state at the best prefix.
        """
        state = self.state
        hg = state.hg
        config = self.config
        region = self.region
        use_g2 = config.use_level2_gains
        pin_mode = config.gain_mode == "pin"
        stall_limit = config.pass_stall_limit

        evaluator = self.evaluator
        # Per-move comparisons use the raw key tuple; the SolutionCost
        # object is built once at the end of the pass.  The incremental
        # evaluator refreshes the key inside its on_move listener, so the
        # per-move read is one list index instead of a key_of call.
        key_of = evaluator.key_of
        if isinstance(evaluator, IncrementalCostEvaluator):
            evaluator.attach(state)
            evaluator.set_remainder(self.remainder)
            key_cell = evaluator.last_key_cell
        else:
            key_cell = None

        # Telemetry contract: nothing below touches the registry or the
        # tracer per move.  Observations accumulate in pass-local
        # variables — on the selection path, never inside the
        # move-apply/evaluate window — and are flushed once in the
        # finally clause, which keeps metrics-on within the 2%
        # instrumentation budget (benchmarks/bench_perf_regression).
        metrics = self.metrics
        collect = metrics.enabled
        tracer = self.tracer
        trace_every = tracer.sample_moves if tracer.enabled else 0
        applied = 0  # moves applied this pass (pre-rollback)
        parks = 0  # move-region boundary hits (entries parked)
        heap_peak = 0  # deepest dir_heap observed at selection time
        ghist = [0] * (GAIN_HIST_HI - GAIN_HIST_LO)  # chosen level-1 gains

        free: Set[int] = set()
        for b in self.blocks:
            free |= state.block_cells(b)

        locked_in_block: List[Dict[int, int]] = [
            {} for _ in range(hg.num_nets)
        ]
        version = [0] * hg.num_cells
        seq = 0
        heaps: Dict[Tuple[int, int], List[_Entry]] = {
            d: [] for d in self.directions
        }
        parked: Dict[Tuple[int, int], List[_Entry]] = {
            d: [] for d in self.directions
        }
        # Global queue over direction heads.  Each direction keeps at most
        # one *live* entry (tracked in ``queued``); anything else popped
        # is a superseded duplicate and dropped in O(1).  Live keys are
        # upper bounds for the direction's true head and are corrected
        # lazily at pop time, so the queue never under-reports a
        # direction.
        dir_heap: List[_DirEntry] = []
        queued: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        # Last confirmed head key of directions whose blocks currently may
        # not donate/receive ("bucket removed", section 3.7); re-queued
        # when the blocking size can have changed.
        suspended: Dict[Tuple[int, int], Tuple[int, int, int]] = {}

        def enqueue(direction: Tuple[int, int], key: Tuple[int, int, int]) -> None:
            current = queued.get(direction)
            if current is None or key < current:
                queued[direction] = key
                heapq.heappush(dir_heap, key + direction)

        def push(cell: int) -> None:
            nonlocal seq
            f = state.block_of(cell)
            if f not in self.block_set:
                return
            for t in self.blocks:
                if t == f:
                    continue
                g1, g2 = move_gain_vector(state, cell, t, locked_in_block)
                if not use_g2:
                    g2 = 0
                if pin_mode:
                    # Future-work variant: primary = real pin gain,
                    # cut gain demoted to the tie-break slot.
                    g1, g2 = pin_gain(state, cell, t), g1
                seq += 1
                heapq.heappush(
                    heaps[(f, t)], (-g1, -g2, -seq, version[cell], cell)
                )
                enqueue((f, t), (-g1, -g2, -seq))

        # Seed in sorted order: the LIFO sequence numbers must not depend
        # on set iteration order (a function of the set's mutation
        # history), or a run resumed from a checkpoint — whose block-cell
        # sets are rebuilt fresh — would tie-break differently from the
        # uninterrupted run.
        for cell in sorted(free):
            push(cell)

        def head(direction: Tuple[int, int]) -> Optional[_Entry]:
            """Valid, legal top entry of a direction (left on the heap)."""
            nonlocal parks
            f, t = direction
            heap = heaps[direction]
            while heap:
                entry = heap[0]
                cell = entry[4]
                if (
                    cell not in free
                    or entry[3] != version[cell]
                    or state.block_of(cell) != f
                ):
                    heapq.heappop(heap)  # stale or locked
                    continue
                size = hg.cell_size(cell)
                if not (
                    region.can_donate(state, f, size)
                    and region.can_receive(state, t, size)
                ):
                    parked[direction].append(heapq.heappop(heap))
                    parks += 1
                    continue
                return entry
            return None

        def confirm(
            ng1: int, ng2: int, nseq: int, f: int, t: int
        ) -> Optional[int]:
            """Validate one live popped ``dir_heap`` key.

            The caller has already removed the key from ``queued``.
            Returns the direction's head cell when the key matches the
            true head and the direction is active.  Otherwise queues the
            corrected key (or suspends the direction) and returns None.
            """
            if not (
                region.block_can_still_donate(state, f)
                and region.block_can_still_receive(state, t)
            ):
                # Inactive direction: do NOT touch its heap (that would
                # pointlessly drain region-illegal entries into the
                # parking stash); stash the popped key — an upper bound
                # for the head — until the blocking size changes.
                suspended[(f, t)] = (ng1, ng2, nseq)
                return None
            entry = head((f, t))
            if entry is None:
                return None
            if (entry[0], entry[1], entry[2]) != (ng1, ng2, nseq):
                enqueue((f, t), (entry[0], entry[1], entry[2]))
                return None
            return entry[4]

        def select() -> Optional[Tuple[int, int]]:
            """Best ``(cell, to_block)`` over all active directions.

            Equals the brute-force scan's maximum of
            ``(g1, g2, S_FROM - S_TO, -seq)`` over the direction heads.
            """
            nonlocal heap_peak
            while dir_heap:
                ng1, ng2, nseq, f, t = heapq.heappop(dir_heap)
                direction = (f, t)
                key = (ng1, ng2, nseq)
                if queued.get(direction) != key:
                    continue  # superseded duplicate
                del queued[direction]
                cell = confirm(ng1, ng2, nseq, f, t)
                if cell is None:
                    continue
                # Gather every direction head tied on (g1, g2); the
                # cross-direction tie-break needs live block sizes.
                cands = [(cell, f, t, nseq)]
                while (
                    dir_heap
                    and dir_heap[0][0] == ng1
                    and dir_heap[0][1] == ng2
                ):
                    item = heapq.heappop(dir_heap)
                    other_dir = (item[3], item[4])
                    if queued.get(other_dir) != item[:3]:
                        continue  # superseded duplicate
                    del queued[other_dir]
                    other = confirm(*item)
                    if other is not None:
                        cands.append((other, item[3], item[4], item[2]))
                best = max(
                    cands,
                    key=lambda cand: (
                        state.block_size(cand[1]) - state.block_size(cand[2]),
                        cand[3],
                    ),
                )
                # All tied heads stay current until the move is applied;
                # re-queue their keys (stale ones correct themselves).
                for cand in cands:
                    enqueue((cand[1], cand[2]), (ng1, ng2, cand[3]))
                if collect:
                    # Selection path, not the evaluator path: bucket the
                    # chosen level-1 gain locally (clamped to the edge
                    # buckets) and track the queue's high-water mark.
                    if len(dir_heap) > heap_peak:
                        heap_peak = len(dir_heap)
                    g = -ng1
                    if g < GAIN_HIST_LO:
                        g = GAIN_HIST_LO
                    elif g >= GAIN_HIST_HI:
                        g = GAIN_HIST_HI - 1
                    ghist[g - GAIN_HIST_LO] += 1
                return best[0], best[2]
            return None

        def revive(direction: Tuple[int, int]) -> None:
            """Re-offer parked entries / a suspended head of a direction."""
            stash = parked[direction]
            if stash:
                heap = heaps[direction]
                best: Optional[Tuple[int, int, int]] = None
                for entry in stash:
                    heapq.heappush(heap, entry)
                    key = (entry[0], entry[1], entry[2])
                    if best is None or key < best:
                        best = key
                stash.clear()
                if best is not None:
                    enqueue(direction, best)
            key2 = suspended.pop(direction, None)
            if key2 is not None:
                enqueue(direction, key2)

        mark = state.journal_mark()
        best_mark = mark
        best_key = key_of(state, self.remainder)
        stalled = 0  # moves since the pass-best last improved

        # Guard lease protocol: one local integer decrement per applied
        # move; the clock / move cap is consulted only when a lease runs
        # out.  The finally clause rewinds to the best prefix on EVERY
        # exit path — normal completion, budget exhaustion, or a fault
        # injected at the evaluator seam — so the state (and its undo
        # journal) is always left consistent when an exception
        # propagates out of a pass.
        guard = self.guard
        budget_left = guard.lease()
        try:
            while free:
                if stall_limit is not None and stalled >= stall_limit:
                    break  # wandering in the infeasible region: cut losses
                chosen = select()
                if chosen is None:
                    break

                cell, to_block = chosen
                from_block = state.block_of(cell)
                nets = hg.nets_of(cell)
                # Pre-move distribution facts deciding which neighbours
                # are dirty (the predicates below need the *old* counts).
                counts = state.net_counts
                stride = state.stride
                pre = [
                    (
                        counts[e * stride + from_block],
                        counts[e * stride + to_block],
                        locked_in_block[e].get(to_block, 0),
                    )
                    for e in nets
                ]
                state.move(cell, to_block)
                free.discard(cell)
                version[cell] += 1  # invalidate the cell's other entries
                for e in nets:
                    lb = locked_in_block[e]
                    lb[to_block] = lb.get(to_block, 0) + 1

                # Refresh gains of free neighbours on dirty nets only.  A
                # neighbour's gain vector can change when the net enters
                # or leaves a block (membership/span change), when its
                # count in the source block falls out of {1, 2} reach,
                # when its count in the destination leaves {1, 2}, or
                # when the first lock of the pass lands in the
                # destination block.
                refreshed: Set[int] = set()
                block_of = state.block_of
                for e, (c_from, c_to, locked_to) in zip(nets, pre):
                    if c_from == 1 or c_to == 0:
                        # Net left from_block and/or entered to_block:
                        # every free pin may see different membership or
                        # span.
                        for v in hg.pins_of(e):
                            if v in free and v not in refreshed:
                                refreshed.add(v)
                                version[v] += 1
                                push(v)
                        continue
                    need_from = c_from <= 3
                    need_to = c_to <= 2 or locked_to == 0
                    if not (need_from or need_to):
                        continue
                    for v in hg.pins_of(e):
                        if v in free and v not in refreshed:
                            bv = block_of(v)
                            if (need_from and bv == from_block) or (
                                need_to and bv == to_block
                            ):
                                refreshed.add(v)
                                version[v] += 1
                                push(v)

                # Size change may re-legalize parked or suspended moves
                # of directions donating to the grown block or receiving
                # from the shrunk one.
                for direction in self._dirs_from.get(to_block, ()):
                    revive(direction)
                for direction in self._dirs_to.get(from_block, ()):
                    revive(direction)

                key = (
                    key_cell[0]
                    if key_cell is not None
                    else key_of(state, self.remainder)
                )
                applied += 1
                if trace_every and applied % trace_every == 0:
                    tracer.emit("move_batch", moves=applied, key=list(key))
                if key < best_key:
                    best_key = key
                    best_mark = state.journal_mark()
                    stalled = 0
                else:
                    stalled += 1

                budget_left -= 1
                if budget_left <= 0:
                    budget_left = guard.lease()
        finally:
            guard.settle(budget_left)
            state.rewind(best_mark)
            if collect:
                # One flush per pass; runs on every exit path so budget
                # exhaustion and injected faults still leave a complete
                # record of the work done before the rewind.
                accepted = best_mark - mark
                metrics.counter("sanchis.passes").inc()
                metrics.counter("sanchis.moves_tried").inc(applied)
                metrics.counter("sanchis.moves_accepted").inc(accepted)
                metrics.counter("sanchis.moves_rolled_back").inc(
                    applied - accepted
                )
                metrics.counter("sanchis.region_parks").inc(parks)
                metrics.counter("sanchis.heap_pushes").inc(seq)
                metrics.gauge("sanchis.dir_heap_peak").set_max(heap_peak)
                metrics.histogram(
                    "sanchis.gain1", GAIN_HIST_LO, GAIN_HIST_HI
                ).add_buckets(ghist)
        return best_mark - mark, evaluator.cost_of(state, self.remainder)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run(self, observer: Optional[PassObserver] = None) -> SanchisResult:
        """Passes until one fails to improve (or ``max_passes``).

        ``observer`` is called after each pass with the pass-best cost
        while the state sits at that solution — the hook the FPART driver
        uses to feed the solution stacks.
        """
        initial_cost = self.evaluator.evaluate(self.state, self.remainder)
        best_cost = initial_cost
        passes = 0
        total_moves = 0
        tracer = self.tracer
        pass_timer = self.metrics.timer("sanchis.pass_seconds")
        entry_cost = initial_cost
        while passes < self.config.max_passes:
            if tracer.enabled:
                tracer.emit(
                    "pass_start",
                    pass_index=passes,
                    blocks=list(self.blocks),
                    cost=cost_fields(entry_cost),
                )
            with pass_timer:
                moves, pass_cost = self.run_pass()
            passes += 1
            total_moves += moves
            entry_cost = pass_cost
            if observer is not None:
                observer(pass_cost)
            if pass_cost < best_cost:
                best_cost = pass_cost
            else:
                break
        return SanchisResult(
            initial_cost=initial_cost,
            best_cost=best_cost,
            passes=passes,
            moves_applied=total_moves,
        )
