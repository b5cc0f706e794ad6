"""Mutable k-way partition state with incremental bookkeeping.

This is the workhorse shared by every algorithm in the package (FM,
Sanchis multi-way, FPART, the baselines).  It tracks, per block ``j``:

* ``S_j`` — block size (sum of cell sizes),
* ``|Y_j|`` — block terminal (pin) count, the quantity the device pin
  constraint ``T_MAX`` applies to,
* ``T_j^E`` — the number of *external* primary I/O pads assigned to the
  block (used by the paper's external-I/O balancing factor, section 3.4),

plus the global cut-net count, all updated in ``O(pins(cell))`` per move.

Counter layout
--------------
Per-net block membership Λ(e, b) lives in two flat Python lists::

    net_counts[net * stride + block]  -> pins of ``net`` inside ``block``
    net_spans[net]                    -> number of blocks ``net`` touches

``stride`` is the block *capacity* (>= ``num_blocks``); it grows by
doubling (one O(nets * k) re-layout) when :meth:`add_block` runs out of
columns, so the ``net * stride + block`` address stays valid across every
move in between.  Dropping blocks (``restore_snapshot``) needs no
re-layout: rewinding empties them, so their columns are already zero.
Lists rather than ``array('i')`` on purpose: CPython indexes a list
faster because an array read boxes a fresh int.  The frozen incidence is
the hypergraph's own tuples (``hg.nets`` and ``hg.cell_nets``), iterated
directly.  Hot paths (gain kernels, the Sanchis engine) index the
counter lists directly.

Pin semantics
-------------
A net contributes one pin to every block it touches **iff** it is visible
outside that block: it either spans more than one block, or it carries a
primary-I/O pad.  A net entirely inside one block with no pad contributes
nothing.  External pads are "assigned" to every block their net touches
(the pad's signal must physically reach each such device), which is how
``T_j^E`` is counted.

Moves are reversible: :meth:`move` returns the source block, and moving
the cell back restores every derived quantity exactly.  Every applied
move is additionally recorded in an internal *undo journal*, so FM-style
pass rollback is :meth:`journal_mark` + :meth:`rewind` — O(cells moved)
instead of a full rebuild — and :meth:`restore` replays only the cells
whose block actually differs from the snapshot.

Observers (e.g. :class:`repro.core.cost.IncrementalCostEvaluator`) can
register through :meth:`add_listener` to be told about every mutation:
``on_move(from_block, to_block)`` after each effective move,
``on_add_block()`` after a block is appended, and ``on_rebuild()`` after
any from-scratch reconstruction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..hypergraph import Hypergraph

__all__ = ["PartitionState", "StateListener"]


class StateListener:
    """Interface for observers of :class:`PartitionState` mutations.

    Default implementations are no-ops so subclasses override only what
    they need.
    """

    def on_move(self, from_block: int, to_block: int) -> None:
        """Called after a cell moved between two distinct blocks."""

    def on_add_block(self) -> None:
        """Called after a new empty block was appended."""

    def on_rebuild(self) -> None:
        """Called after a full rebuild (block count may have changed)."""


class PartitionState:
    """Assignment of every interior cell to one of ``k`` blocks.

    Create with :meth:`single_block` (all cells in block 0, the usual
    starting point of the recursive paradigm) or :meth:`from_assignment`.
    Blocks are dense integers ``0 .. num_blocks-1``; new empty blocks are
    appended with :meth:`add_block`.

    The state never decides *which* block is the remainder — that is
    algorithm-level policy kept in the drivers.
    """

    __slots__ = (
        "hg",
        "_block_of",
        "_num_blocks",
        "_block_sizes",
        "_block_cells",
        "_block_pins",
        "_block_ext_ios",
        "_cut_nets",
        "_total_pins",
        "_cell_sizes",
        "_net_pads",
        "_listeners",
        "_journal",
        "_cell_nets",
        "net_counts",
        "net_spans",
        "stride",
    )

    def __init__(self, hg: Hypergraph, assignment: Sequence[int], num_blocks: int):
        if len(assignment) != hg.num_cells:
            raise ValueError(
                f"assignment covers {len(assignment)} cells, "
                f"hypergraph has {hg.num_cells}"
            )
        if num_blocks < 1:
            raise ValueError("need at least one block")
        self.hg = hg
        self._cell_sizes: Tuple[int, ...] = hg.cell_sizes
        self._net_pads: Tuple[int, ...] = hg.net_terminal_counts
        self._cell_nets = hg.cell_nets
        self._listeners: List[StateListener] = []
        self._journal: List[Tuple[int, int]] = []
        self._block_of: List[int] = [int(b) for b in assignment]
        self._num_blocks = num_blocks
        self.stride = max(4, num_blocks)
        for c, b in enumerate(self._block_of):
            if not 0 <= b < num_blocks:
                raise ValueError(f"cell {c} assigned to invalid block {b}")
        self._rebuild()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def single_block(cls, hg: Hypergraph) -> "PartitionState":
        """All cells in block 0 — the initial remainder ``R_0 = H_0``."""
        return cls(hg, [0] * hg.num_cells, 1)

    @classmethod
    def from_assignment(
        cls, hg: Hypergraph, assignment: Sequence[int], num_blocks: Optional[int] = None
    ) -> "PartitionState":
        """Build from an explicit cell→block map."""
        if num_blocks is None:
            num_blocks = (max(assignment) + 1) if len(assignment) else 1
        return cls(hg, assignment, num_blocks)

    def copy(self) -> "PartitionState":
        """Independent deep copy (shares only the immutable hypergraph)."""
        return self.__class__(self.hg, list(self._block_of), self._num_blocks)

    # ------------------------------------------------------------------
    # Full (non-incremental) rebuild
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        hg = self.hg
        k = self._num_blocks
        if self.stride < k:
            self.stride = k
        stride = self.stride
        block_of = self._block_of
        cell_sizes = self._cell_sizes
        self._block_sizes: List[int] = [0] * k
        self._block_cells: List[Set[int]] = [set() for _ in range(k)]
        for c, b in enumerate(block_of):
            self._block_sizes[b] += cell_sizes[c]
            self._block_cells[b].add(c)

        num_nets = hg.num_nets
        counts = [0] * (num_nets * stride)
        spans = [0] * num_nets
        self.net_counts = counts
        self.net_spans = spans
        pins = self._block_pins = [0] * k
        ext = self._block_ext_ios = [0] * k
        net_pads = self._net_pads
        total = 0
        cut = 0
        for e, net in enumerate(hg.nets):
            base = e * stride
            span = 0
            for p in net:
                idx = base + block_of[p]
                if counts[idx] == 0:
                    span += 1
                counts[idx] += 1
            spans[e] = span
            pads = net_pads[e]
            if span > 1:
                cut += 1
            if span > 1 or pads > 0:
                for b in range(k):
                    if counts[base + b]:
                        pins[b] += 1
                        total += 1
            if pads > 0:
                for b in range(k):
                    if counts[base + b]:
                        ext[b] += pads
        self._cut_nets = cut
        self._total_pins = total
        for listener in self._listeners:
            listener.on_rebuild()

    def check_consistency(self) -> None:
        """Recompute everything from scratch and compare (test oracle).

        Raises ``AssertionError`` on any divergence between the
        incremental state and a fresh rebuild.
        """
        fresh = PartitionState(self.hg, list(self._block_of), self._num_blocks)
        k = self._num_blocks
        for e in range(self.hg.num_nets):
            assert self.net_distribution(e) == fresh.net_distribution(e), (
                f"net {e} counts diverged"
            )
            # Columns past num_blocks must stay zero (dropped blocks).
            base = e * self.stride
            assert not any(self.net_counts[base + k:base + self.stride]), (
                f"net {e} has pins in a dropped block column"
            )
        assert self.net_spans == fresh.net_spans, "net spans diverged"
        assert self._block_sizes == fresh._block_sizes, "block sizes diverged"
        assert self._block_pins == fresh._block_pins, "block pins diverged"
        assert (
            self._block_ext_ios == fresh._block_ext_ios
        ), "external I/Os diverged"
        assert self._cut_nets == fresh._cut_nets, "cut-net count diverged"
        assert self._total_pins == fresh._total_pins, "total pins diverged"
        assert self._block_cells == fresh._block_cells, "block cell sets diverged"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Current number of blocks ``k``."""
        return self._num_blocks

    @property
    def cut_nets(self) -> int:
        """Number of nets spanning more than one block."""
        return self._cut_nets

    @property
    def total_pins(self) -> int:
        """``T_SUM = sum_j |Y_j|`` over all blocks."""
        return self._total_pins

    def block_of(self, cell: int) -> int:
        """Block currently holding ``cell``."""
        return self._block_of[cell]

    def block_size(self, block: int) -> int:
        """``S_j`` for one block."""
        return self._block_sizes[block]

    def block_pins(self, block: int) -> int:
        """``|Y_j|`` for one block."""
        return self._block_pins[block]

    def block_ext_ios(self, block: int) -> int:
        """``T_j^E`` — external pads assigned to one block."""
        return self._block_ext_ios[block]

    def block_cells(self, block: int) -> Set[int]:
        """Cells in one block (live view; do not mutate)."""
        return self._block_cells[block]

    def block_num_cells(self, block: int) -> int:
        """Number of cells in one block."""
        return len(self._block_cells[block])

    @property
    def block_sizes(self) -> Tuple[int, ...]:
        """All block sizes as a tuple."""
        return tuple(self._block_sizes)

    @property
    def block_pin_counts(self) -> Tuple[int, ...]:
        """All block pin counts as a tuple."""
        return tuple(self._block_pins)

    @property
    def block_ext_io_counts(self) -> Tuple[int, ...]:
        """All block external-pad counts as a tuple."""
        return tuple(self._block_ext_ios)

    def block_arrays(self) -> Tuple[List[int], List[int], List[int]]:
        """Live ``(sizes, pins, ext pads)`` list views, indexed by block.

        For hot-path readers (the incremental cost listener); callers
        must treat them as read-only.  The references stay valid across
        moves, ``add_block`` and snapshot restores, and are replaced on
        a full rebuild — re-fetch from ``on_rebuild``.
        """
        return self._block_sizes, self._block_pins, self._block_ext_ios

    def net_span(self, net: int) -> int:
        """Number of blocks touched by ``net``."""
        return self.net_spans[net]

    def is_cut(self, net: int) -> bool:
        """True if ``net`` spans more than one block."""
        return self.net_spans[net] > 1

    def net_block_count(self, net: int, block: int) -> int:
        """Pins of ``net`` inside ``block`` (0 if the net misses it)."""
        return self.net_counts[net * self.stride + block]

    def net_distribution(self, net: int) -> Dict[int, int]:
        """``block -> pin count`` map for a net, ascending block order
        (a fresh dict built from the counters)."""
        counts = self.net_counts
        base = net * self.stride
        return {
            b: counts[base + b]
            for b in range(self._num_blocks)
            if counts[base + b]
        }

    def assignment(self) -> List[int]:
        """Copy of the cell→block array (a restorable snapshot)."""
        return list(self._block_of)

    def cells_of_blocks(self, blocks: Iterable[int]) -> List[int]:
        """All cells in any of the given blocks, ascending order."""
        result: List[int] = []
        for b in blocks:
            result.extend(self._block_cells[b])
        return sorted(result)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_block(self) -> int:
        """Append a new empty block; returns its index."""
        if self._num_blocks == self.stride:
            self._grow_stride(self.stride * 2)
        self._num_blocks += 1
        self._block_sizes.append(0)
        self._block_pins.append(0)
        self._block_ext_ios.append(0)
        self._block_cells.append(set())
        for listener in self._listeners:
            listener.on_add_block()
        return self._num_blocks - 1

    def _grow_stride(self, new_stride: int) -> None:
        """Re-layout ``net_counts`` with a wider block capacity."""
        old_stride = self.stride
        counts = self.net_counts
        num_nets = self.hg.num_nets
        grown = [0] * (num_nets * new_stride)
        k = self._num_blocks
        for e in range(num_nets):
            src = e * old_stride
            dst = e * new_stride
            grown[dst:dst + k] = counts[src:src + k]
        self.net_counts = grown
        self.stride = new_stride

    def add_listener(self, listener: StateListener) -> None:
        """Register an observer of every mutation (idempotent)."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: StateListener) -> None:
        """Unregister an observer; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def move(self, cell: int, to_block: int) -> int:
        """Move ``cell`` to ``to_block``; returns its previous block.

        All derived quantities are updated incrementally and the move is
        recorded in the undo journal.  Moving a cell to the block it is
        already in is a no-op (not journaled).
        """
        from_block = self._apply_move(cell, to_block)
        if from_block != to_block:
            self._journal.append((cell, from_block))
        return from_block

    def _apply_move(self, cell: int, to_block: int) -> int:
        """Unjournaled core of :meth:`move` (also used by rewind)."""
        block_of = self._block_of
        from_block = block_of[cell]
        if to_block == from_block:
            return from_block
        if not 0 <= to_block < self._num_blocks:
            raise ValueError(f"invalid destination block {to_block}")
        size = self._cell_sizes[cell]

        block_of[cell] = to_block
        sizes = self._block_sizes
        sizes[from_block] -= size
        sizes[to_block] += size
        self._block_cells[from_block].discard(cell)
        self._block_cells[to_block].add(cell)

        pins = self._block_pins
        ext = self._block_ext_ios
        counts = self.net_counts
        spans = self.net_spans
        stride = self.stride
        net_pads = self._net_pads
        cut_delta = 0
        pins_delta = 0
        for e in self._cell_nets[cell]:
            base = e * stride
            if_ = base + from_block
            it = base + to_block
            c_from = counts[if_]
            c_to = counts[it]
            counts[if_] = c_from - 1
            counts[it] = c_to + 1
            pads = net_pads[e]
            if c_from == 1:
                if c_to == 0:
                    # Net slides between the blocks: span unchanged.
                    if spans[e] > 1 or pads > 0:
                        pins[from_block] -= 1
                        pins[to_block] += 1
                    if pads > 0:
                        ext[from_block] -= pads
                        ext[to_block] += pads
                else:
                    # Net stops touching from_block; span drops by one.
                    span_new = spans[e] - 1
                    spans[e] = span_new
                    pins[from_block] -= 1
                    pins_delta -= 1
                    if pads > 0:
                        ext[from_block] -= pads
                    elif span_new == 1:
                        # Single survivor no longer sees the net.
                        pins[to_block] -= 1
                        pins_delta -= 1
                    if span_new == 1:
                        cut_delta -= 1
            elif c_to == 0:
                # Net starts touching to_block; span grows by one.
                span_old = spans[e]
                spans[e] = span_old + 1
                pins[to_block] += 1
                pins_delta += 1
                if pads > 0:
                    ext[to_block] += pads
                elif span_old == 1:
                    # from_block's copy of the net just became visible.
                    pins[from_block] += 1
                    pins_delta += 1
                if span_old == 1:
                    cut_delta += 1
            # else: net keeps touching both blocks; nothing changes.
        self._cut_nets += cut_delta
        self._total_pins += pins_delta
        for listener in self._listeners:
            listener.on_move(from_block, to_block)
        return from_block

    def move_many(self, cells: Iterable[int], to_block: int) -> None:
        """Move several cells to one block."""
        for cell in cells:
            self.move(cell, to_block)

    # ------------------------------------------------------------------
    # Undo journal
    # ------------------------------------------------------------------

    def journal_mark(self) -> int:
        """Opaque mark of the current journal position (see :meth:`rewind`)."""
        return len(self._journal)

    def rewind(self, mark: int) -> None:
        """Undo every move applied since ``mark``, newest first.

        O(cells moved since the mark).  Marks become invalid once a full
        rebuild happens (a :meth:`restore` that changes the block count).
        """
        journal = self._journal
        if not 0 <= mark <= len(journal):
            raise ValueError(f"invalid journal mark {mark}")
        while len(journal) > mark:
            cell, origin = journal.pop()
            self._apply_move(cell, origin)

    def snapshot(self) -> Tuple[int, int]:
        """Cheap O(1) snapshot: ``(journal mark, block count)``.

        Restore with :meth:`restore_snapshot`.  Valid until the next full
        rebuild (unlike :meth:`assignment`, which is always restorable).
        """
        return len(self._journal), self._num_blocks

    def restore_snapshot(self, snap: Tuple[int, int]) -> None:
        """Return to a :meth:`snapshot` by replaying the journal backwards.

        Blocks appended after the snapshot are dropped again (rewinding
        necessarily empties them: they did not exist when the snapshot
        was taken, so every move into them is undone).
        """
        mark, num_blocks = snap
        if num_blocks > self._num_blocks:
            raise ValueError("snapshot has more blocks than the state")
        self.rewind(mark)
        if num_blocks != self._num_blocks:
            del self._block_sizes[num_blocks:]
            del self._block_pins[num_blocks:]
            del self._block_ext_ios[num_blocks:]
            del self._block_cells[num_blocks:]
            self._num_blocks = num_blocks
            for listener in self._listeners:
                listener.on_rebuild()

    def restore(self, assignment: Sequence[int], num_blocks: Optional[int] = None) -> None:
        """Restore a snapshot taken with :meth:`assignment`.

        When the block count is unchanged this replays only the cells
        whose block differs — O(n + pins of changed cells) — otherwise it
        falls back to a full rebuild (which clears the undo journal).
        """
        if num_blocks is None:
            num_blocks = self._num_blocks
        if len(assignment) != self.hg.num_cells:
            raise ValueError("snapshot length mismatch")
        for c, b in enumerate(assignment):
            if not 0 <= b < num_blocks:
                raise ValueError(f"cell {c} assigned to invalid block {b}")
        if num_blocks == self._num_blocks:
            block_of = self._block_of
            for c, b in enumerate(assignment):
                b = int(b)
                if block_of[c] != b:
                    self.move(c, b)
            return
        self._block_of = [int(b) for b in assignment]
        self._num_blocks = num_blocks
        self._journal.clear()
        self._rebuild()

    # ------------------------------------------------------------------
    # Derived summaries
    # ------------------------------------------------------------------

    def nonempty_blocks(self) -> List[int]:
        """Blocks currently holding at least one cell."""
        return [b for b in range(self._num_blocks) if self._block_cells[b]]

    def __repr__(self) -> str:
        sizes = ",".join(str(s) for s in self._block_sizes)
        return (
            f"PartitionState(k={self._num_blocks}, sizes=[{sizes}], "
            f"cut={self._cut_nets}, T_SUM={self._total_pins})"
        )
