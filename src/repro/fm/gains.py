"""Move gains for multi-way iterative improvement (sections 3.7, [4], [8]).

The *level-1 gain* of moving cell ``c`` from block ``f`` to block ``t`` is
the decrease in the number of cut nets:

* ``+1`` for every net of ``c`` whose pins lie entirely in ``{f, t}`` with
  ``c`` as its only pin in ``f`` (the move uncuts it);
* ``-1`` for every net of ``c`` lying entirely in ``f`` with at least one
  other pin (the move cuts it).

The *level-2 gain* is the Krishnamurthy-style look-ahead used for
tie-breaking.  Our adaptation to the multi-way direction model (documented
here because reference [8] defines it for bipartitions only):

* ``+1`` for every net whose pins lie entirely in ``{f, t}`` with exactly
  two pins in ``f``, both free — after this move one more free move
  uncuts the net;
* ``-1`` for every net lying entirely in ``f`` (with another pin) that the
  move cuts *without* an immediate recovery: more than two pins in ``f``
  or a locked companion pin.

The paper notes (after [7]) that gain levels beyond 2 cost time without
measurable quality, so exactly two levels are implemented.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..partition import PartitionState

__all__ = [
    "move_gain",
    "move_gain_vector",
    "pin_gain",
    "max_possible_gain",
]


def max_possible_gain(state: PartitionState) -> int:
    """Bound on ``|level-1 gain|`` — the maximum cell degree."""
    hg = state.hg
    return max(
        (len(hg.nets_of(c)) for c in range(hg.num_cells)), default=0
    )


def move_gain(state: PartitionState, cell: int, to_block: int) -> int:
    """Level-1 gain of moving ``cell`` to ``to_block``."""
    hg = state.hg
    from_block = state.block_of(cell)
    gain = 0
    counts = state.net_counts
    spans = state.net_spans
    stride = state.stride
    _, _, offsets, cell_nets = hg.csr.list_mirrors()
    for e in cell_nets[offsets[cell]:offsets[cell + 1]]:
        base = e * stride
        count_f = counts[base + from_block]
        span = spans[e]
        if span == 1:
            if count_f > 1:
                gain -= 1  # entirely in f with company: move cuts it
        elif count_f == 1 and span == 2 and counts[base + to_block] > 0:
            gain += 1  # last f pin, everything else already in t
    return gain


def pin_gain(state: PartitionState, cell: int, to_block: int) -> int:
    """Reduction in ``T_f + T_t`` if ``cell`` moves to ``to_block``.

    The paper's future-work proposal (section 5): use the *real* gain in
    block I/O pin count instead of the cut-net gain, since the pin
    constraint — not the cut — is what limits FPGA partitions.  A net
    with zero cut-gain can still change pin counts (e.g. a net sliding
    entirely from one block to another keeps the cut size but moves a
    pin), and vice versa.

    Only the two involved blocks can change pin counts, so the gain is
    computable in O(pins(cell)).
    """
    hg = state.hg
    from_block = state.block_of(cell)
    delta = 0  # change in T_f + T_t (negative is good)
    counts = state.net_counts
    spans = state.net_spans
    stride = state.stride
    _, _, offsets, cell_nets = hg.csr.list_mirrors()
    for e in cell_nets[offsets[cell]:offsets[cell + 1]]:
        base = e * stride
        c_f = counts[base + from_block]
        c_t = counts[base + to_block]
        span = spans[e]
        external = hg.is_external_net(e)
        from_leaves = c_f == 1
        to_enters = c_t == 0
        if from_leaves and to_enters:
            continue  # the pin contribution just moves: net zero
        if from_leaves:
            delta -= 1  # from_block stops seeing the net (span >= 2)
            if span == 2 and not external:
                delta -= 1  # net collapses into to_block: pin vanishes
        elif to_enters:
            delta += 1  # to_block starts seeing the net
            if span == 1 and not external:
                delta += 1  # from_block's internal net becomes visible
    return -delta


def move_gain_vector(
    state: PartitionState,
    cell: int,
    to_block: int,
    locked_in_block: Sequence[Dict[int, int]],
) -> Tuple[int, int]:
    """``(level-1, level-2)`` gains of moving ``cell`` to ``to_block``.

    ``locked_in_block[e]`` maps ``block -> locked pin count`` for net
    ``e`` in the current pass (cells lock in their destination block).
    """
    hg = state.hg
    from_block = state.block_of(cell)
    g1 = 0
    g2 = 0
    counts = state.net_counts
    spans = state.net_spans
    stride = state.stride
    _, _, offsets, cell_nets = hg.csr.list_mirrors()
    for e in cell_nets[offsets[cell]:offsets[cell + 1]]:
        base = e * stride
        count_f = counts[base + from_block]
        span = spans[e]
        if span == 1:
            if count_f > 1:
                g1 -= 1
                locked_f = locked_in_block[e].get(from_block, 0)
                if count_f > 2 or locked_f > 0:
                    g2 -= 1  # newly cut and not recoverable in one move
        elif span == 2 and counts[base + to_block] > 0:
            if count_f == 1:
                g1 += 1
            elif count_f == 2:
                locked_f = locked_in_block[e].get(from_block, 0)
                if locked_f == 0:
                    g2 += 1  # one more free move uncuts the net
    return g1, g2


def direction_gains(
    state: PartitionState,
    cells: Sequence[int],
    to_block: int,
    locked_in_block: Sequence[Dict[int, int]],
) -> List[Tuple[int, int, int]]:
    """Batch helper: ``(cell, g1, g2)`` for many cells toward one block."""
    return [
        (c, *move_gain_vector(state, c, to_block, locked_in_block))
        for c in cells
    ]
