"""Brute-force oracle for the partition core.

Stateless recomputation, from an assignment and the raw hypergraph, of
every quantity the production path maintains incrementally:

* :func:`recount` — Λ(e, b), block sizes, pins, external pads, cut and
  total pins (what :class:`~repro.partition.PartitionState` tracks);
* :func:`move_gains` — level-1, level-2 and pin gains of one move, the
  first and last by definition (cut / pin totals before and after);
* :func:`lex_key` — the lexicographic cost key, through the full-sweep
  :meth:`~repro.core.cost.CostEvaluator.evaluate` over a recount;
* :func:`check_builder_trace` — replays a constructive builder's
  per-step trace, recomputing every candidate set and score from
  scratch and checking each pick against the documented tie-break.

Everything here is deliberately naive (O(pins) per query, nothing
carried between queries): it is a specification, not a second
implementation.  :mod:`repro.testing.differential` drives the production
path against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from ..core.cost import CostEvaluator
from ..initial.seeds import select_seeds

__all__ = [
    "Recount",
    "recount",
    "move_gains",
    "lex_key",
    "check_builder_trace",
]


@dataclass(frozen=True)
class Recount:
    """Every partition aggregate, recomputed from scratch.

    Exposes the read surface :meth:`CostEvaluator.evaluate` needs
    (``num_blocks``, ``block_size`` / ``block_pins`` / ``block_ext_ios``,
    ``total_pins``, ``cut_nets``), so the full sweep can score it.
    """

    num_blocks: int
    distributions: Tuple[Dict[int, int], ...]
    sizes: Tuple[int, ...]
    pins: Tuple[int, ...]
    ext: Tuple[int, ...]
    cut_nets: int
    total_pins: int

    def block_size(self, block: int) -> int:
        return self.sizes[block]

    def block_pins(self, block: int) -> int:
        return self.pins[block]

    def block_ext_ios(self, block: int) -> int:
        return self.ext[block]


def recount(hg, assignment: Sequence[int], num_blocks: int) -> Recount:
    """Recompute Λ(e, b) and every aggregate of one assignment.

    A net gives a pin to each block it touches iff it spans several
    blocks or carries a primary-I/O pad; its pads count toward every
    touched block's external I/O.
    """
    sizes = [0] * num_blocks
    for c, b in enumerate(assignment):
        sizes[b] += hg.cell_size(c)
    pins = [0] * num_blocks
    ext = [0] * num_blocks
    cut = 0
    dists = []
    for e in range(hg.num_nets):
        dist: Dict[int, int] = {}
        for p in hg.pins_of(e):
            dist[assignment[p]] = dist.get(assignment[p], 0) + 1
        dists.append(dist)
        pads = hg.net_terminal_counts[e]
        visible = len(dist) > 1 or pads > 0
        cut += len(dist) > 1
        for b in dist:
            pins[b] += visible
            ext[b] += pads
    return Recount(
        num_blocks, tuple(dists), tuple(sizes), tuple(pins), tuple(ext),
        cut, sum(pins),
    )


def move_gains(
    hg,
    assignment: Sequence[int],
    num_blocks: int,
    cell: int,
    to_block: int,
    locked: AbstractSet[int] = frozenset(),
) -> Tuple[int, int, int]:
    """``(level-1, level-2, pin)`` gains of moving ``cell`` to ``to_block``.

    Level-1 is the drop in cut nets and the pin gain the drop in total
    pins, both measured on a recount after the move.  Level-2 follows
    :mod:`repro.fm.gains`: +1 per net lying in ``{f, t}`` with exactly
    two pins in ``f`` and no locked pin there, -1 per net lying in ``f``
    alone that the move cuts with more than two pins or a locked pin
    left behind.  ``locked`` holds the locked cells.
    """
    before = recount(hg, assignment, num_blocks)
    moved = list(assignment)
    moved[cell] = to_block
    after = recount(hg, moved, num_blocks)
    f = assignment[cell]
    g2 = 0
    for e in hg.nets_of(cell):
        dist = before.distributions[e]
        locked_f = sum(
            1 for p in hg.pins_of(e) if p in locked and assignment[p] == f
        )
        if set(dist) == {f}:
            if dist[f] > 2 or (dist[f] == 2 and locked_f):
                g2 -= 1
        elif set(dist) == {f, to_block} and dist[f] == 2 and not locked_f:
            g2 += 1
    return (
        before.cut_nets - after.cut_nets,
        g2,
        before.total_pins - after.total_pins,
    )


def lex_key(
    hg, assignment: Sequence[int], num_blocks: int, device, config,
    remainder: int,
) -> Tuple:
    """Lexicographic cost key of one assignment (full O(k) sweep)."""
    evaluator = CostEvaluator(
        device, config, device.lower_bound(hg), hg.num_terminals
    )
    return evaluator.evaluate(
        recount(hg, assignment, num_blocks), remainder
    ).key


# ----------------------------------------------------------------------
# Constructive builders
# ----------------------------------------------------------------------


def _inside(hg, block) -> Dict[int, int]:
    """Pins of each net inside a cell set."""
    inside: Dict[int, int] = {}
    for c in block:
        for e in hg.nets_of(c):
            inside[e] = inside.get(e, 0) + 1
    return inside


def _counts_pin(hg, net: int, inside: int) -> bool:
    """A net touching a block is a pin iff it also reaches outside."""
    return 0 < inside and (
        inside < hg.net_degree(net) or hg.is_external_net(net)
    )


def _size_pins(hg, block) -> Tuple[int, int]:
    inside = _inside(hg, block)
    return (
        sum(hg.cell_size(c) for c in block),
        sum(_counts_pin(hg, e, i) for e, i in inside.items()),
    )


def _check_sweep(hg, device, cells, seed, steps, result) -> Optional[str]:
    """One ratio-cut sweep: picks, fingerprints and the best prefix."""
    cell_set = set(cells)
    total = _inside(hg, cell_set)
    side_a: set = set()
    order: List[int] = []
    best: Optional[Tuple[int, float, bool]] = None
    if len(steps) != len(cell_set) - 1:
        return (
            f"sweep from {seed} took {len(steps)} steps, "
            f"expected {len(cell_set) - 1}"
        )
    for j, step in enumerate(steps):
        side_b = cell_set - side_a
        in_a = _inside(hg, side_a)
        cands = {v for e in in_a for v in hg.pins_of(e) if v in side_b}

        def gain(v: int) -> int:
            g = 0
            for e in hg.nets_of(v):
                t, i = total[e], in_a.get(e, 0)
                if t >= 2:
                    g += (0 < i < t) - (0 < i + 1 < t)
            return g

        if j == 0:
            expected = seed
        elif cands:
            expected = max(cands, key=lambda v: (gain(v), hg.cell_size(v), -v))
        else:
            expected = max(side_b, key=lambda v: (hg.cell_size(v), -v))
        side_a.add(expected)
        order.append(expected)
        side_b = cell_set - side_a
        in_a = _inside(hg, side_a)
        cut = sum(1 for e, i in in_a.items() if i < total[e])
        a_size, a_pins = _size_pins(hg, side_a)
        b_size, b_pins = _size_pins(hg, side_b)
        fp = ("rc", expected, cut, a_size, a_pins, b_size, b_pins)
        if tuple(step) != fp:
            return f"sweep from {seed} step {j}: trace {step!r}, oracle {fp!r}"
        if a_size and b_size:
            a_ok = device.fits(a_size, a_pins)
            b_ok = device.fits(b_size, b_pins)
            ratio = cut / (a_size * b_size)
            if (a_ok or b_ok) and (best is None or ratio < best[1]):
                side = a_size >= b_size if a_ok and b_ok else a_ok
                best = (len(order), ratio, side)
    if best is None:
        expected_result = ("rc_result", (), float("inf"), False)
    else:
        prefix = set(order[:best[0]])
        subset = prefix if best[2] else cell_set - prefix
        expected_result = ("rc_result", tuple(sorted(subset)), best[1], True)
    if tuple(result) != expected_result:
        return (
            f"sweep from {seed} result: trace {result!r}, "
            f"oracle best prefix {expected_result!r}"
        )
    return None


def _check_ratio_cut(hg, device, cells, seeds, subset, trace) -> Optional[str]:
    sweeps: List[Tuple[list, tuple]] = []
    steps: list = []
    for entry in trace:
        if entry[0] == "rc_result":
            sweeps.append((steps, entry))
            steps = []
        else:
            steps.append(entry)
    if len(sweeps) != 2 or steps:
        return f"expected two complete sweeps, trace has {len(sweeps)}"
    for seed, (sweep_steps, result) in zip(seeds, sweeps):
        divergence = _check_sweep(hg, device, cells, seed, sweep_steps, result)
        if divergence:
            return divergence
    usable = [
        r for _, r in sweeps if r[3] and 0 < len(r[1]) < len(cells)
    ]
    expected = set(min(usable, key=lambda r: r[2])[1]) if usable else None
    if subset != expected:
        return f"returned {subset!r}, oracle best sweep {expected!r}"
    return None


def _pick(hg, device, block, unassigned) -> Optional[int]:
    """Best-scoring fitting frontier cell, else the jump cell, else None."""
    s_max = device.s_max
    inside = _inside(hg, block)
    size, pins = _size_pins(hg, block)
    best = None
    best_key = None
    for v in {v for e in inside for v in hg.pins_of(e) if v in unassigned}:
        grown = size + hg.cell_size(v)
        if grown > s_max:
            continue
        p = pins + sum(
            _counts_pin(hg, e, inside.get(e, 0) + 1)
            - _counts_pin(hg, e, inside.get(e, 0))
            for e in hg.nets_of(v)
        )
        key = (float("inf") if p <= 0 else grown / p, hg.cell_size(v), -v)
        if best_key is None or key > best_key:
            best, best_key = v, key
    if best is not None:
        return best
    fitting = [v for v in unassigned if hg.cell_size(v) <= s_max - size]
    return max(fitting, key=lambda v: (hg.cell_size(v), -v), default=None)


def _check_growth(
    hg, device, name, cells, seeds, subset, trace
) -> Optional[str]:
    """Greedy merge (two alternating blocks) or seed grow (one block)."""
    blocks = [{s} for s in seeds]
    unassigned = set(cells) - set(seeds)
    saturated = [False] * len(seeds)
    steps = iter(trace)
    j = 0
    while not all(saturated):
        if name == "seed_grow" and len(unassigned) <= 1:
            break
        grew = False
        for side, block in enumerate(blocks):
            if saturated[side]:
                continue
            cell = _pick(hg, device, block, unassigned)
            if cell is None:
                saturated[side] = True
                continue
            grew = True
            unassigned.discard(cell)
            block.add(cell)
            size, pins = _size_pins(hg, block)
            fp = (
                ("gm", side, cell, size, pins) if name == "greedy_merge"
                else ("sg", cell, size, pins)
            )
            step = next(steps, None)
            if step is None or tuple(step) != fp:
                return f"{name} step {j}: trace {step!r}, oracle {fp!r}"
            j += 1
        if not grew:
            break
    extra = next(steps, None)
    if extra is not None:
        return f"{name} step {j}: trace {extra!r}, oracle stopped growing"
    if name == "greedy_merge":
        a, b = (_size_pins(hg, block) for block in blocks)
        expected = blocks[0] if (a[0], -a[1]) >= (b[0], -b[1]) else blocks[1]
    else:
        expected = blocks[0]
    if subset != expected:
        return f"returned {sorted(subset)!r}, oracle {sorted(expected)!r}"
    return None


def check_builder_trace(
    hg,
    device,
    name: str,
    cells: Sequence[int],
    rng_seed: Optional[int],
    subset,
    trace: Sequence[tuple],
) -> Optional[str]:
    """Check one builder call against a from-scratch replay.

    ``subset`` and ``trace`` are what builder ``name`` returned and
    recorded for ``cells`` with ``random.Random(rng_seed)`` (or no rng).
    Every step is recomputed from the cells placed so far: the candidate
    set, each gain or merge score, the argmax under the documented
    tie-break (including the disconnected / frontier-empty jump), the
    step fingerprint, and finally the returned subset.  Returns None
    when everything matches, else a message naming the first divergent
    step.
    """
    cell_list = sorted(set(cells))
    rng = random.Random(rng_seed) if rng_seed is not None else None
    seed1, seed2 = select_seeds(hg, cell_list, rng=rng)
    subset = set(subset) if subset is not None else None
    if name == "ratio_cut":
        return _check_ratio_cut(
            hg, device, cell_list, (seed1, seed2), subset, trace
        )
    if name == "greedy_merge":
        seeds: Tuple[int, ...] = (seed1, seed2)
    elif name == "seed_grow":
        seeds = (seed1,)
    else:
        raise ValueError(f"unknown builder {name!r}")
    return _check_growth(hg, device, name, cell_list, seeds, subset, trace)
