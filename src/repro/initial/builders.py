"""Constructive bipartition builders (section 3.2) on the CSR substrate.

Three builders split a cell set into the produced block ``P_k`` and the
rest; all read the hypergraph through its
:class:`~repro.hypergraph.csr.CsrView` list mirrors.  Block pins follow
the :class:`~repro.initial.GrowingBlock` semantics: a net touching the
block contributes one pin iff it also reaches anything outside it (an
interior cell anywhere, or a primary I/O pad).

* **Ratio-cut sweep** (after Wei–Cheng [15]).  From a seed as side A,
  cells move from B to A one at a time, the candidate maximizing
  ``(gain, cell_size, -index)`` first, where ``gain`` is the cut
  reduction and the candidates are the B cells sharing a net with A.
  With no candidate (disconnected circuits) the sweep jumps to the B
  cell maximizing ``(cell_size, -index)``.  After every move the ratio
  ``R = C / (S(A) * S(B))`` is evaluated; the prefix with the strictly
  smallest ratio *among prefixes where at least one side fits the
  device* wins, and its fitting side (the bigger one when both fit)
  becomes ``P_k``.  The sweep runs from each of the two seeds and the
  smaller ratio wins.
* **Greedy two-seed merge** (after Brasen/Hiol/Saucier [1]).  Two
  blocks grow alternately, one cell each per round, which "slightly
  alleviates the greedy tendency" of single-block growth.  A block adds
  the frontier cell (unassigned, sharing a net with the block) that
  fits under ``S_MAX`` and maximizes ``(S / T, cell_size, -index)`` for
  the block it would form (``T = 0`` scores infinitely dense); with no
  fitting frontier cell it jumps to the unassigned cell maximizing
  ``(cell_size, -index)`` that still fits, and otherwise saturates.
  The bigger block (then fewer pins, then the first seed's) is ``P_k``.
* **Single-seed growing.**  One block grows from the primary seed by the
  same merge score until nothing more fits or one cell is left, so the
  split is always proper.  Its greedy bias makes it a diverse portfolio
  member; it joins the portfolio only on seeded runs, keeping the
  default ``seed=0`` trajectory on the historical two builders.

Selection structures:

* ratio-cut — ``net_total`` / ``in_a`` are dense integer lists indexed
  by net (shared across the two seed sweeps of one bipartition), and
  candidate gains live in a :class:`~repro.fm.buckets.GainBuckets`
  keyed by integer gain and adjusted incrementally; only the top bucket
  is scanned for the secondary ``(cell_size, -index)`` tie-break, which
  is exact because ``(gain, cell_size, -index)`` is a total order.
* greedy merge / seed grow — the frontier's pin-delta previews are kept
  *incrementally* (when a cell joins, only the nets it touches change
  any candidate's delta, and all outside candidates on a net share the
  same contribution change), and candidates are bucketed by the
  invariant pair ``(cell_size, pin_delta)``.  The merge score ``S/T``
  depends on the *current* block size and pin count, so one score per
  bucket is computed at pick time, and the within-bucket tie-break
  (same score, same size ⇒ lowest index wins) reduces to the bucket's
  minimum live index, held in a per-bucket lazy-deletion min-heap.

Every builder accepts ``trace``, a list collecting one fingerprint tuple
per step (``("rc", …)``, ``("gm", …)``, ``("sg", …)``);
:func:`repro.testing.oracle.check_builder_trace` replays those traces
against a brute-force recompute of every candidate set and score.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..core.device import Device
from ..fm.buckets import GainBuckets
from ..hypergraph import Hypergraph
from .seeds import select_seeds

__all__ = [
    "BUILDERS",
    "SweepResult",
    "greedy_merge_bipartition",
    "ratio_cut_bipartition",
    "ratio_cut_sweep",
    "seed_grow_bipartition",
    "swept_net_totals",
]


@dataclass(frozen=True)
class SweepResult:
    """Best prefix of one ratio-cut sweep."""

    subset: Tuple[int, ...]
    """The produced block ``P_k`` — the feasible side of the best prefix
    (the bigger side when both fit)."""
    ratio: float
    """The ratio ``R`` at the best prefix (``inf`` when no prefix had a
    feasible side)."""
    feasible: bool
    """Whether any prefix had a side meeting device constraints."""


def swept_net_totals(hg: Hypergraph, cells: Sequence[int]) -> List[int]:
    """Pins of each net inside the swept cell set (dense, by net).

    Constant for the whole bipartition, so :func:`ratio_cut_bipartition`
    computes it once and shares it across its two seed sweeps.
    """
    _, _, cell_off, cell_nets = hg.csr.list_mirrors()
    tot = [0] * hg.num_nets
    for c in cells:
        for k in range(cell_off[c], cell_off[c + 1]):
            tot[cell_nets[k]] += 1
    return tot


class _Context:
    """Per-builder-call CSR views shared by sweeps and growers.

    Holds the CSR list mirrors plus ``thr``, the per-net pin threshold
    that folds :meth:`GrowingBlock._net_counts_pin` into one compare:
    a net with ``inside`` member pins contributes a pin iff
    ``0 < inside < thr[e]`` (``thr`` is the interior degree, plus one
    when the net also reaches a primary I/O pad and therefore counts a
    pin even when fully absorbed).
    """

    __slots__ = (
        "hg", "cell_list", "num_cells", "num_nets",
        "net_off", "net_pins", "cell_off", "cell_nets",
        "cell_sizes", "thr",
        "tot", "swept_size", "swept_pins", "max_deg",
    )

    def __init__(self, hg: Hypergraph, cell_list: List[int]) -> None:
        csr = hg.csr
        self.hg = hg
        self.cell_list = cell_list
        self.num_cells = csr.num_cells
        self.num_nets = csr.num_nets
        (
            self.net_off,
            self.net_pins,
            self.cell_off,
            self.cell_nets,
        ) = csr.list_mirrors()
        self.cell_sizes = hg.cell_sizes
        term = hg.net_terminal_counts
        net_off = self.net_off
        self.thr = [
            net_off[e + 1] - net_off[e] + (1 if term[e] else 0)
            for e in range(self.num_nets)
        ]
        self.tot = None

    def prepare_sweep(self, tot: Optional[List[int]] = None) -> None:
        """Set up the swept-set state shared by both seed sweeps.

        ``tot`` is :func:`swept_net_totals` of the cell list, computed
        here unless the caller already has it.
        """
        if tot is None:
            tot = swept_net_totals(self.hg, self.cell_list)
        cell_off = self.cell_off
        cell_sizes = self.cell_sizes
        thr = self.thr
        self.tot = tot
        self.max_deg = max(
            (cell_off[c + 1] - cell_off[c] for c in self.cell_list), default=0
        )
        self.swept_size = sum(cell_sizes[c] for c in self.cell_list)
        self.swept_pins = sum(
            1 for e, t in enumerate(tot) if 0 < t < thr[e]
        )


class _Sweep:
    """One ratio-cut sweep: side-A/B bookkeeping plus candidate gains.

    Candidate gains live in a :class:`GainBuckets` adjusted
    incrementally (gains only change on nets of the moved cell, and
    every B-side pin of such a net shifts by the same per-net amount).
    """

    __slots__ = (
        "ctx", "in_a", "in_b", "cut", "a_size", "a_pins",
        "b_size", "b_pins", "b_count", "gains",
        "_stamp", "_acc", "_token",
    )

    def __init__(self, ctx: _Context) -> None:
        self.ctx = ctx
        num_cells = ctx.num_cells
        self.in_a = [0] * ctx.num_nets
        in_b = bytearray(num_cells)
        for c in ctx.cell_list:
            in_b[c] = 1
        self.in_b = in_b
        self.cut = 0
        self.a_size = 0
        self.a_pins = 0
        self.b_size = ctx.swept_size
        self.b_pins = ctx.swept_pins
        self.b_count = len(ctx.cell_list)
        self.gains = GainBuckets(ctx.max_deg, num_cells)
        self._stamp = [-1] * num_cells
        self._acc = [0] * num_cells
        self._token = 0

    def move(self, cell: int) -> None:
        """Move a cell from side B to side A (one constructive step)."""
        ctx = self.ctx
        cell_off = ctx.cell_off
        cell_nets = ctx.cell_nets
        net_off = ctx.net_off
        net_pins = ctx.net_pins
        tot = ctx.tot
        thr = ctx.thr
        in_a = self.in_a
        in_b = self.in_b
        gains = self.gains
        in_b[cell] = 0
        self.b_count -= 1
        if cell in gains:
            gains.remove(cell)
        cut = self.cut
        a_pins = self.a_pins
        b_pins = self.b_pins
        changed = []
        for k in range(cell_off[cell], cell_off[cell + 1]):
            e = cell_nets[k]
            t = tot[e]
            i = in_a[e]
            i1 = i + 1
            in_a[e] = i1
            te = thr[e]
            a_pins += (0 < i1 < te) - (0 < i < te)
            bi = t - i
            b_pins += (0 < bi - 1 < te) - (0 < bi < te)
            if t >= 2:
                c_old = 0 < i < t
                c_new = 0 < i1 < t
                cut += c_new - c_old
                # Candidate gain on e is cs(i) - cs(i+1); its change is
                # the same for every remaining B pin of the net.
                changed.append((e, (c_new - (0 < i + 2 < t)) - (c_old - c_new)))
        self.cut = cut
        self.a_pins = a_pins
        self.b_pins = b_pins
        sz = ctx.cell_sizes[cell]
        self.a_size += sz
        self.b_size -= sz
        # Refresh candidates around the move: present candidates shift
        # by the accumulated per-net deltas, first-touched ones get a
        # full gain computation.
        token = self._token = self._token + 1
        stamp = self._stamp
        acc = self._acc
        touched = []
        for e, dg in changed:
            for k in range(net_off[e], net_off[e + 1]):
                v = net_pins[k]
                if in_b[v]:
                    if stamp[v] != token:
                        stamp[v] = token
                        acc[v] = dg
                        touched.append(v)
                    else:
                        acc[v] += dg
        for v in touched:
            if v in gains:
                d = acc[v]
                if d:
                    gains.adjust(v, d)
            else:
                gains.insert(v, self._gain_of(v))

    def _gain_of(self, v: int) -> int:
        """Full gain (cut reduction) of moving a B-side candidate to A."""
        ctx = self.ctx
        cell_off = ctx.cell_off
        cell_nets = ctx.cell_nets
        tot = ctx.tot
        in_a = self.in_a
        g = 0
        for k in range(cell_off[v], cell_off[v + 1]):
            e = cell_nets[k]
            t = tot[e]
            if t < 2:
                continue
            i = in_a[e]
            g += (0 < i < t) - (0 < i + 1 < t)
        return g

    def select(self) -> int:
        """Next cell to move: max ``(gain, cell_size, -index)``.

        Only the top gain bucket needs the secondary scan; when no
        candidate is adjacent (disconnected circuits) the jump branch
        picks the biggest remaining B cell, lowest index on ties.
        """
        gains = self.gains
        cell_sizes = self.ctx.cell_sizes
        best = -1
        best_size = -1
        if len(gains):
            for v in gains.iter_max_bucket():
                s = cell_sizes[v]
                if s > best_size or (s == best_size and v < best):
                    best_size = s
                    best = v
            return best
        in_b = self.in_b
        for v in self.ctx.cell_list:
            if in_b[v]:
                s = cell_sizes[v]
                if s > best_size or (s == best_size and v < best):
                    best_size = s
                    best = v
        return best


def _sweep(
    ctx: _Context,
    device: Device,
    seed: int,
    trace: Optional[list],
) -> SweepResult:
    """One ratio-cut sweep from ``seed`` over the prepared context."""
    sweep = _Sweep(ctx)
    sweep.move(seed)
    if trace is not None:
        trace.append(
            ("rc", seed, sweep.cut, sweep.a_size, sweep.a_pins,
             sweep.b_size, sweep.b_pins)
        )
    order = [seed]
    best_index: Optional[int] = None
    best_ratio = float("inf")
    best_side_a = True
    fits = device.fits

    def consider_prefix(index: int) -> None:
        nonlocal best_index, best_ratio, best_side_a
        a_size = sweep.a_size
        b_size = sweep.b_size
        if a_size == 0 or b_size == 0:
            return
        ratio = sweep.cut / (a_size * b_size)
        a_ok = fits(a_size, sweep.a_pins)
        b_ok = fits(b_size, sweep.b_pins)
        if not (a_ok or b_ok):
            return
        if ratio < best_ratio:
            best_ratio = ratio
            best_index = index
            if a_ok and b_ok:
                best_side_a = a_size >= b_size
            else:
                best_side_a = a_ok

    consider_prefix(1)
    while sweep.b_count > 1:
        cell = sweep.select()
        sweep.move(cell)
        order.append(cell)
        consider_prefix(len(order))
        if trace is not None:
            trace.append(
                ("rc", cell, sweep.cut, sweep.a_size, sweep.a_pins,
                 sweep.b_size, sweep.b_pins)
            )

    if best_index is None:
        result = SweepResult(subset=(), ratio=float("inf"), feasible=False)
    else:
        prefix = set(order[:best_index])
        if best_side_a:
            subset = tuple(sorted(prefix))
        else:
            subset = tuple(sorted(set(ctx.cell_list) - prefix))
        result = SweepResult(subset=subset, ratio=best_ratio, feasible=True)
    if trace is not None:
        trace.append(
            ("rc_result", result.subset, result.ratio, result.feasible)
        )
    return result


def ratio_cut_sweep(
    hg: Hypergraph,
    cells: Sequence[int],
    device: Device,
    seed: int,
    net_total: Optional[List[int]] = None,
    trace: Optional[list] = None,
) -> SweepResult:
    """Sweep from one seed; returns the best feasible-side prefix.

    ``net_total`` optionally supplies :func:`swept_net_totals` of
    ``cells`` (read, never mutated); ``trace`` optionally collects one
    fingerprint tuple per move.
    """
    cell_list = sorted(set(cells))
    if seed not in cell_list:
        raise ValueError("seed must belong to the swept cells")
    ctx = _Context(hg, cell_list)
    ctx.prepare_sweep(net_total)
    return _sweep(ctx, device, seed, trace)


def ratio_cut_bipartition(
    hg: Hypergraph,
    cells: Iterable[int],
    device: Device,
    rng: Optional[random.Random] = None,
    trace: Optional[list] = None,
) -> Optional[Set[int]]:
    """Best-of-two-seeds ratio-cut bipartition of ``cells``.

    Returns the produced block ``P_k`` or ``None`` when no sweep prefix
    had a feasible side (the greedy-merge pass then decides alone).
    ``rng`` perturbs the sweep-seed choice (see ``initial.seeds``).
    """
    cell_list = sorted(set(cells))
    if len(cell_list) < 2:
        raise ValueError("cannot bipartition fewer than two cells")
    seed1, seed2 = select_seeds(hg, cell_list, rng=rng)
    ctx = _Context(hg, cell_list)
    ctx.prepare_sweep()
    results = [
        _sweep(ctx, device, seed1, trace),
        _sweep(ctx, device, seed2, trace),
    ]
    results = [
        r for r in results if r.feasible and 0 < len(r.subset) < len(cell_list)
    ]
    if not results:
        return None
    best = min(results, key=lambda r: r.ratio)
    return set(best.subset)


class _GrowState:
    """Unassigned-cell flags shared by the growers of one bipartition."""

    __slots__ = ("flags", "remaining", "cell_list")

    def __init__(self, num_cells: int, cell_list: List[int], seeds) -> None:
        flags = bytearray(num_cells)
        for c in cell_list:
            flags[c] = 1
        for s in seeds:
            flags[s] = 0
        self.flags = flags
        self.remaining = len(cell_list) - len(seeds)
        self.cell_list = cell_list


class _Grower:
    """One growing block plus its bucketed candidate frontier.

    Frontier candidates are bucketed by ``(cell_size, pin_delta)`` —
    both invariant between adds that don't touch the candidate — so the
    merge score of a whole bucket is one division at pick time and the
    per-step frontier scan drops to the number of distinct buckets.
    Each bucket keeps its minimum live cell index in a lazy-deletion
    min-heap (entries go stale on rebucket/removal and are popped when
    next seen), which resolves the ``-index`` tie-break.
    """

    __slots__ = (
        "ctx", "s_max", "inside", "size", "pins", "saturated",
        "members", "delta", "key_of", "buckets",
        "_stamp", "_acc", "_token", "_seed_changed",
    )

    def __init__(self, ctx: _Context, seed: int, s_max: float) -> None:
        num_cells = ctx.num_cells
        self.ctx = ctx
        self.s_max = s_max
        self.inside = [0] * ctx.num_nets
        self.size = 0
        self.pins = 0
        self.saturated = False
        self.members: List[int] = []
        self.delta = [0] * num_cells
        self.key_of: List[Optional[tuple]] = [None] * num_cells
        self.buckets: dict = {}
        self._stamp = [-1] * num_cells
        self._acc = [0] * num_cells
        self._token = 0
        self._seed_changed = self._apply(seed)

    def _apply(self, cell: int):
        """Count a cell into the block; returns per-net contrib deltas."""
        ctx = self.ctx
        cell_off = ctx.cell_off
        cell_nets = ctx.cell_nets
        thr = ctx.thr
        inside = self.inside
        pins = self.pins
        changed = []
        for k in range(cell_off[cell], cell_off[cell + 1]):
            e = cell_nets[k]
            i = inside[e]
            i1 = i + 1
            inside[e] = i1
            te = thr[e]
            f0 = 0 < i < te
            f1 = 0 < i1 < te
            pins += f1 - f0
            # A candidate on e previewed f(i+1) - f(i); it now previews
            # f(i+2) - f(i+1).  Same shift for every outside candidate.
            changed.append((e, (0 < i + 2 < te) - f1 - (f1 - f0)))
        self.pins = pins
        self.size += ctx.cell_sizes[cell]
        self.members.append(cell)
        return changed

    def _delta_of(self, v: int) -> int:
        """Full pin-delta preview of adding ``v`` to the block."""
        ctx = self.ctx
        cell_off = ctx.cell_off
        cell_nets = ctx.cell_nets
        thr = ctx.thr
        inside = self.inside
        d = 0
        for k in range(cell_off[v], cell_off[v + 1]):
            e = cell_nets[k]
            i = inside[e]
            te = thr[e]
            d += (0 < i + 1 < te) - (0 < i < te)
        return d

    def _insert(self, v: int, d: int) -> None:
        key = (self.ctx.cell_sizes[v], d)
        rec = self.buckets.get(key)
        if rec is None:
            rec = [[], 0]
            self.buckets[key] = rec
        heappush(rec[0], v)
        rec[1] += 1
        self.key_of[v] = key
        self.delta[v] = d

    def _rebucket(self, v: int, nd: int) -> None:
        buckets = self.buckets
        old = self.key_of[v]
        rec = buckets[old]
        rec[1] -= 1
        if not rec[1]:
            del buckets[old]
        key = (old[0], nd)
        rec = buckets.get(key)
        if rec is None:
            rec = [[], 0]
            buckets[key] = rec
        heappush(rec[0], v)
        rec[1] += 1
        self.key_of[v] = key
        self.delta[v] = nd

    def discard(self, v: int) -> None:
        """Drop a cell from the frontier (stale heap entries linger)."""
        old = self.key_of[v]
        if old is None:
            return
        rec = self.buckets[old]
        rec[1] -= 1
        if not rec[1]:
            del self.buckets[old]
        self.key_of[v] = None

    def _propagate(self, changed, flags: bytearray) -> None:
        """Push per-net contrib deltas to the unassigned neighbourhood.

        Every unassigned pin of a touched net is (re)considered —
        present frontier members shift by the accumulated delta, new
        ones get a full preview.
        """
        ctx = self.ctx
        net_off = ctx.net_off
        net_pins = ctx.net_pins
        token = self._token = self._token + 1
        stamp = self._stamp
        acc = self._acc
        touched = []
        for e, dc in changed:
            for k in range(net_off[e], net_off[e + 1]):
                v = net_pins[k]
                if flags[v]:
                    if stamp[v] != token:
                        stamp[v] = token
                        acc[v] = dc
                        touched.append(v)
                    else:
                        acc[v] += dc
        key_of = self.key_of
        delta = self.delta
        for v in touched:
            if key_of[v] is not None:
                d = acc[v]
                if d:
                    self._rebucket(v, delta[v] + d)
            else:
                self._insert(v, self._delta_of(v))

    def extend_initial(self, flags: bytearray) -> None:
        """Seed the frontier with the seed's unassigned neighbours."""
        self._propagate(self._seed_changed, flags)

    def add(self, cell: int, flags: bytearray) -> None:
        """Grow by one cell and refresh its neighbourhood."""
        self._propagate(self._apply(cell), flags)

    def pick(self, st: _GrowState) -> Optional[int]:
        """Best-scoring fitting candidate, or a jump cell, or None."""
        size = self.size
        pins = self.pins
        s_max = self.s_max
        key_of = self.key_of
        inf = float("inf")
        best_key = None
        best_cell = -1
        for key, rec in self.buckets.items():
            s = key[0]
            total = size + s
            if total > s_max:
                continue
            heap = rec[0]
            while key_of[heap[0]] != key:
                heappop(heap)
            top = heap[0]
            p = pins + key[1]
            score = inf if p <= 0 else total / p
            cand = (score, s, -top)
            if best_key is None or cand > best_key:
                best_key = cand
                best_cell = top
        if best_cell >= 0:
            return best_cell
        # Frontier exhausted or nothing fits adjacently: jump to the
        # biggest unassigned cell that still fits.
        budget = s_max - size
        cell_sizes = self.ctx.cell_sizes
        flags = st.flags
        best = -1
        best_size = -1
        for c in st.cell_list:
            if flags[c]:
                s = cell_sizes[c]
                if s <= budget and (
                    s > best_size or (s == best_size and c < best)
                ):
                    best_size = s
                    best = c
        return best if best >= 0 else None

    def grow(
        self, st: _GrowState, other: Optional["_Grower"]
    ) -> Optional[int]:
        """Add one cell if possible; returns the added cell or None."""
        if self.saturated:
            return None
        cell = self.pick(st)
        if cell is None:
            self.saturated = True
            return None
        st.flags[cell] = 0
        st.remaining -= 1
        self.discard(cell)
        if other is not None:
            other.discard(cell)
        self.add(cell, st.flags)
        return cell


def greedy_merge_bipartition(
    hg: Hypergraph,
    cells: Iterable[int],
    device: Device,
    rng: Optional[random.Random] = None,
    trace: Optional[list] = None,
) -> Set[int]:
    """Split ``cells`` constructively; returns the produced block ``P_k``.

    The returned set is the bigger of the two grown blocks (ties prefer
    fewer pins, then the block of the first seed); the complement within
    ``cells`` is the remainder.  Always a proper non-empty subset.
    ``rng`` perturbs the growth-seed choice (see ``initial.seeds``);
    ``None`` is the canonical deterministic path.
    """
    cell_list = sorted(set(cells))
    if len(cell_list) < 2:
        raise ValueError("cannot bipartition fewer than two cells")
    seed1, seed2 = select_seeds(hg, cell_list, rng=rng)
    ctx = _Context(hg, cell_list)
    st = _GrowState(ctx.num_cells, cell_list, (seed1, seed2))

    grower_a = _Grower(ctx, seed1, device.s_max)
    grower_b = _Grower(ctx, seed2, device.s_max)
    grower_a.extend_initial(st.flags)
    grower_b.extend_initial(st.flags)

    while not (grower_a.saturated and grower_b.saturated):
        cell_a = grower_a.grow(st, grower_b)
        cell_b = grower_b.grow(st, grower_a)
        if trace is not None:
            if cell_a is not None:
                trace.append(
                    ("gm", 0, cell_a, grower_a.size, grower_a.pins)
                )
            if cell_b is not None:
                trace.append(
                    ("gm", 1, cell_b, grower_b.size, grower_b.pins)
                )
        if cell_a is None and cell_b is None:
            break

    a, b = grower_a, grower_b
    # Bigger block becomes P_k; at equal size prefer the denser one.
    if (a.size, -a.pins) >= (b.size, -b.pins):
        return set(a.members)
    return set(b.members)


def seed_grow_bipartition(
    hg: Hypergraph,
    cells: Iterable[int],
    device: Device,
    rng: Optional[random.Random] = None,
    trace: Optional[list] = None,
) -> Set[int]:
    """Grow one block from the primary seed; returns ``P_k``.

    Always a proper non-empty subset of ``cells`` (growth stops one
    cell short of swallowing everything).  ``rng`` perturbs the seed
    choice exactly as in the sibling builders.
    """
    cell_list = sorted(set(cells))
    if len(cell_list) < 2:
        raise ValueError("cannot bipartition fewer than two cells")
    seed1, _seed2 = select_seeds(hg, cell_list, rng=rng)
    ctx = _Context(hg, cell_list)
    st = _GrowState(ctx.num_cells, cell_list, (seed1,))

    grower = _Grower(ctx, seed1, device.s_max)
    grower.extend_initial(st.flags)
    # Keep at least one cell outside so the split is always proper.
    while st.remaining > 1:
        cell = grower.pick(st)
        if cell is None:
            break
        st.flags[cell] = 0
        st.remaining -= 1
        grower.discard(cell)
        grower.add(cell, st.flags)
        if trace is not None:
            trace.append(("sg", cell, grower.size, grower.pins))
    return set(grower.members)


#: The constructive builder portfolio by name, in portfolio order.
#: ``seed_grow`` participates only on seeded runs.
BUILDERS = {
    "greedy_merge": greedy_merge_bipartition,
    "ratio_cut": ratio_cut_bipartition,
    "seed_grow": seed_grow_bipartition,
}
