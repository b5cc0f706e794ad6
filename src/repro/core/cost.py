"""Lexicographic solution cost (section 3.4).

When two solutions are compared during a pass, the better one is decided
by the tuple ``(f, d_k, T_SUM, d_k^E)`` in lexicographic order:

1. ``f`` — number of feasible blocks (more is better; ``f = k`` means a
   feasible partition was found),
2. ``d_k`` — infeasibility distance (smaller is better),
3. ``T_SUM`` — total pins over all blocks (smaller is better),
4. ``d_k^E`` — external-I/O balancing factor (smaller is better): the
   summed shortfall of each block's external-pad count below the average
   ``T_AVG^E = |Y_0| / M``; keeping it small spreads primary I/Os evenly
   so the last remainder is not choked by external pads.

For the cost-function ablation (the net-count-only cost of Kuznar's
k-way.x) the comparison degrades to ``(f, cut_nets)``.

Incremental evaluation
----------------------
Both evaluators compute the float terms (``d_k``, ``d_k^E``) from
*integer aggregates* through one shared closed-form expression::

    d_k   = lambda_S (sum_S - n_S S_MAX) / S_MAX
          + lambda_T (sum_T - n_T T_MAX) / T_MAX  + lambda_R d_k^R
    d_k^E = (n_B T_AVG^E - sum_E) / T_AVG^E

where ``n_S``/``sum_S`` count and sum the sizes of over-capacity blocks,
``n_T``/``sum_T`` do the same for over-pin blocks, and ``n_B``/``sum_E``
for blocks whose external-pad count sits below ``T_AVG^E``.  The
aggregates are exact integers, so :class:`IncrementalCostEvaluator` —
which maintains them under O(1) per-move updates — produces costs
*bit-identical* to a fresh O(k) :meth:`CostEvaluator.evaluate` sweep (no
floating-point drift from repeated add/subtract).

The incremental evaluator fuses the per-move window — refresh the two
touched blocks, then rebuild the lexicographic key — into one listener
call, and the engines read the fresh key from
:attr:`IncrementalCostEvaluator.last_key_cell`.  Techniques on that hot
path, in decreasing order of measured impact:

* **Closure-compiled hot path with scalar aggregates.**  ``attach`` /
  ``on_rebuild`` / ``add_block`` / ``set_remainder`` re-generate the
  ``on_move`` listener as a closure whose free variables bind every
  constant (``S_MAX``, ``T_MAX``, ``T_AVG^E``, the lambda weights) and
  every mutable structure once.  The seven aggregates live as *nonlocal
  int cells* of that closure — one ``LOAD_DEREF`` per touch — and are
  written back to ``self._agg`` only when a cold-path query needs them.
  Installing the closure as an *instance* attribute also skips
  bound-method creation in the listener dispatch.
* **Split per-block term lists.**  The per-block contribution terms live
  in seven parallel int lists (``feas[b]``, ``n_s[b]``, ``sum_s[b]``,
  ...), so a touched block's refresh is a handful of single-subscript
  reads/writes instead of tuple allocation.
* **Distance / penalty / ext-balance caching.**  Each float expression is
  re-evaluated only when one of its inputs moved; the cached value is the
  exact float the shared expression produced, so caching cannot break
  bit-identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..partition import PartitionState, StateListener
from .config import FpartConfig
from .device import Device
from .feasibility import size_deviation_penalty

__all__ = [
    "SolutionCost",
    "CostEvaluator",
    "IncrementalCostEvaluator",
    "make_evaluator",
]


@functools.total_ordering
@dataclass(frozen=True)
class SolutionCost:
    """One evaluated solution.  Ordering: smaller compares better."""

    feasible_blocks: int
    distance: float
    total_pins: int
    ext_balance: float
    cut_nets: int
    use_infeasibility: bool = True

    @property
    def key(self) -> Tuple:
        """Lexicographic comparison key (smaller is better)."""
        if self.use_infeasibility:
            return (
                -self.feasible_blocks,
                self.distance,
                self.total_pins,
                self.ext_balance,
            )
        return (-self.feasible_blocks, self.cut_nets)

    def __lt__(self, other: "SolutionCost") -> bool:
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionCost):
            return NotImplemented
        return self.key == other.key

    def __repr__(self) -> str:
        return (
            f"SolutionCost(f={self.feasible_blocks}, d={self.distance:.4f}, "
            f"T_SUM={self.total_pins}, d_E={self.ext_balance:.4f}, "
            f"cut={self.cut_nets})"
        )


class CostEvaluator:
    """Evaluates :class:`SolutionCost` for states of one partitioning run.

    Holds the run-wide constants — device, config, the circuit lower
    bound ``M`` and ``T_AVG^E = |Y_0| / M`` — so evaluating a state is a
    single O(k) sweep over blocks.
    """

    def __init__(
        self,
        device: Device,
        config: FpartConfig,
        lower_bound: int,
        num_terminals: int,
    ) -> None:
        if lower_bound < 1:
            raise ValueError("lower bound M must be at least 1")
        self.device = device
        self.config = config
        self.lower_bound = lower_bound
        self.num_terminals = num_terminals
        self.t_avg_ext = num_terminals / lower_bound
        # Full O(k) sweep count — a plain int (not a registry counter) so
        # the evaluator carries zero telemetry machinery; the FPART
        # driver folds it into ``cost.full_sweeps`` at run end.  On the
        # incremental evaluator this counts full evaluations (pass
        # boundaries, candidate splits); on a plain one, every query.
        self.full_sweeps = 0

    # -- shared aggregate machinery -------------------------------------

    def _block_terms(
        self, size: int, pins: int, ext: int
    ) -> Tuple[int, int, int, int, int, int, int]:
        """One block's contribution to the integer aggregates.

        ``(feasible, n_S, sum_S, n_T, sum_T, n_B, sum_E)`` — see the
        module docstring for the aggregate definitions.
        """
        device = self.device
        over_s = size > device.s_max
        over_t = pins > device.t_max
        below = ext < self.t_avg_ext
        return (
            0 if (over_s or over_t) else 1,
            1 if over_s else 0,
            size if over_s else 0,
            1 if over_t else 0,
            pins if over_t else 0,
            1 if below else 0,
            ext if below else 0,
        )

    def _deviation_penalty(
        self, state: PartitionState, remainder: int
    ) -> float:
        """``d_k^R`` of the remainder — memoized by the incremental
        subclass (the function is pure, so the memo is bit-identical)."""
        return size_deviation_penalty(
            state.block_size(remainder),
            self.lower_bound,
            state.num_blocks - 1,
            self.device,
        )

    def _float_terms(
        self,
        n_s: int,
        sum_s: int,
        n_t: int,
        sum_t: int,
        n_b: int,
        sum_ext: int,
        state: PartitionState,
        remainder: int,
    ) -> Tuple[float, float]:
        """``(d_k, d_k^E)`` from the integer aggregates.

        This is the *only* place the float terms are computed, so the
        O(k) sweep and the incremental path are bit-identical.
        """
        device = self.device
        config = self.config
        distance = (
            config.lambda_s * ((sum_s - n_s * device.s_max) / device.s_max)
            + config.lambda_t * ((sum_t - n_t * device.t_max) / device.t_max)
            + config.lambda_r * self._deviation_penalty(state, remainder)
        )
        t_avg = self.t_avg_ext
        ext_balance = (n_b * t_avg - sum_ext) / t_avg if t_avg > 0 else 0.0
        return distance, ext_balance

    def _assemble(
        self,
        feasible: int,
        n_s: int,
        sum_s: int,
        n_t: int,
        sum_t: int,
        n_b: int,
        sum_ext: int,
        state: PartitionState,
        remainder: int,
    ) -> SolutionCost:
        """Build a :class:`SolutionCost` from the integer aggregates."""
        distance, ext_balance = self._float_terms(
            n_s, sum_s, n_t, sum_t, n_b, sum_ext, state, remainder
        )
        return SolutionCost(
            feasible_blocks=feasible,
            distance=distance,
            total_pins=state.total_pins,
            ext_balance=ext_balance,
            cut_nets=state.cut_nets,
            use_infeasibility=self.config.use_infeasibility_cost,
        )

    def evaluate(self, state: PartitionState, remainder: int) -> SolutionCost:
        """Cost of ``state`` with ``remainder`` as the remainder block.

        A full O(k) sweep — the consistency oracle for the incremental
        evaluator.
        """
        self.full_sweeps += 1
        feasible = n_s = sum_s = n_t = sum_t = n_b = sum_ext = 0
        for b in range(state.num_blocks):
            terms = self._block_terms(
                state.block_size(b), state.block_pins(b), state.block_ext_ios(b)
            )
            feasible += terms[0]
            n_s += terms[1]
            sum_s += terms[2]
            n_t += terms[3]
            sum_t += terms[4]
            n_b += terms[5]
            sum_ext += terms[6]
        return self._assemble(
            feasible, n_s, sum_s, n_t, sum_t, n_b, sum_ext, state, remainder
        )

    def cost_of(self, state: PartitionState, remainder: int) -> SolutionCost:
        """Cost of ``state`` — overridden incrementally where possible."""
        return self.evaluate(state, remainder)

    def key_of(self, state: PartitionState, remainder: int) -> Tuple:
        """Comparison key of ``state`` (same ordering as the cost)."""
        return self.evaluate(state, remainder).key


class IncrementalCostEvaluator(CostEvaluator, StateListener):
    """Cost evaluator with a fused O(1) move-refresh + key hot path.

    :meth:`attach` registers the evaluator as a listener of one
    :class:`~repro.partition.PartitionState` and seeds the integer
    aggregates with one O(k) sweep.  Each ``state.move()`` then triggers
    the compiled ``on_move(from, to)``, which refreshes only the two
    touched blocks (a move can change sizes/pins/pads of *only* its
    source and destination) and stores the lexicographic key for the
    remainder set by :meth:`set_remainder` in :attr:`last_key_cell`.

    The inherited :meth:`evaluate` stays available as the from-scratch
    sweep; by construction both produce bit-identical costs.
    """

    def __init__(
        self,
        device: Device,
        config: FpartConfig,
        lower_bound: int,
        num_terminals: int,
    ) -> None:
        super().__init__(device, config, lower_bound, num_terminals)
        # Flattened constants for the per-move hot path (the same float
        # objects as on device/config, so the arithmetic stays
        # bit-identical to the O(k) sweep).
        self._s_max = device.s_max
        self._t_max = device.t_max
        self._lam_s = config.lambda_s
        self._lam_t = config.lambda_t
        self._lam_r = config.lambda_r
        self._use_infeas = config.use_infeasibility_cost
        self._state: Optional[PartitionState] = None
        # Aggregates [feasible, n_S, sum_S, n_T, sum_T, n_B, sum_E].
        self._agg: List[int] = [0] * 7
        # Live (sizes, pins, ext) list views of the attached state,
        # re-captured on attach/rebuild.
        self._sizes: List[int] = []
        self._pins: List[int] = []
        self._ext: List[int] = []
        # Memo for the pure deviation penalty, keyed by
        # (remainder size, num blocks).
        self._pen_cache: dict = {}
        self._nb = 0
        self._remainder = 0
        # Writes the closure's nonlocal aggregates back into self._agg;
        # replaced by every _compile_fast_path.
        self._sync_agg: Callable[[], None] = lambda: None
        #: One-element cell holding the key of the attached state for the
        #: remainder set via :meth:`set_remainder`; refreshed by every
        #: ``on_move``.  Engines index the cell directly per move.
        self.last_key_cell: List[Optional[Tuple]] = [None]

    @property
    def attached_state(self) -> Optional[PartitionState]:
        """The state currently tracked (None when detached)."""
        return self._state

    def attach(self, state: PartitionState) -> None:
        """Track ``state``; detaches from any previously tracked state."""
        if self._state is not state:
            if self._state is not None:
                self._state.remove_listener(self)
            self._state = state
            state.add_listener(self)
        self._resync()

    def _deviation_penalty(
        self, state: PartitionState, remainder: int
    ) -> float:
        key = (state.block_size(remainder), state.num_blocks)
        cached = self._pen_cache.get(key)
        if cached is None:
            cached = super()._deviation_penalty(state, remainder)
            self._pen_cache[key] = cached
        return cached

    # -- lifecycle -------------------------------------------------------

    def set_remainder(self, remainder: int) -> None:
        """Bake the remainder block into the fused hot path (per pass)."""
        if remainder != self._remainder:
            self._remainder = remainder
            if self._state is not None:
                self._sync_agg()
                self._compile_fast_path()

    def _resync(self) -> None:
        state = self._state
        self._sizes, self._pins, self._ext = state.block_arrays()
        nb = state.num_blocks
        self._nb = nb
        agg = [0] * 7
        for b in range(nb):
            t = self._block_terms(
                state.block_size(b), state.block_pins(b), state.block_ext_ios(b)
            )
            for i in range(7):
                agg[i] += t[i]
        self._agg = agg
        if self._remainder >= nb:
            self._remainder = 0
        self._compile_fast_path()

    def detach(self) -> None:
        """Stop tracking; :meth:`cost_of` falls back to full sweeps."""
        if self._state is not None:
            self._sync_agg()
            self._state.remove_listener(self)
            self._state = None
            # Drop the compiled closure (the inherited no-op listener
            # method is visible again).
            self.__dict__.pop("on_move", None)
            self._sync_agg = lambda: None
            self.last_key_cell[0] = None

    # -- fused hot path --------------------------------------------------

    def _compile_fast_path(self) -> None:
        """(Re-)generate the fused ``on_move`` closure.

        Called whenever a binding could have changed: attach, rebuild,
        add_block, set_remainder.  Everything the per-move path touches
        is a closure free variable — no ``self`` access remains inside.
        ``self._agg`` must be in sync (fresh from :meth:`_resync`, or
        written back via ``self._sync_agg()``) when this runs: the new
        closure seeds its aggregate cells from it.
        """
        state = self._state
        sizes = self._sizes
        pins_l = self._pins
        ext_l = self._ext
        s_max = self._s_max
        t_max = self._t_max
        t_avg = self.t_avg_ext
        lam_s = self._lam_s
        lam_t = self._lam_t
        lam_r = self._lam_r
        use_infeas = self._use_infeas
        rem = self._remainder
        pen_cache = self._pen_cache
        lower_bound = self.lower_bound
        device = self.device
        nb = self._nb
        agg_list = self._agg
        key_cell = self.last_key_cell

        # Split per-block term lists, seeded from the live block arrays.
        feas = [0] * nb
        n_s = [0] * nb
        sum_s = [0] * nb
        n_t = [0] * nb
        sum_t = [0] * nb
        n_b = [0] * nb
        sum_e = [0] * nb
        for b in range(nb):
            size = sizes[b]
            pn = pins_l[b]
            ex = ext_l[b]
            over_s = size > s_max
            over_t = pn > t_max
            feas[b] = 0 if (over_s or over_t) else 1
            if over_s:
                n_s[b] = 1
                sum_s[b] = size
            if over_t:
                n_t[b] = 1
                sum_t[b] = pn
            if ex < t_avg:
                n_b[b] = 1
                sum_e[b] = ex

        # Cross-call mutable scalars live as closure cells (nonlocal),
        # not instance attributes: LOAD_DEREF beats __dict__ (and even
        # list-index) lookups on the hottest path in the repo.
        a0, a1, a2, a3, a4, a5, a6 = agg_list
        pen_size = -1
        pen_val = 0.0
        dist = 0.0
        dist_valid = False
        eb = 0.0
        eb_valid = not (t_avg > 0)  # t_avg == 0 -> eb is constant 0.0

        def sync_agg() -> None:
            agg_list[0] = a0
            agg_list[1] = a1
            agg_list[2] = a2
            agg_list[3] = a3
            agg_list[4] = a4
            agg_list[5] = a5
            agg_list[6] = a6

        def on_move(from_block: int, to_block: int) -> None:
            nonlocal a0, a1, a2, a3, a4, a5, a6
            nonlocal pen_size, pen_val, dist, dist_valid, eb, eb_valid
            dirty = False
            # Touch from_block, then to_block when distinct — a manual
            # two-step ladder instead of ``for b in (f, t)``: no tuple or
            # iterator is allocated per move.
            b = from_block
            while True:
                size = sizes[b]
                pn = pins_l[b]
                ex = ext_l[b]
                if size > s_max:
                    if n_s[b]:
                        d = size - sum_s[b]
                        if d:
                            a2 += d
                            sum_s[b] = size
                            dirty = True
                    else:
                        n_s[b] = 1
                        sum_s[b] = size
                        a1 += 1
                        a2 += size
                        dirty = True
                        if feas[b]:
                            feas[b] = 0
                            a0 -= 1
                elif n_s[b]:
                    a1 -= 1
                    a2 -= sum_s[b]
                    n_s[b] = 0
                    sum_s[b] = 0
                    dirty = True
                    if pn <= t_max and not feas[b]:
                        feas[b] = 1
                        a0 += 1
                if pn > t_max:
                    if n_t[b]:
                        d = pn - sum_t[b]
                        if d:
                            a4 += d
                            sum_t[b] = pn
                            dirty = True
                    else:
                        n_t[b] = 1
                        sum_t[b] = pn
                        a3 += 1
                        a4 += pn
                        dirty = True
                        if feas[b]:
                            feas[b] = 0
                            a0 -= 1
                elif n_t[b]:
                    a3 -= 1
                    a4 -= sum_t[b]
                    n_t[b] = 0
                    sum_t[b] = 0
                    dirty = True
                    if size <= s_max and not feas[b]:
                        feas[b] = 1
                        a0 += 1
                if ex < t_avg:
                    if n_b[b]:
                        d = ex - sum_e[b]
                        if d:
                            a6 += d
                            sum_e[b] = ex
                            eb_valid = False
                    else:
                        n_b[b] = 1
                        sum_e[b] = ex
                        a5 += 1
                        a6 += ex
                        eb_valid = False
                elif n_b[b]:
                    a5 -= 1
                    a6 -= sum_e[b]
                    n_b[b] = 0
                    sum_e[b] = 0
                    eb_valid = False
                if b == to_block:
                    break
                b = to_block
            if not use_infeas:
                key_cell[0] = (-a0, state._cut_nets)
                return
            r_size = sizes[rem]
            if r_size != pen_size:
                pen_size = r_size
                mkey = (r_size, nb)
                cached = pen_cache.get(mkey)
                if cached is None:
                    cached = size_deviation_penalty(
                        r_size, lower_bound, nb - 1, device
                    )
                    pen_cache[mkey] = cached
                if cached != pen_val:
                    pen_val = cached
                    dirty = True
            if dirty or not dist_valid:
                dist = (
                    lam_s * ((a2 - a1 * s_max) / s_max)
                    + lam_t * ((a4 - a3 * t_max) / t_max)
                    + lam_r * pen_val
                )
                dist_valid = True
            if not eb_valid:
                eb = (a5 * t_avg - a6) / t_avg
                eb_valid = True
            key_cell[0] = (-a0, dist, state._total_pins, eb)

        # Install as an instance attribute: listener dispatch then calls
        # the closure directly, skipping bound-method creation.
        self.on_move = on_move
        self._sync_agg = sync_agg
        # Seed the key cell (and the pen/dist cells) for the current
        # state without disturbing the terms: a (b, b) "move" touches one
        # block whose terms are already correct.
        seed = rem if rem < nb else 0
        on_move(seed, seed)

    # -- listener cold paths ---------------------------------------------

    def on_add_block(self) -> None:
        # New empty block: terms (1, 0, 0, 0, 0, below, below*0); only
        # the feasible and balance aggregates can change.
        self._sync_agg()
        t = self._block_terms(0, 0, 0)
        self._nb += 1
        agg = self._agg
        agg[0] += t[0]
        agg[5] += t[5]
        agg[6] += t[6]
        self._compile_fast_path()

    def on_rebuild(self) -> None:
        self._resync()

    # -- queries ---------------------------------------------------------

    def current_cost(self, remainder: int) -> SolutionCost:
        """O(1) cost of the attached state (must be attached)."""
        if self._state is None:
            raise RuntimeError("evaluator is not attached to a state")
        self._sync_agg()
        return self._assemble(*self._agg, self._state, remainder)

    def current_key(self, remainder: int) -> Tuple:
        """O(1) comparison key of the attached state, for any remainder.

        Identical (bitwise) to ``current_cost(remainder).key``.  The
        arithmetic below and in the compiled ``on_move`` MUST mirror
        :meth:`_float_terms` expression-for-expression (same operations in
        the same order on the same values).
        """
        state = self._state
        if state is None:
            raise RuntimeError("evaluator is not attached to a state")
        if remainder == self._remainder:
            key = self.last_key_cell[0]
            if key is not None:
                return key
        self._sync_agg()
        agg = self._agg
        if not self._use_infeas:
            return (-agg[0], state._cut_nets)
        s_max = self._s_max
        t_max = self._t_max
        distance = (
            self._lam_s * ((agg[2] - agg[1] * s_max) / s_max)
            + self._lam_t * ((agg[4] - agg[3] * t_max) / t_max)
            + self._lam_r * self._deviation_penalty(state, remainder)
        )
        t_avg = self.t_avg_ext
        ext_balance = (agg[5] * t_avg - agg[6]) / t_avg if t_avg > 0 else 0.0
        return (-agg[0], distance, state._total_pins, ext_balance)

    def cost_of(self, state: PartitionState, remainder: int) -> SolutionCost:
        """O(1) when attached to ``state``, full O(k) sweep otherwise."""
        if state is self._state:
            return self.current_cost(remainder)
        return self.evaluate(state, remainder)

    def key_of(self, state: PartitionState, remainder: int) -> Tuple:
        """O(1) when attached to ``state``, full O(k) sweep otherwise."""
        if state is self._state:
            return self.current_key(remainder)
        return self.evaluate(state, remainder).key


def make_evaluator(
    device: Device,
    config: FpartConfig,
    lower_bound: int,
    num_terminals: int,
) -> IncrementalCostEvaluator:
    """Run-wide evaluator: an :class:`IncrementalCostEvaluator` (the
    engines attach it and pay O(1) per move).  Tests that need the plain
    O(k) sweep pass a :class:`CostEvaluator` to the driver instead."""
    return IncrementalCostEvaluator(device, config, lower_bound, num_terminals)
