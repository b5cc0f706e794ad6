"""FPART configuration: every tunable the paper fixes in section 4.

All defaults equal the values used for the published experiments:

    sigma1 = sigma2 = 0.5, N_small = 15,
    lambda_S = 0.4, lambda_T = 0.6, lambda_R = 0.1,
    eps*_max = eps2_max = 1.05, eps*_min = 0.3, eps2_min = 0.95,
    D_stack = 4.

Epsilon reading
---------------
The paper defines the feasible move window as
``S_MAX (1 - eps_min) <= S_i <= S_MAX (1 + eps_max)`` but reports
``eps_max = 1.05`` (a 2.05x cap, literally) while also stating
``eps_min > eps_max`` with eps_min in {0.3, 0.95} (false literally), and
that the 2-block floor must be *stricter* than the multi-block floor
(false literally: 1-0.95 = 0.05 < 1-0.3 = 0.7).  The only reading
consistent with every qualitative statement is that the reported values
are direct *multipliers*:

    floor = eps_min * S_MAX   (2-block: 0.95 * S_MAX — strict;
                               multi-block: 0.3 * S_MAX — loose)
    cap   = eps_max * S_MAX   (1.05 * S_MAX)

which is what we implement.  Set ``literal_epsilons=True`` to restore the
literal ``(1 - eps) / (1 + eps)`` formulas for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["FpartConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class FpartConfig:
    """All FPART parameters, frozen so runs are reproducible records."""

    # --- free-space estimate F (section 3.1) ---------------------------
    sigma1: float = 0.5
    """Weight of the logic-occupation term in the free-space estimate."""
    sigma2: float = 0.5
    """Weight of the I/O-occupation term in the free-space estimate."""

    # --- improvement strategy (section 3.1) -----------------------------
    n_small: int = 15
    """Threshold on the lower bound M separating the small-M strategy
    (all-block improvement passes allowed) from the big-M strategy."""

    # --- infeasibility-distance cost (section 3.3) ----------------------
    lambda_s: float = 0.4
    """Weight of the size infeasibility distance ``d_i^S``."""
    lambda_t: float = 0.6
    """Weight of the I/O infeasibility distance ``d_i^T`` (kept above
    ``lambda_s`` because the I/O constraint is usually the critical one)."""
    lambda_r: float = 0.1
    """Weight of the size-deviation penalty ``d_k^R``."""

    # --- feasible move regions (section 3.5) -----------------------------
    eps_max_multi: float = 1.05
    """Upper size multiplier for non-remainder blocks, multi-block pass
    (cap = eps * S_MAX)."""
    eps_max_two: float = 1.05
    """Upper size multiplier for non-remainder blocks, 2-block pass."""
    eps_min_multi: float = 0.3
    """Lower size multiplier for non-remainder blocks, multi-block pass
    (floor = eps * S_MAX)."""
    eps_min_two: float = 0.95
    """Lower size multiplier for non-remainder blocks, 2-block pass —
    strict (0.95 * S_MAX) so clusters do not drift "to" the remainder."""
    literal_epsilons: bool = False
    """If True, use the paper's literal window formulas
    (floor = (1 - eps_min) * S_MAX, cap = (1 + eps_max) * S_MAX) instead
    of the multiplier reading (see module docstring)."""

    # --- solution stacks (section 3.6) -----------------------------------
    stack_depth: int = 4
    """``D_stack``: best semi-feasible / infeasible solutions kept; up to
    ``2 * D_stack + 1`` starting solutions are explored per Improve call."""

    # --- iterative-improvement engine -------------------------------------
    max_passes: int = 8
    """Upper bound on FM/Sanchis passes per run (a pass that fails to
    improve the best solution ends the run earlier)."""
    use_level2_gains: bool = True
    """Use the 2-level (Krishnamurthy-style) gain tie-break."""
    gain_mode: str = "cut"
    """Primary move gain: ``cut`` (classical cut-net gain, the paper's
    choice) or ``pin`` (the real block-pin-count gain the paper proposes
    as future work in section 5; the cut gain then becomes the
    tie-break)."""
    pass_stall_limit: Optional[int] = 128
    """Abort a multi-block (>= 3 participating blocks) improvement pass
    once it has gone this many consecutive moves without improving the
    pass-best cost *and* its current solution has fewer feasible blocks
    than the pass-best (the paper's second future-work idea: stop the
    pass when it moves farther away from the feasible region).  2-block
    passes always run to completion, since their pass-best can recover
    after hundreds of moves.  At the default of 128 the cut drops only
    rolled-back work on every MCNC table run.  ``None`` keeps the
    classical full pass everywhere."""
    use_infeasibility_cost: bool = True
    """Select best solutions by the lexicographic infeasibility cost; if
    False, fall back to cut-net count only (ablation: the [9] cost)."""

    improvement_strategy: str = "full"
    """Which Improve() calls Algorithm 1 schedules: ``full`` (the paper's
    strategy), ``last_pair`` (only the fresh pair — the greedy recursion
    of [9]), or ``none`` (pure constructive splits).  Ablation knob."""

    # --- algorithm-level controls ------------------------------------------
    max_iterations: Optional[int] = None
    """Safety cap on Algorithm 1 iterations (None = 4*M + 16)."""
    seed: int = 0
    """Run seed.  ``0`` (the default) is the canonical fully
    deterministic trajectory — no rng exists anywhere in the solve
    path.  Any other value activates a ``random.Random(seed)`` root
    that perturbs constructive seed selection and enables the third
    builder (``seed_grow``) in the initial-bipartition portfolio; runs
    remain bit-reproducible per seed.  Multi-seed restarts
    (``--restarts``) run seeds ``seed + 0 .. seed + R-1``."""

    # --- run guard (budgets & degradation) --------------------------------
    deadline_seconds: Optional[float] = None
    """Wall-clock budget for one run (None = unlimited).  Checked
    cooperatively by the run guard; on expiry a non-strict run returns
    the best solution seen with ``status="budget_exhausted"``."""
    max_moves: Optional[int] = None
    """Cap on applied engine moves across the run (None = unlimited)."""
    guard_check_interval: int = 256
    """Moves per guard lease — how often the inner loops consult the
    wall clock.  Larger is cheaper but coarser."""
    strict: bool = False
    """If True, budget exhaustion and unpartitionable remainders raise
    (:class:`IterationLimitError` / :class:`BudgetExhaustedError` /
    :class:`UnpartitionableError`) exactly as before the run-guard
    subsystem.  The default degrades gracefully: the partitioner rewinds
    to the best lexicographic solution observed and returns it with a
    non-``feasible`` :attr:`FpartResult.status`."""

    def __post_init__(self) -> None:
        if self.n_small < 0:
            raise ValueError("n_small must be non-negative")
        if self.stack_depth < 0:
            raise ValueError("stack_depth must be non-negative")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        for name in ("sigma1", "sigma2", "lambda_s", "lambda_t", "lambda_r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("eps_min_multi", "eps_min_two"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        for name in ("eps_max_multi", "eps_max_two"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.improvement_strategy not in ("full", "last_pair", "none"):
            raise ValueError(
                "improvement_strategy must be 'full', 'last_pair' or "
                f"'none', got {self.improvement_strategy!r}"
            )
        if self.gain_mode not in ("cut", "pin"):
            raise ValueError(
                f"gain_mode must be 'cut' or 'pin', got {self.gain_mode!r}"
            )
        if self.pass_stall_limit is not None and self.pass_stall_limit < 1:
            raise ValueError("pass_stall_limit must be positive or None")
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative or None")
        if self.max_moves is not None and self.max_moves < 0:
            raise ValueError("max_moves must be non-negative or None")
        if self.guard_check_interval < 1:
            raise ValueError("guard_check_interval must be positive")

    # -- derived caps ----------------------------------------------------

    def size_cap_multiplier(self, two_block: bool) -> float:
        """Upper size multiplier for non-remainder blocks
        (block size must stay <= multiplier * S_MAX)."""
        eps = self.eps_max_two if two_block else self.eps_max_multi
        if self.literal_epsilons:
            return 1.0 + eps
        return eps

    def size_floor_multiplier(self, two_block: bool) -> float:
        """Lower size multiplier for non-remainder blocks
        (block size must stay >= multiplier * S_MAX)."""
        eps = self.eps_min_two if two_block else self.eps_min_multi
        if self.literal_epsilons:
            return 1.0 - eps
        return eps

    def fast(self) -> "FpartConfig":
        """A cheaper profile for large circuits / CI: smaller stack and
        fewer passes.  Quality degrades slightly; see the ablation bench."""
        return replace(self, stack_depth=1, max_passes=4)


DEFAULT_CONFIG = FpartConfig()
