"""Property tests: the incremental evaluator vs the O(k) sweep oracle.

The central claim of ``repro.core.cost`` is that
:class:`IncrementalCostEvaluator` is *bit-identical* to a fresh
:meth:`CostEvaluator.evaluate` sweep — every field, including the float
``distance`` / ``ext_balance`` terms — under arbitrary interleavings of
moves, block additions, journal rewinds and restores.  These tests drive
seeded random sequences of all of those operations and compare against
the oracle after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits import generate_circuit, mcnc_circuit
from repro.core import (
    XC3042,
    CostEvaluator,
    Device,
    FpartConfig,
    FpartPartitioner,
    IncrementalCostEvaluator,
    make_evaluator,
)
from repro.partition import PartitionState

DEVICE = Device("TESTDEV", s_ds=40, t_max=30, delta=1.0)
SEEDS = (1, 2, 3, 4, 5)
MOVES_PER_SEED = 250  # x5 seeds = 1250 random moves total


def _random_state(seed: int, k: int = 5) -> PartitionState:
    hg = generate_circuit(
        f"inc-cost-{seed}", num_cells=90, num_ios=18, seed=seed
    )
    rng = random.Random(seed)
    assignment = [rng.randrange(k) for _ in range(hg.num_cells)]
    return PartitionState.from_assignment(hg, assignment, k)


def _assert_bit_identical(
    inc: IncrementalCostEvaluator, oracle: CostEvaluator, state, remainder
) -> None:
    fast = inc.current_cost(remainder)
    slow = oracle.evaluate(state, remainder)
    # Field-by-field, with plain == on the floats: bit-identical, not
    # approximately equal.
    assert fast.feasible_blocks == slow.feasible_blocks
    assert fast.distance == slow.distance
    assert fast.total_pins == slow.total_pins
    assert fast.ext_balance == slow.ext_balance
    assert fast.cut_nets == slow.cut_nets
    assert inc.current_key(remainder) == slow.key


@pytest.mark.parametrize("seed", SEEDS)
def test_random_moves_match_oracle(seed: int) -> None:
    state = _random_state(seed)
    config = FpartConfig()
    m = 5
    inc = IncrementalCostEvaluator(
        DEVICE, config, m, state.hg.num_terminals
    )
    oracle = CostEvaluator(DEVICE, config, m, state.hg.num_terminals)
    inc.attach(state)
    rng = random.Random(1000 + seed)

    remainder = 0
    for step in range(MOVES_PER_SEED):
        cell = rng.randrange(state.hg.num_cells)
        to_block = rng.randrange(state.num_blocks)
        state.move(cell, to_block)
        if step % 40 == 17:
            # Occasionally grow the partition mid-sequence.
            state.add_block()
        if step % 30 == 11:
            remainder = rng.randrange(state.num_blocks)
        _assert_bit_identical(inc, oracle, state, remainder)


@pytest.mark.parametrize("seed", SEEDS)
def test_rewind_and_snapshot_round_trip(seed: int) -> None:
    state = _random_state(seed)
    config = FpartConfig()
    inc = IncrementalCostEvaluator(DEVICE, config, 5, state.hg.num_terminals)
    oracle = CostEvaluator(DEVICE, config, 5, state.hg.num_terminals)
    inc.attach(state)
    rng = random.Random(2000 + seed)

    baseline = state.assignment()
    snap = state.snapshot()
    for _ in range(60):
        state.move(
            rng.randrange(state.hg.num_cells), rng.randrange(state.num_blocks)
        )
    mid = state.assignment()
    mark = state.journal_mark()
    for _ in range(60):
        state.move(
            rng.randrange(state.hg.num_cells), rng.randrange(state.num_blocks)
        )
    _assert_bit_identical(inc, oracle, state, 0)

    # Rewind the last 60 moves: back to the mid-point assignment.
    state.rewind(mark)
    assert state.assignment() == mid
    state.check_consistency()
    _assert_bit_identical(inc, oracle, state, 0)

    # Snapshot restore: all the way back to the baseline.
    state.restore_snapshot(snap)
    assert state.assignment() == baseline
    state.check_consistency()
    _assert_bit_identical(inc, oracle, state, 0)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_snapshot_restore_drops_added_blocks(seed: int) -> None:
    state = _random_state(seed)
    inc = IncrementalCostEvaluator(
        DEVICE, FpartConfig(), 5, state.hg.num_terminals
    )
    oracle = CostEvaluator(DEVICE, FpartConfig(), 5, state.hg.num_terminals)
    inc.attach(state)
    rng = random.Random(3000 + seed)

    snap = state.snapshot()
    k0 = state.num_blocks
    baseline = state.assignment()
    fresh = state.add_block()
    for _ in range(25):
        state.move(rng.randrange(state.hg.num_cells), fresh)
    _assert_bit_identical(inc, oracle, state, fresh)

    state.restore_snapshot(snap)
    assert state.num_blocks == k0
    assert state.assignment() == baseline
    state.check_consistency()
    _assert_bit_identical(inc, oracle, state, 0)


def test_delta_restore_keeps_listener_in_sync() -> None:
    state = _random_state(7)
    inc = IncrementalCostEvaluator(
        DEVICE, FpartConfig(), 5, state.hg.num_terminals
    )
    oracle = CostEvaluator(DEVICE, FpartConfig(), 5, state.hg.num_terminals)
    inc.attach(state)
    rng = random.Random(7)

    target = state.assignment()
    for _ in range(80):
        state.move(
            rng.randrange(state.hg.num_cells), rng.randrange(state.num_blocks)
        )
    # Same block count: restore() takes the diff-based delta path.
    state.restore(target)
    assert state.assignment() == target
    state.check_consistency()
    _assert_bit_identical(inc, oracle, state, 0)


def test_make_evaluator_honours_config() -> None:
    state = _random_state(3)
    for config in (FpartConfig(), FpartConfig(use_infeasibility_cost=False)):
        inc = make_evaluator(DEVICE, config, 5, state.hg.num_terminals)
        assert isinstance(inc, IncrementalCostEvaluator)
        assert inc.config is config
        inc.attach(state)
        oracle = CostEvaluator(DEVICE, config, 5, state.hg.num_terminals)
        assert inc.current_key(0) == oracle.evaluate(state, 0).key
        inc.detach()


def test_detach_falls_back_to_sweep() -> None:
    state = _random_state(11)
    inc = IncrementalCostEvaluator(
        DEVICE, FpartConfig(), 5, state.hg.num_terminals
    )
    inc.attach(state)
    assert inc.attached_state is state
    cost_attached = inc.cost_of(state, 0)
    inc.detach()
    assert inc.attached_state is None
    assert inc.cost_of(state, 0) == cost_attached
    with pytest.raises(RuntimeError):
        inc.current_cost(0)


def test_whole_run_full_sweep_matches_default() -> None:
    """A whole FPART run with the full-sweep evaluator injected lands on
    the default (incremental) run's assignment."""
    hg = mcnc_circuit("s9234")
    config = FpartConfig()
    full_sweep = CostEvaluator(
        XC3042, config, XC3042.lower_bound(hg), hg.num_terminals
    )
    swept = FpartPartitioner(hg, XC3042, config, evaluator=full_sweep).run()
    default = FpartPartitioner(hg, XC3042, config).run()
    assert swept.num_devices == default.num_devices
    assert list(swept.assignment) == list(default.assignment)
