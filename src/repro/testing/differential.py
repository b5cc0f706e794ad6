"""Differential testing of the partition core against the oracle.

The production path — :class:`~repro.partition.PartitionState`, the gain
kernels in :mod:`repro.fm.gains`, the
:class:`~repro.core.cost.IncrementalCostEvaluator` and the constructive
builders — maintains everything incrementally.  This module replays a
recorded operation sequence through it and compares every observable
with the brute-force recompute of :mod:`repro.testing.oracle` after each
op, so a divergence is reported at the first op (or constructive step)
that produced it.

Operation vocabulary (plain tuples, JSON-friendly):

``("move", cell, to_block)``
    Apply one move (``to_block`` may equal the current block — a no-op).
``("add_block",)``
    Grow the partition by one empty block.
``("mark",)``
    Push ``journal_mark()`` onto the replay's mark stack.
``("rewind", i)``
    Rewind to the ``i``-th pushed mark and truncate the stack there —
    exercising the undo journal.
``("restore", assignment, num_blocks)``
    Full-state restore (the driver's checkpoint/resume path).
``("build", builder, cells, rng_seed)``
    One constructive builder invocation (see :func:`constructive_ops`),
    checked step by step by :func:`run_constructive_differential`.

After every state op the harness compares Λ(e, b), sizes, pins,
external I/O, cut and total pins; every ``gain_every`` ops it compares
the level-1/level-2/pin gains of a random move under a random lock set;
with a device it also compares the evaluator's lexicographic key and
cost with the full-sweep oracle key.

Used by ``tests/test_flat_core.py``; importable from ad-hoc scripts::

    from repro.testing.differential import run_differential
    report = run_differential(hg, seed=7, length=2000, device=device)
    assert report.identical, report.first_divergence
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..partition import PartitionState
from . import oracle

__all__ = [
    "DifferentialReport",
    "random_ops",
    "replay",
    "run_differential",
    "constructive_ops",
    "replay_constructive",
    "run_constructive_differential",
]

Op = Tuple[Any, ...]


@dataclass
class DifferentialReport:
    """Outcome of one production-vs-oracle replay."""

    ops: List[Op]
    identical: bool
    first_divergence: Optional[str] = None
    fingerprints_compared: int = 0
    extras: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # truthy == production matches the oracle
        return self.identical


def random_ops(
    hg: Hypergraph,
    seed: int = 0,
    length: int = 1000,
    max_blocks: int = 8,
    rewind_prob: float = 0.05,
    add_block_prob: float = 0.02,
    restore_prob: float = 0.01,
) -> List[Op]:
    """Deterministic random operation sequence over ``hg``.

    Starts from the single-block state; block targets stay inside the
    blocks created so far, so every op is applicable.  Rewinds target
    previously pushed marks (the generator tracks the mark stack the
    same way :func:`replay` does).
    """
    rng = random.Random(seed)
    ops: List[Op] = []
    num_blocks = 1
    marks = 0  # depth of the mark stack at this point of the sequence
    sizes_known = hg.num_cells > 0
    for _ in range(length):
        r = rng.random()
        if r < rewind_prob and marks > 0:
            i = rng.randrange(marks)
            ops.append(("rewind", i))
            marks = i
        elif r < rewind_prob + add_block_prob and num_blocks < max_blocks:
            ops.append(("add_block",))
            num_blocks += 1
        elif r < rewind_prob + add_block_prob + restore_prob:
            nb = rng.randrange(1, num_blocks + 1)
            assignment = [rng.randrange(nb) for _ in range(hg.num_cells)]
            ops.append(("restore", assignment, nb))
            num_blocks = nb
            marks = 0  # restore resets the journal
        elif sizes_known:
            if rng.random() < 0.15:
                ops.append(("mark",))
                marks += 1
            cell = rng.randrange(hg.num_cells)
            ops.append(("move", cell, rng.randrange(num_blocks)))
    return ops


def _apply(state: PartitionState, op: Op, marks: List[int]) -> None:
    kind = op[0]
    if kind == "move":
        state.move(op[1], op[2])
    elif kind == "add_block":
        state.add_block()
    elif kind == "mark":
        marks.append(state.journal_mark())
    elif kind == "rewind":
        state.rewind(marks[op[1]])
        del marks[op[1]:]
    elif kind == "restore":
        state.restore(list(op[1]), op[2])
        marks.clear()
    else:
        raise ValueError(f"unknown differential op {op!r}")


def _observables(state: PartitionState) -> Dict[str, Any]:
    """Production observables, in the oracle's shape."""
    return {
        "num_blocks": state.num_blocks,
        "sizes": state.block_sizes,
        "pins": state.block_pin_counts,
        "ext": state.block_ext_io_counts,
        "cut": state.cut_nets,
        "total_pins": state.total_pins,
        "counts": tuple(
            state.net_distribution(e) for e in range(state.hg.num_nets)
        ),
    }


def _oracle_observables(
    hg: Hypergraph, state: PartitionState
) -> Dict[str, Any]:
    r = oracle.recount(hg, state.assignment(), state.num_blocks)
    return {
        "num_blocks": r.num_blocks,
        "sizes": r.sizes,
        "pins": r.pins,
        "ext": r.ext,
        "cut": r.cut_nets,
        "total_pins": r.total_pins,
        "counts": r.distributions,
    }


def _first_mismatch(
    mine: Dict[str, Any], theirs: Dict[str, Any]
) -> Optional[str]:
    for name, value in mine.items():
        expected = theirs[name]
        if value == expected:
            continue
        if name == "counts":
            e = next(
                i for i, (a, b) in enumerate(zip(value, expected)) if a != b
            )
            return f"Λ(net {e}, ·): production={value[e]} oracle={expected[e]}"
        return f"{name}: production={value!r} oracle={expected!r}"
    return None


def replay(hg: Hypergraph, ops: Sequence[Op]) -> List[Dict[str, Any]]:
    """Replay ``ops`` on a fresh single-block state; return observables.

    One observable snapshot per op (taken *after* applying it), plus the
    initial one at index 0.
    """
    state = PartitionState.single_block(hg)
    marks: List[int] = []
    prints = [_observables(state)]
    for op in ops:
        _apply(state, op, marks)
        prints.append(_observables(state))
    return prints


def _check_gains(
    hg: Hypergraph, state: PartitionState, rng: random.Random
) -> Optional[str]:
    """One random move's gains, production kernels vs the oracle."""
    from ..fm.gains import move_gain, move_gain_vector, pin_gain

    cell = rng.randrange(hg.num_cells)
    to = rng.randrange(state.num_blocks)
    if to == state.block_of(cell):
        return None
    locked = {c for c in range(hg.num_cells) if rng.random() < 0.2}
    locked_in_block: List[Dict[int, int]] = [{} for _ in range(hg.num_nets)]
    for c in locked:
        b = state.block_of(c)
        for e in hg.nets_of(c):
            locked_in_block[e][b] = locked_in_block[e].get(b, 0) + 1
    g1, g2 = move_gain_vector(state, cell, to, locked_in_block)
    mine = (g1, g2, pin_gain(state, cell, to))
    theirs = oracle.move_gains(
        hg, state.assignment(), state.num_blocks, cell, to, locked
    )
    if mine != theirs or move_gain(state, cell, to) != theirs[0]:
        return (
            f"gains of cell {cell} -> block {to}: "
            f"production={mine} oracle={theirs}"
        )
    return None


def _check_keys(hg, state, evaluator, device, config) -> Optional[str]:
    """Evaluator key and cost vs the full-sweep oracle key."""
    remainder = state.num_blocks - 1
    evaluator.set_remainder(remainder)
    expected = oracle.lex_key(
        hg, state.assignment(), state.num_blocks, device, config, remainder
    )
    for what, key in (
        ("key cell", evaluator.last_key_cell[0]),
        ("key_of", evaluator.key_of(state, remainder)),
        ("cost_of", evaluator.cost_of(state, remainder).key),
    ):
        if key != expected:
            return (
                f"{what} (remainder={remainder}): production={key} "
                f"oracle={expected}"
            )
    other = oracle.lex_key(
        hg, state.assignment(), state.num_blocks, device, config, 0
    )
    if evaluator.key_of(state, 0) != other:
        return (
            f"key_of (remainder=0): production={evaluator.key_of(state, 0)} "
            f"oracle={other}"
        )
    return None


def run_differential(
    hg: Hypergraph,
    ops: Optional[Sequence[Op]] = None,
    seed: int = 0,
    length: int = 1000,
    device=None,
    config=None,
    gain_every: int = 7,
) -> DifferentialReport:
    """Replay one op sequence through the production path and check it.

    After every op the state's observables must equal the oracle's
    recount; every ``gain_every`` ops a random move's gains are checked.
    With ``device`` (and optionally ``config``) an attached incremental
    evaluator's keys are checked too.  Returns a report;
    ``report.identical`` is the verdict and ``report.first_divergence``
    names the op.
    """
    if ops is None:
        ops = random_ops(hg, seed=seed, length=length)
    ops = list(ops)
    report = DifferentialReport(ops=ops, identical=True)
    state = PartitionState.single_block(hg)
    evaluator = None
    if device is not None:
        from ..core.config import DEFAULT_CONFIG
        from ..core.cost import IncrementalCostEvaluator

        config = config if config is not None else DEFAULT_CONFIG
        evaluator = IncrementalCostEvaluator(
            device, config, device.lower_bound(hg), hg.num_terminals
        )
        evaluator.attach(state)
    rng = random.Random(seed ^ 0x5F3759DF)
    marks: List[int] = []
    for i in range(len(ops) + 1):
        if i:
            _apply(state, ops[i - 1], marks)
        where = f"after op {i - 1} = {ops[i - 1]!r}" if i else "initial state"
        divergence = _first_mismatch(
            _observables(state), _oracle_observables(hg, state)
        )
        if divergence is None and hg.num_cells and i % gain_every == 0:
            divergence = _check_gains(hg, state, rng)
        if divergence is None and evaluator is not None:
            divergence = _check_keys(hg, state, evaluator, device, config)
        if divergence is not None:
            report.identical = False
            report.first_divergence = f"state divergence {where}: {divergence}"
            return report
        report.fingerprints_compared += 1
    report.extras.append("gains")
    if evaluator is not None:
        report.extras.append("keys")
    return report


#: builders covered by the constructive replay harness.
CONSTRUCTIVE_BUILDERS = ("greedy_merge", "ratio_cut", "seed_grow")


def constructive_ops(
    hg: Hypergraph,
    seed: int = 0,
    rounds: int = 12,
    builders: Sequence[str] = CONSTRUCTIVE_BUILDERS,
) -> List[Op]:
    """Deterministic random constructive op sequence over ``hg``.

    Each op is ``("build", builder, cells, rng_seed)`` — one builder
    invocation on a random cell subset (sometimes the whole circuit,
    mimicking the root bipartition; otherwise a random proper subset,
    mimicking a remainder block), with an optional per-op rng seed
    exercising the seeded seed-selection path.
    """
    if hg.num_cells < 2:
        raise ValueError("need at least two cells for constructive ops")
    rng = random.Random(seed)
    ops: List[Op] = []
    for _ in range(rounds):
        builder = builders[rng.randrange(len(builders))]
        if rng.random() < 0.4:
            cells = tuple(range(hg.num_cells))
        else:
            k = rng.randrange(2, hg.num_cells + 1)
            cells = tuple(sorted(rng.sample(range(hg.num_cells), k)))
        rng_seed = rng.getrandbits(64) if rng.random() < 0.5 else None
        ops.append(("build", builder, cells, rng_seed))
    return ops


def replay_constructive(
    hg: Hypergraph,
    device,
    ops: Sequence[Op],
) -> List[Tuple]:
    """Replay constructive ops through the builders; per-op records.

    Each record is ``(subset, trace)`` — the builder's returned block
    (sorted tuple, or None) and its per-step fingerprint trace, the
    full observable surface of one constructive invocation.
    """
    from ..initial import BUILDERS

    records: List[Tuple] = []
    for op in ops:
        kind, name, cells, rng_seed = op
        if kind != "build":
            raise ValueError(f"unknown constructive op {op!r}")
        rng = random.Random(rng_seed) if rng_seed is not None else None
        trace: List[Tuple] = []
        subset = BUILDERS[name](hg, list(cells), device, rng=rng, trace=trace)
        records.append(
            (
                tuple(sorted(subset)) if subset is not None else None,
                tuple(trace),
            )
        )
    return records


def run_constructive_differential(
    hg: Hypergraph,
    device,
    ops: Optional[Sequence[Op]] = None,
    seed: int = 0,
    rounds: int = 12,
) -> DifferentialReport:
    """Replay constructive ops and check every step against the oracle.

    The check is per *step*, not just per result: each trace entry's
    pick and fingerprint is recomputed from scratch
    (:func:`repro.testing.oracle.check_builder_trace`), which localizes
    a divergence to the first differing constructive decision.
    """
    if ops is None:
        ops = constructive_ops(hg, seed=seed, rounds=rounds)
    ops = list(ops)
    report = DifferentialReport(ops=ops, identical=True)
    for i, (op, (subset, trace)) in enumerate(
        zip(ops, replay_constructive(hg, device, ops))
    ):
        _, name, cells, rng_seed = op
        divergence = oracle.check_builder_trace(
            hg, device, name, cells, rng_seed, subset, trace
        )
        if divergence is not None:
            report.identical = False
            report.first_divergence = (
                f"constructive divergence at op {i} = {op!r}: {divergence}"
            )
            return report
        report.fingerprints_compared += 1 + len(trace)
    report.extras.append("constructive")
    return report
