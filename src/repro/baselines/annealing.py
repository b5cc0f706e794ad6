"""Simulated-annealing k-way partitioner.

The third classical family the paper's survey touches (Yeh/Cheng/Lin
[17] evaluate iterative improvement against annealing-style
optimization).  A straightforward SA over cell→block assignments with
the scalarized infeasibility objective:

    E = w_f * (k - f) + w_d * d_k + w_p * T_SUM / (k * T_MAX)

Moves pick a random cell and a random other block; standard Metropolis
acceptance with geometric cooling.  Like the direct baseline it searches
the smallest feasible ``k`` upward from ``M``.

Deterministic under a fixed seed.  Deliberately simple — its role is to
show what an unstructured stochastic search achieves with the same
evaluation budget, not to be a tuned competitor.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Tuple

from ..core import (
    DEFAULT_CONFIG,
    CostEvaluator,
    Device,
    FpartConfig,
    UnpartitionableError,
    classify,
)
from ..core.cost import make_evaluator
from ..core.feasibility import Feasibility
from ..hypergraph import Hypergraph
from ..partition import PartitionState

__all__ = ["AnnealingResult", "anneal_kway"]


@dataclass(frozen=True)
class AnnealingResult:
    """Outcome of the annealing baseline."""

    circuit: str
    device: str
    num_devices: int
    lower_bound: int
    feasible: bool
    assignment: Tuple[int, ...]
    moves_evaluated: int
    runtime_seconds: float

    def summary(self) -> str:
        return (
            f"{self.circuit} on {self.device} [annealing]: "
            f"{self.num_devices} devices (M={self.lower_bound}, "
            f"{self.moves_evaluated} moves)"
        )


def _energy(
    state: PartitionState, evaluator: CostEvaluator, device: Device
) -> float:
    cost = evaluator.cost_of(state, remainder=0)
    k = state.num_blocks
    infeasible = k - cost.feasible_blocks
    return (
        10.0 * infeasible
        + 5.0 * cost.distance
        + cost.total_pins / (k * device.t_max)
    )


def _anneal_once(
    hg: Hypergraph,
    device: Device,
    config: FpartConfig,
    k: int,
    rng: random.Random,
    moves_budget: int,
) -> Tuple[PartitionState, int]:
    m = device.lower_bound(hg)
    evaluator = make_evaluator(device, config, m, hg.num_terminals)
    assignment = [rng.randrange(k) for _ in range(hg.num_cells)]
    state = PartitionState.from_assignment(hg, assignment, k)
    evaluator.attach(state)

    energy = _energy(state, evaluator, device)
    best_energy = energy
    best_assignment = state.assignment()

    temperature = max(1.0, energy / 2)
    cooling = 0.995
    evaluated = 0
    stagnant = 0
    while evaluated < moves_budget and stagnant < moves_budget // 4:
        cell = rng.randrange(hg.num_cells)
        current_block = state.block_of(cell)
        target = rng.randrange(k - 1)
        if target >= current_block:
            target += 1
        state.move(cell, target)
        evaluated += 1
        new_energy = _energy(state, evaluator, device)
        delta = new_energy - energy
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            energy = new_energy
            if energy < best_energy - 1e-12:
                best_energy = energy
                best_assignment = state.assignment()
                stagnant = 0
            else:
                stagnant += 1
        else:
            state.move(cell, current_block)
            stagnant += 1
        temperature = max(0.01, temperature * cooling)

    state.restore(best_assignment)
    return state, evaluated


def anneal_kway(
    hg: Hypergraph,
    device: Device,
    config: FpartConfig = DEFAULT_CONFIG,
    seed: int = 0,
    moves_per_cell: int = 60,
    max_extra: int = 8,
) -> AnnealingResult:
    """Smallest feasible k by simulated annealing.

    ``moves_per_cell`` scales the move budget per k attempt.  Raises
    when no feasible partition is found within ``M + max_extra``.
    """
    start = time.perf_counter()
    for c in range(hg.num_cells):
        if hg.cell_size(c) > device.s_max:
            raise UnpartitionableError("cell exceeds device capacity")
    m = device.lower_bound(hg)
    rng = random.Random(seed)
    total_moves = 0
    for k in range(max(1, m), m + max_extra + 1):
        if k == 1:
            state = PartitionState.single_block(hg)
            evaluated = 0
        else:
            state, evaluated = _anneal_once(
                hg,
                device,
                config,
                k,
                rng,
                moves_budget=moves_per_cell * hg.num_cells,
            )
        total_moves += evaluated
        if classify(state, device) is Feasibility.FEASIBLE:
            return AnnealingResult(
                circuit=hg.name or "circuit",
                device=device.name,
                num_devices=len(state.nonempty_blocks()),
                lower_bound=m,
                feasible=True,
                assignment=tuple(state.assignment()),
                moves_evaluated=total_moves,
                runtime_seconds=time.perf_counter() - start,
            )
    raise UnpartitionableError(
        f"annealing found no feasible partition up to k={m + max_extra}"
    )
