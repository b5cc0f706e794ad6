"""Constructive builders on the CSR substrate, checked against the oracle.

Evidence layers for the constructive phase (DESIGN.md section 13):

* **per-step oracle replay** — builder invocations (fixed circuits and
  random cell subsets, seeded and unseeded) whose trace tuples are
  replayed by :func:`repro.testing.oracle.check_builder_trace`, which
  recomputes every candidate set and score from scratch;
* **branch coverage** — the disconnected-circuit jump fallbacks;
* **golden whole-run pins** — full ``fpart`` runs reproduce the
  assignment and cost-key digests recorded before the object substrate
  was retired, unseeded and seeded.
"""

import random

import pytest

from repro import XC3042, fpart, mcnc_circuit
from repro.circuits import generate_circuit
from repro.core import Device, FpartConfig
from repro.core.device import device_by_name
from repro.hypergraph import Hypergraph
from repro.initial import (
    BUILDERS,
    greedy_merge_bipartition,
    ratio_cut_bipartition,
    seed_grow_bipartition,
)
from repro.testing.differential import (
    constructive_ops,
    replay_constructive,
    run_constructive_differential,
)
from repro.testing.oracle import check_builder_trace

PAIRS = [
    ("greedy_merge", greedy_merge_bipartition),
    ("ratio_cut", ratio_cut_bipartition),
    ("seed_grow", seed_grow_bipartition),
]


def _checked(name, fn, hg, cells, device, rng_seed=None):
    trace = []
    rng = random.Random(rng_seed) if rng_seed is not None else None
    subset = fn(hg, cells, device, rng=rng, trace=trace)
    return check_builder_trace(
        hg, device, name, list(cells), rng_seed, subset, trace
    )


class TestBuilderEquivalence:
    """Direct builder runs, every step checked by the oracle."""

    @pytest.mark.parametrize("name,fn", PAIRS)
    def test_two_clusters(self, name, fn, two_clusters, tiny_device):
        assert _checked(name, fn, two_clusters, range(8), tiny_device) is None

    @pytest.mark.parametrize("name,fn", PAIRS)
    def test_medium_circuit(self, name, fn, medium_circuit, small_device):
        cells = range(medium_circuit.num_cells)
        assert _checked(name, fn, medium_circuit, cells, small_device) is None

    @pytest.mark.parametrize("name,fn", PAIRS)
    def test_seeded(self, name, fn, medium_circuit, small_device):
        cells = range(medium_circuit.num_cells)
        for seed in range(4):
            divergence = _checked(
                name, fn, medium_circuit, cells, small_device, rng_seed=seed
            )
            assert divergence is None, divergence

    def test_flat_builders_registry(self):
        assert list(BUILDERS) == ["greedy_merge", "ratio_cut", "seed_grow"]


class TestConstructiveDifferential:
    """Randomized per-step replays (the harness itself)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_circuits(self, seed):
        # Mixed cell sizes, so the (gain, size, -index) and (score,
        # size, -index) tie-breaks see ties the size decides.
        sizes = random.Random(seed).choices([1, 2, 3], k=220)
        hg = generate_circuit(
            "confl", num_cells=220, num_ios=20, seed=seed, cell_sizes=sizes
        )
        device = device_by_name("XC3042")
        report = run_constructive_differential(
            hg, device, seed=seed, rounds=10
        )
        assert report.identical, report.first_divergence
        assert report.fingerprints_compared > 0
        assert "constructive" in report.extras

    def test_replay_records_traces(self, medium_circuit, small_device):
        ops = constructive_ops(medium_circuit, seed=1, rounds=4)
        records = replay_constructive(medium_circuit, small_device, ops)
        assert len(records) == len(ops)
        for subset, trace in records:
            assert subset is None or len(subset) > 0
            assert isinstance(trace, tuple)

    def test_divergence_is_localized(self, medium_circuit, small_device):
        cells = list(range(40))
        trace = []
        subset = ratio_cut_bipartition(
            medium_circuit, cells, small_device, trace=trace
        )
        assert check_builder_trace(
            medium_circuit, small_device, "ratio_cut", cells, None, subset,
            trace,
        ) is None
        # Corrupt the cut count of the fourth sweep step.
        step = list(trace[3])
        step[2] += 1
        trace[3] = tuple(step)
        divergence = check_builder_trace(
            medium_circuit, small_device, "ratio_cut", cells, None, subset,
            trace,
        )
        assert divergence is not None and "step 3" in divergence


def _disconnected_circuit():
    return Hypergraph(
        [1, 1, 1, 1, 1, 1],
        [(0, 1), (2, 3), (3, 4), (4, 5)],
        terminal_nets=[0, 1],
    )


class TestDisconnectedJumpEquivalence:
    """The jump fallbacks agree with the oracle's argmax."""

    def test_ratio_cut_jump(self):
        hg = _disconnected_circuit()
        device = Device("TINY", s_ds=4, t_max=8, delta=1.0)
        report = run_constructive_differential(
            hg,
            device,
            ops=[("build", "ratio_cut", tuple(range(6)), None)],
        )
        assert report.identical, report.first_divergence

    def test_grower_jump(self):
        hg = _disconnected_circuit()
        device = Device("TINY", s_ds=5, t_max=16, delta=1.0)
        report = run_constructive_differential(
            hg,
            device,
            ops=[
                ("build", "greedy_merge", tuple(range(6)), None),
                ("build", "seed_grow", tuple(range(6)), None),
            ],
        )
        assert report.identical, report.first_divergence
        # The seed-grow result really does span both components (i.e.
        # the jump branch fired, we did not just skip it).
        subset = seed_grow_bipartition(hg, range(6), device)
        assert {0, 1} & subset and {2, 3, 4, 5} & subset


#: sha256 of (assignment, cost key) recorded with the object substrate
#: still in place; see ``run_digest`` in conftest.py.
GOLDEN = {
    "c3540": "3ca65c2c185507812db882f3d2018d5c5d286269a3f42408428c9e4aaec3bca0",
    "seeded": "d8674f58156391b9e0f6f57b22c73bc844940950eb97f5c223896d88c590b671",
}


class TestWholeRunBitIdentity:
    """Full fpart runs through the constructive phase match golden pins."""

    def test_c3540_xc3042(self, run_digest):
        hg = mcnc_circuit("c3540", "XC3000")
        result = fpart(hg, XC3042)
        assert run_digest(result.assignment, result.cost.key) == GOLDEN["c3540"]

    def test_seeded_run_uses_flat_seed_grow(self, run_digest):
        # seed != 0 puts seed_grow in the portfolio, so this pins the
        # third builder inside the driver.
        hg = generate_circuit("confl-run", num_cells=300, num_ios=24, seed=9)
        config = FpartConfig(seed=5)
        result = fpart(hg, XC3042, config=config)
        assert run_digest(result.assignment, result.cost.key) == GOLDEN["seeded"]
