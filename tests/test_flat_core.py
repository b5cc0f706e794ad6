"""The CSR partition core, checked against the brute-force oracle.

Three layers of evidence, matching DESIGN.md section 9:

* **property tests** — randomized operation sequences (moves, rewinds,
  block growth, full restores) replayed through
  :class:`~repro.partition.PartitionState`, with Λ(e, b) and every
  aggregate compared against :func:`repro.testing.oracle.recount` after
  every op, plus FM gains and the incremental lexicographic cost keys;
* **structure checks** — :class:`~repro.fm.buckets.GainBuckets` against
  a brute-force model over random op sequences, including iteration
  (tie-break) order;
* **golden whole-run pins** — full runs reproduce the assignment and
  cost-key digests recorded before the object substrate was retired:
  MCNC stand-ins serial and pooled, the ``--restarts`` portfolio
  winner, small-M and big-M generated circuits, and a k-way.x baseline.
"""

import random

import pytest

from repro import XC3042, fpart, mcnc_circuit
from repro.circuits import generate_circuit
from repro.core import DEFAULT_CONFIG, FpartConfig
from repro.core.device import device_by_name
from repro.fm.buckets import GainBuckets
from repro.partition import PartitionState
from repro.testing.differential import random_ops, replay, run_differential


class TestBackendDispatch:
    """One substrate: no backend knob remains to dispatch on."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError):
            FpartConfig(backend="flat")
        with pytest.raises(TypeError):
            FpartConfig(incremental_cost=False)

    def test_single_block_state(self, chain4):
        state = PartitionState.single_block(chain4)
        assert state.net_spans == [1] * chain4.num_nets
        assert len(state.net_counts) == chain4.num_nets * state.stride
        assert [state.net_block_count(e, 0) for e in range(3)] == [2, 2, 2]

    def test_copy_preserves_backend(self, chain4):
        state = PartitionState.from_assignment(chain4, [0, 1, 0, 1], 2)
        clone = state.copy()
        assert clone.net_counts == state.net_counts
        assert clone.net_counts is not state.net_counts
        clone.move(1, 0)
        assert state.net_span(0) == 2 and clone.net_span(0) == 1


class TestDifferentialProperties:
    """Randomized replays must never diverge from the oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_sequences_small(self, two_clusters, seed):
        report = run_differential(two_clusters, seed=seed, length=400)
        assert report.identical, report.first_divergence

    @pytest.mark.parametrize("seed", [7, 11])
    def test_random_sequences_with_keys(self, seed):
        sizes = random.Random(seed).choices([1, 2, 3], k=300)
        hg = generate_circuit(
            "flatcore", num_cells=300, num_ios=24, seed=seed, cell_sizes=sizes
        )
        device = device_by_name("XC3042")
        report = run_differential(
            hg, seed=seed, length=500, device=device
        )
        assert report.identical, report.first_divergence
        assert report.extras == ["gains", "keys"]

    def test_replay_fingerprints_cover_every_op(self, two_clusters):
        ops = random_ops(two_clusters, seed=5, length=100)
        prints = replay(two_clusters, ops)
        assert len(prints) == len(ops) + 1

    def test_consistency_after_replay(self, medium_circuit):
        ops = random_ops(medium_circuit, seed=9, length=600)
        report = run_differential(medium_circuit, ops=ops)
        assert report.identical, report.first_divergence
        assert report.fingerprints_compared == len(ops) + 1

    def test_divergence_names_the_op(self, two_clusters, monkeypatch):
        ops = [("move", 3, 0), ("add_block",), ("move", 4, 1)]
        assert run_differential(two_clusters, ops=ops).identical
        move = PartitionState.move

        def corrupting_move(state, cell, to_block):
            moved_from = move(state, cell, to_block)
            if cell == 4:
                state._block_pins[to_block] += 1
            return moved_from

        monkeypatch.setattr(PartitionState, "move", corrupting_move)
        report = run_differential(two_clusters, ops=ops)
        assert not report.identical
        assert report.first_divergence.startswith(
            "state divergence after op 2 = ('move', 4, 1): pins:"
        )


class _ModelBuckets:
    """Brute-force gain buckets: a dict plus insertion stamps."""

    def __init__(self):
        self.entries = {}
        self.clock = 0

    def insert(self, cell, gain):
        self.clock += 1
        self.entries[cell] = (gain, self.clock)

    def remove(self, cell):
        del self.entries[cell]

    def order(self):
        # Highest gain first; LIFO (latest insertion) within a gain.
        entries = self.entries
        return sorted(entries, key=lambda c: (-entries[c][0], -entries[c][1]))


class TestFlatGainBuckets:
    """GainBuckets must behave exactly like the brute-force model."""

    @staticmethod
    def _fingerprint(b):
        return (
            len(b),
            b.max_gain_value(),
            b.peek_max(),
            tuple(b.iter_from_max()),
        )

    @staticmethod
    def _model_fingerprint(model):
        order = model.order()
        top = order[0] if order else None
        return (
            len(order),
            model.entries[top][0] if order else None,
            top,
            tuple(order),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_op_equivalence(self, seed):
        rng = random.Random(seed)
        max_gain, capacity = 6, 48
        model = _ModelBuckets()
        buckets = GainBuckets(max_gain, capacity)
        for step in range(2000):
            r = rng.random()
            members = sorted(model.entries)
            if r < 0.45 or not members:
                cell = rng.randrange(capacity)
                gain = rng.randint(-max_gain, max_gain)
                if cell in model.entries:
                    with pytest.raises(ValueError):
                        buckets.insert(cell, gain)
                else:
                    buckets.insert(cell, gain)
                    model.insert(cell, gain)
            elif r < 0.60:
                cell = rng.choice(members)
                buckets.remove(cell)
                model.remove(cell)
            elif r < 0.75:
                cell = rng.choice(members)
                gain = rng.randint(-max_gain, max_gain)
                buckets.update(cell, gain)
                model.remove(cell)
                model.insert(cell, gain)
            elif r < 0.85:
                cell = rng.choice(members)
                old = model.entries[cell][0]
                new = old + rng.randint(-2, 2)
                delta = max(-max_gain, min(max_gain, new)) - old
                buckets.adjust(cell, delta)
                if delta:
                    model.remove(cell)
                    model.insert(cell, old + delta)
            else:
                expected = model.order()[0]
                assert buckets.pop_max() == expected
                model.remove(expected)
            assert self._fingerprint(buckets) == self._model_fingerprint(model)
            for cell, (gain, _) in model.entries.items():
                assert cell in buckets
                assert buckets.gain_of(cell) == gain

    def test_errors_match(self):
        buckets = GainBuckets(3, 8)
        with pytest.raises(KeyError):
            buckets.remove(2)
        with pytest.raises(KeyError):
            buckets.gain_of(2)
        buckets.insert(2, 1)
        with pytest.raises(ValueError):
            buckets.insert(2, -1)
        with pytest.raises(ValueError):
            buckets.insert(3, 4)  # gain out of range
        assert buckets.pop_max() == 2
        assert buckets.pop_max() is None
        assert buckets.peek_max() is None
        assert buckets.max_gain_value() is None

    def test_clear(self):
        buckets = GainBuckets(2, 6)
        for cell in range(6):
            buckets.insert(cell, cell % 3 - 1)
        buckets.clear()
        assert len(buckets) == 0
        assert list(buckets.iter_from_max()) == []
        buckets.insert(0, 2)  # reusable after clear
        assert buckets.pop_max() == 0


#: sha256 of (assignment, cost key) recorded with the object substrate
#: still in place (see ``run_digest`` in conftest.py).  The portfolio
#: pin prefixes the key with the winner index; the k-way.x pin uses
#: ``(num_devices, feasible)`` since the baseline reports no cost.
GOLDEN = {
    "s9234": "64b87aa4fea0da9d1b6f7fd3101d2b01beb33af3a831bde89ca1aa8c0721f35c",
    "c3540": "3ca65c2c185507812db882f3d2018d5c5d286269a3f42408428c9e4aaec3bca0",
    "restarts": "d3bcb631db1434ca59ea83ca3d96175381237c890f839a6bf7cc15d025b9d181",
    "smallm": "649a86028dba65cef80165029810f78925752f0716e5da186b4c8129feedd3ce",
    "bigm": "95bf706f04997c98ff52aed1dbb1e9d943a5445b44da7fc69333d49ee13d85d5",
    "kwayx": "181055558c2349005b4c42f8e4c4657237296b2052d2e06eaf43c1a68102c910",
}

#: ``config_digest(DEFAULT_CONFIG)`` since ``backend`` and
#: ``incremental_cost`` left ``FpartConfig``; older checkpoints fail
#: ``--resume`` with a CheckpointError.
DEFAULT_CONFIG_DIGEST = "ae1a908be7d737a5"


class TestWholeRunBitIdentity:
    """Full runs reproduce the golden pins bit for bit."""

    @pytest.mark.parametrize("builder_jobs", [1, 4])
    def test_s9234_xc3042(self, builder_jobs, run_digest):
        hg = mcnc_circuit("s9234", "XC3000")
        config = FpartConfig(builder_jobs=builder_jobs)
        result = fpart(hg, XC3042, config=config)
        assert run_digest(result.assignment, result.cost.key) == GOLDEN["s9234"]
        assert result.num_devices == 4

    def test_c3540_xc3042(self, run_digest):
        hg = mcnc_circuit("c3540", "XC3000")
        result = fpart(hg, XC3042)
        assert run_digest(result.assignment, result.cost.key) == GOLDEN["c3540"]

    def test_portfolio_winner_unchanged(self, run_digest):
        from repro.parallel import run_restarts

        hg = mcnc_circuit("c3540", "XC3000")
        portfolio = run_restarts(
            hg, XC3042, FpartConfig(seed=3), restarts=4, jobs=4
        )
        assert portfolio.status == "complete"
        winner = portfolio.winner
        key = (portfolio.winner_index,) + tuple(winner.cost.key)
        assert run_digest(winner.assignment, key) == GOLDEN["restarts"]

    def test_small_m_xc3020(self, run_digest):
        hg = generate_circuit("golden-smallm", num_cells=380, num_ios=50, seed=1)
        result = fpart(hg, device_by_name("XC3020"))
        assert run_digest(result.assignment, result.cost.key) == GOLDEN["smallm"]
        assert result.num_devices == 7

    def test_big_m_xc3020(self, run_digest):
        hg = generate_circuit("golden-bigm", num_cells=1050, num_ios=150, seed=2)
        result = fpart(hg, device_by_name("XC3020"))
        assert run_digest(result.assignment, result.cost.key) == GOLDEN["bigm"]
        assert result.num_devices == 19

    def test_kwayx_baseline(self, run_digest):
        from repro.baselines import kwayx

        result = kwayx(mcnc_circuit("c3540", "XC3000"), XC3042)
        key = (result.num_devices, result.feasible)
        assert run_digest(result.assignment, key) == GOLDEN["kwayx"]

    def test_checkpoints_interchangeable(self):
        from repro.core.checkpoint import config_digest

        # builder_jobs is an execution knob: pooled and serial runs
        # share checkpoints.
        assert config_digest(FpartConfig(builder_jobs=4)) == config_digest(
            DEFAULT_CONFIG
        )
        assert config_digest(DEFAULT_CONFIG) == DEFAULT_CONFIG_DIGEST
