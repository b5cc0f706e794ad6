"""Classic FM gain bucket structure."""

import pytest

from repro.fm import GainBuckets


class TestBasics:
    def test_insert_and_peek(self):
        b = GainBuckets(3, 128)
        b.insert(10, 1)
        b.insert(11, 3)
        b.insert(12, -2)
        assert b.peek_max() == 11
        assert b.max_gain_value() == 3
        assert len(b) == 3
        assert 10 in b and 99 not in b

    def test_lifo_within_bucket(self):
        b = GainBuckets(2, 128)
        b.insert(1, 0)
        b.insert(2, 0)
        b.insert(3, 0)
        assert b.pop_max() == 3
        assert b.pop_max() == 2
        assert b.pop_max() == 1
        assert b.pop_max() is None

    def test_gain_bounds_enforced(self):
        b = GainBuckets(2, 128)
        with pytest.raises(ValueError, match="outside"):
            b.insert(1, 3)
        with pytest.raises(ValueError, match="outside"):
            b.insert(1, -3)

    def test_negative_max_gain(self):
        with pytest.raises(ValueError):
            GainBuckets(-1, 128)

    def test_duplicate_insert_rejected(self):
        b = GainBuckets(2, 128)
        b.insert(1, 0)
        with pytest.raises(ValueError, match="already"):
            b.insert(1, 1)


class TestUpdates:
    def test_remove(self):
        b = GainBuckets(2, 128)
        b.insert(1, 2)
        b.insert(2, 1)
        b.remove(1)
        assert b.peek_max() == 2
        assert 1 not in b

    def test_update_moves_bucket(self):
        b = GainBuckets(3, 128)
        b.insert(1, 0)
        b.insert(2, 1)
        b.update(1, 3)
        assert b.peek_max() == 1
        assert b.gain_of(1) == 3

    def test_adjust(self):
        b = GainBuckets(3, 128)
        b.insert(1, 0)
        b.adjust(1, 2)
        assert b.gain_of(1) == 2
        b.adjust(1, 0)  # no-op
        assert b.gain_of(1) == 2

    def test_top_pointer_recovers_after_removals(self):
        b = GainBuckets(3, 128)
        b.insert(1, 3)
        b.insert(2, -1)
        b.remove(1)
        assert b.max_gain_value() == -1
        b.insert(3, 2)
        assert b.peek_max() == 3

    def test_iter_from_max_order(self):
        b = GainBuckets(3, 128)
        b.insert(1, -1)
        b.insert(2, 2)
        b.insert(3, 2)
        b.insert(4, 0)
        assert list(b.iter_from_max()) == [3, 2, 4, 1]

    def test_clear(self):
        b = GainBuckets(2, 128)
        b.insert(1, 1)
        b.clear()
        assert len(b) == 0
        assert b.peek_max() is None
        b.insert(1, -2)
        assert b.peek_max() == 1


class TestIterMaxBucket:
    def test_yields_only_top_bucket(self):
        b = GainBuckets(3, 128)
        b.insert(1, -1)
        b.insert(2, 2)
        b.insert(3, 2)
        b.insert(4, 0)
        assert list(b.iter_max_bucket()) == [3, 2]

    def test_empty(self):
        b = GainBuckets(2, 128)
        assert list(b.iter_max_bucket()) == []

    def test_settles_after_removal(self):
        b = GainBuckets(2, 128)
        b.insert(1, 2)
        b.insert(2, 0)
        b.insert(3, 0)
        b.remove(1)
        assert list(b.iter_max_bucket()) == [3, 2]

    def test_matches_brute_force_scan(self):
        import random

        rng = random.Random(7)
        buckets = GainBuckets(4, 64)
        stamped = {}  # cell -> (gain, insertion stamp)
        for clock in range(500):
            r = rng.random()
            if r < 0.5 or not stamped:
                cell = rng.randrange(64)
                if cell in stamped:
                    continue
                gain = rng.randrange(-4, 5)
                buckets.insert(cell, gain)
                stamped[cell] = (gain, clock)
            elif r < 0.75:
                cell = rng.choice(sorted(stamped))
                gain = rng.randrange(-4, 5)
                buckets.update(cell, gain)
                stamped[cell] = (gain, clock)
            else:
                cell = rng.choice(sorted(stamped))
                buckets.remove(cell)
                del stamped[cell]
            top = max((g for g, _ in stamped.values()), default=None)
            expected = sorted(
                (c for c, (g, _) in stamped.items() if g == top),
                key=lambda c: -stamped[c][1],
            )
            assert list(buckets.iter_max_bucket()) == expected
