"""Backoff policy and paced worker respawn (fault-injected).

The :class:`~repro.parallel.backoff.BackoffPolicy` must be fully
deterministic — its jitter comes from hashing ``(key, attempt)``, not
from a random source — because the reproducibility contract forbids
unseeded randomness anywhere in the system, even in failure handling.
The pool tests then inject real worker deaths (``os._exit``) and assert
the respawn pacing actually follows the policy (exponential growth, cap,
streak reset), not just that respawn happens.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import (
    DEFAULT_RESPAWN_BACKOFF,
    BackoffPolicy,
    ParallelTask,
    WorkerPool,
)


def _square(x):
    return x * x


def _die(_x):
    os._exit(13)


# ---------------------------------------------------------------------------
# policy unit tests


class TestBackoffPolicy:
    def test_raw_delay_grows_exponentially_to_cap(self):
        policy = BackoffPolicy(
            base_seconds=0.1, multiplier=2.0, max_seconds=1.0, jitter_ratio=0.0
        )
        assert policy.raw_delay(0) == pytest.approx(0.1)
        assert policy.raw_delay(1) == pytest.approx(0.2)
        assert policy.raw_delay(2) == pytest.approx(0.4)
        assert policy.raw_delay(3) == pytest.approx(0.8)
        assert policy.raw_delay(4) == pytest.approx(1.0)  # capped
        assert policy.raw_delay(100) == pytest.approx(1.0)

    def test_jitter_stays_inside_band(self):
        policy = BackoffPolicy(
            base_seconds=0.1, multiplier=2.0, max_seconds=10.0,
            jitter_ratio=0.25,
        )
        for attempt in range(8):
            raw = policy.raw_delay(attempt)
            delay = policy.delay(attempt, key=f"k{attempt}")
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_deterministic_for_same_key_and_attempt(self):
        policy = DEFAULT_RESPAWN_BACKOFF
        assert policy.delay(2, key="a") == policy.delay(2, key="a")

    def test_different_keys_jitter_differently(self):
        policy = BackoffPolicy(
            base_seconds=1.0, multiplier=1.0, max_seconds=1.0,
            jitter_ratio=0.5,
        )
        delays = {policy.delay(0, key=f"key{i}") for i in range(16)}
        assert len(delays) > 1  # hash-derived jitter actually spreads

    def test_zero_jitter_is_exact(self):
        policy = BackoffPolicy(
            base_seconds=0.3, multiplier=3.0, max_seconds=99.0,
            jitter_ratio=0.0,
        )
        assert policy.delay(1, key="anything") == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_seconds=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter_ratio=1.5)


# ---------------------------------------------------------------------------
# pool integration: paced respawn under injected faults


class TestPoolRespawnBackoff:
    def test_respawn_delays_follow_policy(self):
        policy = BackoffPolicy(
            base_seconds=0.02,
            multiplier=2.0,
            max_seconds=0.2,
            jitter_ratio=0.0,  # exact equality below
        )
        tasks = [
            ParallelTask(index=i, fn=_die, args=(i,)) for i in range(3)
        ] + [ParallelTask(index=3, fn=_square, args=(7,))]
        pool = WorkerPool(jobs=2, respawn_backoff=policy)
        outcomes = pool.run(tasks)
        by_index = {o.index: o for o in outcomes}
        assert all(by_index[i].status == "crashed" for i in range(3))
        assert by_index[3].status == "ok" and by_index[3].value == 49
        # With zero jitter the imposed delay is exactly raw_delay(streak).
        # The first two deaths happen with no success in between, so the
        # streak provably grows 0 -> 1; the third races the surviving
        # task's completion (which resets the streak), so it is either
        # position 2 or position 0.
        delays = pool.respawn_delays
        assert len(delays) == 3
        assert delays[0] == pytest.approx(policy.raw_delay(0))
        assert delays[1] == pytest.approx(policy.raw_delay(1))
        assert delays[2] in (
            pytest.approx(policy.raw_delay(2)),
            pytest.approx(policy.raw_delay(0)),
        )

    def test_backoff_actually_paces_wall_clock(self):
        # 3 sequential deaths on 1 worker with a fat, exact delay: the
        # run cannot finish faster than the sum of the imposed waits,
        # whether each poll is bounded by its caller or only by the
        # pool's own respawn deadline.
        policy = BackoffPolicy(
            base_seconds=0.15,
            multiplier=1.0,
            max_seconds=0.15,
            jitter_ratio=0.0,
        )
        for poll_timeout in (0.5, None):
            # Persistent mode: forks a real worker even for jobs=1
            # (run()'s jobs=1 batch path is inline and would _exit the
            # test runner).
            start = time.monotonic()
            outcomes = []
            with WorkerPool(jobs=1, respawn_backoff=policy) as pool:
                for i in range(3):
                    pool.submit(ParallelTask(index=i, fn=_die, args=(i,)))
                while len(outcomes) < 3:
                    outcomes.extend(pool.poll(timeout=poll_timeout))
            elapsed = time.monotonic() - start
            assert all(o.status == "crashed" for o in outcomes)
            # 3 crashes → 3 paced respawns (the last covers the final
            # replacement worker) but only the waits before a next
            # spawn matter; be conservative: at least 2 full delays
            # must elapse.
            assert elapsed >= 2 * 0.15

    def test_streak_resets_after_success(self):
        policy = BackoffPolicy(
            base_seconds=0.01,
            multiplier=2.0,
            max_seconds=1.0,
            jitter_ratio=0.0,
        )
        with WorkerPool(jobs=1, respawn_backoff=policy) as pool:
            pool.submit(ParallelTask(index=0, fn=_die, args=(0,)))
            while True:
                done = pool.poll(timeout=0.5)
                if done:
                    assert done[0].status == "crashed"
                    break
            pool.submit(ParallelTask(index=1, fn=_square, args=(3,)))
            while True:
                done = pool.poll(timeout=0.5)
                if done:
                    assert done[0].value == 9
                    break
            pool.submit(ParallelTask(index=2, fn=_die, args=(2,)))
            while True:
                done = pool.poll(timeout=0.5)
                if done:
                    break
        # Both crashes were streak position 0 (the success between them
        # reset the streak), so both delays equal the attempt-0 delay
        # of their respective respawn keys.
        assert len(pool.respawn_delays) == 2
        assert pool.respawn_delays[0] == pytest.approx(
            policy.delay(0, key="respawn0")
        )
        assert pool.respawn_delays[1] == pytest.approx(
            policy.delay(0, key="respawn1")
        )
