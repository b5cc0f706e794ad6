"""Checkpoint/resume for long partitioning runs.

A :class:`RunCheckpoint` captures everything Algorithm 1 needs to
continue from an iteration boundary:

* the cell→block **assignment** plus block count and the current
  remainder block (the live solution),
* the **schedule position** — the iteration counter (the whole
  iteration schedule is re-derived deterministically from the state, so
  the boundary index is sufficient),
* the **best-so-far** snapshot backing graceful degradation,
* the **RNG seed and state** — ``None`` for the canonical ``seed=0``
  run (every tie-break is ordered); seeded runs store the Mersenne
  state of their root rng (:func:`rng_state_to_json`) so a resumed
  seeded run replays the exact same perturbation draws,
* consumed **guard budget** (iterations, moves, elapsed wall-clock), so
  a resumed run honours the original deadline rather than restarting it.

Because FPART is deterministic between iteration boundaries, resuming a
seeded run from any checkpoint reproduces the uninterrupted run's final
assignment **bit-identically** (enforced by ``tests/test_faults.py``).

Files are JSON, written atomically (temp file + ``os.replace``) so a
kill mid-write never leaves a truncated checkpoint behind.  A stale or
foreign checkpoint (different circuit/device/config) is rejected at
load/validation time with :class:`~repro.core.exceptions.CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..obs.runstore import atomic_write_text
from .config import FpartConfig
from .exceptions import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "RunCheckpoint",
    "CheckpointManager",
    "config_digest",
    "rng_state_to_json",
    "rng_state_from_json",
]

CHECKPOINT_SCHEMA = 1


def config_digest(config: FpartConfig) -> str:
    """Stable digest of every config field that influences the search.

    ``FpartConfig`` is a frozen dataclass with a deterministic ``repr``,
    which makes the digest reproducible across processes.  Budget and
    strictness fields are masked out before hashing: they decide *when a
    run stops*, not the search trajectory, and must not prevent resuming
    an exhausted run with a larger budget.
    """
    masked = dataclasses.replace(
        config,
        deadline_seconds=None,
        max_iterations=None,
        max_moves=None,
        guard_check_interval=256,
        strict=False,
    )
    return hashlib.sha256(repr(masked).encode("utf-8")).hexdigest()[:16]


def rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` tuple → JSON-serialisable list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(raw: list) -> tuple:
    """Inverse of :func:`rng_state_to_json` (JSON arrays → tuples)."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise CheckpointError("malformed checkpoint: bad rng_state layout")
    version, internal, gauss_next = raw
    return (version, tuple(internal), gauss_next)


@dataclass
class RunCheckpoint:
    """One resumable snapshot of an FPART run at an iteration boundary."""

    circuit: str
    device: str
    config: str
    """Digest from :func:`config_digest` — guards against resuming with
    different search parameters (which would silently change results)."""
    iteration: int
    remainder: int
    num_blocks: int
    assignment: List[int]
    best_assignment: List[int]
    best_num_blocks: int
    best_remainder: int
    seed: int = 0
    rng_state: Optional[list] = None
    guard: Dict[str, float] = field(default_factory=dict)
    run_id: str = ""
    schema: int = CHECKPOINT_SCHEMA

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunCheckpoint":
        try:
            raw = json.loads(text)
        except ValueError as error:
            raise CheckpointError(f"corrupt checkpoint: {error}") from error
        if not isinstance(raw, dict):
            raise CheckpointError("corrupt checkpoint: not a JSON object")
        schema = raw.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported checkpoint schema {schema!r} "
                f"(expected {CHECKPOINT_SCHEMA})"
            )
        try:
            return cls(**raw)
        except TypeError as error:
            raise CheckpointError(f"malformed checkpoint: {error}") from error

    def validate_for(
        self, circuit: str, device: str, config: FpartConfig
    ) -> None:
        """Reject resuming into a different run (wrong circuit/device/config)."""
        if self.circuit != circuit:
            raise CheckpointError(
                f"checkpoint is for circuit {self.circuit!r}, "
                f"not {circuit!r}"
            )
        if self.device != device:
            raise CheckpointError(
                f"checkpoint is for device {self.device!r}, not {device!r}"
            )
        digest = config_digest(config)
        if self.config != digest:
            raise CheckpointError(
                "checkpoint was written with a different configuration "
                f"({self.config} != {digest}); resuming would change results"
            )


class CheckpointManager:
    """Periodic atomic checkpoint writer/loader for one run.

    ``every`` is in Algorithm 1 iterations; the driver calls
    :meth:`maybe_save` at each iteration boundary and the manager
    decides whether the snapshot is due.
    """

    def __init__(self, path: Union[str, Path], every: int = 1) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be positive")
        self.path = Path(path)
        self.every = every
        self.saves = 0

    def exists(self) -> bool:
        return self.path.exists()

    def due(self, iteration: int) -> bool:
        return iteration % self.every == 0

    def save(self, checkpoint: RunCheckpoint) -> None:
        """Atomic write: a kill mid-save leaves the previous file intact."""
        atomic_write_text(self.path, checkpoint.to_json() + "\n")
        self.saves += 1

    def maybe_save(self, checkpoint: RunCheckpoint) -> bool:
        if not self.due(checkpoint.iteration):
            return False
        self.save(checkpoint)
        return True

    def load(self) -> RunCheckpoint:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from error
        return RunCheckpoint.from_json(text)
