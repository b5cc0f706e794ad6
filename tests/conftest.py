"""Shared fixtures: small hand-built circuits and devices."""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits import generate_circuit
from repro.core import Device
from repro.hypergraph import Hypergraph


@pytest.fixture
def chain4() -> Hypergraph:
    """Four unit cells in a chain: 0-1, 1-2, 2-3; one pad on net 0."""
    return Hypergraph(
        cell_sizes=[1, 1, 1, 1],
        nets=[(0, 1), (1, 2), (2, 3)],
        terminal_nets=[0],
        name="chain4",
    )


@pytest.fixture
def clique5() -> Hypergraph:
    """Five cells joined by one 5-pin net plus a 2-pin net; 2 pads."""
    return Hypergraph(
        cell_sizes=[2, 1, 1, 1, 3],
        nets=[(0, 1, 2, 3, 4), (0, 4)],
        terminal_nets=[1, 1],
        name="clique5",
    )


@pytest.fixture
def two_clusters() -> Hypergraph:
    """Two tight 4-cell clusters joined by a single bridge net.

    The obvious min-cut (cut=1) separates cells {0..3} from {4..7}.
    Pads sit on one net of each cluster.
    """
    nets = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),   # cluster A
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),   # cluster B
        (3, 4),                                            # bridge
    ]
    return Hypergraph(
        cell_sizes=[1] * 8,
        nets=nets,
        terminal_nets=[0, 6],
        name="two_clusters",
    )


@pytest.fixture
def medium_circuit() -> Hypergraph:
    """A 120-cell synthetic circuit, deterministic."""
    return generate_circuit("test-medium", num_cells=120, num_ios=20, seed=42)


@pytest.fixture
def small_device() -> Device:
    """A device sized so the fixtures need a handful of blocks."""
    return Device("TESTDEV", s_ds=40, t_max=30, delta=1.0)


@pytest.fixture
def tiny_device() -> Device:
    """A device sized for the 8-cell fixtures (capacity 4, pins 6)."""
    return Device("TINY", s_ds=4, t_max=6, delta=1.0)


@pytest.fixture
def run_digest():
    """Golden-pin digest: sha256 over a run's assignment and cost key."""

    def digest(assignment, key) -> str:
        payload = repr((list(assignment), tuple(key)))
        return hashlib.sha256(payload.encode()).hexdigest()

    return digest
