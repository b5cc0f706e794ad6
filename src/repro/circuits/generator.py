"""Deterministic synthetic netlist generator.

The MCNC Partitioning93 benchmark netlists the paper uses (mapped to
XC2000/XC3000 CLBs) are no longer distributable, so the experiments run
on synthetic stand-ins that match the published characteristics — cell
count, primary-I/O count — and exhibit the structural properties that
make technology-mapped logic partitionable:

* **one driver per cell** — every cell sources exactly one net, giving
  ``#nets ~= #cells + #input pads``;
* **fanout distribution** — mostly 2-pin nets with a geometric tail and
  a few high-fanout (clock/reset-like) nets;
* **hierarchical locality** — cells sit at the leaves of an implicit
  cluster tree and sinks are drawn from a geometrically-escalating
  enclosing cluster, producing the Rent-like locality real netlists have
  (without it no good cuts exist and every partitioner degenerates to
  bin packing).

Everything is driven by ``numpy.random.Generator`` seeded from the
circuit name, so the same name always regenerates the identical
hypergraph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..hypergraph import Hypergraph

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GeneratorParams", "generate_circuit", "seed_from_name"]


def seed_from_name(name: str, extra: int = 0) -> int:
    """Stable 63-bit seed derived from a circuit name."""
    digest = hashlib.sha256(f"{name}:{extra}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class GeneratorParams:
    """Tunables of the synthetic netlist generator.

    Defaults produce logic-like profiles: average net degree around 3,
    half the nets 2-pin, occasional wide nets, strong locality.
    """

    fanout_geom_p: float = 0.55
    """Geometric parameter of the per-net sink count (mean ~1/p sinks)."""
    max_fanout: int = 12
    """Cap on ordinary net sinks."""
    wide_net_fraction: float = 0.01
    """Fraction of nets redrawn as wide (clock/reset-like)."""
    wide_net_fanout: int = 32
    """Sink count of wide nets (clipped to the circuit size)."""
    leaf_cluster: int = 8
    """Size of the smallest locality cluster."""
    escalation_p: float = 0.55
    """Probability of escalating one more cluster level per sink; lower
    values give stronger locality (cheaper cuts).  The default was
    calibrated so FPART's device counts on the stand-ins track the
    paper's Tables 2-5 (see EXPERIMENTS.md)."""
    input_pad_fraction: float = 0.5
    """Fraction of pads modelled as inputs (their own sink-only nets)."""
    input_pad_fanout: int = 3
    """Mean sinks of an input-pad net."""


def _pick_in_cluster(
    rng: np.random.Generator,
    driver: int,
    num_cells: int,
    level: int,
    leaf: int,
) -> int:
    """Uniform cell from the driver's enclosing cluster at ``level``."""
    width = leaf << level
    if width >= num_cells:
        return int(rng.integers(0, num_cells))
    base = (driver // width) * width
    hi = min(base + width, num_cells)
    return int(rng.integers(base, hi))


def generate_circuit(
    name: str,
    num_cells: int,
    num_ios: int,
    seed: Optional[int] = None,
    cell_sizes: Optional[Sequence[int]] = None,
    params: GeneratorParams = GeneratorParams(),
) -> Hypergraph:
    """Generate a deterministic synthetic circuit.

    Parameters
    ----------
    name:
        Circuit name; also seeds the generator (unless ``seed`` given).
    num_cells:
        Interior cell count (= circuit size with unit cell sizes).
    num_ios:
        Primary I/O pad count.
    seed:
        Explicit seed overriding the name-derived one.
    cell_sizes:
        Optional per-cell sizes (defaults to all 1, matching CLB counts).
    params:
        Structural tunables.
    """
    if num_cells < 2:
        raise ValueError("need at least two cells")
    if num_ios < 0:
        raise ValueError("num_ios must be non-negative")
    if cell_sizes is not None and len(cell_sizes) != num_cells:
        raise ValueError("cell_sizes length mismatch")
    # Deferred: numpy is only needed here, not at ``import repro``.
    import numpy as np

    rng = np.random.default_rng(
        seed if seed is not None else seed_from_name(name)
    )
    leaf = params.leaf_cluster
    # Number of levels needed to cover the circuit from the leaf cluster.
    max_level = 0
    while (leaf << max_level) < num_cells:
        max_level += 1

    nets: List[List[int]] = []
    net_drivers: List[object] = []

    def draw_level() -> int:
        level = 0
        while level < max_level and rng.random() < params.escalation_p:
            level += 1
        return level

    def draw_sinks(driver: int, count: int) -> List[int]:
        pins = {driver}
        attempts = 0
        while len(pins) < count + 1 and attempts < 8 * (count + 2):
            attempts += 1
            sink = _pick_in_cluster(
                rng, driver, num_cells, draw_level(), leaf
            )
            pins.add(sink)
        return sorted(pins)

    # One driven net per cell.
    for driver in range(num_cells):
        if rng.random() < params.wide_net_fraction:
            fanout = min(params.wide_net_fanout, num_cells - 1)
        else:
            fanout = min(
                int(rng.geometric(params.fanout_geom_p)), params.max_fanout
            )
        nets.append(draw_sinks(driver, fanout))
        net_drivers.append(driver)

    terminal_nets: List[int] = []
    num_inputs = int(round(num_ios * params.input_pad_fraction))
    num_outputs = num_ios - num_inputs

    # Input pads: sink-only nets entering the circuit.
    for _ in range(num_inputs):
        entry = int(rng.integers(0, num_cells))
        fanout = max(
            1,
            min(
                int(rng.geometric(1.0 / params.input_pad_fanout)),
                params.max_fanout,
            ),
        )
        pins = draw_sinks(entry, fanout - 1)
        nets.append(pins)
        net_drivers.append(None)  # externally driven (input pad)
        terminal_nets.append(len(nets) - 1)

    # Output pads: attach to distinct cell-driven nets.
    if num_outputs > num_cells:
        raise ValueError("more output pads than driver nets")
    driven = rng.permutation(num_cells)[:num_outputs]
    terminal_nets.extend(int(e) for e in driven)

    sizes = list(cell_sizes) if cell_sizes is not None else [1] * num_cells
    return Hypergraph(
        sizes, nets, terminal_nets, name=name, net_drivers=net_drivers
    )
