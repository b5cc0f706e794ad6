"""Frozen CSR (compressed sparse row) incidence view of a hypergraph.

The object-graph representation (:class:`~repro.hypergraph.Hypergraph`'s
tuples-of-tuples) is convenient but every pin visit chases a pointer to a
separate tuple object.  The CSR view packs both incidence directions into
four flat ``array('i')`` buffers::

    net_pins[net_offsets[e] : net_offsets[e + 1]]    -> pins of net e
    cell_nets[cell_offsets[c] : cell_offsets[c + 1]] -> nets of cell c

Offsets have one trailing sentinel entry (``offsets[n] == len(indices)``)
so every slice is branch-free.  The buffers are built once at hypergraph
construction, never mutated, and shared read-only across restart workers
(``array`` pickles compactly and the parallel layer ships the hypergraph
once per worker anyway).

Entry order is identical to the object representation — ``net_pins``
keeps each net's pin tuple order, ``cell_nets`` keeps each cell's net
tuple order — so CSR walks visit pins/nets in exactly the sequence of
``Hypergraph.pins_of`` / ``nets_of``, which the tie-breaks of the
partition core depend on.
"""

from __future__ import annotations

from array import array
from typing import Sequence, Tuple

__all__ = ["CsrView"]


def _pack(rows: Sequence[Sequence[int]]) -> Tuple[array, array]:
    """Flatten a ragged row structure into (offsets, indices)."""
    offsets = array("i", [0] * (len(rows) + 1))
    total = 0
    for i, row in enumerate(rows):
        total += len(row)
        offsets[i + 1] = total
    indices = array("i", [0] * total)
    pos = 0
    for row in rows:
        for v in row:
            indices[pos] = v
            pos += 1
    return offsets, indices


class CsrView:
    """Four flat buffers holding both incidence directions of a netlist.

    Attributes
    ----------
    net_offsets / net_pins:
        Forward incidence: the pins (interior cells) of each net.
    cell_offsets / cell_nets:
        Inverse incidence: the nets incident to each cell.
    """

    __slots__ = (
        "num_cells",
        "num_nets",
        "net_offsets",
        "net_pins",
        "cell_offsets",
        "cell_nets",
        "_list_mirrors",
    )

    def __init__(
        self,
        nets: Sequence[Sequence[int]],
        cell_nets: Sequence[Sequence[int]],
    ) -> None:
        self.num_nets = len(nets)
        self.num_cells = len(cell_nets)
        self.net_offsets, self.net_pins = _pack(nets)
        self.cell_offsets, self.cell_nets = _pack(cell_nets)
        self._list_mirrors = None

    def list_mirrors(self) -> Tuple[list, list, list, list]:
        """Plain-list copies ``(net_offsets, net_pins, cell_offsets,
        cell_nets)`` for per-move hot loops.

        CPython indexes a list noticeably faster than an ``array``
        because an ``array('i')`` read boxes a fresh int object while a
        list read returns the stored reference.  The mirrors are built
        on first use and cached; the ``array`` buffers stay the
        canonical (compact, picklable) form shipped to restart workers,
        which each rebuild their own mirrors lazily.
        """
        mirrors = self._list_mirrors
        if mirrors is None:
            mirrors = (
                self.net_offsets.tolist(),
                self.net_pins.tolist(),
                self.cell_offsets.tolist(),
                self.cell_nets.tolist(),
            )
            self._list_mirrors = mirrors
        return mirrors

    def __getstate__(self):
        # Drop the lazy mirrors: workers rebuild them on demand and the
        # array buffers pickle 8x smaller.
        return (
            self.num_cells,
            self.num_nets,
            self.net_offsets,
            self.net_pins,
            self.cell_offsets,
            self.cell_nets,
        )

    def __setstate__(self, packed):
        (
            self.num_cells,
            self.num_nets,
            self.net_offsets,
            self.net_pins,
            self.cell_offsets,
            self.cell_nets,
        ) = packed
        self._list_mirrors = None

    def pins_of(self, net: int):
        """Pins of one net (an ``array`` slice; hot paths index the flat
        buffers directly through the offsets instead)."""
        return self.net_pins[self.net_offsets[net]:self.net_offsets[net + 1]]

    def nets_of(self, cell: int):
        """Nets of one cell (an ``array`` slice)."""
        return self.cell_nets[
            self.cell_offsets[cell]:self.cell_offsets[cell + 1]
        ]

    def __repr__(self) -> str:
        return (
            f"CsrView({self.num_cells} cells, {self.num_nets} nets, "
            f"{len(self.net_pins)} pin entries)"
        )
