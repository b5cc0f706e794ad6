"""Netlist hypergraph data structure.

The paper models a digital circuit as a hypergraph ``H0 = ({X0, Y0}, E0)``
where ``X0`` is the set of *interior* nodes (logic cells, each weighted by a
size in target-technology cells), ``Y0`` is the set of *terminal* nodes
(primary I/O pads), and ``E0`` is the set of nets.  Every net connects one or
more interior cells and zero or more terminal nodes.

:class:`Hypergraph` is an immutable, index-based representation:

* interior cells are integers ``0 .. num_cells - 1`` with integer sizes,
* nets are integers ``0 .. num_nets - 1``, each a tuple of distinct cell
  indices,
* terminal nodes are integers ``0 .. num_terminals - 1``, each attached to
  exactly one net (a pad drives or is driven by a single signal).

Incidence structures (``cell_nets``) and aggregate quantities (total size
``S0``) are computed once at construction and shared by every algorithm in
the package.  Partitioning algorithms never mutate the hypergraph; all
mutable bookkeeping lives in :class:`repro.partition.PartitionState`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .csr import CsrView

__all__ = ["Hypergraph"]


class Hypergraph:
    """An immutable netlist hypergraph with weighted cells and terminal pads.

    Parameters
    ----------
    cell_sizes:
        Size ``S(x_i)`` of each interior cell, in target-technology cells
        (CLBs).  Must all be positive.
    nets:
        One pin list per net: the interior cells the net connects.  Pins
        must be valid cell indices and distinct within a net.  Every net
        must touch at least one interior cell.
    terminal_nets:
        For each terminal node (primary I/O pad), the index of the single
        net it attaches to.
    name:
        Optional circuit name used in reports.
    cell_names / net_names:
        Optional human-readable labels, purely informational.
    net_drivers:
        Optional per-net driver cell (the pin that sources the signal),
        ``None`` for nets with unknown or external drivers.  Plain
        min-cut partitioning ignores direction; the replication
        enhancement ([11]/[12]-style) requires it.
    """

    __slots__ = (
        "name",
        "_cell_sizes",
        "_nets",
        "_terminal_nets",
        "_cell_nets",
        "_net_terminal_counts",
        "_net_drivers",
        "_total_size",
        "_neighbors_cache",
        "_csr",
        "cell_names",
        "net_names",
    )

    def __init__(
        self,
        cell_sizes: Sequence[int],
        nets: Sequence[Sequence[int]],
        terminal_nets: Sequence[int] = (),
        name: str = "",
        cell_names: Optional[Sequence[str]] = None,
        net_names: Optional[Sequence[str]] = None,
        net_drivers: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        self.name = name
        self._cell_sizes: Tuple[int, ...] = tuple(int(s) for s in cell_sizes)
        num_cells = len(self._cell_sizes)

        for i, size in enumerate(self._cell_sizes):
            if size <= 0:
                raise ValueError(f"cell {i} has non-positive size {size}")

        normalized_nets: List[Tuple[int, ...]] = []
        for e, pins in enumerate(nets):
            pin_tuple = tuple(int(p) for p in pins)
            if not pin_tuple:
                raise ValueError(f"net {e} has no interior pins")
            if len(set(pin_tuple)) != len(pin_tuple):
                raise ValueError(f"net {e} has duplicate pins: {pin_tuple}")
            for p in pin_tuple:
                if not 0 <= p < num_cells:
                    raise ValueError(f"net {e} pin {p} out of range")
            normalized_nets.append(pin_tuple)
        self._nets: Tuple[Tuple[int, ...], ...] = tuple(normalized_nets)

        num_nets = len(self._nets)
        self._terminal_nets: Tuple[int, ...] = tuple(int(e) for e in terminal_nets)
        for t, e in enumerate(self._terminal_nets):
            if not 0 <= e < num_nets:
                raise ValueError(f"terminal {t} attached to invalid net {e}")

        cell_nets: List[List[int]] = [[] for _ in range(num_cells)]
        for e, pins in enumerate(self._nets):
            for p in pins:
                cell_nets[p].append(e)
        self._cell_nets: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lst) for lst in cell_nets
        )

        term_counts = [0] * num_nets
        for e in self._terminal_nets:
            term_counts[e] += 1
        self._net_terminal_counts: Tuple[int, ...] = tuple(term_counts)

        self._neighbors_cache: List[Optional[Tuple[int, ...]]] = (
            [None] * num_cells
        )
        # Frozen CSR incidence view (four flat array('i') buffers), built
        # once here and shared read-only by the partition core.
        self._csr = CsrView(self._nets, self._cell_nets)

        if net_drivers is None:
            self._net_drivers: Tuple[Optional[int], ...] = (None,) * num_nets
        else:
            if len(net_drivers) != num_nets:
                raise ValueError("net_drivers length mismatch")
            drivers: List[Optional[int]] = []
            for e, driver in enumerate(net_drivers):
                if driver is None:
                    drivers.append(None)
                    continue
                driver = int(driver)
                if driver not in self._nets[e]:
                    raise ValueError(
                        f"net {e}: driver {driver} is not one of its pins"
                    )
                drivers.append(driver)
            self._net_drivers = tuple(drivers)

        self._total_size = sum(self._cell_sizes)

        self.cell_names: Optional[Tuple[str, ...]] = (
            tuple(cell_names) if cell_names is not None else None
        )
        self.net_names: Optional[Tuple[str, ...]] = (
            tuple(net_names) if net_names is not None else None
        )
        if self.cell_names is not None and len(self.cell_names) != num_cells:
            raise ValueError("cell_names length mismatch")
        if self.net_names is not None and len(self.net_names) != num_nets:
            raise ValueError("net_names length mismatch")

    # ------------------------------------------------------------------
    # Basic counts and accessors
    # ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Number of interior nodes ``|X0|``."""
        return len(self._cell_sizes)

    @property
    def num_nets(self) -> int:
        """Number of nets ``|E0|``."""
        return len(self._nets)

    @property
    def num_terminals(self) -> int:
        """Number of terminal nodes (primary I/O pads) ``|Y0|``."""
        return len(self._terminal_nets)

    @property
    def total_size(self) -> int:
        """Circuit size ``S0 = sum S(x_i)`` in technology cells."""
        return self._total_size

    @property
    def cell_sizes(self) -> Tuple[int, ...]:
        """Per-cell sizes, indexed by cell."""
        return self._cell_sizes

    @property
    def nets(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-net interior pin tuples, indexed by net."""
        return self._nets

    @property
    def terminal_nets(self) -> Tuple[int, ...]:
        """For each terminal node, the net it is attached to."""
        return self._terminal_nets

    def cell_size(self, cell: int) -> int:
        """Size ``S(x)`` of one interior cell."""
        return self._cell_sizes[cell]

    def nets_of(self, cell: int) -> Tuple[int, ...]:
        """Nets incident to ``cell``."""
        return self._cell_nets[cell]

    def pins_of(self, net: int) -> Tuple[int, ...]:
        """Interior cells connected by ``net``."""
        return self._nets[net]

    def net_degree(self, net: int) -> int:
        """Number of interior pins on ``net``."""
        return len(self._nets[net])

    def net_terminal_count(self, net: int) -> int:
        """Number of terminal nodes (pads) attached to ``net``."""
        return self._net_terminal_counts[net]

    def is_external_net(self, net: int) -> bool:
        """True if the net reaches a primary I/O pad."""
        return self._net_terminal_counts[net] > 0

    @property
    def net_terminal_counts(self) -> Tuple[int, ...]:
        """Per-net count of attached terminal nodes."""
        return self._net_terminal_counts

    @property
    def csr(self) -> CsrView:
        """Frozen CSR incidence view (see :class:`~repro.hypergraph.csr.CsrView`)."""
        return self._csr

    def net_driver(self, net: int) -> Optional[int]:
        """Driver cell of ``net`` (None when unknown/external)."""
        return self._net_drivers[net]

    @property
    def net_drivers(self) -> Tuple[Optional[int], ...]:
        """Per-net driver cells (None when unknown)."""
        return self._net_drivers

    def has_drivers(self) -> bool:
        """True when at least one net carries driver information."""
        return any(d is not None for d in self._net_drivers)

    def driven_nets(self, cell: int) -> List[int]:
        """Nets whose recorded driver is ``cell``."""
        return [
            e for e in self._cell_nets[cell] if self._net_drivers[e] == cell
        ]

    def read_nets(self, cell: int) -> List[int]:
        """Nets incident to ``cell`` that it does not drive."""
        return [
            e for e in self._cell_nets[cell] if self._net_drivers[e] != cell
        ]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def neighbors(self, cell: int) -> Tuple[int, ...]:
        """Distinct cells sharing at least one net with ``cell``.

        The cell itself is excluded.  Order is deterministic (first-seen
        along the cell's net list).  Computed lazily once per cell and
        cached as an immutable tuple (the graph is immutable, and the
        cache entry is shared between callers).
        """
        cached = self._neighbors_cache[cell]
        if cached is not None:
            return cached
        seen = {cell}
        result: List[int] = []
        for e in self._cell_nets[cell]:
            for p in self._nets[e]:
                if p not in seen:
                    seen.add(p)
                    result.append(p)
        frozen = tuple(result)
        self._neighbors_cache[cell] = frozen
        return frozen

    def bfs_distances(self, start: int) -> List[int]:
        """Hop distances from ``start`` to every cell (-1 if unreachable).

        Two cells are at distance 1 when they share a net.  Used by the
        constructive initial-partition seed selection (section 3.2 of the
        paper): the second seed is the cell at maximal BFS distance from
        the first.
        """
        dist = [-1] * self.num_cells
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for e in self._cell_nets[u]:
                for v in self._nets[e]:
                    if dist[v] < 0:
                        dist[v] = du + 1
                        queue.append(v)
        return dist

    def farthest_cell(self, start: int) -> Tuple[int, int]:
        """Return ``(cell, distance)`` of a cell at maximal BFS distance.

        Unreachable cells (other connected components) are preferred over
        any reachable cell, mirroring "maximal distance" in the seed
        heuristic: a disconnected cell is infinitely far.  Ties break
        toward the lowest index for determinism.
        """
        dist = self.bfs_distances(start)
        best_cell = start
        best_dist = 0
        for cell, d in enumerate(dist):
            if d < 0:
                return cell, -1
            if d > best_dist:
                best_cell, best_dist = cell, d
        return best_cell, best_dist

    def connected_components(self) -> List[List[int]]:
        """Connected components of the cell connectivity graph.

        Returned as lists of cell indices, each sorted ascending, ordered
        by their smallest member.
        """
        seen = [False] * self.num_cells
        components: List[List[int]] = []
        for root in range(self.num_cells):
            if seen[root]:
                continue
            comp = [root]
            seen[root] = True
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for e in self._cell_nets[u]:
                    for v in self._nets[e]:
                        if not seen[v]:
                            seen[v] = True
                            comp.append(v)
                            queue.append(v)
            components.append(sorted(comp))
        return components

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def cell_label(self, cell: int) -> str:
        """Human-readable label for a cell (name if provided, else index)."""
        if self.cell_names is not None:
            return self.cell_names[cell]
        return f"x{cell}"

    def net_label(self, net: int) -> str:
        """Human-readable label for a net (name if provided, else index)."""
        if self.net_names is not None:
            return self.net_names[net]
        return f"e{net}"

    def __repr__(self) -> str:
        label = self.name or "hypergraph"
        return (
            f"Hypergraph({label!r}: {self.num_cells} cells, "
            f"{self.num_nets} nets, {self.num_terminals} terminals, "
            f"S0={self.total_size})"
        )

    def __eq__(self, other: object) -> bool:
        """Connectivity equality: sizes, nets and pads.

        Driver annotations and labels are deliberately excluded — two
        netlists that partition identically compare equal.
        """
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._cell_sizes == other._cell_sizes
            and self._nets == other._nets
            and self._terminal_nets == other._terminal_nets
        )

    def __hash__(self) -> int:
        return hash((self._cell_sizes, self._nets, self._terminal_nets))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_cells: int,
        edges: Iterable[Tuple[int, int]],
        cell_sizes: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> "Hypergraph":
        """Build a hypergraph where every net is a 2-pin edge.

        Convenient for tests and for importing ordinary graphs.
        """
        sizes = list(cell_sizes) if cell_sizes is not None else [1] * num_cells
        nets = [tuple(edge) for edge in edges]
        return cls(sizes, nets, (), name=name)

    def external_pin_map(self) -> Dict[int, int]:
        """Map ``net -> number of attached pads`` for external nets only."""
        return {
            e: c for e, c in enumerate(self._net_terminal_counts) if c > 0
        }
