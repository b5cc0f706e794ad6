"""Text serialization of hypergraphs.

Two formats are supported:

* **``.hgr`` (hMETIS-compatible, extended)** — the classic hypergraph
  exchange format: a header line, then one line of 1-based pin indices per
  net, then (in the weighted variant) one cell weight per line.  We extend
  it with comment-prefixed ``%!terminals`` records carrying the pad
  attachments, so a file written by :func:`write_hgr` round-trips pads;
  plain hMETIS readers simply skip the comments.

* **``.nets`` (named netlist)** — a small line-oriented named format used
  by the examples: ``cell <name> <size>``, ``net <name> <pin> ... [@pads]``.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import List, TextIO, Tuple, Union

from .builder import HypergraphBuilder
from .errors import NetlistFormatError
from .hypergraph import Hypergraph

__all__ = [
    "write_hgr",
    "read_hgr",
    "write_netlist",
    "read_netlist",
    "loads_hgr",
    "dumps_hgr",
    "load_netlist",
]

_PathOrIO = Union[str, Path, TextIO]


def _open_for(target: _PathOrIO, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="ascii"), True
    return target, False


# ----------------------------------------------------------------------
# hMETIS-compatible .hgr
# ----------------------------------------------------------------------

def write_hgr(hg: Hypergraph, target: _PathOrIO) -> None:
    """Write ``hg`` in extended hMETIS format.

    Header is ``<num_nets> <num_cells> 10`` (fmt 10 = weighted vertices).
    Pins are 1-based, one net per line.  Pad attachments go in
    ``%!terminals`` comment lines (net indices, 1-based, one entry per
    pad), and the circuit name in ``%!name``.
    """
    stream, owned = _open_for(target, "w")
    try:
        if hg.name:
            stream.write(f"%!name {hg.name}\n")
        if hg.num_terminals:
            nets_1based = " ".join(str(e + 1) for e in hg.terminal_nets)
            stream.write(f"%!terminals {nets_1based}\n")
        if hg.has_drivers():
            # One token per net: the driver cell 1-based, 0 = unknown.
            tokens = " ".join(
                "0" if d is None else str(d + 1) for d in hg.net_drivers
            )
            stream.write(f"%!drivers {tokens}\n")
        stream.write(f"{hg.num_nets} {hg.num_cells} 10\n")
        for pins in hg.nets:
            stream.write(" ".join(str(p + 1) for p in pins))
            stream.write("\n")
        for size in hg.cell_sizes:
            stream.write(f"{size}\n")
    finally:
        if owned:
            stream.close()


def read_hgr(source: _PathOrIO) -> Hypergraph:
    """Read a (possibly extended) hMETIS hypergraph file.

    Supports fmt codes 0 (unweighted), 1 (net weights — parsed and
    dropped, since this package does not weight nets), 10 (vertex
    weights) and 11 (both); any other fmt code, or a negative net or
    cell count, raises :class:`NetlistFormatError`.  ``%!terminals`` / ``%!name`` extension comments are honored;
    other ``%`` comments are skipped.
    """
    stream, owned = _open_for(source, "r")
    try:
        name = ""
        terminal_nets: List[int] = []
        net_drivers = None
        lines: List[str] = []
        for raw in stream:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("%"):
                if line.startswith("%!name"):
                    name = line[len("%!name"):].strip()
                elif line.startswith("%!terminals"):
                    terminal_nets = [
                        int(tok) - 1 for tok in line[len("%!terminals"):].split()
                    ]
                elif line.startswith("%!drivers"):
                    net_drivers = [
                        None if tok == "0" else int(tok) - 1
                        for tok in line[len("%!drivers"):].split()
                    ]
                continue
            lines.append(line)
        if not lines:
            raise NetlistFormatError("empty hgr file")
        header = lines[0].split()
        if len(header) < 2:
            raise NetlistFormatError(f"bad hgr header: {lines[0]!r}")
        num_nets = int(header[0])
        num_cells = int(header[1])
        fmt = int(header[2]) if len(header) > 2 else 0
        if fmt not in (0, 1, 10, 11):
            raise NetlistFormatError(f"unsupported hgr fmt code {fmt}")
        if num_nets < 0 or num_cells < 0:
            raise NetlistFormatError(f"bad hgr header: {lines[0]!r}")
        has_net_weights = fmt in (1, 11)
        has_cell_weights = fmt in (10, 11)

        expected = num_nets + (num_cells if has_cell_weights else 0)
        if len(lines) - 1 != expected:
            raise NetlistFormatError(
                f"hgr body has {len(lines) - 1} lines, expected {expected}"
            )
        nets: List[Tuple[int, ...]] = []
        for e in range(num_nets):
            tokens = lines[1 + e].split()
            if has_net_weights:
                tokens = tokens[1:]  # weight parsed and discarded
            nets.append(tuple(int(tok) - 1 for tok in tokens))
        if has_cell_weights:
            sizes = [int(lines[1 + num_nets + c]) for c in range(num_cells)]
        else:
            sizes = [1] * num_cells
        return Hypergraph(
            sizes, nets, terminal_nets, name=name, net_drivers=net_drivers
        )
    finally:
        if owned:
            stream.close()


def dumps_hgr(hg: Hypergraph) -> str:
    """Serialize to an hgr string (see :func:`write_hgr`)."""
    buf = _io.StringIO()
    write_hgr(hg, buf)
    return buf.getvalue()


def loads_hgr(text: str) -> Hypergraph:
    """Parse an hgr string (see :func:`read_hgr`)."""
    return read_hgr(_io.StringIO(text))


# ----------------------------------------------------------------------
# Named netlist format
# ----------------------------------------------------------------------

def write_netlist(hg: Hypergraph, target: _PathOrIO) -> None:
    """Write the named line-oriented netlist format.

    ``cell <name> <size>`` lines first, then ``net <name> <pins...>`` with
    a trailing ``@<pads>`` marker for external nets.
    """
    stream, owned = _open_for(target, "w")
    try:
        stream.write(f"# netlist {hg.name}\n")
        for c in range(hg.num_cells):
            stream.write(f"cell {hg.cell_label(c)} {hg.cell_size(c)}\n")
        for e in range(hg.num_nets):
            pins = " ".join(hg.cell_label(p) for p in hg.pins_of(e))
            pads = hg.net_terminal_count(e)
            suffix = f" @{pads}" if pads else ""
            stream.write(f"net {hg.net_label(e)} {pins}{suffix}\n")
    finally:
        if owned:
            stream.close()


def read_netlist(source: _PathOrIO, name: str = "") -> Hypergraph:
    """Read the named netlist format written by :func:`write_netlist`."""
    stream, owned = _open_for(source, "r")
    try:
        builder = HypergraphBuilder(name)
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                if line.startswith("# netlist") and not builder.name:
                    builder.name = line[len("# netlist"):].strip()
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "cell":
                if len(tokens) != 3:
                    raise NetlistFormatError(f"bad cell line: {line!r}")
                builder.add_cell(tokens[1], size=int(tokens[2]))
            elif kind == "net":
                if len(tokens) < 3:
                    raise NetlistFormatError(f"bad net line: {line!r}")
                pads = 0
                pins = tokens[2:]
                if pins and pins[-1].startswith("@"):
                    pads = int(pins[-1][1:])
                    pins = pins[:-1]
                builder.add_net(tokens[1], pins, terminals=pads)
            else:
                raise NetlistFormatError(f"unknown record {kind!r} in netlist")
        return builder.build()
    finally:
        if owned:
            stream.close()


def load_netlist(path: Union[str, Path]) -> Hypergraph:
    """Read a netlist file, choosing the format by extension.

    ``.nets`` is the named netlist, ``.blif`` structural BLIF, and
    anything else ``.hgr``.
    """
    file = Path(path)
    if not file.exists():
        raise FileNotFoundError(f"no such netlist file: {path}")
    if file.suffix == ".nets":
        return read_netlist(file)
    if file.suffix == ".blif":
        from .blif import read_blif

        return read_blif(file)
    return read_hgr(file)
