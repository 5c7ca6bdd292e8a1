"""Graph and decomposition serialization.

Two graph formats are supported: the binary planar_code stream used by plane
graph generators (header ">>planar_code<<", then per graph a vertex count
byte followed by zero-terminated rotation lists; above 255 vertices a 0 byte
and the same entries as 16-bit words, as plantri defines it), and a
line-oriented text format ("i: j k l" rotation lines plus an "outer: u v"
line).  Decompositions travel as strict JSON documents.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .decomposition import (ArcInOrientation, ConstraintSpec, Decomposition,
                            EdgeInMatching, MatchedPartnerOnBoundary,
                            SideCondition)
from .oracle import canonical_form
from .plane_graph import PlaneGraph

PLANAR_CODE_HEADER = b">>planar_code<<"
PLANAR_CODE_LE_HEADER = b">>planar_code le<<"
PLANAR_CODE_BE_HEADER = b">>planar_code be<<"


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# planar_code
# ---------------------------------------------------------------------------

def _planar_code_order(data: bytes) -> tuple[int, str]:
    """Length of the header and the byte order it names for 16-bit words
    (the machine's own when it names none, as plantri writes it)."""
    for header, order in ((PLANAR_CODE_HEADER, sys.byteorder),
                          (PLANAR_CODE_LE_HEADER, "little"),
                          (PLANAR_CODE_BE_HEADER, "big")):
        if data.startswith(header):
            return len(header), order
    raise FormatError("missing >>planar_code<< header")


def _parse_record(data: bytes, pos: int, width: int, order: str
                  ) -> tuple[list[tuple[int, ...]], int]:
    """The rotation of the record whose vertex count starts at pos, n and
    every entry ``width`` bytes wide: 1 in the single-byte form, 2 in the
    large form (whose leading 0 byte sits before pos), in the given byte
    order.  Returns the rotation and the position after the record."""
    view = memoryview(data)[pos:]
    if width == 1:
        entries = iter(view)
    else:
        fmt = "<H" if order == "little" else ">H"
        entries = (w for (w,) in struct.iter_unpack(fmt, view[:len(view) // 2 * 2]))
    n = next(entries, None)
    if n is None:
        raise FormatError("truncated record at vertex 1")
    if n == 0:
        raise FormatError("graph with zero vertices")
    rotation: list[tuple[int, ...]] = []
    row: list[int] = []
    for read, b in enumerate(entries, start=2):
        if b == 0:
            rotation.append(tuple(row))
            if len(rotation) == n:
                return rotation, pos + read * width
            row = []
        elif b > n:
            raise FormatError(f"neighbour index {b} out of range 1..{n}")
        else:
            row.append(b)
    raise FormatError(f"truncated record at vertex {len(rotation) + 1}")


def parse_planar_code(data: bytes, outer: tuple[int, int] | None = None
                      ) -> Iterator[PlaneGraph]:
    """Decode a planar_code byte stream.

    A record is read in the single-byte form (n <= 255) unless it starts
    with a 0 byte, which introduces the large form: n and every entry as
    16-bit words in the byte order the header names.  The outer face
    defaults to the face traced from (1, first neighbour of 1) unless an
    explicit directed edge is given.
    """
    pos, order = _planar_code_order(data)
    while pos < len(data):
        wide = data[pos] == 0  # the large form's leading 0 byte
        rotation, pos = _parse_record(data, pos + wide, 2 if wide else 1, order)
        if outer is None:
            oe = (1, rotation[0][0]) if rotation[0] else (1, 1)
        else:
            oe = outer
        yield PlaneGraph(rotation, oe)


def emit_planar_code(graphs: Sequence[PlaneGraph]) -> bytes:
    """planar_code for the graphs: the single-byte form for n <= 255 and the
    large form (little-endian, named in the header) above, up to n = 65535."""
    wide = any(g.n > 255 for g in graphs)
    out = bytearray(PLANAR_CODE_LE_HEADER if wide else PLANAR_CODE_HEADER)
    for g in graphs:
        if g.n > 0xFFFF:
            raise FormatError("planar_code caps n at 65535")
        entries = [g.n]
        for v in g.vertices():
            entries.extend(g.neighbors(v))
            entries.append(0)
        if g.n <= 255:
            out.extend(entries)
        else:
            out.append(0)
            out += struct.pack(f"<{len(entries)}H", *entries)
    return bytes(out)


# ---------------------------------------------------------------------------
# rotation text
# ---------------------------------------------------------------------------

def parse_rotation_text(text: str) -> PlaneGraph:
    """Parse "i: j k l" rotation lines plus one "outer: u v" line."""
    rows: dict[int, tuple[int, ...]] = {}
    outer: tuple[int, int] | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        parts = rest.split()
        if head == "outer":
            if len(parts) != 2:
                raise FormatError(f"bad outer line: {raw!r}")
            outer = (int(parts[0]), int(parts[1]))
            continue
        v = int(head)
        if v in rows:
            raise FormatError(f"duplicate vertex line for {v}")
        rows[v] = tuple(int(p) for p in parts)
    if outer is None:
        raise FormatError("missing outer: line")
    if not rows or set(rows) != set(range(1, len(rows) + 1)):
        raise FormatError("vertex lines must cover 1..n")
    g = PlaneGraph([rows[v] for v in range(1, len(rows) + 1)], outer)
    for v in g.vertices():
        for u in g.neighbors(v):
            if v not in g.neighbors(u):
                raise FormatError(f"asymmetric adjacency {v}-{u}")
    return g


def emit_rotation_text(g: PlaneGraph) -> str:
    lines = [f"{v}: " + " ".join(map(str, g.neighbors(v))) for v in g.vertices()]
    lines.append(f"outer: {g.outer[0]} {g.outer[1]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# decomposition documents
# ---------------------------------------------------------------------------

_DOC_FIELDS = {"graph", "path", "spec", "arcs", "matching", "trace"}
_SPEC_FIELDS = {"a", "b", "relaxed", "side_conditions"}


@dataclass
class DecompositionDocument:
    graph_hash: str
    arcs: list[tuple[int, int]]
    matching: list[tuple[int, int]]
    path: tuple[int, int, int, int] | None = None
    spec: ConstraintSpec | None = None
    trace: list[str] = field(default_factory=list)

    @staticmethod
    def for_graph(g: PlaneGraph, dec: Decomposition,
                  path: Sequence[int] | None = None,
                  spec: ConstraintSpec | None = None,
                  trace: Sequence[str] = ()) -> "DecompositionDocument":
        return DecompositionDocument(
            graph_hash=canonical_form(g).hex(),
            arcs=sorted(dec.arcs),
            matching=sorted(dec.matching),
            path=tuple(path) if path is not None else None,
            spec=spec,
            trace=list(trace))

    def decomposition(self) -> Decomposition:
        return Decomposition.of(self.arcs, self.matching)

    def to_json(self) -> str:
        doc: dict = {
            "graph": self.graph_hash,
            "arcs": [list(a) for a in self.arcs],
            "matching": [list(m) for m in self.matching],
        }
        if self.path is not None:
            doc["path"] = list(self.path)
        if self.spec is not None:
            doc["spec"] = _spec_to_json(self.spec)
        if self.trace:
            doc["trace"] = self.trace
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "DecompositionDocument":
        doc = json.loads(text)
        unknown = set(doc) - _DOC_FIELDS
        if unknown:
            raise FormatError(f"unknown document fields: {sorted(unknown)}")
        for req in ("graph", "arcs", "matching"):
            if req not in doc:
                raise FormatError(f"missing document field {req!r}")
        spec = _spec_from_json(doc["spec"]) if "spec" in doc else None
        return DecompositionDocument(
            graph_hash=doc["graph"],
            arcs=[tuple(a) for a in doc["arcs"]],
            matching=[tuple(m) for m in doc["matching"]],
            path=tuple(doc["path"]) if "path" in doc else None,
            spec=spec,
            trace=list(doc.get("trace", [])))


def _spec_to_json(spec: ConstraintSpec) -> dict:
    conds = []
    for c in spec.side_conditions:
        if isinstance(c, EdgeInMatching):
            conds.append({"kind": "edge_in_matching", "u": c.u, "v": c.v})
        elif isinstance(c, ArcInOrientation):
            conds.append({"kind": "arc_in_orientation", "u": c.u, "v": c.v})
        else:
            conds.append({"kind": "matched_partner_on_boundary", "v": c.v})
    return {"a": "".join(map(str, spec.a)), "b": "".join(map(str, spec.b)),
            "relaxed": spec.relaxed, "side_conditions": conds}


def _spec_from_json(doc: dict) -> ConstraintSpec:
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise FormatError(f"unknown spec fields: {sorted(unknown)}")
    conds: list[SideCondition] = []
    for c in doc.get("side_conditions", []):
        kind = c.get("kind")
        if kind == "edge_in_matching":
            conds.append(EdgeInMatching(c["u"], c["v"]))
        elif kind == "arc_in_orientation":
            conds.append(ArcInOrientation(c["u"], c["v"]))
        elif kind == "matched_partner_on_boundary":
            conds.append(MatchedPartnerOnBoundary(c["v"]))
        else:
            raise FormatError(f"unknown side condition kind {kind!r}")
    return ConstraintSpec.parse(doc["a"] + "," + doc["b"],
                                relaxed=bool(doc.get("relaxed", False)),
                                side_conditions=conds)
