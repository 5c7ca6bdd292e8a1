"""Edge decompositions into an acyclic bounded-out-degree part plus a matching.

The central object is a pair (D, M): D a set of arcs orienting some edges, M a
matching on the rest.  ``verify`` checks the boundary-path-constrained notion
(out-degree caps a and matching caps b on the four path vertices, out-degree
at most 1 on other boundary vertices, 2 elsewhere, relative to the graph minus
the path's centre edge), and ``verify_21`` checks the whole-graph notion.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .plane_graph import Edge, PlaneGraph, PlaneGraphError, chords, extract_piece, und


# ---------------------------------------------------------------------------
# side conditions and constraint specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeInMatching:
    u: int
    v: int

    def __str__(self) -> str:
        return f"{self.u}{self.v} in M"


@dataclass(frozen=True)
class ArcInOrientation:
    u: int
    v: int

    def __str__(self) -> str:
        return f"({self.u},{self.v}) in D"


@dataclass(frozen=True)
class MatchedPartnerOnBoundary:
    v: int

    def __str__(self) -> str:
        return f"N_M({self.v}) on boundary"


SideCondition = EdgeInMatching | ArcInOrientation | MatchedPartnerOnBoundary


@dataclass(frozen=True)
class ConstraintSpec:
    """Caps (a, b) for the four path vertices, relaxed flag, side conditions."""

    a: tuple[int, int, int, int]
    b: tuple[int, int, int, int]
    relaxed: bool = False
    side_conditions: tuple[SideCondition, ...] = ()

    def __post_init__(self) -> None:
        if len(self.a) != 4 or any(x not in (0, 1, 2) for x in self.a):
            raise ValueError(f"bad out-degree caps {self.a}")
        if len(self.b) != 4 or any(x not in (0, 1) for x in self.b):
            raise ValueError(f"bad matching caps {self.b}")

    @staticmethod
    def parse(text: str, relaxed: bool = False,
              side_conditions: Iterable[SideCondition] = ()) -> "ConstraintSpec":
        """Build from the compact form "1001,1001"."""
        a_str, b_str = text.replace(" ", "").split(",")
        return ConstraintSpec(tuple(int(c) for c in a_str),  # type: ignore[arg-type]
                              tuple(int(c) for c in b_str),  # type: ignore[arg-type]
                              relaxed=relaxed,
                              side_conditions=tuple(side_conditions))

    def compact(self) -> str:
        return "".join(map(str, self.a)) + "," + "".join(map(str, self.b))

    def with_conditions(self, *extra: SideCondition) -> "ConstraintSpec":
        return ConstraintSpec(self.a, self.b, self.relaxed,
                              self.side_conditions + tuple(extra))


@dataclass(frozen=True)
class Decomposition:
    """An arc set plus a matching (vertex pairs, stored sorted)."""

    arcs: frozenset[Edge]
    matching: frozenset[Edge]

    @staticmethod
    def of(arcs: Iterable[Edge] = (), matching: Iterable[Edge] = ()) -> "Decomposition":
        return Decomposition(frozenset((int(u), int(v)) for u, v in arcs),
                             frozenset(und(u, v) for u, v in matching))

    def covered_edges(self) -> list[Edge]:
        return [und(u, v) for u, v in self.arcs] + list(self.matching)

    def out_degree(self, v: int) -> int:
        return sum(1 for a, _ in self.arcs if a == v)

    def out_neighbors(self, v: int) -> list[int]:
        return [b for a, b in self.arcs if a == v]

    def matched_partner(self, v: int) -> int | None:
        for a, b in self.matching:
            if a == v:
                return b
            if b == v:
                return a
        return None

    def relabel(self, mapping: dict[int, int]) -> "Decomposition":
        return Decomposition.of(((mapping[a], mapping[b]) for a, b in self.arcs),
                                ((mapping[a], mapping[b]) for a, b in self.matching))

    def union(self, *others: "Decomposition") -> "Decomposition":
        arcs = set(self.arcs)
        matching = set(self.matching)
        for o in others:
            arcs |= o.arcs
            matching |= o.matching
        return Decomposition(frozenset(arcs), frozenset(matching))

    def adjust(self, add_arcs: Iterable[Edge] = (), drop_arcs: Iterable[Edge] = (),
               add_matching: Iterable[Edge] = (), drop_matching: Iterable[Edge] = ()
               ) -> "Decomposition":
        arcs = (set(self.arcs) - set(tuple(a) for a in drop_arcs)) | set(
            tuple(a) for a in add_arcs)
        matching = (set(self.matching) - {und(*e) for e in drop_matching}) | {
            und(*e) for e in add_matching}
        return Decomposition(frozenset(arcs), frozenset(matching))

    def find_cycle(self) -> list[int] | None:
        """A directed cycle in the arc digraph, or None."""
        adj: dict[int, list[int]] = {}
        for a, b in self.arcs:
            adj.setdefault(a, []).append(b)
        color: dict[int, int] = {}
        path: list[int] = []
        for s in list(adj):
            if color.get(s, 0):
                continue
            stack: list[tuple[int, iter]] = [(s, iter(adj.get(s, ())))]
            color[s] = 1
            path.append(s)
            while stack:
                v, it = stack[-1]
                for w in it:
                    c = color.get(w, 0)
                    if c == 1:
                        i = path.index(w)
                        return path[i:] + [w]
                    if c == 0:
                        color[w] = 1
                        path.append(w)
                        stack.append((w, iter(adj.get(w, ()))))
                        break
                else:
                    color[v] = 2
                    path.pop()
                    stack.pop()
        return None


@dataclass
class VerifyReport:
    ok: bool
    clause: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _fail(clause: str, detail: str) -> VerifyReport:
    return VerifyReport(False, clause, detail)


# ---------------------------------------------------------------------------
# configuration path helpers
# ---------------------------------------------------------------------------

def _is_window(walk: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """Whether t is four consecutive vertices of the closed walk (wrapping
    around), found by ``tuple.index`` over the visits of t's first vertex."""
    if len(t) != 4:
        return False
    k = len(walk)
    i = -1
    for _ in range(walk.count(t[0])):
        i = walk.index(t[0], i + 1)
        if (walk[(i + 1) % k] == t[1] and walk[(i + 2) % k] == t[2]
                and walk[(i + 3) % k] == t[3]):
            return True
    return False


def check_config_path(g: PlaneGraph, path: Sequence[int]) -> str | None:
    """None if path is four consecutive distinct boundary-walk vertices.

    Either walk direction is accepted (a counterclockwise path is the same
    configuration seen in the mirror embedding).  Only the visits of the
    path's end vertices are inspected, not every window of the walk.
    """
    if len(path) != 4 or len(set(path)) != 4:
        return f"path {tuple(path)} is not four distinct vertices"
    walk = g.boundary_walk.vertices
    t = tuple(path)
    if _is_window(walk, t) or _is_window(walk, t[::-1]):
        return None
    return f"path {t} is not consecutive on the boundary walk"


def path_orientation(g: PlaneGraph, path: Sequence[int]) -> int:
    """+1 if the path follows the outer trace direction, -1 if reversed
    (checked in that order)."""
    walk = g.boundary_walk.vertices
    t = tuple(path)
    if _is_window(walk, t):
        return 1
    if _is_window(walk, t[::-1]):
        return -1
    raise PlaneGraphError(f"path {t} not on boundary walk")


def block_of_center(g: PlaneGraph, path: Sequence[int]):
    """The block containing the centre edge, as a plane subgraph Piece."""
    v2, v3 = path[1], path[2]
    verts = g.block_decomposition.block_of_edge(v2, v3)
    if len(verts) == 2:
        return extract_piece(g, verts, outer_parent_edge=(v2, v3))
    # the block inherits the embedding; its outer face is the one adjacent to
    # the parent's outer region -- any retained boundary edge works as anchor
    sub = extract_piece(g, verts, outer_parent_edge=_block_outer_edge(g, verts))
    return sub


def _block_outer_edge(g: PlaneGraph, verts: frozenset[int]) -> Edge:
    for u, v in g.faces[g.outer_face_id]:
        if u in verts and v in verts:
            return (u, v)
    raise PlaneGraphError("block does not touch the outer face")


def relaxed_exempt_set(g: PlaneGraph, path: Sequence[int]) -> set[int]:
    """T_H({v2, v3}): chord neighbours of the centre vertices in the block H
    containing the centre edge, chords read on H's own boundary."""
    piece = block_of_center(g, path)
    h = piece.graph
    cm = piece.child_of
    ch = chords(h)
    exempt: set[int] = set()
    centers = {cm[path[1]], cm[path[2]]}
    for u, v in ch:
        if u in centers:
            exempt.add(piece.parent_of(v))
        if v in centers:
            exempt.add(piece.parent_of(u))
    return exempt


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify(g: PlaneGraph, path: Sequence[int], spec: ConstraintSpec,
           dec: Decomposition) -> VerifyReport:
    """Check a constrained decomposition of g minus the path's centre edge."""
    err = check_config_path(g, path)
    if err:
        raise PlaneGraphError(err)
    v1, v2, v3, v4 = path
    center = und(v2, v3)

    # (a) arcs + matching cover exactly E(g) - centre, once each
    want = set(g.edges) - {center}
    got = dec.covered_edges()
    if len(got) != len(set(got)):
        dup = sorted(e for e in set(got) if got.count(e) > 1)
        return _fail("partition", f"edges covered twice: {dup}")
    if set(got) != want:
        missing = sorted(want - set(got))
        extra = sorted(set(got) - want)
        return _fail("partition", f"missing={missing} extra={extra}")

    # (b) matching property; partner[v] is v's matched partner
    partner: dict[int, int] = {}
    for u, v in dec.matching:
        if u in partner or v in partner:
            return _fail("matching", f"vertex covered twice by M near {u}-{v}")
        partner[u] = v
        partner[v] = u

    # (c) acyclicity
    cyc = dec.find_cycle()
    if cyc:
        return _fail("acyclic", f"directed cycle {cyc}")

    # (d) global out-degree cap
    outdeg: dict[int, int] = {}
    for a, _ in dec.arcs:
        outdeg[a] = outdeg.get(a, 0) + 1
    for v, d in outdeg.items():
        if d > 2:
            return _fail("outdeg", f"out-degree {d} at {v}")

    # (e) path caps
    for i, v in enumerate(path):
        d = outdeg.get(v, 0)
        if d > spec.a[i]:
            return _fail("path-outdeg", f"d+({v}) = {d} > a{i + 1} = {spec.a[i]}")
        dm = 1 if v in partner else 0
        if dm > spec.b[i]:
            return _fail("path-matching", f"v{i + 1} = {v} is matched but b{i + 1} = 0")

    # (f) boundary cap, with the relaxed exemption if requested
    exempt = relaxed_exempt_set(g, path) if spec.relaxed else set()
    for v in g.boundary_vertices - set(path) - exempt:
        if outdeg.get(v, 0) > 1:
            return _fail("boundary-outdeg", f"boundary vertex {v} has out-degree 2")

    # (g) side conditions
    for cond in spec.side_conditions:
        if isinstance(cond, EdgeInMatching):
            if und(cond.u, cond.v) not in dec.matching:
                return _fail("side", f"required {cond}")
        elif isinstance(cond, ArcInOrientation):
            if (cond.u, cond.v) not in dec.arcs:
                return _fail("side", f"required {cond}")
        else:
            p = partner.get(cond.v)
            if p is not None and p not in g.boundary_vertices:
                return _fail("side", f"{cond}: partner {p} is interior")
    return VerifyReport(True)


def verify_21(g: PlaneGraph, dec: Decomposition) -> VerifyReport:
    """Whole-graph check: partition of E(g), matching, acyclic, out-degree <= 2."""
    want = set(g.edges)
    got = dec.covered_edges()
    if len(got) != len(set(got)):
        dup = sorted(e for e in set(got) if got.count(e) > 1)
        return _fail("partition", f"edges covered twice: {dup}")
    if set(got) != want:
        return _fail("partition",
                     f"missing={sorted(want - set(got))} extra={sorted(set(got) - want)}")
    touched: set[int] = set()
    for u, v in dec.matching:
        if u in touched or v in touched:
            return _fail("matching", f"vertex covered twice by M near {u}-{v}")
        touched.update((u, v))
    cyc = dec.find_cycle()
    if cyc:
        return _fail("acyclic", f"directed cycle {cyc}")
    for v in g.vertices():
        if dec.out_degree(v) > 2:
            return _fail("outdeg", f"out-degree {dec.out_degree(v)} at {v}")
    return VerifyReport(True)


# ---------------------------------------------------------------------------
# degeneracy order and the coloring demonstration
# ---------------------------------------------------------------------------

def degeneracy_order(dec: Decomposition, vertices: Iterable[int]) -> list[int]:
    """Order in which every vertex's out-neighbours appear earlier.

    This is a topological order of the reversed arc digraph; eliminating from
    the end, each vertex sees at most two earlier (= out-) neighbours.
    """
    succ: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in dec.arcs:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    # TopologicalSorter(preds) emits nodes whose predecessors are done; feed
    # arcs as predecessors so out-neighbours come first.
    ts = graphlib.TopologicalSorter({v: sorted(ws) for v, ws in succ.items()})
    try:
        order = []
        ts.prepare()
        while ts.is_active():
            batch = sorted(ts.get_ready())
            order.extend(batch)
            ts.done(*batch)
        return order
    except graphlib.CycleError as exc:  # pragma: no cover - guarded by verify
        raise ValueError(f"arc digraph is cyclic: {exc}") from exc


def defective_coloring(g: PlaneGraph, dec: Decomposition) -> dict[int, int]:
    """3-coloring with defect at most 1, greedy along the degeneracy order.

    Proper on the arc subgraph; only matched partners may share a colour.
    """
    rep = verify_21(g, dec)
    if not rep:
        raise ValueError(f"not a valid decomposition: {rep.clause}: {rep.detail}")
    colors: dict[int, int] = {}
    for v in degeneracy_order(dec, g.vertices()):
        forbidden = {colors[w] for w in dec.out_neighbors(v)}
        colors[v] = min(c for c in (1, 2, 3) if c not in forbidden)
    return colors


def check_coloring(g: PlaneGraph, dec: Decomposition, colors: dict[int, int]) -> VerifyReport:
    """Assert the coloring contract: <= 3 colours, defect <= 1, proper off M."""
    if set(colors) != set(g.vertices()):
        return _fail("coloring", "not all vertices coloured")
    if not set(colors.values()) <= {1, 2, 3}:
        return _fail("coloring", f"colours used: {sorted(set(colors.values()))}")
    for u, v in g.edges:
        if colors[u] == colors[v] and und(u, v) not in dec.matching:
            return _fail("coloring", f"non-matching edge {u}-{v} monochromatic")
    for v in g.vertices():
        defect = sum(1 for u in g.neighbors(v) if colors[u] == colors[v])
        if defect > 1:
            return _fail("coloring", f"defect {defect} at {v}")
    return VerifyReport(True)
