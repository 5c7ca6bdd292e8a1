"""Edge decompositions into an acyclic bounded-out-degree part plus a matching.

The central object is a pair (D, M): D a set of arcs orienting some edges, M a
matching on the rest.  ``verify`` checks the boundary-path-constrained notion
(out-degree caps a and matching caps b on the four path vertices, out-degree
at most 1 on other boundary vertices, 2 elsewhere, relative to the graph minus
the path's centre edge), and ``verify_21`` checks the whole-graph notion.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from .plane_graph import Edge, PlaneGraph, PlaneGraphError, extract_piece, und


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


def _partition_failure(dec: Decomposition, g: PlaneGraph, center: Edge | None = None
                       ) -> VerifyReport | None:
    """The failed report when the arcs and the matching do not cover the
    edges of g but center exactly once each; None when they do.

    The covers pass without g's edge set when there are as many of them as
    wanted edges, no two share an edge, the centre is not covered, and each
    covered pair is an edge of g in sorted order: they are then distinct
    wanted edges, as many as there are.  Otherwise the set of covered edges
    is compared with the wanted ones, its size telling whether one was
    covered twice; the list of them is built only to report a failure."""
    once = {(u, v) if u < v else (v, u) for u, v in dec.arcs}
    once |= dec.matching
    size = len(dec.arcs) + len(dec.matching)
    n, rot = g.n, g.rotation
    wanted = g.m - (center is not None and g.has_edge(*center))
    if (size == wanted and len(once) == size and center not in once
            and all(u < v and 0 < u <= n and v in rot[u - 1] for u, v in once)):
        return None
    want = g.edges - {center}
    if len(once) == size and once == want:
        return None
    got = dec.covered_edges()
    if len(once) != len(got):
        dup = sorted(e for e, c in Counter(got).items() if c > 1)
        return _fail("partition", f"edges covered twice: {dup}")
    return _fail("partition",
                 f"missing={sorted(want - once)} extra={sorted(once - want)}")


def _acyclic(arcs: AbstractSet[Edge], outdeg: Mapping[int, int]) -> bool:
    """Whether the arcs hold no directed cycle: sinks are peeled off (Kahn)
    until every arc is gone or none is left to peel.  outdeg maps each tail
    to its out-degree; it is not changed."""
    left = dict(outdeg)
    preds: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in arcs:
        preds[b].append(a)
    sinks = [b for b in preds if b not in left]
    unpeeled = len(arcs)
    for v in sinks:  # grows as vertices become sinks
        for a in preds.get(v, ()):
            unpeeled -= 1
            d = left[a] - 1
            left[a] = d
            if not d:
                sinks.append(a)
    return not unpeeled


# ---------------------------------------------------------------------------
# configuration path helpers
# ---------------------------------------------------------------------------

def _walk_direction(walk: tuple[int, ...], t: tuple[int, ...]) -> int:
    """+1 if t is four consecutive vertices of the closed walk (wrapping
    around), else -1 if t read backwards is, else 0.  One scan over the
    visits of t's first vertex, found by ``tuple.index``: t runs forwards
    from such a visit, or backwards into it."""
    if len(t) != 4:
        return 0
    k = len(walk)
    a, b, c, d = t
    found = 0
    i = -1
    for _ in range(walk.count(a)):
        i = walk.index(a, i + 1)
        if walk[(i + 1) % k] == b and walk[(i + 2) % k] == c and walk[(i + 3) % k] == d:
            return 1
        if walk[(i - 1) % k] == b and walk[(i - 2) % k] == c and walk[(i - 3) % k] == d:
            found = -1
    return found


def check_and_orient(g: PlaneGraph, path: Sequence[int]) -> tuple[str | None, int]:
    """(``check_config_path``, the path's direction) from one scan: the
    direction is ``path_orientation``'s, or 0 when the check fails."""
    t = tuple(path)
    if len(t) != 4 or len(set(t)) != 4:
        return f"path {t} is not four distinct vertices", 0
    d = _walk_direction(g.boundary_walk.vertices, t)
    if d:
        return None, d
    return f"path {t} is not consecutive on the boundary walk", 0


def check_config_path(g: PlaneGraph, path: Sequence[int]) -> str | None:
    """None if path is four consecutive distinct boundary-walk vertices.

    Either walk direction is accepted: a counterclockwise path is the same
    configuration seen in the mirror embedding, which is how
    ``config_algebra.Configuration`` stores it (clockwise, the graph
    reflected once).  Only the visits of the path's first vertex are
    inspected, not every window of the walk.
    """
    return check_and_orient(g, path)[0]


def path_orientation(g: PlaneGraph, path: Sequence[int]) -> int:
    """+1 if the path follows the outer trace direction, -1 if reversed
    (checked in that order)."""
    t = tuple(path)
    d = _walk_direction(g.boundary_walk.vertices, t)
    if d:
        return d
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
    containing the centre edge, chords read on H's own boundary.  When g is
    2-connected, H is g, with g's boundary and chords, and nothing is
    copied."""
    centers = {path[1], path[2]}
    if g.is_two_connected():
        return _chord_neighbours(g.boundary_chords, centers)
    piece = block_of_center(g, path)
    cm = piece.child_of
    near = _chord_neighbours(piece.graph.boundary_chords, {cm[p] for p in centers})
    return {piece.parent_of(v) for v in near}


def _chord_neighbours(ch: Iterable[Edge], centers: AbstractSet[int]) -> set[int]:
    """The other end of every chord in ch at a vertex of centers."""
    out: set[int] = set()
    for u, v in ch:
        if u in centers:
            out.add(v)
        if v in centers:
            out.add(u)
    return out


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
    bad = _partition_failure(dec, g, center)
    if bad is not None:
        return bad

    # (b) matching property; partner[v] is v's matched partner
    partner: dict[int, int] = {}
    for u, v in dec.matching:
        if u in partner or v in partner:
            return _fail("matching", f"vertex covered twice by M near {u}-{v}")
        partner[u] = v
        partner[v] = u

    # (c) acyclicity; the DFS runs only to name a cycle
    outdeg = Counter(a for a, _ in dec.arcs)
    if not _acyclic(dec.arcs, outdeg):
        return _fail("acyclic", f"directed cycle {dec.find_cycle()}")

    # (d) global out-degree cap
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
    bad = _partition_failure(dec, g)
    if bad is not None:
        return bad
    touched: set[int] = set()
    for u, v in dec.matching:
        if u in touched or v in touched:
            return _fail("matching", f"vertex covered twice by M near {u}-{v}")
        touched.update((u, v))
    outdeg = Counter(a for a, _ in dec.arcs)
    if not _acyclic(dec.arcs, outdeg):
        return _fail("acyclic", f"directed cycle {dec.find_cycle()}")
    for v in g.vertices():
        if outdeg[v] > 2:
            return _fail("outdeg", f"out-degree {outdeg[v]} at {v}")
    return VerifyReport(True)


# ---------------------------------------------------------------------------
# degeneracy order and the coloring demonstration
# ---------------------------------------------------------------------------

def degeneracy_order(dec: Decomposition, vertices: Iterable[int]) -> list[int]:
    """Order in which every vertex's out-neighbours appear earlier.

    This is a topological order of the reversed arc digraph; eliminating from
    the end, each vertex sees at most two earlier (= out-) neighbours.  Sinks
    are peeled in layers, each layer sorted: first the vertices without an
    out-arc, then those whose out-neighbours all lie in earlier layers.
    """
    left: dict[int, int] = {v: 0 for v in vertices}  # out-arcs not yet peeled
    preds: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in dec.arcs:
        left[a] = left.get(a, 0) + 1
        left.setdefault(b, 0)
        preds[b].append(a)
    order: list[int] = []
    layer = sorted(v for v, d in left.items() if not d)
    while layer:
        order.extend(layer)
        nxt = []
        for v in layer:
            for a in preds.get(v, ()):
                left[a] -= 1
                if not left[a]:
                    nxt.append(a)
        layer = sorted(nxt)
    if len(order) != len(left):
        raise ValueError("arc digraph is cyclic: "
                         f"{len(left) - len(order)} vertices never become sinks")
    return order


def defective_coloring(g: PlaneGraph, dec: Decomposition) -> dict[int, int]:
    """3-coloring with defect at most 1, greedy along the degeneracy order.

    Proper on the arc subgraph; only matched partners may share a colour.
    """
    rep = verify_21(g, dec)
    if not rep:
        raise ValueError(f"not a valid decomposition: {rep.clause}: {rep.detail}")
    out: dict[int, list[int]] = {v: [] for v in g.vertices()}
    for a, b in dec.arcs:
        out[a].append(b)
    colors: dict[int, int] = {}
    for v in degeneracy_order(dec, g.vertices()):
        forbidden = {colors[w] for w in out[v]}
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
