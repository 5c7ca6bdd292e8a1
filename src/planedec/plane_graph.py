"""Plane graphs as rotation systems, and the structural queries built on them.

A plane graph is stored combinatorially: for every vertex the cyclic
(clockwise) order of its neighbours, plus one directed edge whose face trace
is the outer boundary walk.  Faces are traced with the rule

    after entering v along (u, v), leave along (v, w) where w is the cyclic
    successor of u in the rotation at v.

With clockwise rotations this walks every face so that the face lies to the
right of each directed edge; the designated outer trace therefore keeps the
graph interior on the left, and "next boundary vertex" (v+) means the next
vertex of that trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .decomposition import Decomposition


class PlaneGraphError(ValueError):
    """Raised for structurally invalid plane-graph inputs or queries."""


Edge = tuple[int, int]


def und(u: int, v: int) -> Edge:
    """Undirected edge as a sorted pair."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FaceWalk:
    """A closed face walk, given by its vertices in visiting order."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The directed edges in visiting order; none for a lone vertex."""
        vs = self.vertices
        if len(vs) == 1:
            return ()
        return tuple(zip(vs, vs[1:] + vs[:1]))

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(und(u, v) for u, v in self.edges)

    def is_simple_cycle(self) -> bool:
        return len(self) >= 3 and len(set(self.vertices)) == len(self.vertices)

    @cached_property
    def position(self) -> dict[int, int]:
        """Vertex -> index into ``vertices``; a repeated vertex keeps its
        last position."""
        return {v: i for i, v in enumerate(self.vertices)}

    def stretch(self, a: int, b: int) -> tuple[int, ...]:
        """The walk from a forward (in visiting order, wrapping around) to
        the first b, both ends included; (a,) when a == b.

        a is taken at its ``position``, so on a walk that repeats a the
        stretch starts at a's last visit.
        """
        i = self.position[a]
        ahead = self.vertices[i:] + self.vertices[:i]
        return ahead[:ahead.index(b) + 1]


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components (bridge edges are their own blocks)."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]

    def block_of_edge(self, u: int, v: int) -> frozenset[int]:
        for b in self.blocks:
            if u in b and v in b:
                return b
        raise PlaneGraphError(f"edge {u}-{v} not in any block")

    def block_cut_tree(self) -> dict[object, set[object]]:
        """Adjacency between block indices and cut vertices."""
        adj: dict[object, set[object]] = {}
        for i, b in enumerate(self.blocks):
            for c in b & self.cut_vertices:
                adj.setdefault(("block", i), set()).add(("cut", c))
                adj.setdefault(("cut", c), set()).add(("block", i))
        return adj


@dataclass
class ValidationReport:
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, code: str, message: str) -> None:
        self.failures.append((code, message))

    def codes(self) -> set[str]:
        return {c for c, _ in self.failures}


class PlaneGraph:
    """Immutable plane graph: per-vertex clockwise rotations + outer edge.

    Vertices are the dense integers 1..n.  Instances are treated as immutable
    after construction; all derived data is cached lazily.
    """

    def __init__(self, rotation: Sequence[Sequence[int]] | dict[int, Sequence[int]],
                 outer: Edge):
        if isinstance(rotation, dict):
            n = len(rotation)
            if set(rotation) != set(range(1, n + 1)):
                raise PlaneGraphError("vertex ids must be dense integers 1..n")
            rot = tuple(tuple(rotation[v]) for v in range(1, n + 1))
        else:
            rot = tuple(tuple(r) for r in rotation)
        self.rotation: tuple[tuple[int, ...], ...] = rot
        self.outer: Edge = (int(outer[0]), int(outer[1]))
        n = len(rot)
        for v, nbrs in enumerate(rot, start=1):
            for u in nbrs:
                if not 1 <= u <= n:
                    raise PlaneGraphError(f"neighbour {u} of {v} out of range 1..{n}")
        if any(rot):
            u, v = self.outer
            if not (1 <= u <= n and v in rot[u - 1]):
                raise PlaneGraphError(f"outer edge {self.outer} is not an edge")
        elif n != 1:
            raise PlaneGraphError("edgeless plane graphs must be single vertices")

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotation)

    @cached_property
    def m(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotation[v - 1]

    def degree(self, v: int) -> int:
        return len(self.rotation[v - 1])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotation[u - 1]

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(und(v, u) for v in self.vertices() for u in self.neighbors(v))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PlaneGraph)
                and self.rotation == other.rotation and self.outer == other.outer)

    def __hash__(self) -> int:
        return hash((self.rotation, self.outer))

    def __repr__(self) -> str:
        return f"PlaneGraph(n={self.n}, m={self.m}, outer={self.outer})"

    # -- faces -------------------------------------------------------------

    def face_next(self, u: int, v: int) -> Edge:
        r = self.rotation[v - 1]
        i = r.index(u) + 1
        return (v, r[i] if i < len(r) else r[0])

    def trace_face(self, u: int, v: int) -> tuple[Edge, ...]:
        """Directed edges of the face containing directed edge (u, v)."""
        start = (u, v)
        out = [start]
        cur = self.face_next(u, v)
        while cur != start:
            out.append(cur)
            cur = self.face_next(*cur)
        return tuple(out)

    @cached_property
    def faces(self) -> tuple[tuple[Edge, ...], ...]:
        """All faces, each as its directed-edge trace (outer face included)."""
        if self.m == 0:
            return ((),)
        seen: set[Edge] = set()
        out = []
        for v in self.vertices():
            for u in self.neighbors(v):
                if (v, u) not in seen:
                    f = self.trace_face(v, u)
                    seen.update(f)
                    out.append(f)
        return tuple(out)

    @cached_property
    def outer_face_id(self) -> int:
        """Index into ``faces`` of the trace holding the outer edge."""
        if self.m == 0:
            return 0
        return next(i for i, f in enumerate(self.faces) if self.outer in f)

    # -- boundary ----------------------------------------------------------

    @cached_property
    def boundary_walk(self) -> FaceWalk:
        """The outer face's trace, starting at the designated outer edge."""
        if self.m == 0:
            return FaceWalk(vertices=(1,))
        return FaceWalk(vertices=tuple(u for u, _ in self.trace_face(*self.outer)))

    @cached_property
    def boundary_vertices(self) -> frozenset[int]:
        return self.boundary_walk.vertex_set

    @cached_property
    def boundary_edges(self) -> frozenset[Edge]:
        return self.boundary_walk.edge_set

    def boundary_is_cycle(self) -> bool:
        return self.boundary_walk.is_simple_cycle()

    def _boundary_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        if not self.boundary_is_cycle():
            raise PlaneGraphError("boundary is not a simple cycle")
        vs = self.boundary_walk.vertices
        k = len(vs)
        succ = {vs[i]: vs[(i + 1) % k] for i in range(k)}
        pred = {vs[i]: vs[(i - 1) % k] for i in range(k)}
        return succ, pred

    def boundary_succ(self, v: int) -> int:
        succ, _ = self._boundary_maps()
        if v not in succ:
            raise PlaneGraphError(f"{v} is not a boundary vertex")
        return succ[v]

    def boundary_pred(self, v: int) -> int:
        _, pred = self._boundary_maps()
        if v not in pred:
            raise PlaneGraphError(f"{v} is not a boundary vertex")
        return pred[v]

    # -- connectivity ------------------------------------------------------

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        seen: set[int] = set()
        comps = []
        for s in self.vertices():
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                v = stack.pop()
                for u in self.neighbors(v):
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components) == 1

    @cached_property
    def block_decomposition(self) -> BlockDecomposition:
        """Biconnected components via iterative DFS with an edge stack."""
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        blocks: list[frozenset[int]] = []
        estack: list[Edge] = []
        timer = 0
        for root in self.vertices():
            if root in disc:
                continue
            if not self.neighbors(root):
                blocks.append(frozenset({root}))
                continue
            timer += 1
            disc[root] = low[root] = timer
            dfs: list[tuple[int, int | None, Iterator[int]]] = [
                (root, None, iter(self.neighbors(root)))]
            while dfs:
                v, parent, it = dfs[-1]
                advanced = False
                for u in it:
                    if u == parent:
                        continue
                    if u not in disc:
                        estack.append((v, u))
                        timer += 1
                        disc[u] = low[u] = timer
                        dfs.append((u, v, iter(self.neighbors(u))))
                        advanced = True
                        break
                    if disc[u] < disc[v]:
                        estack.append((v, u))
                        if disc[u] < low[v]:
                            low[v] = disc[u]
                if advanced:
                    continue
                dfs.pop()
                if dfs:
                    p = dfs[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        verts: set[int] = set()
                        while True:
                            a, b = estack.pop()
                            verts.update((a, b))
                            if (a, b) == (p, v):
                                break
                        blocks.append(frozenset(verts))
        count: dict[int, int] = {}
        for b in blocks:
            for v in b:
                count[v] = count.get(v, 0) + 1
        cuts = frozenset(v for v, c in count.items() if c > 1)
        return BlockDecomposition(blocks=tuple(blocks), cut_vertices=cuts)

    def is_two_connected(self) -> bool:
        bd = self.block_decomposition
        return self.n >= 3 and len(bd.blocks) == 1 and self.is_connected()

    # -- triangle test -----------------------------------------------------

    def triangles(self) -> list[tuple[int, int, int]]:
        """All 3-cycles, found by a pairwise common-neighbour scan."""
        out = []
        nb = {v: set(self.neighbors(v)) for v in self.vertices()}
        for u, v in sorted(self.edges):
            for w in sorted(nb[u] & nb[v]):
                if w > v:
                    out.append((u, v, w))
        return out

    # -- reflection --------------------------------------------------------

    def reflect(self) -> PlaneGraph:
        """Mirror image: reversed rotations; the outer face is preserved."""
        rot = tuple(tuple(reversed(r)) for r in self.rotation)
        u, v = self.outer
        return PlaneGraph(rot, (v, u))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(g: PlaneGraph) -> ValidationReport:
    """Check every standing invariant; callers reject on any failure."""
    rep = ValidationReport()
    for v in g.vertices():
        nbrs = g.neighbors(v)
        if v in nbrs:
            rep.add("simple", f"loop at {v}")
        if len(set(nbrs)) != len(nbrs):
            rep.add("simple", f"repeated neighbour in rotation of {v}")
    for v in g.vertices():
        for u in g.neighbors(v):
            if v not in g.neighbors(u):
                rep.add("symmetry", f"{u} in rotation of {v} but not conversely")
    if rep.failures:
        return rep
    if not g.is_connected():
        rep.add("connected", f"{len(g.components)} components")
    # each component is traced separately, so a valid embedding satisfies
    # n - m + f = 2c (every component contributes its own unbounded trace)
    f = len(g.faces)
    expected = 2 * len(g.components)
    if g.n - g.m + f != expected:
        rep.add("euler", f"n-m+f = {g.n}-{g.m}+{f} != {expected}; not a plane embedding")
    tris = g.triangles()
    if tris:
        rep.add("triangle-free", f"triangle {tris[0]}")
    return rep


def require_valid(g: PlaneGraph) -> None:
    rep = validate(g)
    if not rep.ok:
        raise PlaneGraphError(f"invalid plane graph: {rep.failures}")


# ---------------------------------------------------------------------------
# chords and 2-chords
# ---------------------------------------------------------------------------

def chords(g: PlaneGraph, walk: FaceWalk | None = None) -> set[Edge]:
    """Non-walk edges joining two walk vertices."""
    walk = walk or g.boundary_walk
    on_walk = walk.edge_set
    bset = walk.vertex_set
    return {und(u, v) for u, v in g.edges
            if u in bset and v in bset and und(u, v) not in on_walk}


def two_chords(g: PlaneGraph, walk: FaceWalk | None = None) -> set[tuple[int, int, int]]:
    """Length-2 paths u-m-v with u, v on the walk and m off it (u < v)."""
    walk = walk or g.boundary_walk
    bset = walk.vertex_set
    out = set()
    for m in g.vertices():
        if m in bset:
            continue
        ends = [u for u in g.neighbors(m) if u in bset]
        for i, u in enumerate(ends):
            for v in ends[i + 1:]:
                a, b = (u, v) if u < v else (v, u)
                out.add((a, m, b))
    return out


def chord_neighbors(g: PlaneGraph, walk: FaceWalk | None, S: Iterable[int]) -> set[int]:
    """T(S): endpoints reached from S along chords of the walk."""
    walk = walk or g.boundary_walk
    ch = chords(g, walk)
    S = set(S)
    out = set()
    for u, v in ch:
        if u in S:
            out.add(v)
        if v in S:
            out.add(u)
    return out


# ---------------------------------------------------------------------------
# subgraph extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """A plane subgraph with its vertex mapping back to the parent."""

    graph: PlaneGraph
    to_parent: tuple[int, ...]  # to_parent[child-1] = parent id

    def parent_of(self, child: int) -> int:
        return self.to_parent[child - 1]

    @cached_property
    def child_of(self) -> dict[int, int]:
        return {p: c + 1 for c, p in enumerate(self.to_parent)}

    def lift_arc(self, arc: Edge) -> Edge:
        return (self.parent_of(arc[0]), self.parent_of(arc[1]))

    def lift_edge(self, e: Edge) -> Edge:
        return und(self.parent_of(e[0]), self.parent_of(e[1]))

    def lift(self, dec: Decomposition) -> Decomposition:
        """A decomposition of the piece, given in child ids, rewritten in the
        parent's ids (child c becomes ``parent_of(c)``)."""
        return dec.relabel(dict(enumerate(self.to_parent, 1)))


def extract_piece(g: PlaneGraph, vertices: Iterable[int],
                  keep_edge: "callable | None" = None,
                  outer_parent_edge: Edge | None = None) -> Piece:
    """Restrict g to a vertex subset (rotation order inherited).

    keep_edge(u, v) may drop edges inside the subset.  outer_parent_edge is a
    directed edge (in parent ids) lying on the piece's outer face; if omitted,
    the parent's outer directed edge is used (it must survive the restriction).
    """
    verts = sorted(set(vertices))
    child = {p: i + 1 for i, p in enumerate(verts)}
    rot = []
    for p in verts:
        row = []
        for q in g.neighbors(p):
            if q in child and (keep_edge is None or keep_edge(p, q)):
                row.append(child[q])
        rot.append(tuple(row))
    if outer_parent_edge is None:
        outer_parent_edge = g.outer
    a, b = outer_parent_edge
    if a not in child or b not in child:
        raise PlaneGraphError("outer edge endpoints not in piece")
    piece = PlaneGraph(rot, (child[a], child[b]))
    return Piece(graph=piece, to_parent=tuple(verts))


def classify_darts_by_cycle(g: PlaneGraph, cycle_edges: set[Edge]
                            ) -> tuple[set[Edge], set[Edge]]:
    """Split directed edges into (inside, outside) of a cycle given by
    undirected edges.

    Outside = darts reachable from the outer edge without crossing the cycle:
    a dart steps to the next dart of its face, and to its reversal unless its
    edge is on the cycle.  All darts of a face land on the same side.
    """
    outside: set[Edge] = set()
    for _ in _side_darts(g, cycle_edges, g.outer, outside):
        pass
    inside = {(v, u) for v in g.vertices() for u in g.neighbors(v)} - outside
    return inside, outside


def _side_darts(g: PlaneGraph, cycle_edges: set[Edge], seed: Edge,
                seen: set[Edge]) -> Iterator[Edge]:
    """Yield the darts reachable from seed without crossing the cycle, seed
    first, adding each to seen as it is yielded."""
    seen.add(seed)
    yield seed
    stack = [seed]
    while stack:
        u, v = stack.pop()
        d = g.face_next(u, v)
        if d not in seen:
            seen.add(d)
            stack.append(d)
            yield d
        d = (v, u)
        if d not in seen and und(u, v) not in cycle_edges:
            seen.add(d)
            stack.append(d)
            yield d


def int_subgraph(g: PlaneGraph, cycle: Sequence[int]) -> Piece:
    """Int(C): everything drawn inside or on the cycle, with C as boundary.

    g must be connected.  Only the inside is flooded: the two darts of the
    first cycle edge seed one flood per side, run in lockstep.  The side
    that meets ``g.outer`` is the outside and its seed dart becomes the
    piece's outer edge; the other side is flooded to its end, and its darts
    and the vertices all of whose darts it holds make up Int(C).
    """
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise PlaneGraphError("not a cycle")
    for i in range(k):
        if not g.has_edge(cycle[i], cycle[(i + 1) % k]):
            raise PlaneGraphError("not a cycle of g")
    if not g.is_connected():
        raise PlaneGraphError("Int(C) needs a connected graph")
    cyc_edges = {und(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    a, b = cycle[0], cycle[1]
    seeds = ((a, b), (b, a))
    sides: tuple[set[Edge], set[Edge]] = (set(), set())
    floods = [_side_darts(g, cyc_edges, seeds[j], sides[j]) for j in (0, 1)]
    inner = None
    while inner is None:
        for j in (0, 1):
            d = next(floods[j], None)
            if d == g.outer:
                inner = 1 - j
                break
            if d is None:
                # side j closed without meeting g.outer, which therefore
                # lies on the other side (g is connected)
                inner = j
                break
    for _ in floods[inner]:
        pass
    inside = sides[inner]

    verts = set(cycle)
    for v in {u for u, _ in inside}:
        if all((v, u) in inside for u in g.neighbors(v)):
            verts.add(v)

    def keep(u: int, v: int) -> bool:
        # keep an edge iff at least one of its two sides is an inside face
        return (u, v) in inside or (v, u) in inside

    return extract_piece(g, verts, keep_edge=keep,
                         outer_parent_edge=seeds[1 - inner])


def component_pieces(g: PlaneGraph) -> list[Piece]:
    """Connected components as plane graphs.

    The component holding the designated outer edge keeps it; other components
    default to their smallest directed edge (the rotation system does not
    record how components nest, and no downstream use depends on the choice).
    """
    out = []
    outer_trace = g.faces[g.outer_face_id] if g.m else ()
    for comp in g.components:
        if len(comp) == 1:
            (v,) = comp
            out.append(Piece(graph=PlaneGraph([()], (1, 1)), to_parent=(v,)))
            continue
        oe = next((de for de in outer_trace if de[0] in comp), None)
        if oe is None:
            a = min(v for v in comp if g.neighbors(v))
            oe = (a, g.neighbors(a)[0])
        out.append(extract_piece(g, comp, outer_parent_edge=oe))
    return out


# ---------------------------------------------------------------------------
# small constructors (used all over the tests)
# ---------------------------------------------------------------------------

def cycle_graph(k: int) -> PlaneGraph:
    """C_k embedded with boundary walk 1, 2, ..., k."""
    if k < 3:
        raise PlaneGraphError("cycle needs >= 3 vertices")
    rot = []
    for v in range(1, k + 1):
        nxt = v % k + 1
        prv = (v - 2) % k + 1
        rot.append((nxt, prv))
    g = PlaneGraph(rot, (1, 2))
    walk = g.boundary_walk.vertices
    if walk != tuple(range(1, k + 1)):  # fix orientation if the trace went inward
        g = PlaneGraph(tuple(tuple(reversed(r)) for r in rot), (1, 2))
    return g
