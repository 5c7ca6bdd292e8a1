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

Derived data is cached lazily on each graph.  The decomposition recurses
only into sub-embeddings of a graph (``extract_piece`` and everything built
on it) and into its mirror (``reflect``), so a new graph starts with what
its parent already knows, wherever the parent has computed it:

- every piece and mirror of a graph without a separating 4-/5-cycle has
  none either: a cycle of the child splits the sphere as it does in the
  parent;
- Int(C) of a 2-connected graph is 2-connected: whatever a cut vertex of
  Int(C) cuts off lies inside C, so it would cut the parent too.  A plain
  piece may fall apart and inherits nothing of this;
- a mirror has its parent's edges, components, blocks, small cycles and
  boundary chords and 2-chords, and its boundary walk is the parent's read
  backwards from the outer edge.

One kernel answers every question of which side of a cycle C something
lies on: ``cycle_sides`` splits the rotation of each vertex of C into its
two sides, tells the outside by a dart of the outer walk that leaves C
(or, when the walk misses C, by which of two lockstep vertex
floods reaches the walk first), and floods the vertices inside C only.
Int(C), Ext(C) and the separating-cycle verdict are all read off it, and
Int(C) is born knowing its boundary walk (C itself) and its boundary chords
(those inside C).  It needs a connected graph.
"""

from __future__ import annotations

import bisect
import heapq
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

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The directed edges in visiting order; none for a lone vertex."""
        vs = self.vertices
        if len(vs) == 1:
            return ()
        return tuple(zip(vs, vs[1:] + vs[:1]))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset((u, v) if u < v else (v, u) for u, v in self.edges)

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
        return frozenset((v, u) if v < u else (u, v)
                         for v in self.vertices() for u in self.neighbors(v))

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

    def boundary_is_cycle(self) -> bool:
        return self.boundary_walk.is_simple_cycle()

    @cached_property
    def boundary_chords(self) -> frozenset[Edge]:
        """``chords`` of the boundary walk, computed once per graph."""
        return frozenset(chords(self))

    @cached_property
    def boundary_two_chords(self) -> frozenset[tuple[int, int, int]]:
        """``two_chords`` of the boundary walk, computed once per graph."""
        return frozenset(two_chords(self))

    @cached_property
    def _boundary_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """(successor, predecessor) along the boundary cycle.  A boundary
        that is not a simple cycle raises, and a raise is never cached."""
        if not self.boundary_is_cycle():
            raise PlaneGraphError("boundary is not a simple cycle")
        vs = self.boundary_walk.vertices
        succ = dict(zip(vs, vs[1:] + vs[:1]))
        pred = dict(zip(vs, vs[-1:] + vs[:-1]))
        return succ, pred

    def boundary_succ(self, v: int) -> int:
        succ, _ = self._boundary_maps
        if v not in succ:
            raise PlaneGraphError(f"{v} is not a boundary vertex")
        return succ[v]

    def boundary_pred(self, v: int) -> int:
        _, pred = self._boundary_maps
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

    # -- separating small cycles -------------------------------------------

    @cached_property
    def separating_small_cycle(self) -> tuple[int, ...] | None:
        """The first 4-/5-cycle (in small_cycles order) with a vertex strictly
        on each side, or None.  A cycle that bounds a face has one side
        without vertices, so it is skipped after k face steps instead of a
        whole-graph flood."""
        for cyc in small_cycles(self):
            if _bounds_face(self, cyc):
                continue
            # every vertex off C and not strictly inside is strictly outside
            inner = cycle_sides(self, cyc)[0]
            if inner and len(inner) + len(cyc) < self.n:
                return cyc
        return None

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
        mirror = PlaneGraph(rot, (v, u))
        # a mirror has the same vertices, edges and blocks, and the same small
        # cycles, each splitting the sphere into the same two vertex sets; its
        # boundary walk has the same vertices and edges, so the same chords
        _inherit(mirror, self, ("m", "edges", "components", "block_decomposition",
                                "separating_small_cycle", "boundary_chords",
                                "boundary_two_chords"))
        if "boundary_walk" in self.__dict__:
            # the outer face traced backwards from (v1, v0): v1 v0 v_k-1 ... v2
            vs = self.boundary_walk.vertices
            mirror.__dict__["boundary_walk"] = FaceWalk(vs[1::-1] + vs[:1:-1])
        return mirror


def _inherit(child: PlaneGraph, parent: PlaneGraph,
             names: Iterable[str] = ()) -> PlaneGraph:
    """Seed the caches of child, a sub-embedding or the mirror of parent,
    with what parent already knows: its separating-cycle verdict if that is
    None, and each entry under names that parent has computed, which the
    caller shows child shares."""
    known = parent.__dict__
    # a cycle of the child splits the sphere as it does in parent, so a
    # separating one would separate parent too
    if known.get("separating_small_cycle", ()) is None:
        child.__dict__["separating_small_cycle"] = None
    child.__dict__.update((k, known[k]) for k in names if k in known)
    return child


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(g: PlaneGraph) -> ValidationReport:
    """Check every standing invariant; callers reject on any failure."""
    rep = ValidationReport()
    nb = [frozenset(r) for r in g.rotation]
    for v in g.vertices():
        if v in nb[v - 1]:
            rep.add("simple", f"loop at {v}")
        if len(nb[v - 1]) != g.degree(v):
            rep.add("simple", f"repeated neighbour in rotation of {v}")
    for v in g.vertices():
        for u in g.neighbors(v):
            if v not in nb[u - 1]:
                rep.add("symmetry", f"{u} in rotation of {v} but not conversely")
    if rep.failures:
        return rep
    if not g.is_connected():
        rep.add("connected", f"{len(g.components)} components")
    # each component is traced separately, so a valid embedding satisfies
    # n - m + f = 2c (every component contributes its own unbounded trace;
    # an isolated vertex has no darts to trace, and its one face is counted)
    f = (len(g.faces) if g.m else 0) + sum(not r for r in g.rotation)
    expected = 2 * len(g.components)
    if g.n - g.m + f != expected:
        rep.add("euler", f"n-m+f = {g.n}-{g.m}+{f} != {expected}; not a plane embedding")
    # an edge whose ends share a neighbour closes a triangle
    if any(not nb[v - 1].isdisjoint(g.neighbors(u))
           for v in g.vertices() for u in g.neighbors(v) if u > v):
        rep.add("triangle-free", f"triangle {g.triangles()[0]}")
    return rep


# ---------------------------------------------------------------------------
# chords and 2-chords
# ---------------------------------------------------------------------------

def chords(g: PlaneGraph, walk: FaceWalk | None = None) -> set[Edge]:
    """Non-walk edges joining two walk vertices, read off the rotations of
    the walk's vertices."""
    walk = walk or g.boundary_walk
    on_walk = walk.edge_set
    bset = walk.vertex_set
    out = set()
    for v in bset:
        for u in g.neighbors(v):
            if u in bset:
                e = (v, u) if v < u else (u, v)
                if e not in on_walk:
                    out.add(e)
    return out


def two_chords(g: PlaneGraph, walk: FaceWalk | None = None) -> set[tuple[int, int, int]]:
    """Length-2 paths u-m-v with u, v on the walk and m off it (u < v),
    read off the rotations of the walk's vertices: only the neighbours of
    the walk off it are visited."""
    walk = walk or g.boundary_walk
    bset = walk.vertex_set
    ends: dict[int, list[int]] = {}
    for u in bset:
        for m in g.neighbors(u):
            if m not in bset:
                ends.setdefault(m, []).append(u)
    out = set()
    for m, us in ends.items():
        for i, u in enumerate(us):
            for v in us[i + 1:]:
                out.add((u, m, v) if u < v else (v, m, u))
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

    def succ(self, v: int) -> int:
        """v's successor on the piece's boundary cycle, in parent ids."""
        return self.to_parent[self.graph.boundary_succ(self.child_of[v]) - 1]

    def pred(self, v: int) -> int:
        """v's predecessor on the piece's boundary cycle, in parent ids."""
        return self.to_parent[self.graph.boundary_pred(self.child_of[v]) - 1]

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
    piece = _inherit(PlaneGraph(rot, (child[a], child[b])), g)
    return Piece(graph=piece, to_parent=tuple(verts))


def cycle_sides(g: PlaneGraph, cycle: Sequence[int]
                ) -> tuple[set[int], tuple[int, ...], set[Edge], set[Edge]]:
    """Where the cycle C = (c_0, ..., c_k-1) cuts g: the vertices strictly
    inside C, C read from the dart of its first edge that faces outside
    (as Int(C) walks it), and the chords of C drawn inside and outside it.

    g must be connected.  At each c_i, the neighbours clockwise after c_i-1
    and before c_i+1 lie on the right of C read forwards (the side of the
    faces of its darts (c_i, c_i+1)), and those after c_i+1 and before c_i-1
    on its left.  The outer face lies outside C, so any dart of the outer
    walk that leaves a vertex of C names the outside, whether it runs along
    C or into one of the two intervals; the first vertex of C on the walk
    gives one.  A walk that misses C lies strictly outside it, and then
    ``_lockstep`` tells the sides apart.  The inside is a vertex flood from
    its intervals that never enters C.
    """
    k = len(cycle)
    index = {c: i for i, c in enumerate(cycle)}
    if k < 3 or len(index) != k:
        raise PlaneGraphError("not a cycle")
    rot = g.rotation
    right: list[tuple[int, ...]] = []
    left: list[tuple[int, ...]] = []
    prev = cycle[-1]
    try:
        for i, c in enumerate(cycle):
            r = rot[c - 1]
            p, q = r.index(prev), r.index(cycle[i + 1 - k])
            if p < q:
                right.append(r[p + 1:q])
                left.append(r[q + 1:] + r[:p])
            else:
                right.append(r[p + 1:] + r[:q])
                left.append(r[q + 1:p])
            prev = c
    except ValueError:
        raise PlaneGraphError("not a cycle of g") from None
    if not g.is_connected():
        raise PlaneGraphError("the sides of a cycle need a connected graph")
    walk = g.boundary_walk
    pos = walk.position
    t = next((pos[c] for c in cycle if c in pos), None)
    if t is None:
        outside_right = _lockstep(g, index, (right, left)) == 1
    else:
        vs = walk.vertices
        i = index[vs[t]]
        v = vs[t + 1 - len(vs)]  # the next walk vertex, wrapping around
        outside_right = v == cycle[i + 1 - k] or v in right[i]
    ins, outs = (left, right) if outside_right else (right, left)
    inner: set[int] = set()
    chords_in: set[Edge] = set()
    for c, side in zip(cycle, ins):
        for u in side:
            if u in index:
                chords_in.add(und(c, u))
            else:
                inner.add(u)
    stack = list(inner)
    while stack:
        for u in rot[stack.pop() - 1]:
            if u not in index and u not in inner:
                inner.add(u)
                stack.append(u)
    chords_out = {und(c, u) for c, side in zip(cycle, outs) for u in side if u in index}
    cyc = tuple(cycle)
    return inner, cyc if outside_right else cyc[1::-1] + cyc[:1:-1], chords_in, chords_out


def _lockstep(g: PlaneGraph, on_cycle: dict[int, int],
              sides: tuple[list[tuple[int, ...]], list[tuple[int, ...]]]) -> int:
    """Which of the two sides of a cycle C is inside (0 or 1), when the
    outer walk misses C and so lies strictly outside it.  on_cycle holds
    the vertices of C, and sides[j][i] the neighbours of c_i on side j.
    One vertex flood per side runs in lockstep and never enters C: the first
    to reach the walk is outside, and one that ends without reaching it is
    inside."""
    on_walk = g.boundary_vertices
    stacks = tuple([u for nbrs in side for u in nbrs if u not in on_cycle]
                   for side in sides)
    seen = (set(stacks[0]), set(stacks[1]))
    while True:
        for j in (0, 1):
            if not stacks[j]:
                return j
            v = stacks[j].pop()
            if v in on_walk:
                return 1 - j
            for u in g.rotation[v - 1]:
                if u not in on_cycle and u not in seen[j]:
                    seen[j].add(u)
                    stacks[j].append(u)


def _without(edges: set[Edge]) -> "callable | None":
    """An ``extract_piece`` edge filter that drops the given edges, or None
    when there are none."""
    if not edges:
        return None
    drop = edges | {(v, u) for u, v in edges}
    return lambda u, v: (u, v) not in drop


def _int_piece(g: PlaneGraph, inner: set[int], walk: tuple[int, ...],
               chords_in: set[Edge], chords_out: set[Edge]) -> Piece:
    """Int(C) from ``cycle_sides``: C and the vertices strictly inside it,
    every edge among them but the chords outside, and C's dart (walk[0],
    walk[1]) facing outside as its outer edge.  It is born knowing its
    boundary walk, C read from that dart, and its boundary chords, those
    inside C."""
    piece = extract_piece(g, inner.union(walk), keep_edge=_without(chords_out),
                          outer_parent_edge=walk[:2])
    h = piece.graph
    cm = piece.child_of
    h.__dict__["boundary_walk"] = FaceWalk(tuple(cm[c] for c in walk))
    h.__dict__["boundary_chords"] = frozenset(und(cm[u], cm[v]) for u, v in chords_in)
    if "block_decomposition" in g.__dict__ and g.is_two_connected():
        # a cut vertex of Int(C) would cut g: what it cuts off lies inside C
        whole = frozenset(h.vertices())
        h.__dict__.update(components=(whole,), block_decomposition=BlockDecomposition(
            blocks=(whole,), cut_vertices=frozenset()))
    return piece


def int_subgraph(g: PlaneGraph, cycle: Sequence[int]) -> Piece:
    """Int(C): everything drawn inside or on the cycle, with C as boundary.
    g must be connected."""
    return _int_piece(g, *cycle_sides(g, cycle))


def int_ext_subgraphs(g: PlaneGraph, cycle: Sequence[int]) -> tuple[Piece, Piece]:
    """Int(C) and Ext(C) from one ``cycle_sides``.  Ext(C) is everything
    drawn outside or on the cycle: every vertex but those strictly inside,
    every edge among them but the chords inside, and g's outer edge.  g must
    be connected."""
    sides = cycle_sides(g, cycle)
    inner, _, chords_in, _ = sides
    ext = extract_piece(g, set(g.vertices()) - inner, keep_edge=_without(chords_in),
                        outer_parent_edge=g.outer)
    return _int_piece(g, *sides), ext


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


def light_peel(g: PlaneGraph) -> list[tuple[int, int, list[int]]]:
    """Delete interior vertices of degree <= 2 from g, the smallest that
    leaves the graph connected each time, until none can go (a smallest-last
    peeling, Matula & Beck 1983).  Per deleted vertex, in order: the vertex,
    its id among the vertices left (the id ``extract_piece`` would give it)
    and its neighbours left.  Deleting interior vertices keeps the boundary
    walk and the outer edge, so this is the sequence that one
    ``extract_piece`` per deleted vertex would give, with no graph built.

    Candidates wait in a heap.  Deletions never join the two sides of a cut
    vertex, so one that fails is pushed again only when a neighbour of it
    goes.  In a connected plane graph a vertex of degree 2 is a cut vertex
    iff its two angles lie on one face: two face walks in lockstep tell, in
    the steps of the shorter face.  From two components only a lone vertex
    can go, after which every candidate is tried again.
    """
    bset = g.boundary_vertices
    heap = [v for v in g.vertices() if g.degree(v) <= 2 and v not in bset]
    if not heap:
        return []
    comps = len(g.components)
    rows: dict[int, list[int]] = {}     # rotations shrunk by deletions
    gone: list[int] = []                # deleted so far, sorted
    out: list[tuple[int, int, list[int]]] = []

    def step(u: int, v: int) -> Edge:
        r = rows.get(v, g.rotation[v - 1])
        i = r.index(u) + 1
        return v, r[i] if i < len(r) else r[0]

    def cut(v: int, a: int, b: int) -> bool:
        d, e = (a, v), (b, v)
        while True:
            d, e = step(*d), step(*e)
            if d == (b, v) or e == (a, v):
                return True
            if d == (a, v) or e == (b, v):
                return False

    while heap:
        v = heapq.heappop(heap)
        r = rows.get(v, g.rotation[v - 1])
        i = bisect.bisect_left(gone, v)
        if (i < len(gone) and gone[i] == v) or comps != 1 + (not r) \
                or (len(r) == 2 and cut(v, *r)):
            continue
        gone.insert(i, v)
        out.append((v, v - i, list(r)))
        for q in r:
            rq = rows.setdefault(q, list(g.rotation[q - 1]))
            rq.remove(v)
            if len(rq) <= 2 and q not in bset:
                heapq.heappush(heap, q)
        if comps == 2:
            comps = 1
            heap = [u for u in g.vertices() if g.degree(u) <= 2
                    and u not in bset and u not in gone]
    return out


# ---------------------------------------------------------------------------
# small cycles
# ---------------------------------------------------------------------------

def small_cycles(g: PlaneGraph, lengths=(4, 5)) -> list[tuple[int, ...]]:
    """All cycles of the given lengths (4, 5 or both), sorted.

    Each cycle appears once, canonically: rooted at its least vertex s, with
    its second vertex a smaller than its last vertex b.  The cycles are
    listed by neighbourhood intersection (Chiba & Nishizeki 1985): for each
    pair a < b of neighbours of s above s, a 4-cycle (s, a, p, b) closes
    through p in N(a) & N(b), and a 5-cycle (s, a, p, q, b) through p in N(a)
    and q in N(p) & N(b), every vertex above s.  The graph need not be
    triangle-free: the vertices of each cycle are checked to be distinct.
    """
    if not lengths or not set(lengths) <= {4, 5}:
        raise ValueError(f"cycle lengths {tuple(lengths)} not among (4, 5)")
    four, five = 4 in lengths, 5 in lengths
    nb = [frozenset()] + [frozenset(r) for r in g.rotation]
    out: list[tuple[int, ...]] = []
    for s in g.vertices():
        up = sorted(u for u in nb[s] if u > s)
        for i, a in enumerate(up):
            na = nb[a]
            for b in up[i + 1:]:
                nbb = nb[b]
                if four:
                    out.extend((s, a, p, b) for p in na & nbb
                               if p > s and p != a and p != b)
                if five:
                    for p in na:
                        if p > s and p != a and p != b:
                            out.extend((s, a, p, q, b) for q in nb[p] & nbb
                                       if q > s and q not in (a, p, b))
    out.sort()
    return out


def _bounds_face(g: PlaneGraph, cycle: Sequence[int]) -> bool:
    """Whether the face walk from (c0, c1), or from (c1, c0) for the reversed
    cycle, runs exactly once around the cycle and closes."""
    k = len(cycle)
    for c in (cycle, cycle[1::-1] + cycle[:1:-1]):
        d = (c[0], c[1])
        for i in range(2, k + 2):
            d = g.face_next(*d)
            if d[1] != c[i % k]:
                break
        else:
            return True
    return False


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
