"""Independent ground truth: enumeration, canonical forms, brute-force search.

Everything here is deliberately simple and separate from the constructive
algorithm so it can serve as its oracle: plane graphs are enumerated from
scratch (abstract graphs, then rotation systems filtered by the Euler check),
and decompositions are found by exhaustive assignment with pruning.

Embeddings are deduplicated by canonical_form, which takes the least BFS code
over the outer face's directed edges and over those of the mirror image.  The
enumerator keys each (rotation system, face) pair with that same key without
building a PlaneGraph for it, and never traces a rotation system whose
mirror image (every rotation reversed) is a smaller tuple: rotation_systems
leaves it out on request, and in the full increasing order that mirror comes
first.  Its faces are the left-out system's faces walked backwards, and the
key folds in the reflection, so every key the left-out system would produce
is already seen and it could never emit a graph.  The keys, and the
(rotation, outer) pairs emitted and their order, are therefore exactly those
of keying every pair with canonical_form.

Abstract graphs are grown one vertex at a time (abstract_graphs_augment) and
deduplicated by graph_certificate, an exact canonical labelling by
individualization-refinement over adjacency bitmasks.  The filters run in the
order: independent attachment sets only (so no triangle can appear), the
Euler bound, the certificate lookup, and last nx.check_planarity, once per
isomorphism class.  The second order (abstract_graphs_edge_subsets) keeps the
networkx isomorphism test, so each order checks the other.
"""

from __future__ import annotations

import gc
import itertools
import struct
import warnings
from typing import Iterable, Iterator, Literal, Sequence

import networkx as nx

from .decomposition import (ArcInOrientation, ConstraintSpec, Decomposition,
                            EdgeInMatching, MatchedPartnerOnBoundary,
                            relaxed_exempt_set, und)
from .plane_graph import Edge, PlaneGraph, PlaneGraphError


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

Rotation = tuple[tuple[int, ...], ...]


def _encode(rot: Rotation, u0: int, v0: int, bound: bytes | None = None
            ) -> bytes | None:
    """The one BFS encoder behind bfs_encode, canonical_form, config_key and
    plane_graphs_of.  rot[w - 1] is the cyclic rotation at w, read from any
    starting neighbour; the code starts along the directed edge (u0, v0).

    The code is n, then each vertex's rotation as discovery labels, the rows
    joined by a separator.  Below n = 124 every entry is one byte and the
    separator is 124 (b"|"), which no label reaches; from n = 124 on every
    entry is a 4-byte big-endian word and the separator is 0, which no label
    takes.  So the code is injective at every n.

    bound, if given, is a code of the same graph, which has the same n and
    number of entries, so byte order is entry order.  A label is final as
    soon as it is assigned, so each entry is compared with the bound's as it
    is read, until one differs: None is returned at the first entry above
    the bound's, or at the end if the code equals the bound.  The code is
    returned only when it is smaller."""
    n = len(rot)
    narrow = n < 124
    sep = 124 if narrow else 0
    label = [0] * (n + 1)
    label[0] = sep  # vertex 0 stands for the separator in flat
    label[u0] = 1
    arrival = [0] * (n + 1)
    arrival[u0] = v0
    order = [u0]
    flat: list[int] = []
    tied = bound is not None  # every entry so far equals the bound's
    if tied:
        # the bound's entries, with a separator after its last row
        ref = (bound + b"|" if narrow else
               struct.unpack(f">{len(bound) // 4}I", bound) + (0,))
        k = 1  # the next entry to compare; entry 0 is n
    for w in order:  # order grows while it is read: a breadth-first queue
        r = rot[w - 1]
        i = r.index(arrival[w])
        row = r[i:] + r[:i]
        flat += row
        flat.append(0)
        for q in row:
            e = label[q]
            if not e:
                e = label[q] = len(order) + 1
                arrival[q] = w
                order.append(q)
            if tied:
                f = ref[k]
                k += 1
                if e != f:
                    if e > f:
                        return None
                    tied = False
        if tied:  # the row's separator
            f = ref[k]
            k += 1
            if sep != f:
                if sep > f:
                    return None
                tied = False
    if tied:
        return None
    flat.pop()
    if narrow:
        return bytes([n]) + bytes(map(label.__getitem__, flat))
    return struct.pack(f">{len(flat) + 1}I", n, *map(label.__getitem__, flat))


def _mirror(rot: Rotation) -> Rotation:
    """The mirror image: every rotation reversed, still starting at its first
    neighbour (so a rotation system in normal form maps to one in normal
    form)."""
    return tuple((r[0],) + r[:0:-1] if r else r for r in rot)


def _face_key(rot: Rotation, mirror: Rotation | None, face: Sequence[Edge]
              ) -> bytes:
    """canonical_form of the plane graph (rot, face): the least code over the
    face's directed edges in rot and, unless mirror is None, over their
    reversals in the mirror, whose outer face is the same walk traversed
    backwards.

    Only starts whose tail has one degree d are encoded, which loses nothing
    in a simple graph.  A code from a tail of degree d reads n, 2, ..., d+1
    and then the row separator, where a code from a tail of larger degree
    reads d+2.  In the one-byte code (n <= 123) the separator 124 exceeds
    every label, so d is the face's largest degree; in the word code the
    separator 0 is the least entry, so d is its smallest.

    Each start is encoded against the least code so far as its bound, so a
    code that loses is read only up to its first entry above the bound
    (Brinkmann & McKay's canonicity tests in plantri stop at the first
    difference the same way).  The starts and their order are those of
    taking the plain minimum, and so is the result.
    """
    degrees = [len(rot[u - 1]) for u, _ in face]
    d = max(degrees) if len(rot) <= 123 else min(degrees)
    starts = [(rot, u, v) for u, v in face if len(rot[u - 1]) == d]
    if mirror is not None:
        starts += [(mirror, v, u) for u, v in face if len(rot[v - 1]) == d]
    best = None
    for start in starts:
        best = _encode(*start, best) or best
    return best


def bfs_encode(g: PlaneGraph, start: Edge) -> bytes:
    """Deterministic encoding of a rotation system from a starting directed edge.

    Vertices are relabelled in discovery order; each vertex's rotation is read
    starting from the edge it was discovered along.  Two plane graphs receive
    the same encoding for corresponding start edges iff an orientation-
    preserving embedding isomorphism maps one start edge to the other.
    """
    return _encode(g.rotation, *start)


def canonical_form(g: PlaneGraph, include_reflection: bool = True) -> bytes:
    """Canonical identifier of a connected plane graph with its outer face.

    Minimum of bfs_encode over all directed edges of the outer walk (and of
    the mirror image's outer walk when include_reflection is set).  Only
    starts whose tail has the face's largest degree (n <= 123) or smallest
    degree (n >= 124) are encoded, which gives the same minimum (see
    _face_key).
    """
    if g.m == 0:
        return bytes([g.n])
    mirror = _mirror(g.rotation) if include_reflection else None
    return _face_key(g.rotation, mirror, g.faces[g.outer_face_id])


def config_key(g: PlaneGraph, path: Sequence[int]) -> bytes:
    """Canonical identifier of a configuration (graph + ordered boundary path).

    The path fixes the start edge, so no minimisation over starts is needed.
    Counterclockwise paths are normalised through the mirror embedding, which
    makes a configuration and its mirror image receive equal keys.
    """
    from .decomposition import path_orientation
    rot = g.rotation
    if path_orientation(g, path) < 0:
        rot = _mirror(rot)
    return _encode(rot, path[0], path[1])


# ---------------------------------------------------------------------------
# canonical labelling of abstract graphs
# ---------------------------------------------------------------------------

def _refine(adj: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """The coarsest equitable refinement of the ordered partition ``cells``
    (vertex bitmasks) that is reachable by splitting with ``splitters``.

    Each cell is split by the number of neighbours its vertices have in a
    splitter, the pieces taking the cell's place in increasing count order,
    and every piece becomes a splitter in turn.  Nothing here looks at vertex
    names, so relabelling the graph and the input partition relabels the
    output the same way.
    """
    n = len(adj)
    while splitters and len(cells) < n:
        w = splitters.pop()
        out: list[int] = []
        for x in cells:
            if not x & (x - 1):
                out.append(x)
                continue
            by_count: dict[int, int] = {}
            y = x
            while y:
                b = y & -y
                y ^= b
                k = (adj[b.bit_length() - 1] & w).bit_count()
                by_count[k] = by_count.get(k, 0) | b
            if len(by_count) == 1:
                out.append(x)
            else:
                pieces = [by_count[k] for k in sorted(by_count)]
                out += pieces
                splitters += pieces
        cells = out
    return cells


def graph_certificate(adj: Sequence[int]) -> tuple[int, int]:
    """Canonical form of the abstract graph whose vertex v has neighbour
    bitmask adj[v]: two graphs receive equal certificates iff they are
    isomorphic.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): refine the degree partition to an equitable
    ordered one, then branch on each vertex of its first non-singleton cell,
    individualize it and refine again, down to discrete partitions.  Each
    such leaf orders the vertices; the certificate is (n, code) for the least
    code, where code packs the rows of the adjacency matrix in that order.
    The tree is built without reference to vertex names, so isomorphic graphs
    have the same set of leaf codes, and a code determines its graph.

    A child whose vertex an automorphism fixing the branch's individualized
    vertices maps onto an earlier sibling is skipped: its subtree is the
    image of that sibling's and holds the same codes.  The automorphisms are
    the transpositions of false twins (equal neighbourhoods) and those read
    off pairs of leaves with equal codes.
    """
    n = len(adj)
    gens: list[tuple[int, list[int]]] = []  # (moved points, image of each vertex)
    by_nbhd: dict[int, int] = {}
    for v, a in enumerate(adj):
        u = by_nbhd.setdefault(a, v)
        if u != v:
            img = list(range(n))
            img[u], img[v] = v, u
            gens.append(((1 << u) | (1 << v), img))
    leaves: dict[int, list[int]] = {}

    def orbit(v: int, fixed: int) -> int:
        live = [img for moved, img in gens if not moved & fixed]
        orb, todo = 1 << v, [v]
        while todo:
            w = todo.pop()
            for img in live:
                t = img[w]
                if not orb >> t & 1:
                    orb |= 1 << t
                    todo.append(t)
        return orb

    def search(cells: list[int], fixed: int) -> None:
        for i, x in enumerate(cells):
            if x & (x - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            pos = [0] * n
            for i, v in enumerate(order):
                pos[v] = i
            code = 0
            for v in order:
                row, a = 0, adj[v]
                while a:
                    b = a & -a
                    a ^= b
                    row |= 1 << pos[b.bit_length() - 1]
                code = code << n | row
            other = leaves.setdefault(code, order)
            if other is not order:  # other[i] -> order[i] is an automorphism
                img = list(range(n))
                moved = 0
                for s, t in zip(other, order):
                    if s != t:
                        img[s] = t
                        moved |= 1 << s
                gens.append((moved, img))
            return
        done = 0
        y = x
        while y:
            b = y & -y
            y ^= b
            if done and orbit(b.bit_length() - 1, fixed) & done:
                continue
            done |= b
            search(_refine(adj, cells[:i] + [b, x ^ b] + cells[i + 1:], [b]),
                   fixed | b)

    if n:
        search(_refine(adj, [(1 << n) - 1], [(1 << n) - 1]), 0)
    return n, min(leaves, default=0)


# ---------------------------------------------------------------------------
# abstract graph enumeration
# ---------------------------------------------------------------------------

def _nx_from_edges(n: int, edges: Iterable[Edge]) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, n + 1))
    G.add_edges_from(edges)
    return G


# networkx >= 3.5 warns on every weisfeiler_lehman_graph_hash call of an
# unattributed graph that its hashes changed; _iso_dedup only compares hashes
# taken within one run.
_WL_CHANGED = "The hashes produced for graphs without node or edge attributes changed"


def _iso_dedup(graphs: Iterable[nx.Graph]) -> list[nx.Graph]:
    buckets: dict[str, list[nx.Graph]] = {}
    out = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=_WL_CHANGED, category=UserWarning)
        for G in graphs:
            h = nx.weisfeiler_lehman_graph_hash(G, iterations=3)
            bucket = buckets.setdefault(h, [])
            if not any(nx.is_isomorphic(G, H) for H in bucket):
                bucket.append(G)
                out.append(G)
    return out


def _is_planar_tf(G: nx.Graph) -> bool:
    n = G.number_of_nodes()
    m = G.number_of_edges()
    if n >= 3 and m > 2 * n - 4:
        return False
    for u, v in G.edges():
        if set(G[u]) & set(G[v]):
            return False
    ok, _ = nx.check_planarity(G)
    return ok


def _augment_candidates(adj: list[int]) -> Iterator[int]:
    """The sets S (as bitmasks) for which G + v -> S is a candidate of
    abstract_graphs_augment: the nonempty independent sets of G, by size r
    and then in itertools.combinations order, up to the largest r that keeps
    the new graph within Euler's bound m <= 2n - 4.  Every candidate is
    triangle-free because S is independent."""
    k = len(adj)
    n = k + 1
    m = sum(a.bit_count() for a in adj) // 2
    max_r = k if n < 3 else min(k, 2 * n - 4 - m)

    def sets(start: int, r: int, blocked: int, S: int) -> Iterator[int]:
        if not r:
            yield S
            return
        for v in range(start, k - r + 1):
            if not blocked >> v & 1:
                yield from sets(v + 1, r - 1, blocked | adj[v], S | 1 << v)

    for r in range(1, max_r + 1):
        yield from sets(0, r, 0, 0)


def _augment(adj: list[int], S: int) -> list[int]:
    """Neighbour bitmasks of G + v -> S, with v the new last vertex."""
    bit = 1 << len(adj)
    return [a | bit if S >> u & 1 else a for u, a in enumerate(adj)] + [S]


def abstract_graphs_augment(max_n: int) -> dict[int, list[nx.Graph]]:
    """Connected triangle-free planar graphs up to isomorphism, by vertex
    augmentation: attach vertex n to a nonempty independent set of an
    (n-1)-vertex graph.  (Planarity and triangle-freeness are hereditary under
    vertex deletion, so pruning every level loses nothing.)

    Candidates are built as bitmasks and looked up by graph_certificate
    before any planarity test: only the first candidate of each isomorphism
    class is tested with nx.check_planarity and, if planar, kept as an
    nx.Graph.  Planarity, the Euler bound and triangle-freeness are
    isomorphism invariants, so the graph kept for a class is its first planar
    candidate, the one that deduplicating the planar candidates would keep.
    """
    levels: dict[int, list[nx.Graph]] = {1: [_nx_from_edges(1, [])]}
    adjs = [[0]]
    for n in range(2, max_n + 1):
        kept: list[nx.Graph] = []
        kept_adjs: list[list[int]] = []
        seen: set[tuple[int, int]] = set()
        for G, adj in zip(levels[n - 1], adjs):
            for S in _augment_candidates(adj):
                cand = _augment(adj, S)
                cert = graph_certificate(cand)
                if cert in seen:
                    continue
                seen.add(cert)
                H = G.copy()
                H.add_node(n)
                H.add_edges_from((n, u) for u in range(1, n) if S >> (u - 1) & 1)
                if nx.check_planarity(H)[0]:
                    kept.append(H)
                    kept_adjs.append(cand)
        levels[n] = kept
        adjs = kept_adjs
    return levels


def abstract_graphs_edge_subsets(n: int) -> list[nx.Graph]:
    """Same class, enumerated as triangle-free edge subsets on n labelled
    vertices (DFS with triangle pruning), deduplicated with networkx alone
    and then filtered: the planarity test runs once per isomorphism class,
    on the same first representative that filtering first would keep."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    max_m = max(n - 1, 2 * n - 4 if n >= 3 else 1)
    found: list[nx.Graph] = []
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    chosen: list[Edge] = []

    def rec(i: int) -> None:
        if i == len(pairs):
            if len(chosen) >= n - 1:
                G = _nx_from_edges(n, chosen)
                if nx.is_connected(G):
                    found.append(G)
            return
        rec(i + 1)
        u, v = pairs[i]
        if len(chosen) < max_m and not (adj[u] & adj[v]):
            adj[u].add(v)
            adj[v].add(u)
            chosen.append((u, v))
            rec(i + 1)
            chosen.pop()
            adj[u].remove(v)
            adj[v].remove(u)

    rec(0)
    return [G for G in _iso_dedup(found) if _is_planar_tf(G)]


# ---------------------------------------------------------------------------
# embedding enumeration
# ---------------------------------------------------------------------------

def rotation_systems(G: nx.Graph, *, one_per_mirror_pair: bool = False
                     ) -> Iterator[Rotation]:
    """All sphere embeddings of a connected graph, as rotation tuples in
    normal form (each rotation starts at its smallest neighbour), in
    increasing tuple order (itertools.product over each vertex's candidate
    rotations, themselves in increasing order).

    A product element is kept when its face count meets Euler's formula.
    Directed edges are numbered so that each vertex's incoming edges take
    consecutive slots in sorted-neighbour order.  Each candidate rotation at
    v is then built once, as the slots that follow v's incoming edges on
    their faces, and a product element is traced as one flat permutation.

    With one_per_mirror_pair, a system whose mirror image (_mirror) is a
    smaller tuple is left out, and only the others are traced.  A rotation r
    in normal form at a vertex of degree <= 2 is its own mirror
    (r[0],) + r[:0:-1]; at degree >= 3 it never is, since that would need
    r[1] == r[-1].  So the first vertex of degree >= 3 decides the tuple
    comparison of a system with its mirror, and the product keeps there only
    the rotations smaller than their mirrors.  What is yielded is then a
    subsequence of the full order, still increasing, and half of it when
    some vertex has degree >= 3.
    """
    n = G.number_of_nodes()
    m = G.number_of_edges()
    nbrs = {v: sorted(G[v]) for v in range(1, n + 1)}
    slot: dict[Edge, int] = {}
    for v in range(1, n + 1):
        for u in nbrs[v]:
            slot[(u, v)] = len(slot)
    per_vertex = []
    halve = one_per_mirror_pair  # until the first vertex of degree >= 3
    for v in range(1, n + 1):
        ns = nbrs[v]
        if len(ns) <= 2:
            rots = [tuple(ns)]
        else:
            rots = [(ns[0],) + p for p in itertools.permutations(ns[1:])]
            if halve:
                rots = [r for r in rots if r < (r[0],) + r[:0:-1]]
                halve = False
        cands = []
        for r in rots:
            after = {u: r[(i + 1) % len(r)] for i, u in enumerate(r)}
            # entering v along (u, v), the face leaves along (v, after[u])
            cands.append((r, tuple(slot[(v, after[u])] for u in ns)))
        per_vertex.append(cands)
    darts = range(2 * m)
    want = 2 - n + m
    for combo in itertools.product(*per_vertex):
        succ = [d for _, tail in combo for d in tail]
        faces = 0
        for d in darts:
            if succ[d] >= 0:
                faces += 1
                while succ[d] >= 0:  # mark d traced, step along its face
                    succ[d], d = -1, succ[d]
        if faces == want:
            yield tuple(r for r, _ in combo)


def _faces(rot: Rotation) -> list[tuple[Edge, ...]]:
    """The face traces of a rotation system, in the order and from the start
    edges of PlaneGraph.faces."""
    after = [{u: r[(i + 1) % len(r)] for i, u in enumerate(r)} for r in rot]
    seen: set[Edge] = set()
    out = []
    for v, r in enumerate(rot, start=1):
        for u in r:
            if (v, u) in seen:
                continue
            face = []
            a, b = v, u
            while (a, b) not in seen:
                seen.add((a, b))
                face.append((a, b))
                a, b = b, after[b - 1][a]
            out.append(tuple(face))
    return out


def plane_graphs_of(G: nx.Graph) -> list[PlaneGraph]:
    """All plane graphs (embedding + outer face) of G, deduplicated with
    reflection included: for every rotation system and every face, in that
    order, the first plane graph of each canonical_form.

    Only one system of each mirror pair is traced and keyed (see the module
    docstring): its faces' keys already fold in the reflection."""
    out: list[PlaneGraph] = []
    seen: set[bytes] = set()
    for rot in rotation_systems(G, one_per_mirror_pair=True):
        mirror = _mirror(rot)
        for face in _faces(rot):
            key = _face_key(rot, mirror, face)
            if key not in seen:
                seen.add(key)
                out.append(PlaneGraph(rot, face[0]))
    return out


def enumerate_graphs(max_n: int,
                     order: Literal["augment", "edge_subsets"] = "augment",
                     ) -> Iterator[PlaneGraph]:
    """Every simple connected triangle-free plane graph with n <= max_n,
    one representative per embedding-with-outer-face class (reflections
    collapsed)."""
    if max_n > 12:
        raise PlaneGraphError("enumeration capped at n = 12")
    if max_n < 1:
        raise PlaneGraphError(f"max_n must be at least 1, got {max_n}")
    if order == "augment":
        levels = abstract_graphs_augment(max_n)
        per_n = [levels[n] for n in range(1, max_n + 1)]
    else:
        per_n = [abstract_graphs_edge_subsets(n) for n in range(1, max_n + 1)]
    # Rejected candidate graphs (in the edge_subsets order, every labelled
    # candidate) are garbage reference cycles (a networkx graph caches views
    # that point back to it).  The embedding half makes few container
    # objects, so the collector would reach them late and the process would
    # grow to hold both.
    gc.collect()
    for graphs in per_n:
        for G in graphs:
            if G.number_of_edges() == 0:
                yield PlaneGraph([()], (1, 1))
                continue
            yield from plane_graphs_of(G)


def enumerate_configurations(g: PlaneGraph) -> Iterator[tuple[int, int, int, int]]:
    """All boundary paths (four consecutive distinct walk vertices), following
    the walk direction; one per starting position."""
    walk = g.boundary_walk.vertices
    k = len(walk)
    if k < 4:
        return
    for i in range(k):
        quad = tuple(walk[(i + j) % k] for j in range(4))
        if len(set(quad)) == 4:
            yield quad  # type: ignore[misc]


# ---------------------------------------------------------------------------
# brute-force decomposition search
# ---------------------------------------------------------------------------

FWD, BWD, MAT = 0, 1, 2


def brute_force(g: PlaneGraph, path: Sequence[int], spec: ConstraintSpec,
                mode: Literal["exists", "count", "all"] = "exists",
                edge_cap: int = 18):
    """Exhaustive search over assignments of each non-centre edge to
    {arc forward, arc backward, matched}, pruned by degree and matching caps.

    Returns a bool, a count, or a list of decompositions depending on mode.
    """
    v1, v2, v3, v4 = path
    center = und(v2, v3)
    edges = sorted(set(g.edges) - {center})
    if len(edges) > edge_cap:
        raise PlaneGraphError(f"{len(edges)} edges exceeds brute-force cap {edge_cap}")

    pathpos = {v: i for i, v in enumerate(path)}
    boundary = g.boundary_vertices
    exempt = relaxed_exempt_set(g, path) if spec.relaxed else set()

    def out_cap(v: int) -> int:
        if v in pathpos:
            return spec.a[pathpos[v]]
        if v in boundary and v not in exempt:
            return 1
        return 2

    def match_cap(v: int) -> int:
        return spec.b[pathpos[v]] if v in pathpos else 1

    must_match: set[Edge] = set()
    must_arc: set[Edge] = set()
    partner_on_boundary: set[int] = set()
    for cond in spec.side_conditions:
        if isinstance(cond, EdgeInMatching):
            must_match.add(und(cond.u, cond.v))
        elif isinstance(cond, ArcInOrientation):
            must_arc.add((cond.u, cond.v))
        elif isinstance(cond, MatchedPartnerOnBoundary):
            partner_on_boundary.add(cond.v)

    outdeg = {v: 0 for v in g.vertices()}
    matched: set[int] = set()
    assign: list[int] = []
    results: list[Decomposition] = []
    count = 0

    def acyclic(arcs: list[Edge]) -> bool:
        succ: dict[int, list[int]] = {}
        indeg: dict[int, int] = {}
        for a, b in arcs:
            succ.setdefault(a, []).append(b)
            indeg[b] = indeg.get(b, 0) + 1
            indeg.setdefault(a, indeg.get(a, 0))
        queue = [v for v in indeg if indeg[v] == 0]
        done = 0
        while queue:
            v = queue.pop()
            done += 1
            for w in succ.get(v, ()):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return done == len(indeg)

    def emit() -> bool:
        nonlocal count
        arcs = []
        mat = []
        for (e, kind) in zip(edges, assign):
            u, v = e
            if kind == FWD:
                arcs.append((u, v))
            elif kind == BWD:
                arcs.append((v, u))
            else:
                mat.append(e)
        if not acyclic(arcs):
            return False
        count += 1
        if mode == "all":
            results.append(Decomposition.of(arcs, mat))
        return mode == "exists"

    def rec(i: int) -> bool:
        if i == len(edges):
            return emit()
        u, v = edges[i]
        e = (u, v)
        options = []
        if e not in must_match:
            if outdeg[u] < out_cap(u) and (v, u) not in must_arc:
                options.append(FWD)
            if outdeg[v] < out_cap(v) and (u, v) not in must_arc:
                options.append(BWD)
        if (e not in must_arc and (v, u) not in must_arc
                and u not in matched and v not in matched
                and match_cap(u) > 0 and match_cap(v) > 0
                and not (u in partner_on_boundary and v not in boundary)
                and not (v in partner_on_boundary and u not in boundary)):
            options.append(MAT)
        for kind in options:
            if kind == FWD:
                outdeg[u] += 1
            elif kind == BWD:
                outdeg[v] += 1
            else:
                matched.update(e)
            assign.append(kind)
            if rec(i + 1):
                return True
            assign.pop()
            if kind == FWD:
                outdeg[u] -= 1
            elif kind == BWD:
                outdeg[v] -= 1
            else:
                matched.difference_update(e)
        return False

    hit = rec(0)
    if mode == "exists":
        return hit
    if mode == "count":
        return count
    return results


# ---------------------------------------------------------------------------
# an independent re-statement of the verifier clauses (for cross-checking)
# ---------------------------------------------------------------------------

def verify_independent(g: PlaneGraph, path: Sequence[int], spec: ConstraintSpec,
                       dec: Decomposition) -> bool:
    """Clause-by-clause re-implementation of decomposition.verify, written
    directly from the definition; returns a bare bool."""
    v1, v2, v3, v4 = path
    center = und(v2, v3)
    cover: dict[Edge, int] = {}
    for a, b in dec.arcs:
        cover[und(a, b)] = cover.get(und(a, b), 0) + 1
    for e in dec.matching:
        cover[e] = cover.get(e, 0) + 1
    if any(c != 1 for c in cover.values()):
        return False
    if set(cover) != set(g.edges) - {center}:
        return False
    deg_m: dict[int, int] = {}
    for a, b in dec.matching:
        deg_m[a] = deg_m.get(a, 0) + 1
        deg_m[b] = deg_m.get(b, 0) + 1
    if any(d > 1 for d in deg_m.values()):
        return False
    if dec.find_cycle() is not None:
        return False
    for v in g.vertices():
        cap = 2
        if v in (v1, v2, v3, v4):
            cap = spec.a[list(path).index(v)]
        elif v in g.boundary_vertices:
            cap = 2 if (spec.relaxed and v in relaxed_exempt_set(g, path)) else 1
        if dec.out_degree(v) > cap:
            return False
    for i, v in enumerate(path):
        if deg_m.get(v, 0) > spec.b[i]:
            return False
    for cond in spec.side_conditions:
        if isinstance(cond, EdgeInMatching) and und(cond.u, cond.v) not in dec.matching:
            return False
        if isinstance(cond, ArcInOrientation) and (cond.u, cond.v) not in dec.arcs:
            return False
        if isinstance(cond, MatchedPartnerOnBoundary):
            p = dec.matched_partner(cond.v)
            if p is not None and p not in g.boundary_vertices:
                return False
    return True
