"""Independent ground truth: enumeration, canonical forms, brute-force search.

Everything here is deliberately simple and separate from the constructive
algorithm so it can serve as its oracle: plane graphs are enumerated from
scratch (abstract graphs, then rotation systems filtered by the Euler check),
and decompositions are found by exhaustive assignment with pruning.

Embeddings are deduplicated by canonical_form, which takes the least BFS code
over the outer face's directed edges and over those of the mirror image.  The
enumerator keys each (rotation system, face) pair with that same key without
building a PlaneGraph for it, and skips a rotation system outright when its
mirror image (every rotation reversed) is a smaller tuple: rotation_systems
yields in increasing order, so that mirror has already been keyed.  Its faces
are the skipped system's faces walked backwards, and the key folds in the
reflection, so every key the skipped system would produce is already seen and
it could never emit a graph.  The keys, and the (rotation, outer) pairs
emitted and their order, are therefore exactly those of keying every pair
with canonical_form.
"""

from __future__ import annotations

import gc
import itertools
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


def _encode(rot: Rotation, u0: int, v0: int) -> bytes:
    """The one BFS encoder behind bfs_encode, canonical_form, config_key and
    plane_graphs_of.  rot[w - 1] is the cyclic rotation at w, read from any
    starting neighbour; the code starts along the directed edge (u0, v0)."""
    n = len(rot)
    label = [0] * (n + 1)
    label[0] = 124  # b"|": vertex 0 stands for the row separator in flat
    label[u0] = 1
    arrival = [0] * (n + 1)
    arrival[u0] = v0
    order = [u0]
    flat: list[int] = []
    for w in order:  # order grows while it is read: a breadth-first queue
        r = rot[w - 1]
        i = r.index(arrival[w])
        row = r[i:] + r[:i]
        flat += row
        flat.append(0)
        for q in row:
            if not label[q]:
                label[q] = len(order) + 1
                arrival[q] = w
                order.append(q)
    flat.pop()
    return bytes([n]) + bytes(map(label.__getitem__, flat))


def _mirror(rot: Rotation) -> Rotation:
    """The mirror image: every rotation reversed, still starting at its first
    neighbour (so a rotation system in normal form maps to one in normal
    form)."""
    return tuple((r[0],) + r[:0:-1] if r else r for r in rot)


def _face_key(rot: Rotation, mirror: Rotation, face: Sequence[Edge],
              top: int = 0) -> bytes:
    """canonical_form of the plane graph (rot, face): the least code over the
    face's directed edges in rot and over their reversals in the mirror, whose
    outer face is the same walk traversed backwards.

    Starts whose tail has fewer than ``top`` neighbours are skipped.  That
    loses nothing when top is the largest degree on the face of a simple
    graph with n <= 123: a code from a tail of degree d reads n, 2, ..., d+1
    and then 124 (the row separator), where a code from a tail of larger
    degree reads d+2 < 124, so the latter is smaller.
    """
    return min(min(_encode(rot, u, v) for u, v in face if len(rot[u - 1]) >= top),
               min(_encode(mirror, v, u) for u, v in face if len(rot[v - 1]) >= top))


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
    the mirror image's outer walk when include_reflection is set).
    """
    if g.m == 0:
        return bytes([g.n])
    face = g.faces[g.outer_face_id]
    if include_reflection:
        return _face_key(g.rotation, _mirror(g.rotation), face)
    return min(_encode(g.rotation, u, v) for u, v in face)


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
# abstract graph enumeration
# ---------------------------------------------------------------------------

def _nx_from_edges(n: int, edges: Iterable[Edge]) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, n + 1))
    G.add_edges_from(edges)
    return G


def _iso_dedup(graphs: Iterable[nx.Graph]) -> list[nx.Graph]:
    buckets: dict[str, list[nx.Graph]] = {}
    out = []
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


def abstract_graphs_augment(max_n: int) -> dict[int, list[nx.Graph]]:
    """Connected triangle-free planar graphs up to isomorphism, by vertex
    augmentation: attach vertex n to a nonempty independent set of an
    (n-1)-vertex graph.  (Planarity and triangle-freeness are hereditary under
    vertex deletion, so pruning every level loses nothing.)"""
    levels: dict[int, list[nx.Graph]] = {1: [_nx_from_edges(1, [])]}
    for n in range(2, max_n + 1):
        cands = []
        for G in levels[n - 1]:
            verts = list(G.nodes())
            for r in range(1, n):
                for S in itertools.combinations(verts, r):
                    if any(G.has_edge(a, b) for a, b in itertools.combinations(S, 2)):
                        continue
                    H = G.copy()
                    H.add_node(n)
                    H.add_edges_from((n, s) for s in S)
                    if _is_planar_tf(H):
                        cands.append(H)
        levels[n] = _iso_dedup(cands)
    return levels


def abstract_graphs_edge_subsets(n: int) -> list[nx.Graph]:
    """Same class, enumerated as triangle-free edge subsets on n labelled
    vertices (DFS with triangle pruning), then filtered and deduplicated."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    max_m = max(n - 1, 2 * n - 4 if n >= 3 else 1)
    found: list[nx.Graph] = []
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    chosen: list[Edge] = []

    def rec(i: int) -> None:
        if i == len(pairs):
            if len(chosen) >= n - 1:
                G = _nx_from_edges(n, chosen)
                if nx.is_connected(G) and _is_planar_tf(G):
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
    return _iso_dedup(found)


# ---------------------------------------------------------------------------
# embedding enumeration
# ---------------------------------------------------------------------------

def rotation_systems(G: nx.Graph) -> Iterator[Rotation]:
    """All sphere embeddings of a connected graph, as rotation tuples in
    normal form (each rotation starts at its smallest neighbour), in
    increasing tuple order (itertools.product over each vertex's candidate
    rotations, themselves in increasing order).

    A product element is kept when its face count meets Euler's formula.
    Directed edges are numbered so that each vertex's incoming edges take
    consecutive slots in sorted-neighbour order.  Each candidate rotation at
    v is then built once, as the slots that follow v's incoming edges on
    their faces, and a product element is traced as one flat permutation.
    """
    n = G.number_of_nodes()
    m = G.number_of_edges()
    nbrs = {v: sorted(G[v]) for v in range(1, n + 1)}
    slot: dict[Edge, int] = {}
    for v in range(1, n + 1):
        for u in nbrs[v]:
            slot[(u, v)] = len(slot)
    per_vertex = []
    for v in range(1, n + 1):
        ns = nbrs[v]
        if len(ns) <= 2:
            rots = [tuple(ns)]
        else:
            rots = [(ns[0],) + p for p in itertools.permutations(ns[1:])]
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
    order, the first plane graph of each canonical_form."""
    out: list[PlaneGraph] = []
    seen: set[bytes] = set()
    for rot in rotation_systems(G):
        mirror = _mirror(rot)
        if mirror < rot:  # yielded, and keyed, before rot
            continue
        for face in _faces(rot):
            top = max(len(rot[u - 1]) for u, _ in face) if len(rot) <= 123 else 0
            key = _face_key(rot, mirror, face, top)
            if key not in seen:
                seen.add(key)
                out.append(PlaneGraph(rot, face[0]))
    return out


def enumerate_graphs(max_n: int, connected_only: bool = True,
                     order: Literal["augment", "edge_subsets"] = "augment",
                     ) -> Iterator[PlaneGraph]:
    """Every simple connected triangle-free plane graph with n <= max_n,
    one representative per embedding-with-outer-face class (reflections
    collapsed)."""
    if max_n > 12:
        raise PlaneGraphError("enumeration capped at n = 12")
    if not connected_only:
        raise PlaneGraphError("only connected enumeration is supported")
    if order == "augment":
        levels = abstract_graphs_augment(max_n)
        per_n = [levels[n] for n in range(1, max_n + 1)]
    else:
        per_n = [abstract_graphs_edge_subsets(n) for n in range(1, max_n + 1)]
    # Rejected candidate graphs are garbage reference cycles (a networkx
    # graph caches views that point back to it).  The embedding half makes
    # few container objects, so the collector would reach them late and the
    # process would grow to hold both.
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
