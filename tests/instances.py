"""Instances and references shared by the tests.

The hand-built larger instances reach branches the n <= 9 sweep cannot.
Each is given abstractly (edge list plus intended outer cycle); the
embedding is found by searching rotation systems, so only the combinatorial
shape is hand-made.  ``grid``, ``subdivided_ladder`` and ``grid_subgraph``
build grids, ladders and their relatives far beyond n = 9.  The
``reference_*`` functions are the whole-graph scans that the library
replaced with cheaper ones, kept as their references: the face flood and
the outside flood (``classify_darts_by_cycle``) behind ``cycle_sides``,
``int_subgraph`` and Ext(C), the DFS behind ``small_cycles``, the three
walk scans behind ``_walk_path``, the window sets behind the path checks,
the per-vertex arc scans behind ``verify_21`` and ``defective_coloring``,
the one piece per deleted vertex behind ``light_peel``, the plain
backtracking behind ``tiny_search``, and the edge-set comparison behind the
partition check of ``verify`` and ``verify_21``.  ``bench_grid_subgraph``
draws grid subgraphs with the benchmark's own generator, and
``bench_large_subgraph`` the grid subgraphs of its ``large`` workload.
``cubic_dual`` draws seeded plane duals of random triangulations, cubic and
triangle-free before they are thinned.  ``FALLING_APART`` holds graphs
whose G'' once fell apart in the recursion.
"""

from __future__ import annotations

import functools
import graphlib
import importlib.util
import itertools
import random
from pathlib import Path

import networkx as nx

from collections import Counter

from planedec.decomposition import (Decomposition, VerifyReport,
                                    block_of_center, degeneracy_order)
from planedec.oracle import enumerate_graphs, rotation_systems
from planedec.plane_graph import (Edge, Piece, PlaneGraph, PlaneGraphError,
                                  chords, extract_piece, und, validate)


def embed(n: int, edges: list[tuple[int, int]], outer_cycle: list[int]) -> PlaneGraph:
    """Find a plane embedding whose outer walk is the given cycle."""
    G = nx.empty_graph(range(1, n + 1))
    G.add_edges_from(edges)
    target = set(outer_cycle)
    for rot in rotation_systems(G):
        g = PlaneGraph(rot, (outer_cycle[0], outer_cycle[1]))
        walk = g.boundary_walk
        if walk.vertex_set == target and walk.is_simple_cycle() \
                and len(walk) == len(outer_cycle):
            if validate(g).ok:
                return g
    raise AssertionError("no plane embedding with the requested outer cycle")


# Cubic duals of random triangulations on which a G'' that falls apart once
# reached the recursion and raised "bridge of a block with attachments
# set()": Claim 8's G'' in A, Claim 10's in B.  In C, x dangles from y and y
# from a third vertex in Claim 8's G'', and the exhaustive search that once
# took it over ran for minutes.  D is cubic_dual(94, 13) (n = 184), where
# that search took Claim 10's G'', which fell apart, and matched z.  Each is
# (rotation, outer).
FALLING_APART = {
    "A": (
        ((2, 22, 7), (3, 15, 1), (4, 14, 2), (5, 26, 3), (6, 35, 4),
         (7, 32, 5), (1, 9, 6), (9, 22, 18), (10, 7, 8), (11, 29, 9),
         (12, 31, 10), (13, 36, 11), (14, 25, 12), (3, 24, 13), (16, 28, 2),
         (17, 21, 15), (18, 20, 16), (8, 19, 17), (18, 23, 20), (19, 21, 17),
         (20, 28, 16), (8, 1, 23), (22, 28, 19), (14, 26, 25), (24, 27, 13),
         (24, 4, 27), (26, 34, 25), (15, 21, 23), (30, 32, 10), (31, 33, 29),
         (11, 36, 30), (33, 6, 29), (30, 35, 32), (35, 36, 27), (5, 33, 34),
         (31, 12, 34)),
        (8, 18)),
    "B": (
        ((2, 20, 4), (3, 67, 1), (4, 76, 2), (1, 21, 3), (6, 14, 8),
         (7, 75, 5), (8, 31, 6), (5, 15, 7), (10, 76, 21), (11, 25, 9),
         (12, 26, 10), (13, 70, 11), (14, 32, 12), (5, 75, 13), (16, 30, 8),
         (17, 22, 15), (18, 24, 16), (19, 46, 17), (20, 45, 18), (21, 1, 19),
         (9, 4, 20), (23, 40, 16), (24, 48, 22), (17, 47, 23), (26, 76, 10),
         (11, 71, 25), (28, 63, 34), (29, 74, 27), (30, 73, 28), (15, 35, 29),
         (32, 75, 7), (33, 13, 31), (34, 59, 32), (27, 58, 33), (36, 58, 30),
         (37, 61, 35), (38, 41, 36), (39, 51, 37), (40, 66, 38), (22, 72, 39),
         (42, 37, 51), (43, 61, 41), (44, 54, 42), (45, 68, 43), (46, 19, 44),
         (47, 18, 45), (48, 24, 46), (49, 23, 47), (50, 72, 48), (51, 66, 49),
         (41, 38, 50), (53, 64, 57), (54, 69, 52), (55, 43, 53), (56, 61, 54),
         (57, 60, 55), (52, 65, 56), (34, 62, 35), (60, 64, 33), (56, 65, 59),
         (36, 42, 55), (63, 73, 58), (27, 74, 62), (65, 52, 59), (60, 57, 64),
         (39, 72, 50), (68, 2, 71), (69, 44, 67), (70, 53, 68), (71, 12, 69),
         (67, 26, 70), (49, 66, 40), (62, 74, 29), (73, 63, 28), (6, 31, 14),
         (3, 9, 25)),
        (42, 61)),
    "C": (
        ((2, 51, 4), (3, 17, 1), (4, 22, 2), (1, 52, 3), (6, 49, 8),
         (7, 33, 5), (8, 32, 6), (5, 51, 7), (10, 20, 12), (11, 24, 9),
         (12, 23, 10), (9, 21, 11), (14, 22, 16), (15, 21, 13), (16, 26, 14),
         (13, 53, 15), (18, 32, 2), (19, 31, 17), (20, 25, 18), (9, 24, 19),
         (14, 23, 12), (3, 53, 13), (21, 26, 11), (25, 20, 10), (26, 19, 24),
         (23, 15, 25), (28, 37, 34), (29, 39, 27), (30, 35, 28), (31, 36, 29),
         (32, 18, 30), (7, 17, 31), (34, 49, 6), (27, 50, 33), (36, 47, 29),
         (30, 54, 35), (38, 50, 27), (39, 55, 37), (28, 48, 38), (41, 45, 44),
         (42, 56, 40), (43, 55, 41), (44, 54, 42), (40, 46, 43), (46, 40, 48),
         (47, 44, 45), (35, 54, 46), (45, 56, 39), (50, 5, 33), (34, 37, 49),
         (52, 1, 8), (53, 4, 51), (16, 22, 52), (43, 47, 36), (38, 56, 42),
         (55, 48, 41)),
        (1, 4)),
    "D": (
        ((7,3,26), (4,6,71), (1,5,25), (5,2,102), (3,4,76), (2,12,67),
         (10,1,154), (12,11,103), (11,10,175), (9,7,153), (8,9,129),
         (6,8,151), (20,19,27), (23,18,140), (16,24,107), (21,15,174),
         (22,23,66), (14,20,141), (13,21,28), (18,13,178), (19,16,100),
         (24,17,97), (17,14,35), (15,22,167), (27,3,33), (1,28,78),
         (13,25,170), (26,19,98), (35,32,66), (31,33,79), (32,30,116),
         (29,31,64), (30,36,25), (36,37,179), (37,29,23), (33,34,170),
         (34,35,140), (39,42,72), (40,38,95), (43,39,142), (42,43,173),
         (38,41,71), (41,40,125), (50,46,83), (48,49,121), (44,48,77),
         (51,52,144), (46,45,128), (45,51,120), (52,44,169),
         (49,47,160), (47,50,145), (58,57,97), (57,56,100), (56,59,115),
         (54,55,99), (53,54,96), (59,53,112), (55,58,114), (62,61,119),
         (60,63,118), (63,60,147), (61,62,146), (65,32,116),
         (66,64,111), (29,65,17), (74,6,148), (73,70,88), (70,74,163),
         (68,69,158), (2,42,103), (38,73,95), (72,68,142), (69,67,85),
         (79,78,111), (81,5,120), (78,46,127), (75,77,26), (30,75,116),
         (82,81,138), (80,76,159), (83,80,183), (44,82,169),
         (87,88,158), (89,87,74), (88,89,171), (85,84,163), (84,86,68),
         (86,85,148), (93,92,104), (92,94,132), (90,91,105),
         (94,90,110), (91,93,133), (39,72,142), (97,57,174), (53,96,22),
         (100,101,28), (101,56,115), (54,98,21), (98,99,113),
         (4,103,121), (102,71,8), (90,108,110), (107,92,132),
         (108,107,167), (106,105,15), (104,106,109), (110,108,167),
         (104,109,93), (75,112,65), (111,113,58), (112,101,114),
         (115,59,113), (55,114,99), (31,79,64), (119,118,136),
         (117,61,146), (60,117,162), (76,49,159), (45,102,128),
         (124,123,149), (122,126,150), (125,122,172), (126,124,43),
         (123,125,171), (77,131,154), (129,48,121), (130,128,11),
         (131,129,175), (127,130,156), (91,133,105), (132,94,174),
         (135,136,147), (139,134,162), (134,137,117), (136,138,168),
         (137,139,80), (138,135,183), (14,141,37), (140,18,178),
         (40,95,73), (144,145,183), (47,143,160), (143,52,169),
         (147,118,63), (134,146,62), (67,150,89), (122,151,172),
         (148,123,171), (149,12,173), (153,157,164), (154,152,10),
         (127,153,7), (157,156,181), (155,131,180), (152,155,166),
         (84,70,163), (120,161,81), (161,51,144), (159,160,168),
         (135,119,168), (69,87,158), (152,165,176), (164,166,184),
         (165,157,181), (106,24,109), (162,137,161), (50,83,145),
         (27,36,179), (86,150,126), (149,173,124), (172,151,41),
         (16,133,96), (9,177,130), (177,164,184), (175,176,182),
         (179,141,20), (34,178,170), (181,156,182), (155,180,166),
         (180,177,184), (82,139,143), (176,165,182)),
        (91, 92)),
}


def claim9_instance() -> tuple[PlaneGraph, tuple[int, int, int, int]]:
    """9-gon with two chord-linked 2-chord middles: the greedy cycle gets a
    chord (n = 11)."""
    edges = [(i, i % 9 + 1) for i in range(1, 10)]
    edges += [(4, 10), (6, 10), (8, 11), (1, 11), (10, 11)]
    return embed(11, edges, list(range(1, 10))), (1, 2, 3, 4)


def claim10_instance() -> tuple[PlaneGraph, tuple[int, int, int, int]]:
    """10-gon with two far-apart 2-chord hops joined through an inner vertex:
    a long all-boundary run between greedy-cycle milestones (n = 13)."""
    edges = [(i, i % 10 + 1) for i in range(1, 11)]
    edges += [(4, 11), (6, 11), (8, 12), (10, 12), (11, 13), (12, 13), (7, 13)]
    return embed(13, edges, list(range(1, 11))), (1, 2, 3, 4)


def claim11_instance() -> tuple[PlaneGraph, tuple[int, int, int, int]]:
    """11-gon whose three 2-chord hops start only one step after z, so the
    first greedy-cycle milestone sits late (n = 15)."""
    edges = [(i, i % 11 + 1) for i in range(1, 12)]
    edges += [(5, 12), (7, 12), (7, 13), (9, 13), (9, 14), (11, 14),
              (12, 15), (13, 15), (14, 15)]
    return embed(15, edges, list(range(1, 12))), (1, 2, 3, 4)


def final_instance() -> tuple[PlaneGraph, tuple[int, int, int, int]]:
    """9-gon with three alternating 2-chord hops around an inner hub: the
    greedy cycle runs y, z, then milestone/boundary pairs up to w (n = 13)."""
    edges = [(i, i % 9 + 1) for i in range(1, 10)]
    edges += [(4, 10), (6, 10), (6, 11), (8, 11), (8, 12), (1, 12),
              (10, 13), (11, 13), (12, 13)]
    return embed(13, edges, list(range(1, 10))), (1, 2, 3, 4)


def claim9_chord_arc_instance() -> PlaneGraph:
    """A spanning subgraph of the 5 x 5 grid (n = 25, m = 38, vertex (i, j)
    is 1 + 5i + j) whose Claim 9 step finds the chord of the greedy cycle
    oriented from wi to wj in D'."""
    rot = ((2, 6), (3, 7, 1), (4, 2), (5, 9, 3), (10, 4), (1, 7, 11),
           (2, 8, 12, 6), (9, 13, 7), (4, 10, 14, 8), (5, 15, 9), (6, 12, 16),
           (7, 13, 17, 11), (8, 14, 12), (9, 15, 19, 13), (10, 20, 14),
           (11, 17, 21), (12, 18, 22, 16), (19, 23, 17), (14, 20, 24, 18),
           (15, 25, 19), (16, 22), (17, 23, 21), (18, 24, 22), (19, 25, 23),
           (20, 24))
    g = PlaneGraph(rot, (1, 2))
    assert validate(g).ok
    return g


def grid(r: int, c: int) -> PlaneGraph:
    """The r x c grid (r, c >= 2, r * c > 4), a ladder when r = 2; vertex
    (i, j) is 1 + i*c + j."""
    rot = []
    for i in range(r):
        for j in range(c):
            rot.append(tuple(1 + a * c + b
                             for a, b in ((i - 1, j), (i, j + 1), (i + 1, j), (i, j - 1))
                             if 0 <= a < r and 0 <= b < c))
    # one side of the edge 1-2 is a corner square, the other the outer face
    for outer in ((1, 2), (2, 1)):
        g = PlaneGraph(rot, outer)
        if len(g.boundary_walk) == 2 * (r + c) - 4:
            assert validate(g).ok
            return g
    raise AssertionError("no outer face of length 2(r + c) - 4")


def nested_squares(k: int) -> PlaneGraph:
    """C4 x P_k: k concentric 4-cycles, each vertex joined by a rung to its
    copy on the next; vertex i of square j (outermost j = 0) is 1 + 4j + i.
    Every square but the outermost and the innermost separates."""
    rot = []
    for j in range(k):
        for i in range(4):
            rot.append(tuple(1 + 4 * a + b % 4
                             for a, b in ((j - 1, i), (j, i + 1), (j + 1, i), (j, i - 1))
                             if 0 <= a < k))
    g = next(g for g in (PlaneGraph(rot, (1, 2)), PlaneGraph(rot, (2, 1)))
             if g.boundary_vertices == {1, 2, 3, 4})
    assert validate(g).ok
    return g


def stale_cache_entries(g: PlaneGraph) -> list[str]:
    """The names of g's cached derived data that differ from what a fresh
    PlaneGraph(g.rotation, g.outer) computes.  Blocks compare as a set:
    their DFS follows the rotations, which a mirror runs backwards."""
    fresh = PlaneGraph(g.rotation, g.outer)
    out = []
    for name, value in g.__dict__.items():
        if name in ("rotation", "outer"):
            continue
        want = getattr(fresh, name)
        if name == "block_decomposition":
            value = (set(value.blocks), value.cut_vertices)
            want = (set(want.blocks), want.cut_vertices)
        if value != want:
            out.append(name)
    return out


def same_piece(got: Piece, want: Piece) -> bool:
    """Whether two pieces have the same rotations, outer edge and vertex
    map."""
    return (got.graph.rotation == want.graph.rotation
            and got.graph.outer == want.graph.outer
            and got.to_parent == want.to_parent)


@functools.cache
def face_test_graphs() -> tuple[PlaneGraph, ...]:
    """Every graph of enumerate_graphs(7), a 6 x 6 grid and a 2 x 12 ladder."""
    return (*enumerate_graphs(7), grid(6, 6), grid(2, 12))


@functools.cache
def large_grids() -> tuple[PlaneGraph, ...]:
    """The k x k grids for 4 <= k <= 13 and the 2 x L ladders for
    L = 10, 20, ..., 80: the full grids and ladders of the benchmark's
    ``large`` workload that decompose quickly."""
    return (*(grid(k, k) for k in range(4, 14)),
            *(grid(2, L) for L in range(10, 90, 10)))


def adjacency_graph(G: nx.Graph) -> PlaneGraph:
    """G (any graph, triangles allowed) with vertices relabelled 1..n and
    sorted neighbour lists as rotations: enough for searches that read only
    neighbourhoods, such as ``small_cycles``."""
    label = {v: i for i, v in enumerate(sorted(G), 1)}
    rot = [tuple(sorted(label[u] for u in G[v])) for v in sorted(G)]
    return PlaneGraph(rot, (1, rot[0][0]))


def reference_small_cycles(g: PlaneGraph, lengths=(4, 5)) -> list[tuple[int, ...]]:
    """All cycles of the given lengths by a DFS from every vertex, each
    rotated to its least vertex and turned so that its second vertex is the
    smaller neighbour of it, sorted."""
    out: set[tuple[int, ...]] = set()
    maxlen = max(lengths)
    nbr = {v: sorted(g.neighbors(v)) for v in g.vertices()}

    def dfs(path: list[int]) -> None:
        v = path[-1]
        for u in nbr[v]:
            if u == path[0] and len(path) in lengths:
                cyc = path[:]
                i = cyc.index(min(cyc))
                cyc = cyc[i:] + cyc[:i]
                if cyc[1] > cyc[-1]:
                    cyc = [cyc[0]] + cyc[:0:-1]
                out.add(tuple(cyc))
            if u > path[0] and u not in path and len(path) < maxlen:
                path.append(u)
                dfs(path)
                path.pop()

    for s in g.vertices():
        dfs([s])
    return sorted(out)


def classify_darts_by_cycle(g: PlaneGraph, cycle_edges: set[Edge]
                            ) -> tuple[set[Edge], set[Edge]]:
    """Split the darts into (inside, outside) of a cycle given by its
    undirected edges.  Outside is every dart reachable from the outer edge
    without crossing the cycle: a dart steps to the next dart of its face,
    and to its reversal unless its edge is on the cycle."""
    outside = {g.outer}
    stack = [g.outer]
    while stack:
        u, v = stack.pop()
        steps = [g.face_next(u, v)]
        if und(u, v) not in cycle_edges:
            steps.append((v, u))
        for d in steps:
            if d not in outside:
                outside.add(d)
                stack.append(d)
    inside = {(v, u) for v in g.vertices() for u in g.neighbors(v)} - outside
    return inside, outside


def reference_int_subgraph(g: PlaneGraph, cycle: list[int]) -> Piece:
    """Int(C) from the whole-graph dart classification: the outside is
    flooded from g.outer, everything else is inside, and the piece's outer
    edge is the first dart of the cycle's edges found outside."""
    k = len(cycle)
    cyc_edges = {und(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    inside, outside = classify_darts_by_cycle(g, cyc_edges)
    verts = set(cycle)
    for v in g.vertices():
        nbrs = g.neighbors(v)
        if nbrs and all((v, u) in inside for u in nbrs):
            verts.add(v)

    def keep(u: int, v: int) -> bool:
        return (u, v) in inside or (v, u) in inside

    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        for de in ((a, b), (b, a)):
            if de in outside:
                return extract_piece(g, verts, keep_edge=keep, outer_parent_edge=de)
    raise PlaneGraphError("cycle has no outside face side")


def reference_ext_subgraph(g: PlaneGraph, cycle: list[int]) -> Piece:
    """Ext(C) from the whole-graph dart classification: the cycle, every
    vertex all of whose darts lie outside, every edge with a dart outside,
    and g's outer edge."""
    k = len(cycle)
    cyc_edges = {und(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    _, outside = classify_darts_by_cycle(g, cyc_edges)
    verts = set(cycle)
    for v in g.vertices():
        nbrs = g.neighbors(v)
        if nbrs and all((v, u) in outside for u in nbrs):
            verts.add(v)

    def keep(u: int, v: int) -> bool:
        return (u, v) in outside or (v, u) in outside

    return extract_piece(g, verts, keep_edge=keep, outer_parent_edge=g.outer)


def reference_walk_scans(walk: list[int], steps: tuple[int, ...]
                         ) -> tuple[int, ...] | None:
    """The scan that ``_walk_path(walk, steps)`` replaced, by the number
    of steps: the first window of four distinct vertices (no steps); a path
    (p, u, v, s) around a step u -> v or v -> u (two); a path (p, a, b, c)
    ending in the steps a -> b -> c or c -> b -> a (three)."""
    vs, k = walk, len(walk)
    for i in range(k):
        if not steps:
            quad = tuple(vs[(i + j) % k] for j in range(4))
            if len(set(quad)) == 4:
                return quad
        elif len(steps) == 2:
            u, v = steps
            a, b = vs[i], vs[(i + 1) % k]
            if (a, b) == (u, v):
                quad = (vs[(i - 1) % k], u, v, vs[(i + 2) % k])
                if len(set(quad)) == 4:
                    return quad
            if (a, b) == (v, u):
                quad = (vs[(i + 2) % k], u, v, vs[(i - 1) % k])
                if len(set(quad)) == 4:
                    return quad
        else:
            a, b, c = steps
            if (vs[i], vs[(i + 1) % k], vs[(i + 2) % k]) == (a, b, c):
                quad = (vs[(i - 1) % k], a, b, c)
                if len(set(quad)) == 4:
                    return quad
            if (vs[i], vs[(i + 1) % k], vs[(i + 2) % k]) == (c, b, a):
                quad = (vs[(i + 3) % k], a, b, c)
                if len(set(quad)) == 4:
                    return quad
    return None


@functools.lru_cache(maxsize=4)
def _windows(g: PlaneGraph) -> list[tuple[int, ...]]:
    """Every four consecutive vertices of the boundary walk, wrapping around
    (cached, as tests probe one graph with many paths)."""
    walk = g.boundary_walk.vertices
    k = len(walk)
    return [tuple(walk[(i + j) % k] for j in range(4)) for i in range(k)]


def reference_check_config_path(g: PlaneGraph, path) -> str | None:
    """``check_config_path`` against the set of all boundary 4-windows."""
    if len(path) != 4 or len(set(path)) != 4:
        return f"path {tuple(path)} is not four distinct vertices"
    quads = set(_windows(g))
    t = tuple(path)
    if t in quads or tuple(reversed(t)) in quads:
        return None
    return f"path {t} is not consecutive on the boundary walk"


def reference_path_orientation(g: PlaneGraph, path) -> int:
    """``path_orientation`` by scanning every window, forward first."""
    t = tuple(path)
    quads = _windows(g)
    if t in quads:
        return 1
    if tuple(reversed(t)) in quads:
        return -1
    raise PlaneGraphError(f"path {t} not on boundary walk")


def reference_outside_faces(g: PlaneGraph, cycle_edges: set[Edge]
                            ) -> tuple[dict[Edge, int], set[int]]:
    """(dart -> index into g.faces, the faces reachable from the outer face
    without crossing a cycle edge), by a flood over the face adjacency."""
    face_of = {d: i for i, f in enumerate(g.faces) for d in f}
    adj: dict[int, set[int]] = {i: set() for i in range(len(g.faces))}
    for (u, v), i in face_of.items():
        if und(u, v) not in cycle_edges:
            adj[i].add(face_of[(v, u)])
    outside = {face_of[g.outer]}
    stack = list(outside)
    while stack:
        for h in adj[stack.pop()]:
            if h not in outside:
                outside.add(h)
                stack.append(h)
    return face_of, outside


def reference_verify_21(g: PlaneGraph, dec: Decomposition) -> VerifyReport:
    """``verify_21`` with one scan of all arcs per vertex for the out-degree
    cap."""
    want = set(g.edges)
    got = dec.covered_edges()
    if len(got) != len(set(got)):
        dup = sorted(e for e in set(got) if got.count(e) > 1)
        return VerifyReport(False, "partition", f"edges covered twice: {dup}")
    if set(got) != want:
        return VerifyReport(False, "partition",
                            f"missing={sorted(want - set(got))} "
                            f"extra={sorted(set(got) - want)}")
    touched: set[int] = set()
    for u, v in dec.matching:
        if u in touched or v in touched:
            return VerifyReport(False, "matching",
                                f"vertex covered twice by M near {u}-{v}")
        touched.update((u, v))
    cyc = dec.find_cycle()
    if cyc:
        return VerifyReport(False, "acyclic", f"directed cycle {cyc}")
    for v in g.vertices():
        if dec.out_degree(v) > 2:
            return VerifyReport(False, "outdeg", f"out-degree {dec.out_degree(v)} at {v}")
    return VerifyReport(True)


def reference_defective_coloring(g: PlaneGraph, dec: Decomposition) -> dict[int, int]:
    """``defective_coloring`` with one scan of all arcs per vertex for its
    out-neighbours."""
    rep = reference_verify_21(g, dec)
    if not rep:
        raise ValueError(f"not a valid decomposition: {rep.clause}: {rep.detail}")
    colors: dict[int, int] = {}
    for v in degeneracy_order(dec, g.vertices()):
        forbidden = {colors[w] for w in dec.out_neighbors(v)}
        colors[v] = min(c for c in (1, 2, 3) if c not in forbidden)
    return colors


def subdivided_ladder(L: int) -> PlaneGraph:
    """The 2 x L ladder with each of its L - 2 inner rungs subdivided once
    (n = 3L - 2): rung j, joining j + 1 and L + j + 1, gets the midpoint
    2L + j, an interior vertex of degree 2."""
    lad = grid(2, L)
    mid = {}
    for j in range(1, L - 1):
        mid[j + 1, L + j + 1] = mid[L + j + 1, j + 1] = 2 * L + j
    rot = [tuple(mid.get((v, u), u) for u in lad.neighbors(v))
           for v in lad.vertices()]
    rot += [(j + 1, L + j + 1) for j in range(1, L - 1)]
    g = PlaneGraph(rot, lad.outer)
    assert validate(g).ok
    return g


def grid_subgraph(k: int, keep_share: float, seed: int) -> PlaneGraph:
    """A seeded connected spanning subgraph of the k x k grid: a random
    spanning tree (Kruskal over shuffled edges) plus each other edge with
    probability keep_share."""
    full = grid(k, k)
    rng = random.Random(seed)
    edges = sorted(full.edges)
    rng.shuffle(edges)
    root = list(range(k * k + 1))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    dropped = set()
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
        elif rng.random() >= keep_share:
            dropped.add((u, v))
    rot = [tuple(u for u in full.neighbors(v) if und(u, v) not in dropped)
           for v in full.vertices()]
    # dropping edges merges faces into the outer one, never out of it
    outer = next(d for d in full.trace_face(*full.outer) if und(*d) not in dropped)
    g = PlaneGraph(rot, outer)
    assert validate(g).ok
    return g


def cubic_dual(V: int, seed: int, share: float = 0.0) -> PlaneGraph:
    """The plane dual (n = 2V - 4, cubic and triangle-free) of a seeded
    random triangulation on V >= 8 vertices with minimum degree >= 4, in the
    manner of plantri's minimum-degree classes (Brinkmann & McKay, MATCH 58
    (2007)), with ``share`` of its edges then deleted at random while it
    stays connected, and a random outer face.

    The triangulation grows from a triangle, each new vertex inserted into
    a random face, and then takes rounds of random edge flips until its
    minimum degree is 4; a flip that would leave an end below degree 4 or
    double an edge is refused.  ``third`` maps each dart (u, v) to the
    third vertex of the face on its left; it, the adjacency sets and the
    edge list change with each insertion and flip, so a flip costs O(1).
    The thinned graphs of (V, seed) share its triangulation."""
    rng = random.Random(f"cubic-dual {V} {seed}")
    third = {(0, 1): 2, (1, 2): 0, (2, 0): 1, (0, 2): 1, (2, 1): 0, (1, 0): 2}
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    edges = [(0, 1), (1, 2), (0, 2)]
    darts = list(third)
    for p in range(3, V):
        a, b = rng.choice(darts)
        c = third[a, b]
        adj[p] = {a, b, c}
        for u, v in ((a, b), (b, c), (c, a)):
            third[u, v], third[v, p], third[p, u] = p, u, v
            darts += [(v, p), (p, u)]
            adj[u].add(p)
            edges.append((u, p))
    low = sum(len(nb) < 4 for nb in adj.values())
    while low:
        for _ in range(len(edges)):
            i = rng.randrange(len(edges))
            u, v = edges[i]
            w, x = third[u, v], third[v, u]
            if len(adj[u]) <= 4 or len(adj[v]) <= 4 or x in adj[w]:
                continue
            del third[u, v], third[v, u]
            third[u, x], third[x, w], third[w, u] = w, u, x
            third[x, v], third[v, w], third[w, x] = w, x, v
            adj[u].remove(v)
            adj[v].remove(u)
            low -= (len(adj[w]) == 3) + (len(adj[x]) == 3)
            adj[w].add(x)
            adj[x].add(w)
            edges[i] = (w, x)
    # the dual: a vertex per face, its neighbours across the face's sides
    # in the order of its darts
    face: dict[tuple[int, int], int] = {}
    for u, v in sorted(third):
        if (u, v) not in face:
            w = third[u, v]
            face[u, v] = face[v, w] = face[w, u] = len(face) // 3 + 1
    rot = {f: [face[v, u], face[third[u, v], v], face[u, third[u, v]]]
           for (u, v), f in face.items()}
    links = [(f, q) for f in sorted(rot) for q in rot[f] if f < q]
    rng.shuffle(links)
    cut = int(share * len(links))
    for f, q in links:
        if not cut:
            break
        i, j = rot[f].index(q), rot[q].index(f)
        del rot[f][i], rot[q][j]
        seen, stack = {f}, [f]
        while stack:
            for t in rot[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if q in seen:
            cut -= 1
        else:
            rot[f].insert(i, q)
            rot[q].insert(j, f)
    f = rng.randrange(1, len(rot) + 1)
    g = PlaneGraph(rot, (f, rng.choice(rot[f])))
    assert validate(g).ok
    return g


def reference_claim1_order(g: PlaneGraph) -> list[tuple[int, int, list[int]]]:
    """Claim 1 as one recursion level per vertex: at each level the first
    interior vertex of degree <= 2, in id order, whose deletion leaves the
    piece connected.  Gives (its id at its level, its id in g, its
    neighbours at its level as ids in g) per deleted vertex, in order."""
    out = []
    to_g = list(g.vertices())
    while True:
        for v in g.vertices():
            if v in g.boundary_vertices or g.degree(v) > 2:
                continue
            piece = extract_piece(g, set(g.vertices()) - {v},
                                  outer_parent_edge=g.outer)
            if piece.graph.is_connected():
                out.append((v, to_g[v - 1],
                            sorted(to_g[q - 1] for q in g.neighbors(v))))
                to_g = [to_g[p - 1] for p in piece.to_parent]
                g = piece.graph
                break
        else:
            return out


def reference_tiny_search(edges: list[Edge], out_cap: dict[int, int],
                          forbid_match: set[int]) -> Decomposition | None:
    """The plain 3^m backtracking: each edge tries the forward arc, the
    backward arc and a matching edge, and only a full leaf is checked for a
    cycle."""
    arcs: list[Edge] = []
    matched: set[int] = set()
    outdeg: dict[int, int] = {}

    def rec(i: int) -> bool:
        if i == len(edges):
            return Decomposition.of(arcs).find_cycle() is None
        u, v = edges[i]
        for kind in ("fwd", "bwd", "mat"):
            if kind == "fwd" and outdeg.get(u, 0) >= out_cap[u]:
                continue
            if kind == "bwd" and outdeg.get(v, 0) >= out_cap[v]:
                continue
            if kind == "mat" and (u in matched or v in matched
                                  or u in forbid_match or v in forbid_match):
                continue
            if kind == "fwd":
                outdeg[u] = outdeg.get(u, 0) + 1
                arcs.append((u, v))
            elif kind == "bwd":
                outdeg[v] = outdeg.get(v, 0) + 1
                arcs.append((v, u))
            else:
                matched.update((u, v))
            if rec(i + 1):
                return True
            if kind == "fwd":
                outdeg[u] -= 1
                arcs.pop()
            elif kind == "bwd":
                outdeg[v] -= 1
                arcs.pop()
            else:
                matched.difference_update((u, v))
        return False

    if rec(0):
        covered = {und(a, b) for a, b in arcs}
        return Decomposition.of(arcs, [e for e in edges if e not in covered])
    return None


@functools.cache
def _bench_generators():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("perfbench_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_large_subgraph(seed: int, k: int, share: float, i: int) -> PlaneGraph:
    """The i-th grid subgraph of size k and share ``share`` in the benchmark's
    ``large`` workload at the seed, drawn by ``perfbench/generators.py`` as
    that workload draws it."""
    rng = random.Random(f"subgraph:{seed}:{k}:{share}:{i}")
    return _bench_generators().grid_subgraph(k, share, rng)


def bench_grid_subgraph(seed: int, k: int, share: float) -> PlaneGraph:
    """A spanning subgraph of the k x k grid with ``share`` of its non-tree
    edges dropped, drawn by ``perfbench/generators.py`` from the seed
    1000 seed + 10 k + int(100 share) (the ROADMAP's set of 180)."""
    rng = random.Random(1000 * seed + 10 * k + int(100 * share))
    return _bench_generators().grid_subgraph(k, share, rng)


def reference_two_chords(g: PlaneGraph) -> set[tuple[int, int, int]]:
    """``two_chords`` by a scan over every vertex off the boundary walk."""
    bset = g.boundary_vertices
    out = set()
    for m in g.vertices():
        if m not in bset:
            ends = sorted(u for u in g.neighbors(m) if u in bset)
            out.update((a, m, b) for a, b in itertools.combinations(ends, 2))
    return out


def reference_cstar_chord(g: PlaneGraph, seq: list[int]) -> tuple[int, int] | None:
    """Claim 9's chord of C* = seq by a ``has_edge`` test on every pair of
    positions (i, j), in lexicographic order: j >= i + 2, both milestones
    interior, and not C*'s own edge from its last position to its first."""
    boundary = g.boundary_vertices
    s = len(seq)
    for i, j in itertools.combinations(range(s), 2):
        a, b = seq[i], seq[j]
        if (j - i >= 2 and not (i == 0 and j == s - 1) and g.has_edge(a, b)
                and a not in boundary and b not in boundary):
            return i, j
    return None


def reference_degeneracy_order(dec: Decomposition, vertices) -> list[int]:
    """``degeneracy_order`` by ``graphlib.TopologicalSorter``, each batch of
    ready vertices sorted; out-neighbours are fed as predecessors."""
    succ: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in dec.arcs:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    ts = graphlib.TopologicalSorter({v: sorted(ws) for v, ws in succ.items()})
    order: list[int] = []
    ts.prepare()
    while ts.is_active():
        batch = sorted(ts.get_ready())
        order.extend(batch)
        ts.done(*batch)
    return order


def reference_relaxed_exempt_set(g: PlaneGraph, path) -> set[int]:
    """``relaxed_exempt_set`` read on a copy of the centre block, whatever
    g is: the chord neighbours of the centre vertices on its boundary."""
    piece = block_of_center(g, path)
    cm = piece.child_of
    centers = {cm[path[1]], cm[path[2]]}
    out = set()
    for u, v in chords(piece.graph):
        if u in centers:
            out.add(piece.parent_of(v))
        if v in centers:
            out.add(piece.parent_of(u))
    return out


def reference_partition_failure(dec: Decomposition, want: set[Edge]
                                ) -> VerifyReport | None:
    """The partition check of ``verify`` and ``verify_21`` against the set
    of wanted edges: the set of covered edges decides, its size telling
    whether one was covered twice."""
    once = {(u, v) if u < v else (v, u) for u, v in dec.arcs}
    once |= dec.matching
    if len(once) == len(dec.arcs) + len(dec.matching) and once == want:
        return None
    got = dec.covered_edges()
    if len(once) != len(got):
        dup = sorted(e for e, c in Counter(got).items() if c > 1)
        return VerifyReport(False, "partition", f"edges covered twice: {dup}")
    return VerifyReport(False, "partition",
                        f"missing={sorted(want - once)} extra={sorted(once - want)}")
