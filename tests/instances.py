"""Instances and references shared by the tests.

The hand-built larger instances reach branches the n <= 9 sweep cannot.
Each is given abstractly (edge list plus intended outer cycle); the
embedding is found by searching rotation systems, so only the combinatorial
shape is hand-made.  ``grid`` builds grids and ladders far beyond n = 9, and
``reference_outside_faces`` is the whole-graph face flood that the dart
classification of ``plane_graph`` replaced, kept as its reference.
"""

from __future__ import annotations

import functools

import networkx as nx

from planedec.oracle import enumerate_graphs, rotation_systems
from planedec.plane_graph import Edge, PlaneGraph, und, validate


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


@functools.cache
def face_test_graphs() -> tuple[PlaneGraph, ...]:
    """Every graph of enumerate_graphs(7), a 6 x 6 grid and a 2 x 12 ladder."""
    return (*enumerate_graphs(7), grid(6, 6), grid(2, 12))


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
