"""Hand-built larger instances for branches the n <= 9 sweep cannot reach.

Each instance is given abstractly (edge list plus intended outer cycle); the
embedding is found by searching rotation systems, so only the combinatorial
shape is hand-made.
"""

from __future__ import annotations

import networkx as nx

from planedec.oracle import rotation_systems
from planedec.plane_graph import PlaneGraph, validate


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
