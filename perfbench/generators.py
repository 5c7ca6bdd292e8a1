"""Seeded generators of large triangle-free plane graphs: full grids, ladders,
and spanning subgraphs of grids.

Vertex (i, j) of an r x c grid is 1 + i*c + j.  Rotations list up, right,
down, left, which is one orientation of the usual drawing; the outer edge is
taken from the face that surrounds the drawing.  Every graph passes
``validate`` before it is returned.
"""

from __future__ import annotations

import random

from planedec.plane_graph import Edge, PlaneGraph, und, validate


class GeneratorError(RuntimeError):
    pass


def _grid_rotation(r: int, c: int) -> list[tuple[int, ...]]:
    rows = []
    for i in range(r):
        for j in range(c):
            nbrs = []
            for di, dj in ((-1, 0), (0, 1), (1, 0), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < r and 0 <= b < c:
                    nbrs.append(1 + a * c + b)
            rows.append(tuple(nbrs))
    return rows


def _outer_trace(r: int, c: int) -> tuple[Edge, ...]:
    """Directed edges of the face around an r x c grid (r, c >= 2, r*c > 4)."""
    full = PlaneGraph(_grid_rotation(r, c), (1, 2))
    return max(full.faces, key=len)


def _checked(g: PlaneGraph) -> PlaneGraph:
    rep = validate(g)
    if not rep.ok:
        raise GeneratorError(f"generated graph is invalid: {rep.failures}")
    return g


def grid(r: int, c: int) -> PlaneGraph:
    """The full r x c grid."""
    return _checked(PlaneGraph(_grid_rotation(r, c), _outer_trace(r, c)[0]))


def grid_subgraph(k: int, drop_share: float, rng: random.Random) -> PlaneGraph:
    """A spanning subgraph of the k x k grid: a random spanning tree plus the
    non-tree edges left after dropping ``drop_share`` of them at random."""
    rot = _grid_rotation(k, k)
    edges = sorted({und(v, u) for v in range(1, k * k + 1) for u in rot[v - 1]})
    rng.shuffle(edges)
    root = list(range(k * k + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    non_tree = []
    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            non_tree.append((u, v))
        else:
            root[a] = b
    dropped = set(rng.sample(non_tree, round(drop_share * len(non_tree))))
    kept = [tuple(u for u in rot[v - 1] if und(v, u) not in dropped)
            for v in range(1, k * k + 1)]
    # dropping edges only merges faces, so every surviving directed edge of
    # the full grid's outer trace still lies on the outer face
    outer = next(de for de in _outer_trace(k, k) if und(*de) not in dropped)
    return _checked(PlaneGraph(kept, outer))
