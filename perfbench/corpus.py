"""The n <= 9 corpus: every connected triangle-free plane graph with at most
nine vertices (12 840 graphs), stored as gzipped planar_code.

planar_code carries no outer face, and ``parse_planar_code`` takes the face
traced from (1, first neighbour of 1).  Each graph is therefore relabelled
before it is written so that its outer edge is exactly that directed edge.

Write the file once (about 100 s) from the repository root:

    PYTHONPATH=src python3 perfbench/corpus.py
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from pathlib import Path

from planedec import fixtures
from planedec.io import emit_planar_code, parse_planar_code
from planedec.oracle import canonical_form, enumerate_graphs
from planedec.plane_graph import PlaneGraph

CORPUS = Path(__file__).with_name("corpus_n9.pc.gz")
MAX_N = 9


class CorpusError(RuntimeError):
    pass


def outer_edge_first(g: PlaneGraph) -> PlaneGraph:
    """The same plane graph, relabelled so its outer edge is (1, first
    neighbour of 1)."""
    if g.m == 0:
        return g
    u, v = g.outer
    swap = {u: 1, 1: u}
    rows: list[tuple[int, ...]] = [()] * g.n
    for x in g.vertices():
        rows[swap.get(x, x) - 1] = tuple(swap.get(y, y) for y in g.neighbors(x))
    first = rows[0]
    i = first.index(swap.get(v, v))
    rows[0] = first[i:] + first[:i]
    return PlaneGraph(rows, (1, rows[0][0]))


def read_bytes() -> bytes:
    if not CORPUS.exists():
        raise CorpusError(f"{CORPUS.name} is missing; run perfbench/corpus.py")
    return gzip.decompress(CORPUS.read_bytes())


def parse(data: bytes, max_n: int = MAX_N) -> list[PlaneGraph]:
    """Decode the corpus; keep the graphs with at most ``max_n`` vertices."""
    return [g for g in parse_planar_code(data) if g.n <= max_n]


def check(graphs: list[PlaneGraph], max_n: int = MAX_N) -> None:
    """Fail loudly unless the count for each n matches counts.tsv and all
    canonical forms are pairwise distinct."""
    frozen = fixtures.load()
    per_n = Counter(g.n for g in graphs)
    for n in range(1, max_n + 1):
        want = frozen[f"plane_graphs_n{n}"]
        if per_n[n] != want:
            raise CorpusError(f"corpus has {per_n[n]} graphs with n={n}, counts.tsv {want}")
    if len(per_n) != max_n:
        raise CorpusError(f"corpus holds sizes outside 1..{max_n}: {sorted(per_n)}")
    forms = {canonical_form(g) for g in graphs}
    if len(forms) != len(graphs):
        raise CorpusError(f"{len(graphs) - len(forms)} corpus graphs are duplicates")


def write() -> None:
    graphs = []
    for g in enumerate_graphs(MAX_N):
        h = outer_edge_first(g)
        if canonical_form(h) != canonical_form(g):
            raise CorpusError(f"relabelling changed the plane graph {g.rotation}")
        graphs.append(h)
    data = emit_planar_code(graphs)
    check(parse(data))
    CORPUS.write_bytes(gzip.compress(data, mtime=0))
    print(f"wrote {len(graphs)} graphs to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    write()
