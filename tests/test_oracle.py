import itertools

import networkx as nx
import pytest

from planedec import fixtures, oracle
from planedec.decomposition import ConstraintSpec
from planedec.oracle import (abstract_graphs_augment, brute_force,
                             canonical_form, config_key, enumerate_graphs,
                             plane_graphs_of, rotation_systems)
from planedec.plane_graph import PlaneGraph, PlaneGraphError, cycle_graph


def test_brute_force_c4():
    c4 = cycle_graph(4)
    assert brute_force(c4, (1, 2, 3, 4), ConstraintSpec.parse("1001,1001"))
    assert not brute_force(c4, (1, 2, 3, 4), ConstraintSpec.parse("0000,0000"))


def test_brute_force_c6_count_frozen():
    c6 = cycle_graph(6)
    count = brute_force(c6, (1, 2, 3, 4), ConstraintSpec.parse("1001,0000"),
                        mode="count")
    fixtures.check("c6_count_1001_0000", count)


def test_brute_force_cap():
    with pytest.raises(PlaneGraphError):
        brute_force(cycle_graph(6), (1, 2, 3, 4),
                    ConstraintSpec.parse("1001,0000"), edge_cap=3)


def test_enumerate_n3():
    gs = list(enumerate_graphs(3))
    assert [g.n for g in gs] == [1, 2, 3]
    assert gs[2].m == 2  # the path, not the triangle


def test_enumerate_n4_abstract_classes():
    levels = abstract_graphs_augment(4)
    assert len(levels[4]) == 3  # P4, the star, C4
    degs = sorted(tuple(sorted(d for _, d in G.degree())) for G in levels[4])
    assert degs == [(1, 1, 1, 3), (1, 1, 2, 2), (2, 2, 2, 2)]


def test_enumerate_counts_match_fixtures():
    import collections
    cnt = collections.Counter(g.n for g in enumerate_graphs(7))
    for n in sorted(cnt):
        fixtures.check(f"plane_graphs_n{n}", cnt[n])


def test_canonical_form_examples():
    c4 = cycle_graph(4)
    relabeled = PlaneGraph({1: (4, 2), 2: (1, 3), 3: (2, 4), 4: (3, 1)}, (2, 3))
    assert canonical_form(c4) == canonical_form(relabeled)
    p4 = PlaneGraph({1: (2,), 2: (1, 3), 3: (2, 4), 4: (3,)}, (1, 2))
    assert canonical_form(c4) != canonical_form(p4)
    assert canonical_form(c4) == canonical_form(c4.reflect())


def test_canonical_form_injective_small():
    """Equal forms imply plane-isomorphic (cross-checked with networkx on the
    underlying abstract graphs for the n <= 6 enumeration)."""
    by_key = {}
    for g in enumerate_graphs(6):
        key = canonical_form(g)
        assert key not in by_key, "enumeration emitted duplicates"
        by_key[key] = g
    # distinct abstract graphs never collide
    groups = {}
    for key, g in by_key.items():
        G = nx.Graph()
        G.add_nodes_from(g.vertices())
        G.add_edges_from(g.edges)
        h = nx.weisfeiler_lehman_graph_hash(G)
        groups.setdefault(h, []).append((key, G))
    for bucket in groups.values():
        for (k1, g1), (k2, g2) in itertools.combinations(bucket, 2):
            if k1 == k2:
                assert nx.is_isomorphic(g1, g2)


def test_double_generation_orders_agree_n6():
    import collections
    a = collections.Counter(g.n for g in enumerate_graphs(6, order="augment"))
    b = collections.Counter(g.n for g in enumerate_graphs(6, order="edge_subsets"))
    assert a == b


def test_config_key_orientation_invariance():
    c6 = cycle_graph(6)
    k1 = config_key(c6, (1, 2, 3, 4))
    k2 = config_key(c6.reflect(), (1, 2, 3, 4))
    assert k1 == k2
    assert k1 == config_key(c6, (2, 3, 4, 5))  # same rotation orbit of C6


def _reference_rotation_systems(G):
    """Every product of per-vertex rotations (smallest neighbour first) whose
    face count meets Euler's formula, each face traced with tuple edges."""
    n, m = G.number_of_nodes(), G.number_of_edges()
    per_vertex = []
    for v in range(1, n + 1):
        ns = sorted(G[v])
        per_vertex.append([tuple(ns)] if len(ns) <= 2 else
                          [(ns[0],) + p for p in itertools.permutations(ns[1:])])
    for rot in itertools.product(*per_vertex):
        succ = [{u: r[(i + 1) % len(r)] for i, u in enumerate(r)} for r in rot]
        seen, faces = set(), 0
        for v in range(1, n + 1):
            for u in rot[v - 1]:
                if (v, u) not in seen:
                    faces += 1
                    cur = (v, u)
                    while cur not in seen:
                        seen.add(cur)
                        cur = (cur[1], succ[cur[1] - 1][cur[0]])
        if faces == 2 - n + m:
            yield rot


def test_embedding_enumeration_matches_reference_n7(monkeypatch):
    """rotation_systems and plane_graphs_of emit exactly what the plain
    product filter and canonical_form keying of every face emit, in order;
    the enumerator's face key is canonical_form, mirror systems included, and
    it traces faces only for systems whose mirror did not come earlier."""
    traced = []
    faces = oracle._faces
    monkeypatch.setattr(oracle, "_faces", lambda rot: traced.append(rot) or faces(rot))
    levels = abstract_graphs_augment(7)
    skipped = 0
    for G in (G for n in range(2, 8) for G in levels[n]):
        rots = list(_reference_rotation_systems(G))
        assert list(rotation_systems(G)) == rots
        want, seen, earlier, kept = [], set(), set(), []
        for rot in rots:
            mirror = oracle._mirror(rot)
            if mirror not in earlier:
                kept.append(rot)
            earlier.add(rot)
            for face in PlaneGraph(rot, (1, rot[0][0])).faces:
                pg = PlaneGraph(rot, face[0])
                key = canonical_form(pg)
                top = max(pg.degree(u) for u, _ in face)
                assert oracle._face_key(rot, mirror, face, top) == key
                if key not in seen:
                    seen.add(key)
                    want.append(pg)
        traced.clear()
        got = plane_graphs_of(G)
        assert [(g.rotation, g.outer) for g in got] == \
            [(g.rotation, g.outer) for g in want]
        assert traced == kept
        skipped += len(rots) - len(kept)
    assert skipped > 0


def test_mirror_pair_emits_once():
    star = nx.star_graph([1, 2, 3, 4])
    assert list(rotation_systems(star)) == [((2, 3, 4), (1,), (1,), (1,)),
                                            ((2, 4, 3), (1,), (1,), (1,))]
    assert len(plane_graphs_of(star)) == 1
