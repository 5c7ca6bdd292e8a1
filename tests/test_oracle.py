import collections
import itertools
import random
import warnings

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planedec import fixtures, oracle
from planedec.decomposition import ConstraintSpec
from planedec.oracle import (abstract_graphs_augment, brute_force,
                             canonical_form, config_key, enumerate_graphs,
                             graph_certificate, plane_graphs_of,
                             rotation_systems)
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
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=oracle._WL_CHANGED,
                                    category=UserWarning)
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
                # top = 0 encodes from every start: the unfiltered reference
                assert oracle._face_key(rot, mirror, face) == key
                top = max(pg.degree(u) for u, _ in face)
                assert oracle._face_key(rot, mirror, face, top) == key
                assert canonical_form(pg, include_reflection=False) == \
                    min(oracle.bfs_encode(pg, d) for d in face)
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


# ---------------------------------------------------------------------------
# abstract graphs: canonical certificates and the augment order
# ---------------------------------------------------------------------------

def _bitmasks(G, nodes):
    """Neighbour bitmasks of G, vertex i of the result being nodes[i]."""
    index = {v: i for i, v in enumerate(nodes)}
    return [sum(1 << index[u] for u in G[v]) for v in nodes]


def _nx_of(adj):
    G = nx.Graph()
    G.add_nodes_from(range(len(adj)))
    G.add_edges_from((v, u) for v, a in enumerate(adj) for u in range(v)
                     if a >> u & 1)
    return G


def _relabel(adj, perm):
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, a in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(adj)) if a >> u & 1)
    return out


def test_certificate_is_exact_on_augment_candidates_n7():
    """Over every candidate the augment step builds for n <= 7, planar or
    not, two candidates have equal certificates exactly when networkx finds
    them isomorphic."""
    levels = abstract_graphs_augment(7)
    merged = nonplanar = 0
    for n in range(2, 8):
        classes = collections.defaultdict(list)
        for G in levels[n - 1]:
            adj = _bitmasks(G, range(1, n))
            for S in oracle._augment_candidates(adj):
                cand = oracle._augment(adj, S)
                classes[graph_certificate(cand)].append(_nx_of(cand))
        for members in classes.values():
            assert all(nx.is_isomorphic(members[0], H) for H in members[1:])
            merged += len(members) - 1
        reps = [members[0] for members in classes.values()]
        for G, H in itertools.combinations(reps, 2):
            if nx.faster_could_be_isomorphic(G, H):
                assert not nx.is_isomorphic(G, H)
        planar = sum(nx.check_planarity(G)[0] for G in reps)
        assert planar == len(levels[n])
        nonplanar += len(reps) - planar
    assert merged > 300 and nonplanar > 0


_SYMMETRIC = {
    "cube": nx.hypercube_graph(3),
    "K33": nx.complete_bipartite_graph(3, 3),
    "C8": nx.cycle_graph(8),
    "grid4x4": nx.grid_2d_graph(4, 4),
}


@st.composite
def _triangle_free(draw):
    """A random triangle-free graph on at most 10 vertices, connected or
    not: each pair in turn becomes an edge if drawn and if it closes no
    triangle."""
    n = draw(st.integers(min_value=0, max_value=10))
    adj = [0] * n
    for v, u in itertools.combinations(range(n), 2):
        if draw(st.booleans()) and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_certificate_invariant_under_relabelling(data):
    adj = data.draw(_triangle_free())
    perm = data.draw(st.permutations(range(len(adj))))
    assert graph_certificate(_relabel(adj, perm)) == graph_certificate(adj)


@pytest.mark.parametrize("name", sorted(_SYMMETRIC))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_certificate_invariant_on_symmetric_graphs(name, seed):
    G = _SYMMETRIC[name]
    adj = _bitmasks(G, sorted(G))
    perm = list(range(len(adj)))
    random.Random(seed).shuffle(perm)
    assert graph_certificate(_relabel(adj, perm)) == graph_certificate(adj)


def test_certificate_separates_regular_graphs():
    """C8 and two disjoint C4s: both 2-regular on 8 vertices, so the
    refinement alone cannot tell them apart."""
    c8 = _bitmasks(nx.cycle_graph(8), range(8))
    two_c4 = _bitmasks(nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(4)),
                       range(8))
    assert graph_certificate(c8) != graph_certificate(two_c4)


def _reference_augment(max_n):
    """The augment order as first written: filter every candidate for
    triangles, the Euler bound and planarity, then deduplicate with the
    Weisfeiler-Lehman hash and VF2."""
    levels = {1: [oracle._nx_from_edges(1, [])]}
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
                    if oracle._is_planar_tf(H):
                        cands.append(H)
        levels[n] = oracle._iso_dedup(cands)
    return levels


def test_augment_matches_reference_pipeline_n7():
    got = abstract_graphs_augment(7)
    want = _reference_augment(7)
    assert sorted(got) == sorted(want)
    for n in want:
        assert [list(G.nodes()) for G in got[n]] == [list(G.nodes()) for G in want[n]]
        assert [list(G.edges()) for G in got[n]] == [list(G.edges()) for G in want[n]]


@pytest.mark.parametrize("order", ["augment", "edge_subsets"])
def test_enumerate_raises_no_warning(order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sum(1 for _ in enumerate_graphs(6, order=order)) > 0


@pytest.mark.parametrize("max_n", [0, -1])
def test_enumerate_rejects_max_n_below_one(max_n):
    with pytest.raises(PlaneGraphError, match="at least 1"):
        list(enumerate_graphs(max_n))
