import itertools
import random

import pytest

from planedec import decomposition
from planedec.decomposition import (ConstraintSpec, Decomposition,
                                    EdgeInMatching, check_coloring,
                                    check_config_path, defective_coloring,
                                    degeneracy_order, path_orientation,
                                    relaxed_exempt_set, verify, verify_21)
from planedec.oracle import (brute_force, enumerate_configurations,
                             enumerate_graphs, verify_independent)
from planedec.main_decomposer import decompose_21
from planedec.plane_graph import PlaneGraph, PlaneGraphError, cycle_graph, und

import instances


def test_verify_c4_pass():
    c4 = cycle_graph(4)
    spec = ConstraintSpec.parse("1001,1001",
                                side_conditions=[EdgeInMatching(4, 1)])
    dec = Decomposition.of(arcs=[(1, 2), (4, 3)], matching=[(4, 1)])
    assert verify(c4, (1, 2, 3, 4), spec, dec).ok


def test_verify_c4_center_covered_fails():
    c4 = cycle_graph(4)
    dec = Decomposition.of(arcs=[(1, 2), (2, 3)])
    rep = verify(c4, (1, 2, 3, 4), ConstraintSpec.parse("1001,1001"), dec)
    assert not rep.ok and rep.clause == "partition"


def test_verify_c6_b_caps_bind_path_only():
    c6 = cycle_graph(6)
    dec = Decomposition.of(arcs=[(1, 2), (4, 3), (5, 4), (6, 1)],
                           matching=[(5, 6)])
    assert verify(c6, (1, 2, 3, 4), ConstraintSpec.parse("1001,0000"), dec).ok
    # frozen by the oracle: this is the unique such decomposition
    assert brute_force(c6, (1, 2, 3, 4), ConstraintSpec.parse("1001,0000"),
                       mode="count") == 1


def test_verify_malformed_path_is_an_error():
    with pytest.raises(PlaneGraphError):
        verify(cycle_graph(4), (1, 3, 2, 4), ConstraintSpec.parse("1001,1001"),
               Decomposition.of())


def test_verify_21_cases():
    c4 = cycle_graph(4)
    assert verify_21(c4, Decomposition.of(arcs=[(1, 2), (1, 4), (3, 2), (3, 4)])).ok
    rep = verify_21(c4, Decomposition.of(arcs=[(1, 2), (2, 3), (3, 4), (4, 1)]))
    assert not rep.ok and rep.clause == "acyclic"
    assert verify_21(c4, Decomposition.of(arcs=[(1, 2), (3, 4)],
                                          matching=[(2, 3), (4, 1)])).ok


def test_partition_report_text():
    """Both verifiers name the edges covered twice, sorted, and otherwise
    the edges missing and extra, in the same words."""
    c4 = cycle_graph(4)
    twice = Decomposition.of(arcs=[(3, 4), (4, 1), (1, 4)], matching=[(3, 4), (1, 2)])
    for rep in (verify(c4, (1, 2, 3, 4), ConstraintSpec.parse("1001,1001"), twice),
                verify_21(c4, twice)):
        assert (rep.ok, rep.clause, rep.detail) == (
            False, "partition", "edges covered twice: [(1, 4), (3, 4)]")
    short = Decomposition.of(arcs=[(3, 4), (4, 1), (1, 3)])
    rep = verify(c4, (1, 2, 3, 4), ConstraintSpec.parse("1001,1001"), short)
    assert (rep.clause, rep.detail) == ("partition", "missing=[(1, 2)] extra=[(1, 3)]")
    rep = verify_21(c4, short)
    assert (rep.clause, rep.detail) == (
        "partition", "missing=[(1, 2), (2, 3)] extra=[(1, 3)]")


def test_degeneracy_order_cases():
    assert degeneracy_order(Decomposition.of(arcs=[(1, 2)]), [1, 2]) == [2, 1]
    order = degeneracy_order(
        Decomposition.of(arcs=[(1, 2), (1, 4), (3, 2), (3, 4)]), range(1, 5))
    assert order.index(2) < order.index(1) and order.index(4) < order.index(3)
    assert len(degeneracy_order(Decomposition.of(), [1, 2, 3])) == 3


def test_degeneracy_order_rejects_cycles():
    with pytest.raises(ValueError):
        degeneracy_order(Decomposition.of(arcs=[(1, 2), (2, 1)]), [1, 2])


def test_defective_coloring_c4():
    c4 = cycle_graph(4)
    dec = Decomposition.of(arcs=[(1, 2), (1, 4), (3, 2), (3, 4)])
    colors = defective_coloring(c4, dec)
    assert check_coloring(c4, dec, colors).ok


def test_defective_coloring_single_matched_edge():
    g = PlaneGraph({1: (2,), 2: (1,)}, (1, 2))
    dec = Decomposition.of(matching=[(1, 2)])
    colors = defective_coloring(g, dec)
    assert colors[1] == colors[2] == 1
    assert check_coloring(g, dec, colors).ok


def test_defective_coloring_single_vertex():
    g = PlaneGraph([()], (1, 1))
    assert defective_coloring(g, Decomposition.of()) == {1: 1}


def _random_decomposition(g, rng):
    arcs, matching = [], []
    matched = set()
    for (u, v) in sorted(g.edges):
        k = rng.randrange(3)
        if k == 0:
            arcs.append((u, v))
        elif k == 1:
            arcs.append((v, u))
        elif u not in matched and v not in matched:
            matched.update((u, v))
            matching.append((u, v))
        else:
            arcs.append((u, v))
    return Decomposition.of(arcs, matching)


def _broken_copies(g, dec):
    """dec broken four ways where g allows it: a vertex given out-degree 3,
    an inner face oriented as a directed cycle, a vertex matched twice, and
    an edge left uncovered."""
    arcs, matching = set(dec.arcs), set(dec.matching)

    def without(edges):
        gone = {und(*e) for e in edges}
        return ({a for a in arcs if und(*a) not in gone},
                {e for e in matching if e not in gone})

    hub = next((v for v in g.vertices() if g.degree(v) >= 3), None)
    if hub is not None:
        out = [(hub, u) for u in g.neighbors(hub)]
        a, m = without(out)
        yield Decomposition.of(a | set(out), m)
    for i, face in enumerate(g.faces):
        if i != g.outer_face_id:
            a, m = without(face)
            yield Decomposition.of(a | set(face), m)
            break
    fork = next((v for v in g.vertices() if g.degree(v) >= 2), None)
    if fork is not None:
        pair = [(fork, u) for u in g.neighbors(fork)[:2]]
        a, m = without(pair)
        yield Decomposition.of(a, m | set(pair))
    if arcs:
        yield Decomposition.of(arcs - {min(arcs)}, matching)
    elif matching:
        yield Decomposition.of(arcs, matching - {min(matching)})


def _outcome(fn, g, dec):
    """fn(g, dec), or the message of the ValueError it raises."""
    try:
        return fn(g, dec)
    except ValueError as exc:
        return str(exc)


def test_whole_graph_checks_match_arc_scans():
    """verify_21 and defective_coloring, which tally out-arcs once, agree
    with the per-vertex arc scans on valid, broken and random
    decompositions."""
    rng = random.Random(8)
    clauses = set()
    graphs = (*enumerate_graphs(7), instances.grid(2, 60), instances.grid(7, 7))
    for g in graphs:
        dec, _ = decompose_21(g)
        for d in (dec, *_broken_copies(g, dec), _random_decomposition(g, rng)):
            want = instances.reference_verify_21(g, d)
            assert verify_21(g, d) == want
            clauses.add(want.clause)
            assert (_outcome(defective_coloring, g, d)
                    == _outcome(instances.reference_defective_coloring, g, d))
    assert clauses == {"", "partition", "matching", "acyclic", "outdeg"}


def _partition_mutants(g, dec, center):
    """dec, which covers the edges of g but center once each, then copies
    with an edge covered twice, the centre covered, an id out of range, an
    unsorted matching pair or an edge left out.  Each bad cover is added
    once on top and once in place of a good one, which keeps the count of
    covers right."""
    arcs, matching = set(dec.arcs), set(dec.matching)
    yield dec
    extra = [(g.n, g.n + 1), (0, 1)]
    if center is not None:
        extra.append(center)
    if arcs:
        a = min(arcs)
        extra.append(a[::-1])
        yield Decomposition(frozenset(arcs), frozenset(matching | {und(*a)}))
        yield Decomposition(frozenset(arcs - {a}), frozenset(matching))
        if len(arcs) > 1:
            rest = arcs - {max(arcs)}
            yield Decomposition(frozenset(rest | {a[::-1]}), frozenset(matching))
            yield Decomposition(frozenset(rest), frozenset(matching | {und(*a)}))
    for b in extra:
        yield Decomposition(frozenset(arcs | {b}), frozenset(matching))
        if arcs:
            yield Decomposition(frozenset(arcs - {a} | {b}), frozenset(matching))
    if matching:
        e = min(matching)
        for b in (e[::-1], center):
            if b is not None:
                yield Decomposition(frozenset(arcs), frozenset(matching - {e} | {b}))


def test_partition_check_matches_the_edge_set_comparison(monkeypatch):
    """verify and verify_21 report what the comparison with g's edge set
    (kept in tests/instances.py) reports, on decompositions of every graph
    with n <= 7 and on copies broken in their partition."""
    cases = []
    for g in enumerate_graphs(7):
        dec, _ = decompose_21(g)
        cases += [(g, None, d) for d in _partition_mutants(g, dec, None)]
        for quad in enumerate_configurations(g):
            center = und(quad[1], quad[2])
            part = Decomposition(
                frozenset(a for a in dec.arcs if und(*a) != center),
                dec.matching - {center})
            cases += [(g, quad, d) for d in _partition_mutants(g, part, center)]
    spec = ConstraintSpec.parse("1001,0000")

    def reports():
        return [verify_21(g, d) if quad is None else verify(g, quad, spec, d)
                for g, quad, d in cases]

    got = reports()
    monkeypatch.setattr(
        decomposition, "_partition_failure",
        lambda dec, g, center=None:
            instances.reference_partition_failure(dec, g.edges - {center}))
    assert got == reports()
    kinds = {r.detail.split("=")[0].split(":")[0]
             for r in got if r.clause == "partition"}
    assert kinds == {"edges covered twice", "missing"}
    assert sum(r.clause != "partition" for r in got) > 1000


def test_verify_agrees_with_independent_reimplementation():
    rng = random.Random(7)
    specs = [ConstraintSpec.parse("1001,1001"),
             ConstraintSpec.parse("1001,0000"),
             ConstraintSpec.parse("1101,0000", relaxed=True)]
    checked = 0
    for g in enumerate_graphs(7):
        for quad in enumerate_configurations(g):
            for spec in specs:
                dec = _random_decomposition(g, rng)
                a = verify(g, quad, spec, dec).ok
                b = verify_independent(g, quad, spec, dec)
                assert a == b
                checked += 1
    assert checked > 2000


def test_center_edge_readdition_lemma():
    """Adding the centre arc (x, y) preserves acyclicity when a3 = 0."""
    from planedec.main_decomposer import decompose_config
    from planedec.config_algebra import Configuration
    for g in enumerate_graphs(6):
        for quad in enumerate_configurations(g):
            cfg = Configuration(g, quad)
            dec, _ = decompose_config(cfg, "M0")
            extended = dec.adjust(add_arcs=[(quad[1], quad[2])])
            assert extended.find_cycle() is None
            assert all(extended.out_degree(v) <= 2 for v in g.vertices())
            break


def _path_probes(g):
    """Every 4-tuple of boundary vertices on a short walk; on a long one,
    each window, each window with one vertex moved a step along the walk,
    and their reversals."""
    walk = g.boundary_walk.vertices
    if len(g.boundary_vertices) <= 7:
        yield from itertools.product(sorted(g.boundary_vertices), repeat=4)
        return
    k = len(walk)
    for i in range(k):
        base = [i, i + 1, i + 2, i + 3]
        for j, step in itertools.product(range(4), (0, -1, 1)):
            pos = base[:]
            pos[j] += step
            t = tuple(walk[p % k] for p in pos)
            yield t
            yield t[::-1]


def _orientation(orient, g, t):
    """orient(g, t), or the message of the PlaneGraphError it raises."""
    try:
        return orient(g, t)
    except PlaneGraphError as exc:
        return str(exc)


def test_path_checks_match_window_sets():
    checked = oriented = 0
    for g in (*instances.face_test_graphs(), *instances.large_grids()):
        for t in _path_probes(g):
            assert check_config_path(g, t) == instances.reference_check_config_path(g, t)
            want = _orientation(instances.reference_path_orientation, g, t)
            assert _orientation(path_orientation, g, t) == want
            oriented += want in (1, -1)
            checked += 1
    assert checked > 100_000 and oriented > 5_000


def test_degeneracy_order_and_exemptions_match_the_references():
    """On every graph with n <= 7, the sink-peeling order of its
    decomposition is graphlib's, and the exempt set of every path, read
    either way, is the one read on a copy of the centre block."""
    paths = two_connected = 0
    for g in enumerate_graphs(7):
        dec, _ = decompose_21(g)
        want = instances.reference_degeneracy_order(dec, g.vertices())
        assert degeneracy_order(dec, g.vertices()) == want
        for quad in enumerate_configurations(g):
            for path in (quad, quad[::-1]):
                assert relaxed_exempt_set(g, path) == \
                    instances.reference_relaxed_exempt_set(g, path)
                paths += 1
                two_connected += g.is_two_connected()
    assert 0 < two_connected < paths
