import itertools
import random

import pytest

from planedec.decomposition import (ConstraintSpec, Decomposition,
                                    EdgeInMatching, check_coloring,
                                    check_config_path, defective_coloring,
                                    degeneracy_order, path_orientation,
                                    verify, verify_21)
from planedec.oracle import (brute_force, enumerate_configurations,
                             enumerate_graphs, verify_independent)
from planedec.plane_graph import PlaneGraph, PlaneGraphError, cycle_graph

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
    from planedec.main_decomposer import decompose_config, goal_spec
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
