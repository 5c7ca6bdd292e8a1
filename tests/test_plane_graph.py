import itertools

import pytest

from planedec.decomposition import Decomposition
from planedec.oracle import enumerate_graphs
from planedec.plane_graph import (PlaneGraph, PlaneGraphError, chords,
                                  chord_neighbors, classify_darts_by_cycle,
                                  cycle_graph, int_subgraph, two_chords, und,
                                  validate)

import instances


def hexagon_with_chord():
    # hexagon 1..6 plus chord 1-4, drawn inside
    return PlaneGraph({1: (2, 4, 6), 2: (3, 1), 3: (4, 2), 4: (5, 1, 3),
                       5: (6, 4), 6: (1, 5)}, (1, 2))


def test_validate_c4_passes():
    assert validate(cycle_graph(4)).ok


def test_validate_chorded_c4_fails_triangle_free():
    g = PlaneGraph({1: (2, 3, 4), 2: (3, 1), 3: (1, 2, 4), 4: (3, 1)}, (1, 2))
    rep = validate(g)
    assert not rep.ok
    assert "triangle-free" in rep.codes()


def test_validate_swapped_rotation_fails_euler():
    # a valid 5-vertex embedding stops satisfying the Euler count after two
    # entries of one degree-3 rotation are transposed
    good = PlaneGraph({1: (2, 3, 4), 2: (1, 5), 3: (1, 5), 4: (1, 5),
                       5: (2, 4, 3)}, (1, 2))
    assert validate(good).ok
    rot = list(good.rotation)
    rot[0] = (3, 2, 4)
    bad = PlaneGraph(rot, (1, 2))
    rep = validate(bad)
    assert "euler" in rep.codes()


def test_boundary_walk_c4():
    assert cycle_graph(4).boundary_walk.vertices == (1, 2, 3, 4)


def test_boundary_walk_pendant_visits_twice():
    g = PlaneGraph({1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (3, 5, 1), 5: (4,)},
                   (1, 2))
    walk = g.boundary_walk
    assert len(walk) == 6
    assert walk.vertices.count(4) == 2
    # the bridge edge is traversed in both directions
    assert (4, 5) in walk.edges and (5, 4) in walk.edges


def test_boundary_walk_hexagon():
    assert cycle_graph(6).boundary_walk.vertices == (1, 2, 3, 4, 5, 6)


def test_stretch_runs_forward_inclusive_and_wraps():
    walk = cycle_graph(6).boundary_walk
    assert walk.stretch(2, 5) == (2, 3, 4, 5)
    assert walk.stretch(5, 2) == (5, 6, 1, 2)
    assert walk.stretch(3, 3) == (3,)


def test_stretch_on_a_walk_with_a_repeated_vertex():
    g = PlaneGraph({1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (3, 5, 1), 5: (4,)},
                   (1, 2))
    walk = g.boundary_walk
    assert walk.vertices == (1, 2, 3, 4, 5, 4)
    assert walk.stretch(4, 2) == (4, 1, 2)  # from the last visit of 4
    assert walk.stretch(1, 4) == (1, 2, 3, 4)  # up to the first 4


def test_piece_lift_maps_child_ids_to_parent_ids():
    piece = int_subgraph(hexagon_with_chord(), [4, 5, 6, 1])
    assert piece.to_parent == (1, 4, 5, 6)
    lifted = piece.lift(Decomposition.of([(2, 3), (4, 1)], [(3, 4)]))
    assert lifted == Decomposition.of([(4, 5), (6, 1)], [(5, 6)])


def test_boundary_succ_pred():
    c4 = cycle_graph(4)
    assert c4.boundary_succ(4) == 1
    assert c4.boundary_pred(4) == 3
    assert cycle_graph(6).boundary_succ(4) == 5
    with pytest.raises(PlaneGraphError):
        cycle_graph(4).boundary_succ(9)


def test_boundary_succ_rejects_non_two_connected():
    g = PlaneGraph({1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (3, 5, 1), 5: (4,)},
                   (1, 2))
    with pytest.raises(PlaneGraphError):
        g.boundary_succ(1)


def test_blocks_single_cycle():
    assert len(cycle_graph(4).block_decomposition.blocks) == 1


def test_blocks_two_cycles_sharing_vertex():
    rot = {1: (2, 4, 5, 7), 2: (3, 1), 3: (4, 2), 4: (1, 3),
           5: (6, 1), 6: (7, 5), 7: (1, 6)}
    g = PlaneGraph(rot, (1, 2))
    bd = g.block_decomposition
    assert sorted(sorted(b) for b in bd.blocks) == [[1, 2, 3, 4], [1, 5, 6, 7]]
    assert set(bd.cut_vertices) == {1}


def test_blocks_pendant():
    g = PlaneGraph({1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (3, 5, 1), 5: (4,)},
                   (1, 2))
    bd = g.block_decomposition
    assert sorted(sorted(b) for b in bd.blocks) == [[1, 2, 3, 4], [4, 5]]
    assert set(bd.cut_vertices) == {4}


def test_chords_and_chord_neighbors():
    g = hexagon_with_chord()
    walk = g.boundary_walk
    assert chords(g, walk) == {(1, 4)}
    assert chord_neighbors(g, walk, {1}) == {4}


def test_two_chords():
    g = PlaneGraph({1: (2, 7, 6), 2: (3, 1), 3: (4, 2), 4: (5, 7, 3),
                    5: (6, 4), 6: (1, 5), 7: (4, 1)}, (1, 2))
    assert two_chords(g) == {(1, 7, 4)}


def test_chordless_c6_has_nothing():
    g = cycle_graph(6)
    assert chords(g) == set()
    assert two_chords(g) == set()
    assert chord_neighbors(g, None, set(g.vertices())) == set()


def test_int_subgraph_identity():
    c4 = cycle_graph(4)
    piece = int_subgraph(c4, [1, 2, 3, 4])
    assert piece.graph.edges == c4.edges
    assert piece.to_parent == (1, 2, 3, 4)


def test_int_subgraph_chord_side():
    g = hexagon_with_chord()
    piece = int_subgraph(g, [1, 2, 3, 4])
    assert piece.graph.n == 4 and piece.graph.m == 4


def test_int_subgraph_nested():
    # 4-cycle inside a hexagon joined by edges: Int of the boundary is all
    from instances import embed
    edges = [(i, i % 6 + 1) for i in range(1, 7)]
    edges += [(7, 8), (8, 9), (9, 10), (10, 7), (1, 7), (3, 8), (5, 9)]
    g = embed(10, edges, [1, 2, 3, 4, 5, 6])
    piece = int_subgraph(g, [1, 2, 3, 4, 5, 6])
    assert piece.graph.n == g.n and piece.graph.m == g.m


def test_int_subgraph_rejects_noncycle():
    with pytest.raises(PlaneGraphError):
        int_subgraph(cycle_graph(4), [1, 2, 3])


def test_face_lengths_sum_to_2m_and_euler():
    for g in enumerate_graphs(6):
        total = sum(len(f) for f in g.faces)
        assert total == 2 * g.m
        assert g.n - g.m + len(g.faces) == 2


def test_bridge_edges_appear_twice_on_walk():
    for g in enumerate_graphs(5):
        walk = g.boundary_walk
        counts: dict = {}
        for u, v in walk.edges:
            counts[und(u, v)] = counts.get(und(u, v), 0) + 1
        bridges = {und(u, v) for u, v in g.edges
                   if len([b for b in g.block_decomposition.blocks
                           if u in b and v in b][0]) == 2}
        for e, c in counts.items():
            assert c == (2 if e in bridges else 1)


def test_int_subgraph_of_boundary_is_identity_for_two_connected():
    for g in enumerate_graphs(6):
        if not g.is_two_connected():
            continue
        walk = g.boundary_walk
        piece = int_subgraph(g, list(walk.vertices))
        assert piece.graph.n == g.n and piece.graph.m == g.m


def test_chords_and_two_chords_against_brute_scan():
    for g in enumerate_graphs(8):
        if not g.boundary_walk.is_simple_cycle():
            continue
        walk = g.boundary_walk
        bset = walk.vertex_set
        brute_chords = {und(u, v) for u, v in g.edges
                        if u in bset and v in bset
                        and und(u, v) not in walk.edge_set}
        assert chords(g, walk) == brute_chords
        brute_two = set()
        for m in g.vertices():
            if m in bset:
                continue
            ends = sorted(q for q in g.neighbors(m) if q in bset)
            for a, b in itertools.combinations(ends, 2):
                brute_two.add((a, m, b))
        assert two_chords(g, walk) == brute_two


def test_boundary_walk_is_the_outer_face_trace():
    for g in instances.face_test_graphs():
        walk = g.boundary_walk
        if g.m == 0:
            assert walk.vertices == (1,) and walk.edges == ()
            continue
        trace = g.faces[g.outer_face_id]
        i = trace.index(g.outer)
        rotated = trace[i:] + trace[:i]
        assert walk.vertices == tuple(u for u, _ in rotated)
        assert walk.edges == rotated


def test_dart_classification_matches_face_flood():
    """Every dart lands on the side of its face in the face-adjacency flood,
    for every 4-/5-cycle and every simple boundary cycle."""
    checked = 0
    for g in instances.face_test_graphs():
        cycles = instances.reference_small_cycles(g)
        if g.boundary_walk.is_simple_cycle():
            cycles.append(g.boundary_walk.vertices)
        for cyc in cycles:
            k = len(cyc)
            edges = {und(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
            inside, outside = classify_darts_by_cycle(g, edges)
            face_of, out_faces = instances.reference_outside_faces(g, edges)
            assert inside | outside == set(face_of)
            assert not inside & outside
            for f, face in enumerate(g.faces):
                assert set(face) <= (outside if f in out_faces else inside)
            checked += 1
    assert checked > 600


def _same_piece(got, want):
    return (got.graph.rotation == want.graph.rotation
            and got.graph.outer == want.graph.outer
            and got.to_parent == want.to_parent)


def test_int_subgraph_matches_outside_flood():
    """The inside-only flood gives the piece of the whole-graph dart
    classification on every 4-/5-cycle, on both sides of every boundary
    chord and on a simple boundary cycle."""
    cycles = chord_sides = 0
    for g in (*instances.face_test_graphs(), *instances.large_grids()):
        for cyc in instances.reference_small_cycles(g):
            assert _same_piece(int_subgraph(g, cyc),
                               instances.reference_int_subgraph(g, cyc))
            cycles += 1
        walk = g.boundary_walk
        if not walk.is_simple_cycle():
            continue
        sides = [walk.vertices]
        for u, v in sorted(chords(g, walk)):
            sides += [walk.stretch(v, u), walk.stretch(u, v)]
            chord_sides += 2
        for cyc in sides:
            assert _same_piece(int_subgraph(g, cyc),
                               instances.reference_int_subgraph(g, cyc))
    assert cycles > 1000 and chord_sides > 200


def test_int_subgraph_rejects_disconnected_graph():
    # a 4-cycle beside a lone edge
    g = PlaneGraph({1: (2, 4), 2: (3, 1), 3: (4, 2), 4: (1, 3), 5: (6,), 6: (5,)},
                   (1, 2))
    with pytest.raises(PlaneGraphError, match="connected"):
        int_subgraph(g, [1, 2, 3, 4])
