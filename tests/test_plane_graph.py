import itertools

import networkx as nx
import pytest

from planedec.decomposition import Decomposition
from planedec.oracle import enumerate_graphs
from planedec.plane_graph import (PlaneGraph, PlaneGraphError, chords,
                                  cycle_graph, cycle_sides, extract_piece,
                                  int_ext_subgraphs, int_subgraph, two_chords,
                                  und, validate)

import instances


def hexagon_with_chord():
    # hexagon 1..6 plus chord 1-4, drawn inside
    return PlaneGraph({1: (2, 4, 6), 2: (3, 1), 3: (4, 2), 4: (5, 1, 3),
                       5: (6, 4), 6: (1, 5)}, (1, 2))


@pytest.mark.parametrize("rotation,message", [
    (((2,), (1, 3, 7), (2, 0)), "neighbour 7 of 2 out of range 1..3"),
    (((0, 2), (1, 4)), "neighbour 0 of 1 out of range 1..2"),
    (((), (3,), (2, -1)), "neighbour -1 of 3 out of range 1..3"),
    (((2,), (1, 3), (2, 4)), "neighbour 4 of 3 out of range 1..3"),
])
def test_constructor_names_the_first_neighbour_out_of_range(rotation, message):
    with pytest.raises(PlaneGraphError, match=message):
        PlaneGraph(rotation, (1, 2))


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


def test_validate_names_bad_rotations_and_the_first_triangle():
    g = PlaneGraph(((1, 2), (1, 3, 3), ()), (1, 2))
    assert validate(g).failures == [
        ("simple", "loop at 1"),
        ("simple", "repeated neighbour in rotation of 2"),
        ("symmetry", "3 in rotation of 2 but not conversely"),
        ("symmetry", "3 in rotation of 2 but not conversely")]
    for G in (nx.complete_graph(5), nx.wheel_graph(7), nx.icosahedral_graph(),
              nx.triangular_lattice_graph(3, 4), nx.petersen_graph()):
        g = instances.adjacency_graph(G)
        tris = g.triangles()
        rep = validate(g)
        assert (("triangle-free", f"triangle {tris[0]}") in rep.failures
                if tris else "triangle-free" not in rep.codes())


def test_validate_counts_the_face_of_an_isolated_vertex():
    # a path on three vertices beside a lone vertex: two components, each
    # with its own face, and no Euler failure
    g = PlaneGraph(((2,), (1, 3), (2,), ()), (1, 2))
    assert validate(g).failures == [("connected", "2 components")]
    g = PlaneGraph(((2,), (1,), (4,), (3,)), (1, 2))
    assert validate(g).failures == [("connected", "2 components")]


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
    for _ in range(2):  # the refusal is not cached away
        for step in (g.boundary_succ, g.boundary_pred):
            with pytest.raises(PlaneGraphError, match="not a simple cycle"):
                step(1)


def test_boundary_succ_pred_follow_the_walk():
    simple = 0
    for g in instances.face_test_graphs():
        walk = g.boundary_walk.vertices
        if not g.boundary_is_cycle():
            continue
        simple += 1
        k = len(walk)
        for _ in range(2):  # a second pass reads the cached maps
            for i, v in enumerate(walk):
                assert g.boundary_succ(v) == walk[(i + 1) % k]
                assert g.boundary_pred(v) == walk[i - 1]
        inner = next((v for v in g.vertices() if v not in g.boundary_vertices), None)
        if inner is not None:
            with pytest.raises(PlaneGraphError, match="not a boundary vertex"):
                g.boundary_pred(inner)
    assert simple > 50


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


def test_chords_of_the_hexagon_with_chord():
    g = hexagon_with_chord()
    walk = g.boundary_walk
    assert chords(g, walk) == {(1, 4)}


def test_two_chords():
    g = PlaneGraph({1: (2, 7, 6), 2: (3, 1), 3: (4, 2), 4: (5, 7, 3),
                    5: (6, 4), 6: (1, 5), 7: (4, 1)}, (1, 2))
    assert two_chords(g) == {(1, 7, 4)}


def test_chordless_c6_has_nothing():
    g = cycle_graph(6)
    assert chords(g) == set()
    assert two_chords(g) == set()


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


def _test_cycles(g):
    """Every 4-/5-cycle of g and its boundary cycle, if simple."""
    cycles = instances.reference_small_cycles(g)
    if g.boundary_walk.is_simple_cycle():
        cycles.append(g.boundary_walk.vertices)
    return cycles


def test_dart_classification_matches_face_flood():
    """The inside of ``cycle_sides`` -- every dart at a vertex strictly
    inside C, both darts of each chord inside, and each edge of C read
    against the returned walk -- holds exactly the darts of the faces that
    the face-adjacency flood cannot reach from the outer face.  The walk is C
    from a dart of its first edge in a face the flood reaches, and the
    chords outside are those with a dart in such a face.  Checked for every
    4-/5-cycle and every simple boundary cycle."""
    checked = 0
    for g in instances.face_test_graphs():
        for cyc in _test_cycles(g):
            k = len(cyc)
            edges = {und(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
            inner, walk, chords_in, chords_out = cycle_sides(g, cyc)
            inside = {d for v in inner for u in g.neighbors(v) for d in ((v, u), (u, v))}
            inside |= {d for u, v in chords_in for d in ((u, v), (v, u))}
            inside |= {(walk[(i + 1) % k], walk[i]) for i in range(k)}
            face_of, out_faces = instances.reference_outside_faces(g, edges)
            assert inside == {d for d, f in face_of.items() if f not in out_faces}
            assert walk[:2] in ((cyc[0], cyc[1]), (cyc[1], cyc[0]))
            assert sorted(walk) == sorted(cyc)
            assert face_of[walk[:2]] in out_faces
            assert chords_out == {(u, v) for u, v in g.edges
                                  if u in cyc and v in cyc and (u, v) not in edges
                                  and face_of[(u, v)] in out_faces}
            checked += 1
    assert checked > 600


def test_ext_and_sides_match_face_flood():
    """Ext(C) is the piece of the whole-graph dart classification, and the
    vertices off C in Int(C) and in Ext(C) are those all of whose faces the
    face-adjacency flood does not reach and reaches, for every 4-/5-cycle
    and every simple boundary cycle."""
    checked = separating = 0
    for g in instances.face_test_graphs():
        for cyc in _test_cycles(g):
            k = len(cyc)
            edges = {und(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
            ip, ep = int_ext_subgraphs(g, cyc)
            assert instances.same_piece(ip, instances.reference_int_subgraph(g, cyc))
            assert instances.same_piece(ep, instances.reference_ext_subgraph(g, cyc))
            face_of, out_faces = instances.reference_outside_faces(g, edges)
            off = [v for v in g.vertices() if v not in cyc]
            inner = {v for v in off
                     if all(face_of[(v, u)] not in out_faces for u in g.neighbors(v))}
            outer = {v for v in off
                     if all(face_of[(v, u)] in out_faces for u in g.neighbors(v))}
            assert set(ip.to_parent) - set(cyc) == inner
            assert set(ep.to_parent) - set(cyc) == outer
            separating += bool(inner and outer)
            checked += 1
    assert checked > 600 and separating > 50


def test_int_subgraph_matches_outside_flood():
    """The inside-only flood gives the piece of the whole-graph dart
    classification on every 4-/5-cycle, on both sides of every boundary
    chord and on a simple boundary cycle."""
    cycles = chord_sides = 0
    for g in (*instances.face_test_graphs(), *instances.large_grids()):
        for cyc in instances.reference_small_cycles(g):
            assert instances.same_piece(int_subgraph(g, cyc),
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
            assert instances.same_piece(int_subgraph(g, cyc),
                                        instances.reference_int_subgraph(g, cyc))
    assert cycles > 1000 and chord_sides > 200


def test_sides_of_inner_faces_match_outside_flood():
    """Int(C) and Ext(C) of every inner face bounded by a cycle, over the
    graphs with n <= 8, are the pieces of the whole-graph dart
    classification.  Such a C has nothing inside and every chord outside,
    so Int(C) is C alone, born knowing that it has no chords, and Ext(C)
    keeps the chords."""
    faces = outside_chords = 0
    for g in enumerate_graphs(8):
        for i, face in enumerate(g.faces):
            cyc = [u for u, _ in face]
            if i == g.outer_face_id or len(set(cyc)) != len(cyc):
                continue
            ip, ep = int_ext_subgraphs(g, cyc)
            assert instances.same_piece(ip, instances.reference_int_subgraph(g, cyc))
            assert instances.same_piece(ep, instances.reference_ext_subgraph(g, cyc))
            assert ip.graph.m == len(cyc) and ip.graph.boundary_chords == frozenset()
            faces += 1
            outside_chords += sum(u in cyc and v in cyc for u, v in g.edges) > len(cyc)
    assert faces > 2000 and outside_chords > 100


def test_int_subgraph_rejects_disconnected_graph():
    # a 4-cycle beside a lone edge
    g = PlaneGraph({1: (2, 4), 2: (3, 1), 3: (4, 2), 4: (1, 3), 5: (6,), 6: (5,)},
                   (1, 2))
    with pytest.raises(PlaneGraphError, match="connected"):
        int_subgraph(g, [1, 2, 3, 4])


@pytest.mark.parametrize("graph,cycle,message", [
    (cycle_graph(4), [1, 2, 1, 4], "not a cycle"),
    (cycle_graph(4), [1, 2], "not a cycle"),
    (cycle_graph(4), [1, 2, 3], "not a cycle of g"),
    (cycle_graph(6), [1, 2, 3, 4], "not a cycle of g"),
    (PlaneGraph({1: (2, 4), 2: (3, 1), 3: (4, 2), 4: (1, 3), 5: (6,), 6: (5,)},
                (1, 2)), [1, 2, 3, 4], "the sides of a cycle need a connected graph"),
])
def test_int_subgraph_error_messages(graph, cycle, message):
    """The three refusals, each with its exact message: a sequence that is
    not a cycle, a cycle whose edges are not all in g, and a g that is not
    connected."""
    for split in (int_subgraph, int_ext_subgraphs):
        with pytest.raises(PlaneGraphError, match=f"^{message}$"):
            split(graph, cycle)


MIRRORED = {"m", "edges", "components", "block_decomposition",
            "separating_small_cycle", "boundary_walk"}


def test_mirror_inherits_its_parents_structure():
    graphs = [*enumerate_graphs(6), instances.grid(4, 5), instances.nested_squares(3)]
    for g in graphs:
        for name in MIRRORED:
            getattr(g, name)
        mirror = g.reflect()
        assert MIRRORED <= set(mirror.__dict__)
        assert instances.stale_cache_entries(mirror) == []
        assert mirror.reflect() == g
    # nothing is seeded that the parent has not computed
    grid = instances.grid(4, 5)
    bare = PlaneGraph(grid.rotation, grid.outer)
    assert set(bare.reflect().__dict__) == {"rotation", "outer"}


def test_pieces_inherit_only_a_none_verdict():
    g = instances.nested_squares(3)
    assert g.separating_small_cycle == (5, 6, 7, 8)
    inner = int_subgraph(g, (5, 6, 7, 8)).graph
    assert "separating_small_cycle" not in inner.__dict__
    assert inner.separating_small_cycle is None
    grid = instances.grid(5, 5)
    assert grid.separating_small_cycle is None
    piece = extract_piece(grid, set(grid.vertices()) - {13}).graph
    assert piece.__dict__["separating_small_cycle"] is None
    assert instances.stale_cache_entries(piece) == []


def test_only_interiors_inherit_two_connectedness():
    g = instances.grid(4, 4)
    cycle = (1, 2, 3, 7, 11, 10, 9, 5)
    assert "block_decomposition" not in int_subgraph(g, cycle).graph.__dict__
    assert g.is_two_connected()
    inner = int_subgraph(g, cycle).graph
    assert inner.n == 9 and "block_decomposition" in inner.__dict__
    assert instances.stale_cache_entries(inner) == []
    # a plain piece on the same vertices may fall apart: nothing is seeded
    piece = extract_piece(g, set(cycle) | {6}).graph
    assert "block_decomposition" not in piece.__dict__
