import networkx as nx
import pytest

from planedec.config_algebra import Configuration
from planedec.decomposition import (ConstraintSpec, MatchedPartnerOnBoundary,
                                    verify, verify_21)
from planedec.main_decomposer import (CaseTrace, PreconditionError,
                                      _bounds_face, decompose_21,
                                      decompose_config, goal_spec,
                                      has_separating_small_cycle,
                                      resolve_two_chords, small_cycles)
from planedec.oracle import enumerate_configurations, enumerate_graphs
from planedec.plane_graph import PlaneGraph, cycle_graph, und

import instances


def test_c4_m0_uses_family_route():
    cfg = Configuration(cycle_graph(4), (1, 2, 3, 4))
    dec, trace = decompose_config(cfg, "M0")
    assert "SpecialFamily" in trace.labels()
    assert verify(cfg.graph, cfg.path, goal_spec("M0", cfg), dec).ok


def test_c6_m2_matches_known_unique_decomposition():
    cfg = Configuration(cycle_graph(6), (1, 2, 3, 4))
    dec, trace = decompose_config(cfg, "M2")
    assert dec.arcs == frozenset({(1, 2), (4, 3), (5, 4), (6, 1)})
    assert dec.matching == frozenset({(5, 6)})
    assert {"CStar", "Claim8"} <= trace.labels()


def test_blocks_route_through_claim2():
    rot = {1: (2, 4, 5, 7), 2: (3, 1), 3: (4, 2), 4: (1, 3),
           5: (6, 1), 6: (7, 5), 7: (1, 6)}
    g = PlaneGraph(rot, (1, 2))
    cfg = Configuration(g, (1, 2, 3, 4))
    dec, trace = decompose_config(cfg, "M0")
    assert trace.entries[0][0] == "Claim2"


def test_claim6_instance_from_enumeration():
    rot = ((2, 3, 4), (1, 6, 5), (1, 8, 7), (1, 7, 9), (2, 8), (2, 9),
           (3, 4), (3, 5), (4, 6))
    g = PlaneGraph(rot, (2, 5))
    cfg = Configuration(g, (2, 5, 8, 3))
    for goal in ("M0", "M2", "M3"):
        dec, trace = decompose_config(cfg, goal)
        assert "Claim6" in trace.labels()


def test_two_chord_resolution_defers_without_two_chords():
    cfg = Configuration(cycle_graph(6), (1, 2, 3, 4))
    assert resolve_two_chords(cfg, CaseTrace()) is None


def test_m2_precondition_error_carries_witness():
    cfg = Configuration(cycle_graph(4), (1, 2, 3, 4))
    with pytest.raises(PreconditionError) as exc:
        decompose_config(cfg, "M2")
    assert exc.value.goal == "M2"
    with pytest.raises(PreconditionError):
        decompose_config(cfg, "M3")


def test_m1_precondition_error_on_chordless():
    cfg = Configuration(cycle_graph(6), (1, 2, 3, 4))
    with pytest.raises(PreconditionError):
        decompose_config(cfg, "M1")


def test_goal_monotonicity():
    """Whenever M2 applies, its output also verifies as M3 and M0."""
    from planedec.sweeps import applicable_goals
    checked = 0
    for g in enumerate_graphs(7):
        for quad in enumerate_configurations(g):
            if "M2" not in applicable_goals(g, quad):
                continue
            cfg = Configuration(g, quad)
            dec, _ = decompose_config(cfg, "M2")
            assert verify(g, quad, goal_spec("M3", cfg), dec).ok
            assert verify(g, quad, goal_spec("M0", cfg), dec).ok
            checked += 1
    assert checked >= 10


def test_separating_cycle_detection():
    assert has_separating_small_cycle(cycle_graph(6)) is None
    # K_{2,3}: the boundary 4-cycle has a vertex inside but nothing outside
    g = PlaneGraph({1: (2, 3, 4), 2: (1, 5), 3: (1, 5), 4: (1, 5),
                    5: (2, 4, 3)}, (1, 2))
    assert has_separating_small_cycle(g) is None


def _triangle_graphs():
    """Graphs with triangles, where listing by neighbourhoods must reject
    repeated vertices, and triangle-free graphs with many 5-cycles."""
    return [instances.adjacency_graph(G) for G in (
        nx.complete_graph(5), nx.wheel_graph(7), nx.octahedral_graph(),
        nx.icosahedral_graph(), nx.triangular_lattice_graph(3, 4),
        nx.petersen_graph(), nx.dodecahedral_graph(),
        nx.complete_bipartite_graph(3, 3))]


def test_small_cycles_match_reference_dfs():
    graphs = [*instances.face_test_graphs(), *instances.large_grids(),
              *_triangle_graphs()]
    fours = fives = 0
    for g in graphs:
        want = instances.reference_small_cycles(g)
        assert small_cycles(g) == want
        assert small_cycles(g, (4,)) == instances.reference_small_cycles(g, (4,))
        assert small_cycles(g, (5,)) == instances.reference_small_cycles(g, (5,))
        fours += sum(len(c) == 4 for c in want)
        fives += sum(len(c) == 5 for c in want)
    assert fours > 1000 and fives > 100


@pytest.mark.parametrize("lengths", [(), (3,), (4, 6)])
def test_small_cycles_rejects_other_lengths(lengths):
    with pytest.raises(ValueError, match="not among"):
        small_cycles(cycle_graph(4), lengths)


def test_goal_specs():
    cfg = Configuration(cycle_graph(6), (1, 2, 3, 4))
    assert goal_spec("M0", cfg) == ConstraintSpec.parse("1001,1001", side_conditions=[
        MatchedPartnerOnBoundary(1), MatchedPartnerOnBoundary(4)])
    assert goal_spec("M1", cfg) == ConstraintSpec.parse("1001,0000", relaxed=True)
    assert goal_spec("M2", cfg) == ConstraintSpec.parse("1001,0000")
    assert goal_spec("M3", cfg) == ConstraintSpec.parse("1001,1000")
    with pytest.raises(ValueError, match="unknown goal"):
        goal_spec("M4", cfg)


def _reference_separating_cycle(g):
    """The first 4-/5-cycle with a vertex whose faces all lie inside and one
    whose faces all lie outside, every cycle tested by a face flood."""
    for cyc in instances.reference_small_cycles(g):
        k = len(cyc)
        edges = {und(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
        face_of, outside = instances.reference_outside_faces(g, edges)
        sides = [{face_of[(v, u)] in outside for u in g.neighbors(v)}
                 for v in g.vertices() if v not in cyc]
        if {False} in sides and {True} in sides:
            return cyc
    return None


def test_separating_cycle_matches_face_flood():
    found = facial = 0
    for g in instances.face_test_graphs():
        want = _reference_separating_cycle(g)
        assert has_separating_small_cycle(g) == want
        found += want is not None
        faces = {frozenset(f) for f in g.faces}
        for cyc in instances.reference_small_cycles(g):
            k = len(cyc)
            darts = frozenset((cyc[i], cyc[(i + 1) % k]) for i in range(k))
            rev = frozenset((v, u) for u, v in darts)
            is_face = darts in faces or rev in faces
            assert _bounds_face(g, cyc) == is_face
            facial += is_face
    assert found > 0 and facial > 0


@pytest.mark.parametrize("r,c", [(12, 12), (2, 100)])
def test_decompose_21_grid_and_ladder(r, c):
    g = instances.grid(r, c)
    dec, _ = decompose_21(g)
    assert verify_21(g, dec).ok


def test_decompose_21_c4():
    dec, _ = decompose_21(cycle_graph(4))
    assert verify_21(cycle_graph(4), dec).ok
    assert len(dec.matching) <= 2


def test_decompose_21_trees():
    p4 = PlaneGraph({1: (2,), 2: (1, 3), 3: (2, 4), 4: (3,)}, (1, 2))
    dec, _ = decompose_21(p4)
    assert dec.matching == frozenset()
    assert all(dec.out_degree(v) <= 1 for v in p4.vertices())
    star = PlaneGraph({1: (2, 3, 4), 2: (1,), 3: (1,), 4: (1,)}, (1, 2))
    dec, _ = decompose_21(star)
    assert verify_21(star, dec).ok


def test_determinism_replays_traces():
    """The driver is deterministic: re-running a configuration reproduces the
    same decomposition and the same case sequence."""
    for g in enumerate_graphs(6):
        for quad in enumerate_configurations(g):
            cfg = Configuration(g, quad)
            d1, t1 = decompose_config(cfg, "M0")
            d2, t2 = decompose_config(cfg, "M0")
            assert d1 == d2 and t1.entries == t2.entries
            break


def test_decompose_21_small_sweep():
    for g in enumerate_graphs(6):
        dec, _ = decompose_21(g)
        assert verify_21(g, dec).ok


@pytest.mark.parametrize("maker,label", [
    (instances.claim9_instance, "Claim9"),
    (instances.claim10_instance, "Claim10"),
    (instances.claim11_instance, "Claim11"),
    (instances.final_instance, "Final"),
])
def test_hand_built_branch_instances(maker, label):
    g, path = maker()
    cfg = Configuration(g, path)
    dec, trace = decompose_config(cfg, "M2")
    assert label in trace.labels()
    assert verify(g, path, goal_spec("M2", cfg), dec).ok
