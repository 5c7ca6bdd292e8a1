import contextlib
import hashlib
import random
import signal
import sys

import networkx as nx
import pytest

from planedec import config_algebra, main_decomposer, plane_graph
from planedec.config_algebra import Configuration
from planedec.decomposition import (ConstraintSpec, MatchedPartnerOnBoundary,
                                    VerifyReport, check_coloring,
                                    defective_coloring, verify, verify_21)
from planedec.main_decomposer import (CaseTrace, CounterexampleError,
                                      DecomposeError, PreconditionError,
                                      _balanced_chord, _claim1_peel,
                                      _walk_path, decompose_21,
                                      decompose_config, goal_spec,
                                      resolve_two_chords, walk_quad)
from planedec.oracle import (brute_force, enumerate_configurations,
                             enumerate_graphs)
from planedec.plane_graph import (PlaneGraph, PlaneGraphError, _bounds_face,
                                  chords, cycle_graph, int_ext_subgraphs,
                                  int_subgraph, small_cycles, und)
from planedec.sweeps import applicable_goals

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
    assert cycle_graph(6).separating_small_cycle is None
    # K_{2,3}: the boundary 4-cycle has a vertex inside but nothing outside
    g = PlaneGraph({1: (2, 3, 4), 2: (1, 5), 3: (1, 5), 4: (1, 5),
                    5: (2, 4, 3)}, (1, 2))
    assert g.separating_small_cycle is None


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
        assert g.separating_small_cycle == want
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


def test_ladder_2x1000_decomposes_without_deep_recursion():
    """Claim 4 splits a ladder at its middle rung, so the 2 x 1000 ladder
    (n = 2000) stays far inside the default recursion limit; each of its
    998 inner rungs is split once."""
    g = instances.grid(2, 1000)
    dec, trace = decompose_21(g)
    assert verify_21(g, dec).ok
    assert check_coloring(g, dec, defective_coloring(g, dec)).ok
    assert sum(lab == "Claim4" for lab, _ in trace.entries) == 998


# (seed, k, share) of bench_grid_subgraph: plain backtracking over the edges
# left by _claim_xuz ran past 5 s of CPU on the first 13, and the last 6 hit
# a 24-edge cap on the search in the G'' step or Claim 7's patch search
FORMER_SEARCH_FAILURES = [
    (1, 10, .1), (2, 8, .1), (4, 9, .4), (5, 7, .25), (5, 9, .25),
    (6, 8, .25), (6, 10, .1), (6, 10, .25), (7, 10, .25), (8, 9, .1),
    (8, 10, .25), (9, 8, .25), (10, 9, .1),
    (3, 9, .25), (5, 7, .4), (6, 8, .4), (6, 10, .4), (8, 6, .4), (10, 9, .25),
]
# where y dangles in Claim 11's G'', which no longer goes to the search: the
# step that runs instead
CLAIM11_CHAINS = {(5, 7, .4): ("Claim11", "dangling 4"),
                  (6, 10, .4): ("Claim11", "dangling 30")}


@pytest.mark.parametrize("seed,k,share", FORMER_SEARCH_FAILURES)
def test_grid_subgraphs_that_needed_a_long_search(seed, k, share):
    g = instances.bench_grid_subgraph(seed, k, share)
    dec, trace = decompose_21(g)
    step = CLAIM11_CHAINS.get((seed, k, share))
    if step is None:
        assert "Tiny" in trace.labels()
    else:
        assert step in trace.entries
        assert _searches(trace.entries, "anchored-0000") == []
    assert verify_21(g, dec).ok


def test_grid_subgraph_with_the_claim7_wrong_assembly():
    """Claim 7's unverified union covered an edge twice here; the glue now
    checks it and falls back to the search."""
    g = instances.bench_grid_subgraph(10, 10, .25)
    dec, _ = decompose_21(g)
    assert verify_21(g, dec).ok


# The graph behind ROADMAP item 1: Claim 7's fan piece and left part both
# matched x_{i+1}, and their union went back unchecked (m = 11, within the
# oracle's reach).
CLAIM7_LEFT_PART_N9 = PlaneGraph(
    ((2, 3, 4), (1, 6, 5), (1, 8, 7), (1, 7, 9), (2, 8), (2, 9), (3, 4),
     (3, 5), (4, 6)), (2, 5))


def test_claim7_left_part_assembly_on_every_n9_path():
    """Every applicable goal on every boundary path decomposes, verifies,
    and the oracle confirms it; (9, 6, 2, 5) and (6, 2, 5, 8) failed M0, M2
    and M3 with a vertex matched twice."""
    g = CLAIM7_LEFT_PART_N9
    patched = 0
    for quad in enumerate_configurations(g):
        for goal in applicable_goals(g, quad):
            cfg = Configuration(g, quad)
            dec, trace = decompose_config(cfg, goal)
            spec = goal_spec(goal, cfg)
            assert verify(g, quad, spec, dec).ok
            assert brute_force(g, quad, spec)
            patched += ("Tiny", "claim7 patch n=9") in trace.entries
    assert patched == 6


@pytest.mark.parametrize("rot,outer", [
    (((2, 3, 5, 4), (1, 7, 6), (1, 8), (1, 9), (1,), (2, 10, 8), (2, 9, 10),
      (3, 6), (4, 7), (6, 7)), (1, 5)),
    (((2, 3, 4), (1, 6, 5), (1, 8, 7), (1, 7, 9), (2, 10, 8), (2, 9, 10),
      (3, 4), (3, 5), (4, 6), (5, 6)), (3, 7)),
])
def test_n10_graphs_with_the_claim7_wrong_assembly(rot, outer):
    """Each failed on an n = 9 relabelling of the graph above."""
    g = PlaneGraph(rot, outer)
    dec, _ = decompose_21(g)
    assert verify_21(g, dec).ok


@pytest.mark.parametrize("seed,k,share,i", [
    (3, 5, 0.1, 1), (3, 5, 0.4, 1), (10, 5, 0.1, 3)])
def test_large_ops_with_the_claim7_wrong_assembly(seed, k, share, i):
    """Three ops of the benchmark's large workload that raised 'edges
    covered twice' from Claim 7."""
    g = instances.bench_large_subgraph(seed, k, share, i)
    dec, _ = decompose_21(g)
    assert verify_21(g, dec).ok


@pytest.mark.parametrize("error", [CounterexampleError, PreconditionError])
def test_anchored_0000_searches_only_on_a_failed_precondition(monkeypatch, error):
    """On this grid subgraph Claim 11's G'' asks the G'' step once.  When
    the step's recursion fails its precondition, the step falls to the
    search, whose entry names the failed goal (a precondition with a
    witness gives the witness's tag); a fault propagates."""
    g = instances.bench_grid_subgraph(7, 5, .4)
    calls = []
    step, solve = main_decomposer._obs_0000, main_decomposer._solve

    def failing(piece, path, goal, trace):
        if error is PreconditionError:
            raise PreconditionError(goal, "special containment present")
        raise CounterexampleError(main_decomposer._sub_config(piece, path),
                                  f"assembled decomposition violates {goal}")

    def asked(cfg, piece, cross, label, trace):
        calls.append(label)
        monkeypatch.setattr(main_decomposer, "_solve", failing)
        try:
            return step(cfg, piece, cross, label, trace)
        finally:
            monkeypatch.setattr(main_decomposer, "_solve", solve)

    monkeypatch.setattr(main_decomposer, "_obs_0000", asked)
    if error is CounterexampleError:
        with pytest.raises(CounterexampleError):
            decompose_21(g)
    else:
        dec, trace = decompose_21(g)
        assert ("Tiny", "anchored-0000 M2 n=12") in trace.entries
        assert verify_21(g, dec).ok
    assert calls == ["Claim11"]


def test_anchored_0000_on_a_piece_that_falls_apart():
    """The G'' step, as Claim 10 calls it, on a piece that falls apart: the
    10-cycle 1-10 on the path (1, 2, 3, 4), with the 2-chord 1-15-16-4
    inside and the 4-cycle 11-12-13-14 joined to 6 and 7, which are cut
    away as a run would be.  The split gives the x-y component, which holds
    z = 4, the recursion, and the 4-cycle, peeled at 11, ``_component``.
    With the cross arcs (11, 6) and (12, 7) and what a caller adds for the
    run (the arcs (6, 5) and (7, 8) and the matching edge 6-7) the result
    meets goal M2, z's caps included, and nothing is searched."""
    g = PlaneGraph(((2, 15, 10), (1, 3), (2, 4), (3, 5, 16), (4, 6), (5, 7, 11),
                    (6, 8, 12), (7, 9), (8, 10), (1, 9), (6, 12, 14), (7, 13, 11),
                    (12, 14), (11, 13), (1, 16), (4, 15)), (1, 2))
    cfg = Configuration(g, (1, 2, 3, 4))
    piece = main_decomposer.extract_piece(g, set(g.vertices()) - {6, 7},
                                          outer_parent_edge=(2, 3))
    assert not piece.graph.is_connected()
    cross = [(11, 6), (12, 7)]
    trace = CaseTrace()
    dec = main_decomposer._obs_0000(cfg, piece, cross, "Claim10", trace)
    assert ("Claim10", "component n=4") in trace.entries
    assert "Tiny" not in trace.labels()
    assert dec.matched_partner(4) is None and dec.out_degree(4) <= 1
    run = dec.adjust(add_arcs=cross + [(6, 5), (7, 8)], add_matching=[(6, 7)])
    assert verify(g, cfg.path, goal_spec("M2", cfg), run).ok


class _OverBudget(Exception):
    pass


@contextlib.contextmanager
def _cpu_budget(seconds):
    def over(signum, frame):
        raise _OverBudget(f"over {seconds} s of CPU time")

    old = signal.signal(signal.SIGPROF, over)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


@pytest.mark.parametrize("L", [15, 40, 80])
def test_3_by_L_ladder_searches_once(L):
    """Each column of a 3 x L ladder used to triple the search in
    _claim_xuz; the pruned search takes milliseconds at L = 80, so a budget
    of seconds only trips on an exponential search."""
    g = instances.grid(3, L)
    with _cpu_budget(10):
        dec, trace = decompose_21(g)
    assert verify_21(g, dec).ok
    assert sum(lab == "Tiny" for lab, _ in trace.entries) == 1


def test_grid_subgraph_search_backjumps():
    """The 20 x 20 grid subgraph (3, 20, .4) reaches a search over 102 edges
    whose refusals at edge 23 go back to a choice at edge 4.  Stepping back
    one edge at a time took 10-15 s of CPU there on a 2-vCPU VM;
    backjumping takes milliseconds."""
    g = instances.bench_grid_subgraph(3, 20, .4)
    with _cpu_budget(5):
        dec, trace = decompose_21(g)
    assert "Tiny" in trace.labels()
    assert verify_21(g, dec).ok


PAST_ONE_BYTE = [
    ("grid", 16, 16), ("grid", 20, 20), ("grid", 3, 200),
    *(("subgraph", seed, 20) for seed in range(1, 6)),
]


@pytest.mark.parametrize("kind,a,b", PAST_ONE_BYTE)
def test_decompose_21_past_n_255(kind, a, b):
    """Full grids, the 3 x 200 ladder and the k = 20, share 0.1 grid
    subgraphs have n >= 256, past any one-byte vertex label; each takes well
    under a second of CPU, so the budget only trips on a blow-up."""
    g = (instances.grid(a, b) if kind == "grid"
         else instances.bench_grid_subgraph(a, b, .1))
    assert g.n >= 256
    with _cpu_budget(10):
        dec, _ = decompose_21(g)
    assert verify_21(g, dec).ok


def _peel_order(g):
    """(label, id in g, sorted out-neighbours) per vertex _claim1_peel
    deletes, the label read from its trace entry."""
    trace = CaseTrace()
    peeled = _claim1_peel(g, trace)
    assert [lab for lab, _ in trace.entries] == ["Claim1"] * len(peeled)
    return [(int(detail.removeprefix("delete ")), v, sorted(out))
            for (_, detail), (v, _, out) in zip(trace.entries, peeled)]


def _with_lone_vertices(g):
    """g beside a lone vertex with the first, a middle or the last id, and
    g beside two lone vertices."""
    out = [PlaneGraph(g.rotation + ((), ()), g.outer)]
    for k in (1, g.n // 2 + 1, g.n + 1):
        def up(u):
            return u + (u >= k)
        rot = [tuple(map(up, r)) for r in g.rotation]
        rot.insert(k - 1, ())
        out.append(PlaneGraph(rot, tuple(map(up, g.outer))))
    return out


def test_claim1_peel_matches_the_per_level_rule():
    """The peel deletes the vertices, in the order, under the labels and
    with the out-arcs that one recursion level per vertex gave: on every
    graph with n <= 8, the grids and ladders of large_grids(), seeded grid
    subgraphs and subdivided ladders, and (for the connectivity test) some
    of them beside lone vertices."""
    graphs = [*enumerate_graphs(8), *instances.large_grids(),
              *(instances.grid_subgraph(k, share, seed) for k in (4, 6, 8, 10)
                for share in (0.0, 0.25, 0.5) for seed in range(4)),
              *(instances.subdivided_ladder(L) for L in (3, 4, 5, 10, 30))]
    graphs += [h for g in graphs[:300:3] if g.m for h in _with_lone_vertices(g)]
    peeled = deleted = 0
    for g in graphs:
        want = instances.reference_claim1_order(g)
        assert _peel_order(g) == want, (g.rotation, g.outer)
        peeled += bool(want)
        deleted += len(want)
    # cut vertices of degree 2 are skipped, and deletions make new candidates
    assert peeled > 1000 and deleted > 4000


def test_subdivided_ladder_peels_every_rung_midpoint():
    """The 2 x 85 ladder with its 83 inner rungs subdivided (n = 253): one
    Claim 1 entry per midpoint, then the 170-cycle that is left."""
    g = instances.subdivided_ladder(85)
    assert g.n == 253
    dec, trace = decompose_21(g)
    assert verify_21(g, dec).ok
    assert check_coloring(g, dec, defective_coloring(g, dec)).ok
    assert sum(lab == "Claim1" for lab, _ in trace.entries) == 83


@pytest.mark.parametrize("L", [60, 85])
def test_subdivided_ladder_under_a_low_recursion_limit(L):
    """The peel recurses once for all the midpoints, not once per midpoint,
    so 150 frames above the caller suffice."""
    g = instances.subdivided_ladder(L)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        dec, _ = decompose_21(g)
    finally:
        sys.setrecursionlimit(old)
    assert verify_21(g, dec).ok


def test_decompose_21_rejects_a_wheel():
    """W6 is a plane graph with triangles: PlaneGraphError, not a
    counterexample to the theorem."""
    rim = list(range(2, 8))
    rot = [tuple(rim)] + [(rim[(i + 1) % 6], 1, rim[i - 1]) for i in range(6)]
    with pytest.raises(PlaneGraphError, match="triangle-free") as exc:
        decompose_21(PlaneGraph(rot, (2, 3)))
    assert not isinstance(exc.value, DecomposeError)


def test_decompose_21_beside_a_lone_vertex():
    g = PlaneGraph(((2,), (1, 3), (2,), ()), (1, 2))
    dec, _ = decompose_21(g)
    assert verify_21(g, dec).ok


def test_claim9_with_the_chord_arc_from_wi_to_wj():
    """With the arc (wi, wj) in D', Claim 9 still reads the path of G''
    through vertices of G''."""
    g = instances.claim9_chord_arc_instance()
    dec, trace = decompose_21(g)
    assert "Claim9" in trace.labels()
    assert verify_21(g, dec).ok


@pytest.mark.parametrize("L", [4, 5, 10, 11, 40, 41])
def test_balanced_chord_is_the_middle_rung(L):
    """Rung j of the 2 x L ladder joins j + 1 and L + j + 1 and cuts the
    boundary walk into sides of 2j + 1 and 2(L - j) - 1 steps.  An odd L
    has one middle rung; an even L has two equally balanced ones, and the
    first in sorted order wins."""
    g = instances.grid(2, L)
    rungs = sorted(chords(g))
    assert rungs == [(j + 1, L + j + 1) for j in range(1, L - 1)]
    j = (L - 1) // 2
    assert _balanced_chord(g, rungs) == (j + 1, L + j + 1)
    assert _balanced_chord(g, rungs[::-1]) == (L // 2 + 1, L + L // 2 + 1)


def test_piece_boundary_steps_speak_parent_ids():
    """On Int(C) for the 8-cycle around the top-left 3 x 3 block of the
    4 x 4 grid (child ids 1..9, parent ids 1..11), Piece.succ/pred,
    and walk_quad take and give parent ids."""
    cyc = (1, 2, 3, 7, 11, 10, 9, 5)
    piece = int_subgraph(instances.grid(4, 4), cyc)
    assert piece.to_parent == (1, 2, 3, 5, 6, 7, 9, 10, 11)
    for i, v in enumerate(cyc):
        nbrs = {cyc[i - 1], cyc[(i + 1) % len(cyc)]}
        assert {piece.succ(v), piece.pred(v)} == nbrs
        assert piece.pred(piece.succ(v)) == v
    with pytest.raises(KeyError):
        piece.succ(4)  # not in the piece
    with pytest.raises(PlaneGraphError):
        piece.succ(6)  # inside C, off the boundary
    assert walk_quad(piece, 3, 7) == (2, 3, 7, 11)
    assert walk_quad(piece, 7, 3) == (11, 7, 3, 2)
    assert walk_quad(piece, 9, 5, 1) == (10, 9, 5, 1)
    assert walk_quad(piece, 1, 5, 9) == (2, 1, 5, 9)
    with pytest.raises(PlaneGraphError):
        walk_quad(piece, 5, 6)  # not a walk step


def test_walk_path_keeps_the_first_match_of_the_three_scans():
    """On the boundary walks of the n <= 7 graphs and of spanning trees of
    the 3 x 3 and 5 x 5 grids, walks that repeat vertices, the one scan
    gives what the three it replaced gave: the first window, and the first
    path around every walk step and ending in every run of three walk
    steps, read either way."""
    walks = [g.boundary_walk.vertices for g in (
        *instances.face_test_graphs(),
        *(instances.grid_subgraph(k, 0.0, seed) for k in (3, 5) for seed in range(6)))]
    checked = 0
    for vs in walks:
        k = len(vs)
        assert _walk_path(vs) == instances.reference_walk_scans(vs, ())
        for i in range(k):
            pair, run = (vs[i], vs[(i + 1) % k]), tuple(vs[(i + j) % k] for j in range(3))
            for steps in (pair, pair[::-1], run, run[::-1]):
                assert _walk_path(vs, steps) == instances.reference_walk_scans(vs, steps)
                checked += 1
    assert checked > 6000


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


def _fold_run(h, key, run) -> list[tuple[str, str]] | None:
    """Fold one run into a running SHA-256: its case trace, arcs and
    matching, or the type and message of what it raised.  Its trace entries
    on success, None on failure."""
    try:
        dec, trace = run()
    except Exception as exc:  # noqa: BLE001 - a failure is part of the output
        h.update(repr((key, type(exc).__name__, str(exc))).encode())
        return None
    h.update(repr((key, trace.entries, sorted(dec.arcs),
                   sorted(dec.matching))).encode())
    return trace.entries


def _searches(entries, kind: str) -> list[tuple[str, str]]:
    """The entries of the exhaustive search of the given kind: "anchored",
    Claim 8's old G'' search, which the dangling chain and the per-component
    step replaced, or "anchored-0000", the G'' step of Claims 9-11 and the
    final step, which searches only behind a failed precondition."""
    return [e for e in entries if e[0] == "Tiny" and e[1].startswith(kind + " ")]


# pins the trace and output of every top-level M0-M3 run at n <= 8, which
# criterion 6 (decompose_21 only) does not
CONFIG_OUTPUTS_DIGEST = \
    "c9f13a1152616418c99911feeeb63711cfffcbae945def84bd2f006cca1c98a9"


def test_configuration_outputs_frozen():
    """Every applicable goal on every configuration with n <= 8 gives the
    same case trace and the same decomposition."""
    h = hashlib.sha256()
    runs = ok = 0
    anchored = []
    for g in enumerate_graphs(8):
        for quad in enumerate_configurations(g):
            for goal in applicable_goals(g, quad):
                cfg = Configuration(g, quad)
                runs += 1
                entries = _fold_run(h, (quad, goal),
                                    lambda: decompose_config(cfg, goal))
                ok += entries is not None
                anchored += _searches(entries or (), "anchored")
    assert (runs, ok) == (7418, 7418)
    assert anchored == []
    assert h.hexdigest() == CONFIG_OUTPUTS_DIGEST


def _large_instances():
    for k in (8, 12, 16):
        yield instances.grid(k, k)
    yield instances.grid(2, 130)
    yield instances.grid(3, 15)
    yield instances.subdivided_ladder(40)
    for seed in range(1, 11):
        for k in range(5, 11):
            for share in (.1, .25, .4):
                yield instances.bench_grid_subgraph(seed, k, share)


# every run succeeds; recorded with the same code as CONFIG_OUTPUTS_DIGEST
LARGE_OUTPUTS_DIGEST = \
    "701fafcd97ff082f05fa028bbe41edb0417366d547dcf8897c7a6dc1433c6942"


def test_large_outputs_frozen():
    """decompose_21 on grids, ladders, a subdivided ladder and the 180 grid
    subgraphs gives the same traces and decompositions, and fails the same
    way where it fails.  These reach Claims 1, 2, 4, 5, 7-11 and the
    exhaustive searches; Claims 3 and 6 are pinned by the n <= 9 digests."""
    h = hashlib.sha256()
    runs = ok = 0
    anchored = []
    for g in _large_instances():
        runs += 1
        entries = _fold_run(h, g.n, lambda: decompose_21(g))
        ok += entries is not None
        anchored += _searches(entries or (), "anchored")
    assert (runs, ok) == (186, 186)
    assert anchored == []
    assert h.hexdigest() == LARGE_OUTPUTS_DIGEST


# grid subgraphs of the benchmark's large workload where Claim 8's G'' falls
# apart into the lone edge x-y and the rest, as (seed, k, share, i) for
# bench_large_subgraph: the ops 60 of seed 1, 45 and 85 of seed 7, 70 and 89
# of seed 8, 75 of seed 10, 114 of seed 12, 85 of seed 13 and 75 of seed 15
SPLIT_PIECE_CASES = [(1, 6, .4, 4), (7, 5, .4, 4), (7, 8, .25, 4), (8, 7, .25, 4),
                     (8, 8, .4, 3), (10, 7, .4, 4), (12, 10, .25, 3),
                     (13, 8, .25, 4), (15, 7, .4, 4)]


@pytest.mark.parametrize("seed,k,share,i", SPLIT_PIECE_CASES)
def test_claim8_piece_that_falls_apart(seed, k, share, i):
    """The lone edge x-y drops out, every other component of G'' is
    decomposed on its own, and the cross arcs reach each of them."""
    g = instances.bench_large_subgraph(seed, k, share, i)
    dec, trace = decompose_21(g)
    assert ("Claim8", "dangling 2") in trace.entries
    assert any(lab == "Claim8" and detail.startswith("component ")
               for lab, detail in trace.entries)
    assert _searches(trace.entries, "anchored") == []
    assert verify_21(g, dec)


def test_claim11_piece_that_falls_apart():
    """Op 119 of the large workload's seed 21: Claim 11's G'' falls apart.
    The x-y component takes the recursion and the other one ``_component``,
    where the exhaustive search once took the whole piece."""
    g = instances.bench_large_subgraph(21, 10, .4, 3)
    dec, trace = decompose_21(g)
    assert ("Claim11", "component n=6") in trace.entries
    assert _searches(trace.entries, "anchored-0000") == []
    assert verify_21(g, dec)


@pytest.mark.parametrize("name,claim,step", [
    pytest.param("A", "Claim8", ("Claim8", "component n=21"),
                 id="A-Claim8-component"),
    pytest.param("B", "Claim10", ("Claim10", "component n=9"),
                 id="B-Claim10-component"),
    pytest.param("D", "Claim10", ("Claim10", "component n=111"),
                 id="D-Claim10-component"),
])
def test_cubic_dual_whose_g_double_prime_falls_apart(name, claim, step):
    """The G'' of Claim 8 (A) or Claim 10 (B, D) falls apart.  In A and B
    the recursion's Claim 2 once raised 'bridge of a block with attachments
    set()'; in D the search that took B over once matched z, which M2
    leaves unmatched.  Each component away from x-y is decomposed on its
    own, and no search runs."""
    g = PlaneGraph(*instances.FALLING_APART[name])
    dec, trace = decompose_21(g)
    assert claim in trace.labels()
    assert step in trace.entries
    assert _searches(trace.entries, "anchored") == []
    assert _searches(trace.entries, "anchored-0000") == []
    assert verify_21(g, dec)


def test_cubic_duals_are_seeded_cubic_and_triangle_free():
    """The generator gives n = 2V - 4 vertices, all of degree 3 before
    thinning; a share s deletes int(s m) edges and keeps the graph valid
    (connected and triangle-free); the same arguments give the same graph,
    and instance D is cubic_dual(94, 13)."""
    for V in (8, 9, 30, 61):
        g = instances.cubic_dual(V, 1)
        assert g.n == 2 * V - 4
        assert {g.degree(v) for v in g.vertices()} == {3}
        for share in (.1, .25):
            thin = instances.cubic_dual(V, 1, share)
            assert thin.m == g.m - int(share * g.m)
            assert plane_graph.validate(thin).ok
    assert instances.cubic_dual(30, 2, .1) == instances.cubic_dual(30, 2, .1)
    assert instances.cubic_dual(30, 2) != instances.cubic_dual(30, 3)
    assert instances.cubic_dual(94, 13) == PlaneGraph(*instances.FALLING_APART["D"])


# The n = 27 level of a cubic dual behind instance D's failure: Claim 10's
# G'' falls apart, and the search that took it over matched z = 19.
CLAIM10_Z_LEVEL = PlaneGraph(
    ((5, 7), (4, 13, 5), (27, 4), (3, 11, 2), (2, 10, 1), (10, 19, 8), (9, 1),
     (6, 21, 9), (8, 7), (5, 18, 6), (13, 4, 12), (11, 26, 14), (14, 2, 11),
     (12, 25, 13), (16, 17), (18, 20, 15), (15, 19), (10, 22, 16),
     (17, 21, 6), (16, 22), (19, 8), (18, 23, 20), (22, 25), (26, 27),
     (23, 14, 26), (25, 12, 24), (24, 3)), (21, 8))


def test_claim10_g_double_prime_keeps_z_unmatched():
    """M2 on (16, 15, 17, 19): z = 19 lies in the x-y component of Claim
    10's G'', which takes the recursion under the goal's caps, while the
    other component (n = 4) goes through ``_component``."""
    cfg = Configuration(CLAIM10_Z_LEVEL, (16, 15, 17, 19))
    dec, trace = decompose_config(cfg, "M2")
    assert ("Claim10", "component n=4") in trace.entries
    assert "Tiny" not in trace.labels()
    assert dec.matched_partner(19) is None
    assert verify(cfg.graph, cfg.path, goal_spec("M2", cfg), dec).ok


def test_claim8_dangling_chain():
    """Instance C: in Claim 8's G'', x hangs on y alone and y on one third
    vertex.  The chain drops x and y and takes M0 through that vertex; the
    exhaustive search that used to take over ran for minutes of CPU."""
    g = PlaneGraph(*instances.FALLING_APART["C"])
    with _cpu_budget(10):
        dec, trace = decompose_21(g)
    assert ("Claim8", "dangling 2") in trace.entries
    assert _searches(trace.entries, "anchored") == []
    assert verify_21(g, dec)


def test_inherited_caches_match_fresh_graphs(monkeypatch):
    """Every piece and mirror built while decomposing the n <= 8 graphs,
    C4 x P3, C4 x P5 and the grid subgraphs of the large workload at seeds 1
    and 2 holds only cache entries that a fresh graph computes alike."""
    children = []
    inherit = plane_graph._inherit

    def recorded(child, parent, names=()):
        children.append(child)
        return inherit(child, parent, names)

    monkeypatch.setattr(plane_graph, "_inherit", recorded)
    graphs = [*enumerate_graphs(8), instances.nested_squares(3),
              instances.nested_squares(5)]
    graphs += [instances.bench_large_subgraph(seed, k, share, i)
               for seed in (1, 2) for k in range(5, 11)
               for share in (.1, .25, .4) for i in range(5)]
    for g in graphs:
        decompose_21(g)
    assert len(children) > 10_000
    assert [g for g in children if instances.stale_cache_entries(g)] == []


def _born_knowing_its_boundary(piece) -> bool:
    """Whether Int(C) was built with its boundary walk and chords, and both
    equal what a fresh graph traces."""
    h = piece.graph
    fresh = PlaneGraph(h.rotation, h.outer)
    return (h.__dict__.get("boundary_walk") == fresh.boundary_walk
            and h.__dict__.get("boundary_chords") == fresh.boundary_chords)


def test_int_pieces_match_the_dart_classification(monkeypatch):
    """Every Int(C) that ``_region`` and ``_oplus_split`` cut while the
    large workload's seed-1 grids, ladders and grid subgraphs decompose, and
    Int(C) and Ext(C) of every 4-/5-cycle of the FALLING_APART graphs and
    of C4 x P6, equal the pieces of the whole-graph dart classification, and
    each Int(C) is born with the boundary walk and chords that a fresh graph
    traces.  Most 4-/5-cycles of these graphs miss the outer walk, so their
    sides are told apart by the lockstep floods: the FALLING_APART graphs
    are not bipartite, and C4 x P6 has separating 4-cycles.
    """
    cut = []

    def recording(module):
        real = module.int_subgraph

        def wrapped(g, cycle):
            piece = real(g, cycle)
            cut.append((g, tuple(cycle), piece))
            return piece

        monkeypatch.setattr(module, "int_subgraph", wrapped)

    recording(main_decomposer)
    recording(config_algebra)
    graphs = [*(instances.grid(k, k) for k in (*range(4, 14), 16)),
              *(instances.grid(2, L) for L in (*range(10, 90, 10), 130)),
              *(instances.grid(3, L) for L in (*range(4, 14), 15))]
    graphs += [instances.bench_large_subgraph(1, k, share, i) for k in range(5, 11)
               for share in (.1, .25, .4) for i in range(5)]
    for g in graphs:
        decompose_21(g)
    monkeypatch.undo()
    for g, cycle, piece in cut:
        assert instances.same_piece(piece, instances.reference_int_subgraph(g, list(cycle)))
        assert _born_knowing_its_boundary(piece), (g, cycle)
    assert len(cut) > 2000
    assert sum(bool(p.graph.boundary_chords) for _, _, p in cut) > 400
    missed = separating = 0
    graphs = [PlaneGraph(*g) for g in instances.FALLING_APART.values()]
    for g in (*graphs, instances.nested_squares(6)):
        for cycle in small_cycles(g):
            ip, ep = int_ext_subgraphs(g, cycle)
            assert instances.same_piece(ip, instances.reference_int_subgraph(g, list(cycle)))
            assert instances.same_piece(ep, instances.reference_ext_subgraph(g, list(cycle)))
            assert _born_knowing_its_boundary(ip)
            missed += g.boundary_vertices.isdisjoint(cycle)
            separating += min(ip.graph.n, ep.graph.n) > len(cycle)
    assert missed > 50 and separating > 0


# ---------------------------------------------------------------------------
# the per-call table of solved sub-configurations
# ---------------------------------------------------------------------------

class _NeverStores(dict):
    """A table that keeps nothing: every sub-configuration is solved anew."""

    def __setitem__(self, key, value) -> None:
        pass


def _forgetful_trace() -> CaseTrace:
    trace = CaseTrace()
    trace.solved = _NeverStores()
    return trace


def _table_inputs():
    graphs = [instances.grid(2, 40), instances.grid(2, 130), instances.grid(3, 15),
              instances.grid(8, 8), instances.grid(16, 16),
              instances.nested_squares(20)]
    graphs += [instances.bench_grid_subgraph(seed, k, share) for seed in (1, 2)
               for k in range(5, 11) for share in (.1, .25, .4)]
    runs = [lambda g=g: decompose_21(g) for g in graphs]
    for g in enumerate_graphs(7):
        for quad in enumerate_configurations(g):
            for goal in applicable_goals(g, quad):
                cfg = Configuration(g, quad)
                runs.append(lambda cfg=cfg, goal=goal: decompose_config(cfg, goal))
    return runs


def _outputs(runs):
    out = []
    for run in runs:
        try:
            dec, trace = run()
        except DecomposeError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        out.append((sorted(dec.arcs), sorted(dec.matching), trace.entries))
    return out


def _dispatch_keys(monkeypatch) -> list:
    keys = []
    dispatch = main_decomposer._dispatch

    def recorded(cfg, goal, trace):
        keys.append((cfg.graph.rotation, cfg.graph.outer, cfg.path, goal))
        return dispatch(cfg, goal, trace)

    monkeypatch.setattr(main_decomposer, "_dispatch", recorded)
    return keys


def test_solved_table_changes_no_output(monkeypatch):
    """Every output, with its case trace, is the same whether or not a call
    reuses the sub-configurations it has already solved, and the table does
    save dispatches."""
    runs = _table_inputs()
    keys = _dispatch_keys(monkeypatch)
    with_table = _outputs(runs)
    dispatched = len(keys)
    monkeypatch.setattr(main_decomposer, "CaseTrace", _forgetful_trace)
    without = _outputs(runs)
    assert with_table == without
    assert dispatched < len(keys) - dispatched


@pytest.mark.parametrize("g", [instances.grid(2, 130), instances.grid(16, 16)],
                         ids=["2x130", "16x16"])
def test_each_sub_configuration_is_dispatched_once(monkeypatch, g):
    keys = _dispatch_keys(monkeypatch)
    decompose_21(g)
    assert len(keys) == len(set(keys)) > 1


@pytest.mark.parametrize("g", [instances.grid(2, 130), instances.grid(16, 16)],
                         ids=["2x130", "16x16"])
def test_each_solved_configuration_is_stored_once(monkeypatch, g):
    """The table holds one entry per dispatch that returned: a solved
    configuration is stored under one key, not once more as its mirror."""
    returned = 0
    dispatch = main_decomposer._dispatch

    def counted(cfg, goal, trace):
        nonlocal returned
        dec = dispatch(cfg, goal, trace)
        returned += 1
        return dec

    monkeypatch.setattr(main_decomposer, "_dispatch", counted)
    _, trace = decompose_21(g)
    assert len(trace.solved) == returned > 1


def _forgetful_recognition() -> CaseTrace:
    trace = CaseTrace()
    trace.recognized = _NeverStores()
    return trace


def _counted_recognitions(monkeypatch) -> list:
    """Record each configuration that main_decomposer hands to recognize or
    recognize_reversed."""
    calls = []
    for name in ("recognize", "recognize_reversed"):
        def counted(c, fn=getattr(main_decomposer, name)):
            calls.append(c)
            return fn(c)
        monkeypatch.setattr(main_decomposer, name, counted)
    return calls


def test_recognition_table_changes_no_output(monkeypatch):
    """Every output, with its case trace, is the same whether or not a call
    looks a configuration up in its table of recognitions before it
    recognizes it, and on the 16 x 16 grid the table saves recognitions."""
    runs = _table_inputs()
    with_table = _outputs(runs)
    calls = _counted_recognitions(monkeypatch)
    decompose_21(instances.grid(16, 16))
    tabled = len(calls)
    monkeypatch.setattr(main_decomposer, "CaseTrace", _forgetful_recognition)
    decompose_21(instances.grid(16, 16))
    assert 0 < tabled < len(calls) - tabled
    assert _outputs(runs) == with_table


def test_cstar_chord_and_two_chords_match_the_scans(monkeypatch):
    """At every C* built while decomposing the n <= 7 graphs, the full grids
    and ladders and the grid subgraphs of seeds 1 and 2, and on random
    milestone sequences over the grids and ladders, the chord that Claim 9
    looks up by position is the pair the all-pairs ``has_edge`` scan picks; and the 2-chords of those graphs, and of every graph whose
    2-chords the ladder reads, are those of the scan over every vertex."""
    picks = []
    pick = main_decomposer._cstar_chord
    scanned = 0
    scan = plane_graph.two_chords

    def compared_pick(g, seq, interior):
        got = pick(g, seq, interior)
        picks.append((got, instances.reference_cstar_chord(g, seq)))
        return got

    def compared_scan(g, walk=None):
        nonlocal scanned
        got = scan(g, walk)
        assert walk is not None or got == instances.reference_two_chords(g)
        scanned += 1
        return got

    monkeypatch.setattr(main_decomposer, "_cstar_chord", compared_pick)
    monkeypatch.setattr(plane_graph, "two_chords", compared_scan)
    graphs = [*enumerate_graphs(7), *instances.large_grids()]
    graphs += [instances.bench_grid_subgraph(seed, k, share) for seed in (1, 2)
               for k in range(5, 11) for share in (.1, .25, .4)]
    for g in graphs:
        plane_graph.two_chords(g)
        decompose_21(g)
    # random milestone sequences, repeats allowed, that start on the boundary
    rng = random.Random(9)
    for g in instances.large_grids():
        boundary = g.boundary_vertices
        for _ in range(10):
            seq = [rng.choice(sorted(boundary))]
            seq += rng.choices(g.vertices(), k=rng.randrange(3, 40))
            interior = [i for i, p in enumerate(seq) if p not in boundary]
            picks.append((pick(g, seq, interior), instances.reference_cstar_chord(g, seq)))
    assert [got for got, want in picks if got != want] == []
    assert sum(got is not None for got, _ in picks) > 100
    assert scanned > len(graphs) + 300


def test_a_hit_replays_the_trace_and_returns_the_verified_object():
    cfg = Configuration(*instances.claim9_instance())
    trace = CaseTrace()
    dec, _ = decompose_config(cfg, "M0", trace)
    once = list(trace.entries)
    again, _ = decompose_config(cfg, "M0", trace)
    assert again is dec
    assert trace.entries == once + once


def test_the_table_tells_goals_and_outer_edges_apart():
    """One trace, asked for every goal on every path, read either way, of
    every face of the graphs with n <= 6 taken as the outer face, answers
    each as a fresh call does.  A path lies on the faces either side of it,
    so only the outer edge tells those configurations apart."""
    cases = []
    for g in enumerate_graphs(6):
        for face in filter(None, g.faces):
            h = PlaneGraph(g.rotation, face[0])
            for quad in enumerate_configurations(h):
                cases += [(Configuration(h, q), goal) for q in (quad, quad[::-1])
                          for goal in applicable_goals(h, q)]
    trace = CaseTrace()
    shared = [decompose_config(cfg, goal, trace)[0] for cfg, goal in cases]
    assert shared == [decompose_config(cfg, goal)[0] for cfg, goal in cases]


def test_a_call_that_raises_stores_nothing(monkeypatch):
    """A result that fails its verify is not kept; the verified results
    below it are."""
    g, path = instances.claim9_instance()
    verify_ = main_decomposer.verify

    def fails_at_full_size(h, *rest):
        return VerifyReport(False, "test") if h.n == g.n else verify_(h, *rest)

    monkeypatch.setattr(main_decomposer, "verify", fails_at_full_size)
    trace = CaseTrace()
    with pytest.raises(CounterexampleError):
        decompose_config(Configuration(g, path), "M0", trace)
    assert trace.solved
    assert all(len(rotation) < g.n for rotation, *_ in trace.solved)
