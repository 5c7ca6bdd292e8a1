import hashlib

import pytest

from planedec import config_algebra
from planedec.config_algebra import (Configuration, combine, contains_special,
                                     full_reverse, generate_family, leaf_r1,
                                     recognize, recognize_reversed,
                                     reverse_view)
from planedec.decomposition import path_orientation
from planedec.oracle import (config_key, enumerate_configurations,
                             enumerate_graphs)
from planedec.plane_graph import PlaneGraphError, cycle_graph, validate


def test_combine_sizes_and_paths():
    r1 = leaf_r1().config
    g_plus = combine("oplus", r1, r1)
    assert g_plus.config.graph.n == 6
    assert g_plus.config.path[:3] == (1, 2, 3)
    g_hat = combine("ohat", r1, r1)
    assert g_hat.config.graph.n == 7
    assert g_hat.config.graph.degree(g_hat.config.path[2]) == 2
    g_tilde = combine("otilde", r1, r1)
    assert g_tilde.config.graph.n == 8
    u, v = g_tilde.config.path[1], g_tilde.config.path[2]
    assert g_tilde.config.graph.degree(u) == 2
    assert g_tilde.config.graph.degree(v) == 2
    assert g_tilde.config.graph.has_edge(u, v)


def test_combined_graphs_are_valid():
    r1 = leaf_r1().config
    for op in ("oplus", "ohat", "otilde"):
        glue = combine(op, r1, r1)
        assert validate(glue.config.graph).ok


def test_generate_family_small_counts():
    tags5 = sorted(d.tag for d in generate_family(5))
    assert tags5 == ["P1", "R1"]
    tags6 = sorted(d.tag for d in generate_family(6))
    assert tags6 == ["P1", "Q", "R1"]
    tags7 = sorted(d.tag for d in generate_family(7))
    assert tags7 == ["P1", "Q", "R1", "R2"]


def test_recognize_leaves_and_composites():
    assert recognize(leaf_r1().config).tag == "R1"
    six = combine("oplus", leaf_r1().config, leaf_r1().config).config
    d = recognize(six)
    assert d is not None and d.tag == "Q"
    assert d.op == "oplus" and d.left.tag == "R1" and d.right.tag == "R1"


def test_recognize_c6_is_none():
    assert recognize(Configuration(cycle_graph(6), (1, 2, 3, 4))) is None


def test_round_trip_replay_n12():
    for d in generate_family(12):
        r = recognize(d.config)
        assert r is not None, (d.tag, d.config.graph.n)
        replayed = r.replay()
        assert replayed.key == d.config.key


def test_reverse_view_c4_and_p1():
    c4 = Configuration(cycle_graph(4), (1, 2, 3, 4))
    rv = reverse_view(c4)
    assert rv.path == (1, 4, 3, 2)
    p1 = Configuration(cycle_graph(5), (1, 2, 3, 4))
    rv5 = reverse_view(p1)
    assert rv5.path == (5, 4, 3, 2)
    assert recognize(rv5).tag == "P1"


def test_symmetry_properties_family():
    for d in generate_family(12):
        if d.tag in ("R1", "R2", "Q"):
            r = recognize(reverse_view(d.config))
            assert r is not None
            if d.in_R():
                assert r.in_R()
            else:
                assert r.in_Q()
        if d.tag in ("R1", "P1", "P2"):
            r = recognize(full_reverse(d.config))
            assert r is not None and r.tag in ("R1", "P1", "P2")


def test_family_members_two_connected():
    for d in generate_family(12):
        assert d.config.graph.is_two_connected()


def test_oplus_associativity():
    members = [d for d in generate_family(8)]
    rs = [d for d in members if d.in_R()]
    rqs = [d for d in members if d.in_R() or d.in_Q()]
    checked = 0
    for a in rs:
        for b in rs:
            for c in rqs:
                if a.config.graph.n + b.config.graph.n + c.config.graph.n > 16:
                    continue
                ab = combine("oplus", a.config, b.config).config
                left = combine("oplus", ab, c.config).config
                bc = combine("oplus", b.config, c.config).config
                right = combine("oplus", a.config, bc).config
                assert config_key(left.graph, left.path) == \
                    config_key(right.graph, right.path)
                checked += 1
    assert checked >= 6


def test_contains_special_c4():
    c4 = cycle_graph(4)
    d = contains_special(c4, "R(xyz)", (1, 2, 3, 4))
    assert d is not None and d.tag == "R1"


def test_contains_special_c6_all_none():
    c6 = cycle_graph(6)
    for pattern in ("R(xyz)", "R(yxw)", "P(wxyz)", "P(zyxw)"):
        assert contains_special(c6, pattern, (1, 2, 3, 4)) is None


def test_contains_special_on_q_member():
    # the glued edge is a boundary chord, so the restricted containment test
    # refuses (callers must split on chords first); membership still says Q
    q = combine("oplus", leaf_r1().config, leaf_r1().config).config
    with pytest.raises(PlaneGraphError):
        contains_special(q.graph, "R(xyz)", q.path)
    assert recognize(q).tag == "Q"


def test_contains_special_requires_preconditions():
    g = cycle_graph(4)
    from planedec.plane_graph import PlaneGraph
    pend = PlaneGraph({1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (3, 5, 1), 5: (4,)},
                      (1, 2))
    with pytest.raises(PlaneGraphError):
        contains_special(pend, "R(xyz)", (1, 2, 3, 4))


def test_configurations_are_stored_clockwise():
    """Every configuration with n <= 7, its path read either way, keeps a
    graph whose boundary walk runs along the path, and building it on the
    mirror embedding gives the same configuration.  A path the walk passes
    both ways (around a tree, say) is clockwise in both embeddings, so each
    keeps the graph it was given."""
    paths = two_way = 0
    for g in enumerate_graphs(7):
        mirror = g.reflect()
        for quad in enumerate_configurations(g):
            for path in (quad, quad[::-1]):
                cfg = Configuration(g, path)
                other = Configuration(mirror, path)
                assert path_orientation(cfg.graph, path) == 1
                paths += 1
                if path_orientation(g, path[::-1]) == 1 == path_orientation(g, path):
                    two_way += 1
                    assert (cfg.graph, other.graph) == (g, mirror)
                else:
                    assert cfg == other
    assert (paths, two_way) == (1828, 64)


def test_mirror_configs_share_keys():
    for d in generate_family(9):
        cfg = d.config
        mirror = Configuration(cfg.graph.reflect(), cfg.path)
        assert cfg.key == mirror.key


def _sketch(d):
    """Everything a derivation records: tag, op, configuration (path,
    rotation, outer edge), both maps, the added vertices and the children."""
    if d is None:
        return None
    c = d.config
    maps = tuple(sorted(m.items()) if m is not None else None
                 for m in (d.left_map, d.right_map))
    return (d.tag, d.op, c.path, c.graph.rotation, c.graph.outer, maps,
            d.u, d.v, _sketch(d.left), _sketch(d.right))


# recorded with recognize behind a negative-verdict memo and with separate R2
# and P3 probes, so it pins that the memo-free, merged probes return the same
# derivations; 48 of the 13 634 calls are members.  The same fold over n <= 9
# (120 278 calls, 58 members) reads c54062af... on both.
RECOGNITION_DIGEST = \
    "74ef29f3ac1c82dc3fa87bab89de939d8c3976d78cc3bb3ae8c0d6fa36902b57"


def test_recognition_derivations_frozen():
    """recognize gives the same derivation, or None, on every configuration
    with n <= 8 read in both path directions, and on every family member
    with n <= 10."""
    h = hashlib.sha256()
    calls = members = 0
    for g in enumerate_graphs(8):
        for quad in enumerate_configurations(g):
            for path in (quad, quad[::-1]):
                d = recognize(Configuration(g, path))
                calls += 1
                members += d is not None
                h.update(repr(_sketch(d)).encode())
    for d in generate_family(10):
        h.update(repr((_sketch(d), _sketch(recognize(d.config)))).encode())
    assert (calls, members) == (13634, 48)
    assert h.hexdigest() == RECOGNITION_DIGEST


def test_reduced_pieces_only_where_a_chord_can_split(monkeypatch):
    """The ohat and P2 probes build a reduced piece only when its new third
    vertex has a neighbour on the boundary off the path, on every
    configuration with n <= 8 read in both path directions and on every
    family member with n <= 10: without one, the piece has no chord at that
    vertex for _oplus_split to split along."""
    built = []
    reduced = config_algebra._reduced_config

    def checked(c, drop, new_path):
        _, a, v, b = new_path
        bset = c.graph.boundary_vertices
        assert any(t in bset and t not in (a, b) for t in c.graph.neighbors(v))
        built.append(drop)
        return reduced(c, drop, new_path)

    monkeypatch.setattr(config_algebra, "_reduced_config", checked)
    for g in enumerate_graphs(8):
        for quad in enumerate_configurations(g):
            for path in (quad, quad[::-1]):
                recognize(Configuration(g, path))
    for d in generate_family(10):
        recognize(d.config)
    assert {len(drop) for drop in built} == {1, 2}


def test_recognize_reversed_equals_recognizing_the_mirror(monkeypatch):
    """recognize_reversed(c) gives the derivation recognize(full_reverse(c))
    gives, on every configuration with n <= 7 read in both path directions
    and on every family member with n <= 10; 857 of the 1 843 answers come
    without a mirror."""
    mirrors = 0
    reverse = config_algebra.full_reverse

    def counted(c):
        nonlocal mirrors
        mirrors += 1
        return reverse(c)

    cases = [Configuration(g, path) for g in enumerate_graphs(7)
             for quad in enumerate_configurations(g) for path in (quad, quad[::-1])]
    cases += [d.config for d in generate_family(10)]
    monkeypatch.setattr(config_algebra, "full_reverse", counted)
    got = [_sketch(recognize_reversed(c)) for c in cases]
    skipped = len(cases) - mirrors
    monkeypatch.undo()
    assert got == [_sketch(recognize(full_reverse(c))) for c in cases]
    assert sum(d is not None for d in got) == 40
    assert (len(cases), skipped) == (1843, 857)
