import pytest

from planedec.config_algebra import combine, generate_family, leaf_p1, leaf_r1
from planedec.decomposition import verify
from planedec.special_decomposer import (ClauseRequest, UnsupportedClause,
                                         compose, decompose_p2_shifted,
                                         decompose_special, supported_clauses,
                                         _p1_table, _r1_table)


def test_leaf_tables_all_verify():
    r1 = leaf_r1()
    for req in supported_clauses("R1"):
        dec = _r1_table(r1.config, req)
        cfg = r1.config
        assert verify(cfg.graph, cfg.path, req.spec_for(cfg), dec).ok, req
    p1 = leaf_p1()
    for req in supported_clauses("P1"):
        dec = _p1_table(p1.config, req)
        cfg = p1.config
        assert verify(cfg.graph, cfg.path, req.spec_for(cfg), dec).ok, req


def test_r1_leaf_forced_entries():
    cfg = leaf_r1().config
    dec = _r1_table(cfg, ClauseRequest("1001,1001", "zz+"))
    assert dec.arcs == frozenset({(1, 2), (4, 3)})
    assert dec.matching == frozenset({(1, 4)})
    p1 = leaf_p1().config
    dec5 = _p1_table(p1, ClauseRequest("1001,0001", "zz+"))
    assert dec5.arcs == frozenset({(1, 2), (4, 3), (5, 1)})
    assert dec5.matching == frozenset({(4, 5)})


def test_unsupported_clause_raises():
    with pytest.raises(UnsupportedClause):
        decompose_special(leaf_r1(), ClauseRequest("1001,0001", "zz+"))
    with pytest.raises(UnsupportedClause):
        decompose_special(leaf_p1(), ClauseRequest("1001,1100"))


def test_compose_case_ii_oplus():
    """R1 x R1 under oplus with (1011,0000) and (1001,1100) operands."""
    from planedec.config_algebra import Derivation
    l, r = leaf_r1(), leaf_r1()
    glue = combine("oplus", l.config, r.config)
    node = Derivation(tag="Q", config=glue.config, op="oplus", left=l, right=r,
                      left_map=glue.left_map, right_map=glue.right_map)
    d1 = _r1_table(l.config, ClauseRequest("1011,0000")).relabel(glue.left_map)
    d2 = _r1_table(r.config, ClauseRequest("1001,1100")).relabel(glue.right_map)
    out = compose("ii", d1, d2, node)
    cfg = glue.config
    req = ClauseRequest("1011,0000")
    assert verify(cfg.graph, cfg.path, req.spec_for(cfg), out).ok
    # the guaranteed arc (z, y) of the right operand survives
    assert (cfg.path[3], cfg.path[2]) in out.arcs


def test_compose_case_i_matches_spec_example():
    from planedec.config_algebra import Derivation
    l, r = leaf_r1(), leaf_r1()
    glue = combine("oplus", l.config, r.config)
    node = Derivation(tag="Q", config=glue.config, op="oplus", left=l, right=r,
                      left_map=glue.left_map, right_map=glue.right_map)
    d1 = _r1_table(l.config, ClauseRequest("1001,1001", "zz+")).relabel(glue.left_map)
    d2 = _r1_table(r.config, ClauseRequest("1001,1001", "zz+")).relabel(glue.right_map)
    out = compose("i", d1, d2, node)
    cfg = glue.config
    req = ClauseRequest("1001,1001", "zz+")
    assert verify(cfg.graph, cfg.path, req.spec_for(cfg), out).ok


def test_clause_sweep_n12():
    total = 0
    for d in generate_family(12):
        for req in supported_clauses(d.tag):
            dec = decompose_special(d, req)  # internally verified
            total += 1
    assert total > 150


def test_locality_of_composition():
    """Composition only edits at the glued landmarks: the output restricted
    to an operand's private vertices equals the operand's decomposition."""
    l, r = leaf_r1(), leaf_r1()
    glue = combine("oplus", l.config, r.config)
    from planedec.config_algebra import Derivation
    node = Derivation(tag="Q", config=glue.config, op="oplus", left=l, right=r,
                      left_map=glue.left_map, right_map=glue.right_map)
    d1 = _r1_table(l.config, ClauseRequest("1001,1001", "zz+")).relabel(glue.left_map)
    d2 = _r1_table(r.config, ClauseRequest("1001,1001", "zz+")).relabel(glue.right_map)
    out = compose("i", d1, d2, node)
    left_private = set(glue.left_map.values()) - set(glue.right_map.values())
    kept = {a for a in out.arcs if set(a) <= left_private}
    assert kept == {a for a in d1.arcs if set(a) <= left_private}


def test_p2_shifted_smallest():
    fam = generate_family(8)
    p2 = next(d for d in fam if d.tag == "P2")
    dec = decompose_p2_shifted(p2)  # verified internally
    assert dec.arcs


def test_p2_shifted_sweep_and_tag_check():
    for d in generate_family(12):
        if d.tag == "P2":
            decompose_p2_shifted(d)
        else:
            with pytest.raises(UnsupportedClause):
                decompose_p2_shifted(d)


def test_cross_derivation_independence():
    """Clause satisfaction does not depend on which derivation produced the
    member: recognition-found derivations work as well as generated ones."""
    from planedec.config_algebra import recognize
    for d in generate_family(10):
        r = recognize(d.config)
        if r.tag != d.tag:
            continue
        for req in supported_clauses(d.tag)[:2]:
            decompose_special(r, req)


def test_reverse_member_serves_the_reversed_clause():
    """When only the full reverse (g~, zyxw) of a configuration is a family
    member, its construction for a G~ clause serves the forward clause with
    each half of the caps read backwards (1002,0000 <-> 2001,0000,
    1101,0000 <-> 1011,0000): the main decomposer's special-or-M2 step
    rests on this."""
    from planedec.config_algebra import full_reverse, recognize
    from planedec.special_decomposer import G_TILDE
    checks = 0
    for d in generate_family(12):
        fwd = d.config
        dr = recognize(full_reverse(fwd))
        if dr is None:
            continue
        for req in supported_clauses(dr.tag):
            if req not in G_TILDE:
                continue
            dec = decompose_special(dr, req)
            caps = ",".join(half[::-1] for half in req.caps.split(","))
            spec = ClauseRequest(caps).spec_for(fwd)
            assert verify(fwd.graph, fwd.path, spec, dec).ok, (d.tag, req)
            checks += 1
    assert checks == 28
