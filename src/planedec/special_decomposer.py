"""Constructive decompositions for the special R/Q/P configurations.

Every family member supports a fixed menu of constrained decompositions; this
module produces them by structural recursion over a derivation tree.  Leaf
cycles use hand-written tables; gluing nodes apply the composition surgeries
of the seven operation formulas, choosing operand clauses per the induction.
All arc surgery is expressed in the composed configuration's vertex ids via
the maps stored on the derivation nodes.  Both entry points verify what they
return against the requested clause and raise if it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config_algebra import (Configuration, Derivation, combine,
                             reassociate_right, reverse_derivation)
from .decomposition import (ArcInOrientation, ConstraintSpec, Decomposition,
                            EdgeInMatching, SideCondition, verify)
from .plane_graph import PlaneGraphError


class UnsupportedClause(ValueError):
    """The requested clause is not in the menu for the derivation's family."""


@dataclass(frozen=True)
class ClauseRequest:
    """Caps in compact form plus the side-condition kind.

    side is one of None, "zz+" (last path vertex matched to its boundary
    successor), "(z,y)" (arc from last to third path vertex), "yz" (third and
    last matched to each other), "w-w" (first vertex matched to its boundary
    predecessor).
    """

    caps: str
    side: str | None = None

    def spec_for(self, cfg: Configuration) -> ConstraintSpec:
        g = cfg.graph
        w, x, y, z = cfg.path
        conds: list[SideCondition] = []
        if self.side == "zz+":
            conds.append(EdgeInMatching(z, g.boundary_succ(z)))
        elif self.side == "(z,y)":
            conds.append(ArcInOrientation(z, y))
        elif self.side == "yz":
            conds.append(EdgeInMatching(y, z))
        elif self.side == "w-w":
            conds.append(EdgeInMatching(g.boundary_pred(w), w))
        elif self.side is not None:
            raise ValueError(f"unknown side kind {self.side!r}")
        return ConstraintSpec.parse(self.caps, side_conditions=conds)


G_TILDE = (ClauseRequest("1101,0000"), ClauseRequest("1011,0000"),
           ClauseRequest("1002,0000"), ClauseRequest("2001,0000"))

R_CLAUSES = G_TILDE + (ClauseRequest("1001,1001", "zz+"),
                       ClauseRequest("1001,1100"),
                       ClauseRequest("1001,0011", "yz"))
R2_CLAUSES = R_CLAUSES + (ClauseRequest("1001,0001", "zz+"),)
Q_CLAUSES = (ClauseRequest("1001,1001", "zz+"), ClauseRequest("1101,0000"),
             ClauseRequest("1011,0000", "(z,y)"), ClauseRequest("1001,1100"),
             ClauseRequest("1001,0011", "(z,y)"))
P_CLAUSES = G_TILDE + (ClauseRequest("1001,0001", "zz+"),
                       ClauseRequest("1001,1000", "w-w"))


def supported_clauses(tag: str) -> tuple[ClauseRequest, ...]:
    if tag == "R1":
        return R_CLAUSES
    if tag == "R2":
        return R2_CLAUSES
    if tag == "Q":
        return Q_CLAUSES
    if tag in ("P1", "P2", "P3"):
        return P_CLAUSES
    raise ValueError(f"unknown tag {tag}")


# ---------------------------------------------------------------------------
# leaf tables
# ---------------------------------------------------------------------------

def _r1_table(cfg: Configuration, req: ClauseRequest) -> Decomposition:
    w, x, y, z = cfg.path
    key = (req.caps, req.side)
    table = {
        ("1101,0000", None): ([(x, w), (w, z), (z, y)], []),
        ("1011,0000", None): ([(w, x), (y, z), (z, w)], []),
        ("1002,0000", None): ([(w, x), (z, y), (z, w)], []),
        ("2001,0000", None): ([(w, x), (w, z), (z, y)], []),
        ("1001,1001", "zz+"): ([(w, x), (z, y)], [(z, w)]),
        ("1001,1100", None): ([(w, z), (z, y)], [(w, x)]),
        ("1001,0011", "yz"): ([(w, x), (z, w)], [(y, z)]),
    }
    if key not in table:
        raise UnsupportedClause(f"R1 does not support {req}")
    arcs, matching = table[key]
    return Decomposition.of(arcs, matching)


def _p1_table(cfg: Configuration, req: ClauseRequest) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    v = g.boundary_succ(z)  # the fifth vertex; also the predecessor of w
    key = (req.caps, req.side)
    table = {
        ("1101,0000", None): ([(x, w), (w, v), (v, z), (z, y)], []),
        ("1011,0000", None): ([(w, x), (y, z), (z, v), (v, w)], []),
        ("1002,0000", None): ([(w, x), (z, y), (z, v), (v, w)], []),
        ("2001,0000", None): ([(w, x), (w, v), (v, z), (z, y)], []),
        ("1001,0001", "zz+"): ([(w, x), (z, y), (v, w)], [(z, v)]),
        ("1001,1000", "w-w"): ([(w, x), (z, y), (v, z)], [(v, w)]),
    }
    if key not in table:
        raise UnsupportedClause(f"P1 does not support {req}")
    arcs, matching = table[key]
    return Decomposition.of(arcs, matching)


# ---------------------------------------------------------------------------
# composition surgery (Lemma "operation formulas", cases i..vii)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComposeCase:
    """Operand clause templates and the result clause of one formula case."""

    name: str
    ops: tuple[str, ...]
    left: ClauseRequest
    right: ClauseRequest
    result: ClauseRequest


COMPOSE_CASES = {
    "i": ComposeCase("i", ("oplus",), ClauseRequest("1001,1001"),
                     ClauseRequest("1001,1001", "zz+"),
                     ClauseRequest("1001,1001", "zz+")),
    "ii": ComposeCase("ii", ("oplus", "ohat", "otilde"),
                      ClauseRequest("1011,0000"), ClauseRequest("1001,1100"),
                      ClauseRequest("1011,0000")),
    "iii": ComposeCase("iii", ("oplus",), ClauseRequest("1101,0000"),
                       ClauseRequest("1001,1100"), ClauseRequest("1101,0000")),
    "iv": ComposeCase("iv", ("ohat", "otilde"), ClauseRequest("1001,0011"),
                      ClauseRequest("1001,1001", "zz+"),
                      ClauseRequest("1001,0001", "zz+")),
    "v": ComposeCase("v", ("ohat", "otilde"), ClauseRequest("1011,0000"),
                     ClauseRequest("1001,1100"), ClauseRequest("1002,0000")),
    "vi": ComposeCase("vi", ("ohat",), ClauseRequest("2001,0000"),
                      ClauseRequest("1001,1100"), ClauseRequest("2001,0000")),
    "vii": ComposeCase("vii", ("ohat",), ClauseRequest("1001,1000", "w-w"),
                       ClauseRequest("1001,1100"),
                       ClauseRequest("1001,1000", "w-w")),
}


def _corners(node: Derivation) -> dict[str, int]:
    """Composed-id names of the gluing landmarks."""
    assert node.left and node.right and node.left_map and node.right_map
    lw, lx, ly, lz = node.left.config.path
    rw, rx, ry, rz = node.right.config.path
    return {
        "w1": node.left_map[lw], "x1": node.left_map[lx],
        "y1": node.left_map[ly], "c": node.left_map[lz],
        "w2": node.right_map[rw], "z2": node.right_map[rz],
        "u": node.u if node.u is not None else 0,
        "v": node.v if node.v is not None else 0,
    }


def compose(case: str, dec1: Decomposition, dec2: Decomposition,
            node: Derivation) -> Decomposition:
    """Apply one formula case's arc surgery to already-lifted operand
    decompositions (both given in the composed configuration's ids)."""
    cs = COMPOSE_CASES[case]
    if node.op not in cs.ops:
        raise ValueError(f"case {case} does not apply to {node.op}")
    n = _corners(node)
    x1, y1, z2, u, v = n["x1"], n["y1"], n["z2"], n["u"], n["v"]
    d = dec1.union(dec2)
    if case in ("i", "iii") or (case == "ii" and node.op == "oplus"):
        return d
    if case == "ii":
        if node.op == "ohat":
            return d.adjust(add_arcs=[(y1, x1), (u, z2)])
        return d.adjust(add_arcs=[(y1, x1), (x1, u), (v, z2)])
    if case == "iv":
        if node.op == "ohat":
            return d.adjust(drop_arcs=[(z2, y1)],
                            add_arcs=[(y1, x1), (y1, z2), (z2, u)])
        return d.adjust(drop_arcs=[(z2, y1)],
                        add_arcs=[(y1, x1), (x1, u), (y1, z2), (z2, v)])
    if case == "v":
        if node.op == "ohat":
            return d.adjust(add_arcs=[(y1, x1), (z2, u)])
        return d.adjust(add_arcs=[(y1, x1), (x1, u), (z2, v)])
    if case in ("vi", "vii"):
        return d.adjust(drop_arcs=[(z2, y1)],
                        add_arcs=[(y1, x1), (y1, z2), (z2, u)])
    raise ValueError(f"unknown case {case}")


# ---------------------------------------------------------------------------
# the induction
# ---------------------------------------------------------------------------

def _lift(node: Derivation, which: str, dec: Decomposition) -> Decomposition:
    m = node.left_map if which == "left" else node.right_map
    assert m is not None
    return dec.relabel(m)


def _left_0011_clause(left: Derivation) -> ClauseRequest:
    """Clause giving the left operand caps within (1001,0011)."""
    if left.in_R():
        return ClauseRequest("1001,0011", "yz")
    if left.in_Q():
        return ClauseRequest("1001,0011", "(z,y)")
    return ClauseRequest("1001,0001", "zz+")  # P: b = 0001 <= 0011


def _left_1011_clause(left: Derivation) -> ClauseRequest:
    if left.in_Q():
        return ClauseRequest("1011,0000", "(z,y)")
    return ClauseRequest("1011,0000")


def decompose_special(d: Derivation, req: ClauseRequest) -> Decomposition:
    """A decomposition of d's configuration verifying the requested clause."""
    dec = _decompose_special(d, req)
    cfg = d.config
    rep = verify(cfg.graph, cfg.path, req.spec_for(cfg), dec)
    if not rep:
        raise PlaneGraphError(
            f"clause {req} construction failed verification on "
            f"{d.tag}(n={cfg.graph.n}): {rep.clause}: {rep.detail}")
    return dec


def _decompose_special(d: Derivation, req: ClauseRequest) -> Decomposition:
    if (req.caps, req.side) not in {(c.caps, c.side) for c in supported_clauses(d.tag)}:
        raise UnsupportedClause(f"{d.tag} does not support {req}")
    if d.tag == "R1":
        return _r1_table(d.config, req)
    if d.tag == "P1":
        return _p1_table(d.config, req)

    key = (req.caps, req.side)

    # clauses common to every composite family
    if key == ("1001,1001", "zz+") and d.tag != "Q":
        # R2/P2/P3: the stronger (1001,0001)|zz+ decomposition qualifies
        return _decompose_special(d, ClauseRequest("1001,0001", "zz+"))
    if key == ("1001,0001", "zz+"):
        return _via_case("iv", d, _left_0011_clause(d.left),
                         ClauseRequest("1001,1001", "zz+"))
    if key == ("1011,0000", None) or key == ("1011,0000", "(z,y)"):
        return _via_case("ii", d, _left_1011_clause(d.left),
                         ClauseRequest("1001,1100"))
    if key == ("1002,0000", None):
        return _via_case("v", d, _left_1011_clause(d.left),
                         ClauseRequest("1001,1100"))

    if d.tag == "Q":
        if key == ("1001,1001", "zz+"):
            return _via_case("i", d, ClauseRequest("1001,1001", "zz+"),
                             ClauseRequest("1001,1001", "zz+"))
        if key == ("1101,0000", None):
            return _via_case("iii", d, ClauseRequest("1101,0000"),
                             ClauseRequest("1001,1100"))
        if key == ("1001,1100", None):
            return _reversed_1100(d)
        if key == ("1001,0011", "(z,y)"):
            rd = reassociate_right(d)
            ldec = _lift(rd, "left", _decompose_special(
                rd.left, _left_0011_clause(rd.left)))
            rdec = _lift(rd, "right", _decompose_special(
                rd.right, ClauseRequest("1001,1001", "zz+")))
            return ldec.union(rdec)

    if d.tag == "R2":
        if key == ("2001,0000", None):
            return _via_case("vi", d, ClauseRequest("2001,0000"),
                             ClauseRequest("1001,1100"))
        if key == ("1101,0000", None):
            return _r2_1101(d)
        if key == ("1001,1100", None):
            return _reversed_1100(d)
        if key == ("1001,0011", "yz"):
            return _r2_0011(d)

    if d.tag == "P2":
        if key == ("1101,0000", None):
            return _reversed_full(d, ClauseRequest("1011,0000"))
        if key == ("2001,0000", None):
            return _reversed_full(d, ClauseRequest("1002,0000"))
        if key == ("1001,1000", "w-w"):
            return _reversed_full(d, ClauseRequest("1001,0001", "zz+"))

    if d.tag == "P3":
        if key == ("2001,0000", None):
            return _via_case("vi", d, ClauseRequest("2001,0000"),
                             ClauseRequest("1001,1100"))
        if key == ("1101,0000", None):
            return _p3_1101(d)
        if key == ("1001,1000", "w-w"):
            return _via_case("vii", d, ClauseRequest("1001,1000", "w-w"),
                             ClauseRequest("1001,1100"))

    raise UnsupportedClause(f"no production for {d.tag} and {req}")


def _via_case(case: str, d: Derivation, left_req: ClauseRequest,
              right_req: ClauseRequest) -> Decomposition:
    ldec = _lift(d, "left", _decompose_special(d.left, left_req))
    rdec = _lift(d, "right", _decompose_special(d.right, right_req))
    return compose(case, ldec, rdec, d)


def _reversed_1100(d: Derivation) -> Decomposition:
    """(1001,1100) for Q and R2 via the shifted reversal.

    Take a decomposition of (g~, z+ z y x) whose forced arc covering the old
    centre is (x, y); flip the centre coverage: remove (x, y), add (z, y).
    """
    rd = reverse_derivation(d, "shift")
    if d.tag == "Q":
        sub = _decompose_special(rd, ClauseRequest("1001,1001", "zz+"))
    else:
        sub = _decompose_special(rd, ClauseRequest("1001,0001", "zz+"))
    w, x, y, z = d.config.path
    if (x, y) not in sub.arcs:
        raise PlaneGraphError("expected forced arc (x, y) in reversed decomposition")
    return sub.adjust(drop_arcs=[(x, y)], add_arcs=[(z, y)])


def _reversed_full(d: Derivation, rev_req: ClauseRequest) -> Decomposition:
    """P2 clauses obtained on the fully reversed configuration; caps translate
    by reading the path backwards and the decomposition transfers unchanged."""
    rd = reverse_derivation(d, "full")
    return _decompose_special(rd, rev_req)


def _r2_1101(d: Derivation) -> Decomposition:
    """R2 in G(1101,0000): re-associate so the right operand is in R, then
    split on the left operand's family."""
    rd = reassociate_right(d)
    n = _corners(rd)
    x1, y1, c, z2, u = n["x1"], n["y1"], n["c"], n["z2"], n["u"]
    if rd.left.in_R():
        ldec = _lift(rd, "left", _decompose_special(rd.left, ClauseRequest("1101,0000")))
        rdec = _lift(rd, "right", _decompose_special(rd.right, ClauseRequest("1101,0000")))
        dec = ldec.union(rdec)
        return dec.adjust(drop_arcs=[(c, y1), (z2, y1)],
                          add_arcs=[(y1, x1), (y1, z2), (z2, u)],
                          add_matching=[(c, y1)])
    if rd.left.in_Q():
        ldec = _lift(rd, "left", _decompose_special(
            rd.left, ClauseRequest("1001,0011", "(z,y)")))
        rdec = _lift(rd, "right", _decompose_special(rd.right, ClauseRequest("1101,0000")))
        dec = ldec.union(rdec)
        return dec.adjust(drop_arcs=[(c, y1), (z2, y1)],
                          add_arcs=[(x1, y1), (y1, c), (y1, z2), (z2, u)])
    raise UnsupportedClause("R2 with a P-tagged left operand")


def _r2_0011(d: Derivation) -> Decomposition:
    """R2 in G(1001,0011)|yz in M: decompose the underlying oplus as a Q
    member of the graph minus y, match y to z, and cover the old centre edge
    into the (now interior) 4-face vertex."""
    w, x, y, z = d.config.path
    u4 = _corners(d)["y1"]  # fourth vertex of the face x-y-z-u, interior here
    qdec = _q_subnode_dec(d, ClauseRequest("1011,0000", "(z,y)"))
    return qdec.adjust(add_arcs=[(u4, x)], add_matching=[(y, z)])


def _q_subnode_dec(d: Derivation, req: ClauseRequest) -> Decomposition:
    """Decompose the plain-oplus part under an ohat/otilde node, in the
    composed configuration's ids."""
    assert d.op in ("ohat", "otilde") and d.left and d.right
    glue = combine("oplus", d.left.config, d.right.config)
    qnode = Derivation(tag="Q", config=glue.config, op="oplus",
                       left=d.left, right=d.right,
                       left_map=glue.left_map, right_map=glue.right_map)
    sub = _decompose_special(qnode, req)
    trans: dict[int, int] = {}
    for q in d.left.config.graph.vertices():
        trans[glue.left_map[q]] = d.left_map[q]
    for q in d.right.config.graph.vertices():
        trans[glue.right_map[q]] = d.right_map[q]
    return sub.relabel(trans)


def _p3_1101(d: Derivation) -> Decomposition:
    """P3 in G(1101,0000): left gets (1001,0001), right is decomposed on its
    shifted reversal with (1011,0000)."""
    n = _corners(d)
    x1, y1, c, z2, u = n["x1"], n["y1"], n["c"], n["z2"], n["u"]
    ldec = _lift(d, "left", _decompose_special(d.left, ClauseRequest("1001,0001", "zz+")))
    rrev = reverse_derivation(d.right, "shift")
    rreq = (ClauseRequest("1011,0000", "(z,y)") if rrev.in_Q()
            else ClauseRequest("1011,0000"))
    rdec = _lift(d, "right", _decompose_special(rrev, rreq))
    # the glued edge is covered by both operands here: the left loses its
    # forced arc before the union so the right's coverage survives
    dec = ldec.adjust(drop_arcs=[(c, y1)]).union(rdec)
    return dec.adjust(add_arcs=[(x1, y1), (y1, z2), (z2, u)])


# ---------------------------------------------------------------------------
# the shifted P2 construction
# ---------------------------------------------------------------------------

def decompose_p2_shifted(d: Derivation) -> Decomposition:
    """For (g, wxyz) in P2: a (1001,0000)-decomposition of (g, w- w x y).

    The graph minus {x, y} is the underlying oplus member of the derivation;
    take its (1001,0011)-decomposition with the arc from the old z into the
    5-face vertex, then redirect along the face.
    """
    if d.tag != "P2" or d.op != "otilde":
        raise UnsupportedClause("shifted construction applies to P2 members only")
    g = d.config.graph
    w, x, y, z = d.config.path
    u5 = d.left_map[d.left.config.path[2]]  # merged y1: the 5-face vertex
    qdec = _q_subnode_dec(d, ClauseRequest("1001,0011", "(z,y)"))
    dec = qdec.adjust(drop_arcs=[(z, u5)],
                      add_arcs=[(u5, z), (z, y), (y, x), (u5, w)])
    rep = verify(g, (g.boundary_pred(w), w, x, y),
                 ConstraintSpec.parse("1001,0000"), dec)
    if not rep:
        raise PlaneGraphError(
            f"shifted P2 construction failed: {rep.clause}: {rep.detail}")
    return dec
