"""The recursive decomposition algorithm and the whole-graph wrapper.

``decompose_config`` realises the inductive argument as a case ladder: each
case either reduces the configuration (deleting a light interior vertex,
splitting at a cut vertex, a separating small cycle, or a boundary chord),
delegates to the special-family constructions, or enters the two-chord /
greedy-cycle machinery.  Cases are tried in the fixed order of the underlying
argument, ties broken lexicographically, and every assembled decomposition is
re-verified against the requested goal before being returned.

Goals:
    M0  (1001,1001) with both end vertices matched only to boundary vertices
    M1  relaxed (1001,0000); requires a chord of the centre block at x or y
    M2  (1001,0000); requires absence of the four special containments
    M3  (1001,1000); requires absence of an R(xyz)-containment
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Literal, Sequence

from .config_algebra import Configuration, full_reverse, recognize
from .decomposition import (ConstraintSpec, Decomposition,
                            MatchedPartnerOnBoundary, und, verify, verify_21)
from .plane_graph import (Edge, Piece, PlaneGraph, PlaneGraphError, chords,
                          classify_darts_by_cycle, component_pieces,
                          extract_piece, int_subgraph, two_chords, validate)
from .special_decomposer import ClauseRequest, decompose_special, \
    decompose_p2_shifted

Goal = Literal["M0", "M1", "M2", "M3"]

GOAL_CAPS = {"M0": "1001,1001", "M1": "1001,0000",
             "M2": "1001,0000", "M3": "1001,1000"}


class DecomposeError(PlaneGraphError):
    pass


class PreconditionError(DecomposeError):
    """The requested goal's precondition fails; carries a witness."""

    def __init__(self, goal: str, message: str, witness: object = None):
        super().__init__(f"goal {goal}: {message}")
        self.goal = goal
        self.witness = witness


class CounterexampleError(DecomposeError):
    """No case of the ladder applies -- would contradict the theorem."""

    def __init__(self, cfg: Configuration, message: str):
        super().__init__(f"counterexample candidate on n={cfg.graph.n}: {message}")
        self.config = cfg


@dataclass
class CaseTrace:
    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, label: str, detail: str = "") -> None:
        self.entries.append((label, detail))

    def labels(self) -> set[str]:
        return {lab for lab, _ in self.entries}

    def __repr__(self) -> str:
        return "CaseTrace(" + " -> ".join(
            lab + (f"[{d}]" if d else "") for lab, d in self.entries) + ")"


_BASE_SPECS = {
    "M0": ConstraintSpec.parse("1001,1001"),
    "M1": ConstraintSpec.parse("1001,0000", relaxed=True),
    "M2": ConstraintSpec.parse("1001,0000"),
    "M3": ConstraintSpec.parse("1001,1000"),
}


def goal_spec(goal: Goal, cfg: Configuration) -> ConstraintSpec:
    w, x, y, z = cfg.path
    if goal == "M0":
        return _BASE_SPECS["M0"].with_conditions(
            MatchedPartnerOnBoundary(w), MatchedPartnerOnBoundary(z))
    if goal in ("M1", "M2", "M3"):
        return _BASE_SPECS[goal]
    raise ValueError(f"unknown goal {goal}")


# ---------------------------------------------------------------------------
# structural searches
# ---------------------------------------------------------------------------

def small_cycles(g: PlaneGraph, lengths=(4, 5)) -> list[tuple[int, ...]]:
    """All cycles of the given lengths (4, 5 or both), sorted.

    Each cycle appears once, canonically: rooted at its least vertex s, with
    its second vertex a smaller than its last vertex b.  The cycles are
    listed by neighbourhood intersection (Chiba & Nishizeki 1985): for each
    pair a < b of neighbours of s above s, a 4-cycle (s, a, p, b) closes
    through p in N(a) & N(b), and a 5-cycle (s, a, p, q, b) through p in N(a)
    and q in N(p) & N(b), every vertex above s.  The graph need not be
    triangle-free: the vertices of each cycle are checked to be distinct.
    """
    if not lengths or not set(lengths) <= {4, 5}:
        raise ValueError(f"cycle lengths {tuple(lengths)} not among (4, 5)")
    four, five = 4 in lengths, 5 in lengths
    nb = [frozenset()] + [frozenset(r) for r in g.rotation]
    out: list[tuple[int, ...]] = []
    for s in g.vertices():
        up = sorted(u for u in nb[s] if u > s)
        for i, a in enumerate(up):
            na = nb[a]
            for b in up[i + 1:]:
                nbb = nb[b]
                if four:
                    out.extend((s, a, p, b) for p in na & nbb
                               if p > s and p != a and p != b)
                if five:
                    for p in na:
                        if p > s and p != a and p != b:
                            out.extend((s, a, p, q, b) for q in nb[p] & nbb
                                       if q > s and q not in (a, p, b))
    out.sort()
    return out


def cycle_sides(g: PlaneGraph, cycle: Sequence[int]) -> tuple[set[int], set[int]]:
    """Vertices strictly inside / strictly outside a cycle."""
    k = len(cycle)
    cyc_edges = {und(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    _, outside = classify_darts_by_cycle(g, cyc_edges)
    inner, outer = set(), set()
    cset = set(cycle)
    for v in g.vertices():
        if v in cset:
            continue
        out = [(v, u) in outside for u in g.neighbors(v)]
        if not any(out):
            inner.add(v)
        elif all(out):
            outer.add(v)
        else:  # pragma: no cover - cannot happen for a cycle
            raise PlaneGraphError("vertex saddles the cycle")
    return inner, outer


def _bounds_face(g: PlaneGraph, cycle: Sequence[int]) -> bool:
    """Whether the face walk from (c0, c1), or from (c1, c0) for the reversed
    cycle, runs exactly once around the cycle and closes."""
    k = len(cycle)
    for c in (cycle, cycle[1::-1] + cycle[:1:-1]):
        d = (c[0], c[1])
        for i in range(2, k + 2):
            d = g.face_next(*d)
            if d[1] != c[i % k]:
                break
        else:
            return True
    return False


def has_separating_small_cycle(g: PlaneGraph) -> tuple[int, ...] | None:
    """The first 4-/5-cycle (in small_cycles order) with a vertex strictly on
    each side.  A cycle that bounds a face has one side without vertices, so
    it is skipped after k face steps instead of a whole-graph flood."""
    for cyc in small_cycles(g):
        if _bounds_face(g, cyc):
            continue
        inner, outer = cycle_sides(g, cyc)
        if inner and outer:
            return cyc
    return None


def ext_subgraph(g: PlaneGraph, cycle: Sequence[int]) -> Piece:
    """Ext(C): everything outside or on the cycle (outer face inherited)."""
    k = len(cycle)
    cyc_edges = {und(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    _, outside = classify_darts_by_cycle(g, cyc_edges)
    verts = set(cycle)
    for v in g.vertices():
        nbrs = g.neighbors(v)
        if nbrs and all((v, u) in outside for u in nbrs):
            verts.add(v)

    def keep(u: int, v: int) -> bool:
        return (u, v) in outside or (v, u) in outside

    return extract_piece(g, verts, keep_edge=keep, outer_parent_edge=g.outer)


def peel_piece(g: PlaneGraph, verts: set[int], cut: int) -> Piece:
    """Extract a bridge piece hanging at a single cut vertex.

    The piece's outer face is the one opened by the edges removed at the cut
    vertex (the region holding the rest of the graph).
    """
    rot = g.neighbors(cut)
    k = len(rot)
    anchor = None
    for i in range(k):
        if rot[i] in verts and rot[(i + 1) % k] not in verts:
            anchor = (rot[i], cut)
            break
    if anchor is None:
        raise PlaneGraphError("cut vertex has no removed edges")
    return extract_piece(g, verts, outer_parent_edge=anchor)


def _quad_ending(g: PlaneGraph, a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """The boundary path (p, a, b, c) where a -> b -> c are walk steps."""
    vs = g.boundary_walk.vertices
    k = len(vs)
    for i in range(k):
        if (vs[i], vs[(i + 1) % k], vs[(i + 2) % k]) == (a, b, c):
            quad = (vs[(i - 1) % k], a, b, c)
            if len(set(quad)) == 4:
                return quad
        if (vs[i], vs[(i + 1) % k], vs[(i + 2) % k]) == (c, b, a):
            quad = (vs[(i + 3) % k], a, b, c)
            if len(set(quad)) == 4:
                return quad
    raise PlaneGraphError(f"no boundary quadruple ending {a},{b},{c}")


def walk_quad(g: PlaneGraph, u: int, v: int) -> tuple[int, int, int, int]:
    """A boundary path (p, u, v, s) around a walk step u -> v (or v -> u)."""
    vs = g.boundary_walk.vertices
    k = len(vs)
    for i in range(k):
        a, b = vs[i], vs[(i + 1) % k]
        if (a, b) == (u, v):
            quad = (vs[(i - 1) % k], u, v, vs[(i + 2) % k])
            if len(set(quad)) == 4:
                return quad
        if (a, b) == (v, u):
            quad = (vs[(i + 2) % k], u, v, vs[(i - 1) % k])
            if len(set(quad)) == 4:
                return quad
    raise PlaneGraphError(f"no clean boundary quadruple around {u}-{v}")


def _sub_config(piece: Piece, parent_path: Sequence[int]) -> Configuration:
    cm = piece.child_of
    return Configuration(piece.graph, tuple(cm[p] for p in parent_path))


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def decompose_config(cfg: Configuration, goal: Goal,
                     trace: CaseTrace | None = None,
                     ) -> tuple[Decomposition, CaseTrace]:
    """Decompose a configuration for the requested goal (verified output).

    Passing a trace marks an internal recursive call; top-level calls also
    validate the input graph.
    """
    if trace is None:
        trace = CaseTrace()
        rep = validate(cfg.graph)
        if not rep.ok:
            raise PlaneGraphError(f"invalid configuration graph: {rep.failures}")
    cfg = cfg.oriented()
    dec = _dispatch(cfg, goal, trace)
    rep = verify(cfg.graph, cfg.path, goal_spec(goal, cfg), dec)
    if not rep:
        raise CounterexampleError(
            cfg, f"assembled decomposition violates {goal}: {rep.clause}: {rep.detail}")
    return dec, trace


def _recurse(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    dec, _ = decompose_config(cfg, goal, trace)
    return dec


def _dispatch(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path

    # Claim 1: an interior vertex of degree <= 2 is deleted and re-attached
    light = [v for v in sorted(g.vertices())
             if v not in g.boundary_vertices and g.degree(v) <= 2]
    for v in light:
        piece = extract_piece(g, set(g.vertices()) - {v},
                              outer_parent_edge=g.outer)
        if not piece.graph.is_connected():
            continue
        trace.add("Claim1", f"delete {v}")
        sub = _sub_config(piece, cfg.path)
        dec = piece.lift(_recurse(sub, goal, trace))
        return dec.adjust(add_arcs=[(v, q) for q in g.neighbors(v)])

    # Claim 2: cut vertices
    if not g.is_two_connected():
        trace.add("Claim2")
        return _claim2(cfg, goal, trace)

    # Claim 3: separating 4-/5-cycles, then 4-/5-cycle outer boundary
    c0 = has_separating_small_cycle(g)
    if c0 is not None:
        trace.add("Claim3", f"cycle {c0}")
        return _claim3_separating(cfg, goal, c0, trace)
    bw = g.boundary_walk
    if bw.is_simple_cycle() and len(bw) == 4 and g.n > 4:
        trace.add("Claim3", "boundary C4")
        return _claim3_boundary_c4(cfg, goal, trace)
    if bw.is_simple_cycle() and len(bw) == 5 and g.n > 5:
        trace.add("Claim3", "boundary C5")
        return _claim3_boundary_c5(cfg, goal, trace)

    # Claim 4: boundary chords
    if chords(g):
        trace.add("Claim4")
        return _claim4(cfg, goal, trace)

    # Claim 5: special containments (containment = membership from here on)
    dec = _claim5(cfg, goal, trace)
    if dec is not None:
        return dec

    # Claims 6/7: two-chords at the ends / at the centre
    dec = resolve_two_chords(cfg, trace)
    if dec is not None:
        return dec

    # the greedy cycle machinery
    return cstar_finish(cfg, trace)


# ---------------------------------------------------------------------------
# Claim 2: cut vertices
# ---------------------------------------------------------------------------

def _bridges_of_block(g: PlaneGraph, hverts: frozenset[int]
                      ) -> list[tuple[int, set[int]]]:
    """(attachment, bridge vertex set incl. attachment) per bridge of H."""
    rest = set(g.vertices()) - set(hverts)
    seen: set[int] = set()
    out = []
    for s in sorted(rest):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        attach: set[int] = set()
        while stack:
            p = stack.pop()
            for q in g.neighbors(p):
                if q in hverts:
                    attach.add(q)
                elif q not in comp:
                    comp.add(q)
                    stack.append(q)
        seen |= comp
        if len(attach) != 1:
            raise PlaneGraphError(f"bridge of a block with attachments {attach}")
        out.append((next(iter(attach)), comp | attach))
    return out


def _orient_tree(g: PlaneGraph, root: int) -> list[Edge]:
    """Every edge of the tree g as an arc pointing towards root."""
    arcs = []
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        p = stack.pop()
        for q in g.neighbors(p):
            if q not in parent:
                parent[q] = p
                arcs.append((q, p))
                stack.append(q)
    return arcs


def _bridge_piece_dec(piece: Piece, a: int, b: int,
                      trace: CaseTrace) -> Decomposition:
    """Decomposition of a hanging piece K (attached at a) covering E(K) minus
    the edge ab: no arcs out of a or b, out-degree <= 1 on K's boundary,
    <= 2 inside, plus the matching/acyclicity conditions.

    The caller adds the arc (b, a) afterwards; a and b are parent ids and
    must be adjacent on the piece's boundary walk.
    """
    k = piece.graph
    cm = piece.child_of
    ca, cb = cm[a], cm[b]

    if k.m == k.n - 1:  # a tree: orient everything towards a
        return piece.lift(Decomposition.of(
            a for a in _orient_tree(k, ca) if set(a) != {ca, cb}))

    bd = k.block_decomposition
    hv = bd.block_of_edge(ca, cb)
    if len(hv) == 2:
        hdec = Decomposition.of()
    else:
        hp = extract_piece(k, hv, outer_parent_edge=_walk_edge_within(k, hv, ca, cb))
        hcm = hp.child_of
        quad = walk_quad(hp.graph, hcm[ca], hcm[cb])
        hcfg = Configuration(hp.graph, quad)
        hdec = hp.lift(_recurse(hcfg, "M0", trace))
    parts = [hdec]
    arcs: list[Edge] = []
    for (u, kv) in _bridges_of_block(k, hv):
        bridge = peel_piece(k, kv, u)
        v = _bridge_partner(bridge, u)
        parts.append(_bridge_piece_dec(bridge, u, v, trace))
        arcs.append((v, u))
    return piece.lift(parts[0].union(*parts[1:]).adjust(add_arcs=arcs))


def _walk_edge_within(g: PlaneGraph, verts: frozenset[int], a: int, b: int) -> Edge:
    """A directed edge of g's outer walk inside verts (fallback (a, b))."""
    for (p, q) in g.faces[g.outer_face_id]:
        if p in verts and q in verts:
            return (p, q)
    return (a, b)


def _bridge_partner(piece: Piece, u: int) -> int:
    """u's boundary-walk successor inside the peeled bridge (parent ids)."""
    k = piece.graph
    cu = piece.child_of[u]
    walk = k.boundary_walk.vertices
    i = walk.index(cu)
    return piece.parent_of(walk[(i + 1) % len(walk)])


def _claim2(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    hverts = g.block_decomposition.block_of_edge(x, y)
    bridges = _bridges_of_block(g, hverts)

    bridge_parts: list[Decomposition] = []
    bridge_arcs: list[Edge] = []
    for (u, kv) in bridges:
        piece = peel_piece(g, kv, u)
        if w in kv and w != u:
            v = w
            assert u == x, "the bridge holding w must attach at x"
        elif z in kv and z != u:
            v = z
            assert u == y, "the bridge holding z must attach at y"
        else:
            v = _bridge_partner(piece, u)
        bridge_parts.append(_bridge_piece_dec(piece, u, v, trace))
        bridge_arcs.append((v, u))

    w_in = w in hverts
    z_in = z in hverts
    if len(hverts) == 2:
        hdec = Decomposition.of()
    else:
        hp = extract_piece(g, hverts, outer_parent_edge=(x, y))
        hcm = hp.child_of
        hg = hp.graph
        if w_in and z_in:
            hcfg = Configuration(hg, (hcm[w], hcm[x], hcm[y], hcm[z]))
            hdec = hp.lift(_recurse(hcfg, goal, trace))
        elif not w_in and not z_in:
            xm = hg.boundary_pred(hcm[x])
            yp = hg.boundary_succ(hcm[y])
            hcfg = Configuration(hg, (xm, hcm[x], hcm[y], yp))
            hgoal: Goal = "M1" if goal == "M1" else "M0"
            hdec = hp.lift(_recurse(hcfg, hgoal, trace))
        else:
            if not w_in and goal == "M3":
                # w hangs off x; the whole path's tail sits in H, and the
                # precondition (no R(xyz)-containment) transfers to H
                xm = hg.boundary_pred(hcm[x])
                hcfg = Configuration(hg, (xm, hcm[x], hcm[y], hcm[z]))
                hdec = hp.lift(_recurse(hcfg, "M3", trace))
                dec = hdec.union(*bridge_parts) if bridge_parts else hdec
                return dec.adjust(add_arcs=bridge_arcs)
            if not w_in:
                # mirror: swap the roles of (w, x) and (z, y)
                return _claim2(Configuration(g.reflect(), (z, y, x, w)),
                               goal, trace)
            # w in H, z hanging at y
            if goal in ("M0", "M1"):
                xm = hg.boundary_pred(hcm[x])
                yp = hg.boundary_succ(hcm[y])
                hcfg = Configuration(hg, (xm, hcm[x], hcm[y], yp))
                hgoal = "M1" if goal == "M1" else "M0"
                hdec = hp.lift(_recurse(hcfg, hgoal, trace))
            elif goal == "M3":
                # the M0-style assembly already leaves z unmatched with one arc
                xm = hg.boundary_pred(hcm[x])
                yp = hg.boundary_succ(hcm[y])
                hcfg = Configuration(hg, (xm, hcm[x], hcm[y], yp))
                hdec = hp.lift(_recurse(hcfg, "M0", trace))
            else:  # M2: (H, y+ y x w) with goal M3 makes w unmatched too
                yp = hg.boundary_succ(hcm[y])
                hcfg = Configuration(hg, (yp, hcm[y], hcm[x], hcm[w]))
                hdec = hp.lift(_recurse(hcfg, "M3", trace))
    dec = hdec.union(*bridge_parts) if bridge_parts else hdec
    return dec.adjust(add_arcs=bridge_arcs)


# ---------------------------------------------------------------------------
# Claim 3: separating cycles and tiny boundaries
# ---------------------------------------------------------------------------

def _labelings(cycle: tuple[int, ...]) -> list[tuple[int, ...]]:
    k = len(cycle)
    rots = [tuple(cycle[(i + j) % k] for j in range(k)) for i in range(k)]
    rev = tuple(reversed(cycle))
    rots += [tuple(rev[(i + j) % k] for j in range(k)) for i in range(k)]
    return rots


def _claim3_separating(cfg: Configuration, goal: Goal, c0: tuple[int, ...],
                       trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    ep = ext_subgraph(g, c0)
    ecfg = _sub_config(ep, cfg.path)
    d0 = ep.lift(_recurse(ecfg, goal, trace))
    ip = int_subgraph(g, c0)
    p = len(c0)
    if p == 4:
        lab = next((L for L in _labelings(c0) if (L[1], L[0]) in d0.arcs), None)
        if lab is None:
            raise CounterexampleError(cfg, "no oriented edge on the separating C4")
        v1, v2, v3, v4 = lab
        return _extend_into_c4(g, ip, d0, (v1, v2, v3, v4), trace)
    lab = next((L for L in _labelings(c0)
                if (L[0], L[1]) in d0.arcs and und(L[2], L[3]) not in d0.matching),
               None)
    if lab is None:
        raise CounterexampleError(cfg, "no admissible labelling of the separating C5")
    return _extend_into_c5(g, ip, d0, lab, trace)


def _extend_into_c4(g: PlaneGraph, ip: Piece, d0: Decomposition,
                    lab: tuple[int, int, int, int], trace: CaseTrace
                    ) -> Decomposition:
    """Extend (D0, M0) of Ext(C0) through a separating 4-cycle: delete v3,
    decompose the rest towards (v4- v4 v1 v2), free v2's matching partner,
    re-add v3 as a sink for its interior neighbours."""
    v1, v2, v3, v4 = lab
    ig = ip.graph
    icm = ip.child_of
    keep = set(ig.vertices()) - {icm[v3]}
    walk = ig.boundary_walk.vertices
    k = len(walk)
    i4 = walk.index(icm[v4])
    oe = (icm[v4], icm[v1]) if walk[(i4 + 1) % k] == icm[v1] else (icm[v1], icm[v4])
    gp = extract_piece(ig, keep, outer_parent_edge=oe)
    gg = gp.graph
    cm2 = gp.child_of
    c4m = {p: cm2[icm[p]] for p in (v1, v2, v4)}
    quad = _quad_ending(gg, c4m[v4], c4m[v1], c4m[v2])
    sub = Configuration(gg, quad)
    dprime = ip.lift(gp.lift(_recurse(sub, "M0", trace)))
    u1 = dprime.matched_partner(v2)
    if u1 is not None:
        dprime = dprime.adjust(add_arcs=[(u1, v2)], drop_matching=[(u1, v2)])
    int_nbrs = [ip.parent_of(q) for q in ig.neighbors(icm[v3])]
    extra = [(q, v3) for q in int_nbrs if q not in (v2, v4)]
    return d0.union(dprime).adjust(add_arcs=extra)


def _extend_into_c5(g: PlaneGraph, ip: Piece, d0: Decomposition,
                    lab: tuple[int, ...], trace: CaseTrace) -> Decomposition:
    v1, v2, v3, v4, v5 = lab
    ig = ip.graph
    icm = ip.child_of
    keep = set(ig.vertices()) - {icm[v5]}
    walk = ig.boundary_walk.vertices
    k = len(walk)
    i1 = walk.index(icm[v1])
    oe = (icm[v1], icm[v2]) if walk[(i1 + 1) % k] == icm[v2] else (icm[v2], icm[v1])
    gp = extract_piece(ig, keep, outer_parent_edge=oe)
    gg = gp.graph
    cm2 = gp.child_of
    quad = tuple(cm2[icm[p]] for p in (v1, v2, v3, v4))
    sub = Configuration(gg, quad)
    dprime = ip.lift(gp.lift(_recurse(sub, "M0", trace)))
    for end in (v1, v4):
        partner = dprime.matched_partner(end)
        if partner is not None:
            dprime = dprime.adjust(add_arcs=[(partner, end)],
                                   drop_matching=[(partner, end)])
    if (v4, v3) not in dprime.arcs:
        raise CounterexampleError(
            _as_cfg(g),
            f"expected forced arc (v4, v3) in the separating C5 extension {lab}")
    dprime = dprime.adjust(drop_arcs=[(v4, v3)])
    int_nbrs = [ip.parent_of(q) for q in ig.neighbors(icm[v5])]
    extra = [(q, v5) for q in int_nbrs if q not in (v1, v4)]
    return d0.union(dprime).adjust(add_arcs=extra)


def _as_cfg(g: PlaneGraph) -> Configuration:
    walk = g.boundary_walk.vertices
    return Configuration(g, tuple(walk[:4]))


def _claim3_boundary_c4(cfg: Configuration, goal: Goal, trace: CaseTrace
                        ) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    if goal in ("M2", "M3"):
        raise PreconditionError(goal, "the boundary 4-cycle is an R(xyz)-configuration")
    if goal == "M1":
        raise PreconditionError(goal, "a 4-cycle boundary has no chords")
    keep = set(g.vertices()) - {w}
    piece = extract_piece(g, keep, outer_parent_edge=(x, y))
    gg = piece.graph
    cm = piece.child_of
    quad = (gg.boundary_pred(cm[x]), cm[x], cm[y], cm[z])
    dprime = piece.lift(_recurse(Configuration(gg, quad), "M0", trace))
    u1 = dprime.matched_partner(z)
    if u1 is not None:
        dprime = dprime.adjust(add_arcs=[(u1, z)], drop_matching=[(u1, z)])
    extra = [(q, w) for q in g.neighbors(w) if q not in (x, z)]
    return dprime.adjust(add_arcs=[(w, x)] + extra, add_matching=[(w, z)])


def _claim3_boundary_c5(cfg: Configuration, goal: Goal, trace: CaseTrace
                        ) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    if goal == "M2":
        raise PreconditionError(goal, "the boundary 5-cycle is a P(wxyz)-configuration")
    if goal == "M1":
        raise PreconditionError(goal, "a 5-cycle boundary has no chords")
    a = g.boundary_succ(z)
    keep = set(g.vertices()) - {a}
    piece = extract_piece(g, keep, outer_parent_edge=(w, x))
    gg = piece.graph
    cm = piece.child_of
    quad = (cm[w], cm[x], cm[y], cm[z])
    dprime = piece.lift(_recurse(Configuration(gg, quad), "M0", trace))
    for end in (w, z):
        partner = dprime.matched_partner(end)
        if partner is not None:
            dprime = dprime.adjust(add_arcs=[(partner, end)],
                                   drop_matching=[(partner, end)])
    dprime = dprime.adjust(drop_arcs=[(z, y), (y, z)])
    extra = [(q, a) for q in g.neighbors(a) if q not in (z, w)]
    return dprime.adjust(add_arcs=[(a, z), (z, y)] + extra, add_matching=[(a, w)])


# ---------------------------------------------------------------------------
# Claim 4: boundary chords
# ---------------------------------------------------------------------------

def _chord_sides(g: PlaneGraph, u: int, v: int) -> tuple[Piece, Piece]:
    """Pieces of the chord split: (side containing the walk stretch v..u,
    side containing the stretch u..v)."""
    walk = g.boundary_walk
    return (int_subgraph(g, walk.stretch(v, u)),
            int_subgraph(g, walk.stretch(u, v)))


def _claim4(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    ch = sorted(chords(g))
    avoid = [e for e in ch if not set(e) & {x, y}]
    if avoid:
        u, v = avoid[0]
        # side containing the centre edge keeps the whole path
        for (a, b) in ((u, v), (v, u)):
            side_with_path, other = _chord_sides(g, a, b)
            if all(p in side_with_path.child_of for p in cfg.path):
                break
        else:
            raise CounterexampleError(cfg, "chord split lost the path")
        scm = side_with_path.child_of
        sub1 = Configuration(side_with_path.graph, tuple(scm[p] for p in cfg.path))
        d1 = side_with_path.lift(_recurse(sub1, goal, trace))
        ocm = other.child_of
        quad = walk_quad(other.graph, ocm[a], ocm[b])
        d2 = other.lift(_recurse(Configuration(other.graph, quad), "M0", trace))
        return d1.union(d2)
    # every chord meets {x, y}
    return _claim4_case2(cfg, goal, trace)


def _y_chord_pieces(cfg: Configuration):
    """For the innermost chord y-t towards z: (far piece G1 with path
    (w,x,y,t), near piece G2 with the z-side), plus t."""
    g = cfg.graph
    w, x, y, z = cfg.path
    walk = g.boundary_walk
    k = len(walk)
    pos = walk.position
    on_walk = walk.edge_set
    cand = [t for t in g.neighbors(y)
            if t not in (x, z) and t in walk.vertex_set and und(t, y) not in on_walk]
    if not cand:
        return None
    # minimise the z-side: first chord neighbour along the walk from z
    t = min(cand, key=lambda t: (pos[t] - pos[z]) % k)
    return (*_chord_sides(g, y, t), t)


def _claim4_case2(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    has_y_chord = _y_chord_pieces(cfg) is not None
    if goal != "M3":
        mirror = Configuration(g.reflect(), (z, y, x, w))
        if not has_y_chord:
            return _claim4_case2(mirror, goal, trace)
    if goal == "M0":
        return _case2_m0(cfg, trace)
    if goal == "M1":
        return _case2_m1(cfg, trace)
    if goal == "M3":
        return _case2_m3(cfg, trace)
    # goal M2 on a chorded boundary: the precondition cannot be evaluated
    # here; the relaxed construction is attempted and accepted only if no
    # exempt vertex actually uses the second out-arc.
    dec = _case2_m1(cfg, trace)
    rep = verify(g, cfg.path, goal_spec("M2", cfg), dec)
    if rep:
        return dec
    raise PreconditionError("M2", "chord at the centre; relaxed construction "
                                  f"needs the exemption ({rep.detail})")


def _case2_m0(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    """Chord-centred split: both sides take their (1001,1001)-decomposition."""
    g = cfg.graph
    w, x, y, z = cfg.path
    g1p, g2p, t = _y_chord_pieces(cfg)
    cm1, cm2 = g1p.child_of, g2p.child_of
    sub1 = Configuration(g1p.graph, (cm1[w], cm1[x], cm1[y], cm1[t]))
    d1 = g1p.lift(_recurse(sub1, "M0", trace))
    quad2 = walk_quad(g2p.graph, cm2[t], cm2[y])
    d2 = g2p.lift(_recurse(Configuration(g2p.graph, quad2), "M0", trace))
    return d1.union(d2)


def _case2_m1(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    """Relaxed (1001,0000): the z-side takes (v, y, z, z+) so the far side may
    give the chord neighbour out-degree two."""
    g = cfg.graph
    w, x, y, z = cfg.path
    pieces = _y_chord_pieces(cfg)
    if pieces is None:
        raise PreconditionError("M1", "no chord at x or y")
    g1p, g2p, t = pieces
    cm1, cm2 = g1p.child_of, g2p.child_of
    zp = g.boundary_succ(z)
    sub2 = Configuration(g2p.graph, (cm2[t], cm2[y], cm2[z], cm2[zp]))
    d2 = g2p.lift(_recurse(sub2, "M0", trace))

    g1g = g1p.graph
    sub1 = Configuration(g1g, (cm1[w], cm1[x], cm1[y], cm1[t]))
    h1chords = chords(g1g)
    if any(set(e) & {cm1[x], cm1[y]} for e in h1chords):
        d1 = _recurse(sub1, "M1", trace)
    else:
        df = recognize(sub1)
        dr = recognize(full_reverse(sub1))
        if df is None and dr is None:
            d1 = _recurse(sub1, "M2", trace)
        else:
            trace.add("SpecialFamily", f"claim4 {df.tag if df else dr.tag}")
            if df is not None:
                d1 = decompose_special(df, ClauseRequest("1002,0000"))
            else:
                d1 = decompose_special(dr, ClauseRequest("2001,0000"))
    return g1p.lift(d1).union(d2).adjust(add_arcs=[(z, y)])


def _case2_m3(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    walk = g.boundary_walk
    k = len(walk)
    pos = walk.position
    on_walk = walk.edge_set
    x_chords = [t for t in g.neighbors(x)
                if t not in (w, y) and t in walk.vertex_set
                and und(t, x) not in on_walk]
    if x_chords:
        # split at a chord of x: the z side keeps the goal
        t = min(x_chords, key=lambda t: (pos[x] - pos[t]) % k)
        zp_, wp_ = _chord_sides(g, t, x)
        zcm, wcm = zp_.child_of, wp_.child_of
        sub_z = Configuration(zp_.graph, (zcm[t], zcm[x], zcm[y], zcm[z]))
        d1 = zp_.lift(_recurse(sub_z, "M3", trace))
        quad = walk_quad(wp_.graph, wcm[x], wcm[t])
        d2 = wp_.lift(_recurse(Configuration(wp_.graph, quad), "M0", trace))
        return d1.union(d2)
    pieces = _y_chord_pieces(cfg)
    if pieces is None:
        raise CounterexampleError(cfg, "claim 4 reached without chords at x or y")
    g1p, g2p, t = pieces
    cm1, cm2 = g1p.child_of, g2p.child_of
    tpred = g2p.graph.boundary_pred(cm2[t])
    sub2 = Configuration(g2p.graph, (tpred, cm2[t], cm2[y], cm2[z]))
    d2r = recognize(sub2)
    if d2r is None or not d2r.in_R():
        d2 = g2p.lift(_recurse(sub2, "M3", trace))
        sub1 = Configuration(g1p.graph, (cm1[w], cm1[x], cm1[y], cm1[t]))
        d1 = g1p.lift(_recurse(sub1, "M0", trace))
        return d1.union(d2)
    # the z side is an R-configuration: take its (1001,1100)-decomposition
    trace.add("SpecialFamily", f"claim4-M3 {d2r.tag}")
    d2 = g2p.lift(decompose_special(d2r, ClauseRequest("1001,1100")))
    sub1r = Configuration(g1p.graph, (cm1[t], cm1[y], cm1[x], cm1[w]))
    d1r = recognize(sub1r)
    if d1r is not None and d1r.tag in ("R2", "P1", "P2", "P3"):
        d1 = g1p.lift(decompose_special(d1r, ClauseRequest("1001,0001", "zz+")))
        return d1.union(d2)
    # fall back: far side unmatched at t via M2/M1-style production
    sub1 = Configuration(g1p.graph, (cm1[w], cm1[x], cm1[y], cm1[t]))
    d1 = g1p.lift(_recurse(sub1, "M2", trace))
    return d1.union(d2)


# ---------------------------------------------------------------------------
# Claim 5: special containments
# ---------------------------------------------------------------------------

def _claim5(cfg: Configuration, goal: Goal, trace: CaseTrace
            ) -> Decomposition | None:
    g = cfg.graph
    df = recognize(cfg)
    dr = recognize(full_reverse(cfg))
    f_in_R = df is not None and df.in_R()
    f_in_P = df is not None and df.in_P()
    r_in_R = dr is not None and dr.in_R()
    r_in_P = dr is not None and dr.in_P()

    if goal == "M1":
        raise PreconditionError("M1", "boundary is chordless at this stage")
    if goal == "M2" and (f_in_R or f_in_P or r_in_R or r_in_P):
        wit = df if (f_in_R or f_in_P) else dr
        raise PreconditionError("M2", f"special containment present ({wit.tag})",
                                witness=wit)
    if goal == "M3" and f_in_R:
        raise PreconditionError("M3", "an R(xyz)-configuration is contained",
                                witness=df)
    if not (f_in_R or f_in_P or r_in_R or r_in_P):
        return None
    trace.add("Claim5")
    trace.add("SpecialFamily", (df or dr).tag)
    if goal == "M0":
        if f_in_R:
            return decompose_special(df, ClauseRequest("1001,1001", "zz+"))
        if f_in_P:
            return decompose_special(df, ClauseRequest("1001,0001", "zz+"))
        if r_in_R:
            return decompose_special(dr, ClauseRequest("1001,1001", "zz+"))
        return decompose_special(dr, ClauseRequest("1001,0001", "zz+"))
    # goal M3 with patterns present: z must stay unmatched
    if f_in_P:
        return decompose_special(df, ClauseRequest("1001,1000", "w-w"))
    if r_in_P:
        return decompose_special(dr, ClauseRequest("1001,0001", "zz+"))
    if r_in_R:
        if dr.tag == "R1":
            raise PreconditionError("M3", "the graph is a 4-cycle (R(xyz) holds)")
        return decompose_special(dr, ClauseRequest("1001,0001", "zz+"))
    raise CounterexampleError(cfg, f"claim 5 found no production for {goal}")


# ---------------------------------------------------------------------------
# Claims 6 and 7: two-chords
# ---------------------------------------------------------------------------

def resolve_two_chords(cfg: Configuration, trace: CaseTrace
                       ) -> Decomposition | None:
    """Claims 6 and 7; returns None when no relevant 2-chord exists."""
    g = cfg.graph
    w, x, y, z = cfg.path
    tch = two_chords(g)
    wuz = sorted(m for (a, m, b) in tch if {a, b} == {w, z})
    if wuz:
        trace.add("Claim6")
        return _claim6(cfg, wuz[0], trace)
    xuz = sorted(m for (a, m, b) in tch if {a, b} == {x, z})
    if xuz:
        trace.add("Claim7", "x-z two-chord")
        return _claim_xuz(cfg, xuz[0], trace)
    wuy = sorted(m for (a, m, b) in tch if {a, b} == {w, y})
    if wuy:
        trace.add("Claim7", "w-y two-chord")
        mirror = Configuration(g.reflect(), (z, y, x, w))
        return _claim_xuz(mirror, wuy[0], trace)
    at_y = sorted(m for (a, m, b) in tch if y in (a, b))
    if at_y:
        trace.add("Claim7")
        return _claim7(cfg, trace)
    at_x = sorted(m for (a, m, b) in tch if x in (a, b))
    if at_x:
        trace.add("Claim7", "mirrored")
        mirror = Configuration(g.reflect(), (z, y, x, w))
        return _claim7(mirror, trace)
    return None


def _fan(g: PlaneGraph, u: int, start: int) -> list[int]:
    """u's boundary neighbours in walk order starting at start."""
    walk = g.boundary_walk
    k = len(walk)
    pos = walk.position
    nbrs = [q for q in g.neighbors(u) if q in pos]
    return sorted(nbrs, key=lambda q: (pos[q] - pos[start]) % k)


def _claim6(cfg: Configuration, u: int, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    if not (g.degree(x) == 2 and g.degree(y) == 2):
        raise CounterexampleError(cfg, "claim 6 with busy centre vertices")
    fan = _fan(g, u, z)
    assert fan[0] == z and fan[-1] == w, "wuz fan must run from z to w"
    walk = g.boundary_walk
    vs = walk.vertices
    pieces = []
    for i in range(len(fan) - 1):
        cyc = walk.stretch(fan[i], fan[i + 1]) + (u,)
        pieces.append(int_subgraph(g, cyc))
    # find a fan piece that is not an R-configuration
    chosen = None
    for i, piece in enumerate(pieces):
        pcm = piece.child_of
        sub = Configuration(piece.graph,
                            (pcm[_succ_in(vs, fan[i])], pcm[fan[i]], pcm[u],
                             pcm[fan[i + 1]]))
        d = recognize(sub)
        if d is None or not d.in_R():
            chosen = (i, piece, sub)
            break
    if chosen is None:
        raise CounterexampleError(cfg, "every wuz fan piece is an R-configuration")
    i, piece, sub = chosen
    xi, xi1 = fan[i], fan[i + 1]
    d_i = piece.lift(_recurse(sub, "M3", trace))
    if xi1 == w:
        # no left part: the added arc (u, w) takes over the edge u-w,
        # freeing w's budget for (w, x)
        d_i = _drop_edge_coverage(d_i, und(u, w))
    parts = [d_i]
    if xi1 != w:
        lcyc = walk.stretch(xi1, w) + (u,)
        lp = int_subgraph(g, lcyc)
        lcm = lp.child_of
        subl = Configuration(lp.graph,
                             (lp.graph.boundary_pred(lcm[w]), lcm[w], lcm[u],
                              lcm[xi1]))
        parts.append(lp.lift(_recurse(subl, "M0", trace)))
    if xi != z:
        rcyc = walk.stretch(z, xi) + (u,)
        rp = int_subgraph(g, rcyc)
        rcm = rp.child_of
        subr = Configuration(rp.graph,
                             (rcm[xi], rcm[u], rcm[z],
                              rp.graph.boundary_succ(rcm[z])))
        parts.append(rp.lift(_recurse(subr, "M0", trace)))
    dec = parts[0].union(*parts[1:])
    return dec.adjust(add_arcs=[(u, w), (w, x), (u, z), (z, y)])


def _succ_in(vs: tuple[int, ...], v: int) -> int:
    i = vs.index(v)
    return vs[(i + 1) % len(vs)]


def _claim7(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    """2-chord at y (the mirrored call handles x)."""
    g = cfg.graph
    w, x, y, z = cfg.path
    mids = sorted({m for (a, m, b) in two_chords(g) if y in (a, b)})
    walk = g.boundary_walk
    vs = walk.vertices

    # sub-case A across all 2-chord middles: some bottom fan piece is not R
    fans = {}
    for u in mids:
        fan = _fan(g, u, y)
        assert fan[0] == y
        fans[u] = fan
        for i in range(len(fan) - 1):
            cyc = walk.stretch(fan[i], fan[i + 1]) + (u,)
            piece = int_subgraph(g, cyc)
            pcm = piece.child_of
            sub = Configuration(
                piece.graph,
                (pcm[_succ_in(vs, fan[i])], pcm[fan[i]], pcm[u], pcm[fan[i + 1]]))
            d = recognize(sub)
            if d is None or not d.in_R():
                return _claim7_split(cfg, u, fan, i, trace)
    # sub-case B: every piece of every fan is an R-configuration
    u = mids[0]
    fan = fans[u]
    xr = fan[-1]
    top_len = len(walk.stretch(xr, y)) + 1
    if top_len == 4:
        raise CounterexampleError(cfg, "all-R fan with a 4-cycle top piece "
                                       "(an R(yxw)-configuration would exist)")
    if top_len == 5:
        trace.add("SpecialFamily", "P2 shifted")
        return _claim7_p2_shifted(cfg, u, trace)
    return _claim7_top(cfg, u, fan, trace)


def _claim7_split(cfg: Configuration, u: int, fan: list[int], i: int,
                  trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    walk = g.boundary_walk
    vs = walk.vertices
    xi, xi1, xr = fan[i], fan[i + 1], fan[-1]
    parts = []
    piece = int_subgraph(g, walk.stretch(xi, xi1) + (u,))
    pcm = piece.child_of
    sub = Configuration(piece.graph,
                        (pcm[_succ_in(vs, xi)], pcm[xi], pcm[u], pcm[xi1]))
    if xi == y:
        # the piece holds z as its first path vertex; z must stay unmatched
        d_i = _claim7_g0(sub, trace)
    else:
        d_i = _recurse(sub, "M3", trace)
    parts.append(piece.lift(d_i))
    if xi1 != xr:
        lp = int_subgraph(g, walk.stretch(xi1, xr) + (u,))
        lcm = lp.child_of
        subl = Configuration(lp.graph,
                             (lcm[xi1], lcm[u], lcm[xr],
                              lp.graph.boundary_pred(lcm[xr])))
        parts.append(lp.lift(_recurse(subl, "M0", trace)))
    if xi != y:
        rp = int_subgraph(g, walk.stretch(y, xi) + (u,))
        rcm = rp.child_of
        subr = Configuration(rp.graph,
                             (rcm[u], rcm[y], rcm[z],
                              rp.graph.boundary_succ(rcm[z])))
        parts.append(rp.lift(_recurse(subr, "M0", trace)))
    # top piece: (1002,0000) by the chord-free case analysis
    tp = int_subgraph(g, walk.stretch(xr, y) + (u,))
    tcm = tp.child_of
    dt = tp.lift(_claim7_top_1002(
        Configuration(tp.graph, (tcm[w], tcm[x], tcm[y], tcm[u])), trace))
    rest = parts[0].union(*parts[1:]).adjust(add_arcs=[(z, y)])
    if xi1 != xr:
        return rest.union(dt)
    # with no left part both the fan piece and the top cover u-x_r; whichever
    # side's coverage survives must also respect x_r's single out-arc budget
    spec = goal_spec("M2", cfg)
    for dec in (_dedup_shared_edge(dt, rest, und(u, xr)),
                _dedup_shared_edge(rest, dt, und(u, xr))):
        if dec is not None and verify(g, cfg.path, spec, dec):
            return dec
    return _two_chord_patch_search(cfg, trace)


def _claim_xuz(cfg: Configuration, u: int, trace: CaseTrace) -> Decomposition:
    """A 2-chord x-u-z: x, y, z, u bound a 4-face with y of degree two.

    Decompose g minus y on the path (w, x, u, z), flip the forced arc into u,
    and point z at y; if the reduced graph holds a special pattern (so the
    plain goal is unavailable there), fall back to a bounded exhaustive
    search of the reduced graph under the exact final caps.
    """
    g = cfg.graph
    w, x, y, z = cfg.path
    if not (g.degree(y) == 2 and set(g.neighbors(y)) == {x, z}):
        raise CounterexampleError(cfg, "x-z two-chord without the 4-face")
    keep = set(g.vertices()) - {y}
    piece = extract_piece(g, keep, outer_parent_edge=(w, x))
    gg = piece.graph
    cm = piece.child_of
    sub = Configuration(gg, (cm[w], cm[x], cm[u], cm[z]))
    if not chords(gg):
        df = recognize(sub)
        dr = recognize(full_reverse(sub))
        if df is None and dr is None:
            dprime = piece.lift(_recurse(sub, "M2", trace))
            if (z, u) not in dprime.arcs:
                raise CounterexampleError(cfg, "missing forced arc (z, u)")
            return dprime.adjust(drop_arcs=[(z, u)],
                                 add_arcs=[(u, z), (u, x), (z, y)])
    # a special pattern blocks the plain sub-goal: solve the reduced graph
    # directly under the final caps (z's budget is reserved for (z, y))
    trace.add("Tiny", f"x-z two-chord n={gg.n}")
    final_boundary = g.boundary_vertices
    out_cap = {}
    for c in gg.vertices():
        p = piece.parent_of(c)
        if p == w:
            out_cap[c] = 1
        elif p in (x, z):
            out_cap[c] = 0
        else:
            out_cap[c] = 1 if p in final_boundary else 2
    forbid = {cm[w], cm[x], cm[z]}
    dec = _tiny_search(sorted(gg.edges), out_cap, forbid_match=forbid)
    if dec is None:
        raise CounterexampleError(cfg, "x-z two-chord search failed")
    return piece.lift(dec).adjust(add_arcs=[(z, y)])


def _claim7_g0(sub: Configuration, trace: CaseTrace) -> Decomposition:
    """The fan piece at the z end: a decomposition with the first path vertex
    unmatched and pointing only at the second (the goal's z-side caps)."""
    df = recognize(sub)
    if df is not None and df.in_P():
        trace.add("SpecialFamily", f"claim7 g0 {df.tag}")
        return decompose_special(df, ClauseRequest("1001,0001", "zz+"))
    dr = recognize(full_reverse(sub))
    if dr is not None and dr.in_R():
        trace.add("SpecialFamily", f"claim7 g0 {dr.tag}")
        return decompose_special(dr, ClauseRequest("1001,1100"))
    if dr is not None and dr.in_P():
        trace.add("SpecialFamily", f"claim7 g0 {dr.tag}")
        return decompose_special(dr, ClauseRequest("1001,1000", "w-w"))
    return _recurse(sub, "M2", trace)


def _claim7_top_1002(sub: Configuration, trace: CaseTrace) -> Decomposition:
    """(1002,0000) for the chordless top piece, via membership or M2."""
    df = recognize(sub)
    dr = recognize(full_reverse(sub))
    if df is None and dr is None:
        return _recurse(sub, "M2", trace)
    trace.add("SpecialFamily", f"claim7 top {(df or dr).tag}")
    if df is not None:
        return decompose_special(df, ClauseRequest("1002,0000"))
    return decompose_special(dr, ClauseRequest("2001,0000"))


def _claim7_p2_shifted(cfg: Configuration, u: int, trace: CaseTrace
                       ) -> Decomposition:
    """|C_r| = 5: the configuration (g, y x w w-) is a P2 member and the
    shifted construction decomposes (g, w- w x y) = reversed (y x w w-)."""
    g = cfg.graph
    w, x, y, z = cfg.path
    wm = g.boundary_pred(w)
    rev = Configuration(g.reflect(), (y, x, w, wm))
    d = recognize(rev)
    if d is None or d.tag != "P2":
        raise CounterexampleError(cfg, "expected a P2 member in claim 7")
    return decompose_p2_shifted(d)


def _claim7_top(cfg: Configuration, u: int, fan: list[int], trace: CaseTrace
                ) -> Decomposition:
    """|C_r| >= 6: bottom fan is a Q member; the top needs (1001,0001)."""
    g = cfg.graph
    w, x, y, z = cfg.path
    walk = g.boundary_walk
    xr = fan[-1]
    # bottom: the whole fan region on the path (z, y, u, x_r): a chain of the
    # R pieces, so a Q member for r >= 2 and an R member for r = 1
    wp = int_subgraph(g, walk.stretch(y, xr) + (u,))
    wcm = wp.child_of
    z_ = _succ_in(walk.vertices, y)
    sub_w = Configuration(wp.graph, (wcm[z_], wcm[y], wcm[u], wcm[xr]))
    qd = recognize(sub_w)
    if qd is None or qd.in_P():
        raise CounterexampleError(cfg, "fan union is not an R/Q member")
    if qd.in_Q():
        w_clauses = [ClauseRequest("1011,0000", "(z,y)")]
    else:
        w_clauses = [ClauseRequest("1001,0011", "yz"), ClauseRequest("1011,0000")]
    # top piece
    tp = int_subgraph(g, walk.stretch(xr, y) + (u,))
    tcm = tp.child_of
    subt = Configuration(tp.graph, (tcm[w], tcm[x], tcm[y], tcm[u]))
    dt = tp.lift(_claim7_top_0001(subt, trace))
    spec = goal_spec("M2", cfg)
    for wcl in w_clauses:
        d_w = wp.lift(decompose_special(qd, wcl))
        for dec in (_dedup_shared_edge(dt, d_w, und(u, xr)),
                    _dedup_shared_edge(d_w, dt, und(u, xr))):
            if dec is not None and verify(g, cfg.path, spec, dec):
                return dec
    return _two_chord_patch_search(cfg, trace)


def _two_chord_patch_search(cfg: Configuration, trace: CaseTrace
                            ) -> Decomposition:
    """Bounded exhaustive (1001,0000)-search for the degenerate single-piece
    fans, where the fixed recipes cannot trade the end vertex's budget between
    the pieces.  Scoped to desk scale by an edge cap."""
    g = cfg.graph
    w, x, y, z = cfg.path
    edges = sorted(set(g.edges) - {und(x, y)})
    if len(edges) > 24:
        raise CounterexampleError(cfg, "two-chord patch search over the cap")
    trace.add("Tiny", f"claim7 patch n={g.n}")
    boundary = g.boundary_vertices
    caps = {w: 1, x: 0, y: 0, z: 1}
    out_cap = {v: caps.get(v, 1 if v in boundary else 2) for v in g.vertices()}
    dec = _tiny_search(edges, out_cap, forbid_match={w, x, y, z})
    if dec is None:
        raise CounterexampleError(cfg, "two-chord patch search found nothing")
    return dec


def _drop_edge_coverage(dec: Decomposition, edge: Edge) -> Decomposition:
    """Remove whatever covers the given undirected edge (arc or matching)."""
    return dec.adjust(drop_arcs=[a for a in dec.arcs if und(*a) == edge],
                      drop_matching=[edge])


def _dedup_shared_edge(primary: Decomposition, secondary: Decomposition,
                       edge: Edge) -> Decomposition | None:
    """Union two decompositions that may both cover one shared edge; the
    secondary's coverage of that edge is dropped on conflict."""
    cover_p = [a for a in primary.arcs if und(*a) == edge] + \
              [m for m in primary.matching if m == edge]
    cover_s = [a for a in secondary.arcs if und(*a) == edge] + \
              [m for m in secondary.matching if m == edge]
    if not cover_p and not cover_s:
        return None
    if cover_p and cover_s and cover_p != cover_s:
        if edge in secondary.matching:
            secondary = secondary.adjust(drop_matching=[edge])
        else:
            secondary = secondary.adjust(
                drop_arcs=[a for a in secondary.arcs if und(*a) == edge])
    return primary.union(secondary)


def _claim7_top_0001(sub: Configuration, trace: CaseTrace) -> Decomposition:
    df = recognize(sub)
    if df is not None and df.tag in ("R2", "P2", "P3"):
        trace.add("SpecialFamily", f"claim7 {df.tag}")
        return decompose_special(df, ClauseRequest("1001,0001", "zz+"))
    return _recurse(sub, "M2", trace)


# ---------------------------------------------------------------------------
# the greedy cycle
# ---------------------------------------------------------------------------

def build_cstar(cfg: Configuration) -> list[int]:
    """w_1 = y, ..., w_s = x: boundary steps, hopping over maximal 2-chords."""
    g = cfg.graph
    w, x, y, z = cfg.path
    walk = g.boundary_walk
    vs = walk.vertices
    k = len(vs)
    pos = walk.position
    tch = two_chords(g)
    seq = [y]
    cur = y
    while cur != x:
        best = None
        to_x = (pos[x] - pos[cur]) % k
        for (a, m, b) in sorted(tch):
            for (p, q) in ((a, b), (b, a)):
                if p != cur or q in seq:
                    continue
                reach = (pos[q] - pos[cur]) % k
                if reach <= 1 or reach > to_x:
                    continue
                if best is None or reach > best[0]:
                    best = (reach, m, q)
        if best is not None:
            seq.extend([best[1], best[2]])
            cur = best[2]
        else:
            cur = vs[(pos[cur] + 1) % k]
            seq.append(cur)
        if len(seq) > 2 * g.n:
            raise PlaneGraphError("runaway greedy cycle")
    return seq


def cstar_finish(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    trace.add("CStar")
    g = cfg.graph
    w, x, y, z = cfg.path
    seq = build_cstar(cfg)
    s = len(seq)
    boundary = g.boundary_vertices
    interior_ws = [i for i, p in enumerate(seq) if p not in boundary]
    if not interior_ws:
        trace.add("Claim8")
        return _claim8(cfg, trace)
    # Claim 9: a chord of C*
    for i, j in itertools.combinations(range(s), 2):
        a, b = seq[i], seq[j]
        if j - i >= 2 and not (i == 0 and j == s - 1) and g.has_edge(a, b):
            if a in boundary or b in boundary:
                continue
            trace.add("Claim9")
            return _claim9(cfg, seq, i, j, trace)
    # Claim 10: interior milestones with a long boundary run between
    for ii, jj in zip(interior_ws, interior_ws[1:]):
        if jj > ii + 2:
            trace.add("Claim10")
            return _claim10(cfg, seq, ii, jj, trace)
    first, last = interior_ws[0], interior_ws[-1]
    if first != 2:  # w_3 (index 2) should be the first interior milestone
        trace.add("Claim11")
        return _claim11(cfg, seq, first, trace)
    if last != s - 3:
        trace.add("Claim11", "mirrored")
        mirror = Configuration(g.reflect(), (z, y, x, w))
        mseq = build_cstar(mirror)
        mfirst = next(i for i, p in enumerate(mseq) if p not in boundary)
        return _claim11(mirror, mseq, mfirst, trace)
    trace.add("Final")
    return _final_construction(cfg, seq, trace)


def _anchored_m0(gg: PlaneGraph, cx: int, cy: int, trace: CaseTrace
                 ) -> Decomposition:
    """An M0-style decomposition of gg minus the edge cx-cy with zero budget
    on cx and cy.  Degenerate graphs without a boundary path go through the
    exhaustive search (tiny by construction)."""
    try:
        quad = walk_quad(gg, cx, cy)
    except PlaneGraphError:
        quad = None
    if quad is not None:
        return _recurse(Configuration(gg, quad), "M0", trace)
    trace.add("Tiny", f"anchored n={gg.n}")
    boundary = gg.boundary_vertices
    edges = sorted(set(gg.edges) - {und(cx, cy)})
    out_cap = {v: 0 if v in (cx, cy) else (1 if v in boundary else 2)
               for v in gg.vertices()}
    dec = _tiny_search(edges, out_cap, forbid_match={cx, cy})
    if dec is None:
        raise PlaneGraphError("tiny anchored search failed")
    return dec


def _tiny_search(edges: list[Edge], out_cap: dict[int, int],
                 forbid_match: set[int]) -> Decomposition | None:
    arcs: list[Edge] = []
    matched: set[int] = set()
    outdeg: dict[int, int] = {}

    def rec(i: int) -> bool:
        if i == len(edges):
            return Decomposition.of(arcs).find_cycle() is None
        u, v = edges[i]
        for kind in ("fwd", "bwd", "mat"):
            if kind == "fwd" and outdeg.get(u, 0) >= out_cap[u]:
                continue
            if kind == "bwd" and outdeg.get(v, 0) >= out_cap[v]:
                continue
            if kind == "mat" and (u in matched or v in matched
                                  or u in forbid_match or v in forbid_match):
                continue
            if kind == "fwd":
                outdeg[u] = outdeg.get(u, 0) + 1
                arcs.append((u, v))
            elif kind == "bwd":
                outdeg[v] = outdeg.get(v, 0) + 1
                arcs.append((v, u))
            else:
                matched.update((u, v))
            if rec(i + 1):
                return True
            if kind == "fwd":
                outdeg[u] -= 1
                arcs.pop()
            elif kind == "bwd":
                outdeg[v] -= 1
                arcs.pop()
            else:
                matched.difference_update((u, v))
        return False

    if rec(0):
        covered = {und(a, b) for a, b in arcs}
        return Decomposition.of(arcs, [e for e in edges if e not in covered])
    return None


def _claim8(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    """C* = B_G: delete the boundary except x, y and orient it back."""
    g = cfg.graph
    w, x, y, z = cfg.path
    walk = g.boundary_walk
    vs = walk.vertices
    k = len(vs)
    if k < 6:
        raise CounterexampleError(cfg, "short chordless boundary in claim 8")
    keep = (set(g.vertices()) - set(vs)) | {x, y}
    piece = extract_piece(g, keep, outer_parent_edge=(x, y))
    gg = piece.graph
    cm = piece.child_of
    dprime = piece.lift(_anchored_m0(gg, cm[x], cm[y], trace))
    # an edge v_ -> u_ of the walk away from the path: forward from u_
    # reaches x, backward from v_ reaches y
    pick = None
    for i in range(k):
        a, b = vs[i], vs[(i + 1) % k]
        if not {a, b} & {w, x, y, z}:
            pick = (a, b)
            break
    if pick is None:
        raise CounterexampleError(cfg, "no boundary edge away from the path")
    v_, u_ = pick
    ahead = walk.stretch(u_, x)
    behind = walk.stretch(y, v_)  # the boundary is a simple cycle here
    arcs = (list(zip(ahead, ahead[1:]))
            + [(q, p) for p, q in zip(behind, behind[1:])])
    cross = []
    for c in set(gg.boundary_walk.vertices):
        p = piece.parent_of(c)
        if p in (x, y):
            continue
        for q in g.neighbors(p):
            if q in g.boundary_vertices:
                cross.append((p, q))
    return dprime.adjust(add_arcs=arcs + cross, add_matching=[(u_, v_)])


def _anchored_0000(piece: Piece, g: PlaneGraph, w: int, x: int, y: int,
                   trace: CaseTrace,
                   reserved: dict[int, int] | None = None) -> Decomposition:
    """(1001,0000)-style decomposition of a reduced piece on (w, x, y, y+),
    in parent ids.  When y dangles in the piece (its boundary run was cut
    away), the structured route has no fourth path vertex; a bounded search
    under the final caps takes over.  reserved maps parent ids to out-degree
    budget already committed outside the piece (cross arcs to be added)."""
    gg = piece.graph
    cm = piece.child_of
    try:
        yp = gg.boundary_succ(cm[y])
        sub = Configuration(gg, (cm[w], cm[x], cm[y], yp))
        return piece.lift(_obs_0000(sub, trace))
    except PlaneGraphError:
        pass
    if gg.m > 24:
        raise CounterexampleError(_as_cfg(g), "anchored piece search over the cap")
    trace.add("Tiny", f"anchored-0000 n={gg.n}")
    reserved = reserved or {}
    final_boundary = g.boundary_vertices
    out_cap = {}
    for c in gg.vertices():
        p = piece.parent_of(c)
        if p == w:
            cap = 1
        elif p in (x, y):
            cap = 0
        else:
            cap = 1 if p in final_boundary else 2
        out_cap[c] = max(0, cap - reserved.get(p, 0))
    dec = _tiny_search(sorted(set(gg.edges) - {und(cm[x], cm[y])}), out_cap,
                       forbid_match={cm[w], cm[x], cm[y]})
    if dec is None:
        raise CounterexampleError(_as_cfg(g), "anchored piece search failed")
    return piece.lift(dec)


def _obs_0000(sub: Configuration, trace: CaseTrace) -> Decomposition:
    """(1001,0000), relaxed iff the centre has chords (the obs-0000 route)."""
    g = sub.graph
    w, x, y, z = sub.path
    ch = chords(g)
    if any(set(e) & {x, y} for e in ch):
        return _recurse(sub, "M1", trace)
    return _recurse(sub, "M2", trace)


def _claim9(cfg: Configuration, seq: list[int], i: int, j: int,
            trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    wi, wj = seq[i], seq[j]
    walk = g.boundary_walk
    wim, wip = seq[i - 1], seq[i + 1]
    wjm, wjp = seq[j - 1], seq[j + 1]
    outer_cycle = walk.stretch(wjp, wim) + (wi, wj)
    inner_cycle = walk.stretch(wip, wjm) + (wj, wi)
    gp = int_subgraph(g, outer_cycle)
    g2 = int_subgraph(g, inner_cycle)
    icm = g2.child_of
    dprime = gp.lift(_obs_0000(_sub_config(gp, cfg.path), trace))
    if (wi, wj) in dprime.arcs:
        wi, wj = wj, wi
        wim, wip, wjm, wjp = wjm, wjp, wim, wip
    gi = int_subgraph(g, walk.stretch(wim, wip) + (wi,))
    gj = int_subgraph(g, walk.stretch(wjm, wjp) + (wj,))
    gicm, gjcm = gi.child_of, gj.child_of
    subi = Configuration(gi.graph, (gicm[wip], gicm[wi], gicm[wim],
                                    gi.graph.boundary_succ(gicm[wim])))
    di = gi.lift(_recurse(subi, "M0", trace))
    subj = Configuration(gj.graph, (gjcm[wjm], gjcm[wj], gjcm[wjp],
                                    gj.graph.boundary_pred(gjcm[wjp])))
    dj = gj.lift(_recurse(subj, "M0", trace))
    di = di.adjust(drop_arcs=[(wip, wi)])
    dj = dj.adjust(drop_arcs=[(wjm, wj)])
    # directed-path dichotomy on G''
    has_path = _reaches(dprime, wi, wj)
    subg2 = Configuration(g2.graph, (icm[wjm], icm[wj], icm[wi], icm[wip]))
    d2 = g2.lift(_gpp_both(subg2, "1011" if has_path else "1101", trace))
    return dprime.union(d2, di, dj)


def _reaches(dec: Decomposition, a: int, b: int) -> bool:
    adj: dict[int, list[int]] = {}
    for (p, q) in dec.arcs:
        adj.setdefault(p, []).append(q)
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            return True
        for q in adj.get(v, ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return False


def _gpp_both(sub: Configuration, want: str, trace: CaseTrace) -> Decomposition:
    """(1101,0000) or (1011,0000) for the middle piece of claim 9."""
    df = recognize(sub)
    dr = recognize(full_reverse(sub))
    if df is None and dr is None:
        return _recurse(sub, "M2", trace)
    trace.add("SpecialFamily", f"claim9 {(df or dr).tag}")
    caps = "1101,0000" if want == "1101" else "1011,0000"
    swapped = "1011,0000" if want == "1101" else "1101,0000"
    if df is not None:
        return decompose_special(df, ClauseRequest(caps))
    return decompose_special(dr, ClauseRequest(swapped))


def _claim10(cfg: Configuration, seq: list[int], i: int, j: int,
             trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    wi, wj = seq[i], seq[j]
    wim, wip = seq[i - 1], seq[i + 1]
    wjm, wjp = seq[j - 1], seq[j + 1]
    walk = g.boundary_walk
    run = walk.stretch(wip, wjm)
    gpp_verts = (set(g.vertices())
                 - _fan_interior(g, wim, wi, wip) - _fan_interior(g, wjm, wj, wjp)
                 - set(run))
    piece = extract_piece(g, gpp_verts, outer_parent_edge=(x, y))
    gg = piece.graph
    dpp = piece.lift(_obs_0000(_sub_config(piece, cfg.path), trace))
    gi = int_subgraph(g, walk.stretch(wim, wip) + (wi,))
    gj = int_subgraph(g, walk.stretch(wjm, wjp) + (wj,))
    gicm, gjcm = gi.child_of, gj.child_of
    subi = Configuration(gi.graph, (gicm[wip], gicm[wi], gicm[wim],
                                    gi.graph.boundary_succ(gicm[wim])))
    di = gi.lift(_recurse(subi, "M0", trace)).adjust(drop_arcs=[(wip, wi)])
    subj = Configuration(gj.graph, (gjcm[wjm], gjcm[wj], gjcm[wjp],
                                    gj.graph.boundary_pred(gjcm[wjp])))
    dj = gj.lift(_recurse(subj, "M0", trace)).adjust(drop_arcs=[(wjm, wj)])
    path_arcs = [(run[t + 1], run[t]) for t in range(len(run) - 1)]
    cross: list[Edge] = []
    run_set = set(run)
    for c in gg.boundary_walk.vertices:
        p = piece.parent_of(c)
        for q in g.neighbors(p):
            if q in run_set:
                cross.append((p, q))
    return dpp.union(di, dj).adjust(add_arcs=path_arcs + sorted(set(cross)))


def _fan_interior(g: PlaneGraph, a: int, u: int, b: int) -> set[int]:
    """Vertices strictly inside the fan region Int(B[a,b] + b-u-a) together
    with the open boundary stretch between a and b (everything the fan piece
    owns exclusively)."""
    cyc = g.boundary_walk.stretch(a, b) + (u,)
    inner, _ = cycle_sides(g, cyc)
    return inner | (set(cyc) - {a, u, b})


def _claim11(cfg: Configuration, seq: list[int], i: int, trace: CaseTrace
             ) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    wi = seq[i]
    wim, wip = seq[i - 1], seq[i + 1]
    walk = g.boundary_walk
    run = walk.stretch(z, wim)
    run_set0 = set(run)
    gpp_verts = set(g.vertices()) - _fan_interior(g, wim, wi, wip) - run_set0
    piece = extract_piece(g, gpp_verts, outer_parent_edge=(x, y))
    reserved = {}
    for c in set(piece.graph.boundary_walk.vertices):
        p = piece.parent_of(c)
        k_res = sum(1 for q in g.neighbors(p)
                    if q in run_set0 and (p, q) != (y, z))
        if k_res:
            reserved[p] = k_res
    dpp = _anchored_0000(piece, g, w, x, y, trace, reserved=reserved)
    gi = int_subgraph(g, walk.stretch(wim, wip) + (wi,))
    gicm = gi.child_of
    subi = Configuration(gi.graph, (gicm[wim], gicm[wi], gicm[wip],
                                    gi.graph.boundary_pred(gicm[wip])))
    di = gi.lift(_recurse(subi, "M0", trace)).adjust(drop_arcs=[(wim, wi)])
    path_arcs = [(run[t + 1], run[t]) for t in range(len(run) - 1)]
    path_arcs.append((z, y))
    cross: list[Edge] = []
    run_set = set(run)
    for c in set(piece.graph.boundary_walk.vertices):
        p = piece.parent_of(c)
        for q in g.neighbors(p):
            if q in run_set and (p, q) != (y, z):
                cross.append((p, q))
    return dpp.union(di).adjust(add_arcs=path_arcs + sorted(set(cross)))


def _final_construction(cfg: Configuration, seq: list[int], trace: CaseTrace
                        ) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    w3, w4, w5 = seq[2], seq[3], seq[4]
    w6 = seq[5]
    walk = g.boundary_walk
    g3_inner = _fan_interior(g, z, w3, w4)
    g5_inner = _fan_interior(g, w4, w5, w6)
    gpp_verts = set(g.vertices()) - g3_inner - g5_inner - {w4}
    piece = extract_piece(g, gpp_verts, outer_parent_edge=(x, y))
    gg = piece.graph
    dpp = piece.lift(_obs_0000(_sub_config(piece, cfg.path), trace))
    if (z, w3) in dpp.arcs:
        # z's single permitted out-arc; safe to point it back at z
        dpp = dpp.adjust(drop_arcs=[(z, w3)], add_arcs=[(w3, z)])
    if (w3, z) not in dpp.arcs:
        raise CounterexampleError(cfg, "w3 cannot point at z in the final step")
    # G3 towards (z+ z w3 w4), needs (1011,1000)
    g3 = int_subgraph(g, walk.stretch(z, w4) + (w3,))
    g3cm = g3.child_of
    sub3 = Configuration(g3.graph, (g3cm[_succ_in(walk.vertices, z)], g3cm[z],
                                    g3cm[w3], g3cm[w4]))
    d3r = recognize(sub3)
    if d3r is not None and d3r.in_R():
        trace.add("SpecialFamily", f"final {d3r.tag}")
        d3 = g3.lift(decompose_special(d3r, ClauseRequest("1011,0000")))
    else:
        d3 = g3.lift(_recurse(sub3, "M3", trace))
    g5 = int_subgraph(g, walk.stretch(w4, w6) + (w5,))
    g5cm = g5.child_of
    sub5 = Configuration(g5.graph, (g5.graph.boundary_pred(g5cm[w6]), g5cm[w6],
                                    g5cm[w5], g5cm[w4]))
    d5 = g5.lift(_recurse(sub5, "M0", trace))
    if (w4, w5) not in d5.arcs:
        raise CounterexampleError(cfg, "expected forced arc (w4, w5)")
    d5 = d5.adjust(drop_arcs=[(w4, w5)])
    cross = []
    bset = set(map(piece.parent_of, gg.boundary_walk.vertices))
    for p in g.neighbors(w4):
        if p in bset:
            cross.append((p, w4))
    return dpp.union(d3, d5).adjust(add_arcs=cross)


# ---------------------------------------------------------------------------
# whole-graph wrapper
# ---------------------------------------------------------------------------

def find_boundary_path(g: PlaneGraph) -> tuple[int, int, int, int] | None:
    vs = g.boundary_walk.vertices
    k = len(vs)
    for i in range(k):
        quad = tuple(vs[(i + j) % k] for j in range(4))
        if len(set(quad)) == 4:
            return quad  # type: ignore[return-value]
    return None


def decompose_21(g: PlaneGraph) -> tuple[Decomposition, CaseTrace]:
    """A whole-graph decomposition into an acyclic orientation of maximum
    out-degree two plus a matching; the trace records the case ladder."""
    trace = CaseTrace()
    parts: list[Decomposition] = []
    for piece in component_pieces(g):
        pg = piece.graph
        if pg.m == pg.n - 1:  # a tree: orient towards vertex 1
            trace.add("Tree", f"n={pg.n}")
            parts.append(piece.lift(Decomposition.of(_orient_tree(pg, 1))))
            continue
        quad = find_boundary_path(pg)
        if quad is None:
            raise CounterexampleError(_as_cfg(pg), "no boundary path found")
        cfg = Configuration(pg, quad)
        dec, _ = decompose_config(cfg, "M0", trace)
        dec = dec.adjust(add_arcs=[(quad[1], quad[2])])
        parts.append(piece.lift(dec))
    dec = parts[0].union(*parts[1:]) if parts else Decomposition.of()
    rep = verify_21(g, dec)
    if not rep:
        raise CounterexampleError(_as_cfg(g), f"theorem wrapper: {rep.clause}: {rep.detail}")
    return dec, trace
