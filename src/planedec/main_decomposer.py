"""The recursive decomposition algorithm and the whole-graph wrapper.

``decompose_config`` realises the inductive argument as a case ladder: each
case either reduces the configuration (deleting light interior vertices,
splitting at a cut vertex, a separating small cycle, or a boundary chord),
delegates to the special-family constructions, or enters the two-chord /
greedy-cycle machinery.  Cases are tried in the fixed order of the underlying
argument, and every assembled decomposition is re-verified against the
requested goal before being returned.  Claim 1 is one level: the interior
vertices of degree <= 2 are peeled smallest first, with no graph built per
vertex, the rest is decomposed by one recursive call, and each comes back
as a source of at most two arcs.  Ties are broken lexicographically,
except in Claim 4: among the boundary chords that avoid x and y (each of
which leaves the whole path on one side) it splits along the one that
divides the boundary most evenly, so chains of chords recurse O(log n) deep.

Goals:
    M0  (1001,1001) with both end vertices matched only to boundary vertices
    M1  relaxed (1001,0000); requires a chord of the centre block at x or y
    M2  (1001,0000); requires absence of the four special containments
    M3  (1001,1000); requires absence of an R(xyz)-containment
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Literal, Sequence

from .config_algebra import (P_TAGS, R_TAGS, Configuration, Derivation,
                             full_reverse, recognize, recognize_reversed)
from .decomposition import (ConstraintSpec, Decomposition,
                            MatchedPartnerOnBoundary, _block_outer_edge, und,
                            verify, verify_21)
from .plane_graph import (Edge, Piece, PlaneGraph, PlaneGraphError,
                          component_pieces, extract_piece, int_ext_subgraphs,
                          int_subgraph, light_peel, validate)
from .special_decomposer import ClauseRequest, decompose_special, \
    decompose_p2_shifted
from .tiny_search import tiny_search

Goal = Literal["M0", "M1", "M2", "M3"]


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
    """The case ladder of one top-level call, and its tables of solved and
    of recognized sub-configurations.

    ``solved`` maps the key (rotation, outer edge, path, goal) of a
    configuration, which is stored clockwise, to a verified
    ``Decomposition`` and the entries its subtree appended; only
    ``decompose_config`` reads or writes it (see there).  ``recognized``
    maps (rotation, outer edge, path, reversed) to the ``Derivation``, or
    None, that ``recognize`` gives the configuration, or ``recognize_reversed``
    when reversed is set; only ``_recognize`` reads or writes it.  A
    reversed verdict is stored under the unreflected key, so a hit builds no
    mirror.  Both tables live exactly as long as the trace, so nothing is
    remembered across top-level calls.
    """
    entries: list[tuple[str, str]] = field(default_factory=list)
    solved: dict[tuple, tuple[Decomposition, list[tuple[str, str]]]] = field(
        default_factory=dict, repr=False, compare=False)
    recognized: dict[tuple, Derivation | None] = field(
        default_factory=dict, repr=False, compare=False)

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

def _region(g: PlaneGraph, a: int, b: int, *via: int) -> Piece:
    """Int(B[a, b] + via): the region cut off by the boundary walk from a to
    b and the path back from b to a through via."""
    return int_subgraph(g, g.boundary_walk.stretch(a, b) + via)


def peel_piece(g: PlaneGraph, verts: set[int], cut: int) -> Piece:
    """Extract the piece on verts, which holds cut: a bridge hanging at the
    cut vertex, or a component of a G'' cut out at a vertex next to the
    deleted boundary.

    The piece's outer face is the one opened by the edges removed at cut
    (the region holding the rest of the graph).
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


def _walk_path(walk: Sequence[int], steps: Sequence[int] = ()
               ) -> tuple[int, int, int, int] | None:
    """The first path (p, *steps, ...) of four distinct vertices along a
    closed walk, read forwards or backwards, in which steps are consecutive
    walk steps; with no steps, the first window of the walk read forwards.
    None if there is none.  The places where the steps lie are taken in
    walk order, forwards first."""
    k, n = len(walk), len(steps)
    steps = tuple(steps)
    at = 1 if n else 0  # the path index where the steps start

    def window(i: int) -> tuple[int, ...]:
        return tuple(walk[(i + j) % k] for j in range(4))

    for i in range(k):
        found = tuple(walk[(i + j) % k] for j in range(n))
        if found == steps:
            quad = window(i - at)
        elif n and found == steps[::-1]:
            quad = window(i + n + at - 4)[::-1]
        else:
            continue
        if len(set(quad)) == 4:
            return quad  # type: ignore[return-value]
    return None


def walk_quad(piece: Piece, *steps: int) -> tuple[int, int, int, int]:
    """A boundary path (p, *steps, ...) of four distinct vertices of the
    piece, steps being consecutive steps of its boundary walk read either
    way, in parent ids (``_walk_path``)."""
    tp = piece.to_parent
    quad = _walk_path([tp[c - 1] for c in piece.graph.boundary_walk.vertices], steps)
    if quad is None:
        raise PlaneGraphError(f"no clean boundary path through {steps}")
    return quad


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def decompose_config(cfg: Configuration, goal: Goal,
                     trace: CaseTrace | None = None,
                     ) -> tuple[Decomposition, CaseTrace]:
    """Decompose a configuration for the requested goal (verified output).

    Passing a trace marks an internal recursive call; top-level calls also
    validate the input graph.

    The trace's table ``solved`` holds each sub-configuration this call has
    already solved, keyed by (rotation, outer edge, path, goal); as a
    configuration is stored clockwise, a configuration and its mirror image
    share a key and are dispatched once.  The output depends on nothing
    else: a graph's cached facts, inherited or computed, are the same either
    way, and the blocks are read only edge by edge.  Only a verified result
    is stored, with the trace entries its subtree appended; a call that
    raises stores nothing, so every fallback recomputes.  A hit appends the
    same entries through ``trace.add`` and returns the same object, which
    was verified against this graph, path and goal (and so against the
    graph the caller gave: a reflection keeps every vertex id).
    """
    if trace is None:
        trace = CaseTrace()
        rep = validate(cfg.graph)
        if not rep.ok:
            raise PlaneGraphError(f"invalid configuration graph: {rep.failures}")
    key = (cfg.graph.rotation, cfg.graph.outer, cfg.path, goal)
    hit = trace.solved.get(key)
    if hit is not None:
        for entry in hit[1]:
            trace.add(*entry)
        return hit[0], trace
    start = len(trace.entries)
    dec = _dispatch(cfg, goal, trace)
    rep = verify(cfg.graph, cfg.path, goal_spec(goal, cfg), dec)
    if not rep:
        raise CounterexampleError(
            cfg, f"assembled decomposition violates {goal}: {rep.clause}: {rep.detail}")
    trace.solved[key] = dec, trace.entries[start:]
    return dec, trace


def _recurse(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    dec, _ = decompose_config(cfg, goal, trace)
    return dec


def _sub_config(piece: Piece, path: Sequence[int]) -> Configuration:
    """The piece as a configuration on a path given in parent ids."""
    cm = piece.child_of
    return Configuration(piece.graph, tuple(cm[p] for p in path))


def _solve(piece: Piece, path: Sequence[int], goal: Goal, trace: CaseTrace
           ) -> Decomposition:
    """Decompose a piece on a path given in parent ids, in parent ids: the
    one place where a recursion maps into a piece and back."""
    dec, _ = decompose_config(_sub_config(piece, path), goal, trace)
    return piece.lift(dec)


def _recognize(c: Configuration, trace: CaseTrace, reverse: bool = False
               ) -> Derivation | None:
    """``recognize(c)``, or ``recognize_reversed(c)`` with reverse set, read
    from the call's table when this call has asked it before.  A verdict
    depends only on the key (rotation, outer edge, path), so a hit returns
    what a new recognition would."""
    key = (c.graph.rotation, c.graph.outer, c.path, reverse)
    if key in trace.recognized:
        return trace.recognized[key]
    d = recognize_reversed(c) if reverse else recognize(c)
    trace.recognized[key] = d
    return d


def _centre_chord(piece: Piece, x: int, y: int) -> bool:
    """Whether a chord of the piece's boundary meets x or y (parent ids)."""
    tp = piece.to_parent
    return any(tp[a - 1] in (x, y) or tp[b - 1] in (x, y)
               for a, b in piece.graph.boundary_chords)


Menu = Sequence[tuple[bool, Collection[str], ClauseRequest]]


def _special_or(piece: Piece, sub: Configuration, menu: Menu, goal: Goal,
                label: str, trace: CaseTrace) -> Decomposition:
    """The piece's decomposition in parent ids, sub being the piece as a
    configuration.  The first menu entry (reversed, families, clause) whose
    recognition of sub, read backwards if reversed is set, has a tag in
    families gives that member's construction for the clause, traced under
    the label; with none, the recursion for the goal."""
    for reverse, families, clause in menu:
        d = _recognize(sub, trace, reverse)
        if d is not None and d.tag in families:
            trace.add("SpecialFamily", f"{label} {d.tag}")
            return piece.lift(decompose_special(d, clause))
    return piece.lift(_recurse(sub, goal, trace))


def _either_way(caps: str) -> Menu:
    """The menu of a G~ clause (caps such as 1002,0000) for a chordless
    piece: a member's own construction, else the full reverse's for the
    caps read backwards.  Goal M2, the fallback, gives (1001,0000), within
    any G~ clause."""
    every = (*R_TAGS, "Q", *P_TAGS)
    back = ",".join(half[::-1] for half in caps.split(","))
    return ((False, every, ClauseRequest(caps)), (True, every, ClauseRequest(back)))


def _search(cfg: Configuration, piece: Piece, named: dict[int, int],
            drop: Collection[Edge], label: str, trace: CaseTrace,
            reserved: dict[int, int] | None = None) -> Decomposition:
    """The exhaustive fallback on a piece of cfg's graph, in parent ids.

    A named vertex takes its given out-degree cap and stays unmatched; every
    other vertex takes 1 on cfg's boundary and 2 elsewhere.  ``reserved``
    takes off the budget already committed outside the piece.  The edges
    are the piece's edges but ``drop``, sorted."""
    tp = piece.to_parent
    trace.add("Tiny", f"{label} n={len(tp)}")
    boundary = cfg.graph.boundary_vertices
    reserved = reserved or {}
    out_cap = {p: max(0, named.get(p, 1 if p in boundary else 2)
                      - reserved.get(p, 0)) for p in tp}
    edges = sorted({(tp[a - 1], tp[b - 1]) for a, b in piece.graph.edges}
                   - set(drop))
    dec = tiny_search(edges, out_cap, forbid_match=set(named))
    if dec is None:
        raise CounterexampleError(cfg, f"{label} search failed")
    return dec


def _claim1_peel(g: PlaneGraph, trace: CaseTrace) -> list[tuple[int, int, list[int]]]:
    """Claim 1 to exhaustion: ``light_peel(g)``, each deleted vertex traced
    as ``delete`` its id in the graph left.  No verify is due between two
    deletions: a re-attached vertex is interior, with no in-arc, no matching
    edge and out-degree at most 2 (its degree then), so the verify of the
    rest and the caller's cover it."""
    peeled = light_peel(g)
    for _, rank, _ in peeled:
        trace.add("Claim1", f"delete {rank}")
    return peeled


def _dispatch(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path

    # Claim 1: interior vertices of degree <= 2 are peeled off in one pass,
    # the rest is decomposed once, and each peeled vertex is re-attached by
    # arcs to its neighbours that outlived it
    peeled = _claim1_peel(g, trace)
    if peeled:
        piece = extract_piece(g, set(g.vertices()) - {v for v, _, _ in peeled},
                              outer_parent_edge=g.outer)
        dec = _solve(piece, cfg.path, goal, trace)
        return dec.adjust(add_arcs=[(v, q) for v, _, out in peeled for q in out])

    # Claim 2: cut vertices
    if not g.is_two_connected():
        trace.add("Claim2")
        return _claim2(cfg, goal, trace)

    # Claim 3: separating 4-/5-cycles, then 4-/5-cycle outer boundary
    c0 = g.separating_small_cycle
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
    if g.boundary_chords:
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


def _component(piece: Piece, trace: CaseTrace, *at: int) -> Decomposition:
    """A decomposition of the connected piece, in parent ids, with
    out-degree <= 1 on its outer walk and <= 2 inside.  A tree has every
    arc point towards at[0], or towards its least vertex without at.  Any
    other piece takes M0 on a clean boundary path (p, u, v, q) plus the
    centre arc (u, v), for which M0 leaves u and v no out-arc and no
    matching edge: the first window of its walk read forwards, or, given at,
    (c, b, a, p) for the first clean path (p, a, b, c), a being at[0] and
    b at[1] when given, so that a gains no out-arc."""
    pg = piece.graph
    if pg.m == pg.n - 1:
        trace.add("Tree", f"n={pg.n}")
        root = piece.child_of[at[0]] if at else 1
        return piece.lift(Decomposition.of(_orient_tree(pg, root)))
    quad = walk_quad(piece, *at)[::-1] if at else walk_quad(piece)
    return _solve(piece, quad, "M0", trace).adjust(add_arcs=[quad[1:3]])


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
        hp = extract_piece(k, hv, outer_parent_edge=_block_outer_edge(k, hv))
        hdec = _solve(hp, walk_quad(hp, ca, cb), "M0", trace)
    parts, arcs = _bridges(k, hv, {}, trace)
    return piece.lift(hdec.union(*parts).adjust(add_arcs=arcs))


def _bridges(g: PlaneGraph, hverts: frozenset[int], ends: dict[int, int],
             trace: CaseTrace) -> tuple[list[Decomposition], list[Edge]]:
    """Every bridge of the block H on hverts, peeled at its attachment u and
    decomposed by ``_bridge_piece_dec`` without an edge u-v, and the arcs
    (v, u) that cover those edges.  v is the key of ends that the bridge
    holds, which must attach at the key's value; with none, v is u's
    successor on the bridge's boundary walk."""
    parts: list[Decomposition] = []
    arcs: list[Edge] = []
    for (u, kv) in _bridges_of_block(g, hverts):
        bridge = peel_piece(g, kv, u)
        v = next((e for e in ends if e in kv and e != u), None)
        if v is None:
            walk = bridge.graph.boundary_walk.vertices
            i = walk.index(bridge.child_of[u])
            v = bridge.parent_of(walk[(i + 1) % len(walk)])
        else:
            assert u == ends[v], f"the bridge holding {v} must attach at {ends[v]}"
        parts.append(_bridge_piece_dec(bridge, u, v, trace))
        arcs.append((v, u))
    return parts, arcs


def _claim2(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    hverts = g.block_decomposition.block_of_edge(x, y)
    bridge_parts, bridge_arcs = _bridges(g, hverts, {w: x, z: y}, trace)

    w_in = w in hverts
    z_in = z in hverts
    if len(hverts) == 2:
        hdec = Decomposition.of()
    else:
        hp = extract_piece(g, hverts, outer_parent_edge=(x, y))
        hgoal: Goal = goal
        if w_in and z_in:
            quad = cfg.path
        elif not w_in and z_in and goal == "M3":
            # w hangs off x; the whole path's tail sits in H, and the
            # precondition (no R(xyz)-containment) transfers to H
            quad = (hp.pred(x), x, y, z)
        elif not w_in and z_in:
            # mirror: swap the roles of (w, x) and (z, y)
            return _claim2(full_reverse(cfg), goal, trace)
        elif w_in and goal == "M2":
            # z hangs off y: (H, y+ y x w) with goal M3 makes w unmatched too
            quad = (hp.succ(y), y, x, w)
            hgoal = "M3"
        else:
            # neither end in H, or z hanging off y under M0, M1 or M3 (the
            # M0-style assembly already leaves z unmatched with one arc)
            quad = (hp.pred(x), x, y, hp.succ(y))
            hgoal = "M1" if goal == "M1" else "M0"
        hdec = _solve(hp, quad, hgoal, trace)
    return hdec.union(*bridge_parts).adjust(add_arcs=bridge_arcs)


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
    ip, ep = int_ext_subgraphs(g, c0)
    d0 = _solve(ep, cfg.path, goal, trace)
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


# A triangle-free graph has no chord of a 4- or 5-cycle, so Int(C0) minus a
# cycle vertex is the subgraph its vertices induce in g: the extensions below
# extract G' straight from g, and read v's interior neighbours off g.

def _int_minus(g: PlaneGraph, ip: Piece, v: int, a: int, b: int) -> Piece:
    """Int(C0) - v as a piece of g, its outer edge the step of C0 between
    a and b in Int(C0)'s walk direction."""
    oe = (a, b) if ip.succ(a) == b else (b, a)
    return extract_piece(g, set(ip.to_parent) - {v}, outer_parent_edge=oe)


def _interior_arcs(g: PlaneGraph, ip: Piece, v: int, ends: tuple[int, int]
                   ) -> list[Edge]:
    """An arc into v from each neighbour of v inside C0 but the cycle's."""
    inside = set(ip.to_parent)
    return [(q, v) for q in g.neighbors(v) if q in inside and q not in ends]


def _free_ends(dec: Decomposition, *ends: int) -> Decomposition:
    """Turn the matching edge at each end, if any, into an arc into it."""
    for end in ends:
        partner = dec.matched_partner(end)
        if partner is not None:
            dec = dec.adjust(add_arcs=[(partner, end)],
                             drop_matching=[(partner, end)])
    return dec


def _extend_into_c4(g: PlaneGraph, ip: Piece, d0: Decomposition,
                    lab: tuple[int, int, int, int], trace: CaseTrace
                    ) -> Decomposition:
    """Extend (D0, M0) of Ext(C0) through a separating 4-cycle: delete v3,
    decompose the rest towards (v4- v4 v1 v2), free v2's matching partner,
    re-add v3 as a sink for its interior neighbours."""
    v1, v2, v3, v4 = lab
    gp = _int_minus(g, ip, v3, v4, v1)
    dprime = _solve(gp, walk_quad(gp, v4, v1, v2), "M0", trace)
    dprime = _free_ends(dprime, v2)
    return d0.union(dprime).adjust(add_arcs=_interior_arcs(g, ip, v3, (v2, v4)))


def _extend_into_c5(g: PlaneGraph, ip: Piece, d0: Decomposition,
                    lab: tuple[int, ...], trace: CaseTrace) -> Decomposition:
    v1, v2, v3, v4, v5 = lab
    gp = _int_minus(g, ip, v5, v1, v2)
    dprime = _free_ends(_solve(gp, (v1, v2, v3, v4), "M0", trace), v1, v4)
    if (v4, v3) not in dprime.arcs:
        raise CounterexampleError(
            _as_cfg(g),
            f"expected forced arc (v4, v3) in the separating C5 extension {lab}")
    dprime = dprime.adjust(drop_arcs=[(v4, v3)])
    return d0.union(dprime).adjust(add_arcs=_interior_arcs(g, ip, v5, (v1, v4)))


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
    piece = extract_piece(g, set(g.vertices()) - {w}, outer_parent_edge=(x, y))
    dprime = _solve(piece, (piece.pred(x), x, y, z), "M0", trace)
    dprime = _free_ends(dprime, z)
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
    piece = extract_piece(g, set(g.vertices()) - {a}, outer_parent_edge=(w, x))
    dprime = _free_ends(_solve(piece, cfg.path, "M0", trace), w, z)
    dprime = dprime.adjust(drop_arcs=[(z, y), (y, z)])
    extra = [(q, a) for q in g.neighbors(a) if q not in (z, w)]
    return dprime.adjust(add_arcs=[(a, z), (z, y)] + extra, add_matching=[(a, w)])


# ---------------------------------------------------------------------------
# Claim 4: boundary chords
# ---------------------------------------------------------------------------

def _chord_sides(g: PlaneGraph, u: int, v: int) -> tuple[Piece, Piece]:
    """Pieces of the chord split: (side containing the walk stretch v..u,
    side containing the stretch u..v)."""
    return _region(g, v, u), _region(g, u, v)


def _balanced_chord(g: PlaneGraph, candidates: Sequence[Edge]) -> Edge:
    """The chord that splits the boundary most evenly: the largest
    min(d, k - d), where d is the walk distance between its ends; ties go
    to the first chord in the given (sorted) order."""
    pos = g.boundary_walk.position
    k = len(g.boundary_walk)

    def shorter_side(e: Edge) -> int:
        d = abs(pos[e[0]] - pos[e[1]])
        return min(d, k - d)

    return max(candidates, key=shorter_side)


def _claim4(cfg: Configuration, goal: Goal, trace: CaseTrace) -> Decomposition:
    """Split along a boundary chord and recurse on both sides.

    Any chord avoiding x and y will do: its ends cut the boundary cycle
    into two arcs, x and y lie inside one of them, and w and z lie on that
    arc or are the chord's ends, so the whole path w-x-y-z stays on one
    side and keeps the goal there; the other side takes M0 along the
    chord.  Among those chords the most balanced one is taken
    (``_balanced_chord``), so a chain of chords, as in a 2 x L ladder,
    recurses O(log n) deep instead of once per chord.  When every chord
    meets {x, y}, case 2 handles the chord at the centre.
    """
    g = cfg.graph
    w, x, y, z = cfg.path
    ch = sorted(g.boundary_chords)
    avoid = [e for e in ch if not set(e) & {x, y}]
    if avoid:
        u, v = _balanced_chord(g, avoid)
        # side containing the centre edge keeps the whole path
        sides = _chord_sides(g, u, v)
        for (a, b), (side_with_path, other) in (((u, v), sides),
                                                 ((v, u), sides[::-1])):
            if all(p in side_with_path.child_of for p in cfg.path):
                break
        else:
            raise CounterexampleError(cfg, "chord split lost the path")
        d1 = _solve(side_with_path, cfg.path, goal, trace)
        d2 = _solve(other, walk_quad(other, a, b), "M0", trace)
        return d1.union(d2)
    # every chord meets {x, y}
    return _claim4_case2(cfg, goal, trace)


def _y_chord_pieces(cfg: Configuration) -> tuple[Piece, Piece, int] | None:
    """For the innermost chord y-t towards z: (far piece G1 with path
    (w,x,y,t), near piece G2 with the z-side, t), or None without a chord
    at y."""
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
    if goal == "M3":
        return _case2_m3(cfg, trace)
    pieces = _y_chord_pieces(cfg)
    if pieces is None:
        return _claim4_case2(full_reverse(cfg), goal, trace)
    if goal == "M0":
        return _case2_m0(cfg, pieces, trace)
    dec = _case2_m1(cfg, pieces, trace)
    if goal == "M1":
        return dec
    # goal M2 on a chorded boundary: the precondition cannot be evaluated
    # here; the relaxed construction is attempted and accepted only if no
    # exempt vertex actually uses the second out-arc.
    rep = verify(g, cfg.path, goal_spec("M2", cfg), dec)
    if rep:
        return dec
    raise PreconditionError("M2", "chord at the centre; relaxed construction "
                                  f"needs the exemption ({rep.detail})")


def _case2_m0(cfg: Configuration, pieces: tuple[Piece, Piece, int],
              trace: CaseTrace) -> Decomposition:
    """Chord-centred split: both sides take their (1001,1001)-decomposition."""
    w, x, y, z = cfg.path
    g1p, g2p, t = pieces
    d1 = _solve(g1p, (w, x, y, t), "M0", trace)
    d2 = _solve(g2p, walk_quad(g2p, t, y), "M0", trace)
    return d1.union(d2)


def _case2_m1(cfg: Configuration, pieces: tuple[Piece, Piece, int],
              trace: CaseTrace) -> Decomposition:
    """Relaxed (1001,0000): the z-side takes (v, y, z, z+) so the far side may
    give the chord neighbour out-degree two."""
    g = cfg.graph
    w, x, y, z = cfg.path
    g1p, g2p, t = pieces
    d2 = _solve(g2p, (t, y, z, g.boundary_succ(z)), "M0", trace)
    if _centre_chord(g1p, x, y):
        d1 = _solve(g1p, (w, x, y, t), "M1", trace)
    else:
        d1 = _special_or(g1p, _sub_config(g1p, (w, x, y, t)),
                         _either_way("1002,0000"), "M2", "claim4", trace)
    return d1.union(d2).adjust(add_arcs=[(z, y)])


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
        d1 = _solve(zp_, (t, x, y, z), "M3", trace)
        d2 = _solve(wp_, walk_quad(wp_, x, t), "M0", trace)
        return d1.union(d2)
    pieces = _y_chord_pieces(cfg)
    if pieces is None:
        raise CounterexampleError(cfg, "claim 4 reached without chords at x or y")
    g1p, g2p, t = pieces
    sub2 = _sub_config(g2p, (g2p.pred(t), t, y, z))
    d2r = _recognize(sub2, trace)
    if d2r is None or not d2r.in_R():
        d2 = g2p.lift(_recurse(sub2, "M3", trace))
        d1 = _solve(g1p, (w, x, y, t), "M0", trace)
        return d1.union(d2)
    # the z side is an R-configuration: take its (1001,1100)-decomposition
    trace.add("SpecialFamily", f"claim4-M3 {d2r.tag}")
    d2 = g2p.lift(decompose_special(d2r, ClauseRequest("1001,1100")))
    d1r = _recognize(_sub_config(g1p, (t, y, x, w)), trace)
    if d1r is not None and d1r.tag in ("R2", "P1", "P2", "P3"):
        d1 = g1p.lift(decompose_special(d1r, ClauseRequest("1001,0001", "zz+")))
        return d1.union(d2)
    # fall back: far side unmatched at t via M2/M1-style production
    return _solve(g1p, (w, x, y, t), "M2", trace).union(d2)


# ---------------------------------------------------------------------------
# Claim 5: special containments
# ---------------------------------------------------------------------------

def _claim5(cfg: Configuration, goal: Goal, trace: CaseTrace
            ) -> Decomposition | None:
    g = cfg.graph
    df = _recognize(cfg, trace)
    dr = _recognize(cfg, trace, reverse=True)
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
    tch = g.boundary_two_chords
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
        return _claim_xuz(full_reverse(cfg), wuy[0], trace)
    at_y = sorted(m for (a, m, b) in tch if y in (a, b))
    if at_y:
        trace.add("Claim7")
        return _claim7(cfg, trace)
    at_x = sorted(m for (a, m, b) in tch if x in (a, b))
    if at_x:
        trace.add("Claim7", "mirrored")
        return _claim7(full_reverse(cfg), trace)
    return None


def _fan(g: PlaneGraph, u: int, start: int) -> list[int]:
    """u's boundary neighbours in walk order starting at start."""
    walk = g.boundary_walk
    k = len(walk)
    pos = walk.position
    nbrs = [q for q in g.neighbors(u) if q in pos]
    return sorted(nbrs, key=lambda q: (pos[q] - pos[start]) % k)


def _first_non_r(g: PlaneGraph, u: int, fan: list[int], trace: CaseTrace
                 ) -> tuple[int, Piece, Configuration] | None:
    """The first fan piece Int(B[x_i, x_i+1] + u) whose configuration
    (x_i+, x_i, u, x_i+1) is not an R member: (i, piece, configuration)."""
    for i in range(len(fan) - 1):
        piece = _region(g, fan[i], fan[i + 1], u)
        sub = _sub_config(piece, (g.boundary_succ(fan[i]), fan[i], u, fan[i + 1]))
        d = _recognize(sub, trace)
        if d is None or not d.in_R():
            return i, piece, sub
    return None


def _claim6(cfg: Configuration, u: int, trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    if not (g.degree(x) == 2 and g.degree(y) == 2):
        raise CounterexampleError(cfg, "claim 6 with busy centre vertices")
    fan = _fan(g, u, z)
    assert fan[0] == z and fan[-1] == w, "wuz fan must run from z to w"
    found = _first_non_r(g, u, fan, trace)
    if found is None:
        raise CounterexampleError(cfg, "every wuz fan piece is an R-configuration")
    i, piece, sub = found
    xi, xi1 = fan[i], fan[i + 1]
    d_i = piece.lift(_recurse(sub, "M3", trace))
    if xi1 == w:
        # no left part: the added arc (u, w) takes over the edge u-w,
        # freeing w's budget for (w, x)
        parts = [_drop_edge_coverage(d_i, und(u, w))]
    else:
        lp = _region(g, xi1, w, u)
        parts = [d_i, _solve(lp, (lp.pred(w), w, u, xi1), "M0", trace)]
    if xi != z:
        rp = _region(g, z, xi, u)
        parts.append(_solve(rp, (xi, u, z, rp.succ(z)), "M0", trace))
    dec = parts[0].union(*parts[1:])
    return dec.adjust(add_arcs=[(u, w), (w, x), (u, z), (z, y)])


def _claim7(cfg: Configuration, trace: CaseTrace) -> Decomposition:
    """2-chord at y (the mirrored call handles x)."""
    g = cfg.graph
    w, x, y, z = cfg.path
    mids = sorted({m for (a, m, b) in g.boundary_two_chords if y in (a, b)})
    walk = g.boundary_walk

    # sub-case A across all 2-chord middles: some bottom fan piece is not R
    fans = {}
    for u in mids:
        fan = _fan(g, u, y)
        assert fan[0] == y
        fans[u] = fan
        found = _first_non_r(g, u, fan, trace)
        if found is not None:
            return _claim7_split(cfg, u, fan, found, trace)
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


def _claim7_split(cfg: Configuration, u: int, fan: list[int],
                  found: tuple[int, Piece, Configuration], trace: CaseTrace
                  ) -> Decomposition:
    """Sub-case A at the fan piece that ``_first_non_r`` found."""
    g = cfg.graph
    w, x, y, z = cfg.path
    i, piece, sub = found
    xi, xi1, xr = fan[i], fan[i + 1], fan[-1]
    # at y the piece holds z as its first path vertex, which must stay
    # unmatched and point only at the second (the goal's z-side caps)
    g0: Menu = ((False, P_TAGS, ClauseRequest("1001,0001", "zz+")),
                (True, R_TAGS, ClauseRequest("1001,1100")),
                (True, P_TAGS, ClauseRequest("1001,1000", "w-w")))
    parts = [_special_or(piece, sub, g0 if xi == y else (),
                         "M2" if xi == y else "M3", "claim7 g0", trace)]
    if xi1 != xr:
        lp = _region(g, xi1, xr, u)
        parts.append(_solve(lp, (xi1, u, xr, lp.pred(xr)), "M0", trace))
    if xi != y:
        rp = _region(g, y, xi, u)
        parts.append(_solve(rp, (u, y, z, rp.succ(z)), "M0", trace))
    # top piece: (1002,0000) by the chord-free case analysis
    tp = _region(g, xr, y, u)
    dt = _special_or(tp, _sub_config(tp, (w, x, y, u)), _either_way("1002,0000"),
                     "M2", "claim7 top", trace)
    rest = parts[0].union(*parts[1:]).adjust(add_arcs=[(z, y)])
    # with no left part both the fan piece and the top cover u-x_r
    return _glue(cfg, [(dt, rest)], und(u, xr) if xi1 == xr else None, trace)


def _claim_xuz(cfg: Configuration, u: int, trace: CaseTrace) -> Decomposition:
    """A 2-chord x-u-z: x, y, z, u bound a 4-face with y of degree two.

    Decompose g minus y on the path (w, x, u, z), flip the forced arc into u,
    and point z at y; if the reduced graph has a chord or holds a special
    pattern (so the plain goal is unavailable there), fall back to
    ``_search`` on the reduced graph under the exact final caps.  The search
    is exhaustive but pruned, so on 3 x L ladders it stays linear.
    """
    g = cfg.graph
    w, x, y, z = cfg.path
    if not (g.degree(y) == 2 and set(g.neighbors(y)) == {x, z}):
        raise CounterexampleError(cfg, "x-z two-chord without the 4-face")
    keep = set(g.vertices()) - {y}
    piece = extract_piece(g, keep, outer_parent_edge=(w, x))
    gg = piece.graph
    sub = _sub_config(piece, (w, x, u, z))
    if not gg.boundary_chords:
        if (_recognize(sub, trace) is None
                and _recognize(sub, trace, reverse=True) is None):
            dprime = piece.lift(_recurse(sub, "M2", trace))
            if (z, u) not in dprime.arcs:
                raise CounterexampleError(cfg, "missing forced arc (z, u)")
            return dprime.adjust(drop_arcs=[(z, u)],
                                 add_arcs=[(u, z), (u, x), (z, y)])
    # a special pattern blocks the plain sub-goal: solve the reduced graph
    # directly under the final caps (z's budget is reserved for (z, y))
    dec = _search(cfg, piece, {w: 1, x: 0, z: 0}, (), "x-z two-chord", trace)
    return dec.adjust(add_arcs=[(z, y)])


def _claim7_p2_shifted(cfg: Configuration, u: int, trace: CaseTrace
                       ) -> Decomposition:
    """|C_r| = 5: the configuration (g, y x w w-) is a P2 member and the
    shifted construction decomposes (g, w- w x y) = reversed (y x w w-)."""
    g = cfg.graph
    w, x, y, z = cfg.path
    wm = g.boundary_pred(w)
    # (y, x, w, w-) read in the mirror: (w-, w, x, y) reversed
    d = _recognize(Configuration(g, (wm, w, x, y)), trace, reverse=True)
    if d is None or d.tag != "P2":
        raise CounterexampleError(cfg, "expected a P2 member in claim 7")
    return decompose_p2_shifted(d)


def _claim7_top(cfg: Configuration, u: int, fan: list[int], trace: CaseTrace
                ) -> Decomposition:
    """|C_r| >= 6: bottom fan is a Q member; the top needs (1001,0001)."""
    g = cfg.graph
    w, x, y, z = cfg.path
    xr = fan[-1]
    # bottom: the whole fan region on the path (z, y, u, x_r): a chain of the
    # R pieces, so a Q member for r >= 2 and an R member for r = 1
    wp = _region(g, y, xr, u)
    qd = _recognize(_sub_config(wp, (g.boundary_succ(y), y, u, xr)), trace)
    if qd is None or qd.in_P():
        raise CounterexampleError(cfg, "fan union is not an R/Q member")
    if qd.in_Q():
        w_clauses = [ClauseRequest("1011,0000", "(z,y)")]
    else:
        w_clauses = [ClauseRequest("1001,0011", "yz"), ClauseRequest("1011,0000")]
    # top piece
    tp = _region(g, xr, y, u)
    dt = _special_or(tp, _sub_config(tp, (w, x, y, u)),
                     ((False, ("R2", "P2", "P3"), ClauseRequest("1001,0001", "zz+")),),
                     "M2", "claim7", trace)
    pairs = ((dt, wp.lift(decompose_special(qd, wcl))) for wcl in w_clauses)
    return _glue(cfg, pairs, und(u, xr), trace)


# Each of M0, M2 and M3, read in either path direction, implies (1001,1001)
# with no side condition, and M1 never reaches Claim 7 (Claim 5 refuses it):
# an assembly that fails this spec fails every goal.
_ANY_GOAL = ConstraintSpec.parse("1001,1001")


def _glue(cfg: Configuration, pairs: Iterable[tuple[Decomposition, Decomposition]],
          shared: Edge | None, trace: CaseTrace) -> Decomposition:
    """The first assembly of a pair (a, b) of part decompositions, in order,
    that verifies; the exhaustive (1001,0000)-search when none does.

    Parts that share no edge have the one candidate a + b, checked against
    ``_ANY_GOAL``.  Parts that both cover the edge ``shared`` have two, a's
    cover kept and then b's, checked against M2, which implies every goal;
    whichever cover survives must respect its tail's budget."""
    g = cfg.graph
    spec = _ANY_GOAL if shared is None else goal_spec("M2", cfg)
    for a, b in pairs:
        cands = ((a.union(b),) if shared is None else
                 (_dedup_shared_edge(a, b, shared), _dedup_shared_edge(b, a, shared)))
        for dec in cands:
            if dec is not None and verify(g, cfg.path, spec, dec):
                return dec
    w, x, y, z = cfg.path
    return _search(cfg, Piece(g, tuple(g.vertices())), {w: 1, x: 0, y: 0, z: 1},
                   {und(x, y)}, "claim7 patch", trace)


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
    tch = sorted(g.boundary_two_chords)
    seq = [y]
    cur = y
    while cur != x:
        best = None
        to_x = (pos[x] - pos[cur]) % k
        for (a, m, b) in tch:
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
    chord = _cstar_chord(g, seq, interior_ws)
    if chord is not None:
        trace.add("Claim9")
        return _claim9(cfg, seq, *chord, trace)
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
        mirror = full_reverse(cfg)
        mseq = build_cstar(mirror)
        mfirst = next(i for i, p in enumerate(mseq) if p not in boundary)
        return _claim11(mirror, mseq, mfirst, trace)
    trace.add("Final")
    return _final_construction(cfg, seq, trace)


def _cstar_chord(g: PlaneGraph, seq: list[int], interior: list[int]
                 ) -> tuple[int, int] | None:
    """Claim 9's chord of C* = seq: the positions (i, j), j >= i + 2, of two
    adjacent interior milestones, the least i first and then the least j;
    None if there is none.  Each interior milestone's neighbours are looked
    up in a map from interior milestone to its positions, so no pair of
    positions is tried.  (seq[0] = y lies on the boundary, so the pair of
    C*'s first and last position, one edge of C*, is never a candidate.)"""
    at: dict[int, list[int]] = {}
    for j in interior:
        at.setdefault(seq[j], []).append(j)
    for i in interior:
        js = [j for q in g.neighbors(seq[i]) for j in at.get(q, ()) if j >= i + 2]
        if js:
            return i, min(js)
    return None


def _g_double_prime(cfg: Configuration, piece: Piece, label: str, trace: CaseTrace,
                    xy_step: Callable[[Piece, tuple], Decomposition]) -> Decomposition:
    """The G'' of Claims 8-11 and the final step on cfg, a piece of cfg's
    graph g: a decomposition of it minus the edge x-y in parent ids, to
    which the caller adds the cross arcs into the deleted set.  The x-y
    component (cut out with outer edge (x, y) when the piece falls apart)
    is ``_dangling`` when x or y is pendant in it, and otherwise takes
    ``xy_step`` on its clean walk path (w', x, y, t): w' is not y and t is
    not x as neither is pendant, and w' is not t as g has no triangle.
    Every other component is cut out at its least vertex next to the
    deleted set, so that its outer face holds that set, and takes
    ``_component``.

    The caps hold by construction; check them claim by claim.  Cross arcs
    leave only vertices inside g, at most one each, from the outer walk of
    their component, whose out-degree <= 1 they lift to <= 2: they end on
    g's boundary in Claim 8, where g has no 2-chord, on a boundary run that
    C* walks step by step in Claims 10 and 11, and on w4 in the final
    step, so no vertex has two neighbours there (the run has no 2-chord)
    and a boundary vertex none but along a walk edge, which the caller
    covers (g has no chord); the deleted set lies in the outer face.  Every
    boundary vertex of cfg in the piece lies in the x-y component, where
    the goal's caps hold, z's among them: they form one stretch of g's walk
    through x and y (Claim 9's Int(C) is connected and has no cross arc).
    So the other components are interior.  Cross arcs end on the deleted
    set, whose arcs the caller leads away, and chains lead only to sinks,
    so no cycle forms.  A missing walk path is a bug, not a counterexample,
    and raises ``DecomposeError``."""
    g = cfg.graph
    x, y = cfg.path[1:3]
    comps = piece.graph.components
    if len(comps) == 1:
        xy, others = piece, []
    else:
        tp = piece.to_parent
        sets = [{tp[c - 1] for c in comp} for comp in comps]
        xy = extract_piece(g, next(k for k in sets if x in k), outer_parent_edge=(x, y))
        others = [k for k in sets if x not in k]
    dec = _dangling(g, xy, cfg.path, label, trace)
    if dec is None:
        try:
            quad = walk_quad(xy, x, y)
        except PlaneGraphError as exc:
            raise DecomposeError(f"{label}: {exc}") from exc
        dec = xy_step(xy, quad)
    kept = piece.child_of
    for k in others:
        trace.add(label, f"component n={len(k)}")
        v = min(p for p in k if any(q not in kept for q in g.neighbors(p)))
        dec = dec.union(_component(peel_piece(g, k, v), trace))
    return dec


def _dangling(g: PlaneGraph, xy: Piece, path: Sequence[int], label: str,
              trace: CaseTrace) -> Decomposition | None:
    """The dangling chain of the x-y component of a G'', path being
    (w, x, y, z), in parent ids; None when neither x nor y is a pendant
    vertex of it.  The pendant end goes first: its one edge is x-y, which
    the goal leaves out.  While the vertex a just reached is pendant in
    what is left, it goes too, with the arc from its neighbour into it,
    which becomes a.  A vertex with no neighbour left ends the chain with
    nothing left: the lone edge gives the empty decomposition.  Otherwise
    the rest takes ``_component`` at a, so a gains no out-arc but the one
    into the chain, and the rest's walk, which faces the deleted set,
    keeps out-degree <= 1; at x with w left (y pendant in Claim 11) it is
    at (x, w), so w and x stay unmatched and only (w, x) leaves either."""
    w, x, y, _ = path
    if len(xy.graph.neighbors(xy.child_of[x])) == 1:
        a = y
    elif len(xy.graph.neighbors(xy.child_of[y])) == 1:
        a = x
    else:
        return None
    left = set(xy.to_parent) - {x, y} | {a}
    arcs = []
    while len(nb := [q for q in g.neighbors(a) if q in left]) <= 1:
        left.discard(a)
        if not nb:
            break
        arcs.append((nb[0], a))
        a = nb[0]
    trace.add(label, f"dangling {len(xy.to_parent) - len(left)}")
    chain = Decomposition.of(arcs)
    if not left:
        return chain
    at = (a, w) if a == x and w in left else (a,)
    return _component(peel_piece(g, left, a), trace, *at).union(chain)


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
    dprime = _g_double_prime(cfg, piece, "Claim8", trace,
                             lambda xy, quad: _solve(xy, quad, "M0", trace))
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
    cross = [a for a in _arcs_into(g, piece, g.boundary_vertices)
             if a[0] not in (x, y)]
    return dprime.adjust(add_arcs=arcs + cross, add_matching=[(u_, v_)])


def _obs_0000(cfg: Configuration, piece: Piece, cross: Iterable[Edge],
              label: str, trace: CaseTrace) -> Decomposition:
    """(1001,0000) for the G'' of Claim 9, 10 or 11 or the final step on
    cfg (``_g_double_prime``): the recursion on the x-y component's walk
    path, relaxed iff the centre has chords (the obs-0000 route).  Only a
    failed precondition (a special containment) hands it to a search under
    the final caps, z's among them, with the cross arcs' budget reserved and
    the failure's tag traced, also when a level below finds it (in the
    block of Claim 2 or a side of Claim 4).  Every other error propagates."""
    w, x, y, z = cfg.path

    def xy_step(xy: Piece, quad: tuple[int, ...]) -> Decomposition:
        goal: Goal = "M1" if _centre_chord(xy, x, y) else "M2"
        try:
            return _solve(xy, quad, goal, trace)
        except PreconditionError as exc:
            # the witness's family tag, else the goal that failed
            cause = getattr(exc.witness, "tag", exc.goal)
        return _search(cfg, xy, {w: 1, x: 0, y: 0, z: 1}, {und(x, y)},
                       f"anchored-0000 {cause}", trace,
                       reserved=Counter(p for p, _ in cross))

    return _g_double_prime(cfg, piece, label, trace, xy_step)


def _milestone_fans(gi: Piece, gj: Piece, seq: list[int], i: int, j: int,
                    trace: CaseTrace) -> tuple[Decomposition, Decomposition]:
    """The fan pieces G_i = Int(B[w_i-, w_i+] + w_i) and G_j of Claims 9
    and 10, each under M0 from its milestone's side, less the arcs
    (w_i+, w_i) and (w_j-, w_j), whose edges the rest of C* covers."""
    wim, wi, wip = seq[i - 1:i + 2]
    wjm, wj, wjp = seq[j - 1:j + 2]
    di = _solve(gi, (wip, wi, wim, gi.succ(wim)), "M0", trace)
    dj = _solve(gj, (wjm, wj, wjp, gj.pred(wjp)), "M0", trace)
    return di.adjust(drop_arcs=[(wip, wi)]), dj.adjust(drop_arcs=[(wjm, wj)])


def _claim9(cfg: Configuration, seq: list[int], i: int, j: int,
            trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    wi, wj = seq[i], seq[j]
    wim, wip = seq[i - 1], seq[i + 1]
    wjm, wjp = seq[j - 1], seq[j + 1]
    gp = _region(g, wjp, wim, wi, wj)
    g2 = _region(g, wip, wjm, wj, wi)
    dprime = _obs_0000(cfg, gp, (), "Claim9", trace)
    di, dj = _milestone_fans(_region(g, wim, wip, wi), _region(g, wjm, wjp, wj),
                             seq, i, j, trace)
    # directed-path dichotomy on G''; it covers either orientation of the
    # chord wi-wj in D', so wi and wj keep their names
    caps = "1011,0000" if _reaches(dprime, wi, wj) else "1101,0000"
    d2 = _special_or(g2, _sub_config(g2, (wjm, wj, wi, wip)), _either_way(caps),
                     "M2", "claim9", trace)
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


def _claim10(cfg: Configuration, seq: list[int], i: int, j: int,
             trace: CaseTrace) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    wi, wj = seq[i], seq[j]
    wim, wip = seq[i - 1], seq[i + 1]
    wjm, wjp = seq[j - 1], seq[j + 1]
    gi, gj = _region(g, wim, wip, wi), _region(g, wjm, wjp, wj)
    run = g.boundary_walk.stretch(wip, wjm)
    # G'' is what neither fan piece owns beyond its corners, less the run
    owned = (set(gi.to_parent) - {wim, wi, wip}) | (set(gj.to_parent) - {wjm, wj, wjp})
    piece = extract_piece(g, set(g.vertices()) - owned - set(run),
                          outer_parent_edge=(x, y))
    cross = _arcs_into(g, piece, set(run))
    dpp = _obs_0000(cfg, piece, cross, "Claim10", trace)
    di, dj = _milestone_fans(gi, gj, seq, i, j, trace)
    path_arcs = [(run[t + 1], run[t]) for t in range(len(run) - 1)]
    return dpp.union(di, dj).adjust(add_arcs=path_arcs + cross)


def _arcs_into(g: PlaneGraph, piece: Piece, targets: Collection[int]
               ) -> list[Edge]:
    """The arcs (p, q), sorted, for every edge of g from a vertex p of the
    piece to a vertex q in targets.  Every vertex is read: a source lies on
    the outer walk of its own component (``_g_double_prime``), which is
    off the piece's walk when the piece falls apart."""
    return sorted((p, q) for p in piece.to_parent for q in g.neighbors(p)
                  if q in targets)


def _claim11(cfg: Configuration, seq: list[int], i: int, trace: CaseTrace
             ) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    wi = seq[i]
    wim, wip = seq[i - 1], seq[i + 1]
    gi = _region(g, wim, wip, wi)
    run = g.boundary_walk.stretch(z, wim)
    run_set0 = set(run)
    gpp_verts = set(g.vertices()) - (set(gi.to_parent) - {wim, wi, wip}) - run_set0
    piece = extract_piece(g, gpp_verts, outer_parent_edge=(x, y))
    cross = [a for a in _arcs_into(g, piece, run_set0) if a != (y, z)]
    dpp = _obs_0000(cfg, piece, cross, "Claim11", trace)
    di = _solve(gi, (wim, wi, wip, gi.pred(wip)), "M0", trace)
    di = di.adjust(drop_arcs=[(wim, wi)])
    path_arcs = [(run[t + 1], run[t]) for t in range(len(run) - 1)]
    path_arcs.append((z, y))
    return dpp.union(di).adjust(add_arcs=path_arcs + cross)


def _final_construction(cfg: Configuration, seq: list[int], trace: CaseTrace
                        ) -> Decomposition:
    g = cfg.graph
    w, x, y, z = cfg.path
    w3, w4, w5 = seq[2], seq[3], seq[4]
    w6 = seq[5]
    g3, g5 = _region(g, z, w4, w3), _region(g, w4, w6, w5)
    owned = (set(g3.to_parent) - {z, w3, w4}) | (set(g5.to_parent) - {w4, w5, w6})
    piece = extract_piece(g, set(g.vertices()) - owned - {w4},
                          outer_parent_edge=(x, y))
    cross = _arcs_into(g, piece, {w4})
    dpp = _obs_0000(cfg, piece, cross, "Final", trace)
    if (z, w3) in dpp.arcs:
        # z's single permitted out-arc; safe to point it back at z
        dpp = dpp.adjust(drop_arcs=[(z, w3)], add_arcs=[(w3, z)])
    if (w3, z) not in dpp.arcs:
        raise CounterexampleError(cfg, "w3 cannot point at z in the final step")
    # G3 towards (z+ z w3 w4), needs (1011,1000)
    d3 = _special_or(g3, _sub_config(g3, (g.boundary_succ(z), z, w3, w4)),
                     ((False, R_TAGS, ClauseRequest("1011,0000")),), "M3", "final", trace)
    d5 = _solve(g5, (g5.pred(w6), w6, w5, w4), "M0", trace)
    if (w4, w5) not in d5.arcs:
        raise CounterexampleError(cfg, "expected forced arc (w4, w5)")
    d5 = d5.adjust(drop_arcs=[(w4, w5)])
    return dpp.union(d3, d5).adjust(add_arcs=cross)


# ---------------------------------------------------------------------------
# whole-graph wrapper
# ---------------------------------------------------------------------------

def decompose_21(g: PlaneGraph) -> tuple[Decomposition, CaseTrace]:
    """A whole-graph decomposition into an acyclic orientation of maximum
    out-degree two plus a matching; the trace records the case ladder.  g
    may have several components; any other invalid input raises a plain
    ``PlaneGraphError``, never a counterexample."""
    bad = [f for f in validate(g).failures if f[0] != "connected"]
    if bad:
        raise PlaneGraphError(f"invalid plane graph: {bad}")
    trace = CaseTrace()
    parts = [_component(piece, trace) for piece in component_pieces(g)]
    dec = parts[0].union(*parts[1:]) if parts else Decomposition.of()
    rep = verify_21(g, dec)
    if not rep:
        raise CounterexampleError(_as_cfg(g), f"theorem wrapper: {rep.clause}: {rep.detail}")
    return dec, trace
