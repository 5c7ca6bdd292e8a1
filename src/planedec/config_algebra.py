"""The special-configuration grammar: gluing operations and the R/Q/P families.

Families are generated from a 4-cycle (R1) and a 5-cycle (P1) by three gluing
operations; membership is decided structurally (degree-2 path vertices expose
the glued faces, and chord splits at the third path vertex expose the plain
gluings), with every positive answer carrying a derivation tree that replays
to the recognised configuration.

Configurations are treated up to reflection: a path given against the walk
direction is read in the mirror embedding, which is also how the paper's
reversed-path statements are interpreted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

from .decomposition import check_config_path, path_orientation
from .oracle import config_key
from .plane_graph import (Edge, Piece, PlaneGraph, PlaneGraphError, chords,
                          cycle_graph, extract_piece, int_subgraph, und,
                          validate)

Op = Literal["oplus", "ohat", "otilde"]
FamilyTag = Literal["R1", "R2", "Q", "P1", "P2", "P3"]

R_TAGS = ("R1", "R2")
P_TAGS = ("P1", "P2", "P3")


@dataclass(frozen=True)
class Configuration:
    """A connected triangle-free plane graph with a boundary path of four
    consecutive distinct walk vertices (in either walk direction)."""

    graph: PlaneGraph
    path: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        err = check_config_path(self.graph, self.path)
        if err:
            raise PlaneGraphError(err)

    @property
    def w(self) -> int:
        return self.path[0]

    @property
    def x(self) -> int:
        return self.path[1]

    @property
    def y(self) -> int:
        return self.path[2]

    @property
    def z(self) -> int:
        return self.path[3]

    @cached_property
    def key(self) -> bytes:
        return config_key(self.graph, self.path)

    def oriented(self) -> "Configuration":
        """The clockwise presentation (reflect the graph if needed)."""
        if path_orientation(self.graph, self.path) > 0:
            return self
        return Configuration(self.graph.reflect(), self.path)

    def center(self) -> Edge:
        return und(self.path[1], self.path[2])

    def validated(self) -> "Configuration":
        rep = validate(self.graph)
        if not rep.ok:
            raise PlaneGraphError(f"invalid configuration graph: {rep.failures}")
        return self


def reverse_view(c: Configuration) -> Configuration:
    """(g, wxyz) -> (g~, z+ z y x): the shifted reversal used by the symmetry
    observation, presented in the mirror embedding."""
    c = c.oriented()
    g = c.graph
    zp = g.boundary_succ(c.z)
    return Configuration(g.reflect(), (zp, c.z, c.y, c.x))


def full_reverse(c: Configuration) -> Configuration:
    """(g, wxyz) -> (g~, zyxw)."""
    c = c.oriented()
    return Configuration(c.graph.reflect(),
                         (c.z, c.y, c.x, c.w))


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def _rotate_to(seq: tuple[int, ...], first: int) -> list[int]:
    i = seq.index(first)
    return list(seq[i:] + seq[:i])


@dataclass
class Gluing:
    """Result of one composition step."""

    config: Configuration
    left_map: dict[int, int]   # left operand id  -> composed id
    right_map: dict[int, int]  # right operand id -> composed id
    u: int | None = None       # added vertices (composed ids)
    v: int | None = None


def combine(op: Op, c1: Configuration, c2: Configuration) -> Gluing:
    """Glue two configurations; both are read in clockwise presentation.

    oplus identifies the right path's (x2, y2) with the left's (z1, y1) and
    yields path (w1, x1, y1, z2); ohat adds u adjacent to x1 and z2 and yields
    (w1, x1, u, z2); otilde adds adjacent u, v and yields (x1, u, v, z2).
    """
    c1 = c1.oriented()
    c2 = c2.oriented()
    g1, (w1, x1, y1, z1) = c1.graph, c1.path
    g2, (w2, x2, y2, z2) = c2.graph, c2.path
    n1 = g1.n

    right_map: dict[int, int] = {x2: z1, y2: y1}
    nxt = n1
    for p in range(1, g2.n + 1):
        if p not in (x2, y2):
            nxt += 1
            right_map[p] = nxt

    rot: dict[int, list[int]] = {p: list(g1.neighbors(p)) for p in g1.vertices()}
    for p in g2.vertices():
        if p in (x2, y2):
            continue
        rot[right_map[p]] = [right_map[q] for q in g2.neighbors(p)]

    # merged y: splice G2's rotation (from its successor z2 around to x2)
    # in place of z1 inside G1's rotation at y1
    l1 = _rotate_to(g1.neighbors(y1), z1)       # [z1, interior..., x1]
    l2 = [right_map[q] for q in _rotate_to(g2.neighbors(y2), z2)]  # [z2', ..., c]
    rot[y1] = l2 + l1[1:]
    # merged corner c = z1 = x2: G1's rotation at z1 (from its successor,
    # ending at y1) followed by G2's rotation at x2 after y2 (ending at w2)
    z1p = g1.boundary_succ(z1)
    lc1 = _rotate_to(g1.neighbors(z1), z1p)     # [z1+, ..., y1]
    lc2 = [right_map[q] for q in _rotate_to(g2.neighbors(x2), y2)]  # [y, ..., w2']
    rot[z1] = lc1 + lc2[1:]

    z2c = right_map[z2]
    if op == "oplus":
        path = (w1, x1, y1, z2c)
        u = v = None
    elif op == "ohat":
        u = nxt + 1
        v = None
        rot[u] = [z2c, x1]
        rot[x1] = [u] + _rotate_to(g1.neighbors(x1), y1)
        s2 = right_map[g2.boundary_succ(z2)]
        rot[z2c] = _rotate_to(tuple(rot[z2c]), s2) + [u]
        path = (w1, x1, u, z2c)
    elif op == "otilde":
        u = nxt + 1
        v = nxt + 2
        rot[u] = [v, x1]
        rot[v] = [z2c, u]
        rot[x1] = [u] + _rotate_to(g1.neighbors(x1), y1)
        s2 = right_map[g2.boundary_succ(z2)]
        rot[z2c] = _rotate_to(tuple(rot[z2c]), s2) + [v]
        path = (x1, u, v, z2c)
    else:
        raise ValueError(f"unknown operation {op}")

    n = len(rot)
    g = PlaneGraph([tuple(rot[p]) for p in range(1, n + 1)], (w1, x1))
    cfg = Configuration(g, path)
    rep = validate(g)
    if not rep.ok:
        raise PlaneGraphError(f"gluing produced invalid graph: {rep.failures}")
    return Gluing(config=cfg, left_map={p: p for p in g1.vertices()},
                  right_map=right_map, u=u, v=v)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

@dataclass
class Derivation:
    """Certificate of family membership: a leaf cycle or a gluing node."""

    tag: FamilyTag
    config: Configuration
    op: Op | None = None
    left: "Derivation | None" = None
    right: "Derivation | None" = None
    left_map: dict[int, int] | None = None
    right_map: dict[int, int] | None = None
    u: int | None = None
    v: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def in_R(self) -> bool:
        return self.tag in R_TAGS

    def in_P(self) -> bool:
        return self.tag in P_TAGS

    def in_Q(self) -> bool:
        return self.tag == "Q"

    def walk(self) -> Iterator["Derivation"]:
        yield self
        if self.left:
            yield from self.left.walk()
        if self.right:
            yield from self.right.walk()

    def replay(self) -> Configuration:
        """Recompose from the leaves; the result must equal config up to the
        recorded maps (checked), returning the recomposed configuration."""
        if self.is_leaf:
            return self.config
        assert self.left and self.right
        self.left.replay()
        self.right.replay()
        glue = combine(self.op, self.left.config, self.right.config)  # type: ignore[arg-type]
        if config_key(glue.config.graph, glue.config.path) != self.config.key:
            raise PlaneGraphError("derivation does not replay to its configuration")
        return glue.config


def _node(tag: FamilyTag, glue: Gluing, op: Op,
          left: Derivation, right: Derivation) -> Derivation:
    return Derivation(tag=tag, config=glue.config, op=op, left=left, right=right,
                      left_map=glue.left_map, right_map=glue.right_map,
                      u=glue.u, v=glue.v)


RULES: dict[tuple[Op, str], FamilyTag] = {
    ("oplus", "R"): "Q",
    ("ohat", "R"): "R2",
    ("otilde", "R"): "P2",
    ("ohat", "P"): "P3",
}


def node_typing_ok(op: Op, left: Derivation, right: Derivation) -> FamilyTag | None:
    """Family tag produced by a gluing, if the operand typing is legal.

    The defining rules take left in R (or P for the ohat P-rule) and right in
    R u Q; the re-associated forms (left in R u Q, right in R) produce the
    same families and are accepted as certificates too.
    """
    if left.in_R() and (right.in_R() or right.in_Q()):
        return RULES[(op, "R")]
    if op != "otilde" and left.in_Q() and right.in_R():
        return RULES[(op, "R")]
    if op == "otilde" and left.in_Q() and right.in_R():
        return "P2"
    if op == "ohat" and left.in_P() and (right.in_R() or right.in_Q()):
        return "P3"
    return None


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

# verdicts are label-free and safe to share across graphs
_VERDICTS: dict[bytes, FamilyTag | None] = {}


def _inner_face_from(g: PlaneGraph, a: int, b: int) -> tuple[int, ...]:
    """Vertices of the face on the non-outer side of boundary edge (a, b)."""
    trace = g.trace_face(b, a)
    return tuple(e[0] for e in trace)


def recognize(c: Configuration) -> Derivation | None:
    """Membership in R u Q u P with a derivation, or None."""
    c = c.oriented()
    verdict = _VERDICTS.get(c.key, "unknown")
    if verdict is None:
        return None
    d = _recognize(c)
    _VERDICTS[c.key] = d.tag if d else None
    return d


def _recognize(c: Configuration) -> Derivation | None:
    for probe in (_match_leaf, _match_r2, _match_p2, _match_q, _match_p3):
        d = probe(c)
        if d is not None:
            return d
    return None


def _match_leaf(c: Configuration) -> Derivation | None:
    g = c.graph
    if g.n == 4 and g.m == 4 and g.boundary_is_cycle():
        return Derivation(tag="R1", config=c)
    if g.n == 5 and g.m == 5 and g.boundary_is_cycle():
        return Derivation(tag="P1", config=c)
    return None


def _deg2_inner_face(c: Configuration, v: int, expect_len: int) -> tuple[int, ...] | None:
    """Vertices of the inner face behind a degree-2 path vertex v, provided it
    is a simple face of the expected length containing the whole path."""
    g = c.graph
    i = c.path.index(v)
    prev_, next_ = c.path[i - 1], c.path[i + 1]
    if g.degree(v) != 2 or set(g.neighbors(v)) != {prev_, next_}:
        return None
    face = _inner_face_from(g, prev_, v)
    if len(face) != expect_len or len(set(face)) != expect_len:
        return None
    return face


def _reduced_config(c: Configuration, drop: tuple[int, ...],
                    new_path: tuple[int, int, int, int]):
    """Delete matched degree-2 path vertices; returns (config, piece) or None."""
    g = c.graph
    keep = [p for p in g.vertices() if p not in drop]
    anchor = next(((a, b) for a, b in g.boundary_walk.edges
                   if a not in drop and b not in drop), None)
    if anchor is None:
        return None
    piece = extract_piece(g, keep, outer_parent_edge=anchor)
    cm = piece.child_of
    try:
        cfg = Configuration(piece.graph, tuple(cm[p] for p in new_path))
    except (PlaneGraphError, KeyError):
        return None
    return cfg, piece


def _oplus_split(c: Configuration, want_left: str):
    """Split c = A oplus B along a chord at the third path vertex.

    Returns (left_deriv, right_deriv, left_map, right_map) with maps into c's
    vertex ids, requiring recognize(A) in the want_left family ("R" or "P")
    and recognize(B) in R u Q.  None if no chord produces such a split.
    """
    c = c.oriented()
    g = c.graph
    w, x, y, z = c.path
    walk = g.boundary_walk
    if not walk.is_simple_cycle():
        return None
    bset = walk.vertex_set
    on_walk = walk.edge_set
    cands = [t for t in g.neighbors(y)
             if t not in (x, z) and t in bset and und(t, y) not in on_walk]
    for t in sorted(cands):
        left_cycle = walk.stretch(t, y)
        right_cycle = walk.stretch(y, t)
        if len(left_cycle) < 4 or len(right_cycle) < 4:
            continue
        lp = int_subgraph(g, left_cycle)
        rp = int_subgraph(g, right_cycle)
        lcm, rcm = lp.child_of, rp.child_of
        try:
            lcfg = Configuration(lp.graph, (lcm[w], lcm[x], lcm[y], lcm[t]))
            tpred = right_cycle[-2]
            rcfg = Configuration(rp.graph, (rcm[tpred], rcm[t], rcm[y], rcm[z]))
        except PlaneGraphError:
            continue
        ld = recognize(lcfg)
        if ld is None:
            continue
        if want_left == "R" and not ld.in_R():
            continue
        if want_left == "P" and not ld.in_P():
            continue
        rd = recognize(rcfg)
        if rd is None or rd.in_P():
            continue
        left_map = {q: lp.parent_of(q) for q in range(1, lp.graph.n + 1)}
        right_map = {q: rp.parent_of(q) for q in range(1, rp.graph.n + 1)}
        return ld, rd, left_map, right_map
    return None


def _match_q(c: Configuration) -> Derivation | None:
    split = _oplus_split(c, want_left="R")
    if split is None:
        return None
    ld, rd, left_map, right_map = split
    return Derivation(tag="Q", config=c, op="oplus", left=ld, right=rd,
                      left_map=left_map, right_map=right_map)


def _match_r2(c: Configuration) -> Derivation | None:
    g = c.graph
    if g.n < 7:
        return None
    w, x, y, z = c.path
    face = _deg2_inner_face(c, y, 4)
    if face is None or not {x, y, z} <= set(face):
        return None
    (u,) = set(face) - {x, y, z}
    reduced = _reduced_config(c, drop=(y,), new_path=(w, x, u, z))
    if reduced is None:
        return None
    sub_cfg, piece = reduced
    d = recognize(sub_cfg)
    if d is None or not d.in_Q():
        return None
    left_map = {q: piece.parent_of(p) for q, p in d.left_map.items()}
    right_map = {q: piece.parent_of(p) for q, p in d.right_map.items()}
    return Derivation(tag="R2", config=c, op="ohat", left=d.left, right=d.right,
                      left_map=left_map, right_map=right_map, u=y)


def _match_p2(c: Configuration) -> Derivation | None:
    g = c.graph
    if g.n < 8:
        return None
    w, x, y, z = c.path
    face = _deg2_inner_face(c, x, 5)
    if face is None or _deg2_inner_face(c, y, 5) is None:
        return None
    if not {w, x, y, z} <= set(face):
        return None
    (v5,) = set(face) - {w, x, y, z}
    try:
        wm = g.boundary_pred(w)
    except PlaneGraphError:
        return None
    reduced = _reduced_config(c, drop=(x, y), new_path=(wm, w, v5, z))
    if reduced is None:
        return None
    sub_cfg, piece = reduced
    d = recognize(sub_cfg)
    if d is None or not d.in_Q():
        return None
    left_map = {q: piece.parent_of(p) for q, p in d.left_map.items()}
    right_map = {q: piece.parent_of(p) for q, p in d.right_map.items()}
    return Derivation(tag="P2", config=c, op="otilde", left=d.left, right=d.right,
                      left_map=left_map, right_map=right_map, u=x, v=y)


def _match_p3(c: Configuration) -> Derivation | None:
    g = c.graph
    if g.n < 8:
        return None
    w, x, y, z = c.path
    face = _deg2_inner_face(c, y, 4)
    if face is None or not {x, y, z} <= set(face):
        return None
    (u,) = set(face) - {x, y, z}
    reduced = _reduced_config(c, drop=(y,), new_path=(w, x, u, z))
    if reduced is None:
        return None
    sub_cfg, piece = reduced
    split = _oplus_split(sub_cfg, want_left="P")
    if split is None:
        return None
    ld, rd, lm, rm = split
    left_map = {q: piece.parent_of(p) for q, p in lm.items()}
    right_map = {q: piece.parent_of(p) for q, p in rm.items()}
    return Derivation(tag="P3", config=c, op="ohat", left=ld, right=rd,
                      left_map=left_map, right_map=right_map, u=y)


# ---------------------------------------------------------------------------
# derivation surgery: reversal and re-association
# ---------------------------------------------------------------------------

def reverse_derivation(d: Derivation, kind: str = "shift") -> Derivation:
    """Derivation of the reversed configuration.

    kind "shift" reverses (g, wxyz) to (g~, z+ z y x) and applies to R/Q
    trees; kind "full" reverses to (g~, zyxw) and applies to R1/P1/P2 trees.
    Children swap and added otilde vertices exchange roles; vertex ids are
    unchanged (reflection keeps ids), so the recorded maps stay valid.
    """
    if d.is_leaf:
        cfg = reverse_view(d.config) if kind == "shift" else full_reverse(d.config)
        return Derivation(tag=d.tag, config=cfg)
    assert d.left and d.right and d.left_map and d.right_map
    if d.op == "otilde":
        if kind != "full":
            raise PlaneGraphError("otilde nodes reverse only under full reversal")
        cfg = full_reverse(d.config)
        return Derivation(tag="P2", config=cfg, op="otilde",
                          left=reverse_derivation(d.right, "shift"),
                          right=reverse_derivation(d.left, "shift"),
                          left_map=dict(d.right_map), right_map=dict(d.left_map),
                          u=d.v, v=d.u)
    if kind != "shift":
        raise PlaneGraphError(f"{d.op} nodes reverse only under shifted reversal")
    cfg = reverse_view(d.config)
    tag: FamilyTag = "Q" if d.op == "oplus" else "R2"
    return Derivation(tag=tag, config=cfg, op=d.op,
                      left=reverse_derivation(d.right, "shift"),
                      right=reverse_derivation(d.left, "shift"),
                      left_map=dict(d.right_map), right_map=dict(d.left_map),
                      u=d.u)


def reassociate_right(d: Derivation) -> Derivation:
    """Rewrite an oplus/ohat node so its right operand is in R.

    Uses associativity: A o (B oplus C) = (A oplus B) o C.  The result is the
    same configuration with the same vertex ids.
    """
    while d.right is not None and d.right.op == "oplus":
        a, bc = d.left, d.right
        b, c_ = bc.left, bc.right
        # compose A oplus B concretely
        glue = combine("oplus", a.config, b.config)
        # B's ids inside the new AB node come from glue.right_map; inside d's
        # config they come through bc.left_map then d.right_map
        ab_left_map = dict(glue.left_map)
        ab_right_map = dict(glue.right_map)
        ab = Derivation(tag="Q", config=glue.config, op="oplus", left=a, right=b,
                        left_map=ab_left_map, right_map=ab_right_map)
        # maps of the new top node: AB-ids -> d-ids
        inv_new: dict[int, int] = {}
        for q in a.config.graph.vertices():
            inv_new[glue.left_map[q]] = d.left_map[q]
        for q in b.config.graph.vertices():
            inv_new[glue.right_map[q]] = d.right_map[bc.left_map[q]]
        top_right_map = {q: d.right_map[bc.right_map[q]]
                         for q in c_.config.graph.vertices()}
        d = Derivation(tag=d.tag, config=d.config, op=d.op, left=ab, right=c_,
                       left_map=inv_new, right_map=top_right_map, u=d.u, v=d.v)
    if not d.right.in_R():
        raise PlaneGraphError("re-association did not reach an R right operand")
    return d


# ---------------------------------------------------------------------------
# family generation
# ---------------------------------------------------------------------------

def leaf_r1() -> Derivation:
    return Derivation(tag="R1", config=Configuration(cycle_graph(4), (1, 2, 3, 4)))


def leaf_p1() -> Derivation:
    return Derivation(tag="P1", config=Configuration(cycle_graph(5), (1, 2, 3, 4)))


def generate_family(max_n: int) -> list[Derivation]:
    """Every R/Q/P member with at most max_n vertices, one derivation per
    (family tag, configuration) pair, configurations deduplicated up to
    reflection.  Composite sizes follow n(oplus) = n1+n2-2, n(ohat) =
    n1+n2-1, n(otilde) = n1+n2."""
    if max_n < 4:
        return []
    by_size: dict[int, list[Derivation]] = {}
    seen: set[tuple[str, bytes]] = set()
    out: list[Derivation] = []

    def add(d: Derivation) -> None:
        key = (d.tag, d.config.key)
        if key in seen:
            return
        seen.add(key)
        out.append(d)
        by_size.setdefault(d.config.graph.n, []).append(d)

    add(leaf_r1())
    if max_n >= 5:
        add(leaf_p1())
    for n in range(6, max_n + 1):
        for n1 in range(4, n + 1):
            for op, extra in (("oplus", -2), ("ohat", -1), ("otilde", 0)):
                n2 = n - n1 - extra
                if n2 < 4:
                    continue
                for ld in by_size.get(n1, []):
                    for rd in by_size.get(n2, []):
                        tag = node_typing_ok(op, ld, rd)
                        if tag is None:
                            continue
                        # defining rules only: left R (or P for the P3 rule)
                        if ld.in_Q():
                            continue
                        if op != "ohat" and ld.in_P():
                            continue
                        glue = combine(op, ld.config, rd.config)
                        add(_node(tag, glue, op, ld, rd))
    out.sort(key=lambda d: (d.config.graph.n, d.tag, d.config.key))
    return out


# ---------------------------------------------------------------------------
# restricted containment
# ---------------------------------------------------------------------------

PATTERNS = ("R(xyz)", "R(yxw)", "P(wxyz)", "P(zyxw)")


def contains_special(g: PlaneGraph, pattern: str,
                     path: tuple[int, int, int, int]) -> Derivation | None:
    """Containment test G =] R(.)/P(.), valid once the boundary is a chordless
    cycle with no separating 4-/5-cycles.

    With a boundary of length at least 6 (or no interior vertices) the only
    candidate subgraph is the whole graph, so containment coincides with
    membership of the boundary-completed path.  A 4-cycle (5-cycle) boundary
    over interior content is itself a contained R (P) member and is reported
    directly; no larger member fits inside five boundary vertices.
    """
    from .main_decomposer import has_separating_small_cycle  # cycle check shared
    w, x, y, z = path
    walk = g.boundary_walk
    if not walk.is_simple_cycle():
        raise PlaneGraphError("containment test requires a 2-connected graph")
    if chords(g, walk):
        raise PlaneGraphError("containment test requires a chordless boundary")
    if has_separating_small_cycle(g) is not None:
        raise PlaneGraphError("containment test requires no separating 4-/5-cycles")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    blen = len(walk)
    if blen < g.n:
        on_walk = walk.edge_set

        def cycle_only(a: int, b: int) -> bool:
            return und(a, b) in on_walk

        if blen == 4:
            if pattern in ("R(xyz)", "R(yxw)"):
                boundary = extract_piece(g, walk.vertex_set, keep_edge=cycle_only,
                                         outer_parent_edge=g.outer)
                cm = boundary.child_of
                p = (w, x, y, z) if pattern == "R(xyz)" else (z, y, x, w)
                return Derivation(tag="R1", config=Configuration(
                    boundary.graph, tuple(cm[q] for q in p)))
            return None
        if blen == 5:
            if pattern in ("P(wxyz)", "P(zyxw)"):
                boundary = extract_piece(g, walk.vertex_set, keep_edge=cycle_only,
                                         outer_parent_edge=g.outer)
                cm = boundary.child_of
                p = (w, x, y, z) if pattern == "P(wxyz)" else (z, y, x, w)
                return Derivation(tag="P1", config=Configuration(
                    boundary.graph, tuple(cm[q] for q in p)))
            return None
    if pattern == "R(xyz)":
        d = recognize(Configuration(g, (w, x, y, z)))
        return d if d is not None and d.in_R() else None
    if pattern == "P(wxyz)":
        d = recognize(Configuration(g, (w, x, y, z)))
        return d if d is not None and d.in_P() else None
    if pattern == "R(yxw)":
        d = recognize(Configuration(g, (z, y, x, w)))
        return d if d is not None and d.in_R() else None
    d = recognize(Configuration(g, (z, y, x, w)))
    return d if d is not None and d.in_P() else None
