"""The exhaustive fallback of the case ladder: a backtracking search for an
acyclic orientation under per-vertex out-degree caps plus a matching.

Edges are assigned in the given order, each trying the forward arc, the
backward arc and then a matching edge, so the first complete assignment
found is the one plain 3^m backtracking finds.  Three devices leave out only
subtrees that hold no complete assignment:

* Cycle cut.  The arc a -> b is not tried when b already reaches a along the
  arcs chosen so far: deeper levels only add arcs, so every leaf below would
  keep that cycle.  Hence every leaf is acyclic without a check of its own.
* Counting cut.  With L edges left, room_p = cap_p - out-degree so far and
  rest_p = edges left at p, every edge left needs an out-arc from one of its
  ends (at most min(room_p, rest_p) of them at p) or a matching edge on two
  distinct ends that may still be matched and have edges left.  So a subtree
  can succeed only if L <= sum_p min(room_p, rest_p) + floor(#pairable / 2).
  Both sums are kept up to date in O(1) per step.
* Backjumping (Prosser's conflict-directed backjumping, 1993).  Each refused
  choice names the earlier edges that refuse it: the arcs that used up the
  tail's cap, the arcs of the path that would close a cycle, the edge that
  matched an end, or, for the counting cut, every assigned edge at a vertex
  with edges left (only those vertices enter the two sums).  When an edge
  runs out of choices, the search goes back to the latest edge named, not
  merely the previous one: the choices of the edges in between cannot lift
  the refusal.

The search is a loop over an undo stack, so its depth is not bounded by the
recursion limit.
"""

from __future__ import annotations

from .decomposition import Decomposition
from .plane_graph import Edge

FWD, BWD, MAT = 0, 1, 2


def tiny_search(edges: list[Edge], out_cap: dict[int, int],
                forbid_match: set[int]) -> Decomposition | None:
    """The first (arcs, matching) in the order above that covers ``edges``
    with out-degree at most ``out_cap`` everywhere, no cycle, and no matching
    edge at ``forbid_match``; None if there is none."""
    m = len(edges)
    room = dict(out_cap)
    rest = dict.fromkeys(out_cap, 0)
    at = dict.fromkeys(out_cap, 0)  # edges at p, as a bitmask of indices
    for j, (u, v) in enumerate(edges):
        rest[u] += 1
        rest[v] += 1
        at[u] |= 1 << j
        at[v] |= 1 << j
    free = set(out_cap) - set(forbid_match)  # may still be matched
    matched_by: dict[int, int] = {}
    spare = sum(min(room[p], rest[p]) for p in room)
    pairable = sum(1 for p in free if rest[p])
    succ: dict[int, list[tuple[int, int]]] = {p: [] for p in out_cap}
    tails = dict.fromkeys(out_cap, 0)  # the arcs out of p, as a bitmask
    indeg = dict.fromkeys(out_cap, 0)

    def shift_room(p: int, d: int) -> None:
        nonlocal spare
        spare -= min(room[p], rest[p])
        room[p] += d
        spare += min(room[p], rest[p])

    def shift_rest(p: int, d: int) -> None:
        nonlocal spare, pairable
        r = rest[p]
        spare += min(room[p], r + d) - min(room[p], r)
        rest[p] = r + d
        if p in free and (r == 0) != (r + d == 0):
            pairable += d

    def path(a: int, b: int) -> int:
        """The arcs of a path from a to b as a bitmask; 0 if there is none."""
        if not succ[a] or not indeg[b]:
            return 0
        via = {a: 0}
        todo = [a]
        while todo:
            p = todo.pop()
            for q, j in succ[p]:
                if q not in via:
                    via[q] = via[p] | 1 << j
                    if q == b:
                        return via[q]
                    todo.append(q)
        return 0

    def take(i: int, kind: int, u: int, v: int) -> int:
        """0 if edge i takes the choice; else the earlier edges that refuse
        it as a bitmask, or -1 if the caps alone refuse it."""
        nonlocal pairable
        if kind == MAT:
            for p in (u, v):
                if p not in free:
                    return 1 << matched_by[p] if p in matched_by else -1
            free.difference_update((u, v))
            matched_by[u] = matched_by[v] = i
            pairable -= (rest[u] > 0) + (rest[v] > 0)
            return 0
        a, b = (u, v) if kind == FWD else (v, u)
        if room[a] <= 0:
            return tails[a] or -1
        cycle = path(b, a)
        if cycle:
            return cycle
        shift_room(a, -1)
        succ[a].append((b, i))
        tails[a] |= 1 << i
        indeg[b] += 1
        return 0

    def give_back(i: int, kind: int, u: int, v: int) -> None:
        nonlocal pairable
        if kind == MAT:
            free.update((u, v))
            del matched_by[u], matched_by[v]
            pairable += (rest[u] > 0) + (rest[v] > 0)
            return
        a, b = (u, v) if kind == FWD else (v, u)
        succ[a].pop()
        tails[a] &= ~(1 << i)
        indeg[b] -= 1
        shift_room(a, 1)

    def count_left(i: int, d: int) -> None:
        """Edge i starts (d = 1) or stops (d = -1) counting as left."""
        shift_rest(edges[i][0], d)
        shift_rest(edges[i][1], d)

    if m > spare + pairable // 2:
        return None
    took: list[int] = []  # the kind chosen for each edge assigned so far
    conflict = [0] * (m + 1)  # per edge, the earlier edges that refused it
    kind = FWD
    while len(took) < m:
        i = len(took)
        u, v = edges[i]
        if kind == FWD:  # entering edge i
            count_left(i, -1)
        while kind <= MAT:
            why = take(i, kind, u, v)
            if why == 0:
                if m - i - 1 <= spare + pairable // 2:
                    break
                give_back(i, kind, u, v)
                # the two sums read only the vertices with edges left
                why = 0
                for p, r in rest.items():
                    if r:
                        why |= at[p]
                why &= (1 << i) - 1
            if why > 0:
                conflict[i] |= why
            kind += 1
        if kind <= MAT:
            took.append(kind)
            conflict[i + 1] = 0
            kind = FWD
            continue
        # edge i has no choice left: resume the latest edge that refused one
        back = conflict[i].bit_length() - 1
        count_left(i, 1)
        if back < 0:
            return None
        for d in range(i - 1, back, -1):
            give_back(d, took.pop(), *edges[d])
            count_left(d, 1)
        conflict[back] |= conflict[i] & ~(1 << back)
        kind = took.pop()
        give_back(back, kind, *edges[back])
        kind += 1
    arcs = [e if k == FWD else e[::-1] for e, k in zip(edges, took) if k != MAT]
    return Decomposition.of(arcs, [e for e, k in zip(edges, took) if k == MAT])
