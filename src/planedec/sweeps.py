"""Exhaustive desk-scale sweeps tying the algorithm to the oracle.

These drive the acceptance checks: enumerate graphs, evaluate each goal's
precondition, run the constructive decomposition, verify it, and confirm
existence independently by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .config_algebra import Configuration, contains_special, PATTERNS
from .decomposition import relaxed_exempt_set, verify
from .main_decomposer import (CaseTrace, Goal, decompose_21, decompose_config,
                              goal_spec)
from .oracle import brute_force, enumerate_configurations, enumerate_graphs
from .plane_graph import PlaneGraph


def m1_precondition(g: PlaneGraph, path: tuple[int, int, int, int]) -> bool:
    """x or y is incident to a chord of the boundary of the centre block,
    that is, M1's exempt set is not empty."""
    return bool(relaxed_exempt_set(g, path))


def special_preconditions_testable(g: PlaneGraph,
                                   path: tuple[int, int, int, int]) -> bool:
    """True when the restricted containment test applies to (g, path)."""
    return (g.is_two_connected() and g.boundary_walk.is_simple_cycle()
            and not g.boundary_chords and g.separating_small_cycle is None)


def applicable_goals(g: PlaneGraph, path: tuple[int, int, int, int]
                     ) -> list[Goal]:
    """Goals whose preconditions hold, evaluated via chords/contains_special
    (M2/M3 are only evaluated where the restricted containment test is valid)."""
    goals: list[Goal] = ["M0"]
    if m1_precondition(g, path):
        goals.append("M1")
    if special_preconditions_testable(g, path):
        found = {p: contains_special(g, p, path) for p in PATTERNS}
        if not any(found.values()):
            goals.append("M2")
        if found["R(xyz)"] is None:
            goals.append("M3")
    return goals


@dataclass
class SweepStats:
    graphs: int = 0
    configs: int = 0
    runs: int = 0
    failures: list[str] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    def count_labels(self, trace: CaseTrace) -> None:
        for lab in trace.labels():
            self.labels[lab] = self.labels.get(lab, 0) + 1

    @property
    def ok(self) -> bool:
        return not self.failures


def sweep_theorem(max_n: int, stats: SweepStats | None = None,
                  graphs: Iterable[PlaneGraph] | None = None,
                  outputs: list | None = None) -> SweepStats:
    """Criterion: every enumerated graph gets a verified (2,1)-decomposition.
    Each success is appended to ``outputs``, if given, as (graph,
    decomposition, trace)."""
    stats = stats or SweepStats()
    for g in (graphs if graphs is not None else enumerate_graphs(max_n)):
        stats.graphs += 1
        try:
            dec, trace = decompose_21(g)
            stats.count_labels(trace)
            if outputs is not None:
                outputs.append((g, dec, trace))
        except Exception as exc:  # noqa: BLE001 - failures are collected
            stats.failures.append(f"decompose_21 n={g.n} {g.rotation}: {exc}")
    return stats


def sweep_configurations(max_n: int, goals: tuple[Goal, ...] = ("M0", "M1", "M2", "M3"),
                         confirm_with_oracle: bool = True,
                         stats: SweepStats | None = None,
                         graphs: Iterable[PlaneGraph] | None = None) -> SweepStats:
    """Criterion: on every configuration, each applicable goal succeeds,
    verifies, and the oracle independently confirms existence."""
    stats = stats or SweepStats()
    for g in (graphs if graphs is not None else enumerate_graphs(max_n)):
        stats.graphs += 1
        for quad in enumerate_configurations(g):
            stats.configs += 1
            try:
                applicable = [gl for gl in applicable_goals(g, quad) if gl in goals]
            except Exception as exc:  # noqa: BLE001
                stats.failures.append(f"precondition n={g.n} {quad}: {exc}")
                continue
            for goal in applicable:
                stats.runs += 1
                cfg = Configuration(g, quad)
                try:
                    dec, trace = decompose_config(cfg, goal, CaseTrace())
                    stats.count_labels(trace)
                except Exception as exc:  # noqa: BLE001
                    stats.failures.append(
                        f"{goal} n={g.n} rot={g.rotation} outer={g.outer} "
                        f"path={quad}: {exc}")
                    continue
                rep = verify(g, quad, goal_spec(goal, cfg), dec)
                if not rep:
                    stats.failures.append(
                        f"{goal} n={g.n} path={quad}: verify said {rep.detail}")
                if confirm_with_oracle:
                    if not brute_force(g, quad, goal_spec(goal, cfg)):
                        stats.failures.append(
                            f"{goal} n={g.n} path={quad}: oracle found nothing")
    return stats
