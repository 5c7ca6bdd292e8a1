"""The four workloads.  Each has a ``build`` that makes its inputs from the
seed (timed as set-up) and a ``run`` that performs the ops of one pass
through a ``Meter``, which times them and runs their output checks untimed.

- enumerate: every graph that ``enumerate_graphs(8)`` emits is one op.
- sweep: a seeded sample of the n <= 9 corpus; one op decomposes a graph,
  colours it and round-trips its JSON document.
- configs: a seeded sample of the n <= 8 corpus graphs; one op is one goal
  run on one boundary configuration, confirmed by brute force.
- large: grids, ladders and grid subgraphs far beyond n = 9, each under a
  deadline that counts as a failure.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import signal
from collections import Counter
from time import perf_counter
from typing import Callable

import corpus
import generators
from planedec import fixtures
from planedec.config_algebra import Configuration
from planedec.decomposition import check_coloring, defective_coloring, verify, verify_21
from planedec.io import DecompositionDocument
from planedec.main_decomposer import decompose_21, decompose_config, goal_spec
from planedec.oracle import brute_force, enumerate_configurations, enumerate_graphs
from planedec.plane_graph import PlaneGraph
from planedec.sweeps import applicable_goals

ENUMERATE_MAX_N = 8
SWEEP_GRAPHS = 2500
CONFIGS_GRAPHS = 500

# Full grids k x k and ladders 2 x L / 3 x L.  Sizes that finish within a
# factor of two of their deadline at the seed commit are left out (14 x 14,
# 15 x 15, 2 x 100 and 3 x 14), so that no verdict can flip from run to run.
GRID_KS = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16)
LADDER2_LS = (10, 20, 30, 40, 50, 60, 70, 80, 130)
LADDER3_LS = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15)
# The fixed list behind scaling_slope: every one succeeds at the seed commit.
SLOPE_CASES = ({("grid", k * k) for k in GRID_KS if k <= 13}
               | {("ladder2", 2 * L) for L in LADDER2_LS if L <= 80})
SUB_KS = (5, 6, 7, 8, 9, 10)
SUB_SHARES = (0.10, 0.25, 0.40)
SUB_PER_CELL = 5
# Per-graph deadlines in nominal seconds (see CALIBRATION_NOMINAL_S), well
# above the slowest success of each family at the seed commit (timings in
# perfbench/README.md).
DEADLINE_S = {"grid": 2.5, "ladder2": 2.5, "ladder3": 2.5, "subgraph": 1.0}
CALIBRATION_ROUNDS = 120    # about 10 ms of calibration_loop
CALIBRATE_EVERY_S = 0.1
# Nominal speed: the calibration loop takes this long.  Normalised times and
# the deadlines of large are in seconds at that speed.
CALIBRATION_NOMINAL_S = 0.01
# Tracing slows every op.  In a traced pass the ops that met their deadline
# untraced get this many times longer, so traced outputs stay comparable.
TRACED_DEADLINE_SCALE = 10.0


class WrongOutput(AssertionError):
    """An output failed its check: the run is wrong, not merely slower."""


class Deadline(BaseException):
    """Raised by the meter's timer; a BaseException so library handlers
    cannot eat it."""


def digest(*parts: object) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=8).hexdigest()


def _rotation_of_grid(k: int) -> tuple[tuple[int, ...], ...]:
    rows = []
    for i in range(k):
        for j in range(k):
            steps = ((-1, 0), (0, 1), (1, 0), (0, -1))
            rows.append(tuple(1 + (i + a) * k + j + b for a, b in steps
                              if 0 <= i + a < k and 0 <= j + b < k))
    return tuple(rows)


_CALIBRATION_ROTATION = _rotation_of_grid(6)


def calibration_loop() -> int:
    """Fixed pure-Python work shaped like the library's (tracing the faces of
    a 6 x 6 grid with dicts, sets and tuples) that calls no library code.
    Its time tracks how fast the machine runs Python at the moment; the
    speed of a shared machine drifts by tens of percent over minutes."""
    acc = 0
    rot = _CALIBRATION_ROTATION
    for _ in range(CALIBRATION_ROUNDS):
        succ = [{u: nbrs[(i + 1) % len(nbrs)] for i, u in enumerate(nbrs)} for nbrs in rot]
        seen: set[tuple[int, int]] = set()
        faces = []
        for v, nbrs in enumerate(rot, start=1):
            for u in nbrs:
                face = []
                cur = (v, u)
                while cur not in seen:
                    seen.add(cur)
                    face.append(cur)
                    a, b = cur
                    cur = (b, succ[b - 1][a])
                if face:
                    faces.append(tuple(face))
        acc += len(max(faces, key=len))
    return acc


class Meter:
    """Per-op latency, outcome and output digest for one pass.

    Time spent in ``untimed`` (output checks and bookkeeping) is kept out of
    both the op latency and the pass wall time.  A profiling timer fires
    every CALIBRATE_EVERY_S of CPU time, inside an op too, and the meter then
    times ``calibration_loop``; that time is kept out of both as well.  A
    shared machine's speed changes by a factor of two within seconds, so
    each stretch of measured time between two calibrations is rescaled by
    the speed the machine had just then (the mean of the two) to give
    nominal seconds: ``norm_wall_s`` and the deadlines of ``large``.

    The measured clock is ``perf_counter()`` less everything untimed so far.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latency: list[float] = []
        self.sizes: list[int] = []
        self.families: list[str] = []
        self.outcomes: list[str] = []
        self.digests: list[str] = []
        # op spans and calibration points on the measured clock
        self.spans: list[tuple[float, float]] = []
        self.calibration_s: list[float] = []
        self.calibrated_at: list[float] = []
        self.untimed_s = 0.0
        self.calibrating_s = 0.0
        self.deadline = math.inf    # nominal seconds for the op running now
        self._busy = False          # in an untimed section or a calibration
        self._op_s = 0.0
        self._op_from = 0.0
        if tracer is not None:
            tracer.clock = self.clock

    def clock(self) -> float:
        """perf_counter() less the time spent calibrating: the tracer's clock."""
        return perf_counter() - self.calibrating_s

    def measured(self) -> float:
        return perf_counter() - self.untimed_s

    def start(self) -> None:
        self.calibrate()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.calibrate()

    def calibrate(self) -> None:
        self._busy = True
        t0 = perf_counter()
        self.calibrated_at.append(t0 - self.untimed_s)
        calibration_loop()
        spent = perf_counter() - t0
        self.calibration_s.append(spent)
        self.untimed_s += spent
        self.calibrating_s += spent
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self.calibrate()
        if (self.deadline < math.inf
                and self.nominal(self._op_from, self.calibrated_at[-1]) > self.deadline):
            raise Deadline()

    def nominal(self, a: float, b: float) -> float:
        """Nominal seconds in [a, b] of the measured clock, which must end by
        the last calibration."""
        at, cal = self.calibrated_at, self.calibration_s
        total = 0.0
        for i in range(max(0, bisect.bisect_right(at, a) - 1), len(at) - 1):
            if at[i] >= b:
                break
            lo, hi = max(a, at[i]), min(b, at[i + 1])
            if hi > lo:
                total += (hi - lo) * 2 * CALIBRATION_NOMINAL_S / (cal[i] + cal[i + 1])
        return total

    def norm_wall_s(self) -> float:
        """The measured time in nominal seconds.  Ops cut off by a deadline
        are left out: their time is the deadline's, not the library's, and
        they are counted as failures."""
        return (self.nominal(self.calibrated_at[0], self.calibrated_at[-1])
                - sum(self.nominal(a, b) for (a, b), o in zip(self.spans, self.outcomes)
                      if o == "deadline"))

    def begin(self) -> None:
        self._op_s = 0.0
        self._op_from = self.measured()

    def timed(self, fn: Callable, *args):
        t0 = perf_counter()
        u0 = self.calibrating_s
        try:
            return fn(*args)
        finally:
            self._op_s += perf_counter() - t0 - (self.calibrating_s - u0)

    def timed_with_deadline(self, seconds: float, fn: Callable, *args):
        """``timed``, raising Deadline once the op has taken ``seconds``
        nominal seconds (checked at each calibration)."""
        self.deadline = seconds
        try:
            return self.timed(fn, *args)
        finally:
            self.deadline = math.inf

    def untimed(self, fn: Callable, *args):
        self._busy = True
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                return self.tracer.check(fn, *args)
            return fn(*args)
        finally:
            self.untimed_s += perf_counter() - t0
            self._busy = False

    def check(self, what: str, fn: Callable, *args) -> None:
        rep = self.untimed(fn, *args)
        if not rep:
            raise WrongOutput(f"{what}: {getattr(rep, 'clause', '')} "
                              f"{getattr(rep, 'detail', rep)}")

    def end(self, n: int, outcome: str, out: str, family: str = "") -> None:
        self.spans.append((self._op_from, self.measured()))
        self.latency.append(self._op_s)
        self.sizes.append(n)
        self.families.append(family)
        self.outcomes.append(outcome)
        self.digests.append(out)


def _fresh(g: PlaneGraph) -> PlaneGraph:
    """A copy with no cached faces, boundary or blocks."""
    return PlaneGraph(g.rotation, g.outer)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def build_enumerate(seed: int) -> dict:
    # the enumeration takes no input; the frozen counts are its check
    return {"counts": fixtures.load()}


def run_enumerate(inputs: dict, meter: Meter) -> None:
    per_n: Counter[int] = Counter()
    graphs = enumerate_graphs(ENUMERATE_MAX_N)
    while True:
        meter.begin()
        g = meter.timed(next, graphs, None)
        if g is None:
            break
        per_n[g.n] += 1
        meter.end(g.n, "ok", meter.untimed(digest, g.rotation, g.outer))
    for n in range(1, ENUMERATE_MAX_N + 1):
        want = inputs["counts"][f"plane_graphs_n{n}"]
        if per_n[n] != want:
            raise WrongOutput(f"enumerate_graphs emitted {per_n[n]} graphs with n={n}, "
                              f"counts.tsv {want}")


# ---------------------------------------------------------------------------
# sweep and configs: samples of the corpus
# ---------------------------------------------------------------------------

def _corpus_sample(seed: int, max_n: int, k: int, salt: str) -> dict:
    t0 = perf_counter()
    graphs = corpus.parse(corpus.read_bytes(), max_n)
    parse_s = perf_counter() - t0
    picks = sorted(random.Random(f"{salt}:{seed}").sample(range(len(graphs)), k))
    return {"graphs": [graphs[i] for i in picks], "parse_s": parse_s}


def build_sweep(seed: int) -> dict:
    return _corpus_sample(seed, 9, SWEEP_GRAPHS, "sweep")


def run_sweep(inputs: dict, meter: Meter) -> None:
    for g in inputs["graphs"]:
        meter.begin()
        try:
            dec, trace = meter.timed(decompose_21, g)
        except Exception as exc:  # noqa: BLE001 - a counted failure
            meter.end(g.n, type(exc).__name__, type(exc).__name__)
            continue
        meter.check(f"verify_21 n={g.n} {g.rotation}", verify_21, g, dec)
        colors = meter.timed(defective_coloring, g, dec)
        meter.check(f"check_coloring n={g.n}", check_coloring, g, dec, colors)
        labels = [lab for lab, _ in trace.entries]
        doc = meter.timed(DecompositionDocument.for_graph, g, dec, None, None, labels)
        text = meter.timed(doc.to_json)
        back = meter.timed(DecompositionDocument.from_json, text)
        meter.check(f"document round trip n={g.n}", lambda: back == doc)
        meter.end(g.n, "ok", meter.untimed(
            digest, sorted(dec.arcs), sorted(dec.matching), trace.entries,
            sorted(colors.items()), text))


def build_configs(seed: int) -> dict:
    return _corpus_sample(seed, 8, CONFIGS_GRAPHS, "configs")


def run_configs(inputs: dict, meter: Meter) -> None:
    for g in inputs["graphs"]:
        for quad in enumerate_configurations(g):
            for goal in applicable_goals(g, quad):
                cfg = Configuration(g, quad)
                meter.begin()
                try:
                    dec, trace = meter.timed(decompose_config, cfg, goal)
                except Exception as exc:  # noqa: BLE001 - a counted failure
                    meter.end(g.n, type(exc).__name__, type(exc).__name__)
                    continue
                what = f"{goal} n={g.n} rot={g.rotation} outer={g.outer} path={quad}"
                meter.check(what, verify, g, quad, goal_spec(goal, cfg), dec)
                found = meter.timed(brute_force, g, quad, goal_spec(goal, cfg))
                meter.check(f"brute_force confirmation {what}", lambda: found)
                meter.end(g.n, "ok", meter.untimed(
                    digest, quad, goal, sorted(dec.arcs), sorted(dec.matching),
                    trace.entries))


# ---------------------------------------------------------------------------
# large
# ---------------------------------------------------------------------------

def build_large(seed: int) -> dict:
    cases: list[tuple[str, PlaneGraph]] = []
    cases += [("grid", generators.grid(k, k)) for k in GRID_KS]
    cases += [("ladder2", generators.grid(2, L)) for L in LADDER2_LS]
    cases += [("ladder3", generators.grid(3, L)) for L in LADDER3_LS]
    for k in SUB_KS:
        for share in SUB_SHARES:
            for i in range(SUB_PER_CELL):
                rng = random.Random(f"subgraph:{seed}:{k}:{share}:{i}")
                cases.append(("subgraph", generators.grid_subgraph(k, share, rng)))
    # generation validated these objects; the ops get copies with cold caches
    return {"cases": [(family, _fresh(g)) for family, g in cases]}


def run_large(inputs: dict, meter: Meter, missed: frozenset[int] | None = None) -> None:
    """Deadlines are in nominal seconds, so a verdict does not flip with the
    machine's speed.  ``missed`` is given in a traced pass: the ops that
    missed their deadline untraced, which keep it; every other op's is
    stretched."""
    for i, (family, g) in enumerate(inputs["cases"]):
        seconds = DEADLINE_S[family]
        if missed is not None and i not in missed:
            seconds *= TRACED_DEADLINE_SCALE
        meter.begin()
        try:
            dec, trace = meter.timed_with_deadline(seconds, decompose_21, g)
        except Deadline:
            meter.end(g.n, "deadline", "deadline", family)
            continue
        except Exception as exc:  # noqa: BLE001 - a counted failure
            meter.end(g.n, type(exc).__name__, type(exc).__name__, family)
            continue
        meter.check(f"verify_21 {family} n={g.n}", verify_21, g, dec)
        meter.end(g.n, "ok", meter.untimed(
            digest, sorted(dec.arcs), sorted(dec.matching), trace.entries), family)


def scaling_slope(meter: Meter) -> tuple[float | None, int]:
    """Least-squares slope of log latency against log n over SLOPE_CASES,
    and the number of them that succeeded."""
    pts = [(math.log(n), math.log(t)) for n, t, f, o in
           zip(meter.sizes, meter.latency, meter.families, meter.outcomes)
           if (f, n) in SLOPE_CASES and o == "ok"]
    if len(pts) < 2:
        return None, len(pts)
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx, len(pts)


WORKLOADS = {
    "enumerate": (build_enumerate, run_enumerate),
    "sweep": (build_sweep, run_sweep),
    "configs": (build_configs, run_configs),
    "large": (build_large, run_large),
}
