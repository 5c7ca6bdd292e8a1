"""Per-layer tracing from outside the library.

``install`` replaces each traced function with a wrapper at every place it is
bound: the defining module and every module that imported it with
``from .x import f``.  Calls that resolve the name through a module global
(``_recurse`` reaching ``decompose_config``, say) therefore pass the wrapper
too, and every recursion level becomes a span.

Spans live in memory as parallel arrays (name, parent, start, end) and are
written out by ``dump``.  A span's self time is its duration minus the time
covered by its child spans.  Spans opened while the benchmark checks an
output are kept apart from the spans of the op itself.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

import networkx

from planedec import (config_algebra, decomposition, io, main_decomposer,
                      oracle, plane_graph, special_decomposer, sweeps)

# (owning module, attribute, span name).  Span names follow the layer that
# uses the function: config_key lives in oracle but serves recognition.
TRACED: tuple[tuple[object, str, str], ...] = (
    (plane_graph, "extract_piece", "plane_graph.extract_piece"),
    (plane_graph, "int_subgraph", "plane_graph.int_subgraph"),
    (plane_graph, "chords", "plane_graph.chords"),
    (plane_graph, "two_chords", "plane_graph.two_chords"),
    (decomposition, "verify", "decomposition.verify"),
    (decomposition, "verify_21", "decomposition.verify_21"),
    (decomposition, "defective_coloring", "decomposition.defective_coloring"),
    (decomposition, "check_coloring", "decomposition.check_coloring"),
    (config_algebra, "recognize", "config_algebra.recognize"),
    (config_algebra, "contains_special", "config_algebra.contains_special"),
    (oracle, "config_key", "config_algebra.config_key"),
    (special_decomposer, "decompose_special", "special_decomposer.decompose_special"),
    (main_decomposer, "decompose_21", "main_decomposer.decompose_21"),
    (main_decomposer, "decompose_config", "main_decomposer.decompose_config"),
    (oracle, "enumerate_graphs", "oracle.enumerate_graphs"),
    (oracle, "abstract_graphs_augment", "oracle.abstract_graphs_augment"),
    (oracle, "plane_graphs_of", "oracle.plane_graphs_of"),
    (oracle, "rotation_systems", "oracle.rotation_systems"),
    (oracle, "canonical_form", "oracle.canonical_form"),
    (oracle, "bfs_encode", "oracle.bfs_encode"),
    (oracle, "brute_force", "oracle.brute_force"),
    (oracle, "enumerate_configurations", "oracle.enumerate_configurations"),
    (sweeps, "applicable_goals", "sweeps.applicable_goals"),
    (networkx, "is_isomorphic", "networkx.is_isomorphic"),
    (networkx, "check_planarity", "networkx.check_planarity"),
)
GENERATORS = {"oracle.enumerate_graphs", "oracle.rotation_systems",
              "oracle.enumerate_configurations"}
CHECK = "bench.check"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.active = False
        self.clock: Callable[[], float] = perf_counter
        self.counters: Counter[str] = Counter()
        self.depth = 0
        self.max_depth = 0

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = self.clock()
        self._stack.pop()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def check(self, fn: Callable, *args):
        """Run an output check inside a span that sets its spans apart."""
        if not self.active:
            return fn(*args)
        sid = self._open(self.name_id(CHECK))
        try:
            return fn(*args)
        finally:
            self._close(sid)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each ``next`` on the generator becomes a span; yields are counted."""
        nid = self.name_id(name)
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.active:
                return it

            def spans():
                while True:
                    sid = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    self.counters[yielded] += 1
                    yield item

            return spans()

        return wrapper

    def wrap_depth(self, name: str, fn: Callable) -> Callable:
        """Span wrapper that also tracks the nesting depth of ``fn``."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.depth += 1
            self.max_depth = max(self.max_depth, self.depth)
            try:
                return inner(*args, **kwargs)
            finally:
                self.depth -= 1

        return wrapper

    # -- aggregation -------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        """(calls, self seconds) per span name, for op spans and for spans
        under an output check."""
        n = len(self.span_name)
        child = [0.0] * n
        in_check = [False] * n
        check_id = self._ids.get(CHECK, -2)
        name, parent = self.span_name, self.span_parent
        start, end = self.span_start, self.span_end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
                in_check[sid] = in_check[p] or name[p] == check_id
        calls, self_s = Counter(), Counter()
        check_calls, check_self_s = Counter(), Counter()
        for sid in range(n):
            key = self.names[name[sid]]
            own = end[sid] - start[sid] - child[sid]
            if in_check[sid]:
                check_calls[key] += 1
                check_self_s[key] += own
            else:
                calls[key] += 1
                self_s[key] += own
        return calls, self_s, check_calls, check_self_s

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header next to a binary file holding the
        name ids (int32), parent ids (int32), starts and ends (float64)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.with_suffix(".bin").open("wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps({
            "names": self.names, "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "counters": dict(self.counters)}))


def _rebind(old: object, new: object) -> None:
    """Point every module-level binding of ``old`` at ``new``."""
    for mod in list(sys.modules.values()):
        space = getattr(mod, "__dict__", None)
        if not isinstance(space, dict):
            continue
        for attr, val in list(space.items()):
            if val is old:
                space[attr] = new


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every import site, plus the counters
    that ride on them."""
    c = tracer.counters

    def pieces(args, piece):
        c["plane_graph.extract_piece.vertices_copied"] += piece.graph.n

    def recognized(args, d):
        c["config_algebra.recognize.hits"] += d is not None

    def kept(args, graphs):
        # rotation_systems is only iterated inside plane_graphs_of, so the
        # systems yielded since the previous call belong to this one
        G = args[0]
        faces = 2 - G.number_of_nodes() + G.number_of_edges()
        yielded = c["oracle.rotation_systems.yielded"]
        c["oracle.plane_graphs_of.kept"] += len(graphs)
        c["oracle.plane_graphs_of.tried"] += faces * (yielded - c["_rotations_seen"])
        c["_rotations_seen"] = yielded

    def doc_bytes(args, text):
        c["io.doc_bytes"] += len(text)

    after = {"plane_graph.extract_piece": pieces,
             "config_algebra.recognize": recognized,
             "oracle.plane_graphs_of": kept}
    for owner, attr, name in TRACED:
        old = getattr(owner, attr)
        if name in GENERATORS:
            new = tracer.wrap_generator(name, old)
        elif name == "main_decomposer.decompose_config":
            new = tracer.wrap_depth(name, old)
        else:
            new = tracer.wrap(name, old, after.get(name))
        _rebind(old, new)

    doc = io.DecompositionDocument
    doc.to_json = tracer.wrap("io.to_json", doc.to_json, doc_bytes)
    doc.from_json = staticmethod(tracer.wrap("io.from_json", doc.from_json))

    add = main_decomposer.CaseTrace.add

    def counted_add(self, label: str, detail: str = "") -> None:
        if tracer.active:
            c["main_decomposer.case." + label] += 1
        add(self, label, detail)

    main_decomposer.CaseTrace.add = counted_add


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CASE_LABELS = ("Claim1", "Claim2", "Claim3", "Claim4", "Claim5", "Claim6",
               "Claim7", "Claim8", "Claim9", "Claim10", "Claim11", "CStar",
               "Final", "SpecialFamily", "Tree", "Tiny")
ERROR_CLASSES = ("KeyError", "CounterexampleError", "ValueError",
                 "RecursionError", "other", "deadline")
_CALLS_AND_SELF = ("plane_graph.extract_piece", "decomposition.verify",
                   "config_algebra.recognize", "config_algebra.contains_special",
                   "config_algebra.config_key", "special_decomposer.decompose_special",
                   "main_decomposer.decompose_config", "oracle.canonical_form",
                   "oracle.bfs_encode", "oracle.brute_force")
_SELF_ONLY = ("plane_graph.int_subgraph", "plane_graph.chords", "plane_graph.two_chords",
              "decomposition.verify_21", "decomposition.defective_coloring",
              "oracle.abstract_graphs_augment", "oracle.plane_graphs_of",
              "networkx.is_isomorphic", "networkx.check_planarity",
              "io.to_json", "io.from_json", "sweeps.applicable_goals")
# decomposition.check_coloring only ever runs as the benchmark's output
# check, so its self time is taken from the check spans
_CHECK_SELF = ("decomposition.check_coloring",)


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, which direction is better)."""
    out: dict[str, tuple[str, str]] = {}
    for name in _CALLS_AND_SELF:
        out[name + ".calls"] = ("count", "lower")
        out[name + ".self_s"] = ("s", "lower")
    for name in _SELF_ONLY + _CHECK_SELF:
        out[name + ".self_s"] = ("s", "lower")
    out.update({
        "plane_graph.extract_piece.vertices_copied": ("count", "lower"),
        "decomposition.verify.calls_per_op": ("count/op", "lower"),
        "config_algebra.recognize.hit_ratio": ("ratio", "higher"),
        "main_decomposer.decompose_config.calls_per_op": ("count/op", "lower"),
        "main_decomposer.decompose_config.max_depth": ("count", "lower"),
        "oracle.rotation_systems.yielded": ("count", "lower"),
        "oracle.plane_graphs_of.kept_ratio": ("ratio", "higher"),
        "io.doc_bytes": ("B", "lower"),
        "io.corpus_parse_s": ("s", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    for label in CASE_LABELS:
        out["main_decomposer.case." + label] = ("count", "lower")
    for cls in ERROR_CLASSES:
        out["main_decomposer.errors." + cls] = ("count", "lower")
    return out


def layer_metrics(tracer: Tracer, outcomes: list[str],
                  parse_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except trace.overhead_ratio,
    which needs the untraced pass too."""
    calls, self_s, _, check_self_s = tracer.totals()
    c = tracer.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
    for name in _SELF_ONLY:
        m[name + ".self_s"] = self_s[name]
    for name in _CHECK_SELF:
        m[name + ".self_s"] = check_self_s[name]
    ops = len(outcomes)
    m.update({
        "plane_graph.extract_piece.vertices_copied":
            c["plane_graph.extract_piece.vertices_copied"],
        "decomposition.verify.calls_per_op": ratio(calls["decomposition.verify"], ops),
        "config_algebra.recognize.hit_ratio":
            ratio(c["config_algebra.recognize.hits"], calls["config_algebra.recognize"]),
        "main_decomposer.decompose_config.calls_per_op":
            ratio(calls["main_decomposer.decompose_config"], ops),
        "main_decomposer.decompose_config.max_depth": tracer.max_depth,
        "oracle.rotation_systems.yielded": c["oracle.rotation_systems.yielded"],
        "oracle.plane_graphs_of.kept_ratio":
            ratio(c["oracle.plane_graphs_of.kept"], c["oracle.plane_graphs_of.tried"]),
        "io.doc_bytes": c["io.doc_bytes"],
        "io.corpus_parse_s": parse_s,
    })
    for label in CASE_LABELS:
        m["main_decomposer.case." + label] = c["main_decomposer.case." + label]
    errors = Counter(o if o in ERROR_CLASSES else "other"
                     for o in outcomes if o != "ok")
    for cls in ERROR_CLASSES:
        m["main_decomposer.errors." + cls] = errors[cls]
    return m
