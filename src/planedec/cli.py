"""Command-line surface binding the library together.

Subcommands: decompose, verify, oracle, enumerate, family, color.  Exit codes:
0 success, 1 verification failure or counterexample, 2 usage errors.  Errors
are emitted as JSON objects on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .config_algebra import Configuration, generate_family
from .decomposition import (ArcInOrientation, ConstraintSpec,
                            EdgeInMatching, MatchedPartnerOnBoundary,
                            check_coloring, defective_coloring, verify,
                            verify_21)
from .io import (DecompositionDocument, FormatError, parse_planar_code,
                 parse_rotation_text)
from .main_decomposer import decompose_21, decompose_config, goal_spec
from .oracle import brute_force, enumerate_graphs
from .plane_graph import PlaneGraph, PlaneGraphError, validate

USAGE_ERROR = 2
FAILURE = 1


def _err(message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": message, **extra}) + "\n")


def _read_graphs(args) -> list[PlaneGraph]:
    data = Path(args.input).read_bytes() if args.input != "-" else sys.stdin.buffer.read()
    if args.format == "planar_code":
        outer = None
        if getattr(args, "outer", None):
            u, v = (int(p) for p in args.outer.replace(",", " ").split())
            outer = (u, v)
        return list(parse_planar_code(data, outer=outer))
    return [parse_rotation_text(data.decode())]


def _parse_path(text: str) -> tuple[int, int, int, int]:
    parts = tuple(int(p) for p in text.replace(",", " ").split())
    if len(parts) != 4:
        raise FormatError("--path needs four vertex ids")
    return parts  # type: ignore[return-value]


def _parse_side(texts) -> list:
    conds = []
    for t in texts or ():
        kind, _, rest = t.partition(":")
        nums = [int(p) for p in rest.replace(",", " ").split()] if rest else []
        if kind == "match" and len(nums) == 2:
            conds.append(EdgeInMatching(*nums))
        elif kind == "arc" and len(nums) == 2:
            conds.append(ArcInOrientation(*nums))
        elif kind == "boundary-partner" and len(nums) == 1:
            conds.append(MatchedPartnerOnBoundary(nums[0]))
        else:
            raise FormatError(f"bad --side value {t!r} "
                              "(match:u,v | arc:u,v | boundary-partner:v)")
    return conds


def cmd_decompose(args) -> int:
    graphs = _read_graphs(args)
    for g in graphs:
        failures = validate(g).failures
        if args.goal == "theorem":
            # decompose_21 takes each component on its own
            failures = [f for f in failures if f[0] != "connected"]
        if failures:
            _err("invalid graph", failures=failures)
            return FAILURE
        if args.goal == "theorem":
            dec, trace = decompose_21(g)
            doc = DecompositionDocument.for_graph(
                g, dec, trace=[lab for lab, _ in trace.entries])
        else:
            if not args.path:
                _err("--path is required for configuration goals")
                return USAGE_ERROR
            path = _parse_path(args.path)
            cfg = Configuration(g, path)
            dec, trace = decompose_config(cfg, args.goal)
            doc = DecompositionDocument.for_graph(
                g, dec, path=path, spec=goal_spec(args.goal, cfg),
                trace=[lab for lab, _ in trace.entries])
        sys.stdout.write(doc.to_json())
    return 0


def cmd_verify(args) -> int:
    graphs = _read_graphs(args)
    if len(graphs) != 1:
        _err("verify expects exactly one graph")
        return USAGE_ERROR
    g = graphs[0]
    doc = DecompositionDocument.from_json(Path(args.document).read_text())
    dec = doc.decomposition()
    if args.a or args.b:
        if not (args.a and args.b and args.path):
            _err("--a/--b/--path must be given together")
            return USAGE_ERROR
        spec = ConstraintSpec.parse(f"{args.a},{args.b}", relaxed=args.relaxed,
                                    side_conditions=_parse_side(args.side))
        rep = verify(g, _parse_path(args.path), spec, dec)
    elif doc.spec is not None and doc.path is not None:
        rep = verify(g, doc.path, doc.spec, dec)
    else:
        rep = verify_21(g, dec)
    if rep.ok:
        print("pass")
        return 0
    _err("verification failed", clause=rep.clause, detail=rep.detail)
    return FAILURE


def cmd_oracle(args) -> int:
    graphs = _read_graphs(args)
    if len(graphs) != 1:
        _err("oracle expects exactly one graph")
        return USAGE_ERROR
    g = graphs[0]
    spec = ConstraintSpec.parse(f"{args.a},{args.b}", relaxed=args.relaxed,
                                side_conditions=_parse_side(args.side))
    result = brute_force(g, _parse_path(args.path), spec, mode=args.mode,
                         edge_cap=args.edge_cap)
    if args.mode == "exists":
        print("true" if result else "false")
        return 0 if result else FAILURE
    if args.mode == "count":
        print(result)
        return 0
    for dec in result:
        doc = DecompositionDocument.for_graph(g, dec, path=_parse_path(args.path),
                                              spec=spec)
        sys.stdout.write(doc.to_json())
    return 0


def cmd_enumerate(args) -> int:
    counts: dict[int, int] = {}
    for g in enumerate_graphs(args.max_n):
        counts[g.n] = counts.get(g.n, 0) + 1
        if args.check:
            dec, _ = decompose_21(g)
    status = 0
    for n in sorted(counts):
        line = f"n={n}\t{counts[n]}"
        if args.check:
            try:
                fixtures.check(f"plane_graphs_n{n}", counts[n])
                line += "\tfixtures-ok\tdecompositions-ok"
            except fixtures.FixtureMismatch as exc:
                line += f"\tFIXTURE-MISMATCH {exc}"
                status = FAILURE
        print(line)
    return status


def cmd_family(args) -> int:
    for d in generate_family(args.max_n):
        if args.tag and not d.tag.startswith(args.tag):
            continue
        cfg = d.config
        entry = {
            "tag": d.tag,
            "n": cfg.graph.n,
            "path": list(cfg.path),
            "rotation": [list(cfg.graph.neighbors(v)) for v in cfg.graph.vertices()],
            "outer": list(cfg.graph.outer),
            "derivation": _derivation_sketch(d),
        }
        print(json.dumps(entry, sort_keys=True))
    return 0


def _derivation_sketch(d) -> str:
    if d.is_leaf:
        return d.tag
    op = {"oplus": "+", "ohat": "^", "otilde": "~"}[d.op]
    return f"({_derivation_sketch(d.left)} {op} {_derivation_sketch(d.right)})"


def cmd_color(args) -> int:
    graphs = _read_graphs(args)
    for g in graphs:
        dec, _ = decompose_21(g)
        colors = defective_coloring(g, dec)
        rep = check_coloring(g, dec, colors)
        defect = {v: sum(1 for u in g.neighbors(v) if colors[u] == colors[v])
                  for v in g.vertices()}
        print(json.dumps({"colors": {str(v): c for v, c in sorted(colors.items())},
                          "max_defect": max(defect.values(), default=0),
                          "valid": rep.ok}, sort_keys=True))
        if not rep.ok:
            return FAILURE
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planedec",
        description="Constructive (2-degenerate + matching) decompositions "
                    "of triangle-free plane graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("planar_code", "text"), default="text")
        p.add_argument("--input", default="-", help="input file (default stdin)")
        p.add_argument("--outer", help="directed edge u,v fixing the outer face "
                                       "(planar_code inputs only)")

    p = sub.add_parser("decompose", help="decompose a graph or configuration")
    add_io(p)
    p.add_argument("--goal", choices=("M0", "M1", "M2", "M3", "theorem"),
                   default="theorem")
    p.add_argument("--path", help="w,x,y,z boundary path for configuration goals")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition document")
    add_io(p)
    p.add_argument("document", help="JSON decomposition document")
    p.add_argument("--path")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--side", action="append")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force search for decompositions")
    add_io(p)
    p.add_argument("--path", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--side", action="append")
    p.add_argument("--mode", choices=("exists", "count", "all"), default="exists")
    p.add_argument("--edge-cap", type=int, default=18)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("enumerate", help="enumerate plane graphs")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="decompose every graph and check fixture counts")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("family", help="emit special-family members")
    p.add_argument("--tag", choices=("R", "R1", "R2", "Q", "P", "P1", "P2", "P3"))
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("color", help="3-coloring with defect at most one")
    add_io(p)
    p.set_defaults(func=cmd_color)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FormatError, PlaneGraphError, ValueError) as exc:
        _err(str(exc), kind=type(exc).__name__)
        return FAILURE if isinstance(exc, PlaneGraphError) else USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
