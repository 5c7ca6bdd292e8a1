"""The planedec benchmark.  From the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: enumerate, sweep, configs, large (see perfbench/README.md).

Each pass runs in a fresh interpreter (``worker.py``), so no module-level
memo or cached graph property survives from one pass to the next.  Passes
repeat until ``--seconds`` have gone by; the end-to-end metrics are medians
over the passes.  ``--trace 1`` instead runs pairs of an untraced and a
traced pass, checks that each pair's outputs are identical, and reports the
per-layer metrics of the traced passes.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A wrong output (a count mismatch, a decomposition that
fails verification, outputs that differ between passes) prints
``"correct": false`` and exits 1; a failed op (an exception or a missed
deadline) is counted, not wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("enumerate", "sweep", "configs", "large")
# enumerate emits its graphs in batches, one per abstract graph, so the gap
# between two emitted graphs is no op latency
LATENCY_WORKLOADS = ("sweep", "configs", "large")
WRONG_OUTPUT = 3          # worker exit code for an output that failed its check
RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 5         # set-up is the median of at least this many

# end-to-end metrics: name -> unit; every workload reports all of them.
# The norm_ figures are rescaled to a nominal machine speed: the worker times
# workloads.calibration_loop every 0.1 s of CPU time (see workloads.Meter).
END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "norm_ops_per_s": "1/s",
              "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, crashed worker)."""


def corpus_checked(deadline: float) -> None:
    """Check the whole corpus in a process of its own, once per corpus and
    library sources: a marker file records that the check passed."""
    key = hashlib.sha256((HERE / "corpus_n9.pc.gz").read_bytes())
    src = ROOT / "src" / "planedec"
    for path in sorted(src.rglob("*.py")) + [src / "data" / "counts.tsv"]:
        key.update(path.read_bytes())
    marker = OUT_DIR / f"corpus-checked-{key.hexdigest()[:16]}"
    if marker.exists():
        return
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--check-corpus"],
                              cwd=ROOT, env=worker_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the corpus check did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError("the corpus failed its check against counts.tsv")
    OUT_DIR.mkdir(exist_ok=True)
    marker.touch()


def worker_env() -> dict[str, str]:
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_pass(workload: str, seed: int, deadline: float, *, trace: bool = False,
             extra: tuple[str, ...] = ()) -> dict | None:
    """One worker pass; its result, or None on a wrong output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish within the run limit") from exc
    if proc.returncode == WRONG_OUTPUT:
        return None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def another(start: float, done: int, seconds: float, deadline: float) -> bool:
    """Whether to start another pass: until ``seconds`` have gone by, and only
    if one more of the average length still ends before the deadline."""
    elapsed = time.monotonic() - start
    return not done or (elapsed < seconds and time.monotonic() + elapsed / done < deadline)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def same_outputs(a: dict, b: dict) -> str | None:
    """Where two passes of one workload and seed disagree, or None.  Ops that
    missed a deadline in either pass are not compared."""
    if len(a["digests"]) != len(b["digests"]):
        return f"{len(a['digests'])} ops against {len(b['digests'])}"
    for i, (x, y) in enumerate(zip(a["digests"], b["digests"])):
        if "deadline" in (x, y):
            continue
        if x != y:
            return f"op {i} (n={a['sizes'][i]}): {a['outcomes'][i]} against {b['outcomes'][i]}"
    return None


def completed(p: dict) -> int:
    """Ops of a pass that ran to the end, with a result or an exception;
    norm_wall_s leaves out the ops cut off by a deadline."""
    return sum(o != "deadline" for o in p["outcomes"])


def summarize(passes: list[dict], setups: list[float]) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics over the passes, plus report lines for them and
    for the workload-specific figures that not every workload has."""
    norm_wall = [p["norm_wall_s"] for p in passes]
    figures = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "ops_per_s": (statistics.median(len(p["outcomes"]) / p["wall_s"] for p in passes), "1/s"),
        "norm_wall_s": (statistics.median(norm_wall), "s"),
        "norm_ops_per_s": (statistics.median(completed(p) / w
                                             for p, w in zip(passes, norm_wall)), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    ops = sum(len(p["outcomes"]) for p in passes)
    notes = {"setup_s": f"median of {len(setups)} set-ups: import and input build",
             "wall_s": f"median of {len(passes)} passes, {ops // len(passes)} ops each",
             "norm_wall_s": f"at nominal speed, {sum(len(p['calibration_s']) for p in passes)} "
                            "calibrations"}
    lines = [f"  {name:<16} {v:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
             for name, (v, unit) in figures.items()]
    metrics = {name: figures[name][0] for name in END_TO_END}

    # a failed op counts as missing every latency percentile; the figure over
    # the ops that succeeded follows in brackets
    every = [[t if o == "ok" else math.inf for t, o in zip(p["latency_s"], p["outcomes"])]
             for p in passes]
    ok = [[t for t, o in zip(p["latency_s"], p["outcomes"]) if o == "ok"] for p in passes]
    for q in (50, 90, 99) if passes[0]["workload"] in LATENCY_WORKLOADS else ():
        if ops // len(passes) >= 10 * 100 / (100 - q):  # ten samples beyond it
            v = statistics.median(percentile(x, q) for x in every) * 1000
            line = f"  latency_p{q}_ms   {v:.6g} ms  (median over passes, n={ops}"
            if math.isinf(v) and all(ok):
                w = statistics.median(percentile(x, q) for x in ok) * 1000
                line += f"; {w:.6g} ms over the {sum(map(len, ok))} that succeeded"
            lines.append(line + ")")
    failures = Counter(o for p in passes for o in p["outcomes"] if o != "ok")
    failed = sum(failures.values())
    detail = ", ".join(f"{k} {v}" for k, v in sorted(failures.items()))
    lines.append(f"  fail_ratio       {failed / ops:.6g}  ({failed}/{ops}{': ' + detail if detail else ''})")
    slopes = [p["scaling_slope"] for p in passes if p.get("scaling_slope") is not None]
    if slopes:
        lines.append(f"  scaling_slope    {statistics.median(slopes):.6g}  "
                     f"(log latency against log n, {passes[0]['slope_points']} graphs)")
    return metrics, lines


def check_definition(layers: dict | None) -> None:
    """The metric names and units here must match BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise BenchError(f"BENCHMARK.json end_to_end {declared} != run.py {END_TO_END}")
    if layers is not None:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        emitted = {name: unit for name, (_, unit) in layers.items()}
        if declared != emitted:
            raise BenchError("BENCHMARK.json per_layer differs from the traced metrics: "
                             f"{sorted(set(declared) ^ set(emitted))}")


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[dict], bool]:
    passes: list[dict] = []
    start = time.monotonic()
    while another(start, len(passes), seconds, deadline):
        result = run_pass(workload, seed, deadline)
        if result is None:
            return passes, False
        passes.append(result)
    for other in passes[1:]:
        diff = same_outputs(passes[0], other)
        if diff:
            print(f"outputs differ between passes of {workload}: {diff}", file=sys.stderr)
            return passes, False
    return passes, True


def setup_times(workload: str, seed: int, passes: list[dict], deadline: float) -> list[float]:
    """Set-up time of every pass, topped up with set-up-only passes."""
    setups = [p["import_s"] + p["build_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        result = run_pass(workload, seed, deadline, extra=("--setup-only",))
        setups.append(result["import_s"] + result["build_s"])
    return setups


def measure_traced(workload: str, seed: int, seconds: float, deadline: float
                   ) -> tuple[list[dict], bool, dict[str, tuple[float, str]]]:
    """Pairs of an untraced and a traced pass until ``seconds`` have gone by.
    Each traced pass must reproduce its untraced partner's outputs."""
    plains: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while another(start, len(plains), seconds, deadline):
        plain = run_pass(workload, seed, deadline)
        if plain is None:
            return plains, False, {}
        extra: tuple[str, ...] = ()
        if workload == "large":
            missed = [str(i) for i, o in enumerate(plain["outcomes"]) if o == "deadline"]
            extra = ("--missed", ",".join(missed))
        plains.append(plain)
        result = run_pass(workload, seed, deadline, trace=True, extra=extra)
        if result is None:
            return plains, False, {}
        diff = same_outputs(plain, result)
        if diff:
            print(f"traced outputs differ from untraced ones in {workload}: {diff}",
                  file=sys.stderr)
            return plains, False, {}
        traced.append(result)
    # counts repeat exactly from pass to pass; times are medians
    layers = {name: (statistics.median(t["layers"][name][0] for t in traced), unit)
              for name, (_, unit) in traced[0]["layers"].items()}
    ratio = statistics.median(t["wall_s"] / p["wall_s"] for p, t in zip(plains, traced))
    layers["trace.overhead_ratio"] = (ratio, "ratio")
    return plains, True, layers


def _terminate(signum, frame):
    # subprocess.run kills and reaps the running worker on the way out
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "planedec").is_dir():
            raise BenchError(f"no planedec sources under {ROOT / 'src'}")
        check_definition(None)
        if args.workload in ("sweep", "configs"):
            corpus_checked(deadline)
        if args.trace:
            passes, correct, layers = measure_traced(args.workload, args.seed, args.seconds,
                                                     deadline)
            check_definition(layers or None)
            setups = [p["import_s"] + p["build_s"] for p in passes]
        else:
            passes, correct = measure(args.workload, args.seed, args.seconds, deadline)
            setups = setup_times(args.workload, args.seed, passes, deadline) if passes else []
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    metrics: dict[str, dict] = {}
    if passes:
        e2e, lines = summarize(passes, setups)
        print("\n".join(lines))
        if correct and not args.trace:
            metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}
    if correct and args.trace:
        for name, (v, u) in layers.items():
            print(f"  {name:<48} {v:.6g} {u}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(o != "ok" for p in passes for o in p["outcomes"])
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
