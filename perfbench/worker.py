"""One pass of one workload in a fresh interpreter: set-up, then the
measured phase.  ``run.py`` starts it; by hand, from the repository root:

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep --seed 1

The last line of standard output is one JSON object describing the pass.
Exit code 3 means an output failed its check.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WRONG_OUTPUT = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--check-corpus", action="store_true",
                    help="only check the whole corpus against counts.tsv")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after building the inputs")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--missed", default=None,
                    help="large, traced: comma-separated indices of the ops that "
                         "missed their deadline untraced")
    args = ap.parse_args()
    if args.check_corpus:
        import corpus
        corpus.check(corpus.parse(corpus.read_bytes()))
        return 0
    # networkx warns once that its WL hashes changed in 3.5; irrelevant here
    warnings.filterwarnings("ignore", category=UserWarning, module="networkx")

    t0 = perf_counter()
    import workloads
    import_s = perf_counter() - t0
    build, run = workloads.WORKLOADS[args.workload]

    t0 = perf_counter()
    inputs = build(args.seed)
    build_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "build_s": build_s}))
        return 0

    extra = {}
    if args.missed is not None:
        extra = {"missed": frozenset(int(i) for i in args.missed.split(",") if i)}
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    meter = workloads.Meter(tracer)
    try:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        meter.start()
        run(inputs, meter, **extra)
        meter.stop()
        elapsed = perf_counter() - t0
    except workloads.WrongOutput as exc:
        print(f"wrong output in {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        return WRONG_OUTPUT
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if tracer is not None:
            tracer.active = False

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "build_s": build_s,
        "wall_s": elapsed - meter.untimed_s,
        "norm_wall_s": meter.norm_wall_s(),
        "calibration_s": meter.calibration_s,
        "latency_s": meter.latency,
        "sizes": meter.sizes,
        "families": meter.families,
        "outcomes": meter.outcomes,
        "digests": meter.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.workload == "large":
        result["scaling_slope"], result["slope_points"] = workloads.scaling_slope(meter)
    if tracer is not None:
        units = tracing.per_layer_units()
        layers = tracing.layer_metrics(tracer, meter.outcomes, inputs.get("parse_s", 0.0))
        result["layers"] = {name: [value, units[name][0]] for name, value in layers.items()}
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
