"""One benchmark run of one workload, in a fresh process started by run.py.

Prints one JSON object on its last stdout line. With --setup-only it only
times set-up: ``import piobs`` (plus the piobs modules the workload uses)
and the workload's preparation; the benchmark's own input generation,
which sits between the two, is not timed.
"""

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import piobs
    import_s = time.perf_counter() - t0
    out = {
        "import_s": import_s,
        "import_modules": len(sys.modules),
        "scipy_optimize_loaded": int("scipy.optimize" in sys.modules),
        "piobs_file": piobs.__file__,
    }
    import workloads
    imported_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        t1 = time.perf_counter()
        workload.prepare()
        out["setup_s"] = imported_s + time.perf_counter() - t1
        if not args.setup_only:
            out.update(measure(workload, args))
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


def measure(workload, args):
    import numpy
    import scipy

    from tracer import SpanStats
    from workloads import span_metrics

    import piobs

    result = {"env": {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "piobs_backend": piobs.active_backend() if hasattr(piobs, "active_backend") else None,
    }}
    if args.trace:
        untraced, traced, tracer = workload.run_traced(args.seconds)
        runs = [untraced, traced, workload.processes]
        workload.finish()
        layer = span_metrics(SpanStats(tracer.spans))
        layer.update(workload.layer_metrics(untraced, layer))
        overhead = traced.mean_ms() - untraced.mean_ms()
        layer["trace.overhead_ms_per_op"] = overhead
        layer["trace.overhead_share"] = overhead / untraced.mean_ms()
        layer["trace.spans"] = len(tracer.spans)
        result["per_layer"] = layer
        spans_dir = Path(__file__).resolve().parent.parent / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        timed = workload.timed(args.seconds)
        runs = [timed]
        workload.finish()
        result["named"] = workload.named(timed)
    result["peak_rss_mb"] = workload.peak_rss()
    result["attempted"] = sum(r.count for r in runs if r is not None) + workload.EXTRA_OPS
    result["failed"] = workload.failed_ops
    result["refused"] = workload.refused_ops
    result["failures"] = workload.failures[:20]
    if hasattr(workload, "refusals"):
        result["refusals"] = workload.refusals()
    return result


if __name__ == "__main__":
    sys.exit(main())
