#!/usr/bin/env python3
"""The piobs benchmark: seeded workloads, correctness gates, metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: design-sweep, simulate-long, cli-session (``all`` runs the three
one after another). ``--trace 0`` measures the end-to-end metrics and prints
the workload's other named metrics, each with its unit and sample count; ``--trace 1`` gives the per-layer metrics from an untraced and a
traced half run, and the tracing overhead. The metric names and units are
those of ``BENCHMARK.json``. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every correctness gate passed.

Each run starts fresh worker processes one at a time, with BLAS and OpenMP
pinned to one thread, and imports piobs from ``src/`` of this checkout:
three set-up-only workers, the measuring worker, whose own set-up is a
fourth ``setup_s`` sample, and three more set-up-only workers. Nothing here imports numpy, so the workers'
import times are their own.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design-sweep", "simulate-long", "cli-session")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness gate)."""


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    return env


def run_worker(workload, seed, seconds=0.0, trace=0, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    src = (ROOT / "src").resolve()
    if not Path(result["piobs_file"]).resolve().is_relative_to(src):
        raise BenchError(f"worker imported piobs from {result['piobs_file']}, not from {src}")
    return result


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, **PINNED}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(workload, seed, seconds, trace):
    """Measure one workload; return (correct, attempted, failed, metrics)."""
    end_to_end, per_layer = load_spec()
    # Set-up samples before and after the measuring worker, so that they
    # span the run rather than one slow or fast phase of a shared machine.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_worker(workload, seed, setup_only=True) for _ in range(before)]
    main = run_worker(workload, seed, seconds, trace)
    setups.append(main)
    setups += [run_worker(workload, seed, setup_only=True)
               for _ in range(SETUP_SAMPLES - 1 - before)]
    setup_s = statistics.median(s["setup_s"] for s in setups)

    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print("environment: " + json.dumps({**machine(), **main["env"]}))
    if trace:
        values = dict(main["per_layer"])
        values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["cli.import_modules"] = main["import_modules"]
        values["cli.scipy_optimize_loaded"] = main["scipy_optimize_loaded"]
        unknown = set(values) - set(per_layer)
        if unknown:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload never reaches reads 0.
        metrics = {name: values.get(name, 0.0) for name in per_layer}
        units = per_layer
        for name in sorted(values):
            print(f"  {name:<46} {values[name]:>14.6g} {per_layer[name]}")
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": main["peak_rss_mb"]}
        units = end_to_end
        rows = [(name, metrics[name], end_to_end[name],
                 SETUP_SAMPLES if name == "setup_s" else None) for name in end_to_end]
        rows += [(name, value, unit, samples) for name, (value, unit, samples) in main["named"].items()]
        attempted = main["attempted"]
        rows.append(("fail_ratio", main["failed"] / attempted, "failed/attempted", attempted))
        rows.append(("refusal_ratio", main["refused"] / attempted, "refused/attempted", attempted))
        for name, value, unit, samples in rows:
            count = f"  ({samples} samples)" if samples else ""
            print(f"  {name:<24} {value:>14.6g} {unit}{count}")
        print("  setup samples: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    if main.get("refusals"):
        print("  refused (typed NumericalError on a feasible plant), by n: "
              + json.dumps(main["refusals"]))
    for message in main["failures"]:
        print(f"FAIL {workload}: {message}")
    correct = main["failed"] == 0 and not main["failures"]
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return correct, main["attempted"], main["failed"], out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "piobs" / "__init__.py").is_file():
        print(f"perfbench: no piobs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, bad, values = run_one(name, args.seed, args.seconds, args.trace)
            correct, attempted, failed = correct and ok, attempted + att, failed + bad
            metrics.update({(f"{name}.{k}" if len(names) > 1 else k): v for k, v in values.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
