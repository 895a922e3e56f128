#!/usr/bin/env python3
"""Peak memory, import time, run time and lazy imports of each ``piobs`` command.

    python3 tools/footprint.py
    python3 tools/footprint.py --root ../other-checkout --repeat 5
    python3 tools/footprint.py --designs 5000 [--root ../other-checkout]

Each command runs on the plants of ``tests/data`` in a fresh interpreter,
with ``src/`` of the checkout at ``--root`` (default: this one) on the path
and BLAS pinned to one thread. The interpreter times ``import piobs.cli``,
then runs ``piobs.cli.main(argv)`` with its output discarded and reports
its own peak RSS (``ru_maxrss``). A row gives the exit code, peak RSS in MB,
import and ``main`` wall times in ms, and the modules outside the standard
library that ``main`` loaded on top of the import, so a lazy import shows up
by name (a subpackage with the count of its modules, as ``numpy.ma[3]``).
Each command runs ``--repeat`` times; the row keeps the smallest RSS and
times, and the module list of the first run.

``--designs N`` measures memory per design instead: one fresh interpreter
designs the n <= 16 plants of ``plants.sweep_population(1, 0)`` and
``(1, 1)`` of the benchmark (``perfbench/plants.py``, imported, never
edited) at ``DesignConfig(seed=1)``, round trips each report through
``dumps_doc``, ``json.loads`` and ``observer_from_report`` (or writes the
infeasible report), and repeats the plants until N designs are done. It
reads ``RssAnon`` of ``/proc/self/status`` after one warm-up pass and after
the N designs, and prints the growth in MB and in MB per 1 000 designs. A
design path that keeps its memory flat grows by a fraction of 1 MB
whatever N is.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs in the fresh interpreter: argv[1:] are the piobs arguments.
CHILD = """\
import contextlib, io, json, resource, sys, time
t0 = time.perf_counter()
import piobs.cli
t1 = time.perf_counter()
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = piobs.cli.main(sys.argv[1:])
t2 = time.perf_counter()
new = sorted(m for m in set(sys.modules) - before
             if m.split('.')[0] not in sys.stdlib_module_names)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"exit": code, "rss_mb": rss_mb, "import_ms": 1e3 * (t1 - t0),
                  "main_ms": 1e3 * (t2 - t1), "modules": new}))
"""


#: Runs in the fresh interpreter: argv[1] is the number of designs.
DESIGNS_CHILD = """\
import itertools, json, sys
import piobs, plants
from piobs import reportio

def rss_anon_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssAnon:"))

def design(plant):
    system = piobs.SystemRealization(plant.A, plant.B, plant.C, name=plant.name)
    try:
        obs = piobs.design_pi_observer(system, piobs.DesignConfig(seed=1))
    except piobs.NotDetectableError as exc:
        reportio.dumps_doc(reportio.infeasible_report_doc(system, exc.witnesses))
        return
    text = reportio.dumps_doc(reportio.design_report_doc(obs, obs.verification))
    reportio.observer_from_report(system, json.loads(text))

small = [pl for k in (0, 1) for pl in plants.sweep_population(1, k) if pl.n <= 16]
for plant in small:
    design(plant)
before = rss_anon_kb()
for plant in itertools.islice(itertools.cycle(small), int(sys.argv[1])):
    design(plant)
print(json.dumps({"plants": len(small), "before_kb": before, "after_kb": rss_anon_kb()}))
"""


def commands(data, work, horizon):
    """(label, argv) of each command, on the committed plants and design."""
    obs, unobs, misjudged = (str(data / f"{s}.system.json")
                             for s in ("observable5", "unobservable4", "misjudged24"))
    report = str(data / "observable5.design-seed5.json")
    simulate = ["simulate", obs, report, "--horizon", str(horizon)]
    return [
        ("analyze", ["analyze", unobs]),
        ("design", ["design", obs, "--seed", "5", "--out", str(work / "report.json")]),
        ("verify", ["verify", obs, report]),
        ("simulate --input random", simulate + ["--input", "random", "--seed", "5",
                                                "--out", str(work / "trace.csv")]),
        ("simulate --input zero", simulate + ["--input", "zero",
                                              "--out", str(work / "trace.csv")]),
        ("batch", ["batch", obs, unobs, misjudged, "--seed", "5",
                   "--out-dir", str(work / "reports")]),
    ]


def measure(argv, root, cwd, child=CHILD, paths=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), *paths]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    proc = subprocess.run([sys.executable, "-c", child, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} crashed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def packages(modules):
    """``numpy.ma[3]`` for numpy.ma and two of its submodules; a lone module by name."""
    counts = {}
    for m in modules:
        key = ".".join(m.split(".")[:2])
        counts[key] = counts.get(key, 0) + 1
    return " ".join(k if c == 1 else f"{k}[{c}]" for k, c in counts.items()) or "-"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--repeat", type=int, default=3, help="runs per command")
    parser.add_argument("--horizon", type=int, default=200,
                        help="simulate horizon; observable5 is unstable and "
                             "overflows at step 205")
    parser.add_argument("--designs", type=int, metavar="N",
                        help="measure RssAnon growth over N designs instead")
    args = parser.parse_args(argv)
    if args.designs is not None:
        with tempfile.TemporaryDirectory() as tmp:
            run = measure([str(args.designs)], args.root.resolve(), tmp, DESIGNS_CHILD,
                          [str(ROOT / "perfbench")])
        growth = (run["after_kb"] - run["before_kb"]) / 1024
        print(f"{args.designs} designs over {run['plants']} plants (n <= 16): RssAnon "
              f"{run['before_kb'] / 1024:.2f} -> {run['after_kb'] / 1024:.2f} MB, "
              f"growth {growth:+.2f} MB, {1000 * growth / max(args.designs, 1):+.3f} MB "
              "per 1000 designs")
        return
    print(f"{'command':<24} {'exit':>4} {'peak MB':>8} {'import ms':>9} {'main ms':>8}  "
          "modules loaded by main")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, cmd in commands(ROOT / "tests" / "data", work, args.horizon):
            runs = [measure(cmd, args.root.resolve(), work) for _ in range(args.repeat)]
            best = {key: min(r[key] for r in runs) for key in ("rss_mb", "import_ms", "main_ms")}
            print(f"{label:<24} {runs[0]['exit']:>4} {best['rss_mb']:>8.2f} "
                  f"{best['import_ms']:>9.1f} {best['main_ms']:>8.1f}  "
                  f"{packages(runs[0]['modules'])}", flush=True)


if __name__ == "__main__":
    main()
