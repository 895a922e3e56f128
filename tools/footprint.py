#!/usr/bin/env python3
"""Peak memory, import time, run time and lazy imports of each ``piobs`` command.

    python3 tools/footprint.py
    python3 tools/footprint.py --root ../other-checkout --repeat 5

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


def measure(argv, root, cwd):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
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
    args = parser.parse_args(argv)
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
