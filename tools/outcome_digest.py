#!/usr/bin/env python3
"""One line per plant: what ``design_pi_observer`` made of it.

    python3 tools/outcome_digest.py --seeds 1-10 > new.digest
    python3 tools/outcome_digest.py --diff old.digest new.digest

For each seed s the plants are ``plants.sweep_population(s, 0)``,
``plants.sweep_population(s, 1)`` and ``plants.cli_plants(s)`` of the
benchmark (``perfbench/plants.py``, imported, never edited), each designed at
``DesignConfig(seed=s)`` with piobs from ``src/`` of this checkout. A line is
``<seed> <population> <plant> <outcome> <detail>``: the outcome is
``design`` or ``infeasible`` with the sha256 of the report ``piobs design``
writes, ``refused`` for a typed ``NumericalError`` or ``error`` for any
other exception, each with the error text. Run it on two checkouts and
``--diff`` lists every plant whose line changed and counts the outcome moves.
"""

import argparse
import collections
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def outcome(plant, seed, piobs, reportio):
    system = piobs.SystemRealization(plant.A, plant.B, plant.C, name=plant.name)
    try:
        obs = piobs.design_pi_observer(system, piobs.DesignConfig(seed=seed))
        kind, doc = "design", reportio.design_report_doc(obs, obs.verification)
    except piobs.NotDetectableError as exc:
        kind, doc = "infeasible", reportio.infeasible_report_doc(system, exc.witnesses)
    except Exception as exc:
        kind = "refused" if isinstance(exc, piobs.NumericalError) else "error"
        return kind, f"{type(exc).__name__}: {exc}".replace("\n", " ")
    return kind, hashlib.sha256(reportio.dumps_doc(doc).encode()).hexdigest()


def digest(seeds):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import piobs
    import plants
    from piobs import reportio

    for s in seeds:
        main, batch = plants.cli_plants(s)
        groups = [(f"sweep{k}", plants.sweep_population(s, k)) for k in (0, 1)]
        for group, population in groups + [("cli", [main] + batch)]:
            for plant in population:
                kind, detail = outcome(plant, s, piobs, reportio)
                print(s, group, plant.name, kind, detail, flush=True)


def diff(old_path, new_path):
    def read(path):
        with open(path) as f:
            rows = [line.rstrip("\n").split(" ", 4) for line in f]
        return {tuple(r[:3]): (r[3], r[4]) for r in rows}

    old, new = read(old_path), read(new_path)
    moves = collections.Counter()
    for key in sorted(old.keys() | new.keys(), key=lambda k: (int(k[0]), k[1:])):
        a, b = old.get(key, ("absent", "")), new.get(key, ("absent", ""))
        if a != b:
            moves[a[0], b[0]] += 1
            print(" ".join(key), f"{a[0]} -> {b[0]}: {a[1]} -> {b[1]}")
    for name, rows in (("old", old), ("new", new)):
        print(name, dict(sorted(collections.Counter(k for k, _ in rows.values()).items())))
    for (a, b), count in sorted(moves.items()):
        print(f"{a} -> {b}: {count}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last (default %(default)s)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
    else:
        first, _, last = args.seeds.partition("-")
        digest(range(int(first), int(last or first) + 1))
