#!/usr/bin/env python3
"""One line per plant: what ``design_pi_observer`` made of it.

    python3 tools/outcome_digest.py --seeds 1-10 > new.digest
    python3 tools/outcome_digest.py --diff old.digest new.digest
    python3 tools/outcome_digest.py --seeds 1-10 --summary

For each seed s the plants are ``plants.sweep_population(s, 0)``,
``plants.sweep_population(s, 1)`` and ``plants.cli_plants(s)`` of the
benchmark (``perfbench/plants.py``, imported, never edited), each designed at
``DesignConfig(seed=s)`` with piobs from ``src/`` of this checkout. A line is
``<seed> <population> <plant> <outcome> <detail>``: the outcome is
``design`` or ``infeasible`` with the sha256 of the report ``piobs design``
writes, ``refused`` for a typed ``NumericalError`` or ``error`` for any
other exception, each with the error text. Run it on two checkouts and
``--diff`` lists every plant whose line changed and counts the outcome moves;
it exits 1 when any plant's line changed and 0 otherwise.
``--summary`` prints, per state size n instead, the refused/feasible count,
the feasible plants whose ``observable_dimension`` differs from the q they
were built with, and how many designs report a pole split (assigned +
inherited poles) that eig(A + KC) misses by more than 1e-6 in pairing
distance.
"""

import argparse
import collections
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


SPLIT_TOL = 1e-6


def outcome(plant, seed, piobs, reportio):
    """``(kind, detail, split)``; ``split`` is the pairing distance between
    eig(A + KC) and the reported poles of a design, None otherwise."""
    system = piobs.SystemRealization(plant.A, plant.B, plant.C, name=plant.name)
    split = None
    try:
        obs = piobs.design_pi_observer(system, piobs.DesignConfig(seed=seed))
        kind, doc = "design", reportio.design_report_doc(obs, obs.verification)
        closed = piobs.linalg.eigenvalues(system.A + obs.K @ system.C)
        split = piobs.linalg.pairing_distance(closed, obs.assigned_poles + obs.inherited_poles)
    except piobs.NotDetectableError as exc:
        kind, doc = "infeasible", reportio.infeasible_report_doc(system, exc.witnesses)
    except Exception as exc:
        kind = "refused" if isinstance(exc, piobs.NumericalError) else "error"
        return kind, f"{type(exc).__name__}: {exc}".replace("\n", " "), split
    return kind, hashlib.sha256(reportio.dumps_doc(doc).encode()).hexdigest(), split


def digest(seeds, summary=False):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import piobs
    import plants
    from piobs import reportio

    rows = collections.defaultdict(collections.Counter)
    for s in seeds:
        main, batch = plants.cli_plants(s)
        groups = [(f"sweep{k}", plants.sweep_population(s, k)) for k in (0, 1)]
        for group, population in groups + [("cli", [main] + batch)]:
            for plant in population:
                kind, detail, split = outcome(plant, s, piobs, reportio)
                if not summary:
                    print(s, group, plant.name, kind, detail, flush=True)
                row = rows[plant.n]
                row["feasible"] += plant.feasible
                if summary and plant.feasible:
                    row["q_mismatch"] += piobs.observable_dimension(plant.A, plant.C) != plant.q
                row[kind] += 1
                row["misreported"] += split is not None and split > SPLIT_TOL
    if summary:
        print(f"{'n':>3} {'refused/feasible':>16} {'q_mismatch/feasible':>19} misreported/designs")
        for n, row in sorted(rows.items()):
            refused = f"{row['refused']}/{row['feasible']}"
            q_mismatch = f"{row['q_mismatch']}/{row['feasible']}"
            print(f"{n:>3} {refused:>16} {q_mismatch:>19} {row['misreported']:>11}/{row['design']}")


def diff(old_path, new_path):
    """Print the changed plants and the outcome counts; True when any line changed."""
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
    return bool(moves)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last (default %(default)s)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--summary", action="store_true",
                        help="per-n refusals, q mismatches and misreported pole splits "
                             "instead of per-plant lines")
    args = parser.parse_args()
    if args.diff:
        sys.exit(1 if diff(*args.diff) else 0)
    else:
        first, _, last = args.seeds.partition("-")
        digest(range(int(first), int(last or first) + 1), args.summary)
