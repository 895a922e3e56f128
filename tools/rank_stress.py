#!/usr/bin/env python3
"""Rank rule and conditioning of the basis completion on a seeded stress set of C.

    python3 tools/rank_stress.py
    python3 tools/rank_stress.py --root ../other-checkout
    python3 tools/rank_stress.py --refused

The stress set is ``CASES`` cases drawn from
``numpy.random.default_rng(SEED)``, one case after another: n uniform in 2..64, p uniform in 1..min(n, 8), d uniform in
[0, 10), and ``C = U diag(logspace(0, -d, p)) V^T`` with orthonormal U
(p x p) and V (n x p) taken from the QR factors of standard normal
matrices, so sigma_p / sigma_1 = 10^-d falls below the default ``tol_rank``
1e-9 on about a tenth of the cases. The free block lambda is standard
normal ((n - p) x p) on odd cases, else zero, and phi = 0.5 I.

With piobs from ``src/`` of the checkout at ``--root`` (default: this one)
and BLAS pinned to one thread, each C is loaded as
``SystemRealization(0.5 I, 0, C)`` at the default ``tol_rank``; each one
the loader accepts is completed and coupled by one call,
``design.coupling_matrix(C, phi, lam)``. Four figures are printed:

* loader-accepted: the C that ``SystemRealization`` takes;
* completion refusals: accepted C that ``coupling_matrix`` calls rank
  deficient;
* phi-gate passes: completed C whose ``max|-C X + I - phi|`` is at most
  ``design.PHI_IDENTITY_TOL`` (1e-10), the design gate; a singular pivot
  block fails it;
* cond(C_P) / cond(C): median, 99th percentile and maximum over the
  coupled C, C_P being the pivot columns of C: those where the identity
  rows of T are zero.

``--refused`` also lists each refused case (index, n, p, sigma_p/sigma_1).
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Size and seed of the stress set; every published figure uses these.
CASES = 3000
SEED = 20261020


def stress_set():
    """Yield ``(n, p, C, lam)`` for each case of the seeded stress set."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    for i in range(CASES):
        n = int(rng.integers(2, 65))
        p = int(rng.integers(1, min(n, 8) + 1))
        d = float(rng.uniform(0.0, 10.0))
        U = np.linalg.qr(rng.standard_normal((p, p)))[0]
        V = np.linalg.qr(rng.standard_normal((n, p)))[0]
        C = U @ np.diag(np.logspace(0.0, -d, p)) @ V.T
        lam = rng.standard_normal((n - p, p)) if i % 2 else np.zeros((n - p, p))
        yield n, p, C, lam


def run(root, list_refused):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    import numpy as np
    from piobs import RankDeficiencyError, SingularMatrixError, SystemRealization, design

    accepted = refused = passed = 0
    ratios = []
    for i, (n, p, C, lam) in enumerate(stress_set()):
        try:
            SystemRealization(0.5 * np.eye(n), np.zeros((n, 1)), C)
        except RankDeficiencyError:
            continue
        accepted += 1
        phi = 0.5 * np.eye(p)
        try:
            T, X = design.coupling_matrix(C, phi, lam)
        except RankDeficiencyError:
            refused += 1
            if list_refused:
                sv = np.linalg.svd(C, compute_uv=False)
                print(f"refused: case {i} n={n} p={p} sigma_p/sigma_1={sv[-1] / sv[0]:.3e}")
            continue
        except SingularMatrixError:
            continue
        ratios.append(np.linalg.cond(C[:, ~T[p:].any(axis=0)]) / np.linalg.cond(C))
        passed += np.abs(-C @ X + np.eye(p) - phi).max() <= design.PHI_IDENTITY_TOL
    ratios = np.array(ratios)
    print(f"cases {CASES} (seed {SEED})")
    print(f"loader-accepted {accepted}")
    print(f"completion refusals {refused}")
    print(f"phi-gate passes {passed}")
    print(f"cond(C_P)/cond(C) median {np.median(ratios):.3g} "
          f"p99 {np.percentile(ratios, 99):.3g} max {ratios.max():.3g}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT),
                        help="checkout whose src/ is imported (default: this one)")
    parser.add_argument("--refused", action="store_true", help="list each refused case")
    args = parser.parse_args()
    run(args.root, args.refused)
