"""Independent oracles for the test suite.

Exact rational arithmetic (Fractions) for ranks, closed-form root formulas
and characteristic-polynomial comparisons. These never touch the library
code paths they are used to check.
"""

import cmath
from fractions import Fraction

import numpy as np


def quadratic_roots(b, c):
    """Roots of z**2 + b z + c by the quadratic formula."""
    disc = cmath.sqrt(b * b - 4 * c)
    return (-b + disc) / 2, (-b - disc) / 2


def _frac_rows(M):
    return [[Fraction(v) for v in row] for row in M]


def exact_rank(M):
    """Rank over the rationals via fraction-free row reduction."""
    rows = _frac_rows(M)
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j] / pr[j]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _frac_matmul(A, B):
    n, k = len(A), len(B[0])
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(k)]
        for i in range(n)
    ]


def exact_observability_rank(A, C):
    """Exact rank of [C; CA; ...; C A^(n-1)] for integer/rational input."""
    A = _frac_rows(A)
    block = _frac_rows(C)
    n = len(A)
    stacked = [row[:] for row in block]
    for _ in range(n - 1):
        block = _frac_matmul(block, A)
        stacked.extend(row[:] for row in block)
    return exact_rank(stacked)


def permuted_max_distance(a, b):
    """Optimal multiset pairing distance, used to compare spectra in tests."""
    import scipy.optimize

    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    r, c = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[r, c].max()) if a.size else 0.0


def assignment_error(A, C, K, target_coeffs):
    """Relative coefficient error between char(A + KC) and the target polynomial."""
    achieved = np.poly(np.linalg.eigvals(A + K @ C)).real
    scale = max(1.0, float(np.max(np.abs(target_coeffs))))
    return float(np.max(np.abs(achieved - target_coeffs))) / scale


def target_coeffs(targets):
    """Real monic polynomial with the given conjugate-closed roots, highest degree first."""
    return np.poly(np.asarray(targets, dtype=complex)).real
