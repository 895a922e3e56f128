"""Independent oracles for the test suite.

Exact rational arithmetic (Fractions) for ranks and small characteristic
polynomials, plus closed-form root formulas. These never touch the library
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


# Polynomials as low-to-high coefficient lists of Fractions.


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_det(P):
    """Determinant of a matrix with polynomial entries (Laplace, first row)."""
    size = len(P)
    if size == 1:
        return P[0][0]
    det = [Fraction(0)]
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in P[1:]]
        term = _poly_mul(P[0][j], _poly_det(minor))
        if j % 2:
            term = [-v for v in term]
        det = _poly_add(det, term)
    return det


def exact_char_poly(M):
    """Characteristic polynomial det(zI - M), highest degree first.

    Cofactor expansion over exact rationals; intended for n <= 4.
    """
    rows = _frac_rows(M)
    n = len(rows)
    P = [
        [
            [-rows[i][j], Fraction(1)] if i == j else [-rows[i][j]]
            for j in range(n)
        ]
        for i in range(n)
    ]
    low_to_high = _poly_det(P)
    return np.array([float(v) for v in reversed(low_to_high)])


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
