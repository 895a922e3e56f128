"""Dense real-matrix numerics shared by every other module.

All operations work on plain numpy float64 arrays (row-major), are pure
functions of their inputs and never mutate arguments, so callers may share
values freely across threads.

Everything here is numpy: ranks and condition numbers take numpy's
singular values (equal to scipy's ``svdvals`` bit for bit), :func:`solve`
is numpy's LU solve with one refinement step, and spectrum pairing is a
port of scipy's ``linear_sum_assignment``. No piobs module imports scipy.
"""

import numpy as np

from .errors import (
    DimensionError,
    InputError,
    NumericalError,
    RankDeficiencyError,
    SingularMatrixError,
)

#: Relative singular-value threshold for numerical rank decisions.
DEFAULT_TOL_RANK = 1e-9
#: Eigenvalue tolerance used when comparing spectra or polynomial roots.
DEFAULT_TOL_EIG = 1e-8
#: Reciprocal condition floor below which a linear solve is refused.
DEFAULT_TOL_COND = 1e-12
#: Tolerance for conjugate-closure checks on spectra and pole sets.
CONJUGATE_TOL = 1e-9


def as_matrix(M, name="matrix"):
    """Validate and return ``M`` as a finite 2-D float64 array.

    Scalars are promoted to 1x1. Anything else that is not 2-D, or that
    contains NaN/Inf, is rejected.
    """
    try:
        arr = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: entries are not numeric: {exc}") from exc
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name}: empty matrix of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: contains non-finite entries")
    return arr


def as_square(M, name="matrix"):
    """Like :func:`as_matrix` but additionally require a square shape."""
    arr = as_matrix(M, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got {arr.shape}")
    return arr


def as_vector(x, size, name="vector"):
    """Validate ``x`` as a finite 1-D float64 array of length ``size``."""
    try:
        arr = np.asarray(x, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: entries are not numeric: {exc}") from exc
    if arr.shape[0] != size:
        raise DimensionError(f"{name}: expected length {size}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: contains non-finite entries")
    return arr


def sort_spectrum(values):
    """Canonical ordering of a spectrum: by real part, then imaginary part."""
    return np.sort_complex(np.asarray(values, dtype=complex))


def eigenvalues(M):
    """All eigenvalues of a square real matrix, canonically sorted.

    Backed by the LAPACK Hessenberg + shifted-QR path; conjugate symmetry of
    the output is inherited from the real Schur form.
    """
    M = as_square(M, "eigenvalues: matrix")
    try:
        eig = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    return sort_spectrum(eig)


def numerical_rank(M, tol_rank=DEFAULT_TOL_RANK):
    """Number of singular values above ``tol_rank`` times the largest one.

    The zero matrix has rank 0. Accepts real or complex input (the PBH test
    stacks complex matrices).
    """
    if tol_rank <= 0:
        raise InputError(f"tol_rank must be positive, got {tol_rank}")
    arr = np.asarray(M)
    if arr.size == 0:
        return 0
    if not np.all(np.isfinite(arr)):
        raise InputError("numerical_rank: matrix contains non-finite entries")
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol_rank * sv[0]))


def char_poly(M):
    """Monic characteristic polynomial coefficients, highest degree first.

    Computed from the eigenvalues, so roots of the result match
    :func:`eigenvalues` by construction.
    """
    M = as_square(M, "char_poly: matrix")
    return poly_from_roots(eigenvalues(M))


def poly_from_roots(roots, tol=CONJUGATE_TOL):
    """Real monic polynomial with the given conjugate-closed root multiset.

    Real roots contribute linear factors and conjugate pairs contribute real
    quadratic factors, so the coefficients are exactly real.
    """
    reals, pairs = group_conjugate_roots(roots, tol=tol)
    coeffs = np.array([1.0])
    for r in reals:
        coeffs = np.convolve(coeffs, [1.0, -r])
    for z in pairs:
        coeffs = np.convolve(coeffs, [1.0, -2.0 * z.real, z.real**2 + z.imag**2])
    return coeffs


def group_conjugate_roots(values, tol=CONJUGATE_TOL):
    """Split a conjugate-closed multiset into real roots and one root per pair.

    Returns ``(reals, pairs)`` where ``pairs`` holds the positive-imaginary
    representative of each conjugate pair. Raises :class:`InputError` when the
    multiset is not closed under conjugation within ``tol``.
    """
    vals = np.asarray(values, dtype=complex).reshape(-1)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    reals = [v.real for v in vals if abs(v.imag) <= tol * scale]
    upper = sorted((v for v in vals if v.imag > tol * scale), key=lambda z: (z.real, z.imag))
    lower = sorted((v for v in vals if v.imag < -tol * scale), key=lambda z: (z.real, -z.imag))
    if len(upper) != len(lower):
        raise InputError("root multiset is not closed under complex conjugation")
    pairs = []
    for u, l in zip(upper, lower):
        if abs(u - np.conj(l)) > 10 * tol * scale:
            raise InputError(
                f"root multiset is not conjugate-closed: {u} has no conjugate partner"
            )
        pairs.append(complex(u))
    return reals, pairs


def is_conjugate_closed(values, tol=CONJUGATE_TOL):
    """True when the multiset equals its elementwise conjugate within ``tol``."""
    try:
        group_conjugate_roots(values, tol=tol)
    except InputError:
        return False
    return True


def solve(M, rhs, tol_cond=DEFAULT_TOL_COND):
    """Solve ``M @ Y = rhs`` for square nonsingular ``M``.

    Refuses matrices whose reciprocal condition estimate falls below
    ``tol_cond``. One step of iterative refinement keeps the residual near
    machine precision even for moderately conditioned systems.
    """
    M = as_square(M, "solve: matrix")
    rhs_arr = as_matrix(rhs, "solve: right-hand side")
    if rhs_arr.shape[0] != M.shape[0]:
        raise DimensionError(
            f"solve: right-hand side has {rhs_arr.shape[0]} rows, expected {M.shape[0]}"
        )
    rcond = reciprocal_condition(M)
    if not np.isfinite(rcond) or rcond < tol_cond:
        raise SingularMatrixError("matrix is singular or near-singular", rcond=rcond)
    # numpy exposes no LU factors, so the refinement step factors M again;
    # that costs little at the sizes piobs solves.
    Y = np.linalg.solve(M, rhs_arr)
    Y += np.linalg.solve(M, rhs_arr - M @ Y)
    return Y


def reciprocal_condition(M):
    """Reciprocal 2-norm condition number (0 for exactly singular input)."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def complete_row_basis(C, tol_rank=DEFAULT_TOL_RANK):
    """Extend a full-row-rank ``C`` (p x n) to a nonsingular n x n matrix T.

    The first p rows of T are exactly C; the remaining rows are standard
    basis vectors at the non-pivot columns of C, so ``[I_p, 0] @ T == C``
    holds exactly. Pivot columns are found by row-echelon elimination with
    threshold column pivoting: the leftmost column whose pivot is within a
    constant factor of the best available one wins, which keeps the result
    deterministic and integer-friendly without letting T become badly
    conditioned.
    """
    C = as_matrix(C, "complete_row_basis: C")
    p, n = C.shape
    if p > n:
        raise DimensionError(f"complete_row_basis: C has more rows ({p}) than columns ({n})")
    pivots = _pivot_columns(C, tol_rank)
    if len(pivots) < p:
        raise RankDeficiencyError(
            f"C must have full row rank {p}, numerical elimination found rank {len(pivots)}"
        )
    free = [j for j in range(n) if j not in set(pivots)]
    T = np.vstack([C, np.eye(n)[free]]) if free else C.copy()
    if numerical_rank(T, tol_rank) < n:
        raise NumericalError("row-basis completion produced a rank-deficient matrix")
    return T


def _pivot_columns(C, tol_rank, relax=0.25):
    """Pivot column indices of C via elimination with threshold column pivoting.

    ``relax`` is the fraction of the best available pivot magnitude a more
    leftward column may have and still be preferred.
    """
    R = C.astype(float, copy=True)
    p, n = R.shape
    negligible = tol_rank * max(1.0, float(np.max(np.abs(R))))
    pivots = []
    remaining = list(range(n))
    for r in range(p):
        mags = np.abs(R[r:, remaining]).max(axis=0)
        best = float(mags.max())
        if best <= negligible:
            break
        j = remaining[int(np.argmax(mags >= max(relax * best, negligible)))]
        i = r + int(np.argmax(np.abs(R[r:, j])))
        R[[r, i]] = R[[i, r]]
        R[r + 1:] -= np.outer(R[r + 1:, j] / R[r, j], R[r])
        pivots.append(j)
        remaining.remove(j)
    return sorted(pivots)


def pairing_distance(a, b):
    """Largest distance within the minimum-total-distance pairing of two multisets.

    The pairing is the one-to-one assignment that minimises the *sum* of
    distances; the result is the largest distance inside it. That is not the
    bottleneck pairing, which would minimise the largest distance, and can
    exceed it. Returns ``inf`` when the multisets have different sizes. Used
    to compare spectra that should agree as multisets.

    The value equals what scipy's ``linear_sum_assignment`` gives, bit for
    bit, without loading scipy. It comes from one of two routes:

    * **Row-minimum certificate.** Values of ``b`` that are equal form one
      class, whose columns of ``cost = |a_i - b_j|`` are identical. If every
      row has all its minima in a single class, and no class is the minimum
      of more rows than it has members, then taking each row's minimum is a
      pairing of least total, and the answer is the largest row minimum.
      The shortest-augmenting-path routine below reaches the same entries:
      it then gives each row in turn a free column of its class at once,
      with the dual variables still zero.
    * **Shortest augmenting paths** (:func:`_assign_rows`), a port of
      scipy's routine, decide every other case. Optimal pairings can tie in
      total but not in their largest distance, so scipy's tie-break is kept:
      for ``a = [1, 0]``, ``b = [2, 1]`` both pairings total 2 and the result
      is 2, not 1.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.size != b.size:
        return float("inf")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    low = cost.min(axis=1)
    same = b[:, None] == b
    near = same[cost.argmin(axis=1)]
    if (np.isfinite(low).all() and np.all(near >= (cost == low[:, None]))
            and np.all(near.sum(axis=0) <= same.sum(axis=0))):
        return float(low.max())
    return float(cost[np.arange(a.size), _assign_rows(cost)].max())


def _assign_rows(cost):
    """Column of each row in scipy's minimum-total-cost assignment of square ``cost``.

    A line-for-line port of the square case of scipy's
    ``linear_sum_assignment`` (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016). Row ``cur`` joins along a
    shortest augmenting path in the reduced costs
    ``min_val + cost[i, j] - u[i] - v[j]``, evaluated in that order, and the
    dual variables ``u``, ``v`` are updated as scipy does. The free columns
    are scanned from the last to the first, a scanned-out column being
    replaced by the last one still listed, and among equally near columns
    the last unassigned one wins, else the first. So ties resolve as in
    scipy and the assignment is scipy's.
    """
    if np.isnan(cost).any():
        raise ValueError("pairing_distance: distances contain NaN")
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    for cur in range(n):
        shortest = np.full(n, np.inf)
        rows_seen = np.zeros(n, dtype=bool)
        cols_seen = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)
        left = n
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            rows_seen[i] = True
            rem = remaining[:left]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            better = r < shortest[rem]
            nearer = rem[better]
            path[nearer] = i
            shortest[nearer] = r[better]
            reach = shortest[rem]
            min_val = reach.min()
            if min_val == np.inf:
                raise ValueError("pairing_distance: no pairing of finite distance")
            ties = np.flatnonzero(reach == min_val)
            free = ties[row4col[rem[ties]] == -1]
            index = free[-1] if free.size else ties[0]
            j = rem[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            left -= 1
            remaining[index] = remaining[left]
        u[cur] += min_val
        rows_seen[cur] = False
        u[rows_seen] += min_val - shortest[col4row[rows_seen]]
        v[cols_seen] -= min_val - shortest[cols_seen]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row
