"""Structural analysis of a pair (A, C).

Schur stability, PBH observability of individual eigenvalues, detectability,
full observability, and the observability (Kalman) decomposition whose
dimension q and basis come from one orthogonal staircase. Every
factorization here (eigenvalues, singular values) is numpy's.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, InputError, NumericalError, RankDeficiencyError

#: Eigenvalues with magnitude within this distance of 1 count as unstable.
BOUNDARY_TOL = 1e-9
#: Eigenvalues closer than this are treated as one value for PBH purposes.
CLUSTER_TOL = 1e-7
#: Staircase cut over tol_rank for the directions of C / ||C||_2, and over
#: tol_rank * max(1, ||A||_2) for the later couplings, blocks of A. On the
#: benchmark plants the dropped values reach 19 and the kept ones stay above
#: 2.7e5.
STAIRCASE_SCALE = 100.0


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a Schur stability test.

    Truthy when stable; carries the spectral radius and the eigenvalue of
    largest magnitude for diagnostics.
    """

    stable: bool
    spectral_radius: float
    worst_eigenvalue: complex
    margin: float

    def __bool__(self):
        return self.stable


@dataclass(frozen=True)
class EigClassification:
    """One eigenvalue of A with its stability and PBH observability flags."""

    eigenvalue: complex
    magnitude: float
    stable: bool
    observable: bool


@dataclass(frozen=True)
class DetectabilityVerdict:
    """Detectability outcome with the offending eigenvalues as witnesses.

    ``witnesses`` lists the unstable unobservable eigenvalues (with
    multiplicity); it is empty exactly when the pair is detectable.
    """

    detectable: bool
    witnesses: tuple
    classifications: tuple

    def __bool__(self):
        return self.detectable


@dataclass(frozen=True)
class KalmanDecomposition:
    """Observability decomposition of (A, C).

    ``T_k`` is orthogonal with ``T_k.T @ A @ T_k`` block lower triangular:
    an observable block ``A11`` (q x q, with output ``C1``) above an
    unobservable block ``A22``, and ``C @ T_k == [C1, 0]``. For observable
    pairs the decomposition is trivial (q = n, T_k = I).
    """

    T_k: np.ndarray
    A11: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    C1: np.ndarray
    q: int

    @property
    def block_form(self):
        """The transformed A as one matrix [[A11, 0], [A21, A22]]."""
        n = self.T_k.shape[0]
        q = self.q
        out = np.zeros((n, n))
        out[:q, :q] = self.A11
        out[q:, :q] = self.A21
        out[q:, q:] = self.A22
        return out

    def reconstruct(self):
        """Map the block form back to the original coordinates."""
        return self.T_k @ self.block_form @ self.T_k.T

    @property
    def unobservable_eigenvalues(self):
        if self.A22.size == 0:
            return np.array([], dtype=complex)
        return linalg.eigenvalues(self.A22)


def check_margin(margin):
    """Raise :class:`InputError` unless ``margin`` is a real number in [0, 1)."""
    if not (linalg.is_real(margin) and 0.0 <= margin < 1.0):
        raise InputError(f"margin must be in [0, 1), got {margin}")


def is_schur_stable(M, margin=0.0):
    """Test whether all eigenvalues of M have magnitude below ``1 - margin``."""
    check_margin(margin)
    eig = linalg.eigenvalues(M)
    mags = np.abs(eig)
    worst = int(np.argmax(mags))
    radius = float(mags[worst])
    return StabilityVerdict(
        stable=bool(radius < 1.0 - margin),
        spectral_radius=radius,
        worst_eigenvalue=complex(eig[worst]),
        margin=margin,
    )


def check_pair(A, C):
    """Validate (A, C) as a square A and a C with as many columns."""
    A = linalg.as_square(A, "A")
    C = linalg.as_matrix(C, "C")
    if C.shape[1] != A.shape[0]:
        raise DimensionError(
            f"C has {C.shape[1]} columns, expected n={A.shape[0]}"
        )
    return A, C


def pbh_rank_at(A, C, z, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Numerical rank of the stacked PBH matrix [C; I z - A] at a point z."""
    A, C = check_pair(A, C)
    n = A.shape[0]
    stack = np.vstack([C.astype(complex), complex(z) * np.eye(n) - A])
    return linalg.numerical_rank(stack, tol_rank)


def _cluster_representatives(eig):
    """Map each eigenvalue to a representative, merging values within ``CLUSTER_TOL``."""
    reps = []
    assignment = []
    for lam in eig:
        for idx, rep in enumerate(reps):
            if abs(lam - rep) <= CLUSTER_TOL:
                assignment.append(idx)
                break
        else:
            reps.append(lam)
            assignment.append(len(reps) - 1)
    return reps, assignment


def classify_eigenvalues(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Stability and PBH observability of every eigenvalue of A.

    One entry per eigenvalue with multiplicity; the PBH rank is evaluated
    once per cluster of (numerically) equal eigenvalues. Eigenvalues with
    magnitude within ``BOUNDARY_TOL`` of 1 are conservatively unstable.
    """
    A, C = check_pair(A, C)
    if not np.any(C):
        raise RankDeficiencyError("C must be nonzero to classify observability")
    n = A.shape[0]
    eig = linalg.eigenvalues(A)
    reps, assignment = _cluster_representatives(eig)
    rep_observable = [pbh_rank_at(A, C, rep, tol_rank) == n for rep in reps]
    out = []
    for lam, idx in zip(eig, assignment):
        mag = float(abs(lam))
        out.append(
            EigClassification(
                eigenvalue=complex(lam),
                magnitude=mag,
                stable=bool(mag < 1.0 - BOUNDARY_TOL),
                observable=rep_observable[idx],
            )
        )
    return tuple(out)


def is_detectable(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Detectability of (A, C): every unstable eigenvalue passes the PBH test."""
    cls = classify_eigenvalues(A, C, tol_rank)
    witnesses = tuple([c.eigenvalue for c in cls if not c.stable and not c.observable])
    return DetectabilityVerdict(
        detectable=not witnesses,
        witnesses=witnesses,
        classifications=cls,
    )


def observability_matrix(A, C):
    """The stacked observability matrix [C; CA; ...; C A^(n-1)], scaled.

    Each block C A^k is divided by max(1, ||A||_2)^k; row scaling preserves
    rank but keeps the stack balanced for the SVD.
    """
    A, C = check_pair(A, C)
    n = A.shape[0]
    s = max(1.0, float(np.linalg.norm(A, 2)))
    blocks = [C]
    for _ in range(n - 1):
        blocks.append((blocks[-1] @ A) / s)
    return np.vstack(blocks)


def observability_staircase(A, C, tol_rank):
    """q and an orthogonal T_k from the observability staircase (Van Dooren 1981).

    The controllability staircase of (A^T, C^T): SVDs split off the directions
    that C / ||C||_2 sees above ``STAIRCASE_SCALE * tol_rank``, then those
    that the coupling to the block split off last, a block of A, sees above
    ``STAIRCASE_SCALE * tol_rank * max(1, ||A||_2)``, until none is left. The
    scale of the outputs does not change q, so C enters normalized; the scale
    of A does not cut C. C T_k[:, q:] / ||C||_2 fell below the first cut, the
    (1, 2) block of T_k^T A T_k below the second.
    """
    A, C = check_pair(A, C)
    linalg.check_tol_rank(tol_rank)
    n = A.shape[0]
    C = C / (np.linalg.norm(C, 2) or 1.0)
    cut = STAIRCASE_SCALE * tol_rank
    coupling_cut = cut * max(1.0, np.linalg.norm(A, 2))
    T_k, At = np.eye(n), A.copy()
    q, coupling = 0, C
    while q < n:
        _, s, Vt = np.linalg.svd(coupling)
        k = int(np.count_nonzero(s > cut))
        if k == 0:
            break
        T_k[:, q:] = T_k[:, q:] @ Vt.T
        At[:, q:] = At[:, q:] @ Vt.T
        At[q:, :] = Vt @ At[q:, :]
        coupling, cut = At[q:q + k, q + k:], coupling_cut
        q += k
    return q, T_k


def observable_dimension(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Dimension q of the observable subspace, from :func:`observability_staircase`."""
    return observability_staircase(A, C, tol_rank)[0]


def observability_verdict(classifications, q):
    """Full observability from :func:`classify_eigenvalues` output and the staircase's q.

    A disagreement between the PBH test and q means the pair is
    numerically borderline and is reported as an error rather than silently
    resolved. :func:`is_observable` and every design apply it.
    """
    pbh_verdict = all(c.observable for c in classifications)
    if pbh_verdict != (q == len(classifications)):
        raise NumericalError(
            "observability is numerically ambiguous: the PBH test and the "
            "observability staircase disagree at the current tolerance"
        )
    return pbh_verdict


def is_observable(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Full observability of (A, C): PBH and the staircase's q, which must agree."""
    cls = classify_eigenvalues(A, C, tol_rank)
    return observability_verdict(cls, observable_dimension(A, C, tol_rank))


def kalman_decompose(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Observability decomposition of (A, C) on the basis of its staircase.

    q and T_k come from one :func:`observability_staircase`. Observable
    pairs get the trivial decomposition q = n, T_k = I.
    """
    A, C = check_pair(A, C)
    n = A.shape[0]
    q, T_k = observability_staircase(A, C, tol_rank)
    if q == 0:
        raise NumericalError("observable subspace is empty; C is numerically zero")
    if q == n:
        T_k = np.eye(n)
    Vo, Vn = T_k[:, :q], T_k[:, q:]
    return KalmanDecomposition(
        T_k=T_k,
        A11=Vo.T @ A @ Vo,
        A21=Vn.T @ A @ Vo,
        A22=Vn.T @ A @ Vn,
        C1=C @ Vo,
        q=q,
    )
