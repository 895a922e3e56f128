"""Structural analysis of a pair (A, C).

Schur stability, PBH observability of individual eigenvalues, detectability,
full observability, and the observability (Kalman) decomposition that splits
the state space into an observable block and an unobservable block.
Every factorization here (eigenvalues, singular values, the decomposition
basis) is numpy's.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, NumericalError

#: Eigenvalues with magnitude within this distance of 1 count as unstable.
BOUNDARY_TOL = 1e-9
#: Eigenvalues closer than this are treated as one value for PBH purposes.
CLUSTER_TOL = 1e-7


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


def is_schur_stable(M, margin=0.0):
    """Test whether all eigenvalues of M have magnitude below ``1 - margin``."""
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
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


def _check_pair(A, C):
    A = linalg.as_square(A, "A")
    C = linalg.as_matrix(C, "C")
    if C.shape[1] != A.shape[0]:
        raise DimensionError(
            f"C has {C.shape[1]} columns, expected n={A.shape[0]}"
        )
    return A, C


def pbh_rank_at(A, C, z, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Numerical rank of the stacked PBH matrix [C; I z - A] at a point z."""
    A, C = _check_pair(A, C)
    n = A.shape[0]
    stack = np.vstack([C.astype(complex), complex(z) * np.eye(n) - A])
    return linalg.numerical_rank(stack, tol_rank)


def _cluster_representatives(eig, tol=CLUSTER_TOL):
    """Map each eigenvalue to a representative, merging values within ``tol``."""
    reps = []
    assignment = []
    for lam in eig:
        for idx, rep in enumerate(reps):
            if abs(lam - rep) <= tol:
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
    A, C = _check_pair(A, C)
    if not np.any(C):
        raise ValueError("C must be nonzero to classify observability")
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
    witnesses = tuple(c.eigenvalue for c in cls if not c.stable and not c.observable)
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
    A, C = _check_pair(A, C)
    n = A.shape[0]
    s = max(1.0, float(np.linalg.norm(A, 2)))
    blocks = [C]
    for _ in range(n - 1):
        blocks.append((blocks[-1] @ A) / s)
    return np.vstack(blocks)


def observable_dimension(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Dimension q of the observable subspace (rank of the observability stack)."""
    return linalg.numerical_rank(observability_matrix(A, C), tol_rank)


def observability_verdict(classifications, q):
    """Full observability from :func:`classify_eigenvalues` output and stack rank q.

    A disagreement between the PBH test and the stack rank means the pair is
    numerically borderline and is reported as an error rather than silently
    resolved. :func:`is_observable` applies it to every pair, a design only
    where q = n (placement would move a mode PBH calls unobservable).
    """
    pbh_verdict = all(c.observable for c in classifications)
    if pbh_verdict != (q == len(classifications)):
        raise NumericalError(
            "observability is numerically ambiguous: the PBH test and the "
            "observability-stack rank disagree at the current tolerance"
        )
    return pbh_verdict


def is_observable(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Full observability of (A, C): PBH and stack-rank tests that must agree."""
    cls = classify_eigenvalues(A, C, tol_rank)
    return observability_verdict(cls, observable_dimension(A, C, tol_rank))


def kalman_decompose(A, C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Observability decomposition of (A, C) via the SVD of the observability stack.

    The observable coordinates span the row space of the stack and the
    unobservable coordinates its null space. q is the stack's
    :func:`linalg.numerical_rank`, from the same singular values the rank
    tests use; only an unobservable pair then takes numpy's thin SVD for
    the basis, whose column signs are fixed so it is deterministic.
    Observable pairs get the trivial decomposition q = n, T_k = I.
    """
    A, C = _check_pair(A, C)
    n = A.shape[0]
    obs = observability_matrix(A, C)
    q = linalg.numerical_rank(obs, tol_rank)
    if q == 0:
        raise NumericalError("observable subspace is empty; C is numerically zero")
    if q == n:
        return KalmanDecomposition(
            T_k=np.eye(n),
            A11=A.copy(),
            A21=np.zeros((0, n)),
            A22=np.zeros((0, 0)),
            C1=C.copy(),
            q=n,
        )
    # The thin SVD: obs has at least n rows, so Vt is still n x n.
    V = np.linalg.svd(obs, full_matrices=False)[2].T
    # Fix column signs (largest entry positive) so the basis is deterministic.
    for j in range(n):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    T_k = V
    Vo, Vn = V[:, :q], V[:, q:]
    return KalmanDecomposition(
        T_k=T_k,
        A11=Vo.T @ A @ Vo,
        A21=Vn.T @ A @ Vo,
        A22=Vn.T @ A @ Vn,
        C1=C @ Vo,
        q=q,
    )
