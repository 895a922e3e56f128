"""Seeded random system generators for the property and acceptance suites.

Detectable systems are assembled in staircase coordinates so the observable
dimension, the unobservable spectrum, and detectability itself are known by
construction. Spectral radii are kept modest (unstable modes at most ~1.03)
so 500-step simulations stay far from both the overflow guard and the
floating-point cancellation floor.
"""

import numpy as np
import scipy.linalg

from piobs import NumericalError, SystemRealization, analysis


def rand_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _scaled_to_radius(rng, size, radius):
    while True:
        M = rng.standard_normal((size, size))
        r = float(np.max(np.abs(np.linalg.eigvals(M))))
        if r > 1e-9:
            return M * (radius / r)


def random_observable_pair(rng, q, p, radius, pbh_margin=1e-3):
    """Pair (A, C) of sizes (q x q, p x q), observable with healthy margins.

    Draws are rejected until every eigenvalue clears the PBH test with a
    relative margin of ``pbh_margin``: nearly unobservable pairs force
    enormous (and numerically meaningless) observer gains, which is the
    boundary regime, not the representative one.
    """
    assert 1 <= p <= q
    while True:
        A = _scaled_to_radius(rng, q, radius)
        C = rng.standard_normal((p, q))
        sv = scipy.linalg.svdvals(C)
        if sv[-1] < 1e-3 * sv[0]:
            continue
        eig = np.linalg.eigvals(A)
        margins = []
        for lam in eig:
            stack = np.vstack([C.astype(complex), lam * np.eye(q) - A])
            s = scipy.linalg.svdvals(stack)
            margins.append(s[-1] / s[0])
        if min(margins) < pbh_margin:
            continue
        try:
            if analysis.is_observable(A, C):
                return A, C
        except NumericalError:
            continue


def random_detectable_system(rng, n=None, p=None, m=None, unobs_prob=0.4,
                             unstable_prob=0.25, force_unobservable=False):
    """A seeded random detectable plant; unstable modes are always observable."""
    if n is None:
        n = int(rng.integers(2, 9)) if force_unobservable else int(rng.integers(1, 9))
    if p is None:
        hi = min(3, n - 1) if force_unobservable else min(3, n)
        p = int(rng.integers(1, hi + 1))
    if m is None:
        m = int(rng.integers(1, 4))
    make_unobs = force_unobservable or (n > p and rng.uniform() < unobs_prob)
    q = int(rng.integers(p, n)) if (make_unobs and n > p) else n
    # Unstable plants stay mildly unstable (radius <= 1.015) so 500-step
    # simulations neither overflow nor drown the estimation error in
    # cancellation noise at the 1e-6 convergence threshold.
    r11 = (
        float(rng.uniform(1.005, 1.015))
        if rng.uniform() < unstable_prob
        else float(rng.uniform(0.25, 0.9))
    )
    A11, C1 = random_observable_pair(rng, q, p, r11)
    if q == n:
        A, C = A11, C1
    else:
        A22 = _scaled_to_radius(rng, n - q, float(rng.uniform(0.1, 0.8)))
        A21 = rng.standard_normal((n - q, q))
        block = np.zeros((n, n))
        block[:q, :q] = A11
        block[q:, :q] = A21
        block[q:, q:] = A22
        S = rand_orthogonal(rng, n)
        A = S @ block @ S.T
        C = np.hstack([C1, np.zeros((p, n - q))]) @ S.T
    B = rng.standard_normal((n, m))
    return SystemRealization(A=A, B=B, C=C)


def random_nondetectable_system(rng, n=None, p=None, m=None):
    """A plant with one embedded unstable unobservable eigenvalue.

    Returns ``(system, bad_eigenvalues)`` where ``bad_eigenvalues`` are the
    exact witnesses a detectability test must report.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    if p is None:
        p = int(rng.integers(1, min(3, n - 1) + 1))
    if m is None:
        m = int(rng.integers(1, 4))
    q = int(rng.integers(p, n))
    lam_bad = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 1.8))
    while True:
        r11 = float(rng.uniform(0.3, 1.2))
        A11, C1 = random_observable_pair(rng, q, p, r11)
        if np.min(np.abs(np.linalg.eigvals(A11) - lam_bad)) > 1e-2:
            break
    size = n - q
    diag = np.concatenate([[lam_bad], rng.uniform(-0.8, 0.8, size - 1)])
    A22 = np.diag(diag) + np.triu(rng.standard_normal((size, size)) * 0.3, 1)
    A21 = rng.standard_normal((size, q))
    block = np.zeros((n, n))
    block[:q, :q] = A11
    block[q:, :q] = A21
    block[q:, q:] = A22
    S = rand_orthogonal(rng, n)
    A = S @ block @ S.T
    C = np.hstack([C1, np.zeros((p, size))]) @ S.T
    B = rng.standard_normal((n, m))
    return SystemRealization(A=A, B=B, C=C), [complex(lam_bad)]


def random_integer_pair(rng, n, p, span=3):
    """Integer-entry pair (A, C) with well-separated eigenvalues of A."""
    while True:
        A = rng.integers(-span, span + 1, size=(n, n)).astype(float)
        C = rng.integers(-span, span + 1, size=(p, n)).astype(float)
        if not np.any(C):
            continue
        if n > 1:
            eig = np.linalg.eigvals(A)
            diffs = np.abs(eig[:, None] - eig[None, :])
            np.fill_diagonal(diffs, np.inf)
            if diffs.min() < 1e-5:
                continue
        return A, C


def weakly_observed_hidden_block():
    """A 4-state pair (A, C) whose hidden 2-state block C sees at about 2.5e-8.

    That is above the PBH tolerance and below the staircase cut: PBH calls the
    pair observable while q = 2, so its observability is numerically ambiguous.
    """
    rng = np.random.default_rng(334)
    eps = 10 ** rng.uniform(-8.5, -6.5)
    A = np.block([[np.array([[0.9, 0.3], [0.0, -0.5]]), np.zeros((2, 2))],
                  [3 * rng.standard_normal((2, 2)), np.diag([0.8, -0.7])]])
    C = np.array([[1.0, 0.2, 0.0, 0.0], [1.0, 0.2, *(eps * rng.standard_normal(2))]])
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    return Q @ A @ Q.T, C @ Q.T
