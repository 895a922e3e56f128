"""Synthesis of full-order proportional-integral observer gains.

The pipeline: check detectability, compute an output-injection gain K that
makes A + KC Schur stable (pole placement on the observable block, accepted
by the eigenvalues it achieves; the filter Riccati gain when the default
poles cannot be placed), complete C to a nonsingular basis T, build the
coupling matrix X from a chosen Schur-stable phi and a free block, and read
off the observer gains L = X - K and F = -(A - LC) X + X (-C X + I). The
augmented error/integrator matrix is then similar to block-triangular
[[A + KC, 0], [-C, phi]], which is what :func:`verify_design` checks.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import analysis, linalg
from .errors import (
    DimensionError,
    InputError,
    NotDetectableError,
    NotObservableError,
    NumericalError,
    SingularMatrixError,
)
from .systems import SystemRealization

#: Default stability margin: a design passes when the augmented spectral
#: radius is below 1 - margin.
DEFAULT_MARGIN = 1e-6
#: Largest accepted eigenvalue error of a placement: the pairing distance
#: between eig(A + KC) and the targets, over max(1, max|target|), with
#: repeated targets judged by cluster (see :func:`_placement_error`).
PLACEMENT_TOL = 1e-6
#: A placement below this eigenvalue error counts as exact.
PLACEMENT_EXACT_TOL = 1e-8
#: Max residual of the identity -C X + I = phi.
PHI_IDENTITY_TOL = 1e-10
#: Relative residual threshold for the block-triangularizing similarity.
SIMILARITY_TOL = 1e-8
#: Random draws of the Sylvester placement per search.
SYLVESTER_ATTEMPTS = 8


def default_target_poles(count):
    """Default observer poles: a conjugate-closed fan at magnitude 0.3.

    Angles are evenly spread over (-pi/2, pi/2). Packing many default poles
    onto a short real interval makes single-output placement gains explode
    (the gain is unique for p = 1), which in turn ruins the conditioning of
    the augmented matrix; fanning into the complex disk keeps gains moderate
    while staying well inside the unit circle. None of the fan poles touches
    the default phi eigenvalue 0.5 either, so the augmented matrix stays
    non-defective.
    """
    if count < 1:
        raise InputError(f"need at least one target pole, got count={count}")
    angles = np.pi * (2 * np.arange(count) + 1 - count) / (2 * count)
    return tuple((0.3 * np.exp(1j * angles)).tolist())


@dataclass(frozen=True)
class DesignConfig:
    """Choices and tolerances for one observer design.

    ``target_poles`` are the desired eigenvalues of A + KC (n of them for an
    observable pair, q for the observable block otherwise), refused when they
    cannot be placed; None picks the defaults, or the Riccati gain's poles.
    ``phi`` is the integral-loop matrix (scalar means a multiple of the
    identity), ``lambda_block`` the free (n-p) x p block entering the
    coupling matrix. ``seed`` feeds the random draws of the Sylvester
    placement (the p = 1 gain is unique, so there only its rounding moves);
    ``tol_eig`` is the pairing tolerance for spectrum comparisons during
    verification. Ranks are taken at the system's ``tol_rank``.
    """

    target_poles: tuple = None
    phi: object = None
    lambda_block: object = None
    margin: float = DEFAULT_MARGIN
    tol_eig: float = linalg.DEFAULT_TOL_EIG
    seed: int = 0

    def __post_init__(self):
        analysis.check_margin(self.margin)
        if not (linalg.is_real(self.tol_eig) and 0.0 <= self.tol_eig < np.inf):
            raise InputError(f"tol_eig must be finite and nonnegative, got {self.tol_eig}")
        linalg.check_seed(self.seed, "seed")
        if self.target_poles is not None:
            poles = np.atleast_1d(np.asarray(self.target_poles, dtype=object))
            for z in poles:
                if not isinstance(z, numbers.Number) or isinstance(z, bool):
                    raise InputError(f"target pole {z!r} is not a number")
            object.__setattr__(self, "target_poles", tuple([complex(z) for z in poles]))

    def resolved_target_poles(self, count):
        """Validated target poles for a block of ``count`` assignable modes."""
        if self.target_poles is None:
            return default_target_poles(count)
        poles = self.target_poles
        if len(poles) != count:
            raise InputError(
                f"expected {count} target pole(s) for the freely assignable "
                f"block, got {len(poles)}"
            )
        worst = float(np.max(np.abs(poles)))  # NaN when any pole is NaN
        if not worst < 1.0 - self.margin:
            raise InputError(
                f"target poles must have magnitude below 1 - margin = "
                f"{1.0 - self.margin:.9g}; got magnitude {worst:.9g}"
            )
        linalg.group_conjugate_roots(poles)  # InputError unless conjugate-closed
        return poles

    def resolved_phi(self, p):
        """Validated p x p integral-loop matrix (default 0.5 I)."""
        if self.phi is None:
            return 0.5 * np.eye(p)
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim == 0:
            phi = float(phi) * np.eye(p)
        phi = linalg.as_shaped(phi, (p, p), "phi")
        if not np.any(phi):
            raise InputError("phi must be nonzero")
        verdict = analysis.is_schur_stable(phi, self.margin)
        if not verdict:
            raise InputError(
                f"phi must be Schur stable with the configured margin; its "
                f"spectral radius is {verdict.spectral_radius:.9g}"
            )
        return phi

    def resolved_lambda(self, n, p):
        """Validated (n-p) x p free block (default zero)."""
        if self.lambda_block is None:
            return np.zeros((n - p, p))
        return linalg.as_shaped(self.lambda_block, (n - p, p), "lambda block")


def _chain_links(shifts, p):
    """For each shift, the index of its copy p copies earlier, else -1.

    The m copies of a repeated shift thereby form min(p, m) chains.
    """
    seen, links = {}, []
    for j, z in enumerate(shifts):
        copies = seen.setdefault(z, [])
        links.append(copies[-p] if len(copies) >= p else -1)
        copies.append(j)
    return links


def _placement_error(eigs, targets, scale, p=1):
    """Eigenvalue error of a placement whose A + KC has eigenvalues ``eigs``.

    Relative to ``scale``: the pairing distance of ``eigs`` and distinct
    targets. A target repeated m times is placed as Jordan chains of length
    at most ceil(m/p) (see :func:`_sylvester_candidates`): rounding eps ||A + KC||
    scatters its eigenvalues by up to (eps ||A + KC||)^(1/ceil(m/p)) but
    moves their mean by O(eps ||A + KC||), so the cluster nearest it counts
    with the error of its mean and its spread to the power ceil(m/p). The
    default p = 1 takes the power m, the scatter of one Jordan block of size
    m. A pairing is never closer than the farthest eigenvalue is from its
    nearest target, so when that bound already exceeds ``PLACEMENT_TOL`` it
    is returned without pairing: a value above ``PLACEMENT_TOL`` is a lower
    bound of the error, not the error.
    """
    centres, counts = np.unique(np.asarray(targets, dtype=complex), return_counts=True)
    dist = np.abs(eigs[:, None] - centres[None, :])
    group = dist.argmin(axis=1)
    if counts.max() == 1 or not np.array_equal(np.bincount(group, minlength=counts.size), counts):
        bound = float(dist.min(axis=1).max()) / scale
        return bound if bound > PLACEMENT_TOL else linalg.pairing_distance(eigs, targets) / scale
    err = 0.0
    for k, m in enumerate(counts):
        gap = np.abs(eigs[group == k] - centres[k]) / scale
        err = max(err, abs(np.mean(eigs[group == k]) - centres[k]) / scale,
                  gap.max() ** -(-m // p))
    return err


def _sylvester_candidates(A, C, targets, rng):
    """Gain candidates from the Sylvester-equation placement method.

    Each of ``SYLVESTER_ATTEMPTS`` attempts draws a random ``G`` (p x n) and
    solves ``A^T X - X D = -C^T G = R`` for X (Bhattacharyya & de Souza
    1982); then ``F = G X^-1`` places the targets on ``A^T + C^T F``. D, never
    formed, is real upper block-bidiagonal: the real targets in order of
    first appearance, then a block [[re, im], [-im, re]] per conjugate pair
    sorted by (re, im), with a unit entry (or a 2 x 2 identity) above the
    diagonal where :func:`_chain_links` links copies of a repeated target.
    So X is solved block by block: the column of a real target ``r`` solves
    ``(A^T - r I) x = R[:, j]``, and the two columns of a conjugate pair ``z``
    are the real and imaginary parts of the solution ``w`` of
    ``(A^T - z I) w = R[:, j] + i R[:, j+1]``: one complex n x n solve per
    block. A chained block adds the solution of the copy it links to onto
    its right-hand side. When a target lies within 1e-8 of eig(A), each
    attempt first shifts A by a random ``K0 C`` and yields ``K0 + F^T``.
    """
    p, n = C.shape
    reals, pairs = linalg.group_conjugate_roots(targets)
    r = len(reals)
    shifts = reals + pairs
    links = _chain_links(shifts, p)
    eigA = linalg.eigenvalues(A)
    scale = max(1.0, max(abs(z) for z in targets), float(np.max(np.abs(eigA))))
    touches = np.min(np.abs(np.asarray(targets)[:, None] - eigA[None, :])) <= 1e-8 * scale
    for _ in range(SYLVESTER_ATTEMPTS):
        K0 = rng.standard_normal((n, p)) if touches else None
        G = rng.standard_normal((p, n))
        R = -C.T @ G
        At = A.T if K0 is None else (A + K0 @ C).T
        rhs = np.hstack([R[:, :r], R[:, r::2] + 1j * R[:, r + 1::2]])
        W = np.empty((n, len(shifts)), dtype=complex)
        try:
            for j, (z, k) in enumerate(zip(shifts, links)):
                b = rhs[:, j:j + 1] if k < 0 else rhs[:, j:j + 1] + W[:, k:k + 1]
                W[:, j:j + 1] = np.linalg.solve(At - z * np.eye(n), b)
        except np.linalg.LinAlgError:
            return
        X = np.empty((n, n))
        X[:, :r] = W[:, :r].real
        X[:, r::2] = W[:, r:].real
        X[:, r + 1::2] = W[:, r:].imag
        try:
            F = np.linalg.solve(X.T, G.T).T
        except np.linalg.LinAlgError:
            continue
        yield F.T if K0 is None else K0 + F.T


def place_poles(A, C, target_poles, tol_rank=linalg.DEFAULT_TOL_RANK, seed=0):
    """Output-injection gain K with eig(A + KC) matching the target poles.

    Requires (A, C) observable. The targets obey the rule of every design,
    :meth:`DesignConfig.resolved_target_poles`: n of them, conjugate-closed,
    of magnitude below 1 - ``DEFAULT_MARGIN``. A bad target, ``tol_rank`` or
    ``seed`` raises :class:`InputError`.
    """
    A, C = analysis.check_pair(A, C)
    config = DesignConfig(target_poles=target_poles, seed=seed)
    targets = config.resolved_target_poles(A.shape[0])
    if not analysis.is_observable(A, C, tol_rank):
        raise NotObservableError(
            "pole placement requires an observable pair (A, C); the PBH test fails"
        )
    return _placement_search(A, C, targets, seed)


def _placement_search(A, C, targets, seed):
    """Best gain of :func:`_sylvester_candidates` for ``targets``, inputs unchecked.

    The smallest-norm exact candidate wins, else the one of least eigenvalue
    error within ``PLACEMENT_TOL``, else :class:`NumericalError` is raised.
    """
    p = C.shape[0]
    scale = max(1.0, max(abs(z) for z in targets))
    rng = np.random.default_rng(seed)
    best_K, best_err = None, np.inf
    exact = []
    for K in _sylvester_candidates(A, C, targets, rng):
        err = _placement_error(linalg.eigenvalues(A + K @ C), targets, scale, p)
        if err < best_err:
            best_K, best_err = K, err
        if err < PLACEMENT_EXACT_TOL:
            exact.append(K)
            # The gain is unique for p = 1; otherwise keep sampling so the
            # smallest-norm exact gain can win (large gains are valid but
            # wreck the conditioning of everything downstream). An inexact
            # p = 1 gain is retried: other rounding can land within tolerance.
            if p == 1 or len(exact) >= 5:
                break
    if exact:
        return min(exact, key=np.linalg.norm)
    if best_err > PLACEMENT_TOL:
        chain = max(-(-targets.count(z) // p) for z in targets)
        raise NumericalError(
            f"pole placement failed: relative eigenvalue error at least "
            f"{best_err:.3e} exceeds {PLACEMENT_TOL:.0e}"
            + (f"; a repeated target forms a Jordan chain of length {chain}, and "
               f"Sylvester placement loses accuracy on long chains" if chain > 1 else "")
        )
    return best_K


def _riccati_gain(A, C):
    """K = -A P C^T (I + C P C^T)^-1 of the filter Riccati equation, Q = R = I.

    P = A P A^T - A P C^T (I + C P C^T)^-1 C P A^T + I is solved by the
    structure-preserving doubling algorithm (Chu, Fan & Lin 2005): from
    A = A^T, G = C^T C, H = I, each step sets W = I + G H, A <- A W^-1 A,
    G <- G + A W^-1 G A^T, H <- H + A^T H W^-1 A, and H -> P quadratically.
    A + KC is Schur stable when (A, C) is detectable; when the doubling
    overflows or does not converge, :class:`NumericalError` is raised.
    """
    A, C = analysis.check_pair(A, C)
    n, p = A.shape[0], C.shape[0]
    Ak, G, H = A.T, C.T @ C, np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for _ in range(64):
            # G and H stay positive semidefinite, so I + G H is nonsingular.
            WA, WG = np.hsplit(np.linalg.solve(np.eye(n) + G @ H, np.hstack([Ak, G])), 2)
            H, H_old = H + Ak.T @ H @ WA, H
            G, Ak = G + Ak @ WG @ Ak.T, Ak @ WA
            if not all(np.isfinite(M).all() for M in (H, G, Ak)):
                raise NumericalError("Riccati doubling overflowed: is (A, C) detectable?")
            if np.max(np.abs(H - H_old)) <= 1e-13 * np.max(np.abs(H)):
                break
        else:
            raise NumericalError("Riccati doubling did not converge in 64 steps")
    CH = C @ (0.5 * (H + H.T))
    return -A @ np.linalg.solve(np.eye(p) + CH @ C.T, CH).T


def _lifted_plan(A, C, dec, K, targets, inherited, stage):
    """The block gain K lifted to (A, C) by T_k; K itself, unchecked, when q = n.

    Raises :class:`NumericalError` when A + KC is not Schur stable or misses
    the ``targets`` and the ``inherited`` poles, eig(A22), by more than
    ``PLACEMENT_TOL`` (ill-conditioned placed poles can move in the lift).
    The (1, 2) block of T_k^T (A + KC) T_k is A12 + K C T_k[:, q:]: the
    parts of A and of C that the staircase dropped below its cuts, the latter
    times the block gain K. For a block hidden from C both are rounding, so
    the inherited poles are poles of A + KC (a block that C sees below the
    cuts and PBH calls observable was refused before, by the PBH verdict);
    but a defective one scatters by (eps ||A||)^(1/m), differently in each
    eigenvalue call. So each one farther than sqrt(PLACEMENT_TOL) from the
    targets sets its nearest eigenvalue aside unjudged; the rest join the
    targets, poles linked by gaps below that counting as one at their mean.
    """
    n, (q, p) = A.shape[0], K.shape
    if q == n:
        return K
    K = dec.T_k @ np.vstack([K, np.zeros((n - q, p))])
    eigs = linalg.eigenvalues(A + K @ C)
    radius = float(np.max(np.abs(eigs)))
    if not radius < 1.0:
        raise NumericalError(f"{stage} did not stabilize A + KC: spectral radius {radius:.9g}")
    scale = max(1.0, max(abs(z) for z in targets + inherited))
    near = np.sqrt(PLACEMENT_TOL) * scale
    inherited = np.asarray(inherited, dtype=complex)
    apart = np.abs(inherited[:, None] - np.asarray(targets)[None, :]).min(axis=1) > near
    judged = np.ones(n, dtype=bool)
    for z in inherited[apart]:
        judged[np.argmin(np.where(judged, np.abs(eigs - z), np.inf))] = False
    poles = np.concatenate([targets, inherited[~apart]])
    linked = np.abs(poles[:, None] - poles[None, :]) <= near
    for _ in range(poles.size.bit_length()):  # single linkage
        linked = (linked.astype(float) @ linked) > 0
    # The power stays m (p = 1): a merged unobserved Jordan block scatters by its size.
    err = _placement_error(eigs[judged], linked @ poles / linked.sum(axis=1), scale)
    if err > PLACEMENT_TOL:
        raise NumericalError(
            f"{stage} missed the assigned and inherited poles on A + KC: relative "
            f"eigenvalue error at least {err:.3e} exceeds {PLACEMENT_TOL:.0e}")
    return K


@dataclass(frozen=True)
class GainPlan:
    """Stabilizing gain plus the bookkeeping of which poles were assignable."""

    K: np.ndarray
    q: int
    assigned_poles: tuple
    inherited_poles: tuple


def stabilization_plan(A, C, config=None, tol_rank=linalg.DEFAULT_TOL_RANK):
    """Gain K making A + KC Schur stable, with assigned/inherited pole split.

    PBH decides existence, the observability decomposition gives q and the
    basis, the q targets are placed on its observable block (A11, C1), and
    :func:`_lifted_plan` lifts K by T_k and checks it when q < n (the
    unobservable spectrum is inherited). q must agree with PBH: at q = n
    placement would move a mode PBH calls unobservable, and at q < n a
    block PBH calls observable would be inherited as if C did not see it.
    A q = n plan is judged by the gate of :func:`design_pi_observer`. One
    rule covers every failure of placement or lift: explicit targets raise
    :class:`NumericalError`, default ones give way to :func:`_riccati_gain`
    and the poles it achieves, lifted and checked the same way.
    """
    config = config or DesignConfig()
    A, C = analysis.check_pair(A, C)
    verdict = analysis.is_detectable(A, C, tol_rank)
    if not verdict:
        raise NotDetectableError(verdict.witnesses)
    dec = analysis.kalman_decompose(A, C, tol_rank)
    q = dec.q
    targets = config.resolved_target_poles(q)
    analysis.observability_verdict(verdict.classifications, q)
    inherited = tuple(dec.unobservable_eigenvalues.tolist())
    try:
        K = _placement_search(dec.A11, dec.C1, targets, config.seed)
        K = _lifted_plan(A, C, dec, K, targets, inherited, "pole placement")
    except NumericalError:
        if config.target_poles is not None:
            raise
        # Default poles are no promise: report what the Riccati gain achieves.
        K = _riccati_gain(dec.A11, dec.C1)
        targets = tuple(linalg.eigenvalues(dec.A11 + K @ dec.C1).tolist())
        K = _lifted_plan(A, C, dec, K, targets, inherited, "the Riccati gain")
    return GainPlan(K=K, q=q, assigned_poles=targets, inherited_poles=inherited)


def coupling_matrix(T, phi, lambda_block=None):
    """The coupling matrix X solving T X = [I - phi; lambda], in closed form.

    T must stack C on distinct rows of the identity at the free columns f
    (:func:`linalg.complete_row_basis`), else :class:`InputError`. Then
    X[f] = lambda exactly, and C_P X[P] = I - phi - C_f lambda on the pivot
    columns P is one p x p solve, refined once (:class:`SingularMatrixError`
    when C_P is exactly singular). So -C X + I = phi, the identity that
    decouples the integral loop.
    """
    T = linalg.as_square(T, "T")
    phi = linalg.as_square(phi, "phi")
    n, p = T.shape[0], phi.shape[0]
    if p > n:
        raise DimensionError(f"phi is {p}x{p} but T is only {n}x{n}")
    lam = DesignConfig(lambda_block=lambda_block).resolved_lambda(n, p)
    C, free = T[:p], T[p:].argmax(axis=1)
    pivots = np.ones(n, dtype=bool)
    pivots[free] = False
    if pivots.sum() != p or not np.array_equal(T[p:], np.eye(n)[free]):
        raise InputError("T must stack C on distinct rows of the identity")
    X = np.empty((n, p))
    X[free] = lam
    try:
        X[pivots] = np.linalg.solve(C[:, pivots], np.eye(p) - phi - C[:, free] @ lam)
        # One refinement step on the residual that the phi-identity check measures.
        X[pivots] += np.linalg.solve(C[:, pivots], np.eye(p) - phi - C @ X)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"coupling solve failed: C_P is singular: {exc}") from exc
    return X


def augmented_matrix(system, L, F):
    """Joint error/integrator transition matrix [[A - LC, F], [-C, I]].

    ``L`` and ``F`` are taken as they are: pass the n x p arrays of a
    :class:`PiObserver`, whose constructor checks them.
    """
    A, C = system.A, system.C
    return np.block([[A - L @ C, F], [-C, np.eye(system.p)]])


@dataclass(frozen=True)
class PiObserver:
    """A designed proportional-integral observer with its construction witnesses.

    ``L`` and ``F`` are the observer gains; ``K``, ``T``, ``X``, ``phi`` and
    ``lambda_block`` record the intermediates so the design can be re-verified
    or reproduced later. ``verification`` holds the :func:`verify_design`
    report that :func:`design_pi_observer` gated the design on; it is ``None``
    for an observer built any other way (read back from a report, or made
    with ``dataclasses.replace``), since its gains were never checked. The
    constructor checks the shape and finiteness of each matrix
    (:func:`linalg.as_shaped`).
    """

    system: SystemRealization
    L: np.ndarray
    F: np.ndarray
    K: np.ndarray
    T: np.ndarray
    X: np.ndarray
    phi: np.ndarray
    lambda_block: np.ndarray
    assigned_poles: tuple
    inherited_poles: tuple
    config: DesignConfig = field(default_factory=DesignConfig, repr=False)
    verification: "VerificationReport | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n, p = self.system.n, self.system.p
        shapes = {"L": (n, p), "F": (n, p), "K": (n, p), "T": (n, n), "X": (n, p),
                  "phi": (p, p), "lambda_block": (n - p, p)}
        for name, shape in shapes.items():
            M = linalg.as_shaped(getattr(self, name), shape, f"observer {name}")
            object.__setattr__(self, name, M)

    def augmented(self):
        """The (n+p) x (n+p) matrix governing the error and integral states."""
        return augmented_matrix(self.system, self.L, self.F)

    def predicted_block(self):
        """Block-triangular matrix similar to the augmented one for valid gains."""
        A, C = self.system.A, self.system.C
        n, p = self.system.n, self.system.p
        return np.block([[A + self.K @ C, np.zeros((n, p))], [-C, self.phi]])

    def predicted_spectrum(self):
        """Eigenvalues of A + KC together with those of phi, sorted."""
        closed = linalg.eigenvalues(self.system.A + self.K @ self.system.C)
        return linalg.sort_spectrum(np.concatenate([closed, linalg.eigenvalues(self.phi)]))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the four checks on a (claimed) observer design.

    Checks: Schur stability of the augmented matrix with margin; multiset
    agreement of the augmented spectrum with the predicted split; residual of
    the block-triangularizing similarity; residual of the -C X + I = phi
    identity. :attr:`passed` is the gate that both
    :func:`design_pi_observer` and ``piobs verify`` apply.
    """

    spectral_radius: float
    margin: float
    schur_ok: bool
    augmented_spectrum: tuple
    predicted_spectrum: tuple
    spectrum_distance: float
    spectrum_ok: bool
    similarity_residual: float
    similarity_ok: bool
    phi_residual: float
    phi_ok: bool

    @property
    def passed(self):
        """True when the algebraic checks hold: Schur margin, similarity, phi.

        The spectrum split is a diagnostic outside the gate: its pairing can
        exceed the tolerance for exact designs whose augmented matrix is
        defective (repeated target/phi eigenvalues), while wrong gains always
        trip the similarity residual.
        """
        return self.schur_ok and self.similarity_ok and self.phi_ok

    def checks(self):
        """The four checks in order, by name: (passed, the figure it judged)."""
        radius = f"spectral radius {self.spectral_radius:.9g} vs margin {self.margin:g}"
        pairing = f"(diagnostic, not gated) pairing distance {self.spectrum_distance:.3e}"
        return {"augmented-schur-stability": (self.schur_ok, radius),
                "spectrum-split": (self.spectrum_ok, pairing),
                "similarity-identity": (self.similarity_ok,
                                        f"residual {self.similarity_residual:.3e}"),
                "phi-identity": (self.phi_ok, f"residual {self.phi_residual:.3e}")}

    def failed_checks(self):
        """Names of every failed check, the spectrum-split diagnostic included."""
        return tuple([name for name, (ok, _) in self.checks().items() if not ok])


def verify_design(observer, margin=None):
    """Independently re-check an observer design; never raises on bad gains.

    Recomputes the augmented spectrum, compares it against the predicted
    split (pairing tolerance: the config's ``tol_eig``), and evaluates the
    similarity and coupling identities with the explicit transform
    M = [[I, X], [0, I]] (whose inverse is [[I, -X], [0, I]]). ``margin``
    defaults to the config's; one outside [0, 1) raises :class:`InputError`.
    """
    if margin is None:
        margin = observer.config.margin
    analysis.check_margin(margin)
    system = observer.system
    n, p = system.n, system.p
    aug = observer.augmented()
    aug_spec = linalg.eigenvalues(aug)
    radius = float(np.max(np.abs(aug_spec)))
    predicted = observer.predicted_spectrum()
    distance = linalg.pairing_distance(aug_spec, predicted)

    X = observer.X
    M = np.block([[np.eye(n), X], [np.zeros((p, n)), np.eye(p)]])
    Minv = np.block([[np.eye(n), -X], [np.zeros((p, n)), np.eye(p)]])
    sim_res = float(np.max(np.abs(Minv @ aug @ M - observer.predicted_block())))
    sim_scale = max(1.0, float(np.max(np.abs(aug))))

    phi_res = float(np.max(np.abs(-system.C @ X + np.eye(p) - observer.phi)))

    return VerificationReport(
        spectral_radius=radius,
        margin=float(margin),
        schur_ok=bool(radius < 1.0 - margin),
        augmented_spectrum=tuple(aug_spec.tolist()),
        predicted_spectrum=tuple(predicted.tolist()),
        spectrum_distance=float(distance),
        spectrum_ok=bool(distance <= observer.config.tol_eig),
        similarity_residual=sim_res,
        similarity_ok=bool(sim_res <= SIMILARITY_TOL * sim_scale),
        phi_residual=phi_res,
        phi_ok=bool(phi_res <= PHI_IDENTITY_TOL),
    )


def design_pi_observer(system, config=None):
    """Run the full observer construction for a plant realization.

    Raises :class:`NotDetectableError` when no proportional-integral observer
    exists (the PBH test), :class:`InputError` for invalid configuration, and
    :class:`NumericalError` (naming the failing step) when a numerical stage
    breaks down (ambiguous observability, a q < n plan that misses its
    poles and failed verification included); nothing else. The returned
    observer has passed the one gate, :attr:`VerificationReport.passed`;
    that report is its ``verification``. Every rank decision (PBH, the
    observable dimension, the full row rank of C) is taken at
    ``system.tol_rank``; a tuple ``(A, B, C)`` is loaded at the default.
    """
    config = config or DesignConfig()
    if not isinstance(system, SystemRealization):
        system = SystemRealization(*system)
    A, C = system.A, system.C
    n, p = system.n, system.p

    phi = config.resolved_phi(p)
    lam = config.resolved_lambda(n, p)

    plan = stabilization_plan(A, C, config, system.tol_rank)

    T = linalg.complete_row_basis(C, system.tol_rank)
    X = coupling_matrix(T, phi, lam)

    L = X - plan.K
    F = -(A - L @ C) @ X + X @ (-C @ X + np.eye(p))

    observer = PiObserver(
        system=system, L=L, F=F, K=plan.K, T=T, X=X, phi=phi, lambda_block=lam,
        assigned_poles=plan.assigned_poles, inherited_poles=plan.inherited_poles,
        config=config,
    )
    report = verify_design(observer)
    if not report.passed:
        raise NumericalError(
            "designed observer failed verification: "
            + ", ".join(report.failed_checks())
            + f" (spectral radius {report.spectral_radius:.9g})"
        )
    object.__setattr__(observer, "verification", report)
    return observer
