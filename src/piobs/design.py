"""Synthesis of full-order proportional-integral observer gains.

The pipeline: check detectability, compute an output-injection gain K that
makes A + KC Schur stable (pole placement, routed through the observability
decomposition when the pair is unobservable), complete C to a nonsingular
basis T, build the coupling matrix X from a chosen Schur-stable phi and a
free block, and read off the observer gains L = X - K and
F = -(A - LC) X + X (-C X + I). The augmented error/integrator matrix is
then similar to block-triangular [[A + KC, 0], [-C, phi]], which is what
:func:`verify_design` checks.
"""

from dataclasses import dataclass, field

import numpy as np

from . import analysis, linalg
from .errors import (
    DimensionError,
    InputError,
    NotDetectableError,
    NotObservableError,
    NumericalError,
)
from .systems import SystemRealization

#: Default stability margin: a design passes when the augmented spectral
#: radius is below 1 - margin.
DEFAULT_MARGIN = 1e-6
#: Acceptable relative coefficient error between the achieved and requested
#: characteristic polynomial of A + KC.
PLACEMENT_TOL = 1e-6
#: A placement attempt below this error is taken as exact and ends the search.
PLACEMENT_EXACT_TOL = 1e-10
#: Max residual of the identity -C X + I = phi.
PHI_IDENTITY_TOL = 1e-10
#: Relative residual threshold for the block-triangularizing similarity.
SIMILARITY_TOL = 1e-8
#: Largest entry of V_o^T (A + KC) V_n, relative to max(1, max|A|), that an
#: inherited pole split tolerates. Exact decompositions leave rounding; a
#: stack rank that misjudged q leaves the blocks coupled at 1e-2 and more.
SPLIT_COUPLING_TOL = 1e-6


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
    return tuple(complex(z) for z in 0.3 * np.exp(1j * angles))


@dataclass(frozen=True)
class DesignConfig:
    """Choices and tolerances for one observer design.

    ``target_poles`` are the desired eigenvalues of A + KC (n of them for an
    observable pair, q for the observable block otherwise); None picks the
    defaults. ``phi`` is the integral-loop matrix (scalar means a multiple of
    the identity), ``lambda_block`` the free (n-p) x p block entering the
    coupling matrix. ``seed`` feeds the randomized multi-output placement;
    ``tol_eig`` is the pairing tolerance for spectrum comparisons during
    verification.
    """

    target_poles: tuple = None
    phi: object = None
    lambda_block: object = None
    margin: float = DEFAULT_MARGIN
    tol_rank: float = linalg.DEFAULT_TOL_RANK
    tol_eig: float = linalg.DEFAULT_TOL_EIG
    seed: int = 0

    def __post_init__(self):
        if self.margin < 0:
            raise InputError(f"margin must be nonnegative, got {self.margin}")
        if self.target_poles is not None:
            object.__setattr__(
                self, "target_poles",
                tuple(complex(z) for z in np.atleast_1d(self.target_poles)),
            )

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
        worst = max(abs(z) for z in poles)
        if worst >= 1.0 - self.margin:
            raise InputError(
                f"target poles must have magnitude below 1 - margin = "
                f"{1.0 - self.margin:.9g}; got magnitude {worst:.9g}"
            )
        if not linalg.is_conjugate_closed(poles):
            raise InputError("target poles must be closed under complex conjugation")
        return poles

    def resolved_phi(self, p):
        """Validated p x p integral-loop matrix (default 0.5 I)."""
        if self.phi is None:
            return 0.5 * np.eye(p)
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim == 0:
            phi = float(phi) * np.eye(p)
        phi = linalg.as_square(phi, "phi")
        if phi.shape[0] != p:
            raise DimensionError(f"phi must be {p}x{p}, got {phi.shape}")
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
        lam = np.asarray(self.lambda_block, dtype=float)
        if lam.ndim != 2 or lam.shape != (n - p, p):
            raise DimensionError(
                f"lambda block must have shape ({n - p}, {p}), got {lam.shape}"
            )
        if lam.size and not np.all(np.isfinite(lam)):
            raise InputError("lambda block contains non-finite entries")
        return lam


def _single_input_gain(M, b, coeffs):
    """Row g with char(M + b g) equal to the given polynomial, or None.

    For a single input the coefficient map g -> char(M + b g) is exactly
    affine (rank-one update determinant lemma), so the gain solves a linear
    system whose columns are probed with unit gains; one refinement pass
    removes the rounding of the probe evaluations. Returns None when the
    system is numerically singular, i.e. (M, b) is not controllable.
    """
    n = M.shape[0]
    b = b.astype(float).reshape(n)
    c0 = linalg.char_poly(M)[1:]
    W = np.empty((n, n))
    for i in range(n):
        probe = M + np.outer(b, np.eye(n)[i])
        W[:, i] = linalg.char_poly(probe)[1:] - c0
    if linalg.reciprocal_condition(W) < 1e-13:
        return None
    target = np.asarray(coeffs, dtype=float)[1:]
    g = np.linalg.solve(W, target - c0)
    for _ in range(2):
        achieved = linalg.char_poly(M + np.outer(b, g))[1:]
        g += np.linalg.solve(W, target - achieved)
    return g


def _real_block_diag(targets):
    """Real block-diagonal matrix whose spectrum is the given pole multiset."""
    reals, pairs = linalg.group_conjugate_roots(targets)
    r = len(reals)
    D = np.zeros((r + 2 * len(pairs),) * 2)
    D[range(r), range(r)] = reals
    for i, z in enumerate(pairs):
        j = r + 2 * i
        D[j:j + 2, j:j + 2] = [[z.real, z.imag], [-z.imag, z.real]]
    return D


def _sylvester_candidates(A, C, targets, rng, attempts=8):
    """Gain candidates from the Sylvester-equation placement method.

    Each attempt draws a random ``G`` (p x n) and solves
    ``A^T X - X D = -C^T G = R`` for X, with ``D = _real_block_diag(targets)``;
    then ``F = G X^-1`` places the targets on ``A^T + C^T F``. D is block
    diagonal, so X splits by block: the column of a real target ``r`` solves
    ``(A^T - r I) x = R[:, j]``, and the two columns of a conjugate pair
    ``z`` are the real and imaginary parts of the solution ``w`` of
    ``(A^T - z I) w = R[:, j] + i R[:, j+1]``. One stacked complex solve per
    attempt does every block.

    Works only for distinct targets disjoint from the spectrum of A; the
    caller falls back to other strategies otherwise.
    """
    vals = np.asarray(targets, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if vals.size > 1:
        diffs = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() <= 1e-8 * scale:
            return
    eigA = linalg.eigenvalues(A)
    gap = np.min(np.abs(vals[:, None] - eigA[None, :]))
    if gap <= 1e-8 * max(scale, float(np.max(np.abs(eigA)))):
        return
    p, n = C.shape
    reals, pairs = linalg.group_conjugate_roots(targets)
    r = len(reals)
    shifts = np.array(reals + pairs, dtype=complex)
    shifted = np.empty((shifts.size, n, n), dtype=complex)
    np.multiply(shifts[:, None, None], np.eye(n), out=shifted)
    np.subtract(A.T, shifted, out=shifted)
    for _ in range(attempts):
        G = rng.standard_normal((p, n))
        R = -C.T @ G
        rhs = np.hstack([R[:, :r], R[:, r::2] + 1j * R[:, r + 1::2]]).T[:, :, None]
        try:
            W = np.linalg.solve(shifted, rhs)[:, :, 0].T
        except np.linalg.LinAlgError:
            return
        X = np.empty((n, n))
        X[:, :r] = W[:, :r].real
        X[:, r::2] = W[:, r:].real
        X[:, r + 1::2] = W[:, r:].imag
        if linalg.reciprocal_condition(X) < 1e-12:
            continue
        F = np.linalg.solve(X.T, G.T).T
        yield F.T


def _cyclic_candidates(A, C, coeffs, rng, attempts=12):
    """Gain candidates from cyclic-vector reduction to a single-input problem.

    A random preliminary gain makes the dual closed-loop matrix cyclic with
    respect to a random input combination; the single-input solve then
    assigns the full polynomial. Handles repeated target poles.
    """
    Ad, Bd = A.T, C.T
    n, p = Bd.shape
    for i in range(attempts):
        if i == 0:
            F0 = np.zeros((p, n))
            v = np.ones(p)
        else:
            F0 = rng.standard_normal((p, n)) * (0.5 if i % 2 else 0.1)
            v = rng.standard_normal(p)
        f = _single_input_gain(Ad + Bd @ F0, Bd @ v, coeffs)
        if f is None:
            continue
        yield (F0 + np.outer(v, f)).T


def _refine_gain(A, C, K, coeffs, rng, attempts=3):
    """Polish a gain by correcting along a single input direction.

    With the other directions frozen, the remaining coefficient error is
    affine in a rank-one correction, so one more single-input solve around
    the current closed loop usually lands at rounding level.
    """
    Ad, Bd = A.T, C.T
    p = Bd.shape[1]
    best = K
    best_err = assignment_error(A, C, K, coeffs)
    for i in range(attempts):
        v = np.ones(p) if i == 0 else rng.standard_normal(p)
        f = _single_input_gain(Ad + Bd @ K.T, Bd @ v, coeffs)
        if f is None:
            continue
        K_new = K + np.outer(f, v)
        err = assignment_error(A, C, K_new, coeffs)
        if err < best_err:
            best, best_err = K_new, err
        if best_err < PLACEMENT_EXACT_TOL:
            break
    return best, best_err


def assignment_error(A, C, K, target_coeffs):
    """Relative coefficient error between char(A + KC) and the target polynomial."""
    achieved = linalg.char_poly(A + K @ C)
    scale = max(1.0, float(np.max(np.abs(target_coeffs))))
    return float(np.max(np.abs(achieved - target_coeffs))) / scale


def place_poles(A, C, target_poles, tol_rank=linalg.DEFAULT_TOL_RANK, seed=0):
    """Output-injection gain K with char(A + KC) matching the target poles.

    Requires (A, C) observable and a conjugate-closed multiset of n targets.
    Strategy: exact inversion when C is square, an affine single-input solve
    on the dual pair for single-output systems, and Sylvester / cyclic-vector
    reductions for multi-output systems; the best candidate by achieved
    coefficient error wins and gets a rank-one polish.
    """
    A = linalg.as_square(A, "A")
    C = linalg.as_matrix(C, "C")
    n = A.shape[0]
    if C.shape[1] != n:
        raise DimensionError(f"C has {C.shape[1]} columns, expected n={n}")
    targets = tuple(complex(z) for z in np.atleast_1d(np.asarray(target_poles, dtype=complex)))
    if len(targets) != n:
        raise InputError(f"expected {n} target poles, got {len(targets)}")
    if not linalg.is_conjugate_closed(targets):
        raise InputError("target poles must be closed under complex conjugation")
    if not analysis.is_observable(A, C, tol_rank):
        raise NotObservableError(
            "pole placement requires an observable pair (A, C); the PBH test fails"
        )
    return _placement_search(A, C, targets, seed)


def _placement_search(A, C, targets, seed):
    """The strategy search of :func:`place_poles`, without its input checks."""
    p, n = C.shape
    coeffs = linalg.poly_from_roots(targets)
    rng = np.random.default_rng(seed)

    def candidates():
        if p == n:
            # C invertible: K = (R - A) C^{-1} places the spectrum exactly.
            R = _real_block_diag(targets)
            yield np.linalg.solve(C.T, (R - A).T).T
        if p == 1:
            g = _single_input_gain(A.T, C.reshape(n), coeffs)
            if g is not None:
                yield np.asarray(g).reshape(n, 1)
        yield from _sylvester_candidates(A, C, targets, rng)
        if p > 1:
            yield from _cyclic_candidates(A, C, coeffs, rng)

    best_K, best_err = None, np.inf
    exact = []
    for K in candidates():
        err = assignment_error(A, C, K, coeffs)
        if err < best_err:
            best_K, best_err = K, err
        if err < PLACEMENT_EXACT_TOL:
            exact.append(K)
            # The gain is unique for p = 1; otherwise keep sampling so the
            # smallest-norm exact gain can win (large gains are valid but
            # wreck the conditioning of everything downstream).
            if p == 1 or len(exact) >= 5:
                break
    if exact:
        return min(exact, key=np.linalg.norm)
    if best_K is not None:
        best_K, best_err = _refine_gain(A, C, best_K, coeffs, rng)
    if best_K is None or best_err > PLACEMENT_TOL:
        raise NumericalError(
            f"pole placement failed: best relative coefficient error "
            f"{best_err:.3e} exceeds {PLACEMENT_TOL:.0e}"
        )
    return best_K


@dataclass(frozen=True)
class GainPlan:
    """Stabilizing gain plus the bookkeeping of which poles were assignable."""

    K: np.ndarray
    q: int
    assigned_poles: tuple
    inherited_poles: tuple


def stabilization_plan(A, C, config=None):
    """Gain K making A + KC Schur stable, with assigned/inherited pole split.

    One PBH classification, one observability decomposition and one
    placement search make the plan: PBH decides existence, the decomposition
    gives q and the basis, and the q targets are placed on its observable
    block (A11, C1), the whole pair when q = n. When q < n, K is lifted by
    T_k and the unobservable spectrum is inherited. Only q = n is checked
    against PBH (placement would move a mode PBH calls unobservable). A
    q < n plan is checked before it is returned: if A + KC still couples the
    two blocks (the stack misjudged q, so the inherited poles are not poles
    of A + KC) or is not Schur stable, it raises :class:`NumericalError`. A
    q = n plan is judged by the gate of :func:`design_pi_observer`.
    """
    config = config or DesignConfig()
    A = linalg.as_square(A, "A")
    C = linalg.as_matrix(C, "C")
    n, p = A.shape[0], C.shape[0]
    verdict = analysis.is_detectable(A, C, config.tol_rank)
    if not verdict:
        raise NotDetectableError(verdict.witnesses)
    dec = analysis.kalman_decompose(A, C, config.tol_rank)
    q = dec.q
    targets = config.resolved_target_poles(q)
    if q == n:
        # Placement would move a mode PBH calls unobservable: refuse instead.
        analysis.observability_verdict(verdict.classifications, q)
    K = _placement_search(dec.A11, dec.C1, targets, config.seed)
    if q < n:
        K = dec.T_k @ np.vstack([K, np.zeros((n - q, p))])
        closed = A + K @ C
        coupling = float(np.max(np.abs(dec.T_k[:, :q].T @ closed @ dec.T_k[:, q:])))
        if coupling > SPLIT_COUPLING_TOL * max(1.0, float(np.max(np.abs(A)))):
            raise NumericalError(
                f"observability decomposition is inconsistent: A + KC couples "
                f"its observable block to the unobservable one ({coupling:.3e}), "
                f"so the stack rank q = {q} misjudged the observable dimension"
            )
        stability = analysis.is_schur_stable(closed)
        if not stability:
            raise NumericalError(
                f"pole placement did not stabilize A + KC: spectral radius "
                f"{stability.spectral_radius:.9g}"
            )
    inherited = tuple(complex(z) for z in dec.unobservable_eigenvalues)
    return GainPlan(K=K, q=q, assigned_poles=targets, inherited_poles=inherited)


def place_stabilizing_gain(A, C, config=None):
    """Output-injection gain K such that A + KC is Schur stable.

    Raises :class:`NotDetectableError` (with the offending eigenvalues) when
    no such gain exists, and :class:`NumericalError` when the plan cannot be
    made or fails its checks (see :func:`stabilization_plan`).
    """
    return stabilization_plan(A, C, config).K


def coupling_matrix(T, phi, lambda_block=None):
    """Solve T X = [I - phi; lambda] for the coupling matrix X.

    When C = [I_p, 0] T, this X satisfies -C X + I = phi exactly, which is
    the identity that decouples the integral loop.
    """
    T = linalg.as_square(T, "T")
    phi = linalg.as_square(phi, "phi")
    n, p = T.shape[0], phi.shape[0]
    if p > n:
        raise DimensionError(f"phi is {p}x{p} but T is only {n}x{n}")
    if lambda_block is None:
        lam = np.zeros((n - p, p))
    else:
        lam = np.asarray(lambda_block, dtype=float)
        if lam.shape != (n - p, p):
            raise DimensionError(
                f"lambda block must have shape ({n - p}, {p}), got {lam.shape}"
            )
    stacked = np.vstack([np.eye(p) - phi, lam])
    return linalg.solve(T, stacked)


def augmented_matrix(system, L, F):
    """Joint error/integrator transition matrix [[A - LC, F], [-C, I]]."""
    A, C = system.A, system.C
    n, p = system.n, system.p
    L = linalg.as_matrix(L, "L")
    F = linalg.as_matrix(F, "F")
    if L.shape != (n, p):
        raise DimensionError(f"L must be {n}x{p}, got {L.shape}")
    if F.shape != (n, p):
        raise DimensionError(f"F must be {n}x{p}, got {F.shape}")
    return np.block([[A - L @ C, F], [-C, np.eye(p)]])


@dataclass(frozen=True)
class PiObserver:
    """A designed proportional-integral observer with its construction witnesses.

    ``L`` and ``F`` are the observer gains; ``K``, ``T``, ``X``, ``phi`` and
    ``lambda_block`` record the intermediates so the design can be re-verified
    or reproduced later. ``verification`` holds the :func:`verify_design`
    report that :func:`design_pi_observer` gated the design on; it is ``None``
    for an observer built any other way (read back from a report, or made
    with ``dataclasses.replace``), since its gains were never checked.
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

    def augmented(self):
        """The (n+p) x (n+p) matrix governing the error and integral states."""
        return augmented_matrix(self.system, self.L, self.F)

    def predicted_block(self):
        """Block-triangular matrix similar to the augmented one for valid gains."""
        A, C = self.system.A, self.system.C
        n, p = self.system.n, self.system.p
        top = np.hstack([A + self.K @ C, np.zeros((n, p))])
        bottom = np.hstack([-C, self.phi])
        return np.vstack([top, bottom])

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

    def failed_checks(self):
        """Names of every failed check, the spectrum-split diagnostic included."""
        names = []
        if not self.schur_ok:
            names.append("augmented-schur-stability")
        if not self.spectrum_ok:
            names.append("spectrum-split")
        if not self.similarity_ok:
            names.append("similarity-identity")
        if not self.phi_ok:
            names.append("phi-identity")
        return tuple(names)


def verify_design(observer, margin=None):
    """Independently re-check an observer design; never raises on bad gains.

    Recomputes the augmented spectrum, compares it against the predicted
    split (pairing tolerance: the config's ``tol_eig``), and evaluates the
    similarity and coupling identities with the explicit transform
    M = [[I, X], [0, I]] (whose inverse is [[I, -X], [0, I]]). ``margin``
    defaults to the config's.
    """
    if margin is None:
        margin = observer.config.margin
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
        augmented_spectrum=tuple(complex(z) for z in aug_spec),
        predicted_spectrum=tuple(complex(z) for z in predicted),
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
    breaks down (ambiguous observability at q = n, an inconsistent q < n
    plan and failed verification included); nothing else. The returned observer has passed the one gate,
    :attr:`VerificationReport.passed`; that report is its ``verification``.
    """
    if not isinstance(system, SystemRealization):
        system = SystemRealization(*system)
    config = config or DesignConfig()
    A, C = system.A, system.C
    n, p = system.n, system.p

    phi = config.resolved_phi(p)
    lam = config.resolved_lambda(n, p)

    plan = stabilization_plan(A, C, config)

    try:
        T = linalg.complete_row_basis(C, config.tol_rank)
    except NumericalError as exc:
        raise NumericalError(f"output-basis completion failed: {exc}") from exc
    try:
        X = coupling_matrix(T, phi, lam)
    except NumericalError as exc:
        raise NumericalError(f"coupling solve failed: {exc}") from exc

    L = X - plan.K
    F = -(A - L @ C) @ X + X @ (-C @ X + np.eye(p))

    observer = PiObserver(
        system=system,
        L=L,
        F=F,
        K=plan.K,
        T=T,
        X=X,
        phi=phi,
        lambda_block=lam,
        assigned_poles=plan.assigned_poles,
        inherited_poles=plan.inherited_poles,
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
