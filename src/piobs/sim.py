"""Co-simulation of a plant and its proportional-integral observer.

Steps the recurrences x(k+1) = A x + B u, y = C x for the plant and
xhat(k+1) = (A - LC) xhat + L y + B u + F v, v(k+1) = v + (y - C xhat) for
the observer, and reports the estimation error e = xhat - x alongside the
integrator state. The input u cancels in the error recurrence, so [e; v]
evolves under the augmented matrix regardless of the excitation. Both
recurrences run as one stacked linear system in :mod:`piobs._kernels`;
``step_plant`` and ``step_observer`` are the per-step reference it matches.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, linalg
from .design import augmented_matrix
from .errors import DimensionError, InputError, SimulationDivergenceError

#: Simulations abort (with a diagnostic) once any state norm passes this.
OVERFLOW_LIMIT = 1e12
DEFAULT_CONVERGENCE_TOL = 1e-6
#: Rows per block of ``error_dynamics_check``; consecutive blocks share one row.
_CHECK_BLOCK_ROWS = 257
#: Rows per slice of ``xhat - x`` when ``run_simulation`` reduces ``err_inf``.
_NORM_BLOCK_ROWS = 256
#: First step of the ``fit_decay_rate`` window; the window ends at the horizon.
_FIT_START = 10


@dataclass(frozen=True)
class ZeroInput:
    """u(k) = 0."""


def _values(value, name):
    """``value`` as a tuple of floats; :class:`InputError` for non-numeric entries."""
    return tuple(linalg._as_float(value, name).reshape(-1).tolist())


@dataclass(frozen=True)
class ConstantInput:
    """u(k) = value for all k."""

    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", _values(self.value, "constant input value"))


@dataclass(frozen=True)
class StepInput:
    """u(k) = 0 before the onset step, then a constant value."""

    value: tuple
    onset: int = 10

    def __post_init__(self):
        object.__setattr__(self, "value", _values(self.value, "step input value"))
        linalg.check_seed(self.onset, "step onset")


@dataclass(frozen=True)
class RandomInput:
    """Seeded uniform noise in [-amplitude, amplitude] per channel."""

    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (linalg.is_real(self.amplitude) and 0.0 <= self.amplitude < np.inf):
            raise InputError(f"amplitude must be a finite nonnegative number, got {self.amplitude}")
        linalg.check_seed(self.seed, "seed")


def build_input(signal, horizon, m):
    """Materialize an input signal as a (horizon, m) array."""
    if isinstance(signal, ZeroInput):
        return np.zeros((horizon, m))
    if isinstance(signal, ConstantInput):
        val = linalg.as_vector(signal.value, m, "constant input value")
        return np.tile(val, (horizon, 1))
    if isinstance(signal, StepInput):
        val = linalg.as_vector(signal.value, m, "step input value")
        U = np.zeros((horizon, m))
        U[min(signal.onset, horizon):] = val
        return U
    if isinstance(signal, RandomInput):
        rng = np.random.default_rng(signal.seed)
        return rng.uniform(-signal.amplitude, signal.amplitude, size=(horizon, m))
    raise InputError(f"unknown input signal {signal!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Horizon, initial conditions, excitation and convergence threshold.

    Initial conditions default to x0 = ones, xhat0 = zeros, v0 = zeros so a
    fresh simulation starts with a unit estimation error.
    """

    horizon: int = 200
    x0: object = None
    xhat0: object = None
    v0: object = None
    input_signal: object = field(default_factory=ZeroInput)
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL

    def __post_init__(self):
        linalg.check_seed(self.horizon, "horizon")
        if self.horizon < 1:
            raise InputError(f"horizon must be at least 1, got {self.horizon}")
        if not (linalg.is_real(self.convergence_tol) and 0.0 < self.convergence_tol < np.inf):
            raise InputError(
                f"convergence tolerance must be positive and finite, got {self.convergence_tol}"
            )


@dataclass(frozen=True)
class SimulationTrace:
    """Time-indexed history of one co-simulation.

    ``x``, ``xhat`` are (horizon+1, n) and ``v`` is (horizon+1, p): column
    views of the kernel's one stacked array, so the trace holds that array
    and the two norm rows ``err_inf`` and ``v_inf``. ``e = xhat - x`` is
    computed on each access.
    ``converged_step`` is the first k with max(||e||_inf, ||v||_inf) at or
    below the tolerance times max(1, ||x(k)||_inf) (None if never), and
    ``tail_converged`` says whether it stays there for the rest of the run.
    """

    x: np.ndarray
    xhat: np.ndarray
    v: np.ndarray
    err_inf: np.ndarray
    v_inf: np.ndarray
    converged_step: object
    tail_converged: object

    @property
    def e(self):
        """Estimation error xhat - x, (horizon+1, n); a new array each access."""
        return self.xhat - self.x


def _check_plant_size(system, observer):
    """Raise :class:`DimensionError` unless ``observer`` was built for ``system``'s n and p.

    :class:`PiObserver` pins ``L`` and ``F`` to its own plant, so comparing
    the two plants' sizes checks the gains' shapes against ``system``.
    """
    built = (observer.system.n, observer.system.p)
    given = (system.n, system.p)
    if built != given:
        raise DimensionError(f"observer was built for (n, p) = {built}, the system has {given}")


def step_plant(system, x, u):
    """One plant step: returns (x_next, y)."""
    x = linalg.as_vector(x, system.n, "x")
    u = linalg.as_vector(u, system.m, "u")
    return system.A @ x + system.B @ u, system.C @ x


def step_observer(system, observer, xhat, v, y, u):
    """One observer step: returns (xhat_next, v_next)."""
    _check_plant_size(system, observer)
    xhat = linalg.as_vector(xhat, system.n, "xhat")
    v = linalg.as_vector(v, system.p, "v")
    y = linalg.as_vector(y, system.p, "y")
    u = linalg.as_vector(u, system.m, "u")
    xhat_next = (
        (system.A - observer.L @ system.C) @ xhat
        + observer.L @ y
        + system.B @ u
        + observer.F @ v
    )
    return xhat_next, v + y - system.C @ xhat


def _row_max_abs(M):
    """``np.abs(M).max(axis=1)`` bit for bit, without building ``np.abs(M)``.

    Each row's max and -min are reduced first; the abs of their maximum turns
    the -0.0 that an all-zero row gives into the +0.0 of ``np.abs``.
    """
    return np.abs(np.maximum(M.max(axis=1), -M.min(axis=1)))


def _median(values):
    """``np.median`` of a 1-D array, bit for bit, from one ``np.partition``.

    The mean of the two middle order statistics (the same entry twice for an
    odd size), taken directly: ``np.median`` takes it through ``numpy.ma``.
    The largest entry is partitioned into place too, so a NaN, which sorts
    last, gives NaN as in ``np.median``.
    """
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, (lo, hi, -1))
    return part[-1] if np.isnan(part[-1]) else (part[lo] + part[hi]) / 2


def run_simulation(system, observer, config=None):
    """Simulate plant and observer together over the configured horizon.

    Aborts with :class:`SimulationDivergenceError` (identifying the step)
    if any state norm exceeds the overflow limit or is not finite; the error
    system itself stays bounded for a valid observer even when the plant diverges.
    """
    config = config or SimulationConfig()
    _check_plant_size(system, observer)
    n, p, m = system.n, system.p, system.m
    x0 = np.ones(n) if config.x0 is None else linalg.as_vector(config.x0, n, "x0")
    xhat0 = np.zeros(n) if config.xhat0 is None else linalg.as_vector(config.xhat0, n, "xhat0")
    v0 = np.zeros(p) if config.v0 is None else linalg.as_vector(config.v0, p, "v0")
    U = build_input(config.input_signal, config.horizon, m)

    X, Xh, V, abort = _kernels.simulate(
        system.A, system.B, system.C, observer.L, observer.F,
        U, x0, xhat0, v0, OVERFLOW_LIMIT,
    )
    if abort >= 0:
        worst = np.abs(np.concatenate([X[abort], Xh[abort], V[abort]])).max()
        raise SimulationDivergenceError(step=abort, norm=worst, limit=OVERFLOW_LIMIT)

    err_inf = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _NORM_BLOCK_ROWS):
        stop = start + _NORM_BLOCK_ROWS
        err_inf[start:stop] = _row_max_abs(Xh[start:stop] - X[start:stop])
    x_inf = _row_max_abs(X)
    v_inf = _row_max_abs(V)
    joint = np.maximum(err_inf, v_inf)
    below = joint <= config.convergence_tol * np.maximum(1.0, x_inf)
    converged_step = int(np.argmax(below)) if below.any() else None
    tail = bool(below[converged_step:].all()) if converged_step is not None else None
    return SimulationTrace(
        x=X,
        xhat=Xh,
        v=V,
        err_inf=err_inf,
        v_inf=v_inf,
        converged_step=converged_step,
        tail_converged=tail,
    )


def error_dynamics_check(trace, observer):
    """Max residual of [e; v](k+1) = M_aug [e; v](k) over the whole trace.

    This is an algebraic identity of the recurrences (the input cancels), so
    the residual of a clean trace is at rounding level; a corrupted entry
    shows up as a spike at its step. The residual is taken over blocks of
    257 rows that share their edge rows, so memory does not grow with the
    horizon and every step pair is still checked.
    """
    rows = trace.x.shape[0]
    if rows < 2:
        raise InputError("trace must contain at least two steps")
    aug = augmented_matrix(observer.system, observer.L, observer.F)
    worst = []
    for start in range(0, rows - 1, _CHECK_BLOCK_ROWS - 1):
        stop = start + _CHECK_BLOCK_ROWS
        ev = np.hstack([trace.xhat[start:stop] - trace.x[start:stop],
                        trace.v[start:stop]])
        residual = ev[1:] - ev[:-1] @ aug.T
        worst.append(np.abs(residual).max())
    return float(np.max(worst))


def fit_decay_rate(trace):
    """Least-squares geometric decay rate of ||[e; v]||_inf from step 10 to the horizon.

    Returns ``(rate, scale)`` fitting norm(k) ~ scale * rate**k. The fit stops
    at the first sample at or below the floor: once the error reaches the
    rounding floor it stops following the observer dynamics. The floor at
    step k is the larger of 100 eps max(1, ||x(k)||_inf), scaled to the plant
    state step by step as convergence is, and ten times the tail median (the
    noise plateau left by large observer gains); the median is the mean of
    the tail's two middle entries after one ``np.partition`` (see
    :func:`_median`), equal to ``np.median`` bit for bit. Returns (nan, nan)
    when fewer than two usable points remain.
    """
    norms = np.maximum(trace.err_inf, trace.v_inf)
    ks = np.arange(_FIT_START, norms.size)
    vals = norms[_FIT_START:]
    if vals.size == 0:
        return float("nan"), float("nan")
    eps_floor = 100.0 * np.finfo(float).eps * np.maximum(1.0, _row_max_abs(trace.x[_FIT_START:]))
    tail = vals[-max(5, vals.size // 10):]
    below = vals <= np.maximum(eps_floor, 10.0 * float(_median(tail)))
    cut = int(np.argmax(below)) if below.any() else vals.size
    if cut < 2:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(ks[:cut], np.log(vals[:cut]), 1)
    return float(np.exp(slope)), float(np.exp(intercept))
