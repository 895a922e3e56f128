"""Co-simulation of a plant and its proportional-integral observer.

Steps the recurrences x(k+1) = A x + B u, y = C x for the plant and
xhat(k+1) = (A - LC) xhat + L y + B u + F v, v(k+1) = v + (y - C xhat) for
the observer, and records the estimation error e = xhat - x alongside the
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


@dataclass(frozen=True)
class ZeroInput:
    """u(k) = 0."""


@dataclass(frozen=True)
class ConstantInput:
    """u(k) = value for all k."""

    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in np.atleast_1d(self.value)))


@dataclass(frozen=True)
class StepInput:
    """u(k) = 0 before the onset step, then a constant value."""

    value: tuple
    onset: int = 10

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in np.atleast_1d(self.value)))
        if self.onset < 0:
            raise InputError(f"step onset must be nonnegative, got {self.onset}")


@dataclass(frozen=True)
class RandomInput:
    """Seeded uniform noise in [-amplitude, amplitude] per channel."""

    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.amplitude) or self.amplitude < 0:
            raise InputError(f"amplitude must be a nonnegative number, got {self.amplitude}")


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
        if self.horizon < 1:
            raise InputError(f"horizon must be at least 1, got {self.horizon}")
        if self.convergence_tol <= 0:
            raise InputError(
                f"convergence tolerance must be positive, got {self.convergence_tol}"
            )


@dataclass(frozen=True)
class SimulationTrace:
    """Time-indexed history of one co-simulation.

    ``x``, ``xhat`` are (horizon+1, n); ``y``, ``v`` are (horizon+1, p);
    ``e = xhat - x``. ``converged_step`` is the first k with
    max(||e||_inf, ||v||_inf) at or below the tolerance (None if never), and
    ``tail_converged`` says whether it stays there for the rest of the run.
    """

    x: np.ndarray
    xhat: np.ndarray
    y: np.ndarray
    v: np.ndarray
    e: np.ndarray
    err_inf: np.ndarray
    v_inf: np.ndarray
    convergence_tol: float
    converged_step: object
    tail_converged: object

    @property
    def horizon(self):
        return self.x.shape[0] - 1

    @property
    def steps(self):
        return np.arange(self.x.shape[0])


def _check_observer_dims(system, observer):
    n, p = system.n, system.p
    for name in ("L", "F"):
        M = getattr(observer, name)
        if M.shape != (n, p):
            raise DimensionError(
                f"observer gain {name} has shape {M.shape}, expected ({n}, {p})"
            )


def step_plant(system, x, u):
    """One plant step: returns (x_next, y)."""
    x = linalg.as_vector(x, system.n, "x")
    u = linalg.as_vector(u, system.m, "u")
    return system.A @ x + system.B @ u, system.C @ x


def step_observer(system, observer, xhat, v, y, u):
    """One observer step: returns (xhat_next, v_next)."""
    _check_observer_dims(system, observer)
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


def run_simulation(system, observer, config=None):
    """Simulate plant and observer together over the configured horizon.

    Aborts with :class:`SimulationDivergenceError` (identifying the step)
    if any state norm exceeds the overflow limit; the error system itself
    stays bounded for a valid observer even when the plant diverges.
    """
    config = config or SimulationConfig()
    _check_observer_dims(system, observer)
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
        worst = max(
            np.abs(X[abort]).max(), np.abs(Xh[abort]).max(), np.abs(V[abort]).max()
        )
        raise SimulationDivergenceError(step=abort, norm=worst, limit=OVERFLOW_LIMIT)

    E = Xh - X
    err_inf = np.abs(E).max(axis=1)
    v_inf = np.abs(V).max(axis=1)
    joint = np.maximum(err_inf, v_inf)
    below = joint <= config.convergence_tol
    converged_step = int(np.argmax(below)) if below.any() else None
    tail = bool(below[converged_step:].all()) if converged_step is not None else None
    return SimulationTrace(
        x=X,
        xhat=Xh,
        y=X @ system.C.T,
        v=V,
        e=E,
        err_inf=err_inf,
        v_inf=v_inf,
        convergence_tol=config.convergence_tol,
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
        ev = np.hstack([trace.e[start:stop], trace.v[start:stop]])
        residual = ev[1:] - ev[:-1] @ aug.T
        worst.append(np.abs(residual).max())
    return float(np.max(worst))


def fit_decay_rate(trace, k_start=10, k_end=None, floor=None):
    """Least-squares geometric decay rate of ||[e; v]||_inf over [k_start, k_end].

    Returns ``(rate, scale)`` fitting norm(k) ~ scale * rate**k. The fit stops
    at the first sample at or below ``floor``: once the error reaches the
    rounding floor it stops following the observer dynamics. The default
    floor is the larger of an eps bound scaled to the plant state and ten
    times the tail median (the noise plateau). Returns (nan, nan) when fewer
    than two usable points remain.
    """
    norms = np.maximum(trace.err_inf, trace.v_inf)
    k_end = trace.horizon if k_end is None else min(k_end, trace.horizon)
    ks = np.arange(k_start, k_end + 1)
    vals = norms[k_start:k_end + 1]
    if vals.size == 0:
        return float("nan"), float("nan")
    if floor is None:
        # Two floor estimates: eps relative to the plant scale, and ten times
        # the tail median, which catches the noise plateau left by large
        # observer gains.
        eps_floor = 100.0 * np.finfo(float).eps * max(1.0, float(np.abs(trace.x).max()))
        tail = vals[-max(5, vals.size // 10):]
        floor = max(eps_floor, 10.0 * float(np.median(tail)))
    below = vals <= floor
    cut = int(np.argmax(below)) if below.any() else vals.size
    if cut < 2:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(ks[:cut], np.log(vals[:cut]), 1)
    return float(np.exp(slope)), float(np.exp(intercept))
