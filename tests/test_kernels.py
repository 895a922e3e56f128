import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import gen_systems as gen
from piobs import (
    DesignConfig,
    RandomInput,
    SimulationConfig,
    SimulationDivergenceError,
    SystemRealization,
    design_pi_observer,
    run_simulation,
    sim,
    step_observer,
    step_plant,
)
from piobs import _kernels


def stepwise(system, observer, U, x0, xhat0, v0, limit=np.inf):
    """Per-step reference run; stops at the first state with an entry above limit.

    Returns the x, xhat, v histories and the abort step with its norm
    (-1 and None for a clean run).
    """
    x, xhat, v = (np.asarray(z, dtype=float) for z in (x0, xhat0, v0))
    X, Xh, V = [x], [xhat], [v]
    for k, u in enumerate(U):
        x_next, y = step_plant(system, x, u)
        xhat, v = step_observer(system, observer, xhat, v, y, u)
        x = x_next
        X.append(x)
        Xh.append(xhat)
        V.append(v)
        worst = max(np.abs(x).max(), np.abs(xhat).max(), np.abs(v).max())
        if worst > limit:
            return np.array(X), np.array(Xh), np.array(V), k + 1, worst
    return np.array(X), np.array(Xh), np.array(V), -1, None


class TestKernelAgreement:
    def test_traces_match_stepwise_reference(self, rng):
        # The kernel sums the same products as the per-step reference in a
        # different order, so agreement is at accumulated-rounding level, not
        # bitwise; small well-conditioned systems keep the amplification
        # bounded.
        for _ in range(5):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, min(2, n) + 1))
            system = gen.random_detectable_system(rng, n=n, p=p, m=1,
                                                  unstable_prob=0.0)
            observer = design_pi_observer(system)
            config = SimulationConfig(
                horizon=150,
                x0=rng.standard_normal(system.n),
                input_signal=RandomInput(seed=7),
            )
            trace = run_simulation(system, observer, config)
            U = sim.build_input(config.input_signal, config.horizon, system.m)
            X, Xh, V, abort, _ = stepwise(system, observer, U, config.x0,
                                          np.zeros(n), np.zeros(p))
            assert abort == -1
            scale = max(1.0, np.abs(X).max())
            assert np.abs(trace.x - X).max() <= 1e-9 * scale
            assert np.abs(trace.xhat - Xh).max() <= 1e-9 * scale
            assert np.abs(trace.v - V).max() <= 1e-9 * scale
            joint = np.maximum(np.abs(Xh - X).max(axis=1), np.abs(V).max(axis=1))
            below = joint <= config.convergence_tol * np.maximum(1.0, np.abs(X).max(axis=1))
            assert trace.converged_step == (int(np.argmax(below)) if below.any() else None)

    def test_doubling_plant_aborts_at_step_40(self):
        A = np.array([[2.0]])
        U = np.zeros((100, 1))
        *_, abort = _kernels.simulate(A, np.eye(1), np.eye(1), np.zeros((1, 1)),
                                      np.zeros((1, 1)), U, np.ones(1), np.ones(1),
                                      np.zeros(1), 1e12)
        # x(k) = 2^k from x(0) = 1 first exceeds 1e12 at k = 40
        assert abort == 40


class TestBlockedOverflowCheck:
    # Abort steps just before, at and just past the first block boundary, in a
    # later block and in the final partial block of a horizon that is not a
    # multiple of the block length.
    HORIZON = 2 * _kernels._BLOCK + 88
    ABORT_STEPS = (_kernels._BLOCK - 1, _kernels._BLOCK, _kernels._BLOCK + 1,
                   _kernels._BLOCK + 40, 2 * _kernels._BLOCK + 50)

    @pytest.mark.parametrize("abort_step", ABORT_STEPS)
    def test_kernel_abort_step_is_exact(self, abort_step):
        system = SystemRealization(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        zero_gain = np.zeros((1, 1))
        observer = SimpleNamespace(system=system, L=zero_gain, F=zero_gain)
        U = np.zeros((self.HORIZON, 1))
        limit = 2.0 ** (abort_step - 1)
        X, Xh, V, abort = _kernels.simulate(system.A, system.B, system.C, zero_gain,
                                            zero_gain, U, np.ones(1), np.ones(1),
                                            np.zeros(1), limit)
        *_, expected, _ = stepwise(system, observer, U, np.ones(1), np.ones(1),
                                   np.zeros(1), limit)
        assert abort == expected == abort_step
        assert X[abort, 0] == Xh[abort, 0] == 2.0 ** abort_step

    @pytest.mark.parametrize("abort_step", ABORT_STEPS)
    def test_divergence_error_matches_stepwise(self, abort_step, monkeypatch):
        system = SystemRealization(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        observer = design_pi_observer(system, DesignConfig(target_poles=(0.2,)))
        # x(k) = 2^k; the limit sits halfway between two powers so that the
        # estimate's rounding noise cannot decide the step.
        limit = 1.5 * 2.0 ** (abort_step - 1)
        monkeypatch.setattr(sim, "OVERFLOW_LIMIT", limit)
        with pytest.raises(SimulationDivergenceError) as err:
            run_simulation(system, observer, SimulationConfig(horizon=self.HORIZON))
        U = np.zeros((self.HORIZON, 1))
        *_, step, norm = stepwise(system, observer, U, np.ones(1), np.zeros(1),
                                  np.zeros(1), limit)
        assert err.value.step == step == abort_step
        assert err.value.norm == pytest.approx(norm, rel=1e-12)
        assert err.value.limit == limit

    @pytest.mark.parametrize("abort_step", ABORT_STEPS)
    def test_first_nan_row_aborts_at_its_own_step(self, abort_step):
        # a NaN is never above the limit, yet no later row can be trusted
        one = np.eye(1)
        U = np.zeros((self.HORIZON, 1))
        U[abort_step - 1] = np.nan
        X, _, _, abort = _kernels.simulate(0.5 * one, one, one, 0 * one, 0 * one, U,
                                           np.ones(1), np.ones(1), np.zeros(1), 1e12)
        assert abort == abort_step
        assert np.isfinite(X[:abort_step]).all() and np.isnan(X[abort_step, 0])

    def test_rows_past_abort_raise_no_warning(self):
        # Near the top of the float range the rows after the abort step in the
        # same block overflow to inf and then nan; a stepwise loop never
        # computes them, so they must stay silent.
        one = np.eye(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, abort = _kernels.simulate(2 * one, one, one, 0 * one, 0 * one,
                                          np.zeros((self.HORIZON, 1)),
                                          np.full(1, 2.0 ** 1000), np.zeros(1),
                                          np.zeros(1), 2.0 ** 1010)
        assert abort == 11
