import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gen_systems as gen
from piobs import (
    ConstantInput,
    DesignConfig,
    RandomInput,
    SimulationConfig,
    SimulationDivergenceError,
    StepInput,
    SystemRealization,
    ZeroInput,
    design_pi_observer,
    run_simulation,
    step_observer,
    step_plant,
)
from piobs.design import augmented_matrix
from piobs.errors import InputError
from piobs.sim import build_input, error_dynamics_check, fit_decay_rate


class TestSteps:
    def test_identity_plant_holds_state(self, rng):
        system = SystemRealization(A=np.eye(2), B=np.zeros((2, 1)), C=[[1.0, 0.0]])
        x = rng.standard_normal(2)
        x_next, y = step_plant(system, x, [0.0])
        assert np.array_equal(x_next, x)
        assert y == pytest.approx([x[0]])

    def test_pure_input_drive(self):
        system = SystemRealization(A=np.zeros((2, 2)), B=np.eye(2), C=[[1.0, 0.0]])
        x_next, _ = step_plant(system, [5.0, 5.0], [1.0, 2.0])
        assert x_next == pytest.approx([1.0, 2.0])

    def test_scalar_plant_by_hand(self):
        system = SystemRealization(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        x_next, y = step_plant(system, [2.0], [1.0])
        assert x_next == pytest.approx([2.0])
        assert y == pytest.approx([2.0])

    def test_perfect_estimate_is_invariant(self, worked_system, worked_observer, rng):
        x = rng.standard_normal(1)
        u = rng.standard_normal(1)
        _, y = step_plant(worked_system, x, u)
        xhat_next, v_next = step_observer(worked_system, worked_observer, x, [0.0], y, u)
        x_next, _ = step_plant(worked_system, x, u)
        assert xhat_next == pytest.approx(x_next)
        assert v_next == pytest.approx([0.0])

    def test_zero_gains_give_open_loop_copy(self, worked_system, worked_observer):
        open_loop = replace(
            worked_observer, L=np.zeros((1, 1)), F=np.zeros((1, 1))
        )
        xhat_next, v_next = step_observer(
            worked_system, open_loop, [3.0], [0.0], [7.0], [1.0]
        )
        #  (A - 0) xhat + B u, untouched by y
        assert xhat_next == pytest.approx([0.5 * 3.0 + 1.0])
        assert v_next == pytest.approx([7.0 - 3.0])

    def test_worked_observer_step_by_hand(self, worked_system, worked_observer):
        xhat_next, v_next = step_observer(
            worked_system, worked_observer, [1.0], [0.5], [0.0], [0.0]
        )
        assert xhat_next == pytest.approx([-0.22])
        assert v_next == pytest.approx([-0.5])


class TestInputSignals:
    def test_shapes_and_values(self):
        assert np.array_equal(build_input(ZeroInput(), 4, 2), np.zeros((4, 2)))
        const = build_input(ConstantInput(value=(1.0, -1.0)), 3, 2)
        assert np.array_equal(const, [[1.0, -1.0]] * 3)
        step = build_input(StepInput(value=(2.0,), onset=2), 4, 1)
        assert np.array_equal(step, [[0.0], [0.0], [2.0], [2.0]])

    def test_random_input_is_bounded_and_reproducible(self):
        a = build_input(RandomInput(amplitude=0.5, seed=9), 100, 3)
        b = build_input(RandomInput(amplitude=0.5, seed=9), 100, 3)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 0.5

    def test_config_validation(self):
        with pytest.raises(InputError):
            SimulationConfig(horizon=0)
        with pytest.raises(InputError):
            SimulationConfig(convergence_tol=0.0)


class TestRunSimulation:
    def test_matched_initial_conditions_stay_exactly_at_zero(
        self, worked_system, worked_observer
    ):
        config = SimulationConfig(
            horizon=50, x0=[2.0], xhat0=[2.0], v0=[0.0],
            input_signal=RandomInput(seed=3),
        )
        trace = run_simulation(worked_system, worked_observer, config)
        assert np.array_equal(trace.e, np.zeros_like(trace.e))
        assert np.array_equal(trace.v, np.zeros_like(trace.v))
        assert trace.converged_step == 0
        assert trace.tail_converged

    def test_worked_design_decays_geometrically(self, worked_system, worked_observer):
        config = SimulationConfig(horizon=100, x0=[1.0], xhat0=[0.0])
        trace = run_simulation(worked_system, worked_observer, config)
        # augmented spectral radius is 0.3; allow slack rho = 0.31. Stop the
        # bound before the error reaches the rounding floor (~eps * |x|).
        ks = np.arange(61)
        assert np.all(trace.err_inf[:61] <= 10.0 * 0.31 ** ks)
        assert trace.converged_step is not None
        assert trace.converged_step <= 40

    def test_error_converges_even_when_plant_diverges(self):
        system = SystemRealization(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        observer = design_pi_observer(system, DesignConfig(target_poles=(0.2,)))
        config = SimulationConfig(
            horizon=35, input_signal=ConstantInput(value=(1.0,))
        )
        trace = run_simulation(system, observer, config)
        assert np.abs(trace.x[-1]) > 1e9  # plant state blew up
        assert trace.converged_step is not None  # estimation error did not
        assert trace.err_inf[-1] <= 1e-6

    def test_overflow_aborts_with_step_diagnostic(self):
        system = SystemRealization(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        observer = design_pi_observer(system, DesignConfig(target_poles=(0.2,)))
        with pytest.raises(SimulationDivergenceError) as err:
            run_simulation(system, observer, SimulationConfig(horizon=100))
        assert 38 <= err.value.step <= 42  # 2^k passes 1e12 near k = 40

    def test_error_sequence_is_input_independent(self, rng):
        system = gen.random_detectable_system(rng, n=4, p=2, m=2)
        observer = design_pi_observer(system)
        x0 = rng.standard_normal(4)
        xhat0 = rng.standard_normal(4)
        traces = [
            run_simulation(
                system, observer,
                SimulationConfig(horizon=200, x0=x0, xhat0=xhat0, input_signal=sig),
            )
            for sig in (ZeroInput(), RandomInput(seed=11), ConstantInput(value=(1.0, -2.0)))
        ]
        for other in traces[1:]:
            assert np.abs(traces[0].e - other.e).max() <= 5e-9
            assert np.abs(traces[0].v - other.v).max() <= 5e-9


class TestErrorDynamics:
    def test_clean_trace_satisfies_the_recurrence(self, rng):
        system = gen.random_detectable_system(rng, n=3, p=1, m=1)
        observer = design_pi_observer(system)
        trace = run_simulation(
            system, observer,
            SimulationConfig(horizon=150, input_signal=RandomInput(seed=2)),
        )
        assert error_dynamics_check(trace, observer) <= 1e-10

    def test_zero_error_trace_has_zero_residual(self, worked_system, worked_observer):
        config = SimulationConfig(horizon=20, x0=[1.0], xhat0=[1.0], v0=[0.0])
        trace = run_simulation(worked_system, worked_observer, config)
        assert error_dynamics_check(trace, worked_observer) == 0.0

    def test_corruption_shows_up_at_its_magnitude(self, worked_system, worked_observer):
        trace = run_simulation(
            worked_system, worked_observer, SimulationConfig(horizon=30)
        )
        xhat = trace.xhat.copy()
        xhat[10] += 1e-3
        corrupted = replace(trace, xhat=xhat, e=xhat - trace.x)
        residual = error_dynamics_check(corrupted, worked_observer)
        assert residual == pytest.approx(1e-3, rel=0.6)

    @pytest.mark.parametrize("horizon", [1, 255, 256, 257, 300, 513, 5000])
    def test_blocks_match_the_whole_array_formula(self, rng, horizon):
        system = gen.random_detectable_system(rng, n=4, p=2, m=1, unstable_prob=0.0)
        observer = design_pi_observer(system)
        trace = run_simulation(
            system, observer,
            SimulationConfig(horizon=horizon, input_signal=RandomInput(seed=3)),
        )
        aug = augmented_matrix(system, observer.L, observer.F)
        ev = np.hstack([trace.e, trace.v])
        whole = float(np.abs(ev[1:] - ev[:-1] @ aug.T).max())
        assert error_dynamics_check(trace, observer) == whole

    @pytest.mark.parametrize("step", [255, 256, 257, 512, 600])
    def test_corruption_at_block_edges_shows_up(self, worked_system, worked_observer, step):
        trace = run_simulation(
            worked_system, worked_observer, SimulationConfig(horizon=600)
        )
        xhat = trace.xhat.copy()
        xhat[step] += 1e-3
        corrupted = replace(trace, xhat=xhat, e=xhat - trace.x)
        residual = error_dynamics_check(corrupted, worked_observer)
        assert residual == pytest.approx(1e-3, rel=0.6)

    def test_peak_memory_does_not_grow_with_horizon(self, rng):
        system = gen.random_detectable_system(rng, n=4, p=1, m=1, unstable_prob=0.0)
        observer = design_pi_observer(system)
        trace = run_simulation(
            system, observer,
            SimulationConfig(horizon=5000, input_signal=RandomInput(seed=5)),
        )
        tracemalloc.start()
        try:
            error_dynamics_check(trace, observer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # eight 257-row blocks of [e, v], whatever the horizon
        assert peak < 8 * 257 * (system.n + system.p) * 8

    def test_geometric_decay_fit(self, rng):
        for _ in range(5):
            system = gen.random_detectable_system(rng)
            observer = design_pi_observer(system)
            radius = max(abs(z) for z in verify_radius(observer))
            trace = run_simulation(
                system, observer,
                SimulationConfig(horizon=200, input_signal=RandomInput(seed=4)),
            )
            rate, _ = fit_decay_rate(trace, k_start=10, k_end=200)
            if np.isfinite(rate):
                assert rate <= radius + 0.05


def verify_radius(observer):
    from piobs import linalg

    return linalg.eigenvalues(observer.augmented())
