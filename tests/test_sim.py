import pathlib
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
    reportio,
    run_simulation,
    step_observer,
    step_plant,
)
from piobs.errors import DimensionError, InputError
from piobs.sim import _median, build_input, error_dynamics_check, fit_decay_rate

DATA = pathlib.Path(__file__).parent / "data"


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

    def test_observer_of_another_plant_size_is_refused(self, worked_observer):
        # A 1x1 L would broadcast against a 2-state plant and give a wrong 2-vector.
        system = SystemRealization(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=[[1.0, 0.0]])
        with pytest.raises(DimensionError, match=r"built for \(n, p\) = \(1, 1\)"):
            step_observer(system, worked_observer, [0.0, 0.0], [0.0], [0.0], [0.0])


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
        for tol in (np.nan, np.inf):
            with pytest.raises(InputError):
                SimulationConfig(convergence_tol=tol)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    def test_random_input_seed_must_be_a_nonnegative_integer(self, seed):
        # the rule DesignConfig applies; 1.5 and "x" reached numpy's TypeError
        with pytest.raises(InputError, match="seed must be nonnegative and an integer"):
            RandomInput(seed=seed)

    @pytest.mark.parametrize("onset", [-1, 2.5, True])
    def test_step_onset_must_be_a_nonnegative_integer(self, onset):
        # 2.5 passed the old sign check and reached Python's TypeError in build_input
        with pytest.raises(InputError, match="step onset must be nonnegative and an integer"):
            StepInput(value=(1.0,), onset=onset)

    @pytest.mark.parametrize("setting, match", [
        ({"horizon": 2.5}, "horizon must be nonnegative and an integer"),
        ({"horizon": "3"}, "horizon must be nonnegative and an integer"),
        ({"horizon": True}, "horizon must be nonnegative and an integer"),
        ({"convergence_tol": "a"}, "convergence tolerance must be positive and finite"),
        ({"convergence_tol": True}, "convergence tolerance must be positive and finite"),
    ])
    def test_simulation_config_refuses_bad_types(self, setting, match):
        # 2.5 reached a TypeError in run_simulation, "3" and "a" one here,
        # and True passed as 1
        with pytest.raises(InputError, match=match):
            SimulationConfig(**setting)
        assert SimulationConfig(horizon=np.int64(3)).horizon == 3

    @pytest.mark.parametrize("amplitude", ["x", None, True, -1.0, np.nan, np.inf])
    def test_random_amplitude_must_be_a_finite_nonnegative_number(self, amplitude):
        with pytest.raises(InputError, match="amplitude must be a finite nonnegative number"):
            RandomInput(amplitude=amplitude)

    @pytest.mark.parametrize("value", ["abc", [1.0, "x"], [[1.0], [2.0, 3.0]]])
    def test_constant_value_must_be_numeric(self, value):
        with pytest.raises(InputError, match="constant input value: entries are not numeric"):
            ConstantInput(value=value)

    @pytest.mark.parametrize("value", ["abc", [1.0, "x"], [[1.0], [2.0, 3.0]]])
    def test_step_value_must_be_numeric(self, value):
        with pytest.raises(InputError, match="step input value: entries are not numeric"):
            StepInput(value=value)

    def test_numpy_integer_onset_is_accepted(self):
        step = build_input(StepInput(value=(1.0,), onset=np.int64(1)), 3, 1)
        assert np.array_equal(step, [[0.0], [1.0], [1.0]])


class TestRunSimulation:
    def test_observer_of_another_plant_size_is_refused(self, worked_observer):
        system = SystemRealization(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=[[1.0, 0.0]])
        with pytest.raises(DimensionError, match=r"the system has \(2, 1\)"):
            run_simulation(system, worked_observer, SimulationConfig(horizon=5))

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

    def test_convergence_is_relative_to_the_plant_state(self):
        # An unstable plant whose state reaches ~5.6e11: the observer error
        # sits at the rounding floor ~eps * |x|, far above the absolute 1e-6,
        # yet it has converged relative to max(1, ||x(k)||_inf).
        system = reportio.load_system(DATA / "observable5.system.json")
        observer = reportio.observer_from_report(
            system, reportio.load_report(DATA / "observable5.design-seed5.json"))
        trace = run_simulation(system, observer, SimulationConfig(
            horizon=200, input_signal=RandomInput(seed=5)))
        assert trace.err_inf[-1] > 1e-6
        assert (trace.converged_step, trace.tail_converged) == (18, True)

    def test_overflow_aborts_with_step_diagnostic(self):
        system = SystemRealization(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        observer = design_pi_observer(system, DesignConfig(target_poles=(0.2,)))
        with pytest.raises(SimulationDivergenceError) as err:
            run_simulation(system, observer, SimulationConfig(horizon=100))
        assert 38 <= err.value.step <= 42  # 2^k passes 1e12 near k = 40

    def test_norm_rows_equal_the_abs_max_bit_for_bit(self, rng):
        system = gen.random_detectable_system(rng, n=4, p=2, m=2)
        observer = design_pi_observer(system)
        trace = run_simulation(
            system, observer, SimulationConfig(horizon=300, input_signal=RandomInput(seed=7))
        )
        assert trace.err_inf.tobytes() == np.abs(trace.e).max(axis=1).tobytes()
        assert trace.v_inf.tobytes() == np.abs(trace.v).max(axis=1).tobytes()
        # v(0) = 0: the all-zero row reduces to +0.0, as np.abs gives it
        assert np.signbit(trace.v_inf[0]) == np.False_
        assert trace.v_inf[0] == 0.0

    def test_derived_rows_equal_their_formulas_bit_for_bit(self, rng):
        system = gen.random_detectable_system(rng, n=4, p=2, m=2)
        observer = design_pi_observer(system)
        trace = run_simulation(
            system, observer, SimulationConfig(horizon=300, input_signal=RandomInput(seed=7))
        )
        assert trace.e.tobytes() == (trace.xhat - trace.x).tobytes()
        assert trace.e.shape == (301, system.n)

    @pytest.mark.parametrize("horizon", [1, 255, 256, 257, 513])
    def test_blocked_err_inf_equals_the_whole_array_formula(self, rng, horizon):
        system = gen.random_detectable_system(rng, n=3, p=1, m=1)
        observer = design_pi_observer(system)
        trace = run_simulation(
            system, observer,
            SimulationConfig(horizon=horizon, input_signal=RandomInput(seed=5)),
        )
        assert trace.err_inf.shape == (horizon + 1,)
        whole = np.abs(trace.xhat - trace.x).max(axis=1)
        assert trace.err_inf.tobytes() == whole.tobytes()

    def test_state_rows_are_views_of_one_array(self, worked_system, worked_observer):
        trace = run_simulation(worked_system, worked_observer, SimulationConfig(horizon=40))
        base = trace.x.base
        assert base is not None
        assert trace.xhat.base is base and trace.v.base is base

    def test_trace_memory_is_the_stacked_array_and_two_norm_rows(self, rng):
        n, p, horizon = 24, 4, 5000
        system = gen.random_detectable_system(rng, n=n, p=p, m=2, unstable_prob=0.0)
        observer = design_pi_observer(system)
        config = SimulationConfig(horizon=horizon, input_signal=RandomInput(seed=1))
        stacked = (horizon + 1) * (2 * n + p) * 8
        norm_rows = 2 * (horizon + 1) * 8
        tracemalloc.start()
        try:
            trace = run_simulation(system, observer, config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.converged_step is not None
        assert retained <= stacked + norm_rows + 16 * 1024
        # One full-horizon (H, n) temporary, such as a whole xhat - x or a
        # whole-horizon copy of the input term between column ranges, would
        # exceed this bound.
        assert peak <= 1.2 * stacked

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
        corrupted = replace(trace, xhat=xhat)
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
        aug = observer.augmented()
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
        corrupted = replace(trace, xhat=xhat)
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
            rate, _ = fit_decay_rate(trace)
            if np.isfinite(rate):
                assert rate <= radius + 0.05

    def test_decay_fit_on_an_unstable_plant_follows_the_observer(self):
        # The plant state reaches ~5.6e11 by step 200, the augmented spectral
        # radius is 0.5. A floor taken from the largest state of the whole run
        # cut the fit off at its first sample; one scaled per step does not.
        system = reportio.load_system(DATA / "observable5.system.json")
        observer = reportio.observer_from_report(
            system, reportio.load_report(DATA / "observable5.design-seed5.json"))
        trace = run_simulation(system, observer, SimulationConfig(
            horizon=200, input_signal=RandomInput(seed=5)))
        assert max(abs(z) for z in verify_radius(observer)) == pytest.approx(0.5)
        rate, _ = fit_decay_rate(trace)
        assert abs(rate - 0.5) <= 0.01


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 5, 6, 49, 50, 499, 500])
    def test_equals_np_median_bit_for_bit(self, rng, size):
        for values in (rng.standard_normal(size), np.exp(-rng.uniform(0, 30, size)),
                       np.round(rng.uniform(0, 3, size))):
            assert _median(values).tobytes() == np.median(values).tobytes()

    def test_nan_gives_nan_as_np_median(self):
        values = np.array([1.0, np.nan, 0.5, 2.0])
        assert np.isnan(_median(values)) and np.isnan(np.median(values))


def verify_radius(observer):
    from piobs import linalg

    return linalg.eigenvalues(observer.augmented())
