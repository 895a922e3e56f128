import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen_systems as gen
from piobs import (
    DesignConfig,
    NotDetectableError,
    NotObservableError,
    SystemRealization,
    analysis,
    design_pi_observer,
    linalg,
    place_poles,
    reportio,
    place_stabilizing_gain,
    verify_design,
)
from piobs.design import (
    _real_block_diag,
    _sylvester_candidates,
    assignment_error,
    coupling_matrix,
    default_target_poles,
    stabilization_plan,
)
from piobs.errors import DimensionError, InputError, NumericalError, SingularMatrixError

DATA = pathlib.Path(__file__).parent / "data"


class TestPlacePoles:
    def test_already_nilpotent_needs_zero_gain(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        K = place_poles(A, [[1.0, 0.0]], [0.0, 0.0])
        assert K == pytest.approx(np.array([[0.0], [0.0]]), abs=1e-12)

    def test_two_state_chain_by_hand(self):
        # char(A + KC) = z^2 - k1 z - k2 must match z^2 - 0.3 z + 0.02
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        K = place_poles(A, [[1.0, 0.0]], [0.1, 0.2])
        assert K == pytest.approx(np.array([[0.3], [-0.02]]), abs=1e-12)

    def test_scalar_shift(self):
        K = place_poles([[0.5]], [[1.0]], [0.2])
        assert K == pytest.approx(np.array([[-0.3]]), abs=1e-14)

    def test_unobservable_pair_is_structural_error(self):
        with pytest.raises(NotObservableError):
            place_poles(np.diag([0.5, 2.0]), [[1.0, 0.0]], [0.1, 0.2])

    def test_open_conjugate_pair_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            place_poles(A, [[1.0, 0.0]], [0.1 + 0.1j, 0.2])

    def test_wrong_target_count_rejected(self):
        with pytest.raises(InputError):
            place_poles([[0.5]], [[1.0]], [0.1, 0.2])

    def test_multi_output_distinct_targets(self, rng):
        A, C = gen.random_observable_pair(rng, 6, 2, radius=1.1)
        targets = [0.1, 0.2, 0.45, -0.3, 0.25 + 0.15j, 0.25 - 0.15j]
        K = place_poles(A, C, targets, seed=1)
        achieved = linalg.eigenvalues(A + K @ C)
        assert linalg.pairing_distance(achieved, targets) < 1e-6

    def test_multi_output_repeated_targets(self, rng):
        A, C = gen.random_observable_pair(rng, 5, 2, radius=0.9)
        targets = [0.2, 0.2, 0.3, 0.3, 0.4]
        K = place_poles(A, C, targets, seed=1)
        coeffs = linalg.poly_from_roots(targets)
        assert assignment_error(A, C, K, coeffs) <= 1e-6

    def test_square_output_matrix_is_exact(self, rng):
        A = rng.standard_normal((3, 3))
        C = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        targets = [0.1, 0.2, 0.3]
        K = place_poles(A, C, targets)
        assert linalg.pairing_distance(linalg.eigenvalues(A + K @ C), targets) < 1e-10


class TestSylvesterCandidates:
    """The block-by-block numpy solve against ``scipy.linalg.solve_sylvester``."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 4),
           st.sampled_from(["real", "complex", "mixed"]), st.integers(0, 2**32 - 1))
    def test_match_scipy_solve_sylvester(self, n, p, kind, seed):
        import scipy.linalg

        p = min(p, n)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        C = rng.standard_normal((p, n))
        pairs = {"real": 0, "complex": n // 2, "mixed": n // 4}[kind]
        reals = n - 2 * pairs
        angles = np.linspace(0.3, 2.8, pairs)
        targets = tuple(complex(r) for r in np.linspace(-0.8, 0.8, reals)) + tuple(
            z for a in angles for z in (0.6 * np.exp(1j * a), 0.6 * np.exp(-1j * a)))
        D = _real_block_diag(targets)
        mine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        candidates = list(_sylvester_candidates(A, C, targets, mine))
        eps = np.finfo(float).eps
        count = 0
        for _ in range(8):
            G = oracle.standard_normal((p, n))
            X = scipy.linalg.solve_sylvester(A.T, -D, -C.T @ G)
            rcond = linalg.reciprocal_condition(X)
            if rcond < 1e-12:
                continue
            K_ref = np.linalg.solve(X.T, G.T)
            K = candidates[count]
            count += 1
            scale = 100 * eps / rcond
            # K places D's spectrum with eigenvector basis X: (A + K C)^T X = X D
            residual = np.abs((A + K @ C).T @ X - X @ D).max()
            assert residual <= scale * (1 + np.abs(K @ C).max()) * np.abs(X).max()
            assert np.abs(K - K_ref).max() <= scale * np.abs(K_ref).max()
        assert count == len(candidates)
        # Every attempt drew one G, so later candidates see the same stream.
        assert mine.random() == oracle.random()


class TestStabilizingGain:
    def test_observable_pair_places_all_poles(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        cfg = DesignConfig(target_poles=(0.1, 0.2))
        K = place_stabilizing_gain(A, [[1.0, 0.0]], cfg)
        assert K == pytest.approx(np.array([[0.3], [-0.02]]), abs=1e-12)

    def test_undetectable_pair_is_infeasible_with_witness(self):
        with pytest.raises(NotDetectableError) as err:
            place_stabilizing_gain(np.diag([0.5, 2.0]), [[1.0, 0.0]])
        assert err.value.witnesses == pytest.approx([2.0])

    def test_detectable_unobservable_pair_keeps_hidden_spectrum(self):
        A = np.diag([2.0, 0.3])
        C = np.array([[1.0, 0.0]])
        plan = stabilization_plan(A, C, DesignConfig(target_poles=(0.1,)))
        assert plan.K == pytest.approx(np.array([[-1.9], [0.0]]), abs=1e-9)
        assert plan.q == 1
        assert plan.inherited_poles == pytest.approx([0.3])
        achieved = linalg.eigenvalues(A + plan.K @ C)
        assert linalg.pairing_distance(achieved, [0.1, 0.3]) < 1e-9

    def test_schur_stability_postcondition_on_random_systems(self, rng):
        for _ in range(15):
            system = gen.random_detectable_system(rng)
            K = place_stabilizing_gain(system.A, system.C)
            assert analysis.is_schur_stable(system.A + K @ system.C, margin=1e-6)


class TestCouplingMatrix:
    def test_identity_basis(self):
        X = coupling_matrix(np.eye(2), [[0.5]], [[0.0]])
        assert X == pytest.approx(np.array([[0.5], [0.0]]))

    def test_scalar_case_without_free_block(self):
        X = coupling_matrix(np.eye(1), [[0.3]])
        assert X == pytest.approx(np.array([[0.7]]))

    def test_permutation_basis(self):
        X = coupling_matrix([[0.0, 1.0], [1.0, 0.0]], [[0.5]], [[0.2]])
        assert X == pytest.approx(np.array([[0.2], [0.5]]))

    def test_singular_basis_rejected(self):
        with pytest.raises(SingularMatrixError):
            coupling_matrix([[1.0, 1.0], [1.0, 1.0]], [[0.5]], [[0.0]])

    def test_bad_lambda_shape_rejected(self):
        with pytest.raises(DimensionError):
            coupling_matrix(np.eye(2), [[0.5]], [[0.1, 0.2]])


class TestDesignPipeline:
    def test_worked_design_matches_hand_computation(self, worked_observer):
        obs = worked_observer
        assert obs.K == pytest.approx(np.array([[-0.3]]), abs=1e-12)
        assert obs.T == pytest.approx(np.array([[1.0]]))
        assert obs.X == pytest.approx(np.array([[0.7]]), abs=1e-12)
        assert obs.L == pytest.approx(np.array([[1.0]]), abs=1e-12)
        assert obs.F == pytest.approx(np.array([[0.56]]), abs=1e-12)
        aug = obs.augmented()
        assert aug == pytest.approx(np.array([[-0.5, 0.56], [-1.0, 1.0]]), abs=1e-12)
        assert linalg.pairing_distance(linalg.eigenvalues(aug), [0.2, 0.3]) < 1e-9

    def test_undetectable_system_raises(self):
        system = SystemRealization(
            A=np.diag([0.5, 2.0]), B=np.eye(2), C=[[1.0, 0.0]]
        )
        with pytest.raises(NotDetectableError) as err:
            design_pi_observer(system)
        assert err.value.witnesses == pytest.approx([2.0])

    def test_stack_full_but_pbh_deficient_is_ambiguous(self):
        # At tol_rank 3e-10 the stack of C = [1, 10] is full rank while the
        # PBH matrix at the merged eigenvalue cluster {0.5, 0.5 + 1e-8} is not.
        system = SystemRealization(
            A=np.diag([0.5, 0.5 + 1e-8]), B=np.ones((2, 1)), C=[[1.0, 10.0]]
        )
        with pytest.raises(NumericalError, match="numerically ambiguous"):
            design_pi_observer(system, DesignConfig(tol_rank=3e-10))

    def test_misjudged_unobservable_block_is_a_numerical_error(self):
        # PBH merges the three eigenvalues into one cluster and calls it
        # unobservable, the stack rank says q = 2, and placement on the
        # 2-state block of that decomposition cannot stabilize the pair: the
        # plan refuses it before any observer is built.
        A, C = np.diag([0.7, 0.7 + 2e-9, 0.7 + 5e-9]), [[3.0, 2.0, 1.0]]
        with pytest.raises(NumericalError, match="did not stabilize A \\+ KC"):
            place_stabilizing_gain(A, C)
        system = SystemRealization(A=A, B=np.ones((3, 1)), C=C)
        with pytest.raises(NumericalError, match="did not stabilize A \\+ KC"):
            design_pi_observer(system)

    def test_stack_misjudged_q_is_refused(self):
        # An observable n = 24 plant of the benchmark population whose
        # observability stack has rank 22. The closed loop on that
        # decomposition keeps its blocks coupled, so the two inherited poles
        # would not be poles of A + KC: the plan refuses instead of writing
        # a wrong split.
        system = reportio.load_system(DATA / "misjudged24.system.json")
        assert (system.n, system.p) == (24, 1)
        assert analysis.kalman_decompose(system.A, system.C).q == 22
        with pytest.raises(NumericalError, match="decomposition is inconsistent"):
            place_stabilizing_gain(system.A, system.C)
        with pytest.raises(NumericalError, match="decomposition is inconsistent"):
            design_pi_observer(system)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 6), st.integers(1, 2), st.integers(0, 2),
           st.floats(-9.0, -5.0), st.integers(0, 2**32 - 1))
    def test_clustered_spectra_pass_or_raise_typed_errors(
        self, n, p, hidden, log_gap, seed
    ):
        # Eigenvalues in clusters 10**log_gap apart, some directions hidden
        # from C, all rotated: a design passes verification or raises one of
        # the three documented errors, nothing else.
        rng = np.random.default_rng(seed)
        hidden = min(hidden, n - p - 1)
        values = []
        while len(values) < n:
            base = rng.uniform(-1.2, 1.2)
            size = min(int(rng.integers(1, 4)), n - len(values))
            values += [base + k * 10.0 ** log_gap for k in range(size)]
        A = np.diag(values)
        A[n - hidden:, :n - hidden] = 0.3 * rng.standard_normal((hidden, n - hidden))
        C = rng.standard_normal((p, n))
        C[:, n - hidden:] = 0.0
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        system = SystemRealization(A=Q @ A @ Q.T, B=np.ones((n, 1)), C=C @ Q.T)
        try:
            obs = design_pi_observer(system)
        except (NotDetectableError, InputError, NumericalError):
            return
        assert obs.verification.passed

    @pytest.mark.parametrize(
        "A, C, pbh_calls, stack_builds",
        [
            # observable, three distinct eigenvalues: one PBH rank per
            # eigenvalue and one observability stack
            (np.diag([0.5, 1.2, -0.3]), [[1.0, 1.0, 1.0]], 3, 1),
            # detectable, unobservable: two PBH ranks and one stack for the
            # full pair; the observable block (A11, C1) is not re-analysed
            (np.diag([2.0, 0.3]), [[1.0, 0.0]], 2, 1),
        ],
        ids=["observable", "unobservable"],
    )
    def test_structural_analysis_runs_once_per_pair(
        self, monkeypatch, A, C, pbh_calls, stack_builds
    ):
        calls = {"pbh_rank_at": 0, "observability_matrix": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)
        system = SystemRealization(A=A, B=np.ones((A.shape[0], 1)), C=C)
        design_pi_observer(system)
        assert calls == {"pbh_rank_at": pbh_calls, "observability_matrix": stack_builds}

    def test_no_random_gain_pair_stabilizes_an_undetectable_system(self, rng):
        # Smoke probe of necessity: for a hidden unstable mode, no (L, F)
        # sample makes the augmented matrix Schur stable.
        import gen_systems as gen
        from piobs import augmented_matrix

        for _ in range(3):
            system, _bad = gen.random_nondetectable_system(rng)
            n, p = system.n, system.p
            for scale in (0.1, 1.0, 10.0):
                for _ in range(67):
                    L = scale * rng.standard_normal((n, p))
                    F = scale * rng.standard_normal((n, p))
                    aug = augmented_matrix(system, L, F)
                    assert not analysis.is_schur_stable(aug)

    def test_augmented_spectrum_splits_into_targets_hidden_and_phi(self, rng):
        for _ in range(10):
            system = gen.random_detectable_system(rng, force_unobservable=True)
            obs = design_pi_observer(system)
            expected = (
                list(obs.assigned_poles)
                + list(obs.inherited_poles)
                + [0.5] * system.p
            )
            aug_spec = linalg.eigenvalues(obs.augmented())
            assert linalg.pairing_distance(aug_spec, expected) < 1e-6

    def test_phi_identity_residual(self, rng):
        for _ in range(10):
            system = gen.random_detectable_system(rng)
            obs = design_pi_observer(system)
            res = np.abs(
                -system.C @ obs.X + np.eye(system.p) - obs.phi
            ).max()
            assert res <= 1e-10

    def test_gain_identities_hold_exactly_as_computed(self, rng):
        system = gen.random_detectable_system(rng, n=5, p=2, m=1)
        obs = design_pi_observer(system)
        assert np.array_equal(obs.L, obs.X - obs.K)
        F = -(system.A - obs.L @ system.C) @ obs.X + obs.X @ (
            -system.C @ obs.X + np.eye(system.p)
        )
        assert np.array_equal(obs.F, F)

    def test_free_block_does_not_move_the_spectrum(self, rng):
        system = gen.random_detectable_system(rng, n=5, p=2, m=2)
        lam1 = rng.standard_normal((3, 2))
        lam2 = rng.standard_normal((3, 2))
        obs1 = design_pi_observer(system, DesignConfig(lambda_block=lam1))
        obs2 = design_pi_observer(system, DesignConfig(lambda_block=lam2))
        assert not np.allclose(obs1.L, obs2.L)
        s1 = linalg.eigenvalues(obs1.augmented())
        s2 = linalg.eigenvalues(obs2.augmented())
        assert linalg.pairing_distance(s1, s2) < 1e-6

    def test_default_targets_are_distinct_and_well_inside_the_disk(self):
        for count in (1, 2, 5, 8):
            poles = default_target_poles(count)
            assert len(set(poles)) == count
            assert all(0.05 < abs(z) < 0.55 for z in poles)


class TestDesignConfigValidation:
    def test_target_outside_unit_disk_rejected(self):
        cfg = DesignConfig(target_poles=(1.2,))
        with pytest.raises(InputError):
            cfg.resolved_target_poles(1)

    def test_open_conjugate_targets_rejected(self):
        cfg = DesignConfig(target_poles=(0.1 + 0.1j, 0.3))
        with pytest.raises(InputError):
            cfg.resolved_target_poles(2)

    def test_zero_phi_rejected(self):
        with pytest.raises(InputError):
            DesignConfig(phi=np.zeros((2, 2))).resolved_phi(2)

    def test_unstable_phi_rejected(self):
        with pytest.raises(InputError):
            DesignConfig(phi=1.5).resolved_phi(1)

    def test_wrong_lambda_shape_rejected(self):
        cfg = DesignConfig(lambda_block=np.ones((2, 2)))
        with pytest.raises(DimensionError):
            cfg.resolved_lambda(4, 1)

    def test_target_count_mismatch_names_expected_count(self):
        cfg = DesignConfig(target_poles=(0.1, 0.2))
        with pytest.raises(InputError, match="expected 3"):
            cfg.resolved_target_poles(3)


class TestVerifyDesign:
    def test_fresh_design_passes_all_checks(self, worked_observer):
        report = verify_design(worked_observer)
        assert report.passed
        assert worked_observer.verification == report
        assert report.similarity_residual <= 1e-12
        assert report.phi_residual <= 1e-12
        assert report.spectral_radius == pytest.approx(0.3, abs=1e-9)

    def test_verification_is_deterministic(self, worked_observer):
        assert verify_design(worked_observer) == verify_design(worked_observer)

    def test_tampered_integral_gain_is_reported(self, worked_observer):
        from dataclasses import replace

        bad = replace(worked_observer, F=worked_observer.F + 0.1)
        assert bad.verification is None
        report = verify_design(bad)
        assert not report.passed
        assert not report.spectrum_ok
        assert not report.similarity_ok
        assert "spectrum-split" in report.failed_checks()
