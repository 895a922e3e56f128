import json
import pathlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen_systems as gen
import oracles
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
    verify_design,
)
from piobs.design import (
    PLACEMENT_TOL,
    _placement_error,
    _riccati_gain,
    _sylvester_candidates,
    coupling_matrix,
    default_target_poles,
    stabilization_plan,
)
from piobs.errors import (
    DimensionError,
    InputError,
    NumericalError,
    RankDeficiencyError,
    SingularMatrixError,
)

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

    @pytest.mark.parametrize("targets, seed, match", [
        ([0.2], -1, "seed must be nonnegative and an integer, got -1"),
        ([0.2], True, "seed must be nonnegative and an integer, got True"),
        ([1.0], 0, "target poles must have magnitude below 1 - margin"),
        ([-2.0], 0, "target poles must have magnitude below 1 - margin"),
    ])
    def test_targets_and_seed_follow_the_design_rule(self, targets, seed, match):
        # DesignConfig.resolved_target_poles; seed=-1 reached numpy's ValueError
        with pytest.raises(InputError, match=match):
            place_poles([[0.5]], [[1.0]], targets, seed=seed)

    def test_multi_output_distinct_targets(self, rng):
        A, C = gen.random_observable_pair(rng, 6, 2, radius=1.1)
        targets = [0.1, 0.2, 0.45, -0.3, 0.25 + 0.15j, 0.25 - 0.15j]
        K = place_poles(A, C, targets, seed=1)
        achieved = linalg.eigenvalues(A + K @ C)
        assert linalg.pairing_distance(achieved, targets) < 1e-6

    @pytest.mark.parametrize("p", [1, 2])
    def test_target_on_the_spectrum_of_a(self, rng, p):
        # 0.5 is an exact eigenvalue of the triangular A, so A^T - 0.5 I is
        # singular: each Sylvester attempt first shifts A by a random K0 C.
        A = np.diag([0.5, -0.4, 0.9, 0.2, -0.7]) + np.triu(rng.standard_normal((5, 5)), 1)
        C = rng.standard_normal((p, 5))
        assert 0.5 in linalg.eigenvalues(A)
        targets = [0.5, 0.1, -0.2, 0.3 + 0.2j, 0.3 - 0.2j]
        K = place_poles(A, C, targets, seed=3)
        assert linalg.pairing_distance(linalg.eigenvalues(A + K @ C), targets) <= 1e-8

    def test_multi_output_repeated_targets(self, rng):
        A, C = gen.random_observable_pair(rng, 5, 2, radius=0.9)
        targets = [0.2, 0.2, 0.3, 0.3, 0.4]
        K = place_poles(A, C, targets, seed=1)
        coeffs = oracles.target_coeffs(targets)
        assert oracles.assignment_error(A, C, K, coeffs) <= 1e-6

    @pytest.mark.parametrize(
        "p, targets",
        [(1, (0.0,) * 3), (1, (0.2, 0.2, 0.2, -0.1)), (2, (0.2, 0.2, 0.2, -0.1)), (2, (0.0,) * 5)],
    )
    def test_repeated_targets_design(self, rng, p, targets):
        # A target repeated m times is placed as min(p, m) Jordan chains of
        # A + KC, the longest of length ceil(m / p): rounding scatters its
        # computed eigenvalues by (eps ||A + KC||)^(1/length), above
        # PLACEMENT_TOL for chains of length 3 and more, while the gain
        # places the characteristic polynomial to rounding. Deadbeat
        # (0, 0, 0) at n = 3 is the first such case; chains of length 2
        # place the poles themselves within PLACEMENT_TOL.
        n = len(targets)
        coeffs = oracles.target_coeffs(targets)
        chain = -(-max(targets.count(z) for z in targets) // p)
        scatter = 0.0
        for seed in range(4):
            A, C = gen.random_observable_pair(rng, n, p, radius=1.2)
            system = SystemRealization(A, np.eye(n)[:, :1], C)
            obs = design_pi_observer(system, DesignConfig(target_poles=targets, seed=seed))
            assert oracles.assignment_error(A, C, obs.K, coeffs) <= 1e-12
            closed = linalg.eigenvalues(A + obs.K @ C)
            scatter = max(scatter, linalg.pairing_distance(closed, targets))
        if chain >= 3:
            assert scatter > 1e-6
        else:
            assert scatter <= PLACEMENT_TOL

    def test_double_target_on_a_badly_scaled_plant(self):
        # ||A + KC|| ~ 2e3 puts the double pole's scatter near 1e-4, while
        # its cluster mean stays within PLACEMENT_TOL.
        rng = np.random.default_rng(7)
        A = np.diag([3e3, -1.5e3, 0.3]) + rng.standard_normal((3, 3))
        C = rng.standard_normal((1, 3))
        targets = [0.1, 0.1, -0.2]
        K = place_poles(A, C, targets)
        assert oracles.assignment_error(A, C, K, oracles.target_coeffs(targets)) <= 1e-7
        closed = linalg.eigenvalues(A + K @ C)
        assert abs(closed[np.abs(closed - 0.1) < 1e-2].mean() - 0.1) <= 1e-6
        assert linalg.pairing_distance(closed, targets) > 1e-6

    def test_long_repeated_chain_is_refused_by_name(self):
        # Deadbeat at n = 16 with one output is one Jordan chain of length
        # 16; the Sylvester gain misses it by far more than PLACEMENT_TOL
        # on this plant, and the refusal says why.
        rng = np.random.default_rng(1)
        A = rng.standard_normal((16, 16)) / 4.0
        C = rng.standard_normal((1, 16))
        with pytest.raises(NumericalError, match="Jordan chain of length 16"):
            place_poles(A, C, [0.0] * 16)

    @pytest.mark.parametrize("p, expected", [(1, 1e-8), (2, 1e-4)])
    def test_repeated_target_spread_counts_to_the_chain_length(self, p, expected):
        # Two copies of 0.2 form one chain of length 2 at p = 1, whose spread
        # counts squared, and two chains of length 1 at p = 2.
        eigs = np.array([0.2 + 1e-4, 0.2 - 1e-4, 0.5], dtype=complex)
        err = _placement_error(eigs, (0.2, 0.2, 0.5), 1.0, p)
        assert err == pytest.approx(expected, rel=1e-9)

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
           st.sampled_from(["real", "complex", "mixed", "repeated"]), st.integers(0, 2**32 - 1))
    @example(n=2, p=1, kind="repeated", seed=66384)  # the unique p = 1 gain is about 8e-4
    def test_match_scipy_solve_sylvester(self, n, p, kind, seed):
        import scipy.linalg

        p = min(p, n)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        C = rng.standard_normal((p, n))
        pairs = {"real": 0, "complex": n // 2, "mixed": n // 4, "repeated": n // 4}[kind]
        reals = n - 2 * pairs
        angles = np.linspace(0.3, 2.8, pairs)
        values = np.linspace(-0.8, 0.8, reals)
        if kind == "repeated":
            # each real three times and each pair twice: D links the copies
            angles = np.repeat(np.linspace(0.3, 2.8, (pairs + 1) // 2), 2)[:pairs]
            values = np.repeat(np.linspace(-0.8, 0.8, (reals + 2) // 3), 3)[:reals]
        targets = tuple(complex(r) for r in values) + tuple(
            z for a in angles for z in (0.6 * np.exp(1j * a), 0.6 * np.exp(-1j * a)))
        D = oracles.real_block_diag(targets, p)
        mine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        candidates = list(_sylvester_candidates(A, C, targets, mine))
        eps = np.finfo(float).eps
        count = 0
        for _ in range(8):
            G = oracle.standard_normal((p, n))
            X = scipy.linalg.solve_sylvester(A.T, -D, -C.T @ G)
            sv = np.linalg.svd(X, compute_uv=False)
            rcond = sv[-1] / sv[0]
            K_ref = np.linalg.solve(X.T, G.T)
            K = candidates[count]
            count += 1
            scale = 100 * eps / rcond
            # K places D's spectrum with eigenvector basis X: (A + K C)^T X = X D
            residual = np.abs((A + K @ C).T @ X - X @ D).max()
            assert residual <= scale * (1 + np.abs(K @ C).max()) * np.abs(X).max()
            assert np.abs(K - K_ref).max() <= scale * (1 + np.abs(K_ref).max())
        assert count == len(candidates)
        # Every attempt drew one G, so later candidates see the same stream.
        assert mine.random() == oracle.random()


class TestStabilizingGain:
    def test_observable_pair_places_all_poles(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        cfg = DesignConfig(target_poles=(0.1, 0.2))
        K = stabilization_plan(A, [[1.0, 0.0]], cfg).K
        assert K == pytest.approx(np.array([[0.3], [-0.02]]), abs=1e-12)

    def test_undetectable_pair_is_infeasible_with_witness(self):
        with pytest.raises(NotDetectableError) as err:
            stabilization_plan(np.diag([0.5, 2.0]), [[1.0, 0.0]]).K
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
            K = stabilization_plan(system.A, system.C).K
            assert analysis.is_schur_stable(system.A + K @ system.C, margin=1e-6)

    @pytest.mark.parametrize("check", [stabilization_plan, analysis.is_detectable,
                                       analysis.classify_eigenvalues])
    def test_zero_output_matrix_is_a_typed_error(self, check):
        with pytest.raises(RankDeficiencyError, match="C must be nonzero"):
            check(np.diag([0.5, 0.2]), np.zeros((1, 2)))


class TestRiccatiGain:
    def test_matches_scipy_and_stabilizes_unstable_detectable_pairs(self, rng):
        import scipy.linalg

        for _ in range(20):
            n = int(rng.integers(2, 25))
            p = int(rng.integers(1, min(4, n) + 1))
            q = int(rng.integers(p, n + 1))
            # unstable observable block, stable hidden block, then rotated
            A11, C1 = gen.random_observable_pair(rng, q, p, radius=1.3)
            A = np.zeros((n, n))
            A[:q, :q] = A11
            A[q:, :q] = rng.standard_normal((n - q, q))
            A[q:, q:] = 0.6 * gen.rand_orthogonal(rng, n - q)
            S = gen.rand_orthogonal(rng, n)
            A, C = S @ A @ S.T, np.hstack([C1, np.zeros((p, n - q))]) @ S.T
            K = _riccati_gain(A, C)
            P = scipy.linalg.solve_discrete_are(A.T, C.T, np.eye(n), np.eye(p))
            K_ref = -A @ P @ C.T @ np.linalg.inv(np.eye(p) + C @ P @ C.T)
            assert np.abs(K - K_ref).max() <= 1e-9 * max(1.0, np.abs(K_ref).max())
            assert analysis.is_schur_stable(A + K @ C)

    @pytest.mark.parametrize(
        "hidden, match", [(2.0, "overflowed"), (1.0, "did not converge")]
    )
    def test_undetectable_pair_is_a_riccati_error(self, hidden, match):
        with pytest.raises(NumericalError, match=f"Riccati doubling {match}"):
            _riccati_gain(np.diag([0.5, hidden]), [[1.0, 0.0]])

    def test_default_poles_fall_back_and_explicit_poles_are_refused(self, bench_plants):
        # An observable n = 32 plant on which no candidate places the default
        # fan within 1e-6: the default design takes the Riccati gain and
        # reports the poles it achieves; the same poles asked for explicitly
        # are refused, not silently replaced.
        plant = next(pl for pl in bench_plants.sweep_population(1, 0)
                     if pl.name == "sweep-n32-5")
        system = SystemRealization(plant.A, plant.B, plant.C)
        obs = design_pi_observer(system, DesignConfig(seed=1))
        assert obs.verification.passed and obs.verification.spectrum_ok
        # The gain is the filter DARE gain of the plant, and it stabilizes.
        import scipy.linalg

        A, C = system.A, system.C
        p = C.shape[0]
        P = scipy.linalg.solve_discrete_are(A.T, C.T, np.eye(32), np.eye(p))
        K_ref = -A @ P @ C.T @ np.linalg.inv(np.eye(p) + C @ P @ C.T)
        assert np.abs(obs.K - K_ref).max() <= 1e-9 * np.abs(K_ref).max()
        assert analysis.is_schur_stable(A + obs.K @ C, margin=1e-2)
        explicit = DesignConfig(target_poles=default_target_poles(32), seed=1)
        with pytest.raises(NumericalError, match="pole placement failed"):
            design_pi_observer(system, explicit)


def completion(C, tol_rank=linalg.DEFAULT_TOL_RANK):
    """The basis completion T of ``C``: the first output of :func:`coupling_matrix`."""
    return coupling_matrix(C, 0.5 * np.eye(len(C)), tol_rank=tol_rank)[0]


class TestBasisCompletion:
    """The T that :func:`coupling_matrix` completes C to, through :func:`completion`."""

    def test_pivot_in_first_column(self):
        T = completion([[1.0, 0.0]])
        assert np.array_equal(T, np.eye(2))

    def test_pivot_in_second_column(self):
        T = completion([[0.0, 1.0]])
        assert np.array_equal(T, [[0.0, 1.0], [1.0, 0.0]])

    def test_unit_determinant_completion(self):
        T = completion([[1.0, 2.0]])
        assert np.array_equal(T, [[1.0, 2.0], [0.0, 1.0]])
        assert np.linalg.det(T) == pytest.approx(1.0)

    @pytest.mark.parametrize("C, free", [
        ([[1.0, 4.0]], [[0.0, 1.0]]),
        ([[-1.0, 4.0]], [[0.0, 1.0]]),
        ([[4.0, 1.0]], [[0.0, 1.0]]),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 4.0]], [[0.0, 0.0, 1.0]]),
    ])
    def test_exact_relax_tie_goes_to_the_leftmost_column(self, C, free):
        # |c_j| = PIVOT_RELAX |c_k| exactly: the pivot is column j whatever
        # the last bit of the singular vectors.
        assert np.array_equal(completion(C)[len(C):], free)

    def test_random_completions_satisfy_invariants(self, rng):
        basis_rows = set(map(tuple, np.eye(8)))
        for _ in range(50):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, n + 1))
            C = rng.standard_normal((p, n))
            T = completion(C)
            assert np.array_equal(T[:p], C)
            assert linalg.numerical_rank(T) == n
            for row in T[p:]:
                assert tuple(np.pad(row, (0, 8 - n))) in basis_rows

    def test_rank_deficient_input_rejected(self):
        with pytest.raises(RankDeficiencyError):
            completion([[1.0, 2.0], [2.0, 4.0]])

    @pytest.mark.parametrize("tol_rank", [-1.0, float("nan"), 0.0, 5.0, 1e-300])
    def test_bad_tol_rank_is_an_input_error(self, tol_rank):
        # Not a singular T "completed" from the rank-1 C, and not a rank
        # verdict reached at a tolerance that is itself out of range.
        with pytest.raises(InputError, match="tol_rank") as info:
            completion([[1.0, 2.0], [2.0, 4.0]], tol_rank)
        assert not isinstance(info.value, RankDeficiencyError)

    def test_pivots_depend_only_on_the_row_space(self, rng):
        # The pivots come from an orthonormal basis of the row space of C,
        # so C and M C, for an invertible M, leave the same free rows.
        for _ in range(50):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, n + 1))
            C = rng.standard_normal((p, n))
            M = (np.linalg.qr(rng.standard_normal((p, p)))[0]
                 @ np.diag(rng.uniform(0.5, 2.0, p)) @ np.linalg.qr(rng.standard_normal((p, p)))[0])
            assert np.array_equal(completion(C)[p:], completion(M @ C)[p:])

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    @pytest.mark.parametrize("ratio, full", [(1.001e-9, True), (0.999e-9, False)])
    def test_completion_takes_the_rank_rule_of_the_loader(self, scale, ratio, full):
        # sigma_3 / sigma_1 just above and just below tol_rank = 1e-9: the
        # loader and the completion accept C together or refuse it together,
        # whatever the scale of C.
        rng = np.random.default_rng(3)
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        C = scale * U @ np.diag([1.0, 0.3, ratio]) @ V.T

        def accepts(build):
            try:
                build()
            except RankDeficiencyError:
                return False
            return True

        assert accepts(lambda: SystemRealization(np.eye(7), np.zeros((7, 1)), C)) is full
        assert accepts(lambda: completion(C)) is full


class TestCouplingMatrix:
    def test_identity_basis(self):
        X = coupling_matrix([[1.0, 0.0]], [[0.5]], [[0.0]])[1]
        assert X == pytest.approx(np.array([[0.5], [0.0]]))

    def test_scalar_case_without_free_block(self):
        X = coupling_matrix(np.eye(1), [[0.3]])[1]
        assert X == pytest.approx(np.array([[0.7]]))

    def test_permutation_basis(self):
        X = coupling_matrix([[0.0, 1.0]], [[0.5]], [[0.2]])[1]
        assert X == pytest.approx(np.array([[0.2], [0.5]]))

    def test_singular_pivot_block_rejected(self, monkeypatch):
        # The rank rule keeps an exactly singular C_P out, so the solver's
        # LinAlgError is forced here; it surfaces as SingularMatrixError.
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularMatrixError, match="C_P is singular"):
            coupling_matrix([[1.0, 0.0]], [[0.5]], [[0.0]])

    def test_more_outputs_than_states_is_rank_deficient(self):
        with pytest.raises(RankDeficiencyError, match="full row rank 2, got numerical rank 1"):
            coupling_matrix([[1.0], [2.0]], 0.5 * np.eye(2))

    def test_free_rows_take_lambda_exactly(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 13))
            p = int(rng.integers(1, n + 1))
            C = rng.standard_normal((p, n))
            lam = rng.standard_normal((n - p, p))
            phi = 0.5 * np.eye(p) + 0.1 * rng.standard_normal((p, p))
            T, X = coupling_matrix(C, phi, lam)
            assert np.array_equal(X[T[p:].argmax(axis=1)], lam)
            assert np.abs(-C @ X + np.eye(p) - phi).max() <= 1e-12
            Y = np.linalg.solve(T, np.vstack([np.eye(p) - phi, lam]))
            tol = 1e-14 * np.linalg.cond(T) * max(1.0, np.abs(Y).max())
            assert np.abs(X - Y).max() <= tol

    def test_bad_lambda_shape_rejected(self):
        with pytest.raises(DimensionError):
            coupling_matrix([[1.0, 0.0]], [[0.5]], [[0.1, 0.2]])

    def test_phi_of_the_wrong_shape_rejected(self):
        with pytest.raises(DimensionError, match="phi must be 1x1"):
            coupling_matrix([[1.0, 0.0]], np.eye(2))


class TestDesignPipeline:
    @pytest.mark.parametrize("A, C", [([[0.5, 1e8], [0.0, 0.3]], [[1.0, 0.0]]),
                                      (np.diag([1e7, 0.5]), [[1.0, 1.0]])])
    def test_plant_with_a_large_norm_designs(self, A, C):
        # Stable and observable, with ||A||_2 >= 1e7 (a state in badly chosen
        # units). A staircase that cut C, unit norm, at 100 tol_rank ||A||_2
        # found q = 0, and kalman_decompose raised NumericalError.
        assert analysis.observable_dimension(A, C) == 2
        assert linalg.numerical_rank(analysis.observability_matrix(A, C)) == 2
        assert all(c.observable for c in analysis.classify_eigenvalues(A, C))
        obs = design_pi_observer(SystemRealization(A, [[1.0], [0.0]], C))
        assert obs.verification.spectral_radius == pytest.approx(0.5, abs=1e-9)
        assert obs.verification.spectral_radius < 1.0 - obs.config.margin

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

    def test_pbh_deficient_cluster_designs_with_the_staircase_q(self):
        # At tol_rank 3e-10 the PBH matrix at the merged eigenvalue cluster
        # {0.5, 0.5 + 1e-8} is rank deficient, and the staircase agrees: the
        # 1e-8 split couples below its cut, so q = 1 and the second mode is
        # inherited. (The observability stack called this pair full rank.)
        A, C = np.diag([0.5, 0.5 + 1e-8]), [[1.0, 10.0]]
        system = SystemRealization(A=A, B=np.ones((2, 1)), C=C, tol_rank=3e-10)
        assert analysis.observable_dimension(A, C, system.tol_rank) == 1
        obs = design_pi_observer(system)
        assert obs.verification.passed
        assert len(obs.assigned_poles) == len(obs.inherited_poles) == 1
        assert abs(obs.inherited_poles[0] - 0.5) <= 1e-7
        # A q = n that PBH contradicts is still refused.
        classifications = analysis.classify_eigenvalues(A, C, system.tol_rank)
        with pytest.raises(NumericalError, match="numerically ambiguous"):
            analysis.observability_verdict(classifications, 2)

    def test_merged_cluster_takes_the_staircase_q(self):
        # PBH merges the three eigenvalues into one cluster and calls it
        # unobservable; the staircase splits off the one direction C sees,
        # q = 1. Two explicit targets are refused as the wrong count, and
        # default poles design with two inherited poles that A + KC has.
        A, C = np.diag([0.7, 0.7 + 2e-9, 0.7 + 5e-9]), [[3.0, 2.0, 1.0]]
        assert analysis.kalman_decompose(A, C).q == 1
        for poles in (default_target_poles(2), (0.0, 0.0)):
            with pytest.raises(InputError, match="expected 1 target pole"):
                stabilization_plan(A, C, DesignConfig(target_poles=poles))
        system = SystemRealization(A=A, B=np.ones((3, 1)), C=C)
        obs = design_pi_observer(system)
        assert obs.verification.passed
        assert len(obs.assigned_poles) == 1 and len(obs.inherited_poles) == 2
        closed = linalg.eigenvalues(A + obs.K @ C)
        assert linalg.pairing_distance(closed, obs.assigned_poles + obs.inherited_poles) <= PLACEMENT_TOL

    @pytest.mark.parametrize(
        "hidden, poles",
        [
            (0.5 * np.eye(3) + np.eye(3, k=1), None),
            (0.5 * np.eye(3) + np.eye(3, k=1), "fan"),
            (np.eye(6, k=-1), None),
            (np.eye(6, k=-1), "fan"),
            (np.eye(3, k=-1), (0.0, 0.0, 0.0, 0.0)),
        ],
        ids=["J3-default", "J3-fan", "delay6-default", "delay6-fan", "delay3-deadbeat"],
    )
    def test_defective_unobservable_block_designs(self, hidden, poles):
        # An unobserved Jordan block (or delay chain) scatters in every
        # eigenvalue call by (eps ||A||)^(1/m), differently each time, so
        # the inherited poles cannot be paired one by one with eig(A + KC).
        # The plan still designs, and A + KC keeps the block's eigenvalue as
        # the mean of the scattered ones.
        rng = np.random.default_rng(5)
        q, m = 4, hidden.shape[0]
        A11, C1 = gen.random_observable_pair(rng, q, 1, radius=0.9)
        A = np.block([[A11, np.zeros((q, m))], [rng.standard_normal((m, q)), hidden]])
        S = gen.rand_orthogonal(rng, q + m)
        A, C = S @ A @ S.T, np.hstack([C1, np.zeros((1, m))]) @ S.T
        targets = default_target_poles(q) if poles == "fan" else poles
        system = SystemRealization(A, np.ones((q + m, 1)), C)
        obs = design_pi_observer(system, DesignConfig(target_poles=targets))
        assert obs.verification.passed
        assert len(obs.inherited_poles) == m
        assert abs(np.mean(obs.inherited_poles) - hidden[0, 0]) <= 1e-9
        # the cluster at the block's eigenvalue: its m copies, and the
        # deadbeat targets that coincide with them
        size = m + (targets or ()).count(hidden[0, 0])
        closed = linalg.eigenvalues(A + obs.K @ C)
        cluster = closed[np.argsort(np.abs(closed - hidden[0, 0]))[:size]]
        assert abs(cluster.mean() - hidden[0, 0]) <= 1e-9

    def test_plant_the_stack_misjudged_designs(self):
        # An observable n = 24 plant of the benchmark population whose
        # observability stack has rank 22. The staircase gives q = 24, so
        # every pole is assigned and the reported split is the spectrum of
        # A + KC.
        system = reportio.load_system(DATA / "misjudged24.system.json")
        assert (system.n, system.p) == (24, 1)
        stack = analysis.observability_matrix(system.A, system.C)
        assert linalg.numerical_rank(stack) == 22
        assert analysis.kalman_decompose(system.A, system.C).q == 24
        obs = design_pi_observer(system)
        assert obs.verification.passed
        assert len(obs.assigned_poles) == 24 and obs.inherited_poles == ()
        closed = linalg.eigenvalues(system.A + obs.K @ system.C)
        assert linalg.pairing_distance(closed, obs.assigned_poles) <= 1e-6

    @pytest.mark.parametrize("case", json.loads(
        (DATA / "rank_stress_refused.json").read_text())["cases"], ids=lambda c: str(c["case"]))
    def test_c_the_loader_accepts_is_completed_and_judged_by_the_gate(self, case):
        # sigma_p / sigma_1 of 1.04e-9 to 1.73e-9: full row rank to the loader
        # at the default tol_rank 1e-9. The completion must agree, and the
        # design is then kept or refused by verification (exit 4), never
        # called rank deficient (exit 3).
        C = np.array(case["C"])
        p, n = C.shape
        system = SystemRealization(0.5 * np.eye(n), np.zeros((n, 1)), C)
        assert np.array_equal(completion(C)[:p], C)
        try:
            design_pi_observer(system)
        except NumericalError as exc:
            assert str(exc).startswith("designed observer failed verification")

    def test_rank_of_c_is_decided_at_the_design_tol_rank_only(self):
        # sigma_2 / sigma_1 = 2e-11: full row rank at tol_rank 1e-12, not at
        # the default 1e-9. The design takes every rank at the system's
        # tol_rank, so the loader's verdict on C is the completion's, and the
        # report records that tolerance. A tuple is loaded at the default.
        A, B, C = np.diag([0.5, 0.2]), np.ones((2, 1)), [[1.0, 2.0], [0.0, 1e-10]]
        obs = design_pi_observer(SystemRealization(A, B, C, tol_rank=1e-12), DesignConfig())
        assert obs.verification.passed
        assert reportio.design_report_doc(obs, obs.verification)["config"]["tol_rank"] == 1e-12
        with pytest.raises(RankDeficiencyError):
            design_pi_observer((A, B, C))

    def test_nearly_rank_deficient_output_keeps_the_inherited_split(self):
        # Two nearly parallel sensors on an exactly hidden block. Where
        # sigma_2(C) / sigma_1(C) = 5e-8 falls below the staircase cut, the
        # first step drops an output direction, and the block gain (some
        # 2e2) multiplies what the drop leaves in C T_k[:, q:] into the
        # (1, 2) block of T_k^T (A + KC) T_k. That stays at rounding level,
        # so the inherited poles are poles of A + KC.
        designs = dropped = 0
        for seed in range(6):
            for delta in (1e-4, 1e-6, 1e-7):
                rng = np.random.default_rng(seed)
                C1 = np.array([[1.0, 1e-3], [1.0, 1e-3 + delta]])
                A = np.block([[np.diag([0.9, -0.5]), np.zeros((2, 2))],
                              [rng.standard_normal((2, 2)), np.diag([0.6, -0.3])]])
                S = gen.rand_orthogonal(rng, 4)
                A, C = S @ A @ S.T, np.hstack([C1, np.zeros((2, 2))]) @ S.T
                dec = analysis.kalman_decompose(A, C)
                assert dec.q == 2
                sigma = np.linalg.svd(C, compute_uv=False)
                cut = linalg.STAIRCASE_SCALE * linalg.DEFAULT_TOL_RANK * max(
                    1.0, np.linalg.norm(A, 2))
                for poles in (None, (0.1, -0.2)):
                    try:
                        obs = design_pi_observer(SystemRealization(A, np.ones((4, 1)), C),
                                                 DesignConfig(target_poles=poles))
                    except NumericalError:
                        continue
                    designs += 1
                    dropped += sigma[1] < cut * sigma[0]
                    gained = dec.T_k[:, :2].T @ obs.K @ C @ dec.T_k[:, 2:]
                    assert np.abs(gained).max() <= 1e-12
                    closed = linalg.eigenvalues(A + obs.K @ C)
                    split = obs.assigned_poles + obs.inherited_poles
                    assert linalg.pairing_distance(closed, split) <= 1e-6
        assert designs >= 28 and dropped >= 4

    def test_weakly_observed_hidden_block_is_ambiguous(self):
        # The hidden block is seen through C at 2.5e-8: above the PBH
        # tolerance, below the staircase cut. PBH calls the pair observable
        # while q = 2, so the design is refused; inheriting that block would
        # report poles that A + KC misses by 1.1e-6.
        A, C = gen.weakly_observed_hidden_block()
        assert analysis.observable_dimension(A, C) == 2
        assert all(c.observable for c in analysis.classify_eigenvalues(A, C))
        with pytest.raises(NumericalError, match="numerically ambiguous"):
            design_pi_observer(SystemRealization(A, np.ones((4, 1)), C))

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
        "A, C, pbh_calls",
        [
            # observable, three distinct eigenvalues: one PBH rank per
            # eigenvalue and one staircase
            (np.diag([0.5, 1.2, -0.3]), [[1.0, 1.0, 1.0]], 3),
            # detectable, unobservable: two PBH ranks and one staircase for
            # the full pair; the observable block (A11, C1) is not re-analysed
            (np.diag([2.0, 0.3]), [[1.0, 0.0]], 2),
        ],
        ids=["observable", "unobservable"],
    )
    def test_structural_analysis_runs_once_per_pair(self, monkeypatch, A, C, pbh_calls):
        calls = {"pbh_rank_at": 0, "observability_staircase": 0, "observability_matrix": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)
        system = SystemRealization(A=A, B=np.ones((A.shape[0], 1)), C=C)
        design_pi_observer(system)
        assert calls == {"pbh_rank_at": pbh_calls, "observability_staircase": 1,
                         "observability_matrix": 0}

    def test_no_random_gain_pair_stabilizes_an_undetectable_system(self, rng):
        # Smoke probe of necessity: for a hidden unstable mode, no (L, F)
        # sample makes the augmented matrix Schur stable.
        import gen_systems as gen
        from piobs import PiObserver

        for _ in range(3):
            system, _bad = gen.random_nondetectable_system(rng)
            n, p = system.n, system.p
            zeros = np.zeros((n, p))
            unchecked = PiObserver(
                system=system, L=zeros, F=zeros, K=zeros, T=np.eye(n), X=zeros,
                phi=np.eye(p), lambda_block=np.zeros((n - p, p)),
                assigned_poles=(), inherited_poles=(),
            )
            for scale in (0.1, 1.0, 10.0):
                for _ in range(67):
                    L = scale * rng.standard_normal((n, p))
                    F = scale * rng.standard_normal((n, p))
                    aug = replace(unchecked, L=L, F=F).augmented()
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

    def test_reported_split_is_the_spectrum_of_a_plus_kc(self, bench_plants):
        # Every design of the benchmark's sweep plants up to n = 32 reports
        # assigned + inherited poles that A + KC has.
        misses, designs = [], 0
        for seed in (1, 2, 3):
            for index in (0, 1):
                for plant in bench_plants.sweep_population(seed, index):
                    if plant.n > 32:
                        continue
                    system = SystemRealization(plant.A, plant.B, plant.C)
                    try:
                        obs = design_pi_observer(system, DesignConfig(seed=seed))
                    except (NotDetectableError, NumericalError):
                        continue
                    designs += 1
                    closed = linalg.eigenvalues(system.A + obs.K @ system.C)
                    split = obs.assigned_poles + obs.inherited_poles
                    dist = linalg.pairing_distance(closed, split)
                    if dist > 1e-6:
                        misses.append((seed, index, plant.name, dist))
        assert designs > 300
        assert misses == []

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

    @pytest.mark.parametrize("poles", [(float("nan"),), (0.1, float("nan"))])
    def test_nan_target_is_refused_by_the_magnitude_rule(self, poles):
        # max() skips a NaN that is not first, and NaN >= bound is False
        cfg = DesignConfig(target_poles=poles)
        with pytest.raises(InputError, match="got magnitude nan"):
            cfg.resolved_target_poles(len(poles))

    @pytest.mark.parametrize("name, value", [
        ("margin", "abc"), ("margin", None), ("tol_eig", [1]), ("tol_eig", True),
        ("seed", "x"), ("seed", 1.5), ("seed", 1.0),
    ])
    def test_setting_of_wrong_type_or_range_is_refused_when_built(self, name, value):
        with pytest.raises(InputError, match=f"^{name} must be"):
            DesignConfig(**{name: value})

    @pytest.mark.parametrize("value", [None, float("nan"), "1e-9"])
    @pytest.mark.parametrize("build", [
        lambda t: SystemRealization([[0.5]], [[1.0]], [[1.0]], tol_rank=t),
        lambda t: stabilization_plan([[0.5]], [[1.0]], tol_rank=t),
    ], ids=["SystemRealization", "stabilization_plan"])
    def test_tol_rank_of_wrong_type_or_range_is_refused(self, build, value):
        with pytest.raises(InputError, match="^tol_rank must be"):
            build(value)

    @pytest.mark.parametrize("poles, entry", [
        (["x"], "'x'"), ("abc", "'abc'"), ([None], "None"), (["0.5"], "'0.5'"),
        ([0.1, True], "True"),
    ])
    def test_target_that_is_not_a_number_is_refused_when_built(self, poles, entry):
        with pytest.raises(InputError, match=f"^target pole {entry} is not a number$"):
            DesignConfig(target_poles=poles)

    def test_default_targets_need_a_positive_count(self):
        with pytest.raises(InputError, match="count=0"):
            default_target_poles(0)

    def test_numpy_scalars_are_accepted(self):
        cfg = DesignConfig(margin=np.float64(0.1), tol_eig=np.float32(1e-8), seed=np.int64(3))
        assert cfg.seed == 3
        system = SystemRealization([[0.5]], [[1.0]], [[1.0]], tol_rank=np.float64(1e-9))
        assert design_pi_observer(system).verification.passed

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


class TestObserverMatrixChecks:
    @pytest.mark.parametrize("name, value, error", [
        ("K", np.zeros((2, 1)), DimensionError),
        ("X", np.zeros((1, 2)), DimensionError),
        ("T", np.array([[np.nan]]), InputError),
        ("lambda_block", np.zeros((1, 1)), DimensionError),
    ])
    def test_bad_matrix_is_refused_when_the_observer_is_built(self, worked_observer, name,
                                                               value, error):
        with pytest.raises(error, match=f"^observer {name} "):
            replace(worked_observer, **{name: value})

    def test_non_numeric_entry_is_an_input_error(self, worked_observer):
        with pytest.raises(InputError, match="^observer L: entries are not numeric"):
            replace(worked_observer, L=[["a"]])

    def test_matrices_are_stored_as_float_arrays(self, worked_observer):
        rebuilt = replace(worked_observer, L=worked_observer.L.tolist(), phi=[[0.3]])
        assert rebuilt.L.dtype == float and rebuilt.L.shape == (1, 1)
        assert verify_design(rebuilt) == verify_design(worked_observer)


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


def assert_builtin_complex(values, reference):
    """Each value is a built-in complex with the bits ``complex(z)`` gives the
    matching ``z`` of ``reference`` (a numpy array or a sequence)."""
    assert len(values) == len(reference)
    for z, w in zip(values, reference):
        assert type(z) is complex
        w = complex(w)
        assert struct.pack("<2d", z.real, z.imag) == struct.pack("<2d", w.real, w.imag)


class TestSpectraAreBuiltinComplex:
    """Spectra, poles and witnesses hold built-in ``complex``, never
    ``numpy.complex128``, bit for bit the values numpy computed."""

    @staticmethod
    def check_observer(obs):
        rep = obs.verification
        assert_builtin_complex(rep.augmented_spectrum, linalg.eigenvalues(obs.augmented()))
        assert_builtin_complex(rep.predicted_spectrum, obs.predicted_spectrum())
        dec = analysis.kalman_decompose(obs.system.A, obs.system.C, obs.system.tol_rank)
        assert_builtin_complex(obs.inherited_poles, dec.unobservable_eigenvalues)
        text = reportio.dumps_doc(reportio.design_report_doc(obs, rep))
        back = reportio.observer_from_report(obs.system, json.loads(text))
        assert_builtin_complex(back.assigned_poles, obs.assigned_poles)
        assert_builtin_complex(back.inherited_poles, obs.inherited_poles)
        return dec

    @pytest.mark.parametrize("count", [1, 2, 5, 16])
    def test_default_target_poles(self, count):
        angles = np.pi * (2 * np.arange(count) + 1 - count) / (2 * count)
        assert_builtin_complex(default_target_poles(count), 0.3 * np.exp(1j * angles))

    def test_placement_path(self):
        system = reportio.load_system(DATA / "unobservable4.system.json")
        obs = design_pi_observer(system, DesignConfig(seed=5))
        self.check_observer(obs)
        assert_builtin_complex(obs.assigned_poles, default_target_poles(len(obs.assigned_poles)))

    def test_riccati_path(self, bench_plants):
        # an unobservable n = 24 plant whose default fan is not placed
        plant = next(pl for pl in bench_plants.sweep_population(1, 0)
                     if pl.name == "sweep-n24-4")
        obs = design_pi_observer(SystemRealization(plant.A, plant.B, plant.C),
                                 DesignConfig(seed=1))
        dec = self.check_observer(obs)
        assert obs.inherited_poles
        achieved = linalg.eigenvalues(dec.A11 + _riccati_gain(dec.A11, dec.C1) @ dec.C1)
        assert_builtin_complex(obs.assigned_poles, achieved)

    def test_witnesses(self):
        A, C = np.diag([0.5, 2.0]), np.array([[1.0, 0.0]])
        spectrum = linalg.eigenvalues(A)
        assert_builtin_complex(analysis.is_detectable(A, C).witnesses, spectrum[1:])
        with pytest.raises(NotDetectableError) as info:
            design_pi_observer((A, np.ones((2, 1)), C))
        assert_builtin_complex(info.value.witnesses, spectrum[1:])
        assert_builtin_complex(NotDetectableError(spectrum).witnesses, spectrum)
