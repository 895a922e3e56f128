import numpy as np
import pytest

import gen_systems as gen
import oracles
from piobs import analysis, linalg
from piobs.errors import NumericalError


def diag_pair(c_row):
    return np.diag([0.5, 2.0]), np.array([c_row])


class TestSchurStability:
    def test_contraction_is_stable(self):
        verdict = analysis.is_schur_stable(0.5 * np.eye(3))
        assert verdict
        assert verdict.spectral_radius == pytest.approx(0.5)

    def test_identity_is_unstable(self):
        verdict = analysis.is_schur_stable(np.eye(2))
        assert not verdict
        assert verdict.worst_eigenvalue == pytest.approx(1.0)

    def test_rotationlike_matrix_radius_from_oracle(self):
        roots = oracles.quadratic_roots(0.0, 0.25)
        verdict = analysis.is_schur_stable([[0.0, 1.0], [-0.25, 0.0]])
        assert verdict
        assert verdict.spectral_radius == pytest.approx(max(abs(r) for r in roots))

    def test_margin_shrinks_the_disk(self):
        assert analysis.is_schur_stable([[0.95]], margin=0.0)
        assert not analysis.is_schur_stable([[0.95]], margin=0.1)


class TestPbhRank:
    def test_observable_direction_full_rank(self):
        A, C = diag_pair([0.0, 1.0])
        assert analysis.pbh_rank_at(A, C, 2.0) == 2

    def test_unobservable_direction_drops_rank(self):
        A, C = diag_pair([1.0, 0.0])
        assert analysis.pbh_rank_at(A, C, 2.0) == 1

    def test_rank_one_scalar_case(self):
        assert analysis.pbh_rank_at(np.zeros((1, 1)), [[1.0]], 1.0) == 1


class TestClassification:
    def test_unstable_mode_observable(self):
        A, C = diag_pair([0.0, 1.0])
        cls = analysis.classify_eigenvalues(A, C)
        by_val = {round(c.eigenvalue.real, 6): c for c in cls}
        assert not by_val[0.5].observable  # C sees only the second state
        assert by_val[0.5].stable
        assert by_val[2.0].observable and not by_val[2.0].stable

    def test_unstable_mode_hidden(self):
        A, C = diag_pair([1.0, 0.0])
        cls = analysis.classify_eigenvalues(A, C)
        by_val = {round(c.eigenvalue.real, 6): c for c in cls}
        assert by_val[0.5].stable and by_val[0.5].observable
        assert not by_val[2.0].stable and not by_val[2.0].observable

    def test_all_stable(self):
        cls = analysis.classify_eigenvalues(0.3 * np.eye(2), [[1.0, 0.0]])
        assert all(c.stable for c in cls)

    def test_boundary_magnitude_counts_as_unstable(self):
        cls = analysis.classify_eigenvalues(np.eye(1), [[1.0]])
        assert not cls[0].stable


class TestDetectability:
    def test_detectable_when_unstable_mode_visible(self):
        A, C = diag_pair([0.0, 1.0])
        assert analysis.is_detectable(A, C)

    def test_hidden_unstable_mode_with_witness(self):
        A, C = diag_pair([1.0, 0.0])
        verdict = analysis.is_detectable(A, C)
        assert not verdict
        assert verdict.witnesses == pytest.approx([2.0])

    def test_stable_system_always_detectable(self):
        assert analysis.is_detectable(0.3 * np.eye(2), [[1.0, 0.0]])

    def test_grid_sampling_agrees_with_eigenvalue_form(self, rng):
        # The rank of [C; zI - A] can only drop at eigenvalues of A, so a
        # sample containing the unstable eigenvalues plus random exterior
        # points must agree with the eigenvalue-enumeration verdict.
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, min(3, n) + 1))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, n))
            if int(rng.integers(0, 2)):
                A[: n - p or 1, :] *= 0.1  # occasionally shrink to vary spectra
            verdict = analysis.is_detectable(A, C)
            zs = [z for z in linalg.eigenvalues(A) if abs(z) >= 1.0]
            zs += [
                complex(r * np.cos(t), r * np.sin(t))
                for r, t in zip(rng.uniform(1.0, 3.0, 5), rng.uniform(0, 2 * np.pi, 5))
            ]
            sampled = all(analysis.pbh_rank_at(A, C, z) == n for z in zs)
            assert sampled == bool(verdict)


class TestObservability:
    def test_chain_is_observable(self):
        assert analysis.is_observable([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])

    def test_decoupled_state_is_not(self):
        A, C = diag_pair([1.0, 0.0])
        assert not analysis.is_observable(A, C)

    def test_scalar(self):
        assert analysis.is_observable([[0.5]], [[1.0]])

    def test_agrees_with_exact_stack_rank_on_integer_pairs(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, min(3, n) + 1))
            A, C = gen.random_integer_pair(rng, n, p)
            exact = oracles.exact_observability_rank(A.tolist(), C.tolist()) == n
            assert analysis.is_observable(A, C) == exact

    def test_pbh_full_but_stack_deficient_is_ambiguous(self):
        # The 1e-8 split passes the PBH rank test at one merged cluster but
        # leaves the observability stack numerically rank one.
        with pytest.raises(NumericalError, match="numerically ambiguous"):
            analysis.is_observable(np.diag([3.0, 3.0 + 1e-8]), [[1.0, 1.0]])


class TestKalmanDecomposition:
    def test_split_of_diagonal_pair(self):
        A, C = diag_pair([1.0, 0.0])
        dec = analysis.kalman_decompose(A, C)
        assert dec.q == 1
        assert dec.A11 == pytest.approx(np.array([[0.5]]))
        assert dec.A22 == pytest.approx(np.array([[2.0]]))
        assert dec.C1 == pytest.approx(np.array([[1.0]]))

    def test_observable_pair_gets_trivial_decomposition(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.array([[1.0, 0.0]])
        dec = analysis.kalman_decompose(A, C)
        assert dec.q == 2
        assert np.array_equal(dec.T_k, np.eye(2))
        assert dec.A22.size == 0

    def test_detectable_pair_has_stable_hidden_block(self):
        dec = analysis.kalman_decompose(np.diag([0.1, 0.2]), [[1.0, 0.0]])
        assert dec.q == 1
        assert dec.A22 == pytest.approx(np.array([[0.2]]))
        assert analysis.is_schur_stable(dec.A22)

    def test_random_decomposition_invariants(self, rng):
        for _ in range(25):
            system = gen.random_detectable_system(rng, force_unobservable=True)
            A, C = system.A, system.C
            dec = analysis.kalman_decompose(A, C)
            assert dec.q < system.n
            scale = max(1.0, np.abs(A).max())
            assert np.abs(dec.reconstruct() - A).max() <= 1e-8 * scale
            assert np.abs(C @ dec.T_k - np.hstack(
                [dec.C1, np.zeros((system.p, system.n - dec.q))]
            )).max() <= 1e-9 * max(1.0, np.abs(C).max())
            assert analysis.is_observable(dec.A11, dec.C1)
            # detectable => hidden block Schur stable
            assert analysis.is_schur_stable(dec.A22)
            # spectra split as multisets
            full = linalg.eigenvalues(A)
            split = np.concatenate(
                [linalg.eigenvalues(dec.A11), linalg.eigenvalues(dec.A22)]
            )
            assert linalg.pairing_distance(full, split) < 1e-7

    def test_basis_spans_scipy_full_svd_subspaces(self, rng):
        # The basis comes from numpy's thin SVD; scipy's full SVD of the same
        # stack is the oracle for the subspaces it must span.
        import scipy.linalg

        for _ in range(40):
            system = gen.random_detectable_system(rng, n=int(rng.integers(2, 13)),
                                                  force_unobservable=True)
            A, C = system.A, system.C
            dec = analysis.kalman_decompose(A, C)
            n, q = system.n, dec.q
            assert np.abs(dec.T_k.T @ dec.T_k - np.eye(n)).max() <= 1e-13
            Vt = scipy.linalg.svd(analysis.observability_matrix(A, C))[2]
            angles = scipy.linalg.subspace_angles(dec.T_k[:, :q], Vt[:q].T)
            assert angles.max() <= 1e-10
            assert np.abs(C @ dec.T_k[:, q:]).max() <= 1e-12 * np.abs(C).max()

    def test_classification_consistency(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, min(3, n) + 1))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, n))
            verdict = analysis.is_detectable(A, C)
            if analysis.is_observable(A, C):
                assert verdict.detectable
            if not verdict.detectable:
                assert any(
                    not c.stable and not c.observable for c in verdict.classifications
                )
