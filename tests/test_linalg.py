
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from piobs import analysis, linalg
from piobs.errors import DimensionError, InputError


class TestEigenvalues:
    def test_scalar(self):
        assert linalg.eigenvalues([[0.5]]) == pytest.approx([0.5])

    def test_identity(self):
        assert linalg.eigenvalues(np.eye(2)) == pytest.approx([1.0, 1.0])

    def test_pure_imaginary_pair_against_quadratic_oracle(self):
        # char poly of [[0, 1], [-0.25, 0]] is z^2 + 0.25
        expected = sorted(oracles.quadratic_roots(0.0, 0.25), key=lambda z: z.imag)
        got = linalg.eigenvalues([[0.0, 1.0], [-0.25, 0.0]])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.eigenvalues(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            linalg.eigenvalues([[np.nan, 0.0], [0.0, 1.0]])

    def test_conjugate_closure_of_random_spectra(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            eig = linalg.eigenvalues(rng.standard_normal((n, n)))
            reals, pairs = linalg.group_conjugate_roots(eig)
            assert len(reals) + 2 * len(pairs) == n


class TestNumericalRank:
    def test_zero_matrix(self):
        assert linalg.numerical_rank(np.zeros((2, 3))) == 0

    def test_identity(self):
        assert linalg.numerical_rank(np.eye(3)) == 3

    def test_dependent_rows(self):
        M = [[1.0, 2.0], [2.0, 4.0]]
        assert oracles.exact_rank([[1, 2], [2, 4]]) == 1
        assert linalg.numerical_rank(M) == 1

    def test_products_have_inner_rank(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 4))
            M = rng.standard_normal((5, r)) @ rng.standard_normal((r, 6))
            assert linalg.numerical_rank(M) == r

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(InputError):
            linalg.numerical_rank(np.eye(2), tol_rank=0.0)

    @pytest.mark.parametrize("tol_rank", [np.nan, np.inf, 1.0, 1.5])
    def test_rejects_tolerance_outside_unit_interval(self, tol_rank):
        # each of these makes every rank 0
        with pytest.raises(InputError, match=r"tol_rank must be in \(0, 1\)"):
            linalg.numerical_rank(np.eye(2), tol_rank=tol_rank)

    @pytest.mark.parametrize("tol_rank", [1e-300, 5e-324, np.finfo(float).eps / 2])
    def test_rejects_tolerance_below_machine_epsilon(self, tol_rank):
        # a singular value of rounding size would count as rank
        with pytest.raises(InputError, match="at least machine epsilon"):
            linalg.numerical_rank(np.eye(2), tol_rank=tol_rank)

    @pytest.mark.parametrize("tol_rank", [0.01, 0.05, 0.5, 0.999])
    def test_rejects_tolerance_where_the_staircase_cuts_all_of_c(self, tol_rank):
        # the first cut, STAIRCASE_SCALE * tol_rank, reaches the unit norm of the scaled C
        with pytest.raises(InputError, match="tol_rank must be below 0.01"):
            linalg.numerical_rank(np.eye(2), tol_rank=tol_rank)

    def test_accepts_the_largest_tolerance_below_the_bound(self):
        tol_rank = np.nextafter(1.0 / linalg.STAIRCASE_SCALE, 0.0)
        assert linalg.numerical_rank(np.eye(2), tol_rank=tol_rank) == 2

    def test_accepts_machine_epsilon(self):
        assert linalg.numerical_rank(np.eye(2), tol_rank=np.finfo(float).eps) == 2


@st.composite
def ranked_matrices(draw):
    """Real and complex matrices shaped like those piobs takes singular values of."""
    n = draw(st.integers(1, 70))
    p = draw(st.integers(1, min(4, n)))
    kind = draw(st.sampled_from(["pbh", "observability", "square", "low-rank"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    C = rng.normal(size=(p, n))
    if kind == "pbh":
        # [C; zI - A] at an eigenvalue of A, complex when z is
        z = rng.choice(np.linalg.eigvals(A))
        return np.vstack([C.astype(complex), z * np.eye(n) - A])
    if kind == "observability":
        return analysis.observability_matrix(A, C)
    if kind == "square":
        return A
    r = int(rng.integers(0, n + 1))
    return rng.normal(size=(n, r)) @ rng.normal(size=(r, n))


class TestSingularValues:
    """numpy's singular values are scipy's ``svdvals``, bit for bit, so ranks
    did not change when scipy left these paths."""

    @settings(max_examples=200, deadline=None)
    @given(ranked_matrices())
    def test_match_scipy_svdvals_bit_for_bit(self, M):
        import scipy.linalg

        oracle = scipy.linalg.svdvals(M)
        assert np.array_equal(np.linalg.svd(M, compute_uv=False), oracle)
        assert linalg.numerical_rank(M) == np.count_nonzero(oracle > 1e-9 * oracle[0])


class TestPolynomialsAndPairing:
    def test_pairing_distance(self):
        a = [1.0, 2.0 + 1.0j]
        b = [2.0 + 1.0j, 1.0 + 1e-9j]
        assert linalg.pairing_distance(a, b) == pytest.approx(1e-9)
        assert linalg.pairing_distance(a, [1.0]) == np.inf
        assert linalg.pairing_distance([], []) == 0.0

    def test_sort_spectrum_orders_by_real_then_imag(self):
        got = linalg.sort_spectrum([1.0 + 1.0j, 1.0 - 1.0j, 0.5])
        assert got == pytest.approx([0.5, 1.0 - 1.0j, 1.0 + 1.0j])


@st.composite
def spectrum_pairs(draw):
    """Two equal-size multisets shaped like the spectra a design compares."""
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["noisy", "conjugate", "repeated", "cluster", "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "noisy":
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = a[rng.permutation(n)] + 1e-10 * rng.normal(size=n)
    elif kind == "conjugate":
        # conjugate pairs next to real values, so real rows tie across a pair
        half = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = np.concatenate([half, half.conj()])[:n]
        a = b[rng.permutation(n)] + 1e-12 * rng.normal(size=n)
        a = np.where(rng.random(n) < 0.3, a.real, a)
    elif kind == "repeated":
        # phi = 0.5 I next to A + KC: a repeated target value, split in a
        p = int(rng.integers(0, n + 1))
        b = np.concatenate([np.full(p, 0.5), rng.uniform(-0.9, 0.9, n - p)])
        a = b[rng.permutation(n)] + 1e-9 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    elif kind == "cluster":
        # values a few ulps apart around three centres
        centres = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = rng.choice(centres, n) + rng.integers(0, 4, n) * 2.2e-16
        b = rng.choice(centres, n) + rng.integers(0, 4, n) * 2.2e-16
    else:
        a = rng.integers(-3, 4, n) + 1j * rng.integers(-1, 2, n) * rng.integers(0, 2, n)
        b = rng.integers(-3, 4, n) + 1j * rng.integers(-1, 2, n) * rng.integers(0, 2, n)
    return np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)


class TestPairingDistanceExactness:
    """pairing_distance returns scipy's linear_sum_assignment value, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(spectrum_pairs())
    def test_matches_scipy_oracle_bit_for_bit(self, pair):
        a, b = pair
        assert linalg.pairing_distance(a, b) == oracles.permuted_max_distance(a, b)

    @staticmethod
    def counting_port(monkeypatch):
        calls = []
        port = linalg._assign_rows

        def counted(cost):
            calls.append(cost.shape)
            return port(cost)

        monkeypatch.setattr(linalg, "_assign_rows", counted)
        return calls

    def test_certificate_decides_split_repeated_value(self, monkeypatch):
        calls = self.counting_port(monkeypatch)
        a = [0.5 + 1e-9j, 0.5 - 1e-9j, 0.2 + 3e-9]
        b = [0.2, 0.5, 0.5]
        got = linalg.pairing_distance(a, b)
        assert calls == []
        assert got == oracles.permuted_max_distance(a, b) == pytest.approx(3e-9)

    def test_minima_in_two_classes_go_to_the_port(self, monkeypatch):
        calls = self.counting_port(monkeypatch)
        # 0.3 is exactly as near to 0.3+0.2j as to 0.3-0.2j
        a = [0.3, 0.3 + 0.2j, 0.3 - 0.2j]
        b = [0.3 + 0.2j, 0.3 + 0.2j, 0.3 - 0.2j]
        assert linalg.pairing_distance(a, b) == 0.2
        assert calls == [(3, 3)]

    def test_row_minima_would_miss_scipy_by_one_ulp(self):
        # The two classes of b sit one ulp apart and row 1 is equally near to
        # both; scipy's rounded reduced costs then give row 2 an entry one
        # ulp above its minimum, which is the largest distance.
        def z(re, im):
            return complex(float.fromhex(re), float.fromhex(im))

        hi, lo = "0x1.0624dd2f1a9fdp-10", "0x1.0624dd2f1a9fcp-10"
        a = [z("0x1.fffffffffffe0p-3", hi), z("0x1.0000000000018p-2", "-" + lo),
             z("0x1.0p-2", "-0x1.0624dd2f1b1e9p-10"), z("0x1.0p-2", "-0x1.fb49140a1644fp-52"),
             z("0x1.ffffffffffff0p-3", "0x0p+0")]
        b = [z("0x1.0p-2", im) for im in (hi, lo, lo, lo, hi)]
        cost = np.abs(np.subtract.outer(a, b))
        expected = oracles.permuted_max_distance(a, b)
        assert expected == np.nextafter(cost.min(axis=1).max(), 1.0)
        assert linalg.pairing_distance(a, b) == expected

    def test_shared_nearest_value_goes_to_the_port(self, monkeypatch):
        calls = self.counting_port(monkeypatch)
        # both rows are nearest 0.6; the least total pairs 0 with 0.6
        assert linalg.pairing_distance([0.0, 1.0], [0.6, 1.7]) == 0.7
        assert calls == [(2, 2)]

    def test_tie_between_optimal_pairings_breaks_as_scipy(self, monkeypatch):
        calls = self.counting_port(monkeypatch)
        # pairing 1-2, 0-1 has distances (1, 1) and 1-1, 0-2 has (0, 2): both
        # total 2, and scipy takes the second
        assert linalg.pairing_distance([1.0, 0.0], [2.0, 1.0]) == 2.0
        assert oracles.permuted_max_distance([1.0, 0.0], [2.0, 1.0]) == 2.0
        assert calls == [(2, 2)]

    def test_non_finite_distances_raise_as_in_scipy(self):
        for a in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                oracles.permuted_max_distance(a, [0.0, 1.0])
            with pytest.raises(ValueError):
                linalg.pairing_distance(a, [0.0, 1.0])
