import itertools

import numpy as np
import pytest

from spreadopt import spectral
from spreadopt.spectral import (
    SpectralCoeffs,
    basis_vector,
    coeffs_from_alpha,
    coupling_matrices,
    decompose,
    reconstruct,
)


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


class TestBasisVector:
    def test_m_equals_n_gives_all_ones(self):
        assert np.allclose(basis_vector(4, 0.0, 4), np.ones(4), atol=1e-14)

    def test_half_rate_alternation(self):
        assert np.allclose(basis_vector(2, 0.0, 4), [1, -1, 1, -1], atol=1e-14)

    def test_direct_evaluation_with_offset(self):
        # exp(2*pi*j*3/4) = -j
        assert np.allclose(basis_vector(1, 0.25, 2), [1, -1j], atol=1e-14)

    def test_unit_modulus_and_norm(self):
        v = basis_vector(3, 1 / 14, 7)
        assert np.allclose(np.abs(v), 1.0, atol=1e-14)
        assert np.linalg.norm(v) ** 2 == pytest.approx(7, rel=1e-14)

    @pytest.mark.parametrize("m", [0, 5, -1])
    def test_index_out_of_range(self, m):
        with pytest.raises(ValueError):
            basis_vector(m, 0.0, 4)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_orthogonality_exhaustive(self, n):
        for eta in (0.0, 1.0 / (2 * n)):
            w = np.array([basis_vector(m, eta, n) for m in range(1, n + 1)])
            gram = w.conj() @ w.T
            assert np.max(np.abs(gram - n * np.eye(n))) < 1e-9 * n


def decompose_by_definition(s):
    """alpha_m = <w_m(0), s>/sqrt(N), beta_m = <w_m(1/(2N)), s>/sqrt(N), m = 1..N."""
    n = len(s)
    return [
        np.array([np.vdot(basis_vector(m, eta, n), s) for m in range(1, n + 1)]) / np.sqrt(n)
        for eta in (0.0, 1.0 / (2 * n))
    ]


class TestDecompose:
    @pytest.mark.parametrize("n", [*range(2, 17), 31, 127, 1023])
    def test_matches_basis_inner_products(self, n):
        rng = np.random.default_rng(1000 + n)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = decompose(s)
        alpha, beta = decompose_by_definition(s)
        assert np.max(np.abs(c.alpha - alpha)) < 1e-12 * np.sqrt(n)
        assert np.max(np.abs(c.beta - beta)) < 1e-12 * np.sqrt(n)

    def test_single_basis_vector(self):
        alpha = decompose(basis_vector(1, 0.0, 4)).alpha
        assert np.allclose(alpha, [2, 0, 0, 0], atol=1e-13)

    def test_all_ones_is_last_basis_vector(self):
        alpha = decompose(np.ones(4)).alpha
        assert np.allclose(alpha, [0, 0, 0, 2], atol=1e-13)

    def test_round_trip_both_bases(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 8, 31, 1023):
            s = random_unit_modulus(n, rng)
            c = decompose(s)
            assert np.max(np.abs(reconstruct(c, "alpha") - s)) < 1e-12
            assert np.max(np.abs(reconstruct(c, "beta") - s)) < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(2)
        for n in (4, 16, 33):
            s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c = decompose(s)
            ref = np.linalg.norm(s)
            assert np.linalg.norm(c.alpha) == pytest.approx(ref, rel=1e-10)
            assert np.linalg.norm(c.beta) == pytest.approx(ref, rel=1e-10)

    def test_unit_modulus_power(self):
        rng = np.random.default_rng(3)
        s = random_unit_modulus(11, rng)
        c = decompose(s)
        assert np.linalg.norm(c.alpha) ** 2 == pytest.approx(11, rel=1e-12)
        assert np.linalg.norm(c.beta) ** 2 == pytest.approx(11, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            decompose(np.array([1.0]))
        with pytest.raises(ValueError, match="one-dimensional"):
            decompose(np.ones((2, 4)))

    @pytest.mark.parametrize("alpha, beta", [(np.ones(4), np.ones(5)),
                                             (np.ones((2, 2)), np.ones((2, 2)))])
    def test_coefficient_shapes_checked(self, alpha, beta):
        with pytest.raises(ValueError, match="1-D vectors of equal length"):
            SpectralCoeffs(alpha=alpha, beta=beta)


class TestReconstruct:
    def test_single_coefficient(self):
        c = coeffs_from_alpha(np.array([2.0, 0, 0, 0]))
        assert np.allclose(reconstruct(c, "alpha"), basis_vector(1, 0.0, 4), atol=1e-13)

    def test_zero_coefficients(self):
        c = SpectralCoeffs(alpha=np.zeros(4), beta=np.zeros(4))
        assert np.allclose(reconstruct(c, "alpha"), 0.0)
        assert np.allclose(reconstruct(c, "beta"), 0.0)

    def test_unknown_basis(self):
        c = coeffs_from_alpha(np.ones(4))
        with pytest.raises(ValueError):
            reconstruct(c, "gamma")


class TestCouplingMatrices:
    def test_n2_explicit_value(self):
        phi = coupling_matrices(2).phi
        expected = np.array([[(1 + 1j) / 2, (1 - 1j) / 2], [(1 - 1j) / 2, (1 + 1j) / 2]])
        assert np.max(np.abs(phi - expected)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 31, 64, 127])
    def test_unitarity_and_inverse(self, n):
        pair = coupling_matrices(n)
        eye = np.eye(n)
        assert np.max(np.abs(pair.phi.conj().T @ pair.phi - eye)) < 1e-10
        assert np.max(np.abs(pair.phi_hat.conj().T @ pair.phi_hat - eye)) < 1e-10
        assert np.array_equal(pair.phi_hat, pair.phi.conj().T)
        assert np.max(np.abs(pair.phi @ pair.phi_hat - eye)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 7, 16, 31])
    def test_consistency_triangle(self, n):
        rng = np.random.default_rng(n)
        s = random_unit_modulus(n, rng)
        c = decompose(s)
        pair = coupling_matrices(n)
        assert np.max(np.abs(c.alpha - pair.phi @ c.beta)) < 1e-10
        assert np.max(np.abs(c.beta - pair.phi_hat @ c.alpha)) < 1e-10

    def test_cross_check_against_decompose_n16(self):
        rng = np.random.default_rng(16)
        alpha = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        alpha *= np.sqrt(16) / np.linalg.norm(alpha)
        s = reconstruct(coeffs_from_alpha(alpha), "alpha")
        c = decompose(s)
        expected_beta = coupling_matrices(16).phi_hat @ alpha
        assert np.max(np.abs(c.beta - expected_beta)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 32))
    def test_cauchy_form(self, n):
        # phi_hat = (2/N) diag(x) C with the Cauchy matrix C_mn = 1/(x_m - y_n)
        # on the N-th roots of unity x_m and the half-bin-shifted roots y_n
        m = np.arange(1, n + 1)
        x = np.exp(2j * np.pi * m / n)
        y = np.exp(2j * np.pi * (m - 0.5) / n)
        cauchy = 1.0 / (x[:, None] - y[None, :])
        expected = (2.0 / n) * x[:, None] * cauchy
        assert np.max(np.abs(coupling_matrices(n).phi_hat - expected)) <= 1e-13

    def test_every_square_minor_is_nonzero(self):
        # the Cauchy nodes are distinct and disjoint, so no square minor of
        # phi_hat vanishes; exhaustively, 17 567 minors over N = 2..8, the
        # smallest |det| near 1.4e-5 at N = 8
        smallest = np.inf
        for n in range(2, 9):
            phi_hat = coupling_matrices(n).phi_hat
            for k in range(1, n + 1):
                subsets = np.array(list(itertools.combinations(range(n), k)))
                minors = phi_hat[subsets[:, None, :, None], subsets[None, :, None, :]]
                smallest = min(smallest, np.min(np.abs(np.linalg.det(minors))))
        assert smallest > 1e-6

    def test_too_small(self):
        with pytest.raises(ValueError):
            coupling_matrices(1)

    def test_failed_unitarity_check_is_arithmetic_error(self, monkeypatch):
        # no deviation is below a negative tolerance; the cache is cleared
        # around the call so that the check runs and no later test sees it
        monkeypatch.setattr(spectral, "UNITARITY_TOL", -1.0)
        spectral._coupling_cached.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="unitarity check at N=5"):
                coupling_matrices(5)
        finally:
            spectral._coupling_cached.cache_clear()
