import decimal
import itertools
import math
import os
import re
import sys

import numpy as np
import pytest

from spreadopt.interference import (
    CdmaConfig,
    _bit_table,
    _powers,
    _s_row,
    _weights,
    interference_variance_direct,
    interference_variance_spectral,
    partial_sum_table,
    s_m_terms,
    snr,
)
from spreadopt.cli import read_sequence_set
from spreadopt.sequences import fzc_sequence, gold_family, gold_pair
from spreadopt.simulator import estimate_snr
from spreadopt.spectral import SpectralCoeffs, _demodulation, decompose

# (b_prev, b_cur) in the row order of _bit_table
BIT_PAIRS = [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def sign_and_complex_pairs(n, rng):
    """A +-1 pair and a unit-modulus complex pair of length n."""
    signs = rng.choice([-1.0, 1.0], size=(2, n)).astype(complex)
    return [tuple(signs), (random_unit_modulus(n, rng), random_unit_modulus(n, rng))]


def block_matrix_oracle(l, b_prev, b_cur, n):
    """B(l) assembled directly from its block definition."""
    top = np.hstack([np.zeros((l, n - l)), b_prev * np.eye(l)])
    bottom = np.hstack([b_cur * np.eye(n - l), np.zeros((n - l, l))])
    return np.vstack([top, bottom])


def quadratic_form(s_i, s_k, l, b_prev, b_cur):
    """A_l = s_i^* B(l; b_prev, b_cur) s_k from the block definition."""
    return s_i.conj() @ block_matrix_oracle(l, b_prev, b_cur, len(s_i)) @ s_k


def quadrature_variance(cfg, s_i, s_k):
    """Var_I of one interferer by midpoint quadrature over each chip interval.

    Integrates |(tau - l Tc) A_l + ((l+1) Tc - tau) A_{l+1}|^2 numerically over
    [l Tc, (l+1) Tc) with A_l from B(l)'s block definition, and averages the
    four bit pairs.
    """
    n, tc, points = cfg.n_chips, cfg.chip_duration, 4000
    u = (np.arange(points) + 0.5) / points * tc  # tau - l*Tc at the midpoints
    total = 0.0
    for b_prev, b_cur in BIT_PAIRS:
        a = [quadratic_form(s_i, s_k, l, b_prev, b_cur) for l in range(n + 1)]
        for l in range(n):
            total += 0.25 * float(np.mean(np.abs(u * a[l] + (tc - u) * a[l + 1]) ** 2)) * tc
    return cfg.power / (4.0 * cfg.symbol_duration) * total


class TestShiftMatrix:
    """B(l; b_prev, b_cur) as both routes read it: the rows of the bit table."""

    @pytest.mark.parametrize("l", range(8))
    def test_matches_block_definition(self, l):
        rng = np.random.default_rng(l)
        for n in (2, 5, 7):
            if l > n:
                continue
            for s_i, s_k in sign_and_complex_pairs(n, rng):
                table = _bit_table(*partial_sum_table(s_i, s_k))
                for row, (b_prev, b_cur) in zip(table, BIT_PAIRS):
                    assert abs(row[l] - quadratic_form(s_i, s_k, l, b_prev, b_cur)) < 1e-12

    def test_endpoints_are_signed_identities(self):
        # B(0) = b_cur*I and B(N) = b_prev*I
        rng = np.random.default_rng(4)
        s_i = random_unit_modulus(5, rng)
        s_k = random_unit_modulus(5, rng)
        inner = np.vdot(s_i, s_k)
        table = _bit_table(*partial_sum_table(s_i, s_k))
        for row, (b_prev, b_cur) in zip(table, BIT_PAIRS):
            assert row[0] == pytest.approx(b_cur * inner, abs=1e-12)
            assert row[5] == pytest.approx(b_prev * inner, abs=1e-12)

    def test_exactly_n_nonzeros(self):
        # B(l) holds b_prev on l entries and b_cur on the other N - l, so for
        # the all-ones pair every row is b_prev*l + b_cur*(N - l)
        n = 6
        ones = np.ones(n)
        l = np.arange(n + 1)
        table = _bit_table(*partial_sum_table(ones, ones))
        for row, (b_prev, b_cur) in zip(table, BIT_PAIRS):
            assert np.array_equal(row, b_prev * l + b_cur * (n - l))


class TestPartialSums:
    """The bit-independent table (x, y) that both routes build from."""

    def test_all_ones_full_sum(self):
        ones = np.ones(2, dtype=complex)
        x, y = partial_sum_table(ones, ones)
        assert np.array_equal(x, [0, 1, 2])
        assert np.array_equal(y, [2, 1, 0])

    def test_l_zero_is_inner_product(self):
        rng = np.random.default_rng(5)
        s_i = random_unit_modulus(9, rng)
        s_k = random_unit_modulus(9, rng)
        x, y = partial_sum_table(s_i, s_k)
        inner = np.vdot(s_i, s_k)
        assert x[0] == 0 and y[9] == 0
        assert x[9] == pytest.approx(inner, abs=1e-12)
        assert y[0] == pytest.approx(inner, abs=1e-12)

    def test_matches_matrix_quadratic_form(self):
        # x[l] is s_i^* B(l; 1, 0) s_k and y[l] is s_i^* B(l; 0, 1) s_k
        rng = np.random.default_rng(6)
        for n in (2, 5, 7):
            for s_i, s_k in sign_and_complex_pairs(n, rng):
                x, y = partial_sum_table(s_i, s_k)
                for l in range(n + 1):
                    assert abs(x[l] - quadratic_form(s_i, s_k, l, 1, 0)) < 1e-12
                    assert abs(y[l] - quadratic_form(s_i, s_k, l, 0, 1)) < 1e-12


class TestGammaIntegral:
    """The chip-interval integrals as interference_variance_direct sums them."""

    def test_hand_evaluated_all_ones(self):
        # N = 2, Tc = 1: the bit-table rows are [2, 2, 2] for equal bits and
        # [2, 0, -2] up to sign otherwise, so sum_l (|A_l|^2 + |A_{l+1}|^2 +
        # Re A_l conj A_{l+1}) is 24 or 8, with mean 16 over the four pairs;
        # Var_I = (P/4T) (Tc^3/3) 16 = 2/3
        cfg = CdmaConfig(n_chips=2, n_users=2, symbol_duration=2.0)
        ones = np.ones(2, dtype=complex)
        assert interference_variance_direct(cfg, [ones, ones], 1) == pytest.approx(
            2.0 / 3.0, rel=1e-14)

    def test_zero_interferer(self):
        rng = np.random.default_rng(7)
        cfg = CdmaConfig(n_chips=5, n_users=2, symbol_duration=1.5)
        s_i = random_unit_modulus(5, rng)
        zero = np.zeros(5, dtype=complex)
        assert interference_variance_direct(cfg, [s_i, zero], 1) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        cfg = CdmaConfig(n_chips=6, n_users=2, symbol_duration=1.5)
        for _ in range(20):
            pair = [random_unit_modulus(6, rng), random_unit_modulus(6, rng)]
            assert interference_variance_direct(cfg, pair, 1) >= 0.0

    def test_against_midpoint_quadrature(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 7):
            cfg = CdmaConfig(n_chips=n, n_users=2, power=1.7, symbol_duration=0.6)
            for s_i, s_k in sign_and_complex_pairs(n, rng):
                direct = interference_variance_direct(cfg, [s_i, s_k], 1)
                assert direct == pytest.approx(quadrature_variance(cfg, s_i, s_k), rel=1e-6)


class TestVarianceEquivalence:
    def test_single_user_is_zero(self):
        cfg = CdmaConfig(n_chips=8, n_users=1)
        s = np.ones(8, dtype=complex)
        assert interference_variance_direct(cfg, [s], 1) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_direct_equals_spectral(self, n):
        rng = np.random.default_rng(n)
        cfg = CdmaConfig(n_chips=n, n_users=2, power=1.7, symbol_duration=2.3)
        for _ in range(10):
            pair = [random_unit_modulus(n, rng), random_unit_modulus(n, rng)]
            direct = interference_variance_direct(cfg, pair, 1)
            spectral = interference_variance_spectral(cfg, pair, 1)
            assert direct == pytest.approx(spectral, rel=1e-9)
            assert spectral == snr(cfg, pair, 1).interference_variance

    def test_three_users_additive(self):
        rng = np.random.default_rng(11)
        n = 9
        seqs = [random_unit_modulus(n, rng) for _ in range(3)]
        cfg3 = CdmaConfig(n_chips=n, n_users=3)
        cfg2 = CdmaConfig(n_chips=n, n_users=2)
        total = interference_variance_direct(cfg3, seqs, 1)
        pair_a = interference_variance_direct(cfg2, [seqs[0], seqs[1]], 1)
        pair_b = interference_variance_direct(cfg2, [seqs[0], seqs[2]], 1)
        assert total == pytest.approx(pair_a + pair_b, rel=1e-12)

    def test_scaling_in_power_and_duration(self):
        rng = np.random.default_rng(12)
        n = 7
        pair = [random_unit_modulus(n, rng), random_unit_modulus(n, rng)]
        base = interference_variance_direct(CdmaConfig(n, 2, 1.0, 1.0), pair, 1)
        double_p = interference_variance_direct(CdmaConfig(n, 2, 2.0, 1.0), pair, 1)
        triple_t = interference_variance_direct(CdmaConfig(n, 2, 1.0, 3.0), pair, 1)
        assert double_p == pytest.approx(2.0 * base, rel=1e-12)
        assert triple_t == pytest.approx(9.0 * base, rel=1e-12)

    def test_user_index_out_of_range(self):
        cfg = CdmaConfig(n_chips=4, n_users=2)
        pair = [np.ones(4, dtype=complex)] * 2
        with pytest.raises(ValueError):
            interference_variance_direct(cfg, pair, 3)
        with pytest.raises(ValueError):
            interference_variance_direct(cfg, pair, 0)


def _estimate(cfg, sequences, i):
    return estimate_snr(cfg, sequences, i, trials=100, seed=0)


class TestUserSetValidation:
    """Every route that takes a user set checks it the same way."""

    ROUTES = [interference_variance_direct, interference_variance_spectral, snr, _estimate]

    @pytest.mark.parametrize("route", ROUTES)
    def test_wrong_length_chip_sequences_rejected(self, route):
        cfg = CdmaConfig(n_chips=127, n_users=2)
        with pytest.raises(ValueError, match="does not match cfg.n_chips"):
            route(cfg, list(gold_pair(5)), 1)

    @pytest.mark.parametrize("route", [interference_variance_spectral, snr])
    def test_wrong_length_coefficients_rejected(self, route):
        cfg = CdmaConfig(n_chips=127, n_users=2)
        with pytest.raises(ValueError, match="does not match cfg.n_chips"):
            route(cfg, [decompose(s) for s in gold_pair(5)], 1)

    @pytest.mark.parametrize("route", ROUTES)
    def test_wrong_user_count_rejected(self, route):
        cfg = CdmaConfig(n_chips=31, n_users=3)
        with pytest.raises(ValueError, match="expected 3 sequences"):
            route(cfg, list(gold_pair(5)), 1)

    @pytest.mark.parametrize("route", [interference_variance_direct, _estimate])
    def test_chip_routes_reject_coefficients(self, route):
        cfg = CdmaConfig(n_chips=31, n_users=2)
        with pytest.raises(ValueError, match="needs chip sequences, not SpectralCoeffs"):
            route(cfg, [decompose(s) for s in gold_pair(5)], 1)

    def test_chip_sequences_and_coefficients_agree(self):
        cfg = CdmaConfig(n_chips=31, n_users=2)
        pair = gold_pair(5)
        assert snr(cfg, [decompose(s) for s in pair], 1) == snr(cfg, pair, 1)


class TestSmTerms:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(13)
        c_i = decompose(random_unit_modulus(12, rng))
        c_k = decompose(random_unit_modulus(12, rng))
        assert np.array_equal(s_m_terms(c_i, c_k), s_m_terms(c_k, c_i))

    def test_nonnegative_entries(self):
        rng = np.random.default_rng(14)
        c_i = decompose(random_unit_modulus(10, rng))
        c_k = decompose(random_unit_modulus(10, rng))
        assert np.all(s_m_terms(c_i, c_k) >= 0.0)

    def test_disjoint_alpha_support(self):
        n = 6
        scale = np.sqrt(n)
        e1 = np.zeros(n, dtype=complex)
        e1[0] = scale
        e2 = np.zeros(n, dtype=complex)
        e2[1] = scale
        # zero beta isolates the alpha contribution, which vanishes here
        c_i = SpectralCoeffs(alpha=e1, beta=np.zeros(n))
        c_k = SpectralCoeffs(alpha=e2, beta=np.zeros(n))
        assert np.array_equal(s_m_terms(c_i, c_k), np.zeros(n))

    def test_length_mismatch(self):
        c_i = SpectralCoeffs(alpha=np.ones(4), beta=np.ones(4))
        c_k = SpectralCoeffs(alpha=np.ones(5), beta=np.ones(5))
        with pytest.raises(ValueError):
            s_m_terms(c_i, c_k)
        with pytest.raises(ValueError, match="equal length"):
            partial_sum_table(np.ones(4), np.ones(5))


class TestSRow:
    """Each entry of a user's S-sum row is the sum of that pair's s_m_terms, bit for bit."""

    @pytest.mark.parametrize("family", ["gold5", "fzc127", "complex31", "complex1023"])
    def test_row_equals_the_pair_sums(self, family):
        rng = np.random.default_rng(23)
        chips = {
            "gold5": lambda: [s.entries for s in gold_family(5)],
            "fzc127": lambda: [fzc_sequence(127, m).entries for m in (1, 2, 3, 5, 8)],
            "complex31": lambda: [random_unit_modulus(31, rng) for _ in range(5)],
            "complex1023": lambda: [random_unit_modulus(1023, rng) for _ in range(5)],
        }[family]()
        coeffs = [decompose(s) for s in chips]
        powers = _powers(coeffs)
        for i, c_i in enumerate(coeffs, start=1):
            assert _s_row(powers, i).tolist() == [float(np.sum(s_m_terms(c_i, c_k)))
                                                  for c_k in coeffs]


class TestSnr:
    def test_noise_only(self):
        cfg = CdmaConfig(n_chips=8, n_users=1, power=2.0, symbol_duration=3.0, noise_density=0.5)
        out = snr(cfg, [np.ones(8, dtype=complex)], 1)
        assert out.snr == pytest.approx(np.sqrt(2 * 2.0 * 3.0 / 0.5), rel=1e-12)
        assert out.s_m_sum == 0.0

    def test_unbounded_flagged(self):
        cfg = CdmaConfig(n_chips=8, n_users=1)
        out = snr(cfg, [np.ones(8, dtype=complex)], 1)
        assert out.snr == np.inf

    @pytest.mark.parametrize("n0, p, t, bad", [(5e-324, 100.0, 1.0, "noise_density"),
                                               (1e-300, 1e300, 1e10, "power"),
                                               (1e300, 1e-10, 1e-10, "noise_density")],
                             ids=["subnormal-n0", "2pt-overflows", "quotient-overflows"])
    def test_noise_quotient_out_of_range_keeps_finite_snr(self, n0, p, t, bad):
        # N0 / (2PT) would round to 0.0 or inf; such a configuration is refused
        value = re.escape(repr({"noise_density": n0, "power": p}[bad]))
        with pytest.raises(ValueError, match=rf"^{bad} must be finite .* got {value}$"):
            CdmaConfig(n_chips=8, n_users=1, power=p, symbol_duration=t, noise_density=n0)

    def test_snr_beyond_float_range_raises(self):
        # sqrt(2PT/N0) would exceed the float range; P is the first value refused
        with pytest.raises(ValueError, match=r"^power .* got 1e\+300$"):
            CdmaConfig(n_chips=8, n_users=1, power=1e300, symbol_duration=1e150,
                       noise_density=5e-324)

    def test_underflowing_s_m_sum_raises(self):
        # each chip power is in range, but the only cross term is a subnormal
        # S_m sum, so s_sum/(6N^2) rounds to 0 while N0 = 0; with noise the
        # same pair keeps its finite SNR sqrt(2PT/N0)
        zeros = np.zeros(4)
        pair = [SpectralCoeffs([2, 0, 0, 0], zeros), SpectralCoeffs([2.3e-162, 2, 0, 0], zeros)]
        with pytest.raises(ValueError, match=r"^S_m sum of user 1 is \d.*e-32\d: s_sum/\(6N\^2\)"):
            snr(CdmaConfig(4, 2), pair, 1)
        noisy = snr(CdmaConfig(4, 2, noise_density=1.0), pair, 1)
        assert noisy.snr == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_consistent_with_definitional_form(self):
        rng = np.random.default_rng(15)
        n = 16
        cfg = CdmaConfig(n_chips=n, n_users=2, power=1.3, symbol_duration=0.7, noise_density=0.2)
        pair = [random_unit_modulus(n, rng), random_unit_modulus(n, rng)]
        out = snr(cfg, pair, 1)
        var_d = cfg.power * cfg.symbol_duration**2 / 2.0
        definitional = np.sqrt(var_d / (out.interference_variance + out.noise_variance))
        assert out.snr == pytest.approx(definitional, rel=1e-12)

    def test_two_user_symmetry(self):
        rng = np.random.default_rng(16)
        n = 13
        cfg = CdmaConfig(n_chips=n, n_users=2)
        pair = [random_unit_modulus(n, rng), random_unit_modulus(n, rng)]
        assert snr(cfg, pair, 1).snr == pytest.approx(snr(cfg, pair, 2).snr, rel=1e-14)

    def test_reference_operating_point_inversion(self):
        # a two-user noiseless system at N=31 with total spectral weight
        # 6*31^2/126.276^2 must evaluate to SNR 126.276; checks the formula's
        # algebra at the magnitude the optimizer is expected to reach and beat
        n = 31
        target = 126.276
        s_sum = 6.0 * n**2 / target**2
        assert s_sum == pytest.approx(0.3616038, rel=1e-6)
        assert (s_sum / (6.0 * n**2)) ** -0.5 == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_binary_baseline_pair(self, n):
        # all-ones is an alpha-basis tone and the alternating sequence a
        # beta-basis tone, so f = 1.5 N (1/N) + 0.5 N (1/N) = 2 exactly and the
        # SNR is sqrt(6 N^2 / 2) = sqrt(3) N
        pair = [np.ones(n, dtype=complex), (-1.0) ** np.arange(n) + 0j]
        out = snr(CdmaConfig(n_chips=n, n_users=2), pair, 1)
        assert out.s_m_sum == pytest.approx(2.0, rel=1e-13)
        assert out.snr == pytest.approx(np.sqrt(3.0) * n, rel=1e-13)

    def test_exhaustive_binary_optimum(self):
        # over every pair of +-1 sequences (first chip +1: negating a user
        # leaves f unchanged) the pair sums are one matrix product of the
        # per-frequency |alpha|^2 and |beta|^2 rows; the least is f = 2, that
        # of the {all-ones, alternating} pair, at every N = 4..12
        rng = np.random.default_rng(12)
        for n in range(4, 13):
            signs = np.array(list(itertools.product([1.0, -1.0], repeat=n - 1)))
            chips = np.hstack([np.ones((len(signs), 1)), signs])
            coeffs = np.fft.fft(chips[:, None, :] * _demodulation(n), norm="ortho")
            p, q = np.transpose(np.abs(coeffs) ** 2, (1, 0, 2))
            w_alpha, w_beta = _weights(n)
            pair_sums = (p * w_alpha) @ p.T + (q * w_beta) @ q.T
            for i, k in rng.integers(len(chips), size=(3, 2)):
                cfg = CdmaConfig(n_chips=n, n_users=2)
                expected = snr(cfg, [chips[i], chips[k]], 1).s_m_sum
                assert pair_sums[i, k] == pytest.approx(expected, rel=1e-12)
            np.fill_diagonal(pair_sums, np.inf)
            assert abs(np.min(pair_sums) - 2.0) <= 1e-12

    def test_snr_matches_s_m_sum_field(self):
        rng = np.random.default_rng(17)
        n = 8
        cfg = CdmaConfig(n_chips=n, n_users=2)
        pair = [random_unit_modulus(n, rng), random_unit_modulus(n, rng)]
        out = snr(cfg, pair, 1)
        assert out.snr == pytest.approx((out.s_m_sum / (6 * n**2)) ** -0.5, rel=1e-12)


class TestCdmaConfig:
    def test_chip_duration_derived(self):
        cfg = CdmaConfig(n_chips=10, n_users=2, symbol_duration=2.5)
        assert cfg.chip_duration * cfg.n_chips == cfg.symbol_duration

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_chips=1, n_users=2),
            dict(n_chips=4, n_users=0),
            dict(n_chips=4, n_users=2, power=0.0),
            dict(n_chips=4, n_users=2, symbol_duration=-1.0),
            dict(n_chips=4, n_users=2, noise_density=-0.1),
            dict(n_chips=4, n_users=2, power=float("nan")),
            dict(n_chips=4, n_users=2, power=float("inf")),
            dict(n_chips=4, n_users=2, symbol_duration=float("nan")),
            dict(n_chips=4, n_users=2, symbol_duration=float("inf")),
            dict(n_chips=4, n_users=2, noise_density=float("nan")),
            dict(n_chips=4, n_users=2, noise_density=float("inf")),
            dict(n_chips=4, n_users=2, power=9.9e-31),
            dict(n_chips=4, n_users=2, symbol_duration=1.01e30),
            dict(n_chips=4, n_users=2, noise_density=5e-324),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CdmaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [dict(n_chips=31.0, n_users=2), dict(n_chips=31, n_users=2.0)]
    )
    def test_float_sizes_rejected(self, kwargs):
        with pytest.raises(TypeError):
            CdmaConfig(**kwargs)

    def test_numpy_integer_sizes(self):
        pair = gold_pair(5)
        plain = CdmaConfig(n_chips=31, n_users=2)
        numpy_sized = CdmaConfig(n_chips=np.int64(31), n_users=np.int64(2))
        assert snr(numpy_sized, pair, 1) == snr(plain, pair, 1)
        assert estimate_snr(numpy_sized, pair, 1, trials=5000, seed=3) == estimate_snr(
            plain, pair, 1, trials=5000, seed=3
        )


def corner_sets():
    """The Gold and FZC pairs at N = 31 and the golden N = 8 design pair."""
    design = read_sequence_set(os.path.join(os.path.dirname(__file__), "data", "golden",
                                            "optimize_n8_sequences.json"))
    return {
        "gold": [s.entries for s in gold_pair(5)],
        "fzc": [fzc_sequence(31, 1).entries, fzc_sequence(31, 2).entries],
        "design-n8": [s.entries for s in design],
    }


def exact_inverse_root(numerator, *denominator_terms):
    """sqrt(numerator / sum of denominator_terms) to 40 digits, each term a (num, den) pair."""
    with decimal.localcontext(prec=40):
        denom = sum(decimal.Decimal(a) / decimal.Decimal(b) for a, b in denominator_terms)
        return float((decimal.Decimal(numerator) / denom).sqrt())


def normal_or_zero(value):
    return value == 0.0 or sys.float_info.min <= abs(value) < math.inf


class TestInputRange:
    """Every route is finite and normal where P, T, N0 and the chip powers are in range."""

    # a few ulps inside the range, so that the rounded mean square stays in it
    CHIP_POWERS = [1e-30 * (1 + 1e-15), 1.0, 1e30 * (1 - 1e-15)]

    @pytest.mark.parametrize("n0", [0.0, 1e-30, 1e30])
    @pytest.mark.parametrize("t", [1e-30, 1e30])
    @pytest.mark.parametrize("p", [1e-30, 1e30])
    @pytest.mark.parametrize("chip_power", CHIP_POWERS, ids=["low", "unit", "high"])
    @pytest.mark.parametrize("family", ["gold", "fzc", "design-n8"])
    def test_corners_agree_with_the_closed_form(self, family, chip_power, p, t, n0):
        pair = [math.sqrt(chip_power) * s for s in corner_sets()[family]]
        n = len(pair[0])
        cfg = CdmaConfig(n_chips=n, n_users=2, power=p, symbol_duration=t, noise_density=n0)
        out = snr(cfg, pair, 1)
        assert all(map(normal_or_zero, vars(out).values()))
        assert out.s_m_sum > 0.0
        assert out.snr == pytest.approx(
            exact_inverse_root(1, (out.s_m_sum, 6 * n**2), (n0, 2 * p * t)), rel=2**-51)
        assert interference_variance_direct(cfg, pair, 1) == pytest.approx(
            out.interference_variance, rel=1e-9)
        sim = estimate_snr(cfg, pair, 1, trials=100, seed=0)
        assert all(map(normal_or_zero, vars(sim).values()))
        var_d = p * t**2 / 2.0
        assert sim.snr_estimate == pytest.approx(
            exact_inverse_root(var_d, (sim.var_interference_mean, 1), (n0 * t, 4)), rel=2**-51)
        # the estimate scales as P T^2 times the two chip powers
        unit = estimate_snr(CdmaConfig(n_chips=n, n_users=2),
                            corner_sets()[family], 1, trials=100, seed=0)
        assert sim.var_interference_mean == pytest.approx(
            unit.var_interference_mean * p * t**2 * chip_power**2, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-160, 1e-80])
    def test_tiny_chips_refused(self, scale):
        # at 1e-160 the S_m underflow to 0 and the pair would read as unbounded
        pair = [scale * s.entries for s in gold_pair(5)]
        cfg = CdmaConfig(n_chips=31, n_users=2)
        for route in (snr, interference_variance_direct,
                      lambda *a: estimate_snr(*a, trials=100, seed=0)):
            with pytest.raises(ValueError, match=r"^mean chip power of user 1 must be finite "
                                                 r"and 0 or in \[1e-30, 1e30\], got "):
                route(cfg, pair, 1)

    def test_huge_chip_refused_without_a_warning(self):
        # the square overflows to inf; pytest turns a RuntimeWarning into an error
        cfg = CdmaConfig(n_chips=4, n_users=1)
        with pytest.raises(ValueError, match=r"mean chip power of user 1 .* got inf$"):
            snr(cfg, [np.array([1e200, 1.0, 1.0, 1.0])], 1)

    def test_spectral_coeffs_bounded_by_their_alpha(self):
        cfg = CdmaConfig(n_chips=4, n_users=2)
        silent = SpectralCoeffs(alpha=np.zeros(4), beta=np.zeros(4))
        tiny = SpectralCoeffs(alpha=np.full(4, 1e-20), beta=np.full(4, 1.0))
        assert snr(cfg, [silent, silent], 1).snr == math.inf
        with pytest.raises(ValueError, match=r"^mean chip power of user 2 .* got 1e-40$"):
            snr(cfg, [silent, tiny], 1)

    @pytest.mark.parametrize("bad, got", [(1e200, "inf"), (math.nan, "nan")])
    def test_spectral_coeffs_bounded_by_their_beta(self, bad, got):
        # an unchecked beta gave snr 0.0 with an overflow warning, or snr nan
        cfg = CdmaConfig(n_chips=4, n_users=2)
        pair = [SpectralCoeffs([2, 0, 0, 0], [bad, 0, 0, 0]),
                SpectralCoeffs([0, 2, 0, 0], [bad, 0, 0, 0])]
        for route in (snr, interference_variance_spectral):
            with pytest.raises(ValueError, match=r"^\|\|beta\|\|\^2/N of user 1 must be finite "
                                                 rf"and 0 or in \[1e-30, 1e30\], got {got}$"):
                route(cfg, pair, 1)
