import numpy as np
import pytest

from spreadopt.metrics import correlation_peaks
from spreadopt.optimizer import feasibility_errors
from spreadopt.sequences import (
    PREFERRED_TAPS,
    ChipSequence,
    _m_sequence,
    fzc_sequence,
    gold_family,
    gold_pair,
    random_feasible_point,
    single_tone_sequence,
)
from spreadopt.spectral import coeffs_from_alpha, decompose


def circular_correlation(a, b):
    """Brute-force sum_n conj(a[n+l]) b[n] over all shifts l."""
    n = len(a)
    return np.array([np.sum(np.conj(np.roll(a, -l)) * b) for l in range(n)])


class TestLfsr:
    def test_primitive_taps_accepted(self):
        # x^5 + x^2 + 1 is primitive: one period of 31 bits with 16 ones
        seq = _m_sequence((2,), 5)
        assert seq.shape == (31,)
        assert int(seq.sum()) == 16

    def test_m_sequence_autocorrelation(self):
        # two-valued (N, -1) periodic autocorrelation holds only for an
        # m-sequence, so this checks that every preferred tap set is primitive
        for degree, pair in PREFERRED_TAPS.items():
            for taps in pair:
                chips = 1.0 - 2.0 * _m_sequence(taps, degree).astype(float)
                assert chips.shape == (2**degree - 1,)
                corr = circular_correlation(chips, chips)
                assert corr[0] == pytest.approx(len(chips))
                assert np.allclose(corr[1:], -1.0, atol=1e-9)

    def test_non_primitive_taps_fail_the_check(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
        chips = 1.0 - 2.0 * _m_sequence((2,), 4).astype(float)
        assert not np.allclose(circular_correlation(chips, chips)[1:], -1.0, atol=1e-9)


class TestGoldFamily:
    def test_family_size_and_alphabet(self):
        family = gold_family(5)
        assert len(family) == 33
        for member in family:
            assert member.n_chips == 31
            assert set(np.round(member.entries.real).astype(int)) <= {-1, 1}
            assert np.allclose(member.entries.imag, 0.0)
            assert np.linalg.norm(member.entries) ** 2 == pytest.approx(31)

    def test_three_valued_crosscorrelation(self):
        family = gold_family(5)
        values = set()
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                corr = circular_correlation(family[a].entries, family[b].entries)
                values |= set(np.round(corr.real).astype(int))
        assert values <= {-1, -9, 7}
        assert -9 in values and 7 in values

    def test_canonical_pair_peaks(self):
        pair = gold_pair(5)
        peaks = correlation_peaks([decompose(s) for s in pair])
        assert peaks.theta_a == pytest.approx(9.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(9.0, abs=1e-9)

    @pytest.mark.parametrize("degree,t", [(6, 17), (7, 17)])
    def test_higher_degrees_three_valued(self, degree, t):
        family = gold_family(degree)
        assert len(family) == 2**degree + 1
        rng = np.random.default_rng(degree)
        picks = rng.choice(len(family), size=8, replace=False)
        values = set()
        for pos, a in enumerate(picks):
            for b in picks[pos + 1 :]:
                corr = circular_correlation(family[a].entries, family[b].entries)
                values |= set(np.round(corr.real).astype(int))
        assert values <= {-1, -t, t - 2}

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            gold_family(4)


class TestFzc:
    def test_perfect_autocorrelation_odd(self):
        s = fzc_sequence(31, 1)
        corr = circular_correlation(s.entries, s.entries)
        assert corr[0] == pytest.approx(31, rel=1e-12)
        assert np.max(np.abs(corr[1:])) < 1e-9

    def test_perfect_autocorrelation_even(self):
        s = fzc_sequence(8, 3)
        corr = circular_correlation(s.entries, s.entries)
        assert np.max(np.abs(corr[1:])) < 1e-9

    def test_pair_crosscorrelation_magnitude(self):
        s1 = fzc_sequence(31, 1)
        s2 = fzc_sequence(31, 2)
        corr = circular_correlation(s1.entries, s2.entries)
        assert np.max(np.abs(corr)) == pytest.approx(np.sqrt(31), abs=1e-9)

    def test_unit_modulus(self):
        s = fzc_sequence(12, 5)
        assert np.allclose(np.abs(s.entries), 1.0, atol=1e-14)

    def test_gcd_precondition(self):
        with pytest.raises(ValueError):
            fzc_sequence(31, 31)
        with pytest.raises(ValueError):
            fzc_sequence(12, 4)
        with pytest.raises(ValueError, match="at least 2"):
            fzc_sequence(1, 1)


class TestSingleTone:
    def test_k_zero_all_ones(self):
        s = single_tone_sequence(8, 0)
        assert np.allclose(s.entries, 1.0, atol=1e-14)

    def test_pair_peaks(self):
        pair = [single_tone_sequence(31, 1), single_tone_sequence(31, 2)]
        peaks = correlation_peaks([decompose(s) for s in pair])
        assert peaks.theta_a == pytest.approx(31.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(0.0, abs=1e-9)

    def test_single_spectral_line(self):
        for k in (0, 1, 4):
            c = decompose(single_tone_sequence(9, k).entries)
            mags = np.abs(c.alpha)
            assert np.linalg.norm(c.alpha) ** 2 == pytest.approx(9, rel=1e-12)
            assert np.count_nonzero(mags > 1e-9) == 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            single_tone_sequence(8, 8)
        with pytest.raises(ValueError):
            single_tone_sequence(8, -1)
        with pytest.raises(ValueError, match="at least 2"):
            single_tone_sequence(1, 0)


class TestRandomFeasiblePoint:
    def test_norms_exact(self):
        for seed in (0, 1, 12345):
            for point in random_feasible_point(16, 3, seed):
                assert np.linalg.norm(point.alpha) ** 2 == pytest.approx(16, abs=1e-12)
                assert np.linalg.norm(point.beta) ** 2 == pytest.approx(16, abs=1e-10)
                assert np.array_equal(point.beta, coeffs_from_alpha(point.alpha).beta)

    def test_feasibility_errors_tiny(self):
        point = random_feasible_point(8, 2, 7)
        e1, e2 = feasibility_errors(point)
        assert e1 <= 1e-12
        assert e2 <= 1e-12

    def test_deterministic(self):
        a = random_feasible_point(8, 2, 99)
        b = random_feasible_point(8, 2, 99)
        for x, y in zip(a, b):
            assert np.array_equal(x.alpha, y.alpha)
            assert np.array_equal(x.beta, y.beta)

    @pytest.mark.parametrize("n_chips, n_users", [(8, 0), (1, 1)])
    def test_sizes_checked(self, n_chips, n_users):
        with pytest.raises(ValueError, match="at least"):
            random_feasible_point(n_chips, n_users, 0)

    def test_distinct_seeds_distinct_points(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s1, s2 = rng.integers(0, 2**32, size=2)
            if s1 == s2:
                continue
            a = random_feasible_point(8, 1, int(s1))[0]
            b = random_feasible_point(8, 1, int(s2))[0]
            assert np.max(np.abs(a.alpha - b.alpha)) > 1e-3


class TestChipSequence:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            ChipSequence(np.array([1.0]))

    def test_label_preserved(self):
        s = ChipSequence(np.ones(4), label="all-ones")
        assert s.label == "all-ones"
        assert s.n_chips == 4
