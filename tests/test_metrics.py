import itertools

import numpy as np
import pytest

from spreadopt import interference
from spreadopt.interference import CdmaConfig, snr
from spreadopt.metrics import (
    _set_quality,
    aperiodic_correlation,
    correlation_peaks,
    periodic_correlation,
    sarwate_check,
)
from spreadopt.sequences import fzc_sequence, gold_family, gold_pair, single_tone_sequence
from spreadopt.spectral import decompose


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def circular_oracle(s_u, s_v, l):
    """sum_n conj(s_u[n+l]) s_v[n] with periodic index wrap."""
    n = len(s_u)
    return np.sum(np.conj(np.roll(s_u, -l)) * s_v)


def negacyclic_oracle(s_u, s_v, l):
    """Same sum, but entries of s_u wrapped past the end flip sign."""
    n = len(s_u)
    idx = (np.arange(n) + l) % n
    sign = np.where(np.arange(n) + l >= n, -1.0, 1.0)
    return np.sum(sign * np.conj(s_u[idx]) * s_v)


def brute_force_peaks(seqs):
    """(theta_a, theta_c, theta_hat_a, theta_hat_c) from the oracles, lag by lag.

    Cross peaks run over every ordered pair u != v and every shift, auto
    peaks over every user and the nonzero shifts.
    """
    n = len(seqs[0])
    peaks = [0.0, 0.0, 0.0, 0.0]
    for u, s_u in enumerate(seqs):
        for v, s_v in enumerate(seqs):
            lags = range(1, n) if u == v else range(n)
            slot = 0 if u == v else 1
            for l in lags:
                peaks[slot] = max(peaks[slot], abs(circular_oracle(s_u, s_v, l)))
                peaks[slot + 2] = max(peaks[slot + 2], abs(negacyclic_oracle(s_u, s_v, l)))
    return tuple(peaks)


class TestPeriodicCorrelation:
    def test_zero_lag_self_is_energy(self):
        rng = np.random.default_rng(0)
        s = random_unit_modulus(10, rng)
        c = decompose(s)
        assert periodic_correlation(c, c, 0) == pytest.approx(10.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_time_domain(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            s_u = random_unit_modulus(n, rng)
            s_v = random_unit_modulus(n, rng)
            c_u, c_v = decompose(s_u), decompose(s_v)
            for l in range(n):
                spectral = periodic_correlation(c_u, c_v, l)
                assert abs(spectral - circular_oracle(s_u, s_v, l)) < 1e-10

    def test_fzc_autocorrelation_zero(self):
        c = decompose(fzc_sequence(31, 1).entries)
        for l in range(1, 31):
            assert abs(periodic_correlation(c, c, l)) < 1e-9

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(1)
        n = 11
        c_u = decompose(random_unit_modulus(n, rng))
        c_v = decompose(random_unit_modulus(n, rng))
        for l in range(n):
            lhs = periodic_correlation(c_u, c_v, l)
            rhs = np.conj(periodic_correlation(c_v, c_u, (n - l) % n))
            assert abs(lhs - rhs) < 1e-10

    def test_shift_out_of_range(self):
        c = decompose(np.ones(4))
        with pytest.raises(ValueError):
            periodic_correlation(c, c, 4)


class TestAperiodicCorrelation:
    def test_zero_lag_self_is_energy(self):
        rng = np.random.default_rng(2)
        s = random_unit_modulus(7, rng)
        c = decompose(s)
        assert aperiodic_correlation(c, c, 0) == pytest.approx(7.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_negacyclic_time_domain(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            s_u = random_unit_modulus(n, rng)
            s_v = random_unit_modulus(n, rng)
            c_u, c_v = decompose(s_u), decompose(s_v)
            for l in range(n):
                spectral = aperiodic_correlation(c_u, c_v, l)
                assert abs(spectral - negacyclic_oracle(s_u, s_v, l)) < 1e-10

    def test_single_tone_pair_reported(self):
        pair = [single_tone_sequence(31, 1), single_tone_sequence(31, 2)]
        coeffs = [decompose(s.entries) for s in pair]
        values = [abs(aperiodic_correlation(coeffs[0], coeffs[1], l)) for l in range(31)]
        peaks = correlation_peaks(coeffs)
        assert peaks.theta_hat_c == pytest.approx(max(values), rel=1e-12)


class TestCorrelationPeaks:
    def test_gold_pair(self):
        coeffs = [decompose(s) for s in gold_pair(5)]
        peaks = correlation_peaks(coeffs)
        assert peaks.theta_a == pytest.approx(9.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(9.0, abs=1e-9)

    def test_single_tone_pair(self):
        coeffs = [decompose(single_tone_sequence(31, k).entries) for k in (1, 2)]
        peaks = correlation_peaks(coeffs)
        assert peaks.theta_a == pytest.approx(31.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(0.0, abs=1e-9)

    def test_fzc_pair(self):
        coeffs = [decompose(fzc_sequence(31, m).entries) for m in (1, 2)]
        peaks = correlation_peaks(coeffs)
        assert peaks.theta_a == pytest.approx(0.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(np.sqrt(31), abs=1e-9)

    def test_single_sequence_flagged(self):
        peaks = correlation_peaks([decompose(fzc_sequence(31, 1).entries)])
        assert peaks.theta_c == 0.0
        assert peaks.theta_hat_c == 0.0

    def test_adding_a_user_cannot_decrease_cross_peak(self):
        rng = np.random.default_rng(3)
        n = 16
        coeffs = [decompose(random_unit_modulus(n, rng)) for _ in range(3)]
        two = correlation_peaks(coeffs[:2])
        three = correlation_peaks(coeffs)
        assert three.theta_c >= two.theta_c
        assert three.theta_hat_c >= two.theta_hat_c

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_matches_time_domain_brute_force(self, n):
        rng = np.random.default_rng(200 + n)
        seqs = [random_unit_modulus(n, rng) for _ in range(2)]
        peaks = correlation_peaks([decompose(s) for s in seqs])
        got = (peaks.theta_a, peaks.theta_c, peaks.theta_hat_a, peaks.theta_hat_c)
        assert np.max(np.abs(np.subtract(got, brute_force_peaks(seqs)))) < 1e-12 * n

    @pytest.mark.parametrize("k", [3, 4])
    def test_multi_user_set_matches_per_pair_brute_force(self, k):
        # users of distinct power, in every order: the largest auto and cross
        # peaks then visit every row of the batched auto/cross stack
        rng = np.random.default_rng(k)
        n = 31
        seqs = [(u + 1) * random_unit_modulus(n, rng) for u in range(k)]
        expected = brute_force_peaks(seqs)
        for order in itertools.permutations(range(k)):
            peaks = correlation_peaks([decompose(seqs[u]) for u in order])
            got = (peaks.theta_a, peaks.theta_c, peaks.theta_hat_a, peaks.theta_hat_c)
            assert np.max(np.abs(np.subtract(got, expected))) < 1e-12 * n * k**2

    def test_mixed_lengths_rejected(self):
        c4, c5 = decompose(np.ones(4)), decompose(np.ones(5))
        with pytest.raises(ValueError):
            correlation_peaks([c4, c5])
        for correlation in (periodic_correlation, aperiodic_correlation):
            with pytest.raises(ValueError, match="equal length"):
                correlation(c4, c5, 0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            correlation_peaks([])


class TestSarwate:
    def test_fzc_pair_achieves_equality(self):
        coeffs = [decompose(fzc_sequence(31, m).entries) for m in (1, 2)]
        report = sarwate_check(correlation_peaks(coeffs), 31, 2)
        assert report.lhs_periodic == pytest.approx(1.0, abs=1e-9)
        assert report.satisfied_periodic
        assert report.satisfied_aperiodic

    def test_gold_pair_value(self):
        coeffs = [decompose(s) for s in gold_pair(5)]
        report = sarwate_check(correlation_peaks(coeffs), 31, 2)
        expected = 81 / 31 + (30 / 31) * (81 / 31)
        assert report.lhs_periodic == pytest.approx(expected, rel=1e-9)
        assert report.lhs_periodic == pytest.approx(5.142, abs=1e-3)

    def test_single_tone_pair_value(self):
        coeffs = [decompose(single_tone_sequence(31, k).entries) for k in (1, 2)]
        report = sarwate_check(correlation_peaks(coeffs), 31, 2)
        assert report.lhs_periodic == pytest.approx(30.0, abs=1e-9)

    def test_random_sets_satisfy_bound(self):
        rng = np.random.default_rng(4)
        for n in (8, 16):
            for k in (2, 3):
                coeffs = [decompose(random_unit_modulus(n, rng)) for _ in range(k)]
                report = sarwate_check(correlation_peaks(coeffs), n, k)
                assert report.satisfied_periodic
                assert report.satisfied_aperiodic

    def test_needs_two_users(self):
        coeffs = [decompose(fzc_sequence(31, 1).entries)]
        with pytest.raises(ValueError):
            sarwate_check(correlation_peaks(coeffs), 31, 1)


class TestSetQuality:
    def test_fields_are_those_of_the_public_routes(self):
        family = gold_family(5)[2:5]
        cfg = CdmaConfig(n_chips=31, n_users=3, power=2.0, noise_density=0.01)
        quality = _set_quality(cfg, family, [3, 1])
        breakdowns = [snr(cfg, family, i) for i in (3, 1)]
        assert quality.snr == tuple(b.snr for b in breakdowns)
        assert quality.interference_variance == tuple(b.interference_variance for b in breakdowns)
        assert quality.noise_variance == breakdowns[0].noise_variance
        assert quality.peaks == correlation_peaks([decompose(s) for s in family])
        assert quality.sarwate == sarwate_check(quality.peaks, 31, 3)

    def test_every_user_scored_from_rows_as_snr_scores_it(self, monkeypatch):
        # each scored user's S sums come from one row over the set, with no
        # per-pair s_m_terms call, and every SNR is the one snr gives
        family = gold_family(5)
        cfg = CdmaConfig(n_chips=31, n_users=len(family), noise_density=0.01)
        calls, s_m_terms = [], interference.s_m_terms
        monkeypatch.setattr(interference, "s_m_terms", lambda *a: calls.append(a) or s_m_terms(*a))
        quality = _set_quality(cfg, family, range(1, len(family) + 1))
        for i in range(1, len(family) + 1):
            assert quality.snr[i - 1] == snr(cfg, family, i).snr
        assert calls == []

    def test_one_user_has_no_sarwate_report(self):
        quality = _set_quality(CdmaConfig(n_chips=31, n_users=1), gold_pair(5)[:1], [1])
        assert quality.snr == (np.inf,)
        assert quality.sarwate is None
