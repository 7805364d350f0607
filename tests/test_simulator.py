import sys

import numpy as np
import pytest

from spreadopt import simulator
from spreadopt.interference import (
    BitWindow,
    CdmaConfig,
    interference_variance_direct,
    partial_sum_table,
)
from spreadopt.sequences import fzc_sequence, gold_pair, single_tone_sequence
from spreadopt.simulator import MonteCarloDraw, estimate_snr, interference_sample


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


class TestInterferenceSample:
    def test_hand_evaluated_at_zero_delay(self):
        # N=2, Tc=1 (so T=2), all-ones pair, bits (+1,+1): the closed form at
        # tau=0, l=0 reduces to |0*A_0 + Tc*A_1|^2 = |2|^2 = 4
        cfg = CdmaConfig(n_chips=2, n_users=2, symbol_duration=2.0)
        ones = np.ones(2, dtype=complex)
        draw = MonteCarloDraw(tau=0.0, psi=0.3, bits=BitWindow(1, 1))
        assert interference_sample(cfg, ones, ones, draw) == pytest.approx(4.0, rel=1e-12)

    def test_zero_interferer(self):
        cfg = CdmaConfig(n_chips=4, n_users=2)
        rng = np.random.default_rng(0)
        s_i = random_unit_modulus(4, rng)
        zero = np.zeros(4, dtype=complex)
        draw = MonteCarloDraw(tau=0.6, psi=0.0, bits=BitWindow(-1, 1))
        assert interference_sample(cfg, s_i, zero, draw) == 0.0

    def test_nonnegative_everywhere(self):
        cfg = CdmaConfig(n_chips=5, n_users=2)
        rng = np.random.default_rng(1)
        s_i = random_unit_modulus(5, rng)
        s_k = random_unit_modulus(5, rng)
        for tau in np.linspace(0.0, 1.0, 37, endpoint=False):
            draw = MonteCarloDraw(tau=float(tau), psi=0.0, bits=BitWindow(1, -1))
            assert interference_sample(cfg, s_i, s_k, draw) >= 0.0

    def test_delay_out_of_range(self):
        cfg = CdmaConfig(n_chips=4, n_users=2)
        ones = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            interference_sample(cfg, ones, ones, MonteCarloDraw(1.0, 0.0, BitWindow(1, 1)))
        with pytest.raises(ValueError):
            interference_sample(cfg, ones, ones, MonteCarloDraw(-0.1, 0.0, BitWindow(1, 1)))

    def test_mean_matches_analytic_value(self):
        # sample mean of (P/4)|I~|^2 approaches the closed-form variance
        cfg = CdmaConfig(n_chips=5, n_users=2)
        rng = np.random.default_rng(2)
        s_i = random_unit_modulus(5, rng)
        s_k = random_unit_modulus(5, rng)
        values = []
        for _ in range(20000):
            draw = MonteCarloDraw(
                tau=float(rng.uniform(0, 1)),
                psi=float(rng.uniform(0, 2 * np.pi)),
                bits=BitWindow(int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))),
            )
            values.append(interference_sample(cfg, s_i, s_k, draw))
        est = 0.25 * cfg.power * np.mean(values)
        stderr = 0.25 * cfg.power * np.std(values, ddof=1) / np.sqrt(len(values))
        analytic = interference_variance_direct(cfg, [s_i, s_k], 1)
        assert abs(est - analytic) <= 3 * stderr


class TestEstimateSnr:
    def test_single_user_with_noise(self):
        cfg = CdmaConfig(n_chips=8, n_users=1, power=2.0, symbol_duration=1.5, noise_density=0.3)
        out = estimate_snr(cfg, [np.ones(8, dtype=complex)], 1, trials=500, seed=1)
        assert out.var_interference_mean == 0.0
        assert out.var_interference_stderr == 0.0
        assert out.snr_estimate == pytest.approx(np.sqrt(2 * 2.0 * 1.5 / 0.3), rel=1e-12)

    def test_single_user_no_noise_unbounded(self):
        cfg = CdmaConfig(n_chips=8, n_users=1)
        out = estimate_snr(cfg, [np.ones(8, dtype=complex)], 1, trials=500, seed=1)
        assert out.unbounded
        assert np.isinf(out.snr_estimate)

    def test_deterministic_given_seed(self):
        cfg = CdmaConfig(n_chips=31, n_users=2)
        pair = gold_pair(5)
        a = estimate_snr(cfg, pair, 1, trials=5000, seed=42)
        b = estimate_snr(cfg, pair, 1, trials=5000, seed=42)
        assert a == b

    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda: gold_pair(5),
            lambda: (fzc_sequence(31, 1), fzc_sequence(31, 2)),
            lambda: (single_tone_sequence(31, 1), single_tone_sequence(31, 2)),
            lambda: tuple(
                np.exp(2j * np.pi * np.random.default_rng(9).random((2, 31)))
            ),
        ],
        ids=["gold", "fzc", "tone", "random"],
    )
    def test_unbiased_within_three_stderr(self, make_pair):
        pair = list(make_pair())
        cfg = CdmaConfig(n_chips=31, n_users=2)
        out = estimate_snr(cfg, pair, 1, trials=30000, seed=11)
        analytic = interference_variance_direct(cfg, pair, 1)
        assert abs(out.var_interference_mean - analytic) <= 3 * out.var_interference_stderr

    def test_three_user_variance_adds_up(self):
        rng = np.random.default_rng(5)
        seqs = [random_unit_modulus(16, rng) for _ in range(3)]
        cfg = CdmaConfig(n_chips=16, n_users=3)
        out = estimate_snr(cfg, seqs, 1, trials=40000, seed=13)
        analytic = interference_variance_direct(cfg, seqs, 1)
        assert abs(out.var_interference_mean - analytic) <= 3 * out.var_interference_stderr

    def test_snr_estimate_formula(self):
        cfg = CdmaConfig(n_chips=31, n_users=2, power=1.2, symbol_duration=0.8,
                         noise_density=0.05)
        pair = gold_pair(5)
        out = estimate_snr(cfg, pair, 1, trials=2000, seed=21)
        var_d = 1.2 * 0.8**2 / 2
        noise = 0.05 * 0.8 / 4
        expected = np.sqrt(var_d / (out.var_interference_mean + noise))
        assert out.snr_estimate == pytest.approx(expected, rel=1e-12)

    def test_trials_floor(self):
        cfg = CdmaConfig(n_chips=8, n_users=2)
        pair = [np.ones(8, dtype=complex)] * 2
        with pytest.raises(ValueError):
            estimate_snr(cfg, pair, 1, trials=99, seed=0)


def _reference_block_sums(x, y, k_index, block, n_draws, cfg, seed):
    """The block kernel written out: psi drawn, bits combined per trial."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, k_index, block)))
    tau = rng.uniform(0.0, cfg.symbol_duration, n_draws)
    rng.uniform(0.0, 2.0 * np.pi, n_draws)
    b_prev = rng.integers(0, 2, n_draws) * 2.0 - 1.0
    b_cur = rng.integers(0, 2, n_draws) * 2.0 - 1.0
    tc = cfg.chip_duration
    l = np.minimum((tau / tc).astype(int), cfg.n_chips - 1)
    a_lo = b_prev * x[l] + b_cur * y[l]
    a_hi = b_prev * x[l + 1] + b_cur * y[l + 1]
    values = np.abs((tau - l * tc) * a_lo + ((l + 1) * tc - tau) * a_hi) ** 2
    return float(np.sum(values)), float(np.dot(values, values))


class TestRandomStream:
    """The block kernel keeps the stream of a path that draws every variable."""

    @pytest.mark.parametrize("n", [5, 31, 127])
    @pytest.mark.parametrize("n_draws", [8192, 3617, 1])
    def test_block_sums_equal_reference_exactly(self, n, n_draws):
        rng = np.random.default_rng(n)
        cfg = CdmaConfig(n_chips=n, n_users=3, symbol_duration=0.9)
        # a complex pair and a real +-1 pair: the kernel's two combine paths
        pairs = [
            (random_unit_modulus(n, rng), random_unit_modulus(n, rng)),
            tuple(rng.choice([-1.0, 1.0], size=(2, n)).astype(complex)),
        ]
        for (s_i, s_k), real in zip(pairs, (False, True)):
            x, y = partial_sum_table(s_i, s_k)
            kernel = simulator._Kernel(simulator._bit_table(x, y), cfg)
            assert kernel.real == real
            for seed, k, block in [(0, 2, 0), (123, 3, 1), (2**63 + 11, 2, 7)]:
                sums = kernel.block_sums(seed, k, block, n_draws)
                assert sums == _reference_block_sums(x, y, k, block, n_draws, cfg, seed)

    @pytest.mark.parametrize("n_draws", [8192, 3617, 1])
    def test_advance_skips_exactly_the_phase_draw(self, n_draws):
        drawn = np.random.default_rng(np.random.SeedSequence((5, 2, 1)))
        skipped = np.random.default_rng(np.random.SeedSequence((5, 2, 1)))
        tau = drawn.uniform(0.0, 1.0, n_draws)
        drawn.uniform(0.0, 2.0 * np.pi, n_draws)
        assert np.array_equal(skipped.uniform(0.0, 1.0, n_draws), tau)
        skipped.bit_generator.advance(n_draws)
        expected = np.stack([drawn.integers(0, 2, n_draws), drawn.integers(0, 2, n_draws)])
        assert np.array_equal(skipped.integers(0, 2, (2, n_draws)), expected)


def _pinned_pair(n, kind):
    rng = np.random.default_rng(1000 + n)
    real = list(rng.choice([-1.0, 1.0], size=(2, n)).astype(complex))
    return real if kind == "pm1" else list(np.exp(2j * np.pi * rng.random((2, n))))


class TestPinnedEstimates:
    """estimate_snr bits at N = 5, 31 and 127, for a real and a complex pair.

    The values were computed by the unbuffered kernel that drew the bits as
    one (2, n) array and combined every pair in complex arithmetic; 20001
    trials make two full blocks and a partial one.
    """

    PINNED = {
        (5, "pm1"): (0.061614717582036, 0.0003923215886574961),
        (5, "complex"): (0.02941281742780012, 0.00023129506646173216),
        (31, "pm1"): (0.005215094698283199, 5.201985361327021e-05),
        (31, "complex"): (0.004435434132156012, 2.5186960165357855e-05),
        (127, "pm1"): (0.0009354404842633701, 9.686004419396598e-06),
        (127, "complex"): (0.001154706828840556, 8.124344454723392e-06),
    }

    @pytest.mark.parametrize("n, kind", sorted(PINNED))
    def test_bit_exact(self, n, kind):
        cfg = CdmaConfig(n_chips=n, n_users=2, symbol_duration=0.9)
        out = estimate_snr(cfg, _pinned_pair(n, kind), 1, trials=20001, seed=2026)
        assert (out.var_interference_mean, out.var_interference_stderr) == self.PINNED[n, kind]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
class TestKernelMemory:
    """A block touches no fresh memory, so a long call takes few page faults."""

    BLOCKS = 512

    @pytest.mark.parametrize("n", [31, 127, 1023])
    @pytest.mark.parametrize("kind", ["pm1", "complex"])
    def test_at_most_one_minor_fault_per_block(self, n, kind):
        import resource

        pair = _pinned_pair(n, kind)
        cfg = CdmaConfig(n_chips=n, n_users=2)
        estimate_snr(cfg, pair, 1, trials=simulator._BLOCK, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_snr(cfg, pair, 1, trials=self.BLOCKS * simulator._BLOCK, seed=1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # the kernel's own buffers (about 150-210 pages) fault in once per call
        assert faults <= self.BLOCKS
