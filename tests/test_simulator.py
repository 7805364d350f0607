import sys

import numpy as np
import pytest

from spreadopt import simulator
from spreadopt.interference import (
    CdmaConfig,
    _bit_table,
    interference_variance_direct,
    partial_sum_table,
)
from spreadopt.sequences import fzc_sequence, gold_pair, single_tone_sequence
from spreadopt.simulator import estimate_snr


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def kernel_sample(cfg, s_i, s_k, tau, b_prev, b_cur):
    """|I~|^2 of one draw, computed by the kernel that estimate_snr runs."""
    kernel = simulator._Kernel(_bit_table(*partial_sum_table(s_i, s_k)), cfg)
    kernel.tau[0] = tau
    kernel.offset[0] = (2 * (b_prev > 0) + (b_cur > 0)) * (cfg.n_chips + 1)
    return float(kernel.evaluate(1)[0])


def closed_form_sample(cfg, s_i, s_k, tau, b_prev, b_cur):
    """|(tau - l Tc) A_l + ((l+1) Tc - tau) A_{l+1}|^2 with A from explicit partial sums."""
    n, tc = cfg.n_chips, cfg.chip_duration

    def a(m):
        return b_prev * np.vdot(s_i[:m], s_k[n - m:]) + b_cur * np.vdot(s_i[m:], s_k[: n - m])

    l = min(int(tau / tc), n - 1)
    return abs((tau - l * tc) * a(l) + ((l + 1) * tc - tau) * a(l + 1)) ** 2


class TestInterferenceSample:
    """Per-draw |I~|^2 from _Kernel.evaluate."""

    def test_hand_evaluated_at_zero_delay(self):
        # N=2, Tc=1 (so T=2), all-ones pair, bits (+1,+1): the closed form at
        # tau=0, l=0 reduces to |0*A_0 + Tc*A_1|^2 = |2|^2 = 4
        cfg = CdmaConfig(n_chips=2, n_users=2, symbol_duration=2.0)
        ones = np.ones(2, dtype=complex)
        assert kernel_sample(cfg, ones, ones, 0.0, 1, 1) == pytest.approx(4.0, rel=1e-12)

    def test_zero_interferer(self):
        cfg = CdmaConfig(n_chips=4, n_users=2)
        rng = np.random.default_rng(0)
        s_i = random_unit_modulus(4, rng)
        zero = np.zeros(4, dtype=complex)
        assert kernel_sample(cfg, s_i, zero, 0.6, -1, 1) == 0.0

    def test_nonnegative_everywhere(self):
        # both the complex and the real (float64) combine path of the kernel
        cfg = CdmaConfig(n_chips=5, n_users=2)
        rng = np.random.default_rng(1)
        pairs = [
            (random_unit_modulus(5, rng), random_unit_modulus(5, rng)),
            tuple(rng.choice([-1.0, 1.0], size=(2, 5)).astype(complex)),
        ]
        for s_i, s_k in pairs:
            for tau in np.linspace(0.0, 1.0, 37, endpoint=False):
                for b_prev in (-1, 1):
                    for b_cur in (-1, 1):
                        got = kernel_sample(cfg, s_i, s_k, tau, b_prev, b_cur)
                        want = closed_form_sample(cfg, s_i, s_k, tau, b_prev, b_cur)
                        assert got >= 0.0
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


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

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_trials(self, integer):
        cfg = CdmaConfig(n_chips=31, n_users=2)
        pair = gold_pair(5)
        out = estimate_snr(cfg, pair, 1, trials=integer(20000), seed=1)
        assert out == estimate_snr(cfg, pair, 1, trials=20000, seed=1)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_seed(self, integer):
        cfg = CdmaConfig(n_chips=31, n_users=2)
        pair = gold_pair(5)
        out = estimate_snr(cfg, pair, 1, trials=1000, seed=integer(7))
        assert out == estimate_snr(cfg, pair, 1, trials=1000, seed=7)
        assert type(out.seed) is int

    @pytest.mark.parametrize("seed", [1.9, 1.0])
    def test_float_seed_rejected(self, seed):
        with pytest.raises(TypeError):
            estimate_snr(CdmaConfig(n_chips=31, n_users=2), gold_pair(5), 1, 1000, seed=seed)

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
    return float(np.sum(values)), float(np.einsum("i,i->", values, values))


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
            kernel = simulator._Kernel(_bit_table(x, y), cfg)
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

    The means were computed by the unbuffered kernel that drew the bits as
    one (2, n) array and combined every pair in complex arithmetic; the
    standard errors by the kernel that sums squares without BLAS, so they
    hold under every OpenBLAS kernel.  20001 trials make two full blocks and
    a partial one.
    """

    PINNED = {
        (5, "pm1"): (0.061614717582036, 0.0003923215886574986),
        (5, "complex"): (0.02941281742780012, 0.0002312950664617319),
        (31, "pm1"): (0.005215094698283199, 5.201985361327028e-05),
        (31, "complex"): (0.004435434132156012, 2.518696016535781e-05),
        (127, "pm1"): (0.0009354404842633701, 9.686004419396591e-06),
        (127, "complex"): (0.001154706828840556, 8.12434445472339e-06),
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
