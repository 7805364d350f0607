"""Monte Carlo oracle for the asynchronous-interference model.

Independently of the spectral machinery, the interference seen by user i from
user k can be sampled exactly: draw the delay tau uniform on [0, T), the
effective carrier phase psi uniform on [0, 2*pi), and the two data bits
uniform on {-1, +1}; with l = floor(tau / Tc) the squared magnitude of the
interference integral is, in closed form,

    |I~|^2 = | (tau - l*Tc) * A_l  +  ((l+1)*Tc - tau) * A_{l+1} |^2,

where A_l = s_i^* B(l; b_prev, b_cur) s_k = b_prev*x[l] + b_cur*y[l].  Only
four bit pairs exist, so A is tabulated once per interferer as four rows, one
per pair, and a trial gathers its A_l and A_{l+1} from its pair's row.  The
phase psi cancels in the magnitude: its positions in the random stream are
skipped, not drawn, so the delays and bits are those a full receiver-output
path would draw.  Averaging (P/4) * |I~|^2 over draws estimates the
interference variance, to be compared against the closed-form value.
``estimate_snr`` is the only entry point; per-draw values stay in its kernel.

Determinism contract: results are a pure function of (inputs, seed, trials).
Trials are processed in fixed-size blocks; each (interferer, block) pair gets
its own generator derived from the master seed, so the draws of a block do
not depend on the blocks before it, and the block partial sums are combined
with exact (compensated) summation in fixed block order.  The module makes no
BLAS call, so the results do not depend on the kernel, and so the rounding,
that OpenBLAS picks for the CPU.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .interference import CdmaConfig, _bit_table, _check_user_set, partial_sum_table

__all__ = ["SimulationEstimate", "estimate_snr"]

_BLOCK = 8192


@dataclass(frozen=True)
class SimulationEstimate:
    """Estimated interference variance and SNR with the sampling error."""

    var_interference_mean: float
    var_interference_stderr: float
    snr_estimate: float
    trials: int
    seed: int


class _Kernel:
    """|I~|^2 of one interferer for blocks of draws, computed in fixed buffers.

    table is the (4, N+1) bit table; a draw reads its delay's two entries
    from the row that starts at its offset.  Every step writes into a buffer
    of _BLOCK draws allocated once here, so a block allocates only the 64 KiB
    array of raw generator outputs its bits come from.  A table with no
    imaginary part (any real pair, Gold and +-1 among them) is gathered as
    float64 and combined as v*v with v = w_lo*a_lo + w_hi*a_hi: bit-identical
    to the complex route, because multiplying a float by a + 0j rounds only
    w*a and |x + 0j|**2 is x*x.
    """

    def __init__(self, table, cfg: CdmaConfig):
        table = table.ravel()
        self.real = not np.any(table.imag)
        self.table = table.real.copy() if self.real else table
        self.n_chips = cfg.n_chips
        self.chip_duration = cfg.chip_duration
        self.symbol_duration = cfg.symbol_duration
        self.tau = np.empty(_BLOCK)
        self.offset = np.empty(_BLOCK, dtype=np.int64)
        self.l = np.empty(_BLOCK, dtype=np.int64)
        self.w_lo = np.empty(_BLOCK)
        self.w_hi = np.empty(_BLOCK)
        self.a_lo = np.empty(_BLOCK, dtype=self.table.dtype)
        self.a_hi = np.empty(_BLOCK, dtype=self.table.dtype)
        self.values = np.empty(_BLOCK)

    def evaluate(self, n: int) -> np.ndarray:
        """|I~|^2 of the first n draws in the tau and offset buffers (a view)."""
        tc = self.chip_duration
        tau, idx, l = self.tau[:n], self.offset[:n], self.l[:n]
        w_lo, w_hi, a_lo, a_hi = self.w_lo[:n], self.w_hi[:n], self.a_lo[:n], self.a_hi[:n]
        np.divide(tau, tc, out=w_lo)
        l[...] = w_lo  # truncates, as astype(int) does
        np.minimum(l, self.n_chips - 1, out=l)
        idx += l
        # every index is in range; mode="clip" writes out without a buffered copy
        np.take(self.table, idx, out=a_lo, mode="clip")
        idx += 1
        np.take(self.table, idx, out=a_hi, mode="clip")
        np.multiply(l, tc, out=w_lo)
        np.subtract(tau, w_lo, out=w_lo)  # tau - l*Tc
        np.add(l, 1.0, out=w_hi)  # exact: l + 1 is below 2**53
        np.multiply(w_hi, tc, out=w_hi)
        np.subtract(w_hi, tau, out=w_hi)  # (l+1)*Tc - tau
        np.multiply(w_lo, a_lo, out=a_lo)
        np.multiply(w_hi, a_hi, out=a_hi)
        np.add(a_lo, a_hi, out=a_lo)
        values = self.values[:n]
        if not self.real:
            a_lo = np.abs(a_lo, out=values)
        return np.multiply(a_lo, a_lo, out=values)

    def block_sums(self, seed: int, k_index: int, block: int, n_draws: int):
        """(sum, sum of squares) of the per-trial values of one (interferer, block)."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, k_index, block)))
        tau = self.tau[:n_draws]
        rng.random(out=tau)
        tau *= self.symbol_duration  # uniform(0, T) is 0.0 + T*next_double
        # the phase psi takes one 64-bit output per draw; |I~|^2 is phase-free,
        # so its stream positions are skipped rather than drawn
        rng.bit_generator.advance(n_draws)
        # integers(0, 2, n) returns the top bit of the next 32-bit half of the
        # 64-bit stream, low half first (Lemire's method never rejects for a
        # range of 2), so b_prev and b_cur are the top bits of the 2n halves
        # of n raw outputs
        bits = rng.bit_generator.random_raw(n_draws).astype("<u8", copy=False).view("<u4")
        bits >>= 31
        # row 2*b_prev + b_cur: bit 1 is +1, bit 0 is -1
        offset = self.offset[:n_draws]
        np.multiply(bits[:n_draws], 2, out=offset)
        offset += bits[n_draws:]
        offset *= self.n_chips + 1
        values = self.evaluate(n_draws)
        # einsum, unlike np.dot, calls no BLAS, whose kernel and so whose
        # rounding OpenBLAS picks by CPU
        return float(np.sum(values)), float(np.einsum("i,i->", values, values))


def estimate_snr(
    cfg: CdmaConfig,
    sequences,
    i: int,
    trials: int,
    seed: int,
) -> SimulationEstimate:
    """Monte Carlo estimate of user i's interference variance and SNR.

    The estimator is (P/4) * mean over trials of sum_{k != i} |I~_{i,k}|^2,
    with independent draws per interferer; the reported standard error is the
    sample standard deviation of the per-trial values over sqrt(trials).
    The SNR estimate plugs the estimated variance into
    sqrt(Var_D / (Var_I + N0*T/4)) with Var_D = P*T^2/2, which is inf when
    there is no interference estimate and N0 is 0, and is evaluated as
    written: Var_D is in [5e-91, 5e89] and N0*T/4 is 0 or in [2.5e-61,
    2.5e59] (``CdmaConfig``'s ranges).  ``sequences`` are chip sequences.
    ``trials`` is any integer of at least 100 and ``seed`` any integer, numpy
    integers included; a float raises TypeError.  Blocks run in turn on the
    calling thread, because worker threads measured no faster than one.
    """
    trials = operator.index(trials)
    if trials < 100:
        raise ValueError("trials must be at least 100")
    entries = _check_user_set(cfg, sequences, i)

    interferers = [k for k in range(1, cfg.n_users + 1) if k != i]
    seed = operator.index(seed) % 2**64
    p, t, n0 = cfg.power, cfg.symbol_duration, cfg.noise_density
    var_d = p * t**2 / 2.0
    noise_var = n0 * t / 4.0

    # Draws are independent across interferers, so the variance of the
    # per-trial value (a sum over interferers) is the sum of the per-
    # interferer variances.  Block sums are combined by exact summation in
    # block order.  With no interferers the estimate is 0 with stderr 0.
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    mean = 0.0
    var_of_value = 0.0
    for k in interferers:
        kernel = _Kernel(_bit_table(*partial_sum_table(entries[i - 1], entries[k - 1])), cfg)
        sums = [
            kernel.block_sums(seed, k, b, min(_BLOCK, trials - b * _BLOCK))
            for b in range(n_blocks)
        ]
        mean_k = math.fsum(total for total, _ in sums) / trials
        second_k = math.fsum(total_sq for _, total_sq in sums) / trials
        mean += mean_k
        var_of_value += max(0.0, (second_k - mean_k**2) * trials / (trials - 1))
    scale = p / 4.0
    est = scale * mean
    stderr = scale * math.sqrt(var_of_value / trials)
    denom = est + noise_var
    snr_estimate = math.inf if mean == 0.0 and n0 == 0.0 else math.sqrt(var_d / denom)
    return SimulationEstimate(est, stderr, snr_estimate, trials, seed)
