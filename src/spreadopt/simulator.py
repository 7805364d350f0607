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

Determinism contract: results are a pure function of (inputs, seed, trials).
Trials are processed in fixed-size blocks; each (interferer, block) pair gets
its own generator derived from the master seed, so the draws do not depend on
how blocks are assigned to worker threads, and the block partial sums are
combined with exact (compensated) summation in fixed block order.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .interference import BitWindow, CdmaConfig, _bit_table, _check_user_set, partial_sum_table
from .spectral import sequence_entries

__all__ = ["MonteCarloDraw", "SimulationEstimate", "interference_sample", "estimate_snr"]

_BLOCK = 8192


@dataclass(frozen=True)
class MonteCarloDraw:
    """One interferer's delay, effective phase, and bit window."""

    tau: float
    psi: float
    bits: BitWindow


@dataclass(frozen=True)
class SimulationEstimate:
    """Estimated interference variance and SNR with the sampling error."""

    var_interference_mean: float
    var_interference_stderr: float
    snr_estimate: float
    trials: int
    seed: int
    unbounded: bool = False


def _sample_values(table, offset, tau, chip_duration, n_chips):
    """Vectorized |I~|^2 for arrays of draws.

    table is a flat array of rows b_prev*x + b_cur*y, each N+1 long; a draw
    reads its delay's two entries from the row that starts at its offset.
    """
    l = np.minimum((tau / chip_duration).astype(int), n_chips - 1)
    idx = offset + l
    a_lo = table[idx]
    a_hi = table[idx + 1]
    w_lo = tau - l * chip_duration
    w_hi = (l + 1) * chip_duration - tau
    return np.abs(w_lo * a_lo + w_hi * a_hi) ** 2


def interference_sample(cfg: CdmaConfig, s_i, s_k, draw: MonteCarloDraw) -> float:
    """Exact per-draw value of |I~|^2 for one interferer.

    Nonnegative and piecewise quadratic in the delay on each chip interval.
    """
    t = cfg.symbol_duration
    if not 0.0 <= draw.tau < t:
        raise ValueError(f"delay tau={draw.tau} out of range [0, {t})")
    si = sequence_entries(s_i)
    sk = sequence_entries(s_k)
    if si.shape[0] != cfg.n_chips or sk.shape[0] != cfg.n_chips:
        raise ValueError("sequence length does not match cfg.n_chips")
    x, y = partial_sum_table(si, sk)
    row = draw.bits.b_prev * x + draw.bits.b_cur * y
    value = _sample_values(row, 0, np.asarray([draw.tau]), cfg.chip_duration, cfg.n_chips)
    return float(value[0])


def _block_sums(tables, k_index, block, n_draws, cfg, seed):
    """(sum, sum of squares) of per-trial values for one (interferer, block)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, k_index, block)))
    tau = rng.uniform(0.0, cfg.symbol_duration, n_draws)
    # the phase psi takes one 64-bit output per draw; |I~|^2 is phase-free,
    # so its stream positions are skipped rather than drawn
    rng.bit_generator.advance(n_draws)
    bits = rng.integers(0, 2, (2, n_draws))
    offset = (2 * bits[0] + bits[1]) * (cfg.n_chips + 1)  # bit 1 is +1, bit 0 is -1
    table = tables[k_index].ravel()
    values = _sample_values(table, offset, tau, cfg.chip_duration, cfg.n_chips)
    return float(np.sum(values)), float(np.dot(values, values))


def estimate_snr(
    cfg: CdmaConfig,
    sequences,
    i: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> SimulationEstimate:
    """Monte Carlo estimate of user i's interference variance and SNR.

    The estimator is (P/4) * mean over trials of sum_{k != i} |I~_{i,k}|^2,
    with independent draws per interferer; the reported standard error is the
    sample standard deviation of the per-trial values over sqrt(trials).
    The SNR estimate plugs the estimated variance into
    sqrt(Var_D / (Var_I + N0*T/4)) with Var_D = P*T^2/2.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100")
    entries = _check_user_set(cfg, sequences, i)

    interferers = [k for k in range(1, cfg.n_users + 1) if k != i]
    seed = int(seed) % 2**64
    p, t, n0 = cfg.power, cfg.symbol_duration, cfg.noise_density
    var_d = p * t**2 / 2.0
    noise_var = n0 * t / 4.0

    tables = {
        k: _bit_table(*partial_sum_table(entries[i - 1], entries[k - 1])) for k in interferers
    }
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    jobs = []
    for k in interferers:
        for b in range(n_blocks):
            n_draws = min(_BLOCK, trials - b * _BLOCK)
            jobs.append((k, b, n_draws))

    def run(job):
        k, b, n_draws = job
        return _block_sums(tables, k, b, n_draws, cfg, seed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    # fixed-order compensated reduction: independent of worker assignment.
    # Draws are independent across interferers, so the variance of the
    # per-trial value (a sum over interferers) is the sum of the per-
    # interferer variances.  With no interferers the sums are empty and the
    # estimate is 0 with stderr 0.
    mean = 0.0
    var_of_value = 0.0
    for pos, _ in enumerate(interferers):
        chunk = results[pos * n_blocks : (pos + 1) * n_blocks]
        total_k = math.fsum(r[0] for r in chunk)
        total_sq_k = math.fsum(r[1] for r in chunk)
        mean_k = total_k / trials
        second_k = total_sq_k / trials
        mean += mean_k
        var_of_value += max(0.0, (second_k - mean_k**2) * trials / (trials - 1))
    scale = p / 4.0
    est = scale * mean
    stderr = scale * math.sqrt(var_of_value / trials)
    denom = est + noise_var
    unbounded = denom <= 0.0
    snr_estimate = math.inf if unbounded else math.sqrt(var_d / denom)
    return SimulationEstimate(est, stderr, snr_estimate, trials, seed, unbounded)
