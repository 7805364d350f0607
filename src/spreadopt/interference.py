"""Interference variance and SNR for asynchronous two-or-more-user DS-CDMA.

At the correlation receiver of user i, one interfering user k with chip
delay in [l*Tc, (l+1)*Tc) contributes a term built from two partial
crosscorrelations of the chip vectors.  Both are quadratic forms
s_i^* B s_k in the +-1 block shift matrix

    B(l; b_prev, b_cur) = [[ 0,              b_prev * I_l ],
                           [ b_cur * I_{N-l}, 0           ]],

where (b_prev, b_cur) are the interferer's previous and current data bits.
Integrating the squared contribution over the delay within one chip gives

    (Tc^3/3) * (|A_l|^2 + |A_{l+1}|^2 + Re[A_l * conj(A_{l+1})]),

with A_l = s_i^* B(l) s_k.  Averaging over the four bit sign pairs and
summing the chip index l over 0..N-1 yields the interference variance

    Var_I = (P / 4T) * sum_{k != i} E_bits{ sum_l integral },

which this module evaluates two independent ways: directly as above, and in
spectral coordinates where the same quantity collapses to

    Var_I = (P T^2 / 12 N^2) * sum_{k != i} sum_m S_m(i, k),

    S_m = |alpha_m^i|^2 |alpha_m^k|^2 (1 + cos(2 pi m/N)/2)
        + |beta_m^i|^2  |beta_m^k|^2  (1 + cos(2 pi (m/N + 1/(2N)))/2).

The two routes must agree to roundoff; the test suite enforces this.  The
output SNR is

    SNR_i = ( sum_{k != i} sum_m S_m / (6 N^2)  +  N0 / (2 P T) )^(-1/2),

equivalently sqrt(Var_D / (Var_I + Var_N)) with Var_D = P T^2 / 2 and
Var_N = N0 T / 4 for white noise of two-sided density N0/2.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .spectral import SpectralCoeffs, decompose, sequence_entries

__all__ = [
    "CdmaConfig",
    "SnrBreakdown",
    "partial_sum_table",
    "interference_variance_direct",
    "interference_variance_spectral",
    "s_m_terms",
    "snr",
]


def _check_range(name: str, value: float, zero_ok: bool) -> None:
    """Reject a value outside [1e-30, 1e30] (other than 0, when zero_ok), naming it."""
    if not (1e-30 <= value <= 1e30 or zero_ok and value == 0.0):
        raise ValueError(f"{name} must be finite and {'0 or ' if zero_ok else ''}"
                         f"in [1e-30, 1e30], got {value!r}")


@dataclass(frozen=True)
class CdmaConfig:
    """System parameters.  chip_duration is always symbol_duration / n_chips.

    ``n_chips`` and ``n_users`` are integers, numpy integers included; a float
    raises TypeError.  P and T lie in [1e-30, 1e30] and N0 is 0 or in that
    range; other values, NaN and inf included, raise ValueError.  So P T^2,
    N0 T and N0 / (2PT) are 0 or normal floats within 1e-91 to 1e90.
    """

    n_chips: int
    n_users: int
    power: float = 1.0
    symbol_duration: float = 1.0
    noise_density: float = 0.0

    def __post_init__(self):
        operator.index(self.n_chips)
        operator.index(self.n_users)
        if self.n_chips < 2:
            raise ValueError("n_chips must be at least 2")
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        _check_range("power", self.power, zero_ok=False)
        _check_range("symbol_duration", self.symbol_duration, zero_ok=False)
        _check_range("noise_density", self.noise_density, zero_ok=True)

    @property
    def chip_duration(self) -> float:
        return self.symbol_duration / self.n_chips


@dataclass(frozen=True)
class SnrBreakdown:
    """SNR of one user together with its variance components."""

    interference_variance: float
    noise_variance: float
    snr: float
    s_m_sum: float


def partial_sum_table(s_i, s_k) -> tuple[np.ndarray, np.ndarray]:
    """Bit-independent pieces of s_i^* B(l) s_k for l = 0..N.

    Returns (x, y) with s_i^* B(l; b_prev, b_cur) s_k = b_prev*x[l] + b_cur*y[l]:
    x[l] pairs the first l chips of s_i with the last l of s_k, y[l] the rest.
    """
    si = sequence_entries(s_i)
    sk = sequence_entries(s_k)
    if si.shape != sk.shape:
        raise ValueError("sequences must have equal length")
    n = si.shape[0]
    x = np.empty(n + 1, dtype=complex)
    y = np.empty(n + 1, dtype=complex)
    si_c = np.conj(si)
    for l in range(n + 1):
        x[l] = np.sum(si_c[:l] * sk[n - l:])
        y[l] = np.sum(si_c[l:] * sk[: n - l])
    return x, y


def _check_user_set(cfg: CdmaConfig, sequences, i: int) -> list:
    """Validate a user set of chip sequences for user i; return their chip vectors.

    Each user's mean chip power ||s||^2/N must be 0 or in [1e-30, 1e30]; a
    square beyond the float range is inf, unwarned.  A SpectralCoeffs is no
    chip sequence: converting it raises TypeError.
    """
    if len(sequences) != cfg.n_users:
        raise ValueError(
            f"expected {cfg.n_users} sequences for this configuration, got {len(sequences)}"
        )
    if not 1 <= i <= cfg.n_users:
        raise ValueError(f"user index {i} out of range 1..{cfg.n_users}")
    users = [sequence_entries(s) for s in sequences]
    with np.errstate(over="ignore"):
        for k, u in enumerate(users, start=1):
            if u.shape[0] != cfg.n_chips:
                raise ValueError("sequence length does not match cfg.n_chips")
            parts = np.ascontiguousarray(u).view(float)  # Re and Im, squares sum to ||u||^2
            power = float(np.einsum("i,i->", parts, parts)) / cfg.n_chips
            _check_range(f"mean chip power of user {k}", power, zero_ok=True)
    return users


def _bit_table(x, y):
    """(4, N+1) table whose row 2*[b_prev > 0] + [b_cur > 0] is b_prev*x + b_cur*y.

    Each entry takes the same IEEE operations as combining the bits per trial,
    so a gather from the table is bit-identical to that combination.
    """
    return np.stack([bp * x + bc * y for bp in (-1.0, 1.0) for bc in (-1.0, 1.0)])


def _pair_bit_average(si: np.ndarray, sk: np.ndarray) -> float:
    """E_bits{ sum_l (|A_l|^2 + |A_{l+1}|^2 + Re[A_l conj A_{l+1}]) } without Tc^3/3."""
    total = 0.0
    for a in _bit_table(*partial_sum_table(si, sk)):
        lo, hi = a[:-1], a[1:]
        total += 0.25 * float(
            np.sum(np.abs(lo) ** 2 + np.abs(hi) ** 2 + (lo * np.conj(hi)).real)
        )
    return total


def interference_variance_direct(cfg: CdmaConfig, sequences, i: int) -> float:
    """Var_I for user i by explicit chip-interval integration and exact bit average.

    The bit expectation is the exact mean over the four (b_prev, b_cur) sign
    pairs.  ``sequences`` are chip sequences.  Returns 0 for a single-user
    system.
    """
    entries = _check_user_set(cfg, sequences, i)
    tc = cfg.chip_duration
    total = 0.0
    for k, sk in enumerate(entries, start=1):
        if k == i:
            continue
        total += (tc**3 / 3.0) * _pair_bit_average(entries[i - 1], sk)
    return (cfg.power / (4.0 * cfg.symbol_duration)) * total


@lru_cache(maxsize=None)
def _weights(n_chips: int) -> np.ndarray:
    """The (2, N) S_m weights: rows 1 + cos(2 pi m/N)/2 and 1 + cos(2 pi (m/N + 1/(2N)))/2."""
    m = np.arange(1, n_chips + 1)
    weights = np.array([1.0 + 0.5 * np.cos(2 * np.pi * m / n_chips),
                        1.0 + 0.5 * np.cos(2 * np.pi * (m / n_chips + 1.0 / (2 * n_chips)))])
    weights.setflags(write=False)
    return weights


def _powers(coeffs) -> np.ndarray:
    """The (K, 2, N) stack of |alpha|^2 and |beta|^2 of a set's SpectralCoeffs."""
    return np.abs(np.array([(c.alpha, c.beta) for c in coeffs])) ** 2


def _s_m(pq_i: np.ndarray, pq_k: np.ndarray) -> np.ndarray:
    """S_m of user i against user k, or against each k of a stack, from _powers rows."""
    w_alpha, w_beta = _weights(pq_i.shape[-1])
    return pq_i[0] * pq_k[..., 0, :] * w_alpha + pq_i[1] * pq_k[..., 1, :] * w_beta


def _s_row(powers: np.ndarray, i: int) -> np.ndarray:
    """Entry k-1 is sum_m S_m(i, k), for user i and every user k of a _powers stack."""
    return np.sum(_s_m(powers[i - 1], powers), axis=-1)


def s_m_terms(c_i: SpectralCoeffs, c_k: SpectralCoeffs) -> np.ndarray:
    """Per-frequency interference weights S_m for one user pair.

    Entry m-1 is |alpha_m^i|^2 |alpha_m^k|^2 (1 + cos(2 pi m/N)/2)
    + |beta_m^i|^2 |beta_m^k|^2 (1 + cos(2 pi (m/N + 1/(2N)))/2); every entry
    is nonnegative and the value is symmetric in (i, k).
    """
    if c_i.n_chips != c_k.n_chips:
        raise ValueError("coefficient vectors must have equal length")
    return _s_m(*_powers([c_i, c_k]))


def interference_variance_spectral(cfg: CdmaConfig, sequences, i: int) -> float:
    """Var_I for user i via the spectral form (P T^2 / 12 N^2) sum_k sum_m S_m.

    ``sequences`` are chip sequences.  Must agree with
    interference_variance_direct to roundoff.
    """
    return snr(cfg, sequences, i).interference_variance


def snr(cfg: CdmaConfig, sequences, i: int) -> SnrBreakdown:
    """SNR of user i with its interference/noise breakdown.

    With no interference (S_m sum 0) and zero noise density the SNR has no
    finite value and is reported as snr = inf.  Otherwise the SNR is
    (s_sum/(6N^2) + N0/(2PT))^(-1/2) as written: N0/(2PT) is 0 or in [5e-91,
    5e89], and s_sum/(6N^2) is at most (K-1) 1e60/4, as each S_m weight is at
    most 3/2 and both bases are isometries, so each ||alpha||^2 and
    ||beta||^2 is the chip energy ||s||^2 to roundoff, at most 1e30 N: no
    quotient overflows.  A positive S_m sum so small that s_sum/(6N^2) rounds to 0
    while N0 = 0 raises ValueError naming the sum.  ``sequences`` are chip
    sequences.
    """
    coeffs = [decompose(u) for u in _check_user_set(cfg, sequences, i)]
    return _user_snr(cfg, _powers(coeffs), i)


def _user_snr(cfg: CdmaConfig, powers: np.ndarray, i: int) -> SnrBreakdown:
    """snr of user i for the _powers stack of a set that _check_user_set accepted."""
    # sum_{k != i} sum_m S_m(i, k), added left to right in set order: math.fsum, and
    # the builtin sum from Python 3.12 on, round differently and would move output bytes
    row = _s_row(powers, i).tolist()
    s_sum = reduce(operator.add, row[:i - 1] + row[i:], 0.0)
    p, t, n0 = cfg.power, cfg.symbol_duration, cfg.noise_density
    var_i = p * t**2 / (12.0 * cfg.n_chips**2) * s_sum
    var_n = n0 * t / 4.0
    denom = s_sum / (6.0 * cfg.n_chips**2) + n0 / (2.0 * p * t)
    if denom == 0.0 and s_sum != 0.0:
        raise ValueError(f"S_m sum of user {i} is {s_sum!r}: s_sum/(6N^2) rounds to 0, "
                         "so the SNR is not computable")
    value = math.inf if denom == 0.0 else denom**-0.5
    return SnrBreakdown(
        interference_variance=var_i,
        noise_variance=var_n,
        snr=value,
        s_m_sum=s_sum,
    )
