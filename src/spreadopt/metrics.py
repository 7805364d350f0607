"""Correlation functions in spectral form, peak statistics, and the Sarwate bound.

"Aperiodic" here (``aperiodic_correlation``, ``theta_hat``, ``lhs_aperiodic``)
means the odd-periodic (negacyclic) correlation C(l) - C(l - N), not the
classical aperiodic C(l); the names stay because output keys carry them.

Working in the coefficient representation, the periodic and aperiodic
correlations of two sequences u, v at integer shift l are the weighted sums

    theta(u, v)(l)     = sum_m exp(-2*pi*j*l*m/N)            conj(alpha_m^u) alpha_m^v,
    theta_hat(u, v)(l) = sum_m exp(-2*pi*j*l*(m/N + 1/(2N))) conj(beta_m^u)  beta_m^v.

In the time domain these equal, respectively, the circular correlation
sum_n conj(s_u[n+l]) s_v[n] with periodic index wrap, and the same sum with
negacyclic wrap (entries wrapped past the end flip sign); the test suite
checks the identification by brute force, lag by lag.

Both profiles are DFTs over m: with frequency m in bin m-1 (see
``spectral``), theta(l) = exp(-2 pi j l/N) fft(conj(alpha^u) alpha^v)[l] and
theta_hat(l) = exp(-2 pi j l (1/N + 1/(2N))) fft(conj(beta^u) beta^v)[l],
the phase factors being entry l of the two ``spectral`` demodulation rows.
``correlation_peaks`` takes the magnitudes of every shift of every auto and
cross pair from one batched FFT; ``periodic_correlation`` and
``aperiodic_correlation`` read one bin of the same FFT for a single pair.

Peak statistics over a set of K sequences:

    theta_a = max |theta(u, u)(l)|  over users u and shifts 0 < l <= N-1,
    theta_c = max |theta(u, v)(l)|  over pairs u != v and shifts 0 <= l <= N-1,

and likewise theta_hat_a / theta_hat_c (note the differing shift ranges: the
zero-lag crosscorrelation counts, the zero-lag autocorrelation does not).
Any power-feasible set obeys the Sarwate trade-off

    theta_c^2/N + ((N-1)/(N(K-1))) * theta_a^2/N >= 1,

with the same inequality for the aperiodic peaks; FZC pairs achieve the
periodic bound with equality.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import SpectralCoeffs, _demodulation

__all__ = [
    "CorrelationPeaks",
    "SarwateReport",
    "periodic_correlation",
    "aperiodic_correlation",
    "correlation_peaks",
    "sarwate_check",
]

_SARWATE_SLACK = 1e-9


@dataclass(frozen=True)
class CorrelationPeaks:
    """Peak magnitudes of the four correlation statistics for a sequence set.

    A single-sequence set has no cross pair; its cross peaks are reported as 0
    by convention.
    """

    theta_a: float
    theta_c: float
    theta_hat_a: float
    theta_hat_c: float


@dataclass(frozen=True)
class SarwateReport:
    """Left-hand sides of the two Sarwate inequalities and their pass flags."""

    lhs_periodic: float
    lhs_aperiodic: float
    satisfied_periodic: bool
    satisfied_aperiodic: bool


def _profiles(pairs) -> np.ndarray:
    """One batched FFT: [0] and [1] hold theta and theta_hat of each pair (c_u, c_v).

    Bin l of a row is the profile at shift l up to its unit-modulus phase
    factor (see the module docstring), so the two share their magnitude.
    """
    prods = np.array([
        [np.conj(c_u.alpha) * c_v.alpha for c_u, c_v in pairs],
        [np.conj(c_u.beta) * c_v.beta for c_u, c_v in pairs],
    ])
    return np.fft.fft(prods)


def _correlation(c_u: SpectralCoeffs, c_v: SpectralCoeffs, l: int, basis: int) -> complex:
    """theta (basis 0) or theta_hat (basis 1) of (u, v) at shift l = 0..N-1."""
    if c_u.n_chips != c_v.n_chips:
        raise ValueError("coefficient vectors must have equal length")
    n = c_u.n_chips
    if not 0 <= l <= n - 1:
        raise ValueError(f"shift l={l} out of range 0..{n - 1}")
    return complex(_profiles([(c_u, c_v)])[basis, 0, l] * _demodulation(n)[basis, l])


def periodic_correlation(c_u: SpectralCoeffs, c_v: SpectralCoeffs, l: int) -> complex:
    """theta(u, v)(l); at l = 0 with u = v this is ||alpha||^2."""
    return _correlation(c_u, c_v, l, 0)


def aperiodic_correlation(c_u: SpectralCoeffs, c_v: SpectralCoeffs, l: int) -> complex:
    """theta_hat(u, v)(l), the half-bin-shifted (negacyclic) analog."""
    return _correlation(c_u, c_v, l, 1)


def correlation_peaks(coeff_set: Sequence[SpectralCoeffs]) -> CorrelationPeaks:
    """Exact max-of-abs peak statistics over a set of coefficient vectors."""
    if len(coeff_set) < 1:
        raise ValueError("need at least one sequence")
    n = coeff_set[0].n_chips
    if any(c.n_chips != n for c in coeff_set):
        raise ValueError("all sequences in a set must share n_chips")
    k = len(coeff_set)
    crosses = [(coeff_set[a], coeff_set[b]) for a in range(k) for b in range(a + 1, k)]
    theta, theta_hat = np.abs(_profiles([(c, c) for c in coeff_set] + crosses))
    return CorrelationPeaks(
        theta_a=float(np.max(theta[:k, 1:])),
        theta_c=float(np.max(theta[k:])) if crosses else 0.0,
        theta_hat_a=float(np.max(theta_hat[:k, 1:])),
        theta_hat_c=float(np.max(theta_hat[k:])) if crosses else 0.0,
    )


def sarwate_check(peaks: CorrelationPeaks, n_chips: int, n_users: int) -> SarwateReport:
    """Evaluate both Sarwate inequalities for a K-user set of length-N sequences."""
    if n_users < 2:
        raise ValueError("the Sarwate bound needs at least 2 users")
    n, k = n_chips, n_users
    weight = (n - 1) / (n * (k - 1))
    lhs_p = peaks.theta_c**2 / n + weight * peaks.theta_a**2 / n
    lhs_a = peaks.theta_hat_c**2 / n + weight * peaks.theta_hat_a**2 / n
    return SarwateReport(
        lhs_periodic=lhs_p,
        lhs_aperiodic=lhs_a,
        satisfied_periodic=lhs_p >= 1.0 - _SARWATE_SLACK,
        satisfied_aperiodic=lhs_a >= 1.0 - _SARWATE_SLACK,
    )
