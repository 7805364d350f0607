"""Correlation functions in spectral form, peak statistics, and the Sarwate bound.

Working in the coefficient representation, the periodic and aperiodic
correlations of two sequences u, v at integer shift l are the weighted sums

    theta(u, v)(l)     = sum_m exp(-2*pi*j*l*m/N)            conj(alpha_m^u) alpha_m^v,
    theta_hat(u, v)(l) = sum_m exp(-2*pi*j*l*(m/N + 1/(2N))) conj(beta_m^u)  beta_m^v.

In the time domain these equal, respectively, the circular correlation
sum_n conj(s_u[n+l]) s_v[n] with periodic index wrap, and the same sum with
negacyclic wrap (entries wrapped past the end flip sign); the identification
is verified by brute force in the test suite for N <= 8 and frozen here.

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

from .spectral import SpectralCoeffs, _phase_tables

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

    ``has_cross`` is False for single-sequence sets, where the cross peaks
    are reported as 0 by convention.
    """

    theta_a: float
    theta_c: float
    theta_hat_a: float
    theta_hat_c: float
    has_cross: bool = True


@dataclass(frozen=True)
class SarwateReport:
    """Left-hand sides of the two Sarwate inequalities and their pass flags."""

    lhs_periodic: float
    lhs_aperiodic: float
    satisfied_periodic: bool
    satisfied_aperiodic: bool


def _check_shift(l: int, n: int):
    if not 0 <= l <= n - 1:
        raise ValueError(f"shift l={l} out of range 0..{n - 1}")


def periodic_correlation(c_u: SpectralCoeffs, c_v: SpectralCoeffs, l: int) -> complex:
    """theta(u, v)(l); at l = 0 with u = v this is ||alpha||^2."""
    if c_u.n_chips != c_v.n_chips:
        raise ValueError("coefficient vectors must have equal length")
    n = c_u.n_chips
    _check_shift(l, n)
    lam = _phase_tables(n)[0][l]
    return complex(np.sum(lam * np.conj(c_u.alpha) * c_v.alpha))


def aperiodic_correlation(c_u: SpectralCoeffs, c_v: SpectralCoeffs, l: int) -> complex:
    """theta_hat(u, v)(l), the half-bin-shifted (negacyclic) analog."""
    if c_u.n_chips != c_v.n_chips:
        raise ValueError("coefficient vectors must have equal length")
    n = c_u.n_chips
    _check_shift(l, n)
    lam_hat = _phase_tables(n)[1][l]
    return complex(np.sum(lam_hat * np.conj(c_u.beta) * c_v.beta))


def _profiles(c_u: SpectralCoeffs, c_v: SpectralCoeffs) -> tuple[np.ndarray, np.ndarray]:
    """Both correlations at every shift l = 0..N-1 at once."""
    n = c_u.n_chips
    lam, lam_hat = _phase_tables(n)
    prod_a = np.conj(c_u.alpha) * c_v.alpha
    prod_b = np.conj(c_u.beta) * c_v.beta
    theta = lam[:n] @ prod_a
    theta_hat = lam_hat[:n] @ prod_b
    return theta, theta_hat


def correlation_peaks(coeff_set: Sequence[SpectralCoeffs]) -> CorrelationPeaks:
    """Exact max-of-abs peak statistics over a set of coefficient vectors."""
    if len(coeff_set) < 1:
        raise ValueError("need at least one sequence")
    n = coeff_set[0].n_chips
    theta_a = 0.0
    theta_hat_a = 0.0
    for c in coeff_set:
        if c.n_chips != n:
            raise ValueError("all sequences in a set must share n_chips")
        theta, theta_hat = _profiles(c, c)
        theta_a = max(theta_a, float(np.max(np.abs(theta[1:]))))
        theta_hat_a = max(theta_hat_a, float(np.max(np.abs(theta_hat[1:]))))
    theta_c = 0.0
    theta_hat_c = 0.0
    has_cross = len(coeff_set) >= 2
    for a in range(len(coeff_set)):
        for b in range(a + 1, len(coeff_set)):
            theta, theta_hat = _profiles(coeff_set[a], coeff_set[b])
            theta_c = max(theta_c, float(np.max(np.abs(theta))))
            theta_hat_c = max(theta_hat_c, float(np.max(np.abs(theta_hat))))
    return CorrelationPeaks(
        theta_a=theta_a,
        theta_c=theta_c,
        theta_hat_a=theta_hat_a,
        theta_hat_c=theta_hat_c,
        has_cross=has_cross,
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
