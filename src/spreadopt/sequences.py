"""Baseline spreading-sequence families and random feasible starting points.

Three classical families serve as comparison baselines for the optimizer:

* Gold codes - binary sequences built from a preferred pair of m-sequences,
  (theta_a, theta_c) = (9, 9) at length 31.  ``_m_sequence`` runs one period
  of each register of the pair in PREFERRED_TAPS, and the family is the two
  m-sequences plus their chip-wise products over every cyclic shift;
* Frank-Zadoff-Chu (FZC) polyphase sequences with perfect periodic
  autocorrelation, (theta_a, theta_c) = (0, sqrt(N)) for a coprime pair;
* single complex tones exp(2*pi*j*k*n/N), which have zero crosscorrelation
  between distinct tones at the price of maximal autocorrelation peaks,
  (theta_a, theta_c) = (N, 0).

All generated chips are unit modulus, so every family member satisfies the
power-feasibility condition ||alpha||^2 = ||beta||^2 = N.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralCoeffs, coeffs_from_alpha

__all__ = [
    "ChipSequence",
    "PREFERRED_TAPS",
    "gold_family",
    "gold_pair",
    "fzc_sequence",
    "single_tone_sequence",
    "random_feasible_point",
]


@dataclass(frozen=True)
class ChipSequence:
    """One user's length-N complex spreading sequence plus a provenance label."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 1 or entries.shape[0] < 2:
            raise ValueError("a chip sequence needs at least 2 entries")
        object.__setattr__(self, "entries", entries)

    @property
    def n_chips(self) -> int:
        return self.entries.shape[0]


# Preferred m-sequence pairs per register degree (middle tap exponents).
# Degree 5: x^5+x^2+1 with x^5+x^4+x^3+x^2+1; the degree 6 and 7 pairs are
# standard choices verified by the three-valued crosscorrelation tests.
PREFERRED_TAPS = {
    5: ((2,), (4, 3, 2)),
    6: ((1,), (5, 2, 1)),
    7: ((3,), (3, 2, 1)),
}

# Family indices of a pair whose correlation peaks are exactly (9, 9) at
# degree 5 (verified by brute force; any two xor-combined members work).
_CANONICAL_PAIR = (2, 3)


def _m_sequence(taps, degree: int) -> np.ndarray:
    """One period (2^degree - 1 bits) of the Fibonacci LFSR of x^degree + ... + 1.

    ``taps`` are the exponents strictly between 0 and ``degree`` of the
    feedback polynomial's middle terms.  The register starts from the
    all-ones state and runs a[i] = a[i-d] xor (xor of a[i-d+t] over taps).
    The bits are an m-sequence only for a primitive polynomial, which the
    tests check for every PREFERRED_TAPS entry.
    """
    out = np.empty(2**degree - 1, dtype=np.int8)
    out[:degree] = 1
    for i in range(degree, out.shape[0]):
        bit = out[i - degree]
        for t in taps:
            bit ^= out[i - degree + t]
        out[i] = bit
    return out


def gold_family(degree: int = 5) -> list[ChipSequence]:
    """All 2^degree + 1 Gold sequences of length N = 2^degree - 1.

    Members 0 and 1 are the two m-sequences of the preferred pair; member
    2 + d is their chip-wise product with the second sequence cyclically
    shifted by d.  Any two distinct members have periodic crosscorrelation
    values confined to the three-valued set {-1, -t, t-2} (t = 9 for
    degree 5).
    """
    if degree not in PREFERRED_TAPS:
        raise ValueError(
            f"unsupported degree {degree}; available: {sorted(PREFERRED_TAPS)}"
        )
    # bit 0 -> +1, bit 1 -> -1
    m1, m2 = (1.0 - 2.0 * _m_sequence(taps, degree) for taps in PREFERRED_TAPS[degree])
    n = m1.shape[0]
    family = [
        ChipSequence(m1.astype(complex), label=f"gold(degree={degree},index=0)"),
        ChipSequence(m2.astype(complex), label=f"gold(degree={degree},index=1)"),
    ]
    for d in range(n):
        combined = m1 * np.roll(m2, d)
        family.append(
            ChipSequence(combined.astype(complex), label=f"gold(degree={degree},index={d + 2})")
        )
    return family


def gold_pair(degree: int = 5) -> tuple[ChipSequence, ChipSequence]:
    """The canonical two-user Gold pair used for baseline comparisons."""
    family = gold_family(degree)
    i, j = _CANONICAL_PAIR
    return family[i], family[j]


def fzc_sequence(n_chips: int, m_param: int) -> ChipSequence:
    """Frank-Zadoff-Chu sequence, entry n = 1..N.

    exp(-j*pi*M*n^2/N) for even N and exp(-j*pi*M*n*(n+1)/N) for odd N, with
    M coprime to N.  Periodic autocorrelation vanishes at every nonzero shift.
    """
    if n_chips < 2:
        raise ValueError("n_chips must be at least 2")
    if math.gcd(m_param, n_chips) != 1:
        raise ValueError(
            f"m_param={m_param} must be relatively prime to n_chips={n_chips}"
        )
    n = np.arange(1, n_chips + 1)
    if n_chips % 2 == 0:
        phase = n * n
    else:
        phase = n * (n + 1)
    entries = np.exp(-1j * np.pi * m_param * phase / n_chips)
    return ChipSequence(entries, label=f"fzc(N={n_chips},M={m_param})")


def single_tone_sequence(n_chips: int, k_param: int) -> ChipSequence:
    """Single complex tone exp(2*pi*j*k*n/N); k = 0 gives the all-ones sequence."""
    if n_chips < 2:
        raise ValueError("n_chips must be at least 2")
    if not 0 <= k_param <= n_chips - 1:
        raise ValueError(f"k_param={k_param} out of range 0..{n_chips - 1}")
    n = np.arange(1, n_chips + 1)
    entries = np.exp(2j * np.pi * k_param * n / n_chips)
    return ChipSequence(entries, label=f"tone(N={n_chips},k={k_param})")


def random_feasible_point(n_chips: int, n_users: int, seed: int) -> list[SpectralCoeffs]:
    """Random power-feasible coefficient pairs, one per user.

    Each user's alpha is drawn isotropically and rescaled to ||alpha||^2 = N;
    beta = phi_hat @ alpha inherits the norm because phi_hat is unitary.
    Deterministic in ``seed``.
    """
    if n_users < 1:
        raise ValueError("n_users must be at least 1")
    if n_chips < 2:
        raise ValueError("n_chips must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points = []
    for _ in range(n_users):
        stacked = rng.standard_normal(2 * n_chips)
        stacked *= np.sqrt(n_chips) / np.linalg.norm(stacked)
        points.append(coeffs_from_alpha(stacked[:n_chips] + 1j * stacked[n_chips:]))
    return points
