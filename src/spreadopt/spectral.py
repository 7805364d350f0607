"""Shifted exponential bases and the spectral representation of chip sequences.

A length-N chip sequence lives in C^N and can be expanded in either of two
orthogonal exponential bases indexed by a frequency offset eta:

    w_m(eta)[n] = exp(2*pi*j*(n-1)*(m/N + eta)),   n = 1..N,  m = 1..N,

with eta = 0 (the plain harmonic basis) or eta = 1/(2N) (the same basis
shifted by half a frequency bin).  For either offset the vectors are mutually
orthogonal with squared norm N, so every sequence s has two coefficient
vectors

    s = (1/sqrt(N)) * sum_m alpha_m * w_m(0)
      = (1/sqrt(N)) * sum_m beta_m  * w_m(1/(2N)),

recovered by the conjugate-linear inner products alpha_m = <w_m(0), s>/sqrt(N)
and beta_m = <w_m(1/(2N)), s>/sqrt(N).  Both maps are isometries, so
unit-modulus chips give ||alpha||^2 = ||beta||^2 = N.

The two coefficient vectors are coupled by a fixed pair of unitary matrices:
beta = phi_hat @ alpha and alpha = phi @ beta, with closed-form entries

    phi_hat[m, n] = (2/N) / (1 - exp(2*pi*j*((n-m)/N - 1/(2N)))),

and phi = phi_hat^H, the inverse of phi_hat.

The half-bin offset keeps every denominator away from zero.  Indices m, n are
1-based in the formulas above; arrays returned by this module store index m
at position m-1.

Both maps are DFTs, which ``decompose`` and ``reconstruct`` evaluate in
O(N log N) with no N x N table.  As w_m(eta)[n] = w_1(eta)[n] exp(2 pi j n
(m-1)/N) for 0-based n, demodulating by w_1 puts frequency m in DFT bin m-1.  With the unitary
(1/sqrt(N)) DFT, alpha = fft(s conj(w_1(0))), beta = fft(s conj(w_1(1/(2N))))
and s = ifft(alpha) w_1(0) = ifft(beta) w_1(1/(2N)).  (Bin k of the plain
fft(s) holds m = k for k >= 1 and m = N for k = 0.)
``basis_vector`` evaluates the definition directly and is the reference.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralCoeffs",
    "CouplingMatrices",
    "basis_vector",
    "decompose",
    "reconstruct",
    "coupling_matrices",
    "coeffs_from_alpha",
]

#: max-abs tolerance for the unitarity check performed at construction time
UNITARITY_TOL = 1e-10


def sequence_entries(s) -> np.ndarray:
    """Return the complex chip vector of ``s`` (a ChipSequence or array)."""
    entries = np.asarray(getattr(s, "entries", s), dtype=complex)
    if entries.ndim != 1:
        raise ValueError("chip sequence must be one-dimensional")
    return entries


@dataclass(frozen=True)
class SpectralCoeffs:
    """Coefficients of one sequence in the two exponential bases.

    ``alpha[m-1]`` is the coefficient on w_m(0); ``beta[m-1]`` the one on
    w_m(1/(2N)).  For coefficients obtained from an actual sequence,
    ``beta == phi_hat @ alpha`` and both vectors share the sequence norm.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex)
        beta = np.asarray(self.beta, dtype=complex)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise ValueError("alpha and beta must be 1-D vectors of equal length")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n_chips(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class CouplingMatrices:
    """The unitary pair converting between alpha and beta coordinates."""

    phi: np.ndarray
    phi_hat: np.ndarray


def basis_vector(m: int, eta: float, n_chips: int) -> np.ndarray:
    """Entry n of the basis vector: exp(2*pi*j*(n-1)*(m/n_chips + eta)).

    ``m`` must lie in 1..n_chips.  The vector has squared norm n_chips, and
    for fixed eta distinct m give mutually orthogonal vectors.
    """
    if not 1 <= m <= n_chips:
        raise ValueError(f"basis index m={m} out of range 1..{n_chips}")
    n = np.arange(n_chips)
    return np.exp(2j * np.pi * n * (m / n_chips + eta))


@lru_cache(maxsize=None)
def _demodulation(n_chips: int) -> np.ndarray:
    """Rows conj(w_1(0)) and conj(w_1(1/(2N))): exp(-2 pi j n (1/N + eta)), n = 0..N-1."""
    eta = np.array([[0.0], [1.0 / (2 * n_chips)]])
    rows = np.exp(-2j * np.pi * np.arange(n_chips) * (1.0 / n_chips + eta))
    rows.setflags(write=False)
    return rows


def decompose(s) -> SpectralCoeffs:
    """Project a sequence onto both bases.

    Returns the coefficient pair (alpha, beta) such that the sequence is
    (1/sqrt(N)) sum_m alpha_m w_m(0) = (1/sqrt(N)) sum_m beta_m w_m(1/(2N)).
    """
    entries = sequence_entries(s)
    n_chips = entries.shape[0]
    if n_chips < 2:
        raise ValueError("sequence length must be at least 2")
    alpha, beta = np.fft.fft(entries * _demodulation(n_chips), norm="ortho")
    return SpectralCoeffs(alpha=alpha, beta=beta)


def reconstruct(coeffs: SpectralCoeffs, basis: str = "alpha") -> np.ndarray:
    """Rebuild the chip vector from one coefficient set.

    ``basis`` selects which expansion to evaluate; for coefficients that
    satisfy beta = phi_hat @ alpha both choices agree to roundoff.
    """
    if basis == "alpha":
        c, row = coeffs.alpha, 0
    elif basis == "beta":
        c, row = coeffs.beta, 1
    else:
        raise ValueError("basis must be 'alpha' or 'beta'")
    n_chips = coeffs.n_chips
    return np.fft.ifft(c, norm="ortho") * np.conj(_demodulation(n_chips)[row])


@lru_cache(maxsize=None)
def _coupling_cached(n_chips: int) -> CouplingMatrices:
    m = np.arange(1, n_chips + 1)[:, None]
    n = np.arange(1, n_chips + 1)[None, :]
    half = 1.0 / (2 * n_chips)
    phi_hat = (2.0 / n_chips) / (1.0 - np.exp(2j * np.pi * ((n - m) / n_chips - half)))
    phi = phi_hat.conj().T
    # Unitarity is relied on everywhere downstream (norm preservation,
    # constraint elimination in the solver), so a failure here is a hard stop.
    eye = np.eye(n_chips)
    for name, mat in (("phi", phi), ("phi_hat", phi_hat)):
        err = np.max(np.abs(mat.conj().T @ mat - eye))
        if err > UNITARITY_TOL:
            raise ArithmeticError(
                f"{name} failed the unitarity check at N={n_chips}: max deviation {err:.3e}"
            )
    phi.setflags(write=False)
    phi_hat.setflags(write=False)
    return CouplingMatrices(phi=phi, phi_hat=phi_hat)


def coupling_matrices(n_chips: int) -> CouplingMatrices:
    """Closed-form unitary matrices with phi = inverse(phi_hat) = phi_hat^H.

    Raises ArithmeticError if the constructed matrices are not unitary to
    within UNITARITY_TOL (this would invalidate the spectral machinery and is
    never patched silently).
    """
    if n_chips < 2:
        raise ValueError("n_chips must be at least 2")
    return _coupling_cached(n_chips)


def coeffs_from_alpha(alpha: np.ndarray) -> SpectralCoeffs:
    """Complete an alpha vector into a full coefficient pair via phi_hat."""
    alpha = np.asarray(alpha, dtype=complex)
    phi_hat = coupling_matrices(alpha.shape[0]).phi_hat
    return SpectralCoeffs(alpha=alpha, beta=phi_hat @ alpha)
