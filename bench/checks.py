"""Reference values the benchmark checks the program's outputs against.

Correlation peaks are recomputed in the time domain with numpy (circular
and negacyclic correlations), independently of the program's spectral
route.  The SNR reference comes from the direct chip-interval integration
oracle ``interference_variance_direct``, a separate path from the closed form
that ``evaluate`` reports.
"""

import math
from functools import lru_cache

import numpy as np

REL_TOL = 1e-9


def rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b))


@lru_cache(maxsize=None)
def _shift_tables(n):
    lag = np.arange(n)[:, None]
    chip = np.arange(n)[None, :]
    idx = (chip + lag) % n
    sign = np.where(chip + lag >= n, -1.0, 1.0)
    return idx, sign


def time_domain_peaks(pair):
    """(theta_a, theta_c, theta_hat_a, theta_hat_c) of a two-sequence set.

    Row l of the correlation matrices is sum_n conj(s_u[n+l]) s_v[n] with
    periodic wrap (circular) or with entries wrapped past the end negated
    (negacyclic).  Autocorrelation peaks skip lag 0; cross peaks include it.
    """
    n = pair[0].shape[0]
    idx, sign = _shift_tables(n)
    shifted = [np.conj(s[idx]) for s in pair]
    circ_auto = max(float(np.max(np.abs((g @ s)[1:]))) for g, s in zip(shifted, pair))
    nega_auto = max(
        float(np.max(np.abs(((sign * g) @ s)[1:]))) for g, s in zip(shifted, pair)
    )
    circ_cross = float(np.max(np.abs(shifted[0] @ pair[1])))
    nega_cross = float(np.max(np.abs((sign * shifted[0]) @ pair[1])))
    return circ_auto, circ_cross, nega_auto, nega_cross


def direct_snr(pair, user):
    """Noiseless SNR of ``user`` (1-based) from the direct-integration oracle."""
    from spreadopt.interference import CdmaConfig, interference_variance_direct

    cfg = CdmaConfig(n_chips=pair[0].shape[0], n_users=len(pair))
    var_i = interference_variance_direct(cfg, list(pair), user)
    return var_i, math.sqrt((cfg.power * cfg.symbol_duration**2 / 2.0) / var_i)


def sarwate_lhs(theta_c, theta_a, n, k=2):
    return theta_c**2 / n + (n - 1) / (n * (k - 1)) * theta_a**2 / n
