"""spreadopt: design of DS-CDMA spreading sequences by SNR maximization.

The library models the interference seen at a correlation receiver in an
asynchronous DS-CDMA channel, re-expresses its variance in a differentiable
spectral form, and minimizes that form over power-feasible sequence pairs
with a multi-restart constrained solver.  Baseline families (Gold, FZC,
single tones), correlation-peak metrics with the Sarwate trade-off bound, and
a Monte Carlo oracle for the interference model round out the toolkit.
The package namespace is the union of the modules' ``__all__``.

Typical session:

    >>> import spreadopt as so
    >>> s1, s2 = so.gold_pair(degree=5)
    >>> cfg = so.CdmaConfig(n_chips=31, n_users=2)
    >>> so.snr(cfg, [s1, s2], 1).snr
    10.65...
    >>> report = so.solve_multistart(31, so.SolverConfig(restarts=20, seed=1))
    >>> report.snr > 126
    True
"""

from . import interference, metrics, optimizer, sequences, simulator, spectral
from .interference import *
from .metrics import *
from .optimizer import *
from .sequences import *
from .simulator import *
from .spectral import *

__version__ = "0.1.0"

# the package API is the union of the module APIs
__all__ = sorted(
    {name for module in (interference, metrics, optimizer, sequences, simulator, spectral)
     for name in module.__all__}
) + ["__version__"]
