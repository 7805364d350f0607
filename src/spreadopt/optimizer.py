"""Two-user interference minimization over real-stacked coefficient vectors.

The design problem: choose power-feasible coefficient vectors for two users
minimizing the total interference weight sum_m S_m, which fixes the two-user
SNR as (sum_m S_m / (6 N^2))^(-1/2) in the noiseless case.  Complex
coefficients are stacked into real vectors a' = (Re a; Im a) in R^{2N}, under
which the unitary coupling becomes the orthogonal block matrix

    phi_hat' = [[Re phi_hat, -Im phi_hat], [Im phi_hat, Re phi_hat]].

Because phi_hat' is orthogonal, beta' = phi_hat' a' automatically satisfies
||beta'||^2 = ||a'||^2, so beta is eliminated by substitution and the
decision variables reduce to the two alpha' vectors with one norm constraint
each:

    minimize f(a1, a2) = sum_m S_m(a1, a2)   s.t.  ||a_k||^2 = N,  k = 1, 2.

Value, gradient and Hessian all read f's per-frequency terms from ``_terms``:
b_k = phi_hat' a_k and the (2, 2, N) stack P whose row k is user k's
(|a_k|^2, |b_k|^2), the layout of ``interference._powers``.  So f is the sum
of ``interference._s_m(P[0], P[1])``, and user k's per-frequency slopes are
2 w P[1-k], with w the (2, N) S_m weights.  The solver's iterate z is a
(2, 2N) array whose row k is user k's stacked alpha; only the Newton model
flattens it, to z.ravel().

The local solver uses the problem's structure (block-coordinate and
Riemannian Newton methods on spheres; Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008).  With one user fixed, f
is a positive semidefinite Hermitian form in the other, so stage 1
alternates exact block minimizers: sqrt(N) times a bottom eigenvector.  When
a sweep stops shrinking the KKT residual, stage 2 polishes with Newton steps
on the product of the two spheres, using the exact Hessian of the quartic f
inside a trust region.  Each iterate's gradient is computed once and its
Newton model built once: a rejected step keeps the iterate and its model.  A
run counts as converged only if, measured after a sweep or step, the KKT
residual and the constraint violation fall below the configured tolerances;
anything else is reported as non-converged along with the last iterate.
The multi-restart driver draws an independent feasible starting point per
restart (streams derived from the master seed), keeps each restart's report
and returns the best-SNR converged one.

Each restart runs with numpy's bundled OpenBLAS pinned to one thread (the
previous count is restored afterwards).  Multi-threaded OpenBLAS rounds the
2N- and 4N-wide products and decompositions differently from one thread (at
N = 62, for example), and on small hosts its threads can stall; pinned, the
iterates and every output byte are the same whatever the host's core count
or OPENBLAS_NUM_THREADS.  No matrix-matrix product is wider than 2N and no
eigen-decomposition wider than 4N.

A report describes the chip sequences it emits.  They are reconstructed from
the final alpha and decomposed once, and the objective, SNR, e1 and e2 all
come from that decomposition.  So e2 measures the coupling of the emitted
chips, which decompose never takes from phi_hat (the two DFTs' roundoff,
about 1e-15), and re-scoring the sequences with ``interference.snr``
reproduces the reported objective and SNR bit for bit.
"""

import contextlib
import ctypes
import glob
import math
import operator
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .interference import CdmaConfig, _powers, _s_m, _user_snr, _weights
from .sequences import ChipSequence, random_feasible_point
from .spectral import SpectralCoeffs, coeffs_from_alpha, coupling_matrices, decompose, reconstruct

__all__ = [
    "RealCouplingMatrices",
    "SolverConfig",
    "SolveReport",
    "realify",
    "complexify",
    "real_coupling_matrices",
    "objective",
    "objective_gradient",
    "feasibility_errors",
    "restart_seed",
    "solve_local",
    "solve_multistart",
]


def realify(x) -> np.ndarray:
    """Stack a complex vector as (Re; Im); preserves the Euclidean norm."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError("realify expects a 1-D vector")
    return np.concatenate([x.real, x.imag])


def complexify(v) -> np.ndarray:
    """Inverse of realify."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] % 2 != 0:
        raise ValueError("complexify expects a 1-D vector of even length")
    n = v.shape[0] // 2
    return v[:n] + 1j * v[n:]


@dataclass(frozen=True)
class RealCouplingMatrices:
    """Orthogonal realifications of the coupling pair."""

    phi_r: np.ndarray
    phi_hat_r: np.ndarray


@lru_cache(maxsize=None)
def _real_coupling_cached(n_chips: int) -> RealCouplingMatrices:
    # phi = phi_hat^H, so its realification is the transpose of phi_hat's
    phi_hat = coupling_matrices(n_chips).phi_hat
    phi_hat_r = np.block([[phi_hat.real, -phi_hat.imag], [phi_hat.imag, phi_hat.real]])
    phi_hat_r.setflags(write=False)
    return RealCouplingMatrices(phi_r=phi_hat_r.T, phi_hat_r=phi_hat_r)


def real_coupling_matrices(n_chips: int) -> RealCouplingMatrices:
    """Orthogonal matrices satisfying phi_r' @ realify(x) = realify(phi @ x)."""
    return _real_coupling_cached(n_chips)


def _twice(v: np.ndarray) -> np.ndarray:
    """A per-frequency vector repeated over the (Re; Im) stacking."""
    return np.concatenate([v, v])


def _terms(a1: np.ndarray, a2: np.ndarray, n: int):
    """phi_hat', the rows b_k = phi_hat' a_k and the _powers stack of (a_k, b_k)."""
    phi_hat_r = real_coupling_matrices(n).phi_hat_r
    b = np.array([phi_hat_r @ a1, phi_hat_r @ a2])
    squares = np.square([[a1, b[0]], [a2, b[1]]])
    return phi_hat_r, b, squares[..., :n] + squares[..., n:]


def _check_stacked(a1, a2, n_chips):
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if a1.shape != (2 * n_chips,) or a2.shape != (2 * n_chips,):
        raise ValueError(f"stacked vectors must have length {2 * n_chips}")
    return a1, a2


def objective(a1, a2, n_chips: int) -> float:
    """sum_m S_m for two users given their real-stacked alpha vectors.

    beta' is eliminated via phi_hat'; the value is >= 0 and symmetric under
    swapping the users, and equals the complex-form sum of s_m_terms.
    """
    a1, a2 = _check_stacked(a1, a2, n_chips)
    powers = _terms(a1, a2, n_chips)[2]
    return float(np.sum(_s_m(powers[0], powers[1])))


def objective_gradient(a1, a2, n_chips: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of ``objective`` with respect to (a1, a2).

    With user k's per-frequency slopes (s_alpha, s_beta) = 2 w P[1-k] from
    the stack P of ``_terms``, the beta contribution chains through the
    orthogonal coupling: grad_a_k = s_alpha|a_k + phi_hat'^T [s_beta|b_k],
    with each slope repeated over both stacked halves.
    """
    a1, a2 = _check_stacked(a1, a2, n_chips)
    phi_hat_r, b, powers = _terms(a1, a2, n_chips)
    slopes = (2.0 * _weights(n_chips)) * powers[::-1]
    g1, g2 = (_twice(s_alpha) * a + phi_hat_r.T @ (_twice(s_beta) * b_k)
              for a, b_k, (s_alpha, s_beta) in zip((a1, a2), b, slopes))
    return g1, g2


def feasibility_errors(solution: Sequence[SpectralCoeffs]) -> tuple[float, float]:
    """The two feasibility error metrics of a candidate solution.

    e1 is the worst norm-constraint violation max_k max(|N - ||alpha'||^2|,
    |N - ||beta'||^2|); e2 the worst coupling violation
    max_k ||beta' - phi_hat' alpha'||_inf.  Both are evaluated in the real
    stacking, matching how the solver stores its iterates.
    """
    if len(solution) < 1:
        raise ValueError("need at least one user")
    n = solution[0].n_chips
    phi_hat_r = real_coupling_matrices(n).phi_hat_r
    e1 = 0.0
    e2 = 0.0
    for coeffs in solution:
        a = realify(coeffs.alpha)
        b = realify(coeffs.beta)
        e1 = max(e1, abs(n - float(a @ a)), abs(n - float(b @ b)))
        e2 = max(e2, float(np.max(np.abs(b - phi_hat_r @ a))))
    return e1, e2


@dataclass(frozen=True)
class SolverConfig:
    """Multi-restart solver settings.

    ``max_iterations`` caps the sweeps plus Newton steps of one restart; at
    N = 31 a restart typically converges in 5 to 15.  The KKT and constraint
    tolerances decide convergence, measured after every sweep or step.
    ``restarts``, ``max_iterations`` and ``seed`` are integers, numpy integers
    included; a float raises TypeError.
    """

    restarts: int = 1
    max_iterations: int = 5000
    kkt_tolerance: float = 1e-9
    constraint_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for value in (self.restarts, self.max_iterations, self.seed):
            operator.index(value)
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.kkt_tolerance <= 0 or self.constraint_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.kkt_tolerance) and math.isfinite(self.constraint_tolerance)):
            raise ValueError("tolerances must be finite")


@dataclass
class SolveReport:
    """Outcome of a local solve or a multi-restart run.

    ``best_sequences`` are the emitted chip sequences; ``objective``,
    ``snr``, ``e1`` and ``e2`` are measured on their decomposition, whose
    coefficients ``[decompose(s) for s in best_sequences]`` gives.  ``seed``
    is the seed of the starting point when solve_multistart drew it.
    solve_multistart returns a copy of the best restart's report whose
    ``restarts`` holds every restart's own report in restart order; the
    ``restart_*`` properties read one entry per record, or the report itself
    as its single restart when ``restarts`` is empty (a local solve).
    """

    n_chips: int
    best_sequences: list[ChipSequence]
    objective: float
    snr: float
    e1: float
    e2: float
    iterations: int
    status: str
    kkt_residual: float
    objective_trace: list[float] = field(default_factory=list)
    seed: int | None = None
    restarts: list["SolveReport"] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def restart_snrs(self) -> list[float]:
        return [r.snr for r in self.restarts or [self]]

    @property
    def restart_converged(self) -> list[bool]:
        return [r.converged for r in self.restarts or [self]]

    @property
    def restart_errors(self) -> list[tuple[float, float]]:
        return [(r.e1, r.e2) for r in self.restarts or [self]]


def _project_spheres(z: np.ndarray, n_chips: int) -> np.ndarray:
    return np.array([a * (math.sqrt(n_chips) / np.linalg.norm(a)) for a in z])


def _kkt_residual_reduced(z: np.ndarray, grads) -> float:
    """Max-abs Lagrangian gradient at z from its gradient, with least-squares multipliers."""
    residuals = [np.max(np.abs(g - float(g @ a) / float(a @ a) * a)) for a, g in zip(z, grads)]
    return float(max(residuals))


def _report_from_stacked(z, n_chips, iterations, status, kkt, trace):
    seqs = [ChipSequence(reconstruct(coeffs_from_alpha(complexify(a))),
                         label=f"optimized(N={n_chips},user={k + 1})") for k, a in enumerate(z)]
    # the emitted sequences are decomposed once and scored as interference.snr
    # scores them, so re-evaluating them reproduces the reported SNR bit for bit
    # even when the objective sits at the roundoff floor; e1 and e2 measure the
    # same decomposition, and the solver-path values remain in objective_trace
    coeffs = [decompose(s) for s in seqs]
    scored = _user_snr(CdmaConfig(n_chips=n_chips, n_users=2), _powers(coeffs), 1)
    e1, e2 = feasibility_errors(coeffs)
    return SolveReport(
        n_chips=n_chips,
        best_sequences=seqs,
        objective=scored.s_m_sum,
        snr=scored.snr,
        e1=e1,
        e2=e2,
        iterations=iterations,
        status=status,
        kkt_residual=kkt,
        objective_trace=trace,
    )


def _block_minimizer(other: np.ndarray, n_chips: int) -> np.ndarray:
    """The exact minimizer over ||x||^2 = N of the objective with the other user fixed.

    With ``other``'s complex alpha fixed, the objective is the Hermitian
    positive semidefinite form x^H H x in the free user's alpha x, with
    H = diag(w_alpha |a|^2) + phi_hat^H diag(w_beta |phi_hat a|^2) phi_hat,
    so the minimizer is sqrt(N) times its bottom eigenvector.  The global
    phase is fixed by making the largest-magnitude entry real and positive.
    """
    coupling = coupling_matrices(n_chips)
    w_alpha, w_beta = _weights(n_chips)
    beta = coupling.phi_hat @ other
    h = (coupling.phi * (w_beta * np.abs(beta) ** 2)) @ coupling.phi_hat
    h[np.diag_indices(n_chips)] += w_alpha * np.abs(other) ** 2
    vec = np.linalg.eigh(h)[1][:, 0]
    top = vec[np.argmax(np.abs(vec))]
    return vec * (math.sqrt(n_chips) * np.conj(top) / abs(top))


def _euclidean_hessian(z: np.ndarray, n_chips: int) -> np.ndarray:
    """Exact Hessian of ``objective`` at the iterate z = [a1, a2], by user.

    The per-frequency terms come from ``_terms``, as in the value and the
    gradient.  Entry [k, i, l, j] is d2f / dz[k, i] dz[l, j], so the 4N x 4N
    reshape is indexed like z.ravel(); no 4N x 4N matrix product is formed.
    ``pair`` spreads a per-frequency outer product over the (Re; Im) stacking:
    entries (i, j) with i = j mod N.
    """
    a1, a2 = z
    w = _weights(n_chips)
    phi_hat_r, b, powers = _terms(a1, a2, n_chips)
    pair = np.tile(np.eye(n_chips), (2, 2))
    cross = 4.0 * np.outer(_twice(w[0]) * a1, a2) * pair + phi_hat_r.T @ (
        (4.0 * np.outer(_twice(w[1]) * b[0], b[1]) * pair) @ phi_hat_r
    )
    hess = np.empty((2, 2 * n_chips, 2, 2 * n_chips))
    for k, (s_alpha, s_beta) in enumerate((2.0 * w) * powers[::-1]):
        hess[k, :, k] = (phi_hat_r.T * _twice(s_beta)) @ phi_hat_r
        hess[k, :, k][np.diag_indices(2 * n_chips)] += _twice(s_alpha)
    hess[0, :, 1] = cross
    hess[1, :, 0] = cross.T
    return hess


# eigenvalues of the projected Hessian below this fraction of its largest
# magnitude are treated as zero: the sphere normals and the per-user phase
# rotations span its null space
_HESSIAN_RCOND = 1e-10


def _newton_model(z: np.ndarray, grads, n_chips: int):
    """Eigen-decomposed second-order model of the objective on the two spheres.

    The Riemannian Hessian is the Euclidean one shifted by each user's
    Lagrange multiplier (2 lambda_k = g_k . a_k / ||a_k||^2, with g the
    gradient ``grads`` at z) and projected onto the tangent space.  Returns
    the nonzero eigenvalues, their eigenvectors (indexed like z.ravel()) and
    the Riemannian gradient's coordinates in that eigenbasis.  It is built
    once per iterate: a rejected step keeps z and so keeps its model.
    """
    hess = _euclidean_hessian(z, n_chips)
    projectors = []
    for k, (a, g) in enumerate(zip(z, grads)):
        hess[k, :, k][np.diag_indices(2 * n_chips)] -= float(g @ a) / float(a @ a)
        u = a / np.linalg.norm(a)
        projectors.append(np.eye(2 * n_chips) - np.outer(u, u))
    tangent_grad = np.concatenate([proj @ g for proj, g in zip(projectors, grads)])
    for k, proj_k in enumerate(projectors):
        for l, proj_l in enumerate(projectors):
            hess[k, :, l] = proj_k @ hess[k, :, l] @ proj_l
    vals, vecs = np.linalg.eigh(hess.reshape(4 * n_chips, 4 * n_chips))
    keep = np.abs(vals) > _HESSIAN_RCOND * np.max(np.abs(vals))
    vecs = vecs[:, keep]
    return vals[keep], vecs, vecs.T @ tangent_grad


def _trust_region_step(vals: np.ndarray, grad: np.ndarray, radius: float) -> np.ndarray:
    """Minimizer of grad . s + sum_i vals_i s_i^2 / 2 over ||s|| <= radius.

    Inside the radius with positive curvature this is the least-squares
    Newton step; otherwise s = -grad / (vals + mu) with mu found by bisection
    so that ||s|| lies in [0.9, 1] radius.  ``vals`` ascend.  In the hard case
    (Nocedal & Wright 4.3: vals[0] < 0, grad is 0 on its eigenspace and
    s(-vals[0]) is inside the radius) s(-vals[0]) gets s[0] to reach the radius.
    """
    step = -grad / vals
    if vals[0] > 0.0 and np.linalg.norm(step) <= radius:
        return step
    lo = max(0.0, -float(vals[0]))
    lowest = vals == vals[0]
    if lo > 0.0 and not np.any(grad[lowest]):
        step = -grad / np.where(lowest, np.inf, vals + lo)  # 0 on the lowest eigenspace
        length = float(np.linalg.norm(step))
        if length <= radius:
            step[0] = math.sqrt(radius**2 - length**2)
            return step
    hi = lo + float(np.linalg.norm(grad)) / radius
    step = -grad / (vals + hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        trial = -grad / (vals + mid)
        length = np.linalg.norm(trial)
        if length > radius:
            lo = mid
        else:
            hi, step = mid, trial
            if length >= 0.9 * radius:
                break
    return step


def _polish_step(z: np.ndarray, value: float, radius: float, model, n_chips: int):
    """One trust-region Newton step from z, whose objective is ``value`` and model ``model``.

    Returns the next iterate, its objective, the updated radius and the next
    iterate's model: z itself and ``model`` when the step is rejected, None
    when z moved.  The radius rules and the acceptance threshold are those of
    Nocedal & Wright, Algorithm 4.1.
    """
    vals, vecs, grad = model
    step = _trust_region_step(vals, grad, radius)
    predicted = -float(grad @ step + 0.5 * (vals * step) @ step)
    trial = _project_spheres(z + (vecs @ step).reshape(z.shape), n_chips)
    trial_value = objective(trial[0], trial[1], n_chips)
    # near convergence both reductions fall to roundoff; the shift keeps their
    # ratio meaningful (the regularization of Manopt's trustregions solver)
    shift = 1e3 * np.finfo(float).eps * max(1.0, abs(value))
    ratio = (value - trial_value + shift) / (predicted + shift)
    length = float(np.linalg.norm(step))
    if ratio < 0.25:
        radius = 0.25 * length
    elif ratio > 0.75 and length >= 0.9 * radius:
        radius = min(2.0 * radius, math.sqrt(n_chips))
    if ratio > 0.1:
        return trial, trial_value, radius, None
    return z, value, radius, model


# a sweep that shrinks the KKT residual by less than this factor ends stage 1
_PLATEAU_RATIO = 0.9

_INITIAL_FEASIBILITY_TOL = 1e-10


def solve_local(
    initial: Sequence[SpectralCoeffs],
    cfg: SolverConfig,
) -> SolveReport:
    """One local solve from a feasible two-user starting point.

    The starting point must satisfy e1, e2 <= 1e-10.  The solve runs exact
    alternating block minimization, then a trust-region Newton polish.
    Stage 1 replaces each user in turn by its exact block minimizer.  Once a
    sweep stops shrinking the KKT residual, stage 2 takes Riemannian Newton
    steps on the product of spheres, safeguarded by a trust region on the
    objective and retracted by _project_spheres.  Convergence is measured
    after every sweep or step: the returned report is marked converged only
    when the measured KKT residual and constraint violation meet cfg's
    tolerances; otherwise the last iterate is returned with an explicit
    non-converged status.
    """
    if len(initial) != 2:
        raise ValueError("the solver targets exactly two users")
    n_chips = initial[0].n_chips
    if initial[1].n_chips != n_chips:
        raise ValueError("both users must share n_chips")
    e1, e2 = feasibility_errors(initial)
    if e1 > _INITIAL_FEASIBILITY_TOL or e2 > _INITIAL_FEASIBILITY_TOL:
        raise ValueError(
            f"initial point is infeasible (e1={e1:.2e}, e2={e2:.2e}); "
            "start from random_feasible_point or an equivalent"
        )
    z = np.array([realify(coeffs.alpha) for coeffs in initial])
    a2 = initial[1].alpha
    value = objective(z[0], z[1], n_chips)
    trace = [value]
    previous_kkt = math.inf
    radius = 0.1 * math.sqrt(n_chips)
    polishing = False
    model = None
    status = f"iteration limit ({cfg.max_iterations}) without convergence"
    for iterations in range(1, cfg.max_iterations + 1):
        if polishing:
            model = model or _newton_model(z, grads, n_chips)
            z, value, radius, model = _polish_step(z, value, radius, model, n_chips)
        else:
            a1 = _block_minimizer(a2, n_chips)
            a2 = _block_minimizer(a1, n_chips)
            z = np.array([realify(a1), realify(a2)])
            value = objective(z[0], z[1], n_chips)
        trace.append(value)
        grads = objective_gradient(z[0], z[1], n_chips)
        kkt = _kkt_residual_reduced(z, grads)
        violation = max(abs(float(a @ a) - n_chips) for a in z)
        if kkt <= cfg.kkt_tolerance and violation <= cfg.constraint_tolerance:
            status = "converged"
            break
        if polishing and radius < 1e-15 * math.sqrt(n_chips):
            status = f"stopped without reaching tolerances: trust region collapsed (kkt={kkt:.2e})"
            break
        polishing = polishing or kkt > _PLATEAU_RATIO * previous_kkt
        previous_kkt = kkt
    return _report_from_stacked(z, n_chips, iterations, status, kkt, trace)


def restart_seed(master_seed: int, restart_index: int) -> int:
    """Seed of the feasible starting point used by restart ``restart_index``.

    ``master_seed`` is any integer, numpy integers included; a float raises
    TypeError.  Restart t of a multi-restart run (``report.restarts[t-1]``,
    whose ``seed`` this is) is reproduced by
    solve_local(random_feasible_point(n, 2, restart_seed(seed, t)), cfg).
    """
    seq = np.random.SeedSequence((operator.index(master_seed) % 2**64, restart_index))
    return int(seq.generate_state(1, np.uint64)[0])


@lru_cache(maxsize=None)
def _openblas():
    """Thread-count getter and setter of numpy's bundled scipy-openblas, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count.

    A no-op where numpy does not bundle scipy-openblas.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _run_restart(args) -> SolveReport:
    n_chips, cfg, index = args
    seed = restart_seed(cfg.seed, index)
    start = random_feasible_point(n_chips, 2, seed)
    with _one_blas_thread():
        return replace(solve_local(start, cfg), seed=seed)


def solve_multistart(n_chips: int, cfg: SolverConfig, threads: int = 1) -> SolveReport:
    """Best converged result over cfg.restarts independent local solves.

    Restart t draws its start from a stream derived from (cfg.seed, t), so
    the outcome does not depend on ``threads``.  Ties in SNR keep the lowest
    restart index.  The result is a copy of the best restart's report whose
    ``restarts`` lists every restart's report, unmodified, in restart order.
    If no restart converges the copy of the best iterate's report carries a
    status saying so, and so is not converged.
    """
    jobs = [(n_chips, cfg, t) for t in range(1, cfg.restarts + 1)]
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            reports = list(pool.map(_run_restart, jobs, chunksize=1))
    else:
        reports = [_run_restart(job) for job in jobs]

    eligible = [r for r in reports if r.converged]
    # max keeps the first of equal keys: ties go to the lowest restart index
    best = max(eligible or reports, key=lambda r: r.snr)
    status = best.status if eligible else f"no restart converged in {cfg.restarts} attempts"
    return replace(best, status=status, restarts=reports)
