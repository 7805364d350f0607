import numpy as np
import pytest

from spreadopt import optimizer
from spreadopt.interference import s_m_terms
from spreadopt.optimizer import (
    SolverConfig,
    _block_minimizer,
    _openblas,
    _euclidean_hessian,
    _kkt_residual_reduced,
    complexify,
    feasibility_errors,
    objective,
    objective_gradient,
    real_coupling_matrices,
    realify,
    restart_seed,
    solve_local,
    solve_multistart,
)
from spreadopt.sequences import random_feasible_point
from spreadopt.spectral import SpectralCoeffs, coeffs_from_alpha, coupling_matrices, decompose


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def finite_difference_gradient(a1, a2, n, h=1e-5):
    g = np.zeros_like(a1)
    for i in range(len(a1)):
        up, down = a1.copy(), a1.copy()
        up[i] += h
        down[i] -= h
        g[i] = (objective(up, a2, n) - objective(down, a2, n)) / (2 * h)
    return g


class TestRealify:
    def test_stacking_definition(self):
        out = realify(np.array([1 + 2j, 3 + 0j]))
        assert np.array_equal(out, [1.0, 3.0, 2.0, 0.0])

    def test_round_trip_and_norm(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = realify(x)
        assert np.array_equal(complexify(v), x)
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(x), rel=1e-15)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            complexify(np.ones(5))
        with pytest.raises(ValueError, match="1-D"):
            realify(np.ones((2, 3)))


class TestRealCoupling:
    @pytest.mark.parametrize("n", [2, 5, 16, 31])
    def test_orthogonality(self, n):
        mats = real_coupling_matrices(n)
        eye = np.eye(2 * n)
        assert np.max(np.abs(mats.phi_r.T @ mats.phi_r - eye)) < 1e-10
        assert np.max(np.abs(mats.phi_hat_r.T @ mats.phi_hat_r - eye)) < 1e-10
        assert np.array_equal(mats.phi_r, mats.phi_hat_r.T)

    def test_commutes_with_realify(self):
        rng = np.random.default_rng(1)
        n = 12
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mats = real_coupling_matrices(n)
        pair = coupling_matrices(n)
        assert np.max(np.abs(mats.phi_r @ realify(x) - realify(pair.phi @ x))) < 1e-12
        assert np.max(np.abs(mats.phi_hat_r @ realify(x) - realify(pair.phi_hat @ x))) < 1e-12


class TestObjective:
    def test_user_swap_symmetry_exact(self):
        rng = np.random.default_rng(2)
        n = 8
        a1 = rng.standard_normal(2 * n)
        a2 = rng.standard_normal(2 * n)
        assert objective(a1, a2, n) == objective(a2, a1, n)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_complex_form(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            s1 = random_unit_modulus(n, rng)
            s2 = random_unit_modulus(n, rng)
            c1, c2 = decompose(s1), decompose(s2)
            value = objective(realify(c1.alpha), realify(c2.alpha), n)
            reference = float(np.sum(s_m_terms(c1, c2)))
            assert value == pytest.approx(reference, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        n = 8
        for _ in range(20):
            assert objective(rng.standard_normal(2 * n), rng.standard_normal(2 * n), n) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective(np.ones(8), np.ones(6), 4)


class TestObjectiveGradient:
    def test_zero_at_origin(self):
        n = 8
        g1, g2 = objective_gradient(np.zeros(2 * n), np.zeros(2 * n), n)
        assert np.array_equal(g1, np.zeros(2 * n))
        assert np.array_equal(g2, np.zeros(2 * n))

    @pytest.mark.parametrize("n", [4, 8, 16, 31])
    def test_matches_central_differences(self, n):
        # per-coordinate 1e-6 relative agreement; coordinates much smaller
        # than the gradient scale are held to the same tolerance against that
        # scale, below which central differences are truncation-limited
        rng = np.random.default_rng(n)
        for _ in range(5):
            a1 = rng.standard_normal(2 * n)
            a2 = rng.standard_normal(2 * n)
            g1, g2 = objective_gradient(a1, a2, n)
            fd1 = finite_difference_gradient(a1, a2, n)
            floor = 1e-3 * np.max(np.abs(fd1))
            rel = np.abs(g1 - fd1) / np.maximum(np.abs(fd1), floor)
            assert np.max(rel) < 1e-6
            # cross-check the second slot through the swap symmetry
            fd2 = finite_difference_gradient(a2, a1, n)
            rel2 = np.abs(g2 - fd2) / np.maximum(np.abs(fd2), floor)
            assert np.max(rel2) < 1e-6

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(5)
        n = 8
        a1 = rng.standard_normal(2 * n)
        a2 = rng.standard_normal(2 * n)
        g1, _ = objective_gradient(a1, a2, n)
        _, g2_swapped = objective_gradient(a2, a1, n)
        assert np.array_equal(g1, g2_swapped)


class TestFeasibilityErrors:
    def test_fresh_point_is_feasible(self):
        point = random_feasible_point(16, 2, 123)
        e1, e2 = feasibility_errors(point)
        assert e1 <= 1e-12
        assert e2 <= 1e-12

    def test_scaling_alpha_moves_e1(self):
        n = 8
        c = 1.1
        point = random_feasible_point(n, 1, 7)[0]
        scaled = SpectralCoeffs(alpha=c * point.alpha, beta=c * point.beta)
        e1, e2 = feasibility_errors([scaled])
        assert e1 == pytest.approx(n * abs(1 - c**2), rel=1e-9)
        assert e2 <= 1e-12 * c

    def test_broken_coupling_moves_e2(self):
        point = random_feasible_point(8, 1, 9)[0]
        broken = SpectralCoeffs(alpha=point.alpha, beta=point.beta + 0.01)
        _, e2 = feasibility_errors([broken])
        assert e2 == pytest.approx(0.01, rel=1e-6)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one user"):
            feasibility_errors([])


class TestSolveLocal:
    def test_converges_at_n8(self):
        cfg = SolverConfig(seed=0)
        start = random_feasible_point(8, 2, 5)
        report = solve_local(start, cfg)
        assert report.converged
        assert report.status == "converged"
        assert report.kkt_residual <= cfg.kkt_tolerance
        assert report.e1 <= 1e-8
        assert report.e2 == 0.0
        # entry objective recorded as first trace element
        assert report.objective <= report.objective_trace[0]
        assert report.snr == pytest.approx(
            (report.objective / (6 * 8**2)) ** -0.5, rel=1e-10
        )

    def test_restart_from_solution_is_fixed_point(self):
        cfg = SolverConfig(seed=0)
        report = solve_local(random_feasible_point(8, 2, 6), cfg)
        assert report.converged
        again = solve_local(report.best_coeffs, cfg)
        assert again.converged
        # no meaningful descent remains
        assert again.objective <= report.objective * (1 + 1e-6)
        assert again.iterations <= 20

    def test_sequences_reevaluate_to_reported_snr(self):
        from spreadopt.interference import CdmaConfig, snr

        cfg = SolverConfig(seed=1)
        report = solve_local(random_feasible_point(8, 2, 42), cfg)
        assert report.converged
        system = CdmaConfig(n_chips=8, n_users=2)
        evaluated = snr(system, report.best_sequences, 1)
        assert evaluated.snr == report.snr
        assert evaluated.s_m_sum == report.objective

    def test_iteration_limit_reported_not_silent(self):
        cfg = SolverConfig(max_iterations=3, seed=0)
        report = solve_local(random_feasible_point(16, 2, 3), cfg)
        assert not report.converged
        assert "3" in report.status or "tolerances" in report.status
        assert realify(report.best_coeffs[0].alpha).shape == (32,)

    def test_trust_region_collapse_reported(self, monkeypatch):
        # a rejected step that shrinks the radius to 0 ends the polish
        monkeypatch.setattr(optimizer, "_polish_step",
                            lambda z, value, radius, model, n: (z, value, 0.0, model))
        report = solve_local(random_feasible_point(8, 2, restart_seed(99, 2)), SolverConfig())
        assert report.status.startswith(
            "stopped without reaching tolerances: trust region collapsed (kkt=")
        assert not report.converged
        assert report.kkt_residual > 1e-9

    def test_newton_model_built_once_per_iterate(self, monkeypatch):
        # a rejected step keeps the iterate, and the polish reuses its model
        built, rejected = [], []
        newton_model, polish_step = optimizer._newton_model, optimizer._polish_step

        def recording_model(z, *args):
            built.append(z.tobytes())
            return newton_model(z, *args)

        def counting_step(z, *args):
            out = polish_step(z, *args)
            rejected.append(out[0] is z)
            return out

        monkeypatch.setattr(optimizer, "_newton_model", recording_model)
        monkeypatch.setattr(optimizer, "_polish_step", counting_step)
        report = solve_local(random_feasible_point(8, 2, restart_seed(99, 4)), SolverConfig())
        assert report.converged
        assert any(rejected)
        assert len(set(built)) == len(built) <= len(rejected) - sum(rejected) + 1

    def test_report_is_its_own_single_restart(self):
        report = solve_local(random_feasible_point(8, 2, 5), SolverConfig())
        assert report.seed is None and report.restarts == []
        assert report.restart_snrs == [report.snr]
        assert report.restart_converged == [True]
        assert report.restart_errors == [(report.e1, report.e2)]

    def test_infeasible_start_rejected(self):
        point = random_feasible_point(8, 2, 1)
        bad = [
            SpectralCoeffs(alpha=1.5 * point[0].alpha, beta=1.5 * point[0].beta),
            point[1],
        ]
        with pytest.raises(ValueError):
            solve_local(bad, SolverConfig())

    def test_needs_two_users(self):
        with pytest.raises(ValueError):
            solve_local(random_feasible_point(8, 3, 1), SolverConfig())
        mixed = [random_feasible_point(8, 1, 1)[0], random_feasible_point(6, 1, 1)[0]]
        with pytest.raises(ValueError, match="share n_chips"):
            solve_local(mixed, SolverConfig())

    def test_emitted_sequences_satisfy_coupling_literally(self):
        # the report's e2 is 0 by construction (beta = phi_hat' alpha); here the
        # coupling is measured on the chip sequences the solver emits, through
        # decompose, which projects onto both bases and never uses phi_hat
        report = solve_local(random_feasible_point(8, 2, 42), SolverConfig(seed=1))
        assert report.converged
        phi_hat = coupling_matrices(8).phi_hat
        for seq, coeffs in zip(report.best_sequences, report.best_coeffs):
            emitted = decompose(seq)
            assert np.max(np.abs(emitted.beta - phi_hat @ emitted.alpha)) <= 1e-12
            assert np.max(np.abs(emitted.beta - coeffs.beta)) <= 1e-12


class TestEuclideanHessian:
    @pytest.mark.parametrize("n", [4, 8, 31])
    def test_matches_central_differences_of_gradient(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(4 * n)
        h = 1e-6
        fd = np.empty((4 * n, 4 * n))
        for i in range(4 * n):
            up, down = z.copy(), z.copy()
            up[i] += h
            down[i] -= h
            g_up = np.concatenate(objective_gradient(up[:2 * n], up[2 * n:], n))
            g_down = np.concatenate(objective_gradient(down[:2 * n], down[2 * n:], n))
            fd[:, i] = (g_up - g_down) / (2 * h)
        hess = _euclidean_hessian(z.reshape(2, -1), n).reshape(4 * n, 4 * n)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(hess - hess.T)) <= 1e-14 * scale
        assert np.max(np.abs(hess - fd)) <= 1e-6 * scale


class TestBlockMinimization:
    @pytest.mark.parametrize("n", [8, 31])
    def test_block_step_is_exact_minimizer(self, n):
        rng = np.random.default_rng(100 + n)
        other = random_feasible_point(n, 1, 11)[0].alpha
        best = _block_minimizer(other, n)
        assert np.vdot(best, best).real == pytest.approx(n, rel=1e-14)
        top = best[np.argmax(np.abs(best))]
        assert top.real > 0.0 and abs(top.imag) <= 1e-15 * top.real
        value = objective(realify(best), realify(other), n)
        for _ in range(100):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x *= np.sqrt(n) / np.linalg.norm(x)
            assert objective(realify(x), realify(other), n) >= value

    @pytest.mark.parametrize("n", [16, 31])
    def test_objective_trace_does_not_increase(self, n):
        # each sweep is an exact block minimization and each accepted Newton
        # step decreases the objective, up to roundoff: a sweep by the
        # eigensolver's backward error, N eps ||H|| with ||H|| <= 3N, and a
        # Newton step by the ratio test's regularization, 1e3 eps max(1, f).
        # Both show only at the floor, where the objective sits near 1e-15
        eps = np.finfo(float).eps
        for t in range(1, 11):
            report = solve_local(random_feasible_point(n, 2, restart_seed(n, t)), SolverConfig())
            assert report.converged
            trace = report.objective_trace
            assert len(trace) == report.iterations + 1
            for a, b in zip(trace, trace[1:]):
                assert b <= a + (3 * n**2 + 1e3 * max(1.0, a)) * eps

    def test_sweeps_alone_plateau_and_the_polish_converges(self):
        # at N = 8 alternating sweeps crawl along a valley: the KKT residual
        # stalls near 6e-7 and creeps upwards for hundreds of sweeps
        n = 8
        a2 = random_feasible_point(n, 2, restart_seed(99, 2))[1].alpha
        history = []
        for _ in range(200):
            a1 = _block_minimizer(a2, n)
            a2 = _block_minimizer(a1, n)
            z = np.array([realify(a1), realify(a2)])
            history.append(_kkt_residual_reduced(z, objective_gradient(z[0], z[1], n)))
        assert min(history[20:]) > 1e-7
        plateau = [coeffs_from_alpha(a1), coeffs_from_alpha(a2)]
        report = solve_local(plateau, SolverConfig())
        assert report.converged
        assert report.kkt_residual <= 1e-9
        assert report.objective < report.objective_trace[0]

    def test_converged_start_returns_after_one_sweep(self):
        report = solve_local(random_feasible_point(8, 2, 4), SolverConfig())
        assert report.converged
        again = solve_local(report.best_coeffs, SolverConfig())
        assert again.converged
        assert again.iterations == 1


class TestSolveMultistart:
    def test_single_restart_equals_local_solve(self):
        cfg = SolverConfig(restarts=1, seed=9)
        multi = solve_multistart(8, cfg)
        local = solve_local(random_feasible_point(8, 2, restart_seed(9, 1)), cfg)
        assert multi.objective == local.objective
        assert multi.snr == local.snr
        assert np.array_equal(multi.best_coeffs[0].alpha, local.best_coeffs[0].alpha)

    def test_deterministic_and_thread_independent(self):
        cfg = SolverConfig(restarts=3, seed=17)
        a = solve_multistart(8, cfg, threads=1)
        b = solve_multistart(8, cfg, threads=1)
        c = solve_multistart(8, cfg, threads=2)
        for other in (b, c):
            assert a.restart_snrs == other.restart_snrs
            assert a.snr == other.snr
            assert np.array_equal(a.best_coeffs[0].alpha, other.best_coeffs[0].alpha)
            assert np.array_equal(a.best_coeffs[1].alpha, other.best_coeffs[1].alpha)

    def test_pool_is_no_wider_than_the_restarts(self, monkeypatch):
        # a fork pool starts all its workers at the first submit; this
        # stand-in records the width and maps serially, starting no process
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        cfg = SolverConfig(restarts=2, seed=17)
        serial = solve_multistart(8, cfg, threads=1)
        monkeypatch.setattr(optimizer, "ProcessPoolExecutor", SerialPool)
        pooled = solve_multistart(8, cfg, threads=8)
        assert widths == [2]
        assert pooled.restart_snrs == serial.restart_snrs
        assert pooled.status == serial.status and pooled.snr == serial.snr
        for a, b in zip(pooled.best_coeffs, serial.best_coeffs):
            assert np.array_equal(a.alpha, b.alpha)

    def test_restarts_pin_one_blas_thread_and_restore_the_count(self, monkeypatch):
        blas = _openblas()
        if blas is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        get, set_ = blas
        original = get()
        seen = []

        def recording_solve_local(initial, cfg):
            seen.append(get())
            return solve_local(initial, cfg)

        monkeypatch.setattr(optimizer, "solve_local", recording_solve_local)
        try:
            set_(2)
            found = get()
            solve_multistart(8, SolverConfig(restarts=2, seed=17), threads=1)
            assert get() == found
        finally:
            set_(original)
        assert seen == [1, 1]

    def test_restarts_run_where_no_openblas_is_found(self, monkeypatch):
        cfg = SolverConfig(restarts=1, seed=17)
        expected = solve_multistart(8, cfg)
        monkeypatch.setattr(optimizer, "_openblas", lambda: None)
        assert solve_multistart(8, cfg).objective == expected.objective

    def test_best_of_converged_selected(self):
        cfg = SolverConfig(restarts=4, seed=23)
        report = solve_multistart(8, cfg)
        assert len(report.restart_snrs) == 4
        assert len(report.restart_converged) == 4
        assert report.converged
        eligible = [
            s for s, ok in zip(report.restart_snrs, report.restart_converged) if ok
        ]
        assert report.snr == max(eligible)

    def test_all_failures_reported(self):
        cfg = SolverConfig(restarts=2, max_iterations=2, seed=5)
        report = solve_multistart(16, cfg)
        assert not report.converged
        assert "no restart converged" in report.status
        # each restart keeps its own status
        assert [r.status for r in report.restarts] == [
            "iteration limit (2) without convergence"] * 2
        assert report.restart_converged == [False, False]

    def test_one_record_per_restart(self):
        cfg = SolverConfig(restarts=3, seed=17)
        report = solve_multistart(8, cfg)
        assert [r.seed for r in report.restarts] == [restart_seed(17, t) for t in (1, 2, 3)]
        for r in report.restarts:
            local = solve_local(random_feasible_point(8, 2, r.seed), cfg)
            assert (r.objective, r.iterations, r.status, r.kkt_residual) == (
                local.objective, local.iterations, local.status, local.kkt_residual)
            assert r.restarts == []
        assert report.restart_snrs == [r.snr for r in report.restarts]
        assert report.restart_converged == [r.converged for r in report.restarts]
        assert report.restart_errors == [(r.e1, r.e2) for r in report.restarts]
        best = report.restarts[report.restart_snrs.index(report.snr)]
        assert report.seed == best.seed and report.iterations == best.iterations
        assert report.best_sequences is best.best_sequences

    @pytest.mark.parametrize("max_iterations", [5000, 2])
    def test_restart_reports_left_unmodified(self, monkeypatch, max_iterations):
        returned = []

        def recording_run_restart(args):
            report = run_restart(args)
            returned.append((report, dict(vars(report)), len(report.objective_trace)))
            return report

        run_restart = optimizer._run_restart
        monkeypatch.setattr(optimizer, "_run_restart", recording_run_restart)
        cfg = SolverConfig(restarts=3, max_iterations=max_iterations, seed=23)
        report = solve_multistart(8, cfg)
        assert report.restarts == [r for r, _, _ in returned]
        for r, fields, trace_length in returned:
            assert report is not r
            assert all(vars(r)[name] is value for name, value in fields.items())
            assert r.restarts == [] and len(r.objective_trace) == trace_length


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(restarts=0)
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerances"):
                SolverConfig(kkt_tolerance=bad)
            with pytest.raises(ValueError, match="tolerances"):
                SolverConfig(constraint_tolerance=bad)
        assert SolverConfig(kkt_tolerance=1e300).kkt_tolerance == 1e300
        for max_iterations in (0, -5):
            with pytest.raises(ValueError, match="max_iterations"):
                SolverConfig(max_iterations=max_iterations)
        assert SolverConfig(max_iterations=1).max_iterations == 1
        for seed in (1.5, 1.0):
            with pytest.raises(TypeError):
                SolverConfig(seed=seed)
        for field in ("restarts", "max_iterations"):
            for bad in (2.5, 2.0):
                with pytest.raises(TypeError):
                    SolverConfig(**{field: bad})

    def test_numpy_integer_sizes(self):
        cfg = SolverConfig(restarts=np.int64(2), max_iterations=np.int64(50), seed=np.int64(4))
        report = solve_multistart(8, cfg)
        expected = solve_multistart(8, SolverConfig(restarts=2, max_iterations=50, seed=4))
        assert [r.objective for r in report.restarts] == [r.objective for r in expected.restarts]
        assert report.status == expected.status


class TestRestartSeed:
    def test_float_seed_rejected(self):
        for seed in (1.9, 1.0):
            with pytest.raises(TypeError):
                restart_seed(seed, 1)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_seed(self, integer):
        assert restart_seed(integer(9), 2) == restart_seed(9, 2)
        assert restart_seed(integer(-3), 1) == restart_seed(-3, 1)
        cfg = SolverConfig(restarts=2, seed=integer(9))
        a = solve_multistart(8, cfg)
        b = solve_multistart(8, SolverConfig(restarts=2, seed=9))
        assert [r.seed for r in a.restarts] == [r.seed for r in b.restarts]
        assert a.snr == b.snr
        assert np.array_equal(a.best_coeffs[0].alpha, b.best_coeffs[0].alpha)
