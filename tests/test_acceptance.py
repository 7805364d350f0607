"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The 200-restart design run at N=31 (criteria 4-6) takes a few
seconds; the whole module runs in well under a minute.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from spreadopt.cli import main
from spreadopt.interference import (
    CdmaConfig,
    interference_variance_direct,
    interference_variance_spectral,
    snr,
)
from spreadopt.metrics import correlation_peaks, sarwate_check
from spreadopt.optimizer import (
    SolverConfig,
    objective,
    objective_gradient,
    real_coupling_matrices,
    solve_multistart,
)
from spreadopt.sequences import (
    fzc_sequence,
    gold_family,
    gold_pair,
    random_feasible_point,
    single_tone_sequence,
)
from spreadopt.simulator import estimate_snr
from spreadopt.spectral import coupling_matrices, decompose, reconstruct

N_DESIGN = 31
DESIGN_RESTARTS = 200
DESIGN_SEED = 20260810


@contextmanager
def criterion(number: int, summary: str, detail: list):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {summary}")
        raise
    extra = f" [{'; '.join(detail)}]" if detail else ""
    print(f"\nPASS criterion {number}: {summary}{extra}")


@pytest.fixture(scope="module")
def design_run():
    cfg = SolverConfig(restarts=DESIGN_RESTARTS, seed=DESIGN_SEED)
    return solve_multistart(N_DESIGN, cfg)


@pytest.fixture(scope="module")
def baseline_pairs():
    return {
        "gold": list(gold_pair(5)),
        "fzc": [fzc_sequence(31, 1), fzc_sequence(31, 2)],
        "tone": [single_tone_sequence(31, 1), single_tone_sequence(31, 2)],
    }


def test_criterion_1_oracle_equivalence():
    detail = []
    with criterion(1, "direct and spectral interference variances agree to 1e-9", detail):
        worst = 0.0
        for n in (4, 8, 16):
            cfg = CdmaConfig(n_chips=n, n_users=2)
            for trial in range(100):
                point = random_feasible_point(n, 2, seed=n * 1000 + trial)
                pair = [reconstruct(c, "alpha") for c in point]
                direct = interference_variance_direct(cfg, pair, 1)
                spectral = interference_variance_spectral(cfg, pair, 1)
                rel = abs(direct - spectral) / spectral
                worst = max(worst, rel)
                assert rel <= 1e-9
        detail.append(f"worst relative deviation {worst:.2e} over 300 pairs")


def test_criterion_2_monte_carlo_validation(baseline_pairs):
    detail = []
    with criterion(2, "simulated Var_I within 3 stderr of analytic for all baselines", detail):
        cfg = CdmaConfig(n_chips=31, n_users=2)
        for name, pair in baseline_pairs.items():
            out = estimate_snr(cfg, pair, 1, trials=100_000, seed=DESIGN_SEED)
            analytic = interference_variance_direct(cfg, pair, 1)
            if out.var_interference_stderr > 0:
                z = (out.var_interference_mean - analytic) / out.var_interference_stderr
            else:
                z = 0.0
                assert out.var_interference_mean == pytest.approx(analytic, abs=1e-15)
            detail.append(f"{name} z={z:+.2f}")
            assert abs(z) <= 3.0


def test_criterion_3_baseline_peaks(baseline_pairs):
    detail = []
    with criterion(3, "baseline peak values (9,9), (0,sqrt(31)), (31,0)", detail):
        gold = baseline_pairs["gold"]
        peaks = correlation_peaks([decompose(s) for s in gold])
        # the underlying quantity is integer valued: the exact brute-force
        # circular correlation in integer arithmetic attains exactly 9
        brute = 0.0
        for u in gold:
            e = np.round(u.entries.real).astype(np.int64)
            brute = max(brute, max(abs(int(np.sum(np.roll(e, -l) * e))) for l in range(1, 31)))
        e1 = np.round(gold[0].entries.real).astype(np.int64)
        e2 = np.round(gold[1].entries.real).astype(np.int64)
        cross = max(abs(int(np.sum(np.roll(e1, -l) * e2))) for l in range(31))
        assert brute == 9 and cross == 9
        assert peaks.theta_a == pytest.approx(9.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(9.0, abs=1e-9)
        detail.append("gold (9,9) exact")

        peaks = correlation_peaks([decompose(s) for s in baseline_pairs["fzc"]])
        assert peaks.theta_a == pytest.approx(0.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(math.sqrt(31), abs=1e-9)
        detail.append("fzc (0,sqrt(31))")

        peaks = correlation_peaks([decompose(s) for s in baseline_pairs["tone"]])
        assert peaks.theta_a == pytest.approx(31.0, abs=1e-9)
        assert peaks.theta_c == pytest.approx(0.0, abs=1e-9)
        detail.append("tone (31,0)")


def test_criterion_4_sarwate_bound(baseline_pairs, design_run):
    detail = []
    with criterion(4, "Sarwate bound holds for all sets; FZC achieves equality", detail):
        sets = dict(baseline_pairs)
        sets["gold-family"] = gold_family(5)
        sets["optimized"] = design_run.best_sequences
        for name, seqs in sets.items():
            coeffs = [decompose(s) for s in seqs]
            report = sarwate_check(correlation_peaks(coeffs), 31, len(seqs))
            assert report.lhs_periodic >= 1.0 - 1e-9, name
            assert report.lhs_aperiodic >= 1.0 - 1e-9, name
        fzc_report = sarwate_check(
            correlation_peaks([decompose(s) for s in baseline_pairs["fzc"]]), 31, 2
        )
        assert fzc_report.lhs_periodic == pytest.approx(1.0, abs=1e-9)
        detail.append(f"fzc equality lhs={fzc_report.lhs_periodic:.12f}")
        detail.append(f"{len(sets)} sets checked")


def test_criterion_5_optimizer_feasibility(design_run):
    detail = []
    with criterion(5, "converged restarts reach e1,e2 <= 1e-8; best pair re-evaluates", detail):
        n_conv = 0
        worst_e1 = 0.0
        worst_e2 = 0.0
        for (e1, e2), ok in zip(design_run.restart_errors, design_run.restart_converged):
            if not ok:
                continue
            n_conv += 1
            worst_e1 = max(worst_e1, e1)
            worst_e2 = max(worst_e2, e2)
            assert e1 <= 1e-8
            assert e2 <= 1e-8
        assert n_conv >= 1
        cfg = CdmaConfig(n_chips=N_DESIGN, n_users=2)
        evaluated = snr(cfg, design_run.best_sequences, 1)
        rel = abs(evaluated.snr - design_run.snr) / design_run.snr
        assert rel <= 1e-9
        detail.append(
            f"{n_conv}/{DESIGN_RESTARTS} converged, worst e1={worst_e1:.2e}, "
            f"worst e2={worst_e2:.2e}, re-eval rel dev={rel:.2e}"
        )


def test_criterion_6_optimized_beats_baselines(baseline_pairs, design_run):
    detail = []
    with criterion(6, "best of 200 restarts strictly beats Gold, FZC and tone SNR", detail):
        assert design_run.converged
        cfg = CdmaConfig(n_chips=31, n_users=2)
        for name, pair in baseline_pairs.items():
            base = snr(cfg, pair, 1).snr
            assert design_run.snr > base
            detail.append(f"{name} snr={base:.2f}")
        detail.append(f"best optimized snr={design_run.snr:.6g}")
        # local-solution multiplicity at 1e-3 resolution (the documented
        # 10000-restart stretch run applies the same gate; see demos/)
        converged_snrs = [
            s for s, ok in zip(design_run.restart_snrs, design_run.restart_converged) if ok
        ]
        distinct = len({round(s, 3) for s in converged_snrs})
        assert distinct >= 5
        detail.append(f"{distinct} distinct local SNR values")


def test_criterion_7_gradient_correctness():
    detail = []
    with criterion(7, "analytic gradient matches central differences to 1e-6", detail):
        worst = 0.0
        points = 0
        for n in (4, 8, 16, 31):
            rng = np.random.default_rng(n)
            for _ in range(5):
                a1 = rng.standard_normal(2 * n)
                a2 = rng.standard_normal(2 * n)
                g1, g2 = objective_gradient(a1, a2, n)
                h = 1e-5
                fd1 = np.zeros_like(a1)
                fd2 = np.zeros_like(a2)
                for i in range(2 * n):
                    up, dn = a1.copy(), a1.copy()
                    up[i] += h
                    dn[i] -= h
                    fd1[i] = (objective(up, a2, n) - objective(dn, a2, n)) / (2 * h)
                    up, dn = a2.copy(), a2.copy()
                    up[i] += h
                    dn[i] -= h
                    fd2[i] = (objective(a1, up, n) - objective(a1, dn, n)) / (2 * h)
                for g, fd in ((g1, fd1), (g2, fd2)):
                    floor = 1e-3 * np.max(np.abs(fd))
                    rel = np.abs(g - fd) / np.maximum(np.abs(fd), floor)
                    worst = max(worst, float(np.max(rel)))
                    assert np.max(rel) <= 1e-6
                points += 1
        detail.append(f"{points} points, worst deviation {worst:.2e}")


def test_criterion_8_structural_invariants():
    detail = []
    with criterion(8, "unitarity, round trips, and correlation identities", detail):
        # coupling matrices unitary / orthogonal for every N in 2..64
        for n in range(2, 65):
            pair = coupling_matrices(n)
            eye = np.eye(n)
            assert np.max(np.abs(pair.phi.conj().T @ pair.phi - eye)) <= 1e-10
            assert np.max(np.abs(pair.phi_hat.conj().T @ pair.phi_hat - eye)) <= 1e-10
            mats = real_coupling_matrices(n)
            eye2 = np.eye(2 * n)
            assert np.max(np.abs(mats.phi_r.T @ mats.phi_r - eye2)) <= 1e-10
            assert np.max(np.abs(mats.phi_hat_r.T @ mats.phi_hat_r - eye2)) <= 1e-10
        detail.append("coupling unitarity N=2..64")

        rng = np.random.default_rng(8)
        for n in (2, 5, 16, 31, 64):
            s = np.exp(2j * np.pi * rng.random(n))
            c = decompose(s)
            assert np.max(np.abs(reconstruct(c, "alpha") - s)) <= 1e-12
            assert np.max(np.abs(reconstruct(c, "beta") - s)) <= 1e-12
        detail.append("round trips 1e-12")

        from spreadopt.metrics import aperiodic_correlation, periodic_correlation

        worst = 0.0
        for n in range(2, 9):
            for _ in range(10):
                s_u = np.exp(2j * np.pi * rng.random(n))
                s_v = np.exp(2j * np.pi * rng.random(n))
                c_u, c_v = decompose(s_u), decompose(s_v)
                for l in range(n):
                    circ = np.sum(np.conj(np.roll(s_u, -l)) * s_v)
                    idx = (np.arange(n) + l) % n
                    sign = np.where(np.arange(n) + l >= n, -1.0, 1.0)
                    nega = np.sum(sign * np.conj(s_u[idx]) * s_v)
                    d1 = abs(periodic_correlation(c_u, c_v, l) - circ)
                    d2 = abs(aperiodic_correlation(c_u, c_v, l) - nega)
                    worst = max(worst, d1, d2)
                    assert d1 <= 1e-10 and d2 <= 1e-10
        detail.append(f"correlation identities N<=8, worst {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    detail = []
    with criterion(9, "optimize and simulate outputs byte-identical across reruns/threads", detail):
        gold = tmp_path / "gold.json"
        assert main(["generate", "gold", "--degree", "5", "--indices", "2,3",
                     "--out", str(gold)]) == 0

        opt_args = ["optimize", "--n", "8", "--restarts", "4", "--seed", "99"]
        dirs = [tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"]
        assert main(opt_args + ["--threads", "1", "--out", str(dirs[0])]) == 0
        assert main(opt_args + ["--threads", "1", "--out", str(dirs[1])]) == 0
        assert main(opt_args + ["--threads", "2", "--out", str(dirs[2])]) == 0
        for name in ("sequences.json", "report.json", "restart_snrs.csv", "restarts.csv"):
            ref = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == ref
            assert (dirs[2] / name).read_bytes() == ref
        detail.append("optimize byte-identical (rerun and threads)")

        capsys.readouterr()
        sim_args = ["simulate", str(gold), "--users", "1,2", "--trials", "20000",
                    "--seed", "123"]
        outputs = []
        for threads in ("1", "1", "4"):
            assert main(sim_args + ["--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        json.loads(outputs[0])
        detail.append("simulate byte-identical (rerun and threads)")
