"""Design a two-user sequence pair at N=31 and compare against the baselines.

Runs a small multi-restart solve (8 restarts; a few milliseconds each on one
core), then prints the best pair's SNR next to the Gold, FZC and single-tone
pairs.  Even a handful of restarts lands far above every classical baseline:
the solver drives the interference functional to the numerical floor, where
the two users' spectral weights are almost perfectly disjoint in both bases.

Run:  python demos/04_two_user_design.py
"""

from spreadopt import (
    CdmaConfig,
    SolverConfig,
    correlation_peaks,
    decompose,
    fzc_sequence,
    gold_pair,
    sarwate_check,
    single_tone_sequence,
    snr,
    solve_multistart,
)

N = 31
cfg = SolverConfig(restarts=8, seed=11)

print(f"solving {cfg.restarts} restarts at N={N} (seed {cfg.seed})...")
report = solve_multistart(N, cfg)
print(f"converged restarts: {sum(report.restart_converged)}/{cfg.restarts}")
print(f"best objective:     {report.objective:.6e}")
print(f"best snr:           {report.snr:.6g}")
print(f"feasibility:        e1={report.e1:.2e}  e2={report.e2:.2e}")
print(f"restart snrs:       {[f'{s:.3g}' for s in report.restart_snrs]}")

system = CdmaConfig(n_chips=N, n_users=2)
print("\ncomparison (two-user SNR, no noise):")
for name, pair in {
    "gold": list(gold_pair(5)),
    "fzc": [fzc_sequence(N, 1), fzc_sequence(N, 2)],
    "tone": [single_tone_sequence(N, 1), single_tone_sequence(N, 2)],
    "designed": report.best_sequences,
}.items():
    value = snr(system, pair, 1).snr
    print(f"  {name:<9} snr = {value:.6g}")

peaks = correlation_peaks([decompose(s) for s in report.best_sequences])
bound = sarwate_check(peaks, N, 2)
print(f"\ndesigned pair peaks: theta_a={peaks.theta_a:.3f}  theta_c={peaks.theta_c:.3f}")
print(f"sarwate lhs (periodic, aperiodic): {bound.lhs_periodic:.3f}, {bound.lhs_aperiodic:.3f}")
print("high SNR comes at the cost of a large autocorrelation peak, consistent")
print("with the trade-off the Sarwate bound enforces.")
