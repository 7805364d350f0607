"""Check two benchmark summaries against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py bench/BENCH_baseline.json bench/BENCH_rerun.json

For every workload and end-to-end metric the two summaries share, prints
each side's median and spread and how much worse the second median is than
the first, as a share of the first.  A metric fails when the second median
is worse by more than its bound, or when a spread other than ``setup_s``'s
exceeds the bound.  Exits 1 if any metric fails or the two environment
records differ in anything but the git commit, else 0.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worse_by(before, after, better):
    """Relative change of ``after`` against ``before``, positive when worse."""
    change = (after - before) / before
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    summaries = []
    for path in (args.first, args.second):
        with open(path) as fh:
            summaries.append(json.load(fh))
    first, second = summaries

    ok = True
    # the two sides may be different commits; everything else must agree
    envs = [{k: v for k, v in s["environment"].items() if k != "git_commit"}
            for s in summaries]
    if envs[0] != envs[1]:
        print("environment records differ; the comparison is invalid")
        ok = False
    print(f"{'workload':16s} {'metric':18s} {'median 1':>12s} {'median 2':>12s}"
          f" {'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}")
    for name, one in first["workloads"].items():
        two = second["workloads"].get(name, {})
        for key, a in one.get("end_to_end", {}).items():
            b = two.get("end_to_end", {}).get(key)
            if b is None or key not in metrics:
                continue
            bound = metrics[key]["bound"]
            worse = worse_by(a["median"], b["median"], metrics[key]["better"])
            spreads = [a.get("spread"), b.get("spread")]
            fails = worse > bound
            if key != "setup_s":
                fails |= any(s is None or s > bound for s in spreads)
            ok &= not fails
            shown = [float("nan") if s is None else s for s in spreads]
            print(f"{name:16s} {key:18s} {a['median']:12.6g} {b['median']:12.6g}"
                  f" {worse:9.3f} {shown[0]:9.3f} {shown[1]:9.3f} {bound:6.2f}"
                  f"{'  FAIL' if fails else ''}")
    print("all within bounds" if ok else "outside bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
