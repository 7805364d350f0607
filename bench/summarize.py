"""Summarize benchmark runs into a committed ``BENCH_<tag>.json``.

    python3 bench/summarize.py --tag baseline [--runs DIR] [--note TEXT ...]

Reads every ``<workload>-seed<n>-trace<t>.json`` written by ``run.py``
under ``DIR`` (default ``.bench_out``) and reports, per workload, the
median, quartiles and spread (interquartile distance over the median) of
each end-to-end metric over the untraced runs, the medians of the
workload-specific report values, and the traced runs' per-layer numbers.
Quartiles are ``statistics.quantiles(n=4)``'s default, as the benchmark's
bounds are defined; with fewer than four runs the summary gives the
minimum, maximum and range over the median instead.  Runs whose
environment records differ are not comparable, so the summary refuses to
mix them.
"""

import argparse
import glob
import json
import os
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(BENCH_DIR), ".bench_out")


def stats(values):
    values = [v for v in values if numeric(v)]
    if not values:
        return {"median": None, "runs": 0}
    med = statistics.median(values)
    out = {"median": med, "runs": len(values)}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    elif len(values) >= 2:
        lo, hi = min(values), max(values)
        out.update(min=lo, max=hi, range=(hi - lo) / med if med else None)
    return out


def numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def summarized(entry):
    """Report values worth a median: numbers, but not seeds or indices."""
    return numeric(entry["value"]) and entry["unit"] not in ("seed", "index")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--runs", default=OUT_DIR, help="directory of run files")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args()

    runs = []
    for path in sorted(glob.glob(os.path.join(args.runs, "*-trace[01].json"))):
        with open(path) as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"no runs under {args.runs}")
    envs = {json.dumps(r["details"]["environment"], sort_keys=True) for r in runs}
    if len(envs) != 1:
        raise SystemExit("runs have different environment records; not comparable")

    workloads = {}
    for run in runs:
        d = run["details"]
        entry = workloads.setdefault(d["workload"], {"untraced": [], "traced": []})
        entry["traced" if d["trace"] else "untraced"].append(run)

    summary = {
        "tag": args.tag,
        "environment": runs[0]["details"]["environment"],
        "notes": args.note,
        "workloads": {},
    }
    for name, entry in sorted(workloads.items()):
        out = {}
        plain = entry["untraced"]
        if plain:
            out["seeds"] = [r["details"]["seed"] for r in plain]
            out["seconds"] = plain[0]["details"]["seconds"]
            out["attempted"] = sum(r["result"]["attempted"] for r in plain)
            out["failed"] = sum(r["result"]["failed"] for r in plain)
            out["end_to_end"] = {
                k: {"unit": v["unit"], **stats([r["result"]["metrics"][k]["value"] for r in plain])}
                for k, v in plain[0]["result"]["metrics"].items()
            }
            out["report"] = {
                k: {"unit": v["unit"], **stats([r["details"]["report"][k]["value"] for r in plain])}
                for k, v in plain[0]["details"]["report"].items() if summarized(v)
            }
        if entry["traced"]:
            out["traced_seeds"] = [r["details"]["seed"] for r in entry["traced"]]
            # the traced runs carry the determinism and thread-count checks
            out["traced_attempted"] = sum(r["result"]["attempted"] for r in entry["traced"])
            out["traced_failed"] = sum(r["result"]["failed"] for r in entry["traced"])
            out["per_layer"] = {
                k: {"unit": v["unit"], **stats([r["result"]["metrics"][k]["value"]
                                               for r in entry["traced"]])}
                for k, v in entry["traced"][0]["result"]["metrics"].items()
            }
            out["layer_report"] = {
                k: {"unit": v["unit"], **stats([r["details"]["report"][k]["value"]
                                               for r in entry["traced"]])}
                for k, v in entry["traced"][0]["details"]["report"].items() if summarized(v)
            }
        summary["workloads"][name] = out

    path = os.path.join(BENCH_DIR, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
