"""spreadopt benchmark: design, evaluate and Monte Carlo workloads.

    python3 bench/run.py --workload design-n31 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports the package from
``src/`` (nothing needs installing) and calls ``spreadopt.cli.main``
in-process, one call after another.  It sets no BLAS or threading
environment variable: the program is measured as a user runs it.

Workloads (see ``workloads.py``):

* ``design-n31``     ``optimize --n 31 --threads 1`` on a seeded restart batch
* ``evaluate-mixed`` ``evaluate --users 1,2`` on fresh random/FZC pairs at
                     N = 31, 127 and 1023
* ``simulate-mc``    ``simulate --threads 1`` of a Gold degree-7 pair

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
three cold starts of import, input generation and the first, cache-filling
call, each in a fresh process), ``throughput_per_s`` (restarts, evaluate
calls or Monte Carlo trials per second) and ``latency_p50_ms`` (median CLI
call time).  evaluate-mixed reports both as geometric means over N of the
per-N figures; design-n31 makes one call, so its latency is the batch time.  ``--trace 1`` wraps every public function of the package from
outside, replays half the work untraced and then traced, and prints
per-module numbers.  The workload-specific metrics (per-N latencies and
tails, converged restarts, per-function layer times) go on the line before
the result, which is always the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Both lines, the environment record and (traced runs) every span are also
written under ``.bench_out/``.  Results are comparable only when their
``environment`` records agree.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("design-n31", "evaluate-mixed", "simulate-mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one cold set-up, print it and exit")
    return parser.parse_args(argv)


def probe_setup(args):
    """Set-up time of one fresh process (import, inputs, first call)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def probe_setups(args, workload, count):
    samples = []
    for _ in range(count):
        probe = probe_setup(args)
        if workload.check(workload.op(), probe is not None, "set-up probe failed"):
            samples.append(probe)
    return samples


def metric_block(values):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spreadopt", "cli.py")):
        print(f"error: no spreadopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports numpy, scipy and spreadopt: part of set-up time

    import_s = time.perf_counter() - T0
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        start = time.perf_counter()
        workload.setup()
        setup_s = import_s + time.perf_counter() - start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            metrics, report, segments = workload.trace()
        else:
            # half the cold-start probes before the measurement, half after,
            # so that a slow drift in machine speed does not bias the median
            samples = [setup_s] + probe_setups(args, workload, SETUP_PROBES // 2)
            metrics, report = workload.measure()
            samples += probe_setups(args, workload, SETUP_PROBES - SETUP_PROBES // 2)
            metrics = {"setup_s": (statistics.median(samples), "s"), **metrics}
            report["setup_samples_s"] = (samples, "s")
            segments = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import envinfo

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if segments:
        import tracer

        tracer.write_spans(stem + "-spans.csv", segments)
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metric_block(metrics),
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.environment(ROOT),
        "failed_fraction": workload.failed / max(1, workload.attempted),
        "failures": workload.failures[:20],
        "report": metric_block(report),
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
