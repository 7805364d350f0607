"""The three benchmark workloads, each driving ``spreadopt.cli.main`` in-process.

Every workload is a closed loop with one client: the next CLI call starts
after the previous one returns.  A run does a fixed amount of work derived
only from ``--seconds`` (about that many seconds on a 2-core box), so the
attempted counts, percentile ranks and solver outcomes of a run repeat
exactly for a given seed.  All inputs come from the workload seed; the
program receives only generated files and flags.

The untraced pass yields the end-to-end metrics.  The traced pass replays a
half-size plan twice on identical inputs, first untraced and then traced, so
the tracing overhead is measured on the same work and the two passes'
outputs can be compared byte for byte.
"""

import contextlib
import io
import json
import math
import os
import statistics
import time
import traceback
from collections import defaultdict

import numpy as np

from spreadopt import cli, sequences

import checks
import tracer as tr

NPROC = os.cpu_count() or 1


def call_cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # an escaped exception is a failed operation, not a crash
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - start


@contextlib.contextmanager
def capture(module, attr):
    """Collect the return values of ``module.attr`` while the block runs."""
    original = getattr(module, attr)
    got = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        got.append(result)
        return result

    setattr(module, attr, wrapper)
    try:
        yield got
    finally:
        setattr(module, attr, original)


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def geomean(values):
    return math.exp(statistics.fmean(map(math.log, values)))


def write_set(path, n, pair, labels):
    """Sequence-set file in the CLI's JSON format.

    Written here rather than by ``cli.write_sequence_set`` so that making
    inputs stays outside the program's measured and traced calls.
    """
    payload = {
        "format_version": 1,
        "n_chips": n,
        "sequences": [
            {"label": label, "entries": [[float(z.real), float(z.imag)] for z in s]}
            for label, s in zip(labels, pair)
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def by_name(spans):
    out = defaultdict(list)
    for s in spans:
        out[s[tr.NAME]].append(s)
    return out


def layer_summary(spans, overhead):
    """Per-module metrics every workload reports from its traced replay."""
    dur = tr.durations_ns(spans)
    selft = tr.self_times_ns(spans)
    total = sum(dur[id(s)] for s in spans if s[tr.PARENT] is None) or 1
    calls = defaultdict(int)
    busy = defaultdict(int)
    for s in spans:
        module = s[tr.NAME].split(".")[0]
        calls[module] += 1
        busy[module] += selft[id(s)]
    named = by_name(spans)

    def p50(name, scale):
        values = [dur[id(s)] for s in named[name]]
        return statistics.median(values) / scale if values else 0.0  # 0: never called

    out = {}
    for module in tr.MODULES:
        out[f"{module}.calls"] = (calls[module], "count")
        out[f"{module}.self_fraction"] = (busy[module] / total, "fraction")
    main_self = [selft[id(s)] for s in named["cli.main"]]
    out["cli.main.self_p50_ms"] = (statistics.median(main_self) / 1e6, "ms")
    out["spectral.decompose.p50_us"] = (p50("spectral.decompose", 1e3), "us")
    out["interference.s_m_terms.p50_us"] = (p50("interference.s_m_terms", 1e3), "us")
    out["trace.overhead_fraction"] = (overhead, "fraction")
    out["trace.spans"] = (len(spans), "count")
    out["trace.error_spans"] = (sum(1 for s in spans if s[tr.RAISED]), "count")
    return out


class Workload:
    """Seeded inputs, operation counts and failed checks of one run."""

    name = ""

    def __init__(self, seed, seconds, workdir):
        self.workdir = workdir
        tag = sum(map(ord, self.name))
        self.rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, tag]))
        self.attempted = 0
        self.failures = []
        self._failed_ops = set()

    def op(self):
        self.attempted += 1
        return self.attempted

    def check(self, op, ok, message):
        if not ok:
            self._failed_ops.add(op)
            self.failures.append(f"op {op}: {message}")
        return ok

    @property
    def failed(self):
        return len(self._failed_ops)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)


# ---------------------------------------------------------------------------
# design-n31


class DesignN31(Workload):
    """``optimize --n 31 --threads 1`` on one seeded restart batch per run."""

    name = "design-n31"
    N = 31
    # median restarts/s of the seed code on a 2-core x86 VM (--threads 1), so
    # a run does about --seconds of work; restarts differ widely in iteration
    # count, so a batch's wall time varies with its seed
    RESTARTS_PER_SECOND = 0.31
    FEASIBILITY_TOL = 1e-8
    POOL_MAX_ITER = 300

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.restarts = max(2, math.ceil(self.RESTARTS_PER_SECOND * seconds))
        self.master_seed = int(self.rng.integers(0, 2**31))
        self._baselines = None

    def setup(self):
        # first (cache-filling) call: one SLSQP iteration under tolerances
        # that accept it, so the full optimize path runs in milliseconds
        self.setup_rc, _, _ = call_cli([
            "optimize", "--n", str(self.N), "--restarts", "1", "--max-iter", "1",
            "--tol", "1e300", "--constraint-tol", "1e300", "--seed", str(self.master_seed),
            "--threads", "1", "--out", self.path("warm"),
        ])

    def optimize(self, restarts, out, threads=1, max_iter=None):
        argv = [
            "optimize", "--n", str(self.N), "--restarts", str(restarts),
            "--seed", str(self.master_seed), "--threads", str(threads), "--out", out,
        ]
        if max_iter is not None:
            argv += ["--max-iter", str(max_iter)]
        with capture(cli, "solve_multistart") as got:
            rc, _, seconds = call_cli(argv)
        return {"rc": rc, "seconds": seconds, "out": out, "restarts": restarts,
                "report": got[0] if got else None}

    def baselines(self):
        if self._baselines is None:
            from spreadopt.interference import CdmaConfig, snr

            cfg = CdmaConfig(n_chips=self.N, n_users=2)
            pairs = {
                "gold": list(sequences.gold_pair(5)),
                "fzc": [sequences.fzc_sequence(self.N, 1), sequences.fzc_sequence(self.N, 2)],
                "tone": [sequences.single_tone_sequence(self.N, 1),
                         sequences.single_tone_sequence(self.N, 2)],
            }
            self._baselines = {k: snr(cfg, v, 1).snr for k, v in pairs.items()}
        return self._baselines

    def check_call(self, call):
        op = self.op()
        if not self.check(op, call["rc"] == 0, f"optimize exited {call['rc']}"):
            return
        solve = call["report"]
        for t, ((e1, e2), ok) in enumerate(
            zip(solve.restart_errors, solve.restart_converged), start=1
        ):
            if ok:
                self.check(op, e1 <= self.FEASIBILITY_TOL and e2 <= self.FEASIBILITY_TOL,
                           f"restart {t} converged with e1={e1:.2e} e2={e2:.2e}")
        with open(os.path.join(call["out"], "report.json")) as fh:
            report = json.load(fh)
        self.check(op, report["restarts"] == call["restarts"], "report.json restart count")
        self.check(op, report["restarts_converged"] == sum(solve.restart_converged),
                   "report.json converged count")
        for name, value in self.baselines().items():
            self.check(op, report["snr"] > value,
                       f"best snr {report['snr']} not above {name} {value}")
        rc, text, _ = call_cli(["evaluate", os.path.join(call["out"], "sequences.json"),
                                "--users", "1,2"])
        if self.check(op, rc == 0, f"re-evaluating sequences.json exited {rc}"):
            again = json.loads(text)["snr"][0]
            if math.isinf(report["snr"]):
                self.check(op, again == "unbounded", "unbounded snr not reproduced")
            else:
                self.check(op, checks.rel_close(again, report["snr"]),
                           f"re-evaluated snr {again} != reported {report['snr']}")

    def check_setup(self):
        self.check(self.op(), self.setup_rc == 0, f"first optimize call exited {self.setup_rc}")

    def measure(self):
        self.check_setup()
        call = self.optimize(self.restarts, self.path("run"))
        self.check_call(call)
        converged = sum(call["report"].restart_converged) if call["report"] else 0
        rate = self.restarts / call["seconds"]
        # one call per run: its latency is the whole batch, restarts / rate
        e2e = {
            "throughput_per_s": (rate, "1/s"),
            "latency_p50_ms": (call["seconds"] * 1e3, "ms"),
        }
        report = {
            "restarts_per_s": (rate, "1/s"),
            "converged_per_s": (converged / call["seconds"], "1/s"),
            "converged_fraction": (converged / self.restarts, "fraction"),
            "restarts": (self.restarts, "count"),
            "master_seed": (self.master_seed, "seed"),
            "optimize_call_s": (call["seconds"], "s"),
        }
        return e2e, report

    def trace(self):
        self.check_setup()
        half = max(2, self.restarts // 2)
        tr.clear_caches()
        plain = self.optimize(half, self.path("untraced"))
        tracer = tr.Tracer(hooks={
            "optimizer.solve_local": lambda r: (r.iterations, r.converged),
        })
        with tracer:
            tr.clear_caches()
            traced = self.optimize(half, self.path("traced"))
        spans = tracer.take()
        for call in (plain, traced):
            self.check_call(call)
        op = self.op()
        for name in ("sequences.json", "report.json", "restart_snrs.csv"):
            self.check(op, _same_bytes(plain["out"], traced["out"], name),
                       f"{name} differs between untraced and traced runs")
        # capped iterations: both batches do the same, bounded work, since the
        # oversubscribed pool ran 9x to 28x slower than serial on a 2-core VM
        serial = self.optimize(NPROC, self.path("serial"), threads=1, max_iter=self.POOL_MAX_ITER)
        pooled = self.optimize(NPROC, self.path("pool"), threads=NPROC, max_iter=self.POOL_MAX_ITER)
        op = self.op()
        # the capped batch may legitimately converge nowhere (exit 2); the
        # invariant under test is that --threads changes neither code nor files
        self.check(op, serial["rc"] in (0, 2) and pooled["rc"] == serial["rc"],
                   f"pool exit {pooled['rc']} vs serial {serial['rc']}")
        for name in ("sequences.json", "report.json", "restart_snrs.csv"):
            self.check(op, _same_bytes(serial["out"], pooled["out"], name),
                       f"{name} differs between --threads 1 and --threads {NPROC}")

        overhead = traced["seconds"] / plain["seconds"] - 1.0
        layers = layer_summary(spans, overhead)
        dur = tr.durations_ns(spans)
        selft = tr.self_times_ns(spans)
        named = by_name(spans)
        solves = named["optimizer.solve_local"]
        n = len(solves) or 1
        iterations = [s[tr.INFO][0] for s in solves]
        converged = [s[tr.INFO][1] for s in solves]

        def per_restart_self(name):
            return sum(selft[id(s)] for s in named[name]) / 1e6 / n

        def first_ms(name):
            return dur[id(named[name][0])] / 1e6 if named[name] else None

        report = {
            "optimizer.solve_local.p50_ms": (
                statistics.median(dur[id(s)] for s in solves) / 1e6, "ms"),
            "optimizer.iterations.p50": (statistics.median(iterations), "count"),
            "optimizer.ms_per_iteration": (
                sum(dur[id(s)] for s in solves) / 1e6 / sum(iterations), "ms"),
            "optimizer.objective.calls_per_restart": (
                len(named["optimizer.objective"]) / n, "count"),
            "optimizer.objective.self_ms_per_restart": (
                per_restart_self("optimizer.objective"), "ms"),
            "optimizer.objective_gradient.calls_per_restart": (
                len(named["optimizer.objective_gradient"]) / n, "count"),
            "optimizer.objective_gradient.self_ms_per_restart": (
                per_restart_self("optimizer.objective_gradient"), "ms"),
            "optimizer.solver_internal_ms_per_restart": (
                per_restart_self("optimizer.solve_local"), "ms"),
            "optimizer.converged_over_attempted": (sum(converged) / n, "fraction"),
            "optimizer.pool_scaling_efficiency": (
                serial["seconds"] / (NPROC * pooled["seconds"]), "fraction"),
            "spectral.coupling_matrices.first_ms": (
                first_ms("spectral.coupling_matrices"), "ms"),
            "optimizer.real_coupling_matrices.first_ms": (
                first_ms("optimizer.real_coupling_matrices"), "ms"),
            "sequences.random_feasible_point.p50_us": (
                statistics.median(dur[id(s)] for s in named["sequences.random_feasible_point"])
                / 1e3, "us"),
            "trace.overhead_fraction": (overhead, "fraction"),
            "pool.batch_restarts": (NPROC, "count"),
            "pool.max_iterations": (self.POOL_MAX_ITER, "count"),
            "pool.serial_s": (serial["seconds"], "s"),
            "pool.threads_nproc_s": (pooled["seconds"], "s"),
        }
        return layers, report, {"traced": spans}


def _same_bytes(dir_a, dir_b, name):
    try:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# ---------------------------------------------------------------------------
# evaluate-mixed


class EvaluateMixed(Workload):
    """``evaluate --users 1,2`` on a fresh random or FZC pair per call, N mixed."""

    name = "evaluate-mixed"
    SIZES = (31, 127, 1023)
    # nominal seconds per call on the seed code.  No traffic mix is known, so
    # by design each size gets an equal share of the run and the end-to-end
    # metrics are geometric means over N of per-size figures: a given
    # relative change at any one N moves them by the same amount.
    NOMINAL_CALL_S = {31: 0.004, 127: 0.0095, 1023: 0.39}

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.counts = {
            n: max(11, round(seconds / len(self.SIZES) / self.NOMINAL_CALL_S[n]))
            for n in self.SIZES
        }

    def make_pair(self, n):
        # random +-1 pairs are the generic case, FZC pairs the paper's
        # perfect-periodic family; the dense per-N tables make the work of a
        # call the same for both, so the even split only widens the checks
        if self.rng.random() < 0.5:
            pair = [self.rng.choice([-1.0, 1.0], size=n).astype(complex) for _ in range(2)]
            return pair, ["random-1", "random-2"]
        roots = [m for m in range(1, n) if math.gcd(m, n) == 1]
        m1, m2 = (int(m) for m in self.rng.choice(roots, size=2, replace=False))
        pair = [sequences.fzc_sequence(n, m).entries for m in (m1, m2)]
        return pair, [f"fzc-{m1}", f"fzc-{m2}"]

    def plan(self, counts):
        sizes = [n for n in self.SIZES for _ in range(counts[n])]
        return [(int(n), *self.make_pair(int(n))) for n in self.rng.permutation(sizes)]

    def evaluate(self, n, pair, labels):
        path = self.path(f"pair-{n}.json")
        write_set(path, n, pair, labels)
        rc, text, seconds = call_cli(["evaluate", path, "--users", "1,2"])
        return {"n": n, "pair": pair, "rc": rc, "text": text, "seconds": seconds}

    def setup(self):
        self.setup_calls = [self.evaluate(*item) for item in self.plan(dict.fromkeys(self.SIZES, 1))]

    def check_call(self, call):
        op = self.op()
        if not self.check(op, call["rc"] == 0, f"evaluate N={call['n']} exited {call['rc']}"):
            return
        out = json.loads(call["text"])
        n, pair = call["n"], call["pair"]
        var_i, snr = checks.direct_snr(pair, 1)
        self.check(op, checks.rel_close(out["interference_variance"][0], var_i),
                   f"N={n} variance differs from the direct route")
        self.check(op, checks.rel_close(out["snr"][0], snr),
                   f"N={n} snr {out['snr'][0]} != direct {snr}")
        # S_m is symmetric in the two users term by term, so user 2 matches exactly
        self.check(op, out["snr"][1] == out["snr"][0], f"N={n} snr not symmetric")
        ref = checks.time_domain_peaks(pair)
        got = [out["peaks"][k] for k in ("theta_a", "theta_c", "theta_hat_a", "theta_hat_c")]
        for key, a, b in zip(("theta_a", "theta_c", "theta_hat_a", "theta_hat_c"), got, ref):
            self.check(op, abs(a - b) <= checks.REL_TOL * n,
                       f"N={n} {key} {a} != time-domain {b}")
        sarwate = out["sarwate"]
        lhs_p = checks.sarwate_lhs(ref[1], ref[0], n)
        lhs_a = checks.sarwate_lhs(ref[3], ref[2], n)
        self.check(op, sarwate["satisfied_periodic"] and sarwate["satisfied_aperiodic"],
                   f"N={n} Sarwate flags not satisfied")
        self.check(op, lhs_p >= 1 - checks.REL_TOL and lhs_a >= 1 - checks.REL_TOL,
                   f"N={n} Sarwate bound violated by the time-domain peaks")
        self.check(op, checks.rel_close(sarwate["lhs_periodic"], lhs_p, 1e-6)
                   and checks.rel_close(sarwate["lhs_aperiodic"], lhs_a, 1e-6),
                   f"N={n} Sarwate left-hand sides differ from the time-domain peaks")

    def measure(self):
        for call in self.setup_calls:
            self.check_call(call)
        calls = [self.evaluate(*item) for item in self.plan(self.counts)]
        for call in calls:
            self.check_call(call)
        report = {}
        p50s, rates = [], []
        for n in self.SIZES:
            ms = [c["seconds"] * 1e3 for c in calls if c["n"] == n]
            p50 = statistics.median(ms)
            p50s.append(p50)
            rates.append(1e3 * len(ms) / sum(ms))
            report[f"eval_n{n}_calls_per_s"] = (rates[-1], "1/s")
            value, pct = tail(ms)
            report[f"eval_n{n}_p50_ms"] = (p50, "ms")
            report[f"eval_n{n}_tail_ms"] = (value, "ms")
            report[f"eval_n{n}_tail_percentile"] = (pct, "percentile")
            report[f"eval_n{n}_samples"] = (len(ms), "count")
        e2e = {
            "throughput_per_s": (geomean(rates), "1/s"),
            "latency_p50_ms": (geomean(p50s), "ms"),
        }
        report["calls_per_s"] = (len(calls) / sum(c["seconds"] for c in calls), "1/s")
        return e2e, report

    def trace(self):
        for call in self.setup_calls:
            self.check_call(call)
        plan = self.plan({n: max(11, c // 2) for n, c in self.counts.items()})
        tracer = tr.Tracer()
        plain, traced = [], []
        for k, item in enumerate(plan):
            # each input runs untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels in the overhead
            for use_tracer in (k % 2 == 1, k % 2 == 0):
                if use_tracer:
                    with tracer:
                        traced.append(self.evaluate(*item))
                else:
                    plain.append(self.evaluate(*item))
        spans = tracer.take()
        for a, b in zip(plain, traced):
            self.check_call(a)
            self.check(self.op(), a["rc"] == b["rc"] and a["text"] == b["text"],
                       f"N={a['n']} traced output differs from untraced")
        overhead = sum(c["seconds"] for c in traced) / sum(c["seconds"] for c in plain) - 1.0
        layers = layer_summary(spans, overhead)

        dur = tr.durations_ns(spans)
        selft = tr.self_times_ns(spans)
        root = tr.roots(spans)
        mains = [s for s in spans if s[tr.PARENT] is None and s[tr.NAME] == "cli.main"]
        size_of = {id(s): call["n"] for s, call in zip(mains, traced)}
        report = {"trace.overhead_fraction": (overhead, "fraction")}
        for n in self.SIZES:
            mine = defaultdict(list)
            for s in spans:
                if size_of.get(id(root[id(s)])) == n:
                    mine[s[tr.NAME]].append(s)

            def p50(name, scale, table=dur):
                values = [table[id(s)] for s in mine[name]]
                return statistics.median(values) / scale if values else None

            report[f"spectral.decompose.n{n}.p50_us"] = (p50("spectral.decompose", 1e3), "us")
            report[f"interference.snr.n{n}.p50_us"] = (p50("interference.snr", 1e3), "us")
            report[f"metrics.correlation_peaks.n{n}.p50_ms"] = (
                p50("metrics.correlation_peaks", 1e6), "ms")
            # two N x N complex128 phase tables per profile, three profiles per pair
            report[f"metrics.correlation_peaks.n{n}.computed_bytes"] = (
                3 * 2 * n * n * 16, "bytes-computed")
            report[f"cli.read_sequence_set.n{n}.p50_ms"] = (
                p50("cli.read_sequence_set", 1e6), "ms")
            report[f"cli.main.n{n}.self_p50_ms"] = (p50("cli.main", 1e6, selft), "ms")
        return layers, report, {"traced": spans}


# ---------------------------------------------------------------------------
# simulate-mc


class SimulateMc(Workload):
    """``simulate --threads 1`` of a Gold degree-7 pair (N=127).

    The timed calls use one worker thread.  The CLI default (one thread per
    core) puts the worker threads and OpenBLAS's spinning threads on the same
    cores; on a shared 2-core host its rate swung by up to 2.4x between runs,
    against 1.4x for the single-threaded workloads, so, like the default
    ``optimize`` pool, it is measured only in the traced run, as a scaling
    efficiency against one thread.
    """

    name = "simulate-mc"
    DEGREE = 7
    # many short calls, so that the median call time rides out bursts of load
    TRIALS = 5_000_000
    NOMINAL_CALL_S = 0.45
    THREADS = 1
    DEFAULT_THREAD_CALLS = 6
    Z_LIMIT = 3.0

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.calls = max(1, round(seconds / self.NOMINAL_CALL_S))
        family_size = 2**self.DEGREE + 1
        self.indices = [int(i) for i in self.rng.choice(family_size, size=2, replace=False)]
        self.sim_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=self.calls + 1)]
        self.set_file = None
        self._analytic = None

    def make_inputs(self):
        family = sequences.gold_family(self.DEGREE)
        pair = [family[i] for i in self.indices]
        self.pair = [s.entries for s in pair]
        self.set_file = self.path("gold-pair.json")
        write_set(self.set_file, self.pair[0].shape[0], self.pair, [s.label for s in pair])

    def simulate(self, trials, seed, threads=THREADS):
        argv = ["simulate", self.set_file, "--users", "1,2", "--trials", str(trials),
                "--seed", str(seed)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        rc, text, seconds = call_cli(argv)
        return {"rc": rc, "text": text, "seconds": seconds, "trials": trials}

    def setup(self):
        self.make_inputs()
        self.setup_call = self.simulate(100, self.sim_seeds[-1])

    def analytic(self):
        if self._analytic is None:
            self._analytic = checks.direct_snr(self.pair, 1)[0]
        return self._analytic

    def check_call(self, call):
        """Per-call checks; returns (op, estimate, stderr) for the pooled z test."""
        op = self.op()
        if not self.check(op, call["rc"] == 0, f"simulate exited {call['rc']}"):
            return op, None, None
        out = json.loads(call["text"])
        est = out["estimate"]
        self.check(op, out["trials"] == call["trials"], "trial count not echoed")
        self.check(op, checks.rel_close(out["analytic"]["var_interference"], self.analytic()),
                   "analytic variance differs from the direct route")
        mean, stderr = est["var_interference_mean"], est["var_interference_stderr"]
        self.check(op, math.isfinite(mean) and math.isfinite(stderr) and stderr > 0,
                   f"estimate not finite or stderr not positive ({mean}, {stderr})")
        return op, mean, stderr

    def check_pooled(self, calls):
        """|z| <= 3 of the pooled estimate of equal-size calls with distinct seeds.

        One test per run keeps the false-alarm rate at the 0.27% of a single
        3-sigma test, however many calls the run makes.
        """
        results = [self.check_call(c) for c in calls]
        usable = [(m, s) for _, m, s in results if m is not None and s is not None and s > 0]
        if not usable:
            return None
        mean = statistics.fmean(m for m, _ in usable)
        stderr = math.sqrt(sum(s * s for _, s in usable)) / len(usable)
        z = (mean - self.analytic()) / stderr
        if abs(z) > self.Z_LIMIT:
            for op, _, _ in results:
                self.check(op, False, f"pooled |z|={abs(z):.2f} > {self.Z_LIMIT}")
        return z

    def measure(self):
        self.check_call(self.setup_call)
        calls = [self.simulate(self.TRIALS, s) for s in self.sim_seeds[: self.calls]]
        z = self.check_pooled(calls)
        rate = sum(c["trials"] for c in calls) / sum(c["seconds"] for c in calls)
        e2e = {
            "throughput_per_s": (rate, "1/s"),
            "latency_p50_ms": (statistics.median(c["seconds"] for c in calls) * 1e3, "ms"),
        }
        report = {
            "trials_per_s": (rate, "1/s"),
            "pooled_z": (z, "z"),
            "calls": (len(calls), "count"),
            "trials_per_call": (self.TRIALS, "count"),
            "gold_indices": (self.indices, "index"),
        }
        return e2e, report

    def trace(self):
        self.check_call(self.setup_call)
        seeds = self.sim_seeds[: max(1, self.calls // 2)]
        tracer = tr.Tracer(hooks={"simulator.estimate_snr": lambda r: r.trials})
        with tracer:
            self.make_inputs()
        inputs = tracer.take()
        plain, traced = [], []
        for k, seed in enumerate(seeds):
            # untraced and traced back to back, alternating order (see evaluate)
            for use_tracer in (k % 2 == 1, k % 2 == 0):
                if use_tracer:
                    with tracer:
                        traced.append(self.simulate(self.TRIALS, seed))
                else:
                    plain.append(self.simulate(self.TRIALS, seed))
        spans = tracer.take()
        with tracer:
            default = [self.simulate(self.TRIALS, s, threads=None)
                       for s in seeds[: self.DEFAULT_THREAD_CALLS]]
        default_spans = tracer.take()
        self.check_pooled(plain)
        for a, b in zip(plain, traced):
            self.check(self.op(), a["rc"] == b["rc"] and a["text"] == b["text"],
                       "traced output differs from the untraced run")
        for a, b in zip(plain, default):
            self.check(self.op(), a["rc"] == b["rc"] and a["text"] == b["text"],
                       "default-thread output differs from --threads 1")

        overhead = sum(c["seconds"] for c in traced) / sum(c["seconds"] for c in plain) - 1.0
        layers = layer_summary(spans, overhead)

        def trials_per_s(segment):
            dur = tr.durations_ns(segment)
            return statistics.median(
                s[tr.INFO] / (dur[id(s)] / 1e9)
                for s in segment if s[tr.NAME] == "simulator.estimate_snr"
            )

        dur = tr.durations_ns(spans)
        inputs_dur = tr.durations_ns(inputs)
        tps_1 = trials_per_s(spans)
        tps_n = trials_per_s(default_spans)
        report = {
            "interference.partial_sum_table.ms": (statistics.median(
                dur[id(s)] for s in spans if s[tr.NAME] == "interference.partial_sum_table"
            ) / 1e6, "ms"),
            "sequences.gold_family.ms": (statistics.median(
                inputs_dur[id(s)] for s in inputs if s[tr.NAME] == "sequences.gold_family"
            ) / 1e6, "ms"),
            "simulator.estimate_snr.trials_per_s.threads1": (tps_1, "1/s"),
            f"simulator.estimate_snr.trials_per_s.threads{NPROC}": (tps_n, "1/s"),
            "simulator.thread_scaling_efficiency": (tps_n / (NPROC * tps_1), "fraction"),
            "trace.overhead_fraction": (overhead, "fraction"),
        }
        return layers, report, {"inputs": inputs, "traced": spans, "default_threads": default_spans}


WORKLOADS = {w.name: w for w in (DesignN31, EvaluateMixed, SimulateMc)}
