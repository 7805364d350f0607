"""Command-line interface: generate, evaluate, optimize, simulate, scatter.

Structured outputs are JSON (reports) and CSV with a single header row (plot
data).  Every command is deterministic given its flags and seed, and file
outputs round-trip byte-exactly: rerunning a command with the same arguments
rewrites identical files regardless of --threads.  A run manifest (command,
flags, seed, version, timestamp) is written next to file outputs; timestamps
never appear inside the structured outputs themselves.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure.

``main`` may be called repeatedly in one process; it builds its argument
parser once per process and reuses it on every call.
"""

import argparse
import csv
import dataclasses
import datetime
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import __version__
from .interference import CdmaConfig, snr
from .metrics import CorrelationPeaks, _set_quality
from .optimizer import SolverConfig, solve_multistart
from .sequences import ChipSequence, fzc_sequence, gold_family, single_tone_sequence
from .simulator import estimate_snr

__all__ = ["main", "read_sequence_set", "write_sequence_set"]

FORMAT_VERSION = 1
_JSON_NUMBERS = frozenset((int, float))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class CliError(Exception):
    """Usage or validation failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# sequence-set files


@contextmanager
def _output_file(path: str, **options):
    """open(path, "w", **options); a failure to create or write it is a CliError."""
    try:
        with open(path, "w", **options) as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _output_dir(path: str) -> None:
    """os.makedirs(path, exist_ok=True); a failure is a CliError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create directory {path!r}: {exc.strerror or exc}") from exc


def _json_text(payload, **options) -> str:
    """payload as indented JSON plus a final newline; options go to json.dumps.

    A NaN or infinity anywhere in payload raises ValueError, as it is not JSON.
    """
    return json.dumps(payload, indent=2, allow_nan=False, **options) + "\n"


def _write_text(path: str, text: str) -> None:
    with _output_file(path) as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with _output_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_sequence_set(path: str, sequences: list[ChipSequence]) -> None:
    """Serialize a sequence set; floats keep full round-trip precision."""
    _write_text(path, _json_text({
        "format_version": FORMAT_VERSION,
        "n_chips": sequences[0].n_chips,
        "sequences": [
            {
                "label": s.label,
                "entries": [[float(z.real), float(z.imag)] for z in s.entries],
            }
            for s in sequences
        ],
    }))


def read_sequence_set(path: str) -> list[ChipSequence]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors are ValueErrors
        raise CliError(f"cannot read sequence set {path!r}: {exc}") from exc
    try:
        # JSON true/false decode to bool, which == and complex() take as 1 and 0;
        # complex() raises OverflowError on an integer beyond the float range
        version = payload["format_version"]
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise CliError(f"unsupported format_version {version} in {path!r}")
        n_chips = payload["n_chips"]
        if type(n_chips) is not int:
            raise CliError(f"malformed sequence set {path!r}: n_chips must be a JSON integer")
        sequences = []
        for item in payload["sequences"]:
            label, rows = item["label"], item["entries"]
            if type(label) is not str:
                raise CliError(f"malformed sequence set {path!r}: label must be a JSON string")
            if not set(map(type, itertools.chain.from_iterable(rows))) <= _JSON_NUMBERS:
                raise CliError(f"malformed sequence set {path!r}: entries must be JSON numbers")
            entries = np.array([complex(re, im) for re, im in rows])
            if entries.shape[0] != n_chips:
                raise CliError(f"sequence length mismatch in {path!r}")
            if not np.all(np.isfinite(entries.view(float))):
                raise CliError(f"non-finite entries in {path!r}")
            sequences.append(ChipSequence(entries, label=label))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"malformed sequence set {path!r}: {exc}") from exc
    if not sequences:
        raise CliError(f"sequence set {path!r} is empty")
    return sequences


def _write_manifest(directory: str, args: argparse.Namespace) -> None:
    _write_text(os.path.join(directory, "manifest.json"), _json_text({
        "command": args.command,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }, default=str))


def _snr_value(value: float) -> object:
    """An SNR for output: the value, or the marker "unbounded" for an infinite one."""
    return "unbounded" if value == math.inf else value


def _fields(record) -> dict:
    """A dataclass record's fields by name in declaration order; unlike asdict, no copy."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _quality_fields(quality) -> dict:
    """A set's quality record as output values, keyed by its fields in declaration order."""
    values = {name: _fields(value) if dataclasses.is_dataclass(value) else value
              for name, value in _fields(quality).items()}
    return dict(values, snr=[_snr_value(value) for value in quality.snr])


CSV_HEADER = ["label", *(f.name for f in dataclasses.fields(CorrelationPeaks)), "snr"]


def _csv_row(label: str, quality) -> list[str]:
    """The peaks of a set and the SNR of its first scored user, as one CSV row."""
    return [label, *map(repr, _fields(quality.peaks).values()), str(_snr_value(quality.snr[0]))]


def _thread_count(threads) -> int:
    """--threads as a worker count; 0 or absent means machine parallelism."""
    if threads is not None and threads < 0:
        raise CliError("--threads must not be negative")
    return threads or os.cpu_count() or 1


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise CliError(f"{flag} expects a comma-separated list of integers") from exc
    if not values:
        raise CliError(f"{flag} must name at least one value")
    return values


def _user_set(args):
    """(users, selected sequences, CdmaConfig) from the set_file, --users and physics flags."""
    sequences = read_sequence_set(args.set_file)
    users = _parse_int_list(args.users, "--users")
    for u in users:
        if not 1 <= u <= len(sequences):
            raise CliError(f"user {u} out of range 1..{len(sequences)}")
    if len(set(users)) != len(users):
        raise CliError("duplicate user indices")
    selected = [sequences[u - 1] for u in users]
    cfg = CdmaConfig(
        n_chips=selected[0].n_chips,
        n_users=len(selected),
        power=args.power,
        symbol_duration=args.symbol_duration,
        noise_density=args.noise,
    )
    return users, selected, cfg


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    if args.family == "gold":
        family = gold_family(args.degree)
        if args.indices is not None:
            picks = _parse_int_list(args.indices, "--indices")
            for idx in picks:
                if not 0 <= idx < len(family):
                    raise CliError(f"gold index {idx} out of range 0..{len(family) - 1}")
            family = [family[idx] for idx in picks]
        sequences = family
    elif args.family == "fzc":
        ms = _parse_int_list(args.m, "--m")
        sequences = [fzc_sequence(args.n, m) for m in ms]
    else:  # tone
        ks = _parse_int_list(args.k, "--k")
        sequences = [single_tone_sequence(args.n, k) for k in ks]
    write_sequence_set(args.out, sequences)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _write_manifest(out_dir, args)
    print(f"wrote {len(sequences)} sequences of length {sequences[0].n_chips} to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    users, selected, cfg = _user_set(args)
    quality = _set_quality(cfg, selected, range(1, len(selected) + 1))
    payload = {
        "command": args.command,
        "n_chips": cfg.n_chips,
        "users": users,
        "labels": [s.label for s in selected],
        "power": args.power,
        "symbol_duration": args.symbol_duration,
        "noise_density": args.noise,
        **_quality_fields(quality),
    }
    # the report is serialized first, so that a refused report writes no CSV,
    # and the CSV goes before the report, so that a failed write prints none
    report = _json_text(payload)
    if args.csv:
        row = _csv_row("+".join(payload["labels"]), quality)
        _write_csv(args.csv, CSV_HEADER, [row])
        _write_manifest(os.path.dirname(os.path.abspath(args.csv)), args)
    sys.stdout.write(report)
    return EXIT_OK


def _report_payload(report, args) -> dict:
    return {
        "command": args.command,
        "n_chips": report.n_chips,
        "seed": args.seed,
        "converged": report.converged,
        "status": report.status,
        "objective": report.objective,
        "snr": report.snr,
        "e1": report.e1,
        "e2": report.e2,
        "kkt_residual": report.kkt_residual,
        "iterations": report.iterations,
        "restarts": len(report.restarts),
        "restarts_converged": sum(r.converged for r in report.restarts),
        # the emitted pair as evaluate scores sequences.json under the default physics
        "pair": _quality_fields(_set_quality(
            CdmaConfig(n_chips=report.n_chips, n_users=2), report.best_sequences, (1, 2))),
    }


RESTARTS_HEADER = ["index", "seed", "iterations", "objective", "kkt", "e1", "e2",
                   "converged", "status"]


def _restart_rows(report) -> list[list[str]]:
    """One restarts.csv row per restart of a multi-restart report."""
    return [
        [str(index), str(r.seed), str(r.iterations), repr(r.objective), repr(r.kkt_residual),
         repr(r.e1), repr(r.e2), str(int(r.converged)), r.status]
        for index, r in enumerate(report.restarts, start=1)
    ]


def cmd_optimize(args) -> int:
    if args.n < 2:
        raise CliError("--n must be at least 2")
    cfg = SolverConfig(
        restarts=args.restarts,
        max_iterations=args.max_iter,
        kkt_tolerance=args.tol,
        constraint_tolerance=args.constraint_tol,
        seed=args.seed,
    )
    report = solve_multistart(args.n, cfg, threads=_thread_count(args.threads))
    _output_dir(args.out)
    write_sequence_set(os.path.join(args.out, "sequences.json"), report.best_sequences)
    _write_text(os.path.join(args.out, "report.json"),
                _json_text(_report_payload(report, args)))
    _write_csv(os.path.join(args.out, "restart_snrs.csv"), ["snr"],
               [[repr(r.snr)] for r in report.restarts])
    _write_csv(os.path.join(args.out, "restarts.csv"), RESTARTS_HEADER, _restart_rows(report))
    _write_manifest(args.out, args)
    print(f"best snr: {report.snr}")
    print(f"e1: {report.e1}")
    print(f"e2: {report.e2}")
    if not report.converged:
        print(f"FAILED: {report.status}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_simulate(args) -> int:
    users, selected, cfg = _user_set(args)
    if args.trials < 100:
        raise CliError("--trials must be at least 100")
    _thread_count(args.threads)  # a negative count is a usage error; the count has no effect
    estimate = estimate_snr(cfg, selected, 1, args.trials, args.seed)
    analytic = snr(cfg, selected, 1)
    if estimate.var_interference_stderr > 0:
        z = (estimate.var_interference_mean - analytic.interference_variance) / (
            estimate.var_interference_stderr
        )
    else:
        z = None
    payload = {
        "command": args.command,
        "n_chips": cfg.n_chips,
        "users": users,
        "labels": [s.label for s in selected],
        "trials": args.trials,
        "seed": args.seed,
        "estimate": {
            "var_interference_mean": estimate.var_interference_mean,
            "var_interference_stderr": estimate.var_interference_stderr,
            "snr": _snr_value(estimate.snr_estimate),
        },
        "analytic": {
            "var_interference": analytic.interference_variance,
            "snr": _snr_value(analytic.snr),
        },
        "z_score": z,
    }
    # as in evaluate: serialized first, then the files, then the printed report
    report = _json_text(payload)
    if args.out:
        _output_dir(args.out)
        _write_text(os.path.join(args.out, "simulate.json"), report)
        _write_manifest(args.out, args)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_scatter(args) -> int:
    rows = []
    for path in args.set_files:
        try:
            sequences = read_sequence_set(path)
            cfg = CdmaConfig(n_chips=sequences[0].n_chips, n_users=len(sequences))
            quality = _set_quality(cfg, sequences, [1])  # user 1 only: the row has one SNR column
        except (CliError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        rows.append(_csv_row(os.path.splitext(os.path.basename(path))[0], quality))
    if not rows:
        raise CliError("no readable sequence sets")
    _write_csv(args.out, CSV_HEADER, rows)
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), args)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    parser = _Parser(prog="spreadopt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spreadopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a baseline sequence family to a file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gold = gen_sub.add_parser("gold", help="Gold family (two m-sequences plus combinations)")
    gold.add_argument("--degree", type=int, default=5, help="LFSR degree (5, 6 or 7)")
    gold.add_argument("--indices", type=str, default=None,
                      help="comma-separated family indices to keep (default: all)")
    gold.set_defaults(func=cmd_generate)
    fzc = gen_sub.add_parser("fzc", help="Frank-Zadoff-Chu sequences")
    fzc.add_argument("--n", type=int, required=True, help="sequence length")
    fzc.add_argument("--m", type=str, required=True,
                     help="comma-separated root indices, each coprime to n")
    fzc.set_defaults(func=cmd_generate)
    tone = gen_sub.add_parser("tone", help="single complex tones")
    tone.add_argument("--n", type=int, required=True, help="sequence length")
    tone.add_argument("--k", type=str, required=True,
                      help="comma-separated tone indices in 0..n-1")
    tone.set_defaults(func=cmd_generate)
    for p in (gold, fzc, tone):
        p.add_argument("--out", type=str, required=True, help="output sequence-set path")

    ev = sub.add_parser("evaluate", help="SNR, correlation peaks and Sarwate bound")
    opt = sub.add_parser("optimize", help="multi-restart two-user sequence design")
    sim = sub.add_parser("simulate", help="Monte Carlo check of the interference model")
    # the user-set flags; argparse lists flags in the order they are added, so
    # simulate's --trials and --seed go between --users and --power
    for p, int_flags in ((ev, {}), (sim, {"--trials": 100000, "--seed": 0})):
        p.add_argument("set_file", type=str)
        p.add_argument("--users", type=str, required=True,
                       help="comma-separated 1-based user indices, e.g. 1,2")
        for flag, default in int_flags.items():
            p.add_argument(flag, type=int, default=default)
        p.add_argument("--power", type=float, default=CdmaConfig.power)
        p.add_argument("--symbol-duration", type=float, default=CdmaConfig.symbol_duration)
        p.add_argument("--noise", type=float, default=CdmaConfig.noise_density,
                       help="one-sided noise density N0")

    ev.add_argument("--csv", type=str, default=None, help="also write a scatter-style CSV row")
    ev.set_defaults(func=cmd_evaluate)

    opt.add_argument("--n", type=int, required=True, help="sequence length")
    opt.add_argument("--restarts", type=int, default=200)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--tol", type=float, default=SolverConfig.kkt_tolerance,
                     help="KKT residual tolerance")
    opt.add_argument("--constraint-tol", type=float, default=SolverConfig.constraint_tolerance)
    opt.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
    opt.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: machine parallelism)")
    opt.add_argument("--out", type=str, required=True, help="output directory")
    opt.set_defaults(func=cmd_optimize)

    sim.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility; simulate runs on one thread")
    sim.add_argument("--out", type=str, default=None, help="optional output directory")
    sim.set_defaults(func=cmd_simulate)

    sc = sub.add_parser("scatter", help="peak/SNR CSV rows for several sequence sets")
    sc.add_argument("set_files", nargs="+", type=str)
    sc.add_argument("--out", type=str, required=True, help="output CSV path")
    sc.set_defaults(func=cmd_scatter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
