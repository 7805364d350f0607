"""Golden outputs: CLI bytes pinned across commits.

Each case runs a CLI command on deterministic inputs and compares what it
prints or writes, byte for byte, with fixtures under ``tests/data/golden``.
A change that is meant to keep every number (a refactor, a deduplication)
must leave all of them untouched.  A change that is meant to move numbers
regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.  That script prints the OpenBLAS kernel
once, then each fixture as unchanged or with its added and removed line
counts, and rewrites only the fixtures that changed.  The ``optimize`` cases
pin the files of two design runs: N = 8, where the trust-region polish does
most of the work, and N = 31, the benchmark's size, where the block-minimizer
sweeps take most of the iterations.  Each restart runs with OpenBLAS pinned to one thread, so
their bytes do not depend on the thread count.  They do depend on the kernel
OpenBLAS picks for the CPU: the solver's ``eigh`` and matrix products round
differently per kernel, and the fixtures were made under the SkylakeX kernel
with numpy 2.4.6, so a mismatch names the kernel of the run.  Every other
command makes no BLAS call whose result reaches its output, so its bytes are
the same under every kernel; a subprocess test checks this for ``simulate``
and ``evaluate``.  The ``simulate_gold3`` case
has two interferers and a one-trial tail block, and passes ``--threads 2``,
which simulate accepts and ignores.  The
``evaluate_gold5`` case scores five users in an order other than the set's,
so it pins the order in which each user's interferers are summed.  The
``generate``, ``evaluate_csv``, ``scatter`` and ``simulate_out`` cases pin
the files each file-writing command leaves behind (manifests excepted: they
carry a timestamp and absolute paths).
"""

import contextlib
import ctypes
import glob
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from spreadopt.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "data", "golden")

OPTIMIZE_FILES = ("sequences.json", "report.json", "restart_snrs.csv", "restarts.csv")

OPTIMIZE_ARGS = {
    "optimize_n8": ["--n", "8", "--restarts", "4", "--seed", "99"],
    "optimize_n31": ["--n", "31", "--restarts", "4", "--seed", "20260810"],
}


def _stdout_of(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return buf.getvalue().encode()


def _inputs(workdir):
    gold = os.path.join(workdir, "gold.json")
    fzc = os.path.join(workdir, "fzc127.json")
    _stdout_of(["generate", "gold", "--degree", "5", "--indices", "2,3", "--out", gold])
    _stdout_of(["generate", "fzc", "--n", "127", "--m", "1,2", "--out", fzc])
    return gold, fzc


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _gold5(workdir):
    gold5 = os.path.join(workdir, "gold5.json")
    _stdout_of(["generate", "gold", "--degree", "5", "--indices", "2,3,4,5,6", "--out", gold5])
    return gold5


def _tone(workdir):
    tone = os.path.join(workdir, "tone.json")
    _stdout_of(["generate", "tone", "--n", "16", "--k", "1,5", "--out", tone])
    return tone


def _case_outputs(case, workdir) -> dict[str, bytes]:
    """Fixture file name -> bytes for one golden case."""
    gold, fzc = _inputs(workdir)
    if case == "evaluate_gold":
        return {f"{case}.json": _stdout_of(["evaluate", gold, "--users", "1,2"])}
    if case == "evaluate_fzc127":
        return {f"{case}.json": _stdout_of(["evaluate", fzc, "--users", "1,2"])}
    if case == "evaluate_gold5":
        return {f"{case}.json": _stdout_of(["evaluate", _gold5(workdir), "--users", "5,1,4,2,3",
                                            "--noise", "0.01"])}
    if case == "simulate_gold":
        return {f"{case}.json": _stdout_of(["simulate", gold, "--users", "1,2", "--threads", "1",
                                            "--trials", "20000", "--seed", "123"])}
    if case == "simulate_gold3":
        gold3 = os.path.join(workdir, "gold3.json")
        _stdout_of(["generate", "gold", "--degree", "5", "--indices", "2,3,4", "--out", gold3])
        return {f"{case}.json": _stdout_of(["simulate", gold3, "--users", "1,2,3", "--threads", "2",
                                            "--trials", "8193", "--seed", "7"])}
    if case in OPTIMIZE_ARGS:
        out = os.path.join(workdir, "run")
        _stdout_of(["optimize", *OPTIMIZE_ARGS[case], "--threads", "1", "--out", out])
        outputs = {}
        for name in OPTIMIZE_FILES:
            with open(os.path.join(out, name), "rb") as fh:
                outputs[f"{case}_{name}"] = fh.read()
        return outputs
    if case == "generate":
        return {f"{case}_gold.json": _read(gold), f"{case}_fzc127.json": _read(fzc),
                f"{case}_tone.json": _read(_tone(workdir))}
    if case == "evaluate_csv":
        csv_path = os.path.join(workdir, "evaluate.csv")
        stdout = _stdout_of(["evaluate", gold, "--users", "2,1", "--power", "2",
                             "--symbol-duration", "0.5", "--noise", "0.01", "--csv", csv_path])
        return {f"{case}.json": stdout, f"{case}.csv": _read(csv_path)}
    if case == "scatter":
        csv_path = os.path.join(workdir, "scatter.csv")
        missing = os.path.join(workdir, "missing.json")
        single = os.path.join(workdir, "single.json")  # one user: an unbounded SNR
        _stdout_of(["generate", "tone", "--n", "8", "--k", "3", "--out", single])
        with contextlib.redirect_stderr(io.StringIO()):
            _stdout_of(["scatter", gold, fzc, _tone(workdir), missing, single, "--out", csv_path])
        return {f"{case}.csv": _read(csv_path)}
    if case == "simulate_out":
        out = os.path.join(workdir, "sim")
        _stdout_of(["simulate", gold, "--users", "1,2", "--threads", "2", "--trials", "9000",
                    "--seed", "5", "--noise", "0.02", "--out", out])
        return {f"{case}.json": _read(os.path.join(out, "simulate.json"))}
    raise ValueError(f"unknown golden case {case!r}")


CASES = ("evaluate_gold", "evaluate_fzc127", "evaluate_gold5", "simulate_gold", "simulate_gold3",
         "optimize_n8", "optimize_n31", "generate", "evaluate_csv", "scatter", "simulate_out")


def _openblas_core() -> str:
    """The kernel numpy's bundled scipy-openblas picked for this CPU."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown (no scipy-openblas found)"


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, tmp_path):
    for name, data in _case_outputs(case, str(tmp_path)).items():
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert data == fh.read(), (
                f"{name}: made under OpenBLAS kernel SkylakeX, run under {_openblas_core()}"
                if case in OPTIMIZE_ARGS else name)


def test_bytes_do_not_depend_on_the_openblas_kernel(tmp_path):
    gold, fzc = _inputs(str(tmp_path))
    gold5 = _gold5(str(tmp_path))
    script = (
        "from spreadopt.cli import main\n"
        f"main(['simulate', {gold!r}, '--users', '1,2', '--threads', '1',"
        " '--trials', '20000', '--seed', '123'])\n"
        f"main(['evaluate', {fzc!r}, '--users', '1,2'])\n"
        f"main(['evaluate', {gold5!r}, '--users', '5,1,4,2,3', '--noise', '0.01'])\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    outputs = [
        subprocess.run([sys.executable, "-c", script], env=dict(env, **extra), cwd=tmp_path,
                       capture_output=True, check=True).stdout
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
    ]
    assert outputs[0] == outputs[1]


def _regenerate():
    """Rewrite each fixture whose bytes changed; print the kernel and each fixture's diff."""
    import difflib
    import tempfile

    print(f"OpenBLAS kernel: {_openblas_core()}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = _case_outputs(case, workdir)
        for name, data in outputs.items():
            path = os.path.join(GOLDEN_DIR, name)
            old = _read(path) if os.path.exists(path) else b""
            if data == old:
                print(f"{name}: unchanged")
                continue
            diff = list(difflib.unified_diff(old.decode().splitlines(),
                                             data.decode().splitlines(), lineterm="", n=0))[2:]
            added = sum(line.startswith("+") for line in diff)
            removed = sum(line.startswith("-") for line in diff)
            with open(path, "wb") as fh:
                fh.write(data)
            print(f"{name}: +{added} -{removed} lines, rewritten")


if __name__ == "__main__":
    _regenerate()
