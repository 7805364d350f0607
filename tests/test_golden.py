"""Golden outputs: CLI bytes pinned across commits.

Each case runs a CLI command on deterministic inputs and compares what it
prints, byte for byte, with a fixture under ``tests/data/golden``.
A change that is meant to keep every number (a refactor, a deduplication)
must leave all of them untouched.  A change that is meant to move numbers
regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.  ``optimize`` is not pinned here: its
iterates depend on the BLAS thread count (at N = 8 one OpenBLAS thread and the
default thread count give different sequences.json, report.json and
restart_snrs.csv), so its bytes are a property of the host, not of the code.
"""

import contextlib
import io
import os
import sys

import pytest

from spreadopt.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


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


def _case_output(case, workdir) -> bytes:
    """Stdout of one golden case; its fixture is ``<case>.json``."""
    gold, fzc = _inputs(workdir)
    if case == "evaluate_gold":
        return _stdout_of(["evaluate", gold, "--users", "1,2"])
    if case == "evaluate_fzc127":
        return _stdout_of(["evaluate", fzc, "--users", "1,2"])
    if case == "simulate_gold":
        return _stdout_of(["simulate", gold, "--users", "1,2", "--threads", "1",
                           "--trials", "20000", "--seed", "123"])
    raise ValueError(f"unknown golden case {case!r}")


CASES = ("evaluate_gold", "evaluate_fzc127", "simulate_gold")


def _fixture(case) -> str:
    return os.path.join(GOLDEN_DIR, f"{case}.json")


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, tmp_path):
    with open(_fixture(case), "rb") as fh:
        expected = fh.read()
    assert _case_output(case, str(tmp_path)) == expected


def _regenerate():
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            data = _case_output(case, workdir)
        with open(_fixture(case), "wb") as fh:
            fh.write(data)
        print(f"wrote {_fixture(case)}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
