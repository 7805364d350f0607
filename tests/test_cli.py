import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spreadopt import __version__, cli, optimizer
from spreadopt.cli import main, read_sequence_set, write_sequence_set
from spreadopt.interference import CdmaConfig, interference_variance_direct
from spreadopt.metrics import correlation_peaks, sarwate_check
from spreadopt.optimizer import restart_seed
from spreadopt.sequences import ChipSequence, gold_pair
from spreadopt.spectral import decompose
from test_metrics import brute_force_peaks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, *argv, names):
    """argv exits 1 with nothing on stdout and each of ``names`` on stderr."""
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    for name in names:
        assert name in stderr


def make_pair_files(tmp_path):
    gold = tmp_path / "gold.json"
    fzc = tmp_path / "fzc.json"
    tone = tmp_path / "tone.json"
    assert main(["generate", "gold", "--degree", "5", "--indices", "2,3",
                 "--out", str(gold)]) == 0
    assert main(["generate", "fzc", "--n", "31", "--m", "1,2", "--out", str(fzc)]) == 0
    assert main(["generate", "tone", "--n", "31", "--k", "1,2", "--out", str(tone)]) == 0
    return gold, fzc, tone


class TestGenerate:
    def test_gold_family_file(self, tmp_path, capsys):
        out = tmp_path / "gold_all.json"
        code, stdout, _ = run(capsys, "generate", "gold", "--degree", "5",
                              "--out", str(out))
        assert code == 0
        assert "33 sequences" in stdout and "31" in stdout
        sequences = read_sequence_set(str(out))
        assert len(sequences) == 33
        assert all(s.n_chips == 31 for s in sequences)

    def test_fzc_gcd_failure(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "fzc", "--n", "31", "--m", "31",
                              "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "prime" in stderr

    def test_tone_single_sequence(self, tmp_path, capsys):
        out = tmp_path / "tone1.json"
        code, _, _ = run(capsys, "generate", "tone", "--n", "31", "--k", "1",
                         "--out", str(out))
        assert code == 0
        (seq,) = read_sequence_set(str(out))
        assert np.allclose(np.abs(seq.entries), 1.0, atol=1e-12)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "gold.json"
        assert main(["generate", "gold", "--degree", "5", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert "timestamp" in manifest and "version" in manifest


class TestSequenceSetFile:
    def test_round_trip_byte_identical(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_sequence_set(str(path_a), list(gold_pair(5)))
        sequences = read_sequence_set(str(path_a))
        write_sequence_set(str(path_b), sequences)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_full_precision_floats(self, tmp_path):
        from spreadopt.sequences import fzc_sequence

        path = tmp_path / "fzc.json"
        original = fzc_sequence(31, 1)
        write_sequence_set(str(path), [original])
        (loaded,) = read_sequence_set(str(path))
        assert np.array_equal(loaded.entries, original.entries)

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "n_chips": 4}')
        code, _, stderr = run(capsys, "evaluate", str(bad), "--users", "1")
        assert code == 1
        assert "malformed" in stderr or "cannot read" in stderr

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",
        b'{"format_version": 1, "n_chips": ' + b"9" * 5000 + b"}",
    ], ids=["not-utf-8", "integer-beyond-digit-limit"])
    def test_undecodable_file_names_the_file(self, tmp_path, capsys, content):
        bad = tmp_path / "undecodable.json"
        bad.write_bytes(content)
        code, stdout, stderr = run(capsys, "evaluate", str(bad), "--users", "1")
        assert code == 1
        assert stdout == ""
        assert f"cannot read sequence set {str(bad)!r}" in stderr

    @pytest.mark.parametrize("version, entries", [
        (1, [[True, False], [False, True]]),
        (1, [[1.0, 0.0], [0.0, False]]),
        (True, [[1.0, 0.0], [0.0, 1.0]]),
    ], ids=["boolean-entries", "one-boolean-component", "boolean-format-version"])
    def test_json_booleans_rejected(self, tmp_path, capsys, version, entries):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({"format_version": version, "n_chips": 2,
                                   "sequences": [{"label": "b", "entries": entries}]}))
        code, stdout, stderr = run(capsys, "evaluate", str(bad), "--users", "1")
        assert code == 1
        assert stdout == ""
        assert "malformed" in stderr or "format_version" in stderr

    @pytest.mark.parametrize("label", [None, {"a": 1}, 3], ids=["null", "object", "number"])
    def test_non_string_label_rejected(self, tmp_path, capsys, label):
        bad = tmp_path / "label.json"
        item = {"label": label, "entries": [[1.0, 0.0], [0.0, 1.0]]}
        bad.write_text(json.dumps({"format_version": 1, "n_chips": 2, "sequences": [item]}))
        code, stdout, stderr = run(capsys, "evaluate", str(bad), "--users", "1")
        assert code == 1
        assert stdout == ""
        assert f"malformed sequence set {str(bad)!r}: label must be a JSON string" in stderr

    @pytest.mark.parametrize("n_chips", ["2", 2.9, 2.0, True],
                             ids=["string", "fraction", "integral-float", "boolean"])
    def test_non_integer_n_chips_rejected(self, tmp_path, capsys, n_chips):
        bad = tmp_path / "count.json"
        bad.write_text(json.dumps({"format_version": 1, "n_chips": n_chips,
                                   "sequences": [{"label": "b", "entries": [[1.0, 0.0], [0.0, 1.0]]}]}))
        code, stdout, stderr = run(capsys, "evaluate", str(bad), "--users", "1")
        assert code == 1
        assert stdout == ""
        assert "n_chips must be a JSON integer" in stderr

    @pytest.mark.parametrize("n_chips, sequences, message", [
        (3, [[[1.0, 0.0], [0.0, 1.0]]], "sequence length mismatch"),
        (2, [[[1e400, 0.0], [0.0, 1.0]]], "non-finite entries"),
        (2, [], "is empty"),
        (2, [[[10**400, 0], [0.0, 1.0]]], "malformed sequence set"),
    ], ids=["length-mismatch", "non-finite", "empty", "integer-beyond-float"])
    def test_invalid_contents_rejected(self, tmp_path, capsys, n_chips, sequences, message):
        bad = tmp_path / "bad.json"
        # json.dumps writes 1e400 as Infinity, which json.load reads back as inf
        bad.write_text(json.dumps({"format_version": 1, "n_chips": n_chips, "sequences": [
            {"label": "b", "entries": entries} for entries in sequences]}))
        code, stdout, stderr = run(capsys, "evaluate", str(bad), "--users", "1")
        assert code == 1
        assert stdout == ""
        assert message in stderr


class TestEvaluate:
    def test_gold_pair_peaks(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(capsys, "evaluate", str(gold), "--users", "1,2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["peaks"]["theta_a"] == pytest.approx(9.0, abs=1e-9)
        assert payload["peaks"]["theta_c"] == pytest.approx(9.0, abs=1e-9)
        assert payload["snr"][0] == payload["snr"][1]

    def test_fzc_sarwate_equality(self, tmp_path, capsys):
        _, fzc, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(capsys, "evaluate", str(fzc), "--users", "1,2")
        payload = json.loads(stdout)
        assert code == 0
        assert payload["sarwate"]["lhs_periodic"] == pytest.approx(1.0, abs=1e-9)

    def test_single_user_unbounded_marker(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(capsys, "evaluate", str(gold), "--users", "1",
                              "--noise", "0")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["snr"] == ["unbounded"]
        assert payload["sarwate"] is None

    def test_three_user_set(self, tmp_path, capsys):
        gold = tmp_path / "gold3.json"
        out = tmp_path / "gold3.csv"
        assert main(["generate", "gold", "--degree", "5", "--indices", "2,3,4",
                     "--out", str(gold)]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "evaluate", str(gold), "--users", "1,2,3",
                              "--csv", str(out))
        assert code == 0
        payload = json.loads(stdout)
        peaks = correlation_peaks([decompose(s) for s in read_sequence_set(str(gold))])
        assert payload["peaks"] == dataclasses.asdict(peaks)
        assert payload["sarwate"] == dataclasses.asdict(sarwate_check(peaks, 31, 3))
        assert len(payload["snr"]) == 3
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == cli.CSV_HEADER
        assert len(row) == len(header)

    def test_underflowing_noise_snr_is_finite(self, tmp_path, capsys):
        # N0 / (2PT) would round to 0.0 for this positive N0, which is refused
        tone = tmp_path / "tone.json"
        assert main(["generate", "tone", "--n", "8", "--k", "1", "--out", str(tone)]) == 0
        capsys.readouterr()
        out = tmp_path / "ev" / "ev.csv"
        out.parent.mkdir()
        assert_refused(capsys, "evaluate", str(tone), "--users", "1", "--noise", "5e-324",
                       "--power", "100", "--csv", str(out), names=["noise_density", "5e-324"])
        assert list(out.parent.iterdir()) == []

    def test_overflowing_report_refused_without_files(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        out = tmp_path / "ev" / "ev.csv"
        out.parent.mkdir()
        assert_refused(capsys, "evaluate", str(gold), "--users", "1,2", "--power", "1e300",
                       "--symbol-duration", "1e10", "--csv", str(out),
                       names=["power", "1e+300"])
        assert list(out.parent.iterdir()) == []

    def test_nan_peaks_refused(self, tmp_path, capsys):
        # the chip's square overflows, so the set is refused before any peak
        huge = tmp_path / "huge.json"
        write_sequence_set(str(huge), [ChipSequence(np.array([1e200, 1.0, 1.0, 1.0]))])
        assert_refused(capsys, "evaluate", str(huge), "--users", "1",
                       names=["mean chip power of user 1", "got inf"])

    def test_bad_user_selection(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, _, _ = run(capsys, "evaluate", str(gold), "--users", "1,5")
        assert code == 1

    def test_csv_row_matches_scatter_row(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        eval_csv = tmp_path / "evaluate.csv"
        scatter_csv = tmp_path / "scatter.csv"
        assert main(["evaluate", str(gold), "--users", "1,2", "--csv", str(eval_csv)]) == 0
        assert main(["scatter", str(gold), "--out", str(scatter_csv)]) == 0
        with open(eval_csv, newline="") as fh:
            eval_rows = list(csv.reader(fh))
        with open(scatter_csv, newline="") as fh:
            scatter_rows = list(csv.reader(fh))
        assert eval_rows[0] == scatter_rows[0]
        assert len(eval_rows) == len(scatter_rows) == 2
        eval_row, scatter_row = eval_rows[1], scatter_rows[1]
        assert eval_row[0] == "gold(degree=5,index=2)+gold(degree=5,index=3)"
        assert scatter_row[0] == "gold"
        assert eval_row[1:] == scatter_row[1:]


    def test_long_code_pair(self, tmp_path, capsys):
        # the spectral core keeps no per-N table: at N = 4095 the dense N x N
        # basis and phase tables it replaced would need about 1 GB
        n = 4095
        rng = np.random.default_rng(4095)
        pair = [rng.choice([-1.0, 1.0], size=n).astype(complex) for _ in range(2)]
        path = tmp_path / "long.json"
        write_sequence_set(str(path), [ChipSequence(s, label=f"random-{k}")
                                       for k, s in enumerate(pair, start=1)])
        tracemalloc.start()
        try:
            code, stdout, _ = run(capsys, "evaluate", str(path), "--users", "1,2")
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak_bytes < 16 * 2**20
        payload = json.loads(stdout)
        var_i = interference_variance_direct(CdmaConfig(n_chips=n, n_users=2), pair, 1)
        assert payload["interference_variance"][0] == pytest.approx(var_i, rel=1e-9)
        assert payload["snr"][0] == pytest.approx(math.sqrt(0.5 / var_i), rel=1e-9)
        got = [payload["peaks"][k] for k in ("theta_a", "theta_c", "theta_hat_a", "theta_hat_c")]
        assert got == pytest.approx(brute_force_peaks(pair), abs=1e-12 * n)


class TestOptimize:
    def test_run_is_reproducible_and_consistent(self, tmp_path, capsys):
        args = ["optimize", "--n", "8", "--restarts", "3", "--seed", "7",
                "--threads", "1"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("sequences.json", "report.json", "restart_snrs.csv", "restarts.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        report = json.loads((out_a / "report.json").read_text())
        assert report["converged"] is True
        assert report["e1"] <= 1e-8
        assert report["e2"] <= 1e-8

        # evaluating the emitted sequences reproduces the reported SNR
        capsys.readouterr()
        code, stdout, _ = run(capsys, "evaluate", str(out_a / "sequences.json"),
                              "--users", "1,2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["snr"][0] == pytest.approx(report["snr"], rel=1e-9)

        snr_lines = (out_a / "restart_snrs.csv").read_text().splitlines()
        assert snr_lines[0] == "snr"
        assert len(snr_lines) == 1 + 3

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        base = ["optimize", "--n", "8", "--restarts", "2", "--seed", "3"]
        out_a = tmp_path / "t1"
        out_b = tmp_path / "t2"
        assert main(base + ["--threads", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--threads", "2", "--out", str(out_b)]) == 0
        for name in ("sequences.json", "report.json", "restart_snrs.csv", "restarts.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_openblas_thread_count_does_not_change_outputs(self, tmp_path):
        # at N = 62 multi-threaded OpenBLAS rounds the solver's 124- and
        # 248-wide products and eigen-decompositions differently from one
        # thread; each restart pins it to one
        src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        outs = []
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            outs.append(tmp_path / f"run{len(outs)}")
            subprocess.run([sys.executable, "-m", "spreadopt.cli", "optimize", "--n", "62",
                            "--restarts", "6", "--seed", "3", "--threads", "1",
                            "--out", str(outs[-1])],
                           env={**env, **extra}, capture_output=True, check=True)
        for name in ("sequences.json", "report.json", "restart_snrs.csv", "restarts.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_restarts_csv_describes_every_restart(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--n", "8", "--restarts", "3", "--seed", "7",
                     "--threads", "1", "--out", str(out)]) == 0
        with open(out / "restarts.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["index", "seed", "iterations", "objective", "kkt",
                                 "e1", "e2", "converged", "status"]
        assert [int(r["index"]) for r in rows] == [1, 2, 3]
        assert [int(r["seed"]) for r in rows] == [restart_seed(7, t) for t in (1, 2, 3)]
        report = json.loads((out / "report.json").read_text())
        assert sum(int(r["converged"]) for r in rows) == report["restarts_converged"]
        snrs = (out / "restart_snrs.csv").read_text().splitlines()[1:]
        for row, snr_text in zip(rows, snrs, strict=True):
            assert int(row["iterations"]) >= 1
            objective = float(row["objective"])
            assert float(snr_text) == (objective / (6 * 8**2)) ** -0.5
            if row["converged"] == "1":
                assert row["status"] == "converged"
                assert float(row["kkt"]) <= 1e-9
                assert float(row["e1"]) <= 1e-8 and float(row["e2"]) <= 1e-8
        best = [r for r in rows if float(r["objective"]) == report["objective"]]
        assert int(best[0]["iterations"]) == report["iterations"]

    def test_collapsed_trust_region_in_restarts_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "_polish_step",
                            lambda z, value, radius, model, n: (z, value, 0.0, model))
        out = tmp_path / "run"
        code, _, stderr = run(capsys, "optimize", "--n", "8", "--restarts", "2", "--seed", "99",
                              "--threads", "1", "--out", str(out))
        assert code == 2
        assert "FAILED: no restart converged in 2 attempts" in stderr
        with open(out / "restarts.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["converged"] for r in rows] == ["0", "0"]
        for row in rows:
            assert row["status"].startswith(
                "stopped without reaching tolerances: trust region collapsed (kkt=")
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False and report["restarts_converged"] == 0

    def test_arithmetic_error_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def failing_solve(n_chips, cfg, threads=1):
            raise ArithmeticError("overflow in the objective")

        monkeypatch.setattr(cli, "solve_multistart", failing_solve)
        code, _, stderr = run(capsys, "optimize", "--n", "8", "--restarts", "1",
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert stderr.startswith("numerical failure: overflow in the objective")

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    def test_invalid_max_iter_is_usage_error(self, tmp_path, capsys, max_iter):
        code, _, stderr = run(capsys, "optimize", "--n", "8", "--restarts", "1",
                              "--max-iter", max_iter, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "max_iterations" in stderr

    def test_negative_threads_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "optimize", "--n", "8", "--restarts", "1",
                              "--threads", "-3", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "--threads" in stderr

    def test_zero_convergences_exit_code(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "optimize", "--n", "16", "--restarts", "1",
                              "--seed", "1", "--max-iter", "2",
                              "--out", str(tmp_path / "fail"))
        assert code == 2
        assert "FAILED" in stderr
        # diagnostics still written
        report = json.loads((tmp_path / "fail" / "report.json").read_text())
        assert report["converged"] is False


class TestSimulate:
    def test_gold_pair_z_score(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(capsys, "simulate", str(gold), "--users", "1,2",
                              "--trials", "20000", "--seed", "11")
        assert code == 0
        payload = json.loads(stdout)
        assert abs(payload["z_score"]) <= 3.0
        assert payload["estimate"]["var_interference_stderr"] > 0

    def test_single_user_zero_interference(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(capsys, "simulate", str(gold), "--users", "1",
                              "--trials", "200", "--seed", "2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["estimate"]["var_interference_mean"] == 0.0
        assert payload["estimate"]["snr"] == "unbounded"

    def test_subnormal_noise_snr_is_finite(self, tmp_path, capsys):
        # Var_D / Var_N would overflow for this subnormal N0, which is refused
        tone = tmp_path / "tone.json"
        assert main(["generate", "tone", "--n", "8", "--k", "1", "--out", str(tone)]) == 0
        capsys.readouterr()
        out = tmp_path / "sim"
        assert_refused(capsys, "simulate", str(tone), "--users", "1", "--noise", "4e-310",
                       "--trials", "100", "--out", str(out), names=["noise_density", "4e-310"])
        assert not out.exists()

    def test_underflowing_noise_snr_is_finite(self, tmp_path, capsys):
        # N0 T / 4 would round to 0.0 for this positive N0, which is refused
        tone = tmp_path / "tone.json"
        assert main(["generate", "tone", "--n", "8", "--k", "1", "--out", str(tone)]) == 0
        capsys.readouterr()
        out = tmp_path / "sim"
        assert_refused(capsys, "simulate", str(tone), "--users", "1", "--noise", "5e-324",
                       "--power", "100", "--trials", "100", "--out", str(out),
                       names=["noise_density", "5e-324"])
        assert not out.exists()

    def test_overflowing_report_refused_without_files(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        out = tmp_path / "sim"
        assert_refused(capsys, "simulate", str(gold), "--users", "1,2", "--power", "1e300",
                       "--symbol-duration", "1e10", "--trials", "100", "--out", str(out),
                       names=["power", "1e+300"])
        assert not out.exists()

    def test_same_seed_identical_output(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        argv = ["simulate", str(gold), "--users", "1,2", "--trials", "5000",
                "--seed", "4"]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        argv = ["simulate", str(gold), "--users", "1,2", "--trials", "20000",
                "--seed", "5"]
        _, out_a, _ = run(capsys, *argv, "--threads", "1")
        _, out_b, _ = run(capsys, *argv, "--threads", "4")
        assert out_a == out_b

    def test_trials_floor(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, _, _ = run(capsys, "simulate", str(gold), "--users", "1,2",
                         "--trials", "10", "--seed", "1")
        assert code == 1

    def test_negative_threads_is_usage_error(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        code, _, stderr = run(capsys, "simulate", str(gold), "--users", "1,2",
                              "--trials", "200", "--threads", "-3")
        assert code == 1
        assert "--threads" in stderr


class TestScatter:
    def test_baseline_rows(self, tmp_path, capsys):
        gold, fzc, tone = make_pair_files(tmp_path)
        out_csv = tmp_path / "rows.csv"
        capsys.readouterr()
        code, stdout, _ = run(capsys, "scatter", str(gold), str(fzc), str(tone),
                              "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "label,theta_a,theta_c,theta_hat_a,theta_hat_c,snr"
        assert len(lines) == 4
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["gold"][1]) == pytest.approx(9.0, abs=1e-9)
        assert float(rows["gold"][2]) == pytest.approx(9.0, abs=1e-9)
        assert float(rows["fzc"][1]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows["fzc"][2]) == pytest.approx(math.sqrt(31), abs=1e-9)
        assert float(rows["tone"][1]) == pytest.approx(31.0, abs=1e-9)
        assert float(rows["tone"][2]) == pytest.approx(0.0, abs=1e-9)

    def test_optimized_row_beats_baselines(self, tmp_path, capsys):
        gold, fzc, tone = make_pair_files(tmp_path)
        run_dir = tmp_path / "opt"
        assert main(["optimize", "--n", "31", "--restarts", "1", "--seed", "2",
                     "--threads", "1", "--out", str(run_dir)]) == 0
        out_csv = tmp_path / "all.csv"
        capsys.readouterr()
        code, _, _ = run(capsys, "scatter", str(gold), str(fzc), str(tone),
                         str(run_dir / "sequences.json"), "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()[1:]
        snrs = {line.split(",")[0]: float(line.split(",")[5]) for line in lines}
        assert snrs["sequences"] > max(snrs["gold"], snrs["fzc"], snrs["tone"])

    def test_unreadable_file_skipped_with_warning(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        out_csv = tmp_path / "rows.csv"
        capsys.readouterr()
        code, _, stderr = run(capsys, "scatter", str(gold), str(bad),
                              "--out", str(out_csv))
        assert code == 0
        assert "skipping" in stderr
        assert len(out_csv.read_text().splitlines()) == 2

    def test_no_usable_files_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, _ = run(capsys, "scatter", str(bad), "--out",
                         str(tmp_path / "rows.csv"))
        assert code == 1

    def test_empty_args_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scatter", "--out", str(tmp_path / "rows.csv"))
        assert code == 1


class TestUnwritableOutput:
    """An output file or directory that cannot be created is a usage error naming it."""

    def assert_write_error(self, capsys, path, *argv):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert str(path) in stderr
        assert stdout == ""

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "g.json"
        self.assert_write_error(capsys, out, "generate", "gold", "--degree", "5",
                                "--out", str(out))

    def test_scatter(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        out = tmp_path / "nodir" / "s.csv"
        self.assert_write_error(capsys, out, "scatter", str(gold), "--out", str(out))

    def test_evaluate_csv_prints_no_report(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        out = tmp_path / "ev" / "ev.csv"
        self.assert_write_error(capsys, out, "evaluate", str(gold), "--users", "1,2",
                                "--csv", str(out))

    def test_simulate_out_names_a_file(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        self.assert_write_error(capsys, gold, "simulate", str(gold), "--users", "1,2",
                                "--trials", "200", "--out", str(gold))

    def test_optimize_out_names_a_file(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        self.assert_write_error(capsys, out, "optimize", "--n", "4", "--restarts", "1",
                                "--threads", "1", "--out", str(out))


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_non_finite_parameters_rejected(self, tmp_path, capsys):
        # json.dumps would print NaN or Infinity, which are not JSON
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        for argv in (["evaluate", str(gold), "--users", "1,2", "--power", "nan"],
                     ["optimize", "--n", "8", "--restarts", "1", "--tol", "nan",
                      "--out", str(tmp_path / "o")]):
            code, stdout, stderr = run(capsys, *argv)
            assert code == 1
            assert stdout == ""
            assert "must be finite" in stderr

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "optimize", "--n", "8")[0] == 1

    @pytest.mark.parametrize("argv, message", [
        (["generate", "fzc", "--n", "31", "--m", "1,x", "--out", "OUT"], "list of integers"),
        (["generate", "tone", "--n", "31", "--k", ",", "--out", "OUT"], "at least one value"),
        (["generate", "gold", "--indices", "0,33", "--out", "OUT"],
         "gold index 33 out of range 0..32"),
        (["evaluate", "GOLD", "--users", "1,1"], "duplicate user indices"),
        (["optimize", "--n", "1", "--restarts", "1", "--out", "OUT"], "--n must be at least 2"),
    ], ids=["non-integer-list", "empty-list", "gold-index", "duplicate-users", "optimize-n1"])
    def test_invalid_flag_values(self, tmp_path, capsys, argv, message):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        paths = {"GOLD": str(gold), "OUT": str(tmp_path / "out")}
        code, stdout, stderr = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 1
        assert stdout == ""
        assert message in stderr


class TestInputRange:
    """Values outside the accepted ranges exit 1, name the value and write nothing."""

    @pytest.mark.parametrize("scale", [1e-160, 1e-80])
    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--csv", "OUT/ev.csv"]),
        ("simulate", ["--trials", "100", "--out", "OUT/sim"]),
    ], ids=["evaluate", "simulate"])
    def test_tiny_chips_refused(self, tmp_path, capsys, command, flags, scale):
        # at 1e-160 the interference underflows to 0 and would read as unbounded
        tiny = tmp_path / "tiny.json"
        write_sequence_set(str(tiny), [ChipSequence(scale * s.entries, label=s.label)
                                       for s in gold_pair(5)])
        out = tmp_path / "out"
        out.mkdir()
        assert_refused(capsys, command, str(tiny), "--users", "1,2",
                       *[f.replace("OUT", str(out)) for f in flags],
                       names=["mean chip power of user 1", "in [1e-30, 1e30]"])
        assert list(out.iterdir()) == []

    def test_huge_symbol_duration_refused(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        capsys.readouterr()
        assert_refused(capsys, "evaluate", str(gold), "--users", "1,2",
                       "--symbol-duration", "1e200", names=["symbol_duration", "1e+200"])

    def test_huge_power_refused_for_one_user(self, tmp_path, capsys):
        tone = tmp_path / "tone.json"
        assert main(["generate", "tone", "--n", "8", "--k", "1", "--out", str(tone)]) == 0
        capsys.readouterr()
        assert_refused(capsys, "evaluate", str(tone), "--users", "1", "--power", "1e300",
                       "--symbol-duration", "1e10", "--noise", "1", names=["power", "1e+300"])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_text_refuses_non_finite(self, value):
        with pytest.raises(ValueError, match="Out of range float values are not JSON"):
            cli._json_text({"snr": [1.0, {"value": value}]})


class TestParserReuse:
    """``main`` reuses one parser per process; no call may leak into the next."""

    def test_omitted_flag_takes_its_default(self, tmp_path):
        base = ["optimize", "--n", "8", "--restarts", "2", "--seed", "5", "--threads", "1"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(base + ["--max-iter", "7", "--out", str(out_a)]) in (0, 2)
        assert main(base + ["--out", str(out_b)]) == 0
        flags_a = json.loads((out_a / "manifest.json").read_text())["flags"]
        flags_b = json.loads((out_b / "manifest.json").read_text())["flags"]
        assert flags_a["max_iter"] == 7
        assert flags_b["max_iter"] == 5000
        assert {k: v for k, v in flags_a.items() if k not in ("max_iter", "out")} == {
            k: v for k, v in flags_b.items() if k not in ("max_iter", "out")}

    def test_usage_errors_leave_no_state(self, tmp_path, capsys):
        gold, _, _ = make_pair_files(tmp_path)
        argv = ["evaluate", str(gold), "--users", "1,2"]
        capsys.readouterr()
        first = run(capsys, *argv)
        assert first[0] == 0
        for bad in ([], ["frobnicate"]):
            assert run(capsys, *bad)[0] == 1
            assert run(capsys, *argv) == first

    def test_version_twice(self, capsys):
        lines = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            lines.append(capsys.readouterr().out)
        assert lines == [f"spreadopt {__version__}\n"] * 2

    def test_parser_tree_built_once(self, tmp_path, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        out = tmp_path / "tone.json"
        assert main(["generate", "tone", "--n", "8", "--k", "1,2", "--out", str(out)]) == 0
        assert main(["evaluate", str(out), "--users", "1,2"]) == 0
        assert main(["frobnicate"]) == 1
        assert built.count("spreadopt") <= 1
        assert len(built) == len(set(built))


def test_cli_import_loads_no_scipy():
    # the solver needs only numpy; importing scipy.optimize used to dominate
    # the start-up time of every command.  The process pool is imported only
    # by a multi-process optimize run.
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, spreadopt.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
