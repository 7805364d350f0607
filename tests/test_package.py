"""The top-level namespace and the demos that import from it."""

import inspect
import os
import subprocess
import sys

import pytest

import spreadopt
from spreadopt import cli, interference, metrics, optimizer, sequences, simulator, spectral

MODULES = (interference, metrics, optimizer, sequences, simulator, spectral)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_namespace_is_union_of_module_apis():
    names = {name for module in MODULES for name in module.__all__}
    assert spreadopt.__all__ == sorted(names) + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spreadopt, name) is getattr(module, name), name


def test_one_version(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert spreadopt.__version__ == version
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    assert capsys.readouterr().out == f"spreadopt {version}\n"


@pytest.mark.parametrize("module", MODULES + (cli,), ids=lambda m: m.__name__)
def test_public_callables_are_plain_functions(module):
    # bench/tracer.py wraps only inspect.isfunction names, so a decorator such
    # as lru_cache on a public name would drop it from the traces silently
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), f"{module.__name__}.{name}"


# the functions whose spans and return values the benchmark reads, under
# their defining module; a trim that dropped one would leave a traced metric
# with no spans and no test failing
TRACED = {
    optimizer: ["solve_local", "objective", "objective_gradient", "real_coupling_matrices",
                "solve_multistart"],
    spectral: ["coupling_matrices", "decompose"],
    sequences: ["random_feasible_point", "gold_family"],
    interference: ["snr", "s_m_terms", "partial_sum_table"],
    metrics: ["correlation_peaks"],
    simulator: ["estimate_snr"],
    cli: ["main", "read_sequence_set"],
}


def test_traced_names_are_public_functions():
    for module, names in TRACED.items():
        for name in names:
            obj = getattr(module, name)
            assert name in module.__all__, f"{module.__name__}.{name}"
            assert inspect.isfunction(obj), f"{module.__name__}.{name}"
            assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"
    # the benchmark captures solve_multistart's reports through the CLI's binding
    assert cli.solve_multistart is optimizer.solve_multistart


def test_solver_calls_the_traced_objective_names(monkeypatch):
    # the benchmark's per-restart call counts of objective and
    # objective_gradient read the spans of these module attributes; a solver
    # that reached the value or gradient some other way would turn both to 0
    calls = {"objective": 0, "objective_gradient": 0}
    for name in calls:
        original = getattr(optimizer, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(optimizer, name, counted)
    optimizer.solve_local(sequences.random_feasible_point(8, 2, 1), optimizer.SolverConfig())
    for name, count in calls.items():
        assert count >= 1, name


# the report attributes the benchmark reads: its correctness checks on the
# report captured from cli.solve_multistart, and its tracer hook on each
# solve_local result; a trim that dropped one would fail only in a benchmark run
REPORT_ATTRIBUTES = {
    "solve_multistart": ["restart_errors", "restart_converged", "restart_snrs"],
    "solve_local": ["iterations", "converged"],
}


def test_benchmark_report_attributes_are_readable():
    cfg = optimizer.SolverConfig(restarts=2, seed=1)
    reports = {
        "solve_multistart": optimizer.solve_multistart(8, cfg),
        "solve_local": optimizer.solve_local(sequences.random_feasible_point(8, 2, 1), cfg),
    }
    for function, names in REPORT_ATTRIBUTES.items():
        for name in names:
            getattr(reports[function], name)


@pytest.mark.parametrize("demo, extra", [
    ("01_spectral_model.py", []),
    ("02_baseline_families.py", []),
    ("03_monte_carlo_validation.py", []),
    ("04_two_user_design.py", []),
    ("05_stretch_design_n31.py", ["--restarts", "20"]),
])
def test_demo_runs(demo, extra, tmp_path):
    if demo.startswith("05"):
        extra = extra + ["--out", str(tmp_path / "snrs.csv")]
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo), *extra],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
