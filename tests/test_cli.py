import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinkit

CLI = [sys.executable, "-m", "steinkit"]
# the subprocess imports the same steinkit as the tests, from a plain
# checkout too, where pytest's pythonpath setting does not reach it
_PYTHONPATH = [str(Path(steinkit.__file__).resolve().parent.parent),
               os.environ.get("PYTHONPATH", "")]
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in _PYTHONPATH if p)}

MIXED = {"components": [
    {"kind": "atom", "location": 1.0, "mass": 0.25},
    {"kind": "atom", "location": -1.0, "mass": 0.25},
    {"kind": "uniform", "lo": -1.0, "hi": 1.0, "weight": 0.5},
]}
TWO_BUMP = {"components": [
    {"kind": "uniform", "lo": -2.0, "hi": -1.0, "weight": 0.5},
    {"kind": "uniform", "lo": 1.0, "hi": 2.0, "weight": 0.5},
]}
DIRAC = {"components": [{"kind": "atom", "location": 0.7, "mass": 1.0}]}
EXP1 = {"components": [{"kind": "exponential", "rate": 1.0, "weight": 1.0}]}
NORMAL = {"components": [{"kind": "normal", "mean": 0.0, "sd": 1.0, "weight": 1.0}]}
UNIFORM_CANTOR = {"components": [
    {"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 0.5},
    {"kind": "cantor", "lo": 0.0, "hi": 1.0, "weight": 0.5},
]}
# mixture mean 0.3 differs from the normal piece's mean 0.1
NORMAL_UNIFORM = {"components": [
    {"kind": "normal", "mean": 0.1, "sd": 1, "weight": 0.5},
    {"kind": "uniform", "lo": 0, "hi": 1, "weight": 0.5},
]}


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=CLI_ENV)


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "steinkit" in cp.stdout


def test_check_exists(tmp_path):
    cp = run_cli("check", write_spec(tmp_path, "mixed.json", MIXED))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["schema"] == "steinkit/1"
    assert doc["verdict"] == "exists"


def test_check_not_exists_with_failing_region(tmp_path):
    cp = run_cli("check", write_spec(tmp_path, "twobump.json", TWO_BUMP))
    assert cp.returncode == 3
    doc = json.loads(cp.stdout)
    assert doc["verdict"] == "not_exists"
    assert doc["failing_region"] == [-1.0, 1.0]


def test_check_degenerate(tmp_path):
    cp = run_cli("check", write_spec(tmp_path, "dirac.json", DIRAC))
    assert cp.returncode == 4
    assert json.loads(cp.stdout)["verdict"] == "degenerate"


def test_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cp = run_cli("check", str(bad))
    assert cp.returncode == 1
    assert "error" in cp.stderr


@pytest.mark.parametrize("doc", [
    {"components": [{"kind": "normal", "mean": math.inf, "sd": 1.0, "weight": 1.0}]},
    {"components": [{"kind": "atom", "location": math.nan, "mass": 0.5},
                    {"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 0.5}]},
    {"components": [{"kind": "exponential", "rate": 1e-300, "weight": 1.0}]},
], ids=["normal_infinite_mean", "atom_nan_location", "exponential_rate_1e-300"])
def test_non_finite_spec_exits_one(tmp_path, doc):
    cp = run_cli("check", write_spec(tmp_path, "nonfinite.json", doc))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")
    assert "Traceback" not in cp.stderr


def test_missing_file_exits_one():
    cp = run_cli("check", "/nonexistent/spec.json")
    assert cp.returncode == 1


def test_directory_spec_exits_one(tmp_path):
    cp = run_cli("check", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")
    assert "Traceback" not in cp.stderr


def test_non_utf8_spec_exits_one(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"components": [], "note": "caf\u00e9"}'.encode("latin-1"))
    cp = run_cli("check", str(path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("verb", ["kernel", "bound", "recover"])
def test_output_path_directory_exits_one(tmp_path, verb):
    spec = write_spec(tmp_path, "u.json", {"components": [
        {"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 1.0}]})
    cp = run_cli(verb, spec, "--grid", "64", "--out", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")
    assert "Traceback" not in cp.stderr


def test_unknown_verb_exits_one():
    cp = run_cli("frobnicate")
    assert cp.returncode == 1


def test_kernel_csv_and_descriptor(tmp_path):
    out = tmp_path / "kernel.csv"
    cp = run_cli("kernel", write_spec(tmp_path, "exp1.json", EXP1),
                 "--out", str(out), "--grid", "32")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,tau"
    assert len(lines) == 33
    descriptor = json.loads((tmp_path / "kernel.csv.json").read_text())
    assert descriptor == {"schema": "steinkit/1", "form": "linear",
                          "params": {"slope": 1.0, "origin": 0.0}}


def test_kernel_atom_rows(tmp_path):
    out = tmp_path / "kernel.csv"
    cp = run_cli("kernel", write_spec(tmp_path, "mixed.json", MIXED),
                 "--out", str(out), "--grid", "16")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().split("\n")
    atom_rows = [l for l in lines if l.endswith("# atom")]
    assert len(atom_rows) == 2
    assert all(",0 " in row for row in atom_rows)
    assert not (tmp_path / "kernel.csv.json").exists()


def test_kernel_gate_failure_exit_code(tmp_path):
    cp = run_cli("kernel", write_spec(tmp_path, "twobump.json", TWO_BUMP),
                 "--out", str(tmp_path / "k.csv"))
    assert cp.returncode == 3
    assert "error" in cp.stderr


def test_bound_json(tmp_path):
    cp = run_cli("bound", write_spec(tmp_path, "normal.json", NORMAL), "--grid", "64")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert set(doc) == {"schema", "tv", "bound_l1", "bound_sd"}
    assert doc["tv"] < 1e-7
    assert doc["bound_sd"] < 1e-8


def test_bound_off_centre_normal_mixture(tmp_path):
    cp = run_cli("bound", write_spec(tmp_path, "mix.json", NORMAL_UNIFORM), "--grid", "256")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert 0.0 < doc["bound_l1"] <= doc["bound_sd"] < 1.0


def test_clt_curve_golden_bounds(tmp_path):
    out = tmp_path / "curve.csv"
    cp = run_cli("clt", write_spec(tmp_path, "exp1.json", EXP1),
                 "--n", "4,16,64,256", "--grid", "1024", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,bound,empirical"
    bounds = [float(l.split(",")[1]) for l in lines[1:]]
    for got, want in zip(bounds, [1.0, 0.5, 0.25, 0.125]):
        assert abs(got - want) < 1e-10
    doc = json.loads(cp.stdout)
    assert doc["ns"] == [4, 16, 64, 256]
    assert abs(doc["slope_bound"] + 0.5) < 1e-10


def test_clt_rejects_bad_n(tmp_path):
    cp = run_cli("clt", write_spec(tmp_path, "exp1.json", EXP1), "--n", "4,banana")
    assert cp.returncode == 1


def test_clt_oversized_transform_exits_two(tmp_path):
    uniform = {"components": [{"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 1.0}]}
    cp = run_cli("clt", write_spec(tmp_path, "u.json", uniform), "--n", "1000000000")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and len(cp.stderr.strip().split("\n")) == 1
    assert cp.stdout == ""


def test_recover_density_csv(tmp_path):
    out = tmp_path / "density.csv"
    cp = run_cli("recover", write_spec(tmp_path, "normal.json", NORMAL),
                 "--out", str(out), "--grid", "512")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,p"
    assert len(lines) == 513
    mid = lines[len(lines) // 2].split(",")
    assert abs(float(mid[0])) < 0.1 and float(mid[1]) > 0.35


def test_recover_cantor_spec_exits_two(tmp_path):
    cp = run_cli("recover", write_spec(tmp_path, "cantor.json", UNIFORM_CANTOR),
                 "--grid", "64")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "Cantor" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exits_one(tmp_path, tol):
    cp = run_cli("bound", write_spec(tmp_path, "cantor.json", UNIFORM_CANTOR),
                 "--grid", "64", "--tol", tol)
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr


def test_corpus_verb_passes():
    cp = run_cli("corpus", "--grid", "256")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "FAIL" not in cp.stdout
    lines = cp.stdout.strip().split("\n")
    assert lines[-1].endswith("checks passed")


def test_outputs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, "exp1.json", EXP1)
    a = run_cli("bound", spec, "--grid", "64")
    b = run_cli("bound", spec, "--grid", "64")
    assert a.stdout == b.stdout
    out1, out2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
    run_cli("kernel", spec, "--out", str(out1), "--grid", "64")
    run_cli("kernel", spec, "--out", str(out2), "--grid", "64")
    assert out1.read_bytes() == out2.read_bytes()


def test_invalid_tail_quantile_exits_one(tmp_path):
    cp = run_cli("check", write_spec(tmp_path, "exp1.json", EXP1), "--tail", "1e-5")
    assert cp.returncode == 1
    assert "tail_quantile" in cp.stderr


def test_floats_render_17_significant_digits(tmp_path):
    cp = run_cli("check", write_spec(tmp_path, "mixed.json", MIXED))
    # verdict JSON carries no long floats; use the clt bounds instead
    cp = run_cli("clt", write_spec(tmp_path, "exp1.json", EXP1),
                 "--n", "4,16,64,256", "--grid", "1024")
    doc = json.loads(cp.stdout)
    assert doc["bounds"][1] == 0.5 or abs(doc["bounds"][1] - 0.5) < 1e-15


def test_runtime_loads_no_scipy_module(tmp_path):
    # scipy is a test oracle only: a fresh interpreter that imports steinkit,
    # runs every verb and hits the quadrature's subdivision cap loads none of it
    spec = write_spec(tmp_path, "mix.json", NORMAL_UNIFORM)
    code = ("import io, sys, warnings\n"
            "import numpy as np\n"
            "from steinkit import IntegrationWarning, QuadratureConfig\n"
            "from steinkit.cli import dispatch\n"
            "from steinkit.distributions import integrate\n"
            f"spec = {spec!r}\n"
            "for argv in (['check', spec], ['kernel', spec], ['bound', spec],\n"
            "             ['clt', spec, '--n', '1,4,64'], ['recover', spec], ['corpus']):\n"
            "    code = dispatch(argv + ['--grid', '1024'], io.StringIO(), io.StringIO())\n"
            "    assert code == 0, (argv, code)\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    integrate(lambda x: np.abs(x - 0.3), [0.0, 1.0], QuadratureConfig(max_subdivisions=1))\n"
            "assert [w.category for w in caught] == [IntegrationWarning], caught\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=CLI_ENV)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


@pytest.mark.parametrize("verb, doc", [
    # sigma^2 underflows to 0
    ("clt", {"components": [{"kind": "normal", "mean": 0.0, "sd": 1e-200, "weight": 1.0}]}),
    # E[X^2] - m^2 cancels to 0 far from the origin
    ("clt", {"components": [
        {"kind": "normal", "mean": 1e8 + 0.1, "sd": 1.0, "weight": 0.5},
        {"kind": "uniform", "lo": 1e8, "hi": 1e8 + 1.0, "weight": 0.5}]}),
    # Var tau ~ s^4 overflows to a NaN bound_sd
    ("bound", {"components": [
        {"kind": "uniform", "lo": 0.0, "hi": 1e100, "weight": 0.5},
        {"kind": "uniform", "lo": 5e99, "hi": 2e100, "weight": 0.5}]}),
])
def test_arithmetic_failures_exit_two(tmp_path, verb, doc):
    extra = ["--n", "1,4"] if verb == "clt" else []
    cp = run_cli(verb, write_spec(tmp_path, "spec.json", doc), *extra)
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    errors = [line for line in cp.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and cp.stderr.rstrip().endswith(errors[0])


@pytest.mark.parametrize("verb, grid", [("kernel", "1048577"), ("recover", "1099511627776")])
def test_oversized_grid_exits_one(tmp_path, verb, grid):
    cp = run_cli(verb, write_spec(tmp_path, "exp1.json", EXP1), "--grid", grid)
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and len(cp.stderr.strip().split("\n")) == 1
    assert cp.stdout == ""
