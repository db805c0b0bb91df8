import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinkit
from steinkit.cli import dispatch
from steinkit.distributions import KINDS

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

# sd**2 underflows to 0
TINY_NORMAL = {"components": [{"kind": "normal", "mean": 0.0, "sd": 1e-200, "weight": 1.0}]}
# the kernel of this mixture overflows to inf on part of its grid
EXTREME_RATES = {"components": [
    {"kind": "exponential", "rate": 2.0 ** -510, "weight": 0.5},
    {"kind": "exponential", "rate": 2.0 ** 800, "weight": 0.5}]}

# tau between the bumps is far beyond the square root of the float range
FAR_NORMALS = {"components": [
    {"kind": "normal", "mean": -64.0, "sd": 1.0, "weight": 0.5},
    {"kind": "normal", "mean": 64.0, "sd": 3.0, "weight": 0.5}]}


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


@pytest.mark.parametrize("option", [["--tail", "1e-5"], ["--tol", "nan"]])
def test_corpus_validates_tol_and_tail(option):
    out, err = io.StringIO(), io.StringIO()
    assert dispatch(["corpus", *option], out, err) == 1
    assert out.getvalue() == "" and err.getvalue().startswith("error:")


def test_floats_render_17_significant_digits(tmp_path):
    cp = run_cli("check", write_spec(tmp_path, "mixed.json", MIXED))
    # verdict JSON carries no long floats; use the clt bounds instead
    cp = run_cli("clt", write_spec(tmp_path, "exp1.json", EXP1),
                 "--n", "4,16,64,256", "--grid", "1024")
    doc = json.loads(cp.stdout)
    assert doc["bounds"][1] == 0.5 or abs(doc["bounds"][1] - 0.5) < 1e-15


@pytest.mark.parametrize("pieces, want", [
    # the bound is affine invariant: these are the values at sd 1 and 2 and
    # at rates 1 and 2; the normals' mean of 5000 sd costs some digits
    ([{"kind": "normal", "mean": 5.0, "sd": 1e-3, "weight": 0.5},
      {"kind": "normal", "mean": 5.0, "sd": 2e-3, "weight": 0.5}], 0.4799733689071905),
    ([{"kind": "exponential", "rate": 1e6, "weight": 0.5},
      {"kind": "exponential", "rate": 2e6, "weight": 0.5}], 2.4713531680026524),
], ids=["narrow-normal-pair", "fast-exponential-pair"])
def test_clt_bound_of_a_narrow_law(tmp_path, pieces, want):
    out, err = io.StringIO(), io.StringIO()
    path = write_spec(tmp_path, "narrow.json", {"components": pieces})
    assert dispatch(["clt", path, "--n", "1,4,16"], out, err) == 0, err.getvalue()
    doc = json.loads(out.getvalue())
    assert doc["bounds"] == pytest.approx([want, want / 2, want / 4], rel=1e-12, abs=0.0)
    assert all(b > e for b, e in zip(doc["bounds"], doc["empirical"]))


def test_runtime_loads_no_scipy_module(tmp_path):
    # scipy is a test oracle only: a fresh interpreter that imports steinkit,
    # runs every verb and hits the quadrature's subdivision cap loads none of
    # it; nor does any verb load numpy.ma, which np.unique imports on first use
    spec = write_spec(tmp_path, "mix.json", NORMAL_UNIFORM)
    code = ("import io, sys, warnings\n"
            "import numpy as np\n"
            "from steinkit import IntegrationWarning, QuadratureConfig\n"
            "from steinkit.cli import dispatch\n"
            "from steinkit.distributions import _adapt, _start_panels\n"
            f"spec = {spec!r}\n"
            "for argv in (['check', spec], ['kernel', spec], ['bound', spec],\n"
            "             ['clt', spec, '--n', '1,4,64'], ['recover', spec], ['corpus']):\n"
            "    code = dispatch(argv + ['--grid', '1024'], io.StringIO(), io.StringIO())\n"
            "    assert code == 0, (argv, code)\n"
            "    assert 'numpy.ma' not in sys.modules, argv\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    _adapt(lambda x: np.abs(x - 0.3), QuadratureConfig(max_subdivisions=1),\n"
            "           *_start_panels([0.0, 1.0]))\n"
            "assert [w.category for w in caught] == [IntegrationWarning], caught\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=CLI_ENV)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


def test_import_builds_no_cantor_table():
    # the Cantor cell table is built on first use, so neither `import
    # steinkit` nor the CLI's imports pay for it, nor does building a Cantor
    # kernel; the kernel's first evaluation builds it
    code = ("import steinkit, steinkit.cli, steinkit.corpus\n"
            "from steinkit.distributions import _cantor_table\n"
            "print(_cantor_table.cache_info().currsize)\n"
            "k = steinkit.stein_kernel(steinkit.corpus.KERNEL_SPECS['uniform_cantor'], 64)\n"
            "print(_cantor_table.cache_info().currsize)\n"
            "k.values(0.5)\n"
            "print(_cantor_table.cache_info().currsize)\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=CLI_ENV)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split() == ["0", "0", "1"]


def test_only_the_corpus_verb_imports_the_corpus(tmp_path):
    # the corpus builds its specs on import, which no other verb needs
    spec = write_spec(tmp_path, "mix.json", MIXED)
    code = ("import io, sys\n"
            "from steinkit.cli import dispatch\n"
            f"for argv in (['check', {spec!r}], ['bound', {spec!r}], ['clt', {spec!r}, '--n', '1,4']):\n"
            "    assert dispatch(argv + ['--grid', '256'], io.StringIO(), io.StringIO()) == 0, argv\n"
            "print('steinkit.corpus' in sys.modules)\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=CLI_ENV)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split() == ["False"]


@pytest.mark.parametrize("verb", ["bound", "clt"])
def test_var_tau_overflow_exits_two_and_names_it(tmp_path, verb):
    # between the bumps of 1/2 N(-64, 1) + 1/2 N(64, 3) tau passes 1e224,
    # so (tau - sigma^2)^2 leaves the float range: one error line names
    # Var tau, and no quadrature warning reaches stderr before it
    path = write_spec(tmp_path, "far.json", FAR_NORMALS)
    extra = ["--n", "1,4,16"] if verb == "clt" else []
    cp = run_cli(verb, path, *extra)
    assert cp.returncode == 2
    assert cp.stderr == "error: Var tau: E (tau - sigma^2)^2 overflows the float range\n"


@pytest.mark.parametrize("verb, doc", [
    # sigma^2 underflows to 0
    ("clt", TINY_NORMAL),
    # the same, which is no point mass: not the degenerate exit 4
    ("bound", TINY_NORMAL),
])
def test_arithmetic_failures_exit_two(tmp_path, verb, doc):
    extra = ["--n", "1,4"] if verb == "clt" else []
    cp = run_cli(verb, write_spec(tmp_path, "spec.json", doc), *extra)
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    errors = [line for line in cp.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and cp.stderr.rstrip().endswith(errors[0])


def _overlapping_uniforms(s):
    return {"components": [
        {"kind": "uniform", "lo": 0.0, "hi": s, "weight": 0.5},
        {"kind": "uniform", "lo": s / 2, "hi": 2 * s, "weight": 0.5}]}


@pytest.mark.parametrize("verb", ["bound", "clt"])
@pytest.mark.parametrize("s", [1e-100, 1e100], ids=["1e-100", "1e+100"])
def test_extreme_scales_match_scale_one(tmp_path, verb, s):
    # Var tau ~ s^4 once overflowed at s = 1e100 (exit 2) and underflowed to
    # a zero bound_sd and CLT bound at s = 1e-100; tau / sigma^2 is the same
    # at every scale
    extra = ["--n", "1,4,16", "--grid", "1024"] if verb == "clt" else []
    got, want = (run_cli(verb, write_spec(tmp_path, f"{i}.json", _overlapping_uniforms(x)),
                         *extra) for i, x in enumerate((s, 1.0)))
    assert got.returncode == want.returncode == 0, got.stderr
    assert got.stderr == ""
    got, want = json.loads(got.stdout), json.loads(want.stdout)
    if verb == "bound":
        assert got["tv"] == pytest.approx(want["tv"], rel=1e-9, abs=0.0)
        for key in ("bound_l1", "bound_sd"):
            assert got[key] / s ** 2 == pytest.approx(want[key], rel=1e-9, abs=0.0)
    else:
        for key in ("bounds", "empirical", "slope_bound", "slope_empirical"):
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("verb", ["bound", "clt"])
@pytest.mark.parametrize("doc", [TINY_NORMAL, _overlapping_uniforms(1e-160)],
                         ids=["sd-1e-200", "width-2e-160"])
def test_a_subnormal_sigma2_exits_two_and_names_it(tmp_path, verb, doc):
    # sigma^2 reads 0 and 2.8e-321: tau / sigma^2 is not formed, and one
    # error line names sigma^2 and its value
    extra = ["--n", "1,4"] if verb == "clt" else []
    cp = run_cli(verb, write_spec(tmp_path, "spec.json", doc), *extra)
    assert cp.returncode == 2
    assert re.fullmatch(r"error: sigma\^2 = \S+ is below the smallest normal float\n",
                        cp.stderr), cp.stderr


@pytest.mark.parametrize("verb", ["bound", "clt"])
def test_far_from_the_origin_matches_the_spec_at_the_origin(tmp_path, verb):
    # NORMAL_UNIFORM shifted by b = 1e8: E[X^2] - m^2 cancelled to sigma^2 = 0
    # there, so `bound` exited 4 and `clt` divided by zero; d_TV and the CLT
    # bound are shift-invariant
    far = {"components": [
        {"kind": "normal", "mean": 1e8 + 0.1, "sd": 1.0, "weight": 0.5},
        {"kind": "uniform", "lo": 1e8, "hi": 1e8 + 1.0, "weight": 0.5}]}
    extra = ["--n", "1,4"] if verb == "clt" else []
    got, want = (run_cli(verb, write_spec(tmp_path, f"{i}.json", doc), *extra)
                 for i, doc in enumerate((far, NORMAL_UNIFORM)))
    assert got.returncode == want.returncode == 0, got.stderr
    got, want = json.loads(got.stdout), json.loads(want.stdout)
    keys = ["tv", "bound_l1", "bound_sd"] if verb == "bound" else ["bounds", "empirical"]
    for key in keys:
        assert got[key] == pytest.approx(want[key], rel=1e-7, abs=0.0)


@pytest.mark.parametrize("verb, grid", [("kernel", "1048577"), ("recover", "1099511627776")])
def test_oversized_grid_exits_one(tmp_path, verb, grid):
    cp = run_cli(verb, write_spec(tmp_path, "exp1.json", EXP1), "--grid", grid)
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and len(cp.stderr.strip().split("\n")) == 1
    assert cp.stdout == ""


@pytest.mark.parametrize("out", [False, True])
def test_kernel_csv_with_infinite_values_exits_two(tmp_path, out):
    path = tmp_path / "tau.csv"
    extra = ["--out", str(path)] if out else []
    cp = run_cli("kernel", write_spec(tmp_path, "spec.json", EXTREME_RATES), "--grid", "64",
                 *extra)
    assert cp.returncode == 2
    assert cp.stdout == "" and not path.exists()
    assert cp.stderr.rstrip().splitlines()[-1].startswith("error:")


@pytest.mark.parametrize("verb, doc, code", [
    ("kernel", EXTREME_RATES, 2),
    # the trapezoid total of this density overflows
    ("check", {"components": [{"kind": "tabulated", "grid": [0.0, 1e308, 1.7e308],
                               "values": [1.0, 1.0, 1.0], "weight": 1.0}]}, 1),
    ("bound", TINY_NORMAL, 2),
    # only a point mass is degenerate
    ("bound", DIRAC, 4),
])
def test_a_failed_run_prints_one_error_line(tmp_path, verb, doc, code):
    # numpy's overflow warnings on the way to a failure stay off stderr
    cp = run_cli(verb, write_spec(tmp_path, "spec.json", doc), "--grid", "64")
    assert cp.returncode == code
    assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1, cp.stderr


def test_an_underflowing_density_is_named_at_a_plain_number(tmp_path):
    # between the bumps of 1/2 N(-64, 1) + 1/2 N(64, 1) the AC density
    # underflows; the message gives the point as a float, not a numpy repr
    doc = {"components": [{"kind": "normal", "mean": -64.0, "sd": 1.0, "weight": 0.5},
                          {"kind": "normal", "mean": 64.0, "sd": 1.0, "weight": 0.5}]}
    cp = run_cli("kernel", write_spec(tmp_path, "spec.json", doc))
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1, cp.stderr
    assert "t=-26.86" in cp.stderr and "np.float64" not in cp.stderr


def test_integration_warnings_reach_stderr(tmp_path):
    cp = run_cli("bound", write_spec(tmp_path, "spec.json", NORMAL_UNIFORM), "--tol", "1e-300")
    assert cp.returncode == 0, cp.stderr
    assert "IntegrationWarning: integration tolerance not met" in cp.stderr


NON_FINITE = re.compile(r"\b(?:nan|inf(?:inity)?)\b", re.IGNORECASE)
SIGNED_POW2 = st.builds(lambda sign, k: sign * math.ldexp(1.0, k),
                        st.sampled_from((1.0, -1.0)), st.integers(-1000, 1000))
POW2 = st.builds(lambda k: math.ldexp(1.0, k), st.integers(-1000, 1000))
WEIGHTS = ((1.0,), (0.5, 0.5), (0.25, 0.75), (0.5, 0.25, 0.25))


@st.composite
def spec_documents(draw):
    """Documents of one to three components of the six kinds.  Locations are
    +/-2^k and scales 2^k with k in [-1000, 1000]; an interval ends, and a
    tabulated grid steps, 2^k past its start, so that widths far below the
    location's float step occur too."""
    comps = []
    for w in draw(st.sampled_from(WEIGHTS)):
        kind, x = draw(st.sampled_from(sorted(KINDS))), draw(SIGNED_POW2)
        match kind:
            case "uniform" | "cantor":
                comps.append({"kind": kind, "lo": x, "hi": x + draw(POW2), "weight": w})
            case "normal":
                comps.append({"kind": kind, "mean": x, "sd": draw(POW2), "weight": w})
            case "exponential":
                comps.append({"kind": kind, "rate": draw(POW2), "weight": w})
            case "atom":
                comps.append({"kind": kind, "location": x, "mass": w})
            case "tabulated":
                steps = draw(st.lists(POW2, min_size=1, max_size=3))
                values = draw(st.lists(POW2, min_size=len(steps) + 1, max_size=len(steps) + 1))
                comps.append({"kind": kind, "grid": list(x + np.cumsum([0.0, *steps])),
                              "values": values, "weight": w})
    return {"components": comps}


@settings(max_examples=180, derandomize=True, deadline=None)
@given(spec_documents(), st.sampled_from((64, 1024)))
def test_dispatch_exits_with_a_code_and_finite_output(doc, grid):
    verbs = (["check"], ["kernel"], ["bound"], ["clt", "--n", "1,4,64"], ["recover"])
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # as at the command line, a warning is reported, not raised
        warnings.simplefilter("ignore")
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(doc))
        for verb in verbs:
            out = Path(tmp, verb[0] + ".out")
            stdout, stderr = io.StringIO(), io.StringIO()
            code = dispatch([*verb, str(spec), "--grid", str(grid), "--out", str(out)],
                            stdout, stderr)
            assert code in range(5), (verb, stderr.getvalue())
            files = [p.read_text() for p in (out, Path(str(out) + ".json")) if p.exists()]
            for text in (stdout.getvalue(), *files):
                assert not NON_FINITE.search(text), (verb, text)
