"""The four workloads: the operation each input drives, and the checks
applied to every result.  Their inputs are in `rounds.py`.

An operation *fails* when the program raises or returns a non-finite
number; it is *incorrect* when it returns finite numbers that disagree
with an oracle or with a property the method must have.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import oracles

CLOSED_FORMS = {"uniform": "polynomial-over-interval", "normal": "constant",
                "exponential": "linear"}
TAIL_Q = 1e-9  # the program's default tail quantile


class Failed(Exception):
    """The program raised, crashed, or returned a non-finite number."""


class Incorrect(Exception):
    """The program returned finite numbers that an oracle rejects."""


def _finite(*values):
    for v in values:
        arr = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise Failed(f"non-finite output {v!r}")


def _close(what, got, want, rel=0.0, abs_=0.0):
    if not abs(got - want) <= abs_ + rel * abs(want):
        raise Incorrect(f"{what}: got {got!r}, oracle {want!r}")


def _closed_kind(doc):
    comps = doc["components"]
    if len(comps) == 1 and comps[0]["kind"] in CLOSED_FORMS:
        return comps[0]["kind"]
    return None


def _check_form(op, form):
    kind = _closed_kind(op.doc)
    want = CLOSED_FORMS[kind] if kind else "grid"
    if form != want:
        raise Incorrect(f"kernel form {form!r}, expected {want!r}")


def _oracle(op, key, fn):
    if key not in op.oracle:
        op.oracle[key] = fn()
    return op.oracle[key]


def _check_certificate(op, e_tau, var_tau, residuals, tv, bound_l1, bound_sd):
    """Checks shared by `certify` and the CLI `bound` verb."""
    _, var = _oracle(op, "moments", lambda: oracles.moments(op.doc))
    if e_tau is not None:
        _close("E[tau] = sigma^2", e_tau, var, rel=1e-6)
    for r in residuals:
        if not abs(r) < 1e-6:
            raise Incorrect(f"Stein residual {r!r} above 1e-6")
    if not bound_l1 <= bound_sd * (1.0 + 1e-12) + 1e-15:
        raise Incorrect(f"bound_l1 {bound_l1!r} exceeds bound_sd {bound_sd!r}")
    _close("tv_exact", tv, _oracle(op, "tv", lambda: oracles.tv_to_normal(op.doc)), abs_=1e-6)
    closed = oracles.var_tau_single(op.doc)
    if closed is not None:
        got = var_tau if var_tau is not None else (0.5 * bound_sd) ** 2
        _close("Var tau", got, closed, rel=1e-6, abs_=1e-12)


def _check_curve(op, ns, bounds, empirical, slope_bound):
    """Checks shared by `clt` and the CLI `clt` verb."""
    _finite(bounds, empirical, slope_bound)
    for n, b, e in zip(ns, bounds, empirical):
        if not e <= b:
            raise Incorrect(f"n={n}: empirical d_TV {e!r} above the bound {b!r}")
    _close("slope_bound", slope_bound, -0.5, abs_=1e-9)
    _, var = _oracle(op, "moments", lambda: oracles.moments(op.doc))
    closed = oracles.var_tau_single(op.doc)
    if closed is not None:
        for n, b in zip(ns, bounds):
            _close(f"bound at n={n}", b, 2.0 * math.sqrt(closed) / (var * math.sqrt(n)), rel=1e-6)
    if _closed_kind(op.doc) == "exponential":
        # midpoint sampling at grid 1024 is within 3% of the Gamma-sum value
        # for every n from 1 to 1024, and the sum is scale-free in the rate
        for n, e in zip(ns, empirical):
            want = _oracle(op, f"gamma{n}", lambda n=n: oracles.gamma_sum_tv(n))
            _close(f"Gamma-sum d_TV at n={n}", e, want, rel=0.05)


def _check_density(op, grid, values):
    _finite(values)
    truth = oracles.pdf(op.doc, grid)
    l1 = float(np.trapezoid(np.abs(values - truth), grid))
    if not l1 < 1e-4:
        raise Incorrect(f"recovered density is {l1:.3g} from the truth in L1")


# ---------------------------------------------------------------------------


class Certify:
    """existence_check -> stein_kernel -> kernel_stats -> 7 stein_residuals
    -> discrepancy_bounds, one generated mixture per operation."""

    def run(self, sk, op):
        spec = sk.parse_spec(op.text)
        verdict = sk.existence_check(spec).verdict.value
        kernel = sk.stein_kernel(spec)
        e_tau, var_tau = sk.kernel_stats(spec, kernel)
        lo, hi = sk.truncated_support(spec, TAIL_Q)
        residuals = [sk.stein_residual(spec, kernel, tf)
                     for tf in sk.standard_test_functions(lo, hi)]
        report = sk.discrepancy_bounds(spec, kernel)
        return (verdict, kernel.form, e_tau, var_tau, residuals,
                report.tv_exact, report.bound_l1, report.bound_sd)

    def check(self, op, result):
        verdict, form, e_tau, var_tau, residuals, tv, l1, sd = result
        _finite(e_tau, var_tau, residuals, tv, l1, sd)
        if verdict != "exists":
            raise Incorrect(f"verdict {verdict!r} for a spec built with a kernel")
        _check_form(op, form)
        _check_certificate(op, e_tau, var_tau, residuals, tv, l1, sd)


class Recover:
    """stein_kernel -> recover_density on specs without interior atoms or a
    Cantor part (recovery of Cantor-bearing specs does not finish)."""

    def run(self, sk, op):
        grid = op.args["grid"]
        spec = sk.parse_spec(op.text)
        kernel = sk.stein_kernel(spec, grid)
        mean = sk.moments(spec).mean
        density = sk.recover_density(kernel, mean, grid)
        return kernel.form, mean, density.grid, density.values

    def check(self, op, result):
        form, mean, grid, values = result
        _finite(mean)
        _check_form(op, form)
        m, _ = _oracle(op, "moments", lambda: oracles.moments(op.doc))
        _close("mean", mean, m, rel=1e-12, abs_=1e-12)
        _check_density(op, grid, values)


class Clt:
    """One clt_curve per operation on a pure-AC spec at grid 1024."""

    def run(self, sk, op):
        spec = sk.parse_spec(op.text)
        curve = sk.clt_curve(spec, op.args["ns"], grid_size=op.args["grid"])
        return curve.ns, curve.bounds, curve.empirical, curve.slope_bound

    def check(self, op, result):
        _check_curve(op, *result)


class Cli:
    """One fresh `python -m steinkit <verb>` per operation, outputs written
    to files under the run's scratch directory."""

    # every operation is a fresh process, so one warm-up start is enough
    WARMUP_CLASSES = 1

    def __init__(self):
        self.in_process = False
        self.env = None
        self.child_rss_mb = []

    def prepare(self, ops, workdir, env):
        self.env = env
        for i, op in enumerate(ops):
            op.args["stdout"] = os.path.join(workdir, f"stdout{i}")
            op.args["stderr"] = os.path.join(workdir, f"stderr{i}")
            path = os.path.join(workdir, f"spec{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.text)
            argv = [op.args["verb"], path]
            if op.args["verb"] in ("kernel", "clt", "recover"):
                op.args["out"] = os.path.join(workdir, f"out{i}.csv")
                argv += ["--out", op.args["out"]]
            if op.args["verb"] == "clt":
                argv += ["--n", ",".join(map(str, op.args["ns"]))]
            op.args["argv"] = argv

    def run(self, sk, op):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            try:
                code = sk.cli.dispatch(op.args["argv"], stdout=out, stderr=err)
            except Exception as exc:  # a crash, as a fresh process would show it
                return 1, out.getvalue(), f"Traceback\n{exc!r}"
            return code, out.getvalue(), err.getvalue()
        with open(op.args["stdout"], "w+b") as out, open(op.args["stderr"], "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "steinkit", *op.args["argv"]],
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()

    def check(self, op, result):
        code, out, err = result
        verb = op.args["verb"]
        if code == 1 and "Traceback" in err:
            raise Failed(f"`steinkit {verb}` crashed: {err.strip().splitlines()[-1]}")
        if code != op.args["exit"]:
            raise Incorrect(f"`steinkit {verb}` exited {code}, expected {op.args['exit']}")
        if verb == "check":
            self._check_verdict(op, json.loads(out))
        elif verb == "kernel":
            self._check_kernel(op)
        elif verb == "bound":
            doc = json.loads(out)
            _check_certificate(op, None, None, (), doc["tv"], doc["bound_l1"], doc["bound_sd"])
        elif verb == "clt":
            doc = json.loads(out)
            rows = _csv_rows(op.args["out"])
            if [int(r[0]) for r in rows] != list(op.args["ns"]):
                raise Incorrect(f"clt CSV rows {rows!r} do not match --n")
            _check_curve(op, doc["ns"], doc["bounds"], doc["empirical"], doc["slope_bound"])
        elif verb == "recover":
            rows = np.array(_csv_rows(op.args["out"]), dtype=float)
            _check_density(op, rows[:, 0], rows[:, 1])

    @staticmethod
    def _check_verdict(op, doc):
        want = {0: "exists", 3: "not_exists", 4: "degenerate"}[op.args["exit"]]
        if doc["verdict"] != want:
            raise Incorrect(f"verdict {doc['verdict']!r}, expected {want!r}")
        if want == "not_exists":
            first, second = op.doc["components"]
            _close("gap start", doc["failing_region"][0], first["hi"], abs_=1e-12)
            _close("gap end", doc["failing_region"][1], second["lo"], abs_=1e-12)

    @staticmethod
    def _check_kernel(op):
        rows = np.array(_csv_rows(op.args["out"]), dtype=float)
        t, tau = rows[:, 0], rows[:, 1]
        want = oracles.closed_kernel(op.doc, t)
        err = float(np.max(np.abs(tau - want) / np.maximum(np.abs(want), 1e-300)))
        if not err < 1e-12:
            raise Incorrect(f"kernel CSV is {err:.3g} from the closed form")
        with open(op.args["out"] + ".json", encoding="utf-8") as fh:
            descriptor = json.load(fh)
        if descriptor["form"] != CLOSED_FORMS[_closed_kind(op.doc)]:
            raise Incorrect(f"kernel descriptor form {descriptor['form']!r}")


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


WORKLOADS = {"certify": Certify, "recover": Recover, "clt": Clt, "cli": Cli}
