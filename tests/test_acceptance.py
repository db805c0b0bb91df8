"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 asserts the full discrepancy sandwich with the literal bound
formulas; see the repository notes for why the tv <= bound_l1 leg cannot
hold for laws whose variance sits far below one.
"""

import math
import time

import numpy as np

from steinkit import (
    affine_transform,
    clt_bound,
    convolution_tv,
    discrepancy_bounds,
    discrete_witness,
    existence_check,
    kernel_stats,
    moments,
    nz_mass,
    rate_fit,
    recover_density,
    standard_test_functions,
    stein_kernel,
    stein_residual,
    truncated_support,
    Verdict,
)
from steinkit.clt import CltCurve
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
from oracle_utils import kernel_measure_integral


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_golden_kernel():
    spec = KERNEL_SPECS["mixed_atoms_uniform"]
    t0 = time.perf_counter()
    kernel = stein_kernel(spec)
    ts = np.linspace(-1.0, 1.0, 1001)
    interior = ts[1:-1]
    err = float(np.max(np.abs(kernel.values(interior)
                              - (1.0 + 0.5 * (1.0 - interior ** 2)))))
    edge_ok = kernel.evaluate(1.0) == 0.0 and kernel.evaluate(-1.0) == 0.0
    elapsed = time.perf_counter() - t0
    ok = err < 1e-8 and edge_ok and elapsed < 1.0
    _report(1, ok, f"golden kernel max_err={err:.2e} edges_zero={edge_ok} "
                   f"runtime={elapsed:.2f}s")
    assert err < 1e-8
    assert edge_ok
    assert elapsed < 1.0


def test_criterion_02_existence_gate():
    t0 = time.perf_counter()
    verdicts = {
        "mixed": existence_check(KERNEL_SPECS["mixed_atoms_uniform"]).verdict,
        "two_bump": existence_check(NO_KERNEL_SPECS["two_bump"][0]).verdict,
        "rademacher": existence_check(NO_KERNEL_SPECS["rademacher"][0]).verdict,
        "cantor_only": existence_check(NO_KERNEL_SPECS["cantor_only"][0]).verdict,
        "dirac": existence_check(NO_KERNEL_SPECS["dirac"][0]).verdict,
        "rational_intervals": existence_check(
            NO_KERNEL_SPECS["rational_intervals"][0]).verdict,
    }
    elapsed = time.perf_counter() - t0
    want = {
        "mixed": Verdict.EXISTS,
        "two_bump": Verdict.NOT_EXISTS,
        "rademacher": Verdict.NOT_EXISTS,
        "cantor_only": Verdict.NOT_EXISTS,
        "dirac": Verdict.DEGENERATE,
        "rational_intervals": Verdict.NOT_EXISTS,
    }
    ok = verdicts == want and elapsed < 1.0
    _report(2, ok, f"six existence verdicts exact, runtime={elapsed:.3f}s")
    assert verdicts == want
    assert elapsed < 1.0


def test_criterion_03_rademacher_witness():
    w = discrete_witness(NO_KERNEL_SPECS["rademacher"][0])
    err = max(abs(w.implied_values[0] - 2.0), abs(w.implied_values[1] - 2.0 / 3.0))
    ok = err < 1e-12 and w.residual_norm > 0
    _report(3, ok, f"implied values {w.implied_values} err={err:.2e} "
                   f"residual_norm={w.residual_norm:.3f}")
    assert err < 1e-12
    assert w.residual_norm > 0


def test_criterion_04_moment_identities():
    assert len(KERNEL_SPECS) >= 10
    worst = 0.0
    for name, spec in KERNEL_SPECS.items():
        kernel = stein_kernel(spec, 256)
        mean_tau, _ = kernel_stats(spec, kernel)
        worst = max(worst, abs(mean_tau - moments(spec).variance))
    two_bump_var = moments(NO_KERNEL_SPECS["two_bump"][0]).variance
    var_err = abs(two_bump_var - 7.0 / 3.0)
    ok = worst < 1e-7 and var_err < 1e-12
    _report(4, ok, f"worst |E[tau]-sigma^2|={worst:.2e} over {len(KERNEL_SPECS)} "
                   f"specs; two-bump var err={var_err:.2e}")
    assert worst < 1e-7
    assert var_err < 1e-12


def test_criterion_05_stein_identity_certification():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for name, spec in KERNEL_SPECS.items():
        kernel = stein_kernel(spec, 256)
        for tf in standard_test_functions(*truncated_support(spec, 1e-9)):
            worst = max(worst, abs(stein_residual(spec, kernel, tf)))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and checked >= 70 and elapsed < 10.0
    _report(5, ok, f"{checked} residuals, worst={worst:.2e}, runtime={elapsed:.1f}s")
    assert checked >= 70
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_06_measure_identity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for name, spec in KERNEL_SPECS.items():
        kernel = stein_kernel(spec, 256)
        var = moments(spec).variance
        lo, hi = truncated_support(spec, 1e-9)
        for _ in range(20):
            u, v = sorted(rng.uniform(lo, hi, 2))
            gap = abs(nz_mass(spec, u, v)
                      - kernel_measure_integral(spec, kernel, u, v) / var)
            worst = max(worst, gap)
    ok = worst < 1e-7
    _report(6, ok, f"worst |int q - int tau dmu / sigma^2|={worst:.2e} "
                   f"over 20 subintervals x {len(KERNEL_SPECS)} specs")
    assert worst < 1e-7


def test_criterion_07_discrepancy_sandwich():
    reports = {}
    for name, spec in KERNEL_SPECS.items():
        reports[name] = discrepancy_bounds(spec, stein_kernel(spec, 256))
    sd_err = abs(reports["uniform01"].bound_sd - 2.0 * math.sqrt(1.0 / 720.0))
    violations = [name for name, r in reports.items()
                  if not (r.tv_exact <= r.bound_l1 + 1e-7
                          and r.bound_l1 <= r.bound_sd + 1e-7)]
    ok = sd_err < 1e-10 and not violations
    _report(7, ok, f"uniform bound_sd err={sd_err:.2e}; sandwich violations: "
                   f"{violations or 'none'}")
    assert sd_err < 1e-10
    for name, r in reports.items():
        assert r.bound_l1 <= r.bound_sd + 1e-7, name
        assert r.tv_exact <= r.bound_l1 + 1e-7, name


def test_criterion_08_density_round_trip():
    t0 = time.perf_counter()
    targets = {
        "uniform01": lambda x: np.ones_like(x),
        "exponential1": lambda x: np.exp(-x),
        "normal_std": lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
    }
    worst = 0.0
    for name, truth in targets.items():
        spec = KERNEL_SPECS[name]
        kernel = stein_kernel(spec)
        den = recover_density(kernel, moments(spec).mean)
        l1 = float(np.trapezoid(np.abs(den.values - truth(den.grid)), den.grid))
        worst = max(worst, l1)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    _report(8, ok, f"worst L1={worst:.2e} over 3 round trips, runtime={elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_09_clt_bound_vs_convolution():
    spec = KERNEL_SPECS["exponential1"]
    ns = [4, 8, 16, 32, 64, 128, 256]
    t0 = time.perf_counter()
    kernel = stein_kernel(spec, 256)
    bounds = [clt_bound(spec, n, kernel=kernel) for n in ns]
    empirical = [convolution_tv(spec, n, 1 << 16) for n in ns]
    elapsed = time.perf_counter() - t0

    dominated = all(e <= b for e, b in zip(empirical, bounds))
    bound_err = max(abs(b - 2.0 / math.sqrt(n)) for b, n in zip(bounds, ns))
    slope_b, slope_e = rate_fit(CltCurve(ns=tuple(ns), bounds=tuple(bounds),
                                         empirical=tuple(empirical)))
    in_window = -0.6 <= slope_e <= -0.4
    ok = dominated and bound_err < 1e-10 and in_window and elapsed < 60.0
    _report(9, ok, f"dominated={dominated} bound_err={bound_err:.2e} "
                   f"slope={slope_e:.3f} runtime={elapsed:.0f}s")
    assert dominated
    assert bound_err < 1e-10
    assert in_window
    assert elapsed < 60.0


def test_criterion_10_equivariance():
    spec = KERNEL_SPECS["uniform01"]
    mapped = affine_transform(spec, 3.0, -2.0)
    ky = stein_kernel(mapped)
    kx = stein_kernel(spec)
    ts = ky.grid_t
    err = float(np.max(np.abs(ky.values(ts) - 9.0 * kx.values((ts + 2.0) / 3.0))))
    ok = err < 1e-8
    _report(10, ok, f"affine equivariance max_err={err:.2e}")
    assert err < 1e-8
