import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from steinkit import (
    Atom,
    CantorPart,
    DegenerateError,
    DistributionSpec,
    ExistenceError,
    Exponential,
    KernelFn,
    Normal,
    NumericsError,
    Reason,
    SpecError,
    SupportInterval,
    Tabulated,
    TestFunction,
    Uniform,
    Verdict,
    affine_transform,
    discrepancy_bounds,
    discrete_witness,
    existence_check,
    kernel_stats,
    kernel_to_csv,
    moments,
    nz_density,
    nz_mass,
    standard_test_functions,
    stein_kernel,
    stein_residual,
    support,
    truncated_support,
    tv_to_normal,
)
from oracle_utils import kernel_measure_integral
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
from steinkit.distributions import ac_density, expect
from steinkit.kernels import MAX_GRID

import oracle_utils as oracle

MIXED = KERNEL_SPECS["mixed_atoms_uniform"]
U01 = KERNEL_SPECS["uniform01"]
N01 = KERNEL_SPECS["normal_std"]
E1 = KERNEL_SPECS["exponential1"]


def _tfs(spec):
    return standard_test_functions(*truncated_support(spec, 1e-9))


# -- existence gate ----------------------------------------------------------

def test_existence_verdicts_positive_corpus():
    for name, spec in KERNEL_SPECS.items():
        report = existence_check(spec)
        assert report.verdict is Verdict.EXISTS, name
        assert report.reasons == (), name


def test_existence_verdicts_negative_corpus():
    for name, (spec, verdict) in NO_KERNEL_SPECS.items():
        report = existence_check(spec)
        assert report.verdict is verdict, name


def test_two_bump_failing_region():
    report = existence_check(NO_KERNEL_SPECS["two_bump"][0])
    assert report.failing_region == (-1.0, 1.0)
    assert Reason.DENSITY_VANISHES in report.reasons


def test_rademacher_reason_is_purely_atomic():
    report = existence_check(NO_KERNEL_SPECS["rademacher"][0])
    assert report.reasons == (Reason.PURELY_ATOMIC,)


def test_cantor_only_reason():
    report = existence_check(NO_KERNEL_SPECS["cantor_only"][0])
    assert report.reasons == (Reason.AC_PART_ZERO,)


def test_singular_mass_informational_reason():
    spec = DistributionSpec((Uniform(-2.0, -1.0, 0.4), Uniform(1.0, 2.0, 0.4),
                             Atom(0.0, 0.2)))
    report = existence_check(spec)
    assert report.verdict is Verdict.NOT_EXISTS
    assert Reason.DENSITY_VANISHES in report.reasons
    assert Reason.SINGULAR_MASS_INFO in report.reasons


def test_rational_intervals_truncation_has_gaps():
    spec, _ = NO_KERNEL_SPECS["rational_intervals"]
    report = existence_check(spec)
    assert report.verdict is Verdict.NOT_EXISTS
    lo, hi = report.failing_region
    assert support(spec).lo < lo < hi < support(spec).hi


def test_touching_uniforms_exist():
    spec = DistributionSpec((Uniform(0.0, 1.0, 0.5), Uniform(1.0, 2.0, 0.5)))
    assert existence_check(spec).verdict is Verdict.EXISTS


def test_tabulated_interior_zero_run_blocks():
    from steinkit import Tabulated
    piece = Tabulated(np.array([0.0, 1.0, 2.0, 3.0]),
                      np.array([1.0, 0.0, 0.0, 1.0]), 1.0)
    report = existence_check(DistributionSpec((piece,)))
    assert report.verdict is Verdict.NOT_EXISTS
    assert report.failing_region == (1.0, 2.0)


# -- non-zero-bias density ---------------------------------------------------

def test_nz_density_examples():
    rade = NO_KERNEL_SPECS["rademacher"][0]
    assert nz_density(rade, 0.0) == pytest.approx(0.5, abs=1e-12)
    # uniform(0,1) biased density is 6t(1-t)
    assert nz_density(U01, 0.25) == pytest.approx(1.125, abs=1e-12)
    # the standard normal is the fixed point: q = phi
    assert nz_density(N01, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_nz_density_vanishes_off_support():
    assert nz_density(U01, -0.5) == 0.0
    assert nz_density(U01, 1.5) == 0.0


def test_nz_density_degenerate_raises():
    with pytest.raises(DegenerateError):
        nz_density(NO_KERNEL_SPECS["dirac"][0], 0.0)


@pytest.mark.parametrize("call", [lambda s: nz_density(s, 0.0), lambda s: nz_mass(s, -1.0, 1.0),
                                  tv_to_normal],
                         ids=["nz_density", "nz_mass", "tv_to_normal"])
def test_an_underflowed_variance_is_no_point_mass(call):
    # sigma^2 = 1e-400 rounds to 0, but the law is no point mass: every
    # operation that needs sigma^2 > 0 names it, as a numerical failure
    with pytest.raises(NumericsError, match=r"^sigma\^2 = 0\.0 underflows"):
        call(DistributionSpec((Normal(0.0, 1e-200, 1.0),)))


def test_nz_density_integrates_to_one():
    for name in ["uniform01", "mixed_atoms_uniform", "exponential1",
                 "uniform_cantor", "atom_inside_uniform"]:
        spec = KERNEL_SPECS[name]
        lo, hi = truncated_support(spec, 1e-9)
        assert nz_mass(spec, lo, hi) == pytest.approx(1.0, abs=1e-7), name


def test_nz_density_against_rademacher_uniform_law():
    # the biased law of a Rademacher is uniform on (-1, 1)
    rade = NO_KERNEL_SPECS["rademacher"][0]
    for t in [-0.9, -0.3, 0.2, 0.8]:
        assert nz_density(rade, t) == pytest.approx(0.5, abs=1e-12)


# -- kernel construction -----------------------------------------------------

def test_golden_kernel_matches_closed_form():
    kernel = stein_kernel(MIXED, 256)
    ts = np.linspace(-1.0, 1.0, 1001)
    expected = np.where(np.abs(ts) < 1.0, 1.0 + 0.5 * (1.0 - ts * ts), 0.0)
    expected[0] = expected[-1] = 0.0
    got = kernel.values(ts)
    assert float(np.max(np.abs(got - expected))) < 1e-8
    assert kernel.evaluate(1.0) == 0.0
    assert kernel.evaluate(-1.0) == 0.0


def test_normal_kernel_is_constant_variance():
    for mean, sd in [(0.0, 1.0), (2.0, 0.5)]:
        spec = DistributionSpec((Normal(mean, sd, 1.0),))
        kernel = stein_kernel(spec, 64)
        assert kernel.form == "constant"
        assert kernel.evaluate(mean + 0.3) == pytest.approx(sd * sd, abs=1e-15)


def test_uniform_kernel_closed_form():
    kernel = stein_kernel(U01, 64)
    assert kernel.form == "polynomial-over-interval"
    for t in [0.1, 0.25, 0.5, 0.9]:
        assert kernel.evaluate(t) == pytest.approx(t * (1 - t) / 2, abs=1e-15)
    assert kernel.evaluate(-0.1) == 0.0


def test_exponential_kernel_closed_form():
    kernel = stein_kernel(E1, 64)
    assert kernel.form == "linear"
    for t in [0.2, 1.0, 5.0]:
        assert kernel.evaluate(t) == pytest.approx(t, abs=1e-15)
    assert kernel.evaluate(-1.0) == 0.0


@pytest.mark.parametrize("name", ["uniform01", "exponential2", "tabulated_triangle",
                                  "overlap_uniforms"])
def test_forward_and_backward_integral_forms_agree(name):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 64)
    lo, hi = truncated_support(spec, 1e-9)
    ts = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 9)
    # the two integral forms divide by p(t); keep the comparison where the
    # density is large enough for quadrature oracles to resolve the ratio
    ts = [float(t) for t in ts if oracle.mixture_pdf(spec, float(t)) > 1e-4]
    assert len(ts) >= 4
    for t in ts:
        fwd = oracle.forward_kernel_oracle(spec, t)
        bwd = oracle.backward_kernel_oracle(spec, t)
        assert fwd == pytest.approx(bwd, abs=1e-8)
        assert kernel.evaluate(t) == pytest.approx(fwd, abs=1e-8)


def test_kernel_grid_is_clustered_and_inside():
    kernel = stein_kernel(U01, 128)
    assert len(kernel.grid_t) == 128
    assert np.all(np.diff(kernel.grid_t) > 0)
    assert kernel.grid_t[0] > 0.0 and kernel.grid_t[-1] < 1.0
    # Chebyshev clustering: edge spacing much finer than central spacing
    edge = kernel.grid_t[1] - kernel.grid_t[0]
    mid = kernel.grid_t[65] - kernel.grid_t[64]
    assert edge < 0.2 * mid


def test_kernel_nonnegative_on_grid():
    for name, spec in KERNEL_SPECS.items():
        kernel = stein_kernel(spec, 128)
        assert np.all(kernel.grid_tau >= 0.0), name


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_grid_tau_is_the_kernel_at_grid_t(name):
    # the export sample is read through `values`, the one place the
    # version rules are applied
    kernel = stein_kernel(KERNEL_SPECS[name], 256)
    assert np.array_equal(kernel.grid_tau, kernel.values(kernel.grid_t))


def test_stein_kernel_evaluates_no_partial_expectation(monkeypatch):
    # building a grid kernel evaluates its rule nowhere: the export sample
    # is read only when the kernel is
    import steinkit.kernels as kernels_mod
    calls = []
    real = kernels_mod.partial_expectation
    monkeypatch.setattr(kernels_mod, "partial_expectation",
                        lambda spec, t: calls.append(np.size(t)) or real(spec, t))
    kernel = stein_kernel(MIXED)
    assert kernel.form == "grid" and calls == []
    assert len(kernel.grid_tau) == len(kernel.grid_t)
    assert calls == [len(kernel.grid_t)]


def test_kernel_zero_at_atoms_and_outside():
    kernel = stein_kernel(KERNEL_SPECS["atom_inside_uniform"], 64)
    assert kernel.evaluate(0.5) == 0.0
    assert 0.5 in kernel.atom_zeros
    assert kernel.evaluate(-3.0) == 0.0 and kernel.evaluate(3.0) == 0.0


def test_kernel_zero_on_cantor_support():
    kernel = stein_kernel(KERNEL_SPECS["uniform_cantor"], 64)
    for t in [0.0, 0.25, 1.0 / 3.0, 1.0]:
        assert kernel.evaluate(t) == 0.0
    assert kernel.evaluate(0.5) > 0.0


# -- one density version at a break: each piece's on [lo, hi) ----------------

def test_a_split_uniform_reads_the_uniform_at_its_seam():
    halves = DistributionSpec((Uniform(0.0, 0.5, 0.5), Uniform(0.5, 1.0, 0.5)))
    assert ac_density(halves, 0.5) == 1.0
    assert stein_kernel(halves, 64).evaluate(0.5) == pytest.approx(0.125, rel=1e-14)
    assert stein_kernel(U01, 64).evaluate(0.5) == pytest.approx(0.125, rel=1e-14)


def test_a_triangle_in_two_tabulated_halves_reads_the_triangle_at_its_peak():
    whole = DistributionSpec((Tabulated(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]),
                                        1.0),))
    halves = DistributionSpec((Tabulated(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.5),
                               Tabulated(np.array([1.0, 2.0]), np.array([2.0, 0.0]), 0.5)))
    want = stein_kernel(whole, 64).evaluate(1.0)
    assert want == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert stein_kernel(halves, 64).evaluate(1.0) == pytest.approx(want, rel=1e-14)


def test_a_split_uniform_beside_a_cantor_part_reads_the_uniform_at_its_seam():
    whole = DistributionSpec((CantorPart(0.0, 1.0, 0.5), Uniform(0.0, 1.0, 0.5)))
    split = DistributionSpec((CantorPart(0.0, 1.0, 0.5), Uniform(0.0, 0.5, 0.25),
                              Uniform(0.5, 1.0, 0.25)))
    want = stein_kernel(whole, 64).evaluate(0.5)
    assert want == pytest.approx(0.2916666666666667, rel=1e-14)
    assert stein_kernel(split, 64).evaluate(0.5) == pytest.approx(want, rel=1e-14)


def test_kernel_requires_existence():
    with pytest.raises(ExistenceError) as exc:
        stein_kernel(NO_KERNEL_SPECS["two_bump"][0])
    assert exc.value.report.failing_region == (-1.0, 1.0)
    with pytest.raises(DegenerateError):
        stein_kernel(NO_KERNEL_SPECS["dirac"][0])
    with pytest.raises(SpecError):
        stein_kernel(U01, grid_size=8)
    with pytest.raises(SpecError):
        stein_kernel(U01, grid_size=MAX_GRID + 1)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_values_accept_scalars_and_zero_d_arrays(name):
    # interior points, atoms and points of a Cantor set, as a float, an
    # np.float64 and a 0-d array: the vector rules agree with `evaluate`
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 64)
    lo, hi = truncated_support(spec, 1e-9)
    points = list(np.linspace(lo, hi, 9)[1:-1]) + [a.location for a in spec.atoms]
    points += [c.lo + (c.hi - c.lo) * u for c in spec.cantor_parts for u in (0.0, 0.25, 2 / 3)]
    for t in map(float, points):
        want = kernel.evaluate(t)
        ae = float(kernel.values_ae(np.array([t]))[0])
        for arg in (t, np.float64(t), np.array(t)):
            got = kernel.values(arg)
            assert np.ndim(got) == 0 and float(got) == want, (name, t, type(arg))
            assert float(kernel.values_ae(arg)) == ae, (name, t, type(arg))


# -- certification -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_stein_residuals_below_certification_tolerance(name):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 256)
    for tf in _tfs(spec):
        assert abs(stein_residual(spec, kernel, tf)) < 1e-6, (name, tf.id)


def _certify(spec, grid=1024):
    """(|E tau - sigma^2|, largest of the 7 standard residuals)."""
    kernel = stein_kernel(spec, grid)
    mean_tau, _ = kernel_stats(spec, kernel)
    residuals = [abs(stein_residual(spec, kernel, tf)) for tf in _tfs(spec)]
    return abs(mean_tau - moments(spec).variance), max(residuals)


def test_uniform_cantor_certifies_to_1e_10():
    gap, worst = _certify(KERNEL_SPECS["uniform_cantor"])
    assert gap <= 1e-10
    assert worst <= 1e-10


def test_uniform_cantor_certificate_pins_its_reference_values():
    # bound_l1 against the Fubini reference 0.220567221356900: on [0, 1] the
    # weighted AC density is 1/2, so the AC part sums |E[(X - m)(clamp(X, a, b)
    # - a)] - sigma^2 (b - a)/2| over crossing panels (mpmath), and the Cantor
    # part comes from depth-22 cell midpoints
    spec = KERNEL_SPECS["uniform_cantor"]
    kernel = stein_kernel(spec, 1024)
    mean_tau, _ = kernel_stats(spec, kernel)
    assert abs(mean_tau - moments(spec).variance) <= 1e-13
    assert abs(discrepancy_bounds(spec, kernel).bound_l1 - 0.220567221356900) <= 1e-10


def test_normal_cantor_mixture_residuals_cover_the_normal_tails():
    spec = DistributionSpec((Normal(0.3, 1.0, 0.6), CantorPart(0.0, 1.0, 0.4)))
    _, worst = _certify(spec)
    assert worst <= 1e-9


def test_cantor_mean_tau_does_not_depend_on_the_span():
    import time
    spec = DistributionSpec((Uniform(0.0, 1e6, 0.5), CantorPart(0.0, 1e6, 0.5)))
    kernel = stein_kernel(spec, 1024)
    start = time.perf_counter()
    mean_tau, _ = kernel_stats(spec, kernel)
    assert time.perf_counter() - start < 1.0
    var = moments(spec).variance
    assert abs(mean_tau - var) <= 1e-9 * var


@pytest.mark.filterwarnings("ignore::steinkit.errors.IntegrationWarning")
def test_cantor_kernel_stats_at_a_tiny_tolerance_returns_promptly():
    import time
    from steinkit import QuadratureConfig
    spec = KERNEL_SPECS["uniform_cantor"]
    config = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    kernel = stein_kernel(spec, 1024, config)
    start = time.perf_counter()
    mean_tau, _ = kernel_stats(spec, kernel, config)
    assert time.perf_counter() - start < 5.0
    assert mean_tau == pytest.approx(moments(spec).variance, abs=1e-9)


def test_residual_examples():
    km = stein_kernel(MIXED, 64)
    tf_x = standard_test_functions(-1, 1)[0]
    assert abs(stein_residual(MIXED, km, tf_x)) < 1e-9
    # Stein's lemma fixed point: constant kernel 1 for the standard normal
    const = KernelFn(domain=SupportInterval(-math.inf, math.inf), form="constant",
                     params={"value": 1.0}, grid_t=np.array([0.0]), atom_zeros=(),
                     _fn_vec=lambda ts: np.ones_like(ts))
    tf_sin = next(tf for tf in standard_test_functions(-8, 8) if tf.id == "sin")
    assert abs(stein_residual(N01, const, tf_sin)) < 1e-9
    ku = stein_kernel(U01, 64)
    tf_sq = next(tf for tf in standard_test_functions(0, 1) if tf.id == "x^2")
    assert abs(stein_residual(U01, ku, tf_sq)) < 1e-9


def test_residual_detects_wrong_kernel():
    wrong = KernelFn(domain=SupportInterval(0.0, 1.0), form="constant",
                     params={"value": 0.3}, grid_t=np.array([0.5]), atom_zeros=(),
                     _fn_vec=lambda ts: np.full_like(ts, 0.3))
    tf_x = standard_test_functions(0, 1)[0]
    assert abs(stein_residual(U01, wrong, tf_x)) > 0.1


def _foreign_constant_kernel(k):
    """uniform[0, 2^k] + Cantor[0, 2^k] with equal weights, and a caller-built
    kernel constantly sigma^2 that counts the points it is evaluated at."""
    s = 2.0 ** k
    spec = DistributionSpec((Uniform(0.0, s, 0.5), CantorPart(0.0, s, 0.5)))
    var = moments(spec).variance
    seen = [0]

    def fn_vec(ts):
        seen[0] += np.size(ts)
        return np.full_like(ts, var)

    const = KernelFn(domain=SupportInterval(0.0, s), form="constant",
                     params={"value": var}, grid_t=np.array([0.5 * s]), atom_zeros=(),
                     _fn_vec=fn_vec)
    return spec, var, const, seen


@pytest.mark.parametrize("k", [-20, 0, 20])
def test_foreign_kernel_is_integrated_over_the_singular_support(k):
    # a caller-built kernel has no registered Cantor intervals, so it is
    # evaluated on the singular-continuous part, at the same cell midpoints
    # as any kernel.  tau constantly sigma^2 satisfies the f(x)=x equation
    # only if the Cantor half of the mass is counted, and the rule is
    # scale-free: the same accuracy from the same points at every span 2^k
    spec, var, const, seen = _foreign_constant_kernel(k)
    x = standard_test_functions(0.0, 2.0 ** k)[0]
    assert abs(stein_residual(spec, const, x)) <= 1e-9 * var
    unit_spec, _, unit, unit_seen = _foreign_constant_kernel(0)
    stein_residual(unit_spec, unit, x)
    assert seen[0] == unit_seen[0]
    if k == 0:
        # x^3, not scale-free like x, exposes the constant as invalid
        x3 = standard_test_functions(0.0, 1.0)[2]
        assert abs(stein_residual(spec, const, x3)) > 1e-3


def test_kernel_evaluation_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor
    spec = KERNEL_SPECS["normal_uniform_mix"]
    kernel = stein_kernel(spec, 64)
    ts = np.linspace(-3.0, 3.0, 400)
    serial = [kernel.evaluate(float(t)) for t in ts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(kernel.evaluate, map(float, ts)))
    assert threaded == serial


# -- kernel statistics -------------------------------------------------------

def test_kernel_stats_uniform():
    mean_tau, var_tau = kernel_stats(U01, stein_kernel(U01, 64))
    assert mean_tau == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert var_tau == pytest.approx(1.0 / 720.0, abs=1e-12)


def test_kernel_stats_normal():
    mean_tau, var_tau = kernel_stats(N01, stein_kernel(N01, 64))
    assert mean_tau == pytest.approx(1.0, abs=1e-10)
    assert var_tau == pytest.approx(0.0, abs=1e-12)


def test_kernel_stats_of_a_narrow_far_normal():
    # N(5, 1e-3): sigma^2 = 1e-6 and the constant kernel has no spread
    spec = DistributionSpec((Normal(5.0, 1e-3, 1.0),))
    mean_tau, var_tau = kernel_stats(spec, stein_kernel(spec, 64))
    assert mean_tau == pytest.approx(1e-6, rel=1e-12, abs=0.0)
    assert var_tau == 0.0


def test_residuals_expose_a_kernel_too_large_for_a_narrow_law():
    # tau = 1 on N(5, 1e-3), 1e6 times sigma^2: E[f'] - E[(X - m) f] is
    # 1 - sigma^2 for f = x and 2m - 2m sigma^2 for f = x^2
    spec = DistributionSpec((Normal(5.0, 1e-3, 1.0),))
    one = KernelFn(domain=SupportInterval(-math.inf, math.inf), form="constant",
                   params={"value": 1.0}, grid_t=np.array([5.0]), atom_zeros=(),
                   _fn_vec=lambda ts: np.ones_like(ts))
    x, x2 = standard_test_functions(*truncated_support(spec, 1e-9))[:2]
    assert stein_residual(spec, one, x) == pytest.approx(1.0 - 1e-6, rel=1e-12, abs=0.0)
    assert stein_residual(spec, one, x2) == pytest.approx(10.0 - 1e-5, rel=1e-12, abs=0.0)


def test_var_tau_is_the_spread_about_sigma2():
    # 1/2 N(-d s, s) + 1/2 N(d s, s) with d = 2^-8: tau - sigma^2 is
    # O(d^4) s^2, so Var tau ~ 1.2e-20 s^4, far below the rounding of
    # E tau^2 - (E tau)^2; the spread about sigma^2 gives the same Var tau /
    # s^4 at every dyadic scale.  tau's own rounding, ~1e-16 s^2, leaves
    # Var tau good to ~1e-7 on other nodes, such as those of the bounds
    got = []
    for k in (-16, 0, 16):
        s = 2.0 ** k
        spec = DistributionSpec((Normal(-s / 256, s, 0.5), Normal(s / 256, s, 0.5)))
        kernel = stein_kernel(spec, 64)
        _, var_tau = kernel_stats(spec, kernel)
        got.append(var_tau / s ** 4)
        assert discrepancy_bounds(spec, kernel).bound_sd == pytest.approx(
            2.0 * math.sqrt(var_tau), rel=1e-6, abs=0.0)
    assert 1e-21 < got[1] < 1e-19
    assert got[0] == pytest.approx(got[1], rel=1e-9, abs=0.0)
    assert got[2] == pytest.approx(got[1], rel=1e-9, abs=0.0)


def _sweep_spec(family, k, j):
    s = 2.0 ** k
    mu = s * 2.0 ** j
    return DistributionSpec({
        "normal": (Normal(mu, s, 1.0),),
        "same_mean": (Normal(mu, s, 0.5), Normal(mu, 2 * s, 0.5)),
        "opposite": (Normal(-mu, s, 0.5), Normal(mu, s, 0.5)),
        "exponential": (Exponential(s, 0.5), Exponential(2 * s, 0.5)),
    }[family])


# s = 2^k, k in {-40, -36, ..., 40}, and mu / s = 2^j, j in {-10, -8, ..., 10};
# the pair at -mu and mu stops at mu / s = 16, beyond which its AC density
# underflows between the two bumps
SCALE_SWEEP = [(family, k, j) for k in range(-40, 41, 4) for j in range(-10, 11, 2)
               for family in ("normal", "same_mean", "opposite")
               if family != "opposite" or j <= 4] + [("exponential", k, 0)
                                                     for k in range(-40, 41, 4)]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(SCALE_SWEEP))
def test_mass_and_mean_tau_hold_at_every_scale(case):
    from steinkit.distributions import expect
    spec = _sweep_spec(*case)
    var = moments(spec).variance
    mean_tau, _ = kernel_stats(spec, stein_kernel(spec, 64))
    assert expect(spec, lambda x, _: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)
    assert mean_tau == pytest.approx(var, rel=1e-12, abs=0.0)


def test_kernel_stats_mixed_against_oracle():
    from scipy.integrate import quad
    km = stein_kernel(MIXED, 64)
    mean_tau, var_tau = kernel_stats(MIXED, km)
    assert mean_tau == pytest.approx(2.0 / 3.0, abs=1e-9)
    # E[tau^2] over the AC part: quadrature oracle of (1+(1-t^2)/2)^2 / 4
    e2, _ = quad(lambda t: (1 + 0.5 * (1 - t * t)) ** 2 * 0.25, -1, 1)
    assert var_tau == pytest.approx(e2 - 4.0 / 9.0, abs=1e-9)


def test_kernel_stats_finite_for_off_centre_normal_mixture():
    # normal(0.1, 1) + uniform(0, 1): far below the mean the kernel tends to
    # the normal piece's variance, tau(t) = 1 + 0.2 * Phi(z) / phi(z) at
    # z = t - 0.1, with Mills' ratio taken through logarithms
    spec = DistributionSpec((Normal(0.1, 1.0, 0.5), Uniform(0.0, 1.0, 0.5)))
    kernel = stein_kernel(spec, 256)
    z = -30.1
    log_phi = -0.5 * z * z - 0.5 * math.log(2 * math.pi)
    assert kernel.evaluate(-30.0) == pytest.approx(
        1.0 + 0.2 * math.exp(float(log_ndtr(z)) - log_phi), rel=1e-12)
    mean_tau, var_tau = kernel_stats(spec, kernel)
    assert mean_tau == pytest.approx(moments(spec).variance, abs=1e-9)
    assert math.isfinite(var_tau)


def test_var_tau_overflow_raises_a_named_error():
    # tau between the bumps passes 1e224: E (tau - sigma^2)^2 is named as
    # out of the float range before any RuntimeWarning or IntegrationWarning
    spec = DistributionSpec((Normal(-64.0, 1.0, 0.5), Normal(64.0, 3.0, 0.5)))
    kernel = stein_kernel(spec, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stat in (kernel_stats, discrepancy_bounds):
            with pytest.raises(NumericsError, match=r"^Var tau: E \(tau - sigma\^2\)\^2 overflows"):
                stat(spec, kernel)


# -- the kernel's starting pass ----------------------------------------------

def _certificate(spec, kernel_for):
    """kernel_stats, the 7 residuals and discrepancy_bounds, each on the
    kernel kernel_for() returns, as exact reprs."""
    out = [kernel_stats(spec, kernel_for())]
    out += [stein_residual(spec, kernel_for(), tf) for tf in _tfs(spec)]
    out.append(discrepancy_bounds(spec, kernel_for()).to_dict())
    return repr(out)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_a_shared_kernel_certifies_bitwise_as_fresh_ones(name):
    # the starting pass a kernel keeps gives the same bits as one evaluated
    # anew, on the first certificate and on a second one that only reads it
    spec = KERNEL_SPECS[name]
    fresh = _certificate(spec, lambda: stein_kernel(spec, 256))
    shared = stein_kernel(spec, 256)
    assert _certificate(spec, lambda: shared) == fresh
    assert _certificate(spec, lambda: shared) == fresh


def test_a_replaced_kernel_starts_with_an_empty_memo():
    kernel = stein_kernel(MIXED, 64)
    kernel_stats(MIXED, kernel)
    assert len(kernel._start_pass) == 1
    doubled = dataclasses.replace(kernel, _fn_vec=lambda ts: 2.0 * kernel._fn_vec(ts))
    assert doubled._start_pass == {}
    mean_tau, _ = kernel_stats(MIXED, doubled)
    assert mean_tau == pytest.approx(2.0 * moments(MIXED).variance, rel=1e-12)


def test_another_spec_reads_nothing_from_the_memo():
    # two specs on the same segments, so the same starting nodes, with
    # different densities: on b, the grid kernel of `a` keeps its own values
    # and the integral weighs them by b's density
    a = DistributionSpec((Uniform(0.0, 1.0, 0.3), Uniform(0.0, 2.0, 0.7)))
    b = DistributionSpec((Uniform(0.0, 1.0, 0.6), Uniform(0.0, 2.0, 0.4)))
    g = lambda x, tau: np.stack([tau, x * tau])
    want = expect(b, g, kernel=stein_kernel(a, 64))
    kernel = stein_kernel(a, 64)
    expect(a, g, kernel=kernel)
    (key, (spec, _, _)), = kernel._start_pass.items()
    assert spec is a
    got = expect(b, g, kernel=kernel)
    assert repr(got.tolist()) == repr(want.tolist())
    assert list(kernel._start_pass) == [key] and kernel._start_pass[key][0] is b


def test_threads_sharing_a_kernel_read_only_their_own_spec():
    # threads alternating two specs on one kernel and the same starting
    # nodes: every result is bitwise the serial one, whatever the switches
    import sys
    from concurrent.futures import ThreadPoolExecutor
    a = DistributionSpec((Uniform(0.0, 1.0, 0.3), Uniform(0.0, 2.0, 0.7)))
    b = DistributionSpec((Uniform(0.0, 1.0, 0.6), Uniform(0.0, 2.0, 0.4)))
    g = lambda x, tau: np.stack([tau, x * tau])
    want = {id(s): repr(expect(s, g, kernel=stein_kernel(a, 64)).tolist()) for s in (a, b)}
    kernel = stein_kernel(a, 64)
    specs = [a, b] * 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: repr(expect(s, g, kernel=kernel).tolist()), specs,
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[id(s)] for s in specs]


@pytest.mark.parametrize("name", ["normal_std", "mixed_atoms_uniform", "uniform_cantor"])
def test_certification_evaluates_the_kernel_once_on_the_starting_nodes(name):
    # kernel_stats and the 7 residuals start on the same nodes: the kernel
    # is evaluated there once, and later only where a pass refines
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 256)
    calls = []

    def fn_vec(ts):
        calls.append(ts.tobytes())
        return kernel._fn_vec(ts)

    counted = dataclasses.replace(kernel, _fn_vec=fn_vec)
    kernel_stats(spec, counted)
    for tf in _tfs(spec):
        stein_residual(spec, counted, tf)
    assert len(calls[0]) > 0 and calls.count(calls[0]) == 1


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_certification_plans_each_starting_pass_once(name, monkeypatch):
    # kernel_stats, the 7 residuals and discrepancy_bounds share one plan of
    # the starting pass: the bounds cut it at their crossings, and the
    # distance reads its p
    import steinkit.distributions as dist
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 256)
    builds = []
    plan = dist._start_plan
    monkeypatch.setattr(dist, "_start_plan", lambda *args: builds.append(args) or plan(*args))
    kernel_stats(spec, kernel)
    for tf in _tfs(spec):
        stein_residual(spec, kernel, tf)
    assert len(builds) == 1
    discrepancy_bounds(spec, kernel)
    assert len(builds) == 1


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_a_plan_holds_the_public_evaluation(name):
    # the starting pass a kernel keeps reads, bit for bit, what the public
    # functions give: p and the a.e. tau at the AC nodes, the pointwise tau
    # at the atoms, and 0 on a registered Cantor part
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 256)
    kernel_stats(spec, kernel)
    (_, (ac, atoms, parts), (p, tau, atom_tau, part_taus)), = kernel._start_pass.values()
    x = ac[1]
    assert p.tobytes() == ac_density(spec, x).tobytes()
    assert tau.tobytes() == kernel.values_ae(x).tobytes()
    if atoms is not None:
        assert atom_tau.tobytes() == kernel.values(atoms[0]).tobytes()
    assert len(parts) == len(part_taus) == len(spec.cantor_parts)
    for (pts, _), part_tau, c in zip(parts, part_taus, spec.cantor_parts):
        assert (c.lo, c.hi) in kernel.cantor_intervals
        assert part_tau.tobytes() == np.zeros_like(pts).tobytes()


def test_a_plan_is_read_only():
    kernel = stein_kernel(MIXED, 64)
    kernel_stats(MIXED, kernel)
    (_, nodes, values), = kernel._start_pass.values()
    (panels, x, _, half), (xs, masses), _ = nodes
    for arr in (*panels, x, half, xs, masses, *values[:3]):
        assert not arr.flags.writeable


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_mean_tau_equals_variance(name):
    spec = KERNEL_SPECS[name]
    mean_tau, _ = kernel_stats(spec, stein_kernel(spec, 128))
    assert mean_tau == pytest.approx(moments(spec).variance, abs=1e-7), name


# -- measure identity (nz law vs kernel measure) ------------------------------

@pytest.mark.parametrize("name", ["uniform01", "mixed_atoms_uniform",
                                  "uniform_cantor", "atom_inside_uniform",
                                  "normal_uniform_mix"])
def test_nz_measure_identity_on_subintervals(name):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 128)
    var = moments(spec).variance
    lo, hi = truncated_support(spec, 1e-9)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u, v = sorted(rng.uniform(lo, hi, 2))
        lhs = nz_mass(spec, u, v)
        rhs = kernel_measure_integral(spec, kernel, u, v) / var
        assert lhs == pytest.approx(rhs, abs=1e-7), name


# -- discrete witness --------------------------------------------------------

def test_rademacher_witness_values():
    w = discrete_witness(NO_KERNEL_SPECS["rademacher"][0])
    assert w.residual_norm > 0
    assert not w.feasible
    assert w.functions == ("x^1", "x^3")
    assert abs(w.implied_values[0] - 2.0) < 1e-12
    assert abs(w.implied_values[1] - 2.0 / 3.0) < 1e-12


def test_single_atom_witness_feasible():
    w = discrete_witness(NO_KERNEL_SPECS["dirac"][0])
    assert w.residual_norm == 0.0
    assert w.feasible
    assert w.assignment == {0.7: 0.0}


def test_two_asymmetric_atoms_infeasible():
    spec = DistributionSpec((Atom(0.0, 0.5), Atom(1.0, 0.5)))
    w = discrete_witness(spec)
    assert w.residual_norm > 0
    assert not w.feasible
    # brute force: j=2 forces tau(1)=1/4 while j=3 forces tau(1)=1/6
    assert w.implied_values is None


def test_symmetric_scaled_atoms_witness():
    spec = DistributionSpec((Atom(2.0, 0.5), Atom(-2.0, 0.5)))
    w = discrete_witness(spec)
    # implied values of tau(c)+tau(-c) from j=1 and j=3: 2c^2 and 2c^2/3
    assert w.implied_values[0] == pytest.approx(8.0, abs=1e-12)
    assert w.implied_values[1] == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_witness_rejects_non_atomic():
    with pytest.raises(SpecError):
        discrete_witness(U01)


@pytest.mark.parametrize("locations, c", [
    (np.linspace(-1e-3, 1e-3, 2), 5e-4),
    (np.linspace(-1.0, 1.0, 3), 1.0 / 3.0),
    (np.linspace(-1.0, 1.0, 5), 0.3),
    (np.linspace(-1e-3, 1e-3, 10), 1e-3 / 3.6),
], ids=["two-at-1e-3", "three", "five", "ten-at-1e-3"])
def test_equal_atoms_have_no_kernel(locations, c):
    # the least-squares moment system once reported these laws feasible
    spec = DistributionSpec(tuple(Atom(float(x), 1.0 / len(locations)) for x in locations))
    w = discrete_witness(spec)
    assert not w.feasible
    assert w.residual_norm == pytest.approx(c, rel=1e-12)
    lo, hi = w.interval
    assert hi == locations[list(locations).index(lo) + 1]


def _exact_gap_constants(spec):
    """E[(X - m) 1{X > a}] at each atom a but the last, in exact arithmetic."""
    atoms = sorted((Fraction(a.location), Fraction(a.mass)) for a in spec.atoms)
    m = sum(p * x for x, p in atoms)
    return [x for x, _ in atoms], [sum(p * (x - m) for x, p in atoms[i + 1:])
                                   for i in range(len(atoms) - 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(1, 100)), min_size=2,
                max_size=40, unique_by=lambda a: a[0]),
       st.integers(-300, 300))
def test_witness_gap_constant_is_exact(atoms, k):
    total = sum(w for _, w in atoms)
    spec = DistributionSpec(tuple(Atom(math.ldexp(x, k), w / total) for x, w in atoms))
    w = discrete_witness(spec)
    locations, exact = _exact_gap_constants(spec)
    i = locations.index(Fraction(w.interval[0]))
    assert Fraction(w.interval[1]) == locations[i + 1]
    assert w.residual_norm > 0
    assert abs(Fraction(w.residual_norm) - exact[i]) <= Fraction(1e-9) * exact[i]
    assert exact[i] >= max(exact) * Fraction(1 - 1e-9)


# -- equivariance ------------------------------------------------------------

def test_equivariance_uniform_affine():
    spec_y = affine_transform(U01, 3.0, -2.0)
    ky = stein_kernel(spec_y, 64)
    kx = stein_kernel(U01, 64)
    ts = np.linspace(-2.0, 1.0, 513)[1:-1]
    got = ky.values(ts)
    want = 9.0 * kx.values((ts + 2.0) / 3.0)
    assert float(np.max(np.abs(got - want))) < 1e-8


@pytest.mark.parametrize("name", ["mixed_atoms_uniform", "normal_uniform_mix",
                                  "tabulated_triangle"])
@pytest.mark.parametrize("scale,shift", [(2.0, 1.0), (-1.0, 0.0)])
def test_equivariance_general(name, scale, shift):
    spec = KERNEL_SPECS[name]
    mapped = affine_transform(spec, scale, shift)
    kx = stein_kernel(spec, 64)
    ky = stein_kernel(mapped, 64)
    lo, hi = truncated_support(spec, 1e-9)
    ts = np.linspace(lo, hi, 101)[1:-1]
    atoms = {a.location for a in spec.atoms}
    keep = [i for i, t in enumerate(ts) if all(abs(t - a) > 1e-9 for a in atoms)]
    ts = ts[keep]
    want = scale * scale * kx.values(ts)
    got = ky.values(scale * ts + shift)
    assert float(np.max(np.abs(got - want))) < 1e-8, name


# -- singular-mass characterization (kernel zero set) -------------------------

@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_kernel_zero_set_has_positive_mass_iff_singular(name):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 64)
    zero_mass = sum(a.mass for a in spec.atoms) + sum(c.weight for c in spec.cantor_parts)
    assert (zero_mass > 0) == (spec.singular_mass > 0)
    for a in spec.atoms:
        assert kernel.evaluate(a.location) == 0.0
    for c in spec.cantor_parts:
        assert kernel.evaluate(c.lo) == 0.0
    # interior of the AC support carries positive kernel values
    lo, hi = truncated_support(spec, 1e-9)
    rng = np.random.default_rng(5)
    atoms = {a.location for a in spec.atoms}
    hits = 0
    for t in rng.uniform(lo, hi, 32):
        t = float(t)
        if any(abs(t - a) < 1e-9 for a in atoms):
            continue
        hits += kernel.evaluate(t) > 0.0
    assert hits >= 24


# -- test functions ----------------------------------------------------------

def test_standard_family_ids_and_bounds():
    tfs = standard_test_functions(-2.0, 3.0)
    assert [tf.id for tf in tfs] == ["x", "x^2", "x^3", "sin", "cos", "tanh", "arctan"]
    by_id = {tf.id: tf for tf in tfs}
    assert by_id["x^2"].derivative_bound == 6.0
    assert by_id["x^3"].derivative_bound == 27.0
    assert by_id["sin"].derivative_bound == 1.0


def test_derivatives_are_exact():
    tfs = standard_test_functions(-2.0, 3.0)
    for tf in tfs:
        assert tf.derivative_mismatch(-2.0, 3.0, n=100, seed=1) < 1e-6, tf.id


def test_derivative_bound_holds_on_interval():
    rng = np.random.default_rng(2)
    for tf in standard_test_functions(-2.0, 3.0):
        ts = rng.uniform(-2.0, 3.0, 100)
        assert all(abs(float(tf.f_prime(t))) <= tf.derivative_bound + 1e-12 for t in ts)


def test_derivative_mismatch_catches_wrong_derivative():
    bad = TestFunction("bad", lambda t: t * t, lambda t: 3.0 * t, 10.0)
    assert bad.derivative_mismatch(0.5, 2.0) > 1e-3


# -- CSV export ---------------------------------------------------------------

def test_kernel_csv_format():
    kernel = stein_kernel(MIXED, 32)
    text = kernel_to_csv(kernel)
    lines = text.strip().split("\n")
    assert lines[0] == "t,tau"
    assert len(lines) == 1 + 32 + 2
    assert lines[-1].endswith("# atom")
    assert lines[-2].endswith("# atom")
    t0, tau0 = lines[1].split(",")
    assert -1.0 < float(t0) < 1.0 and float(tau0) >= 0.0


def test_closed_form_descriptor():
    assert stein_kernel(N01, 32).descriptor() == {
        "form": "constant", "params": {"value": 1.0}}
    assert stein_kernel(MIXED, 32).descriptor() is None
