import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from steinkit import (
    Atom,
    CantorPart,
    DegenerateError,
    DistributionSpec,
    ExistenceError,
    KernelFn,
    Normal,
    Reason,
    SpecError,
    SupportInterval,
    TestFunction,
    Uniform,
    Verdict,
    affine_transform,
    discrete_witness,
    existence_check,
    kernel_stats,
    kernel_to_csv,
    moments,
    nz_density,
    nz_mass,
    radon_nikodym_factor,
    standard_test_functions,
    stein_kernel,
    stein_residual,
    support,
    truncated_support,
)
from oracle_utils import kernel_measure_integral
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
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


def test_radon_nikodym_factor_values():
    h = radon_nikodym_factor(KERNEL_SPECS["uniform_cantor"])
    assert h(0.5) == 1.0
    assert h(0.25) == 0.0
    uniform_h = radon_nikodym_factor(KERNEL_SPECS["atom_inside_uniform"])
    assert uniform_h(0.5) == 0.0
    assert uniform_h(0.7) == 1.0


@pytest.mark.parametrize("name", ["uniform_cantor", "atom_inside_uniform"])
def test_radon_nikodym_factor_array_matches_scalar_calls(name):
    h = radon_nikodym_factor(KERNEL_SPECS[name])
    ts = np.array([-0.5, 0.0, 0.25, 1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 0.7, 1.0, 1.5])
    got = h(ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    want = [h(float(t)) for t in ts]
    assert all(type(v) is float for v in want)
    assert got.tolist() == want
    assert 0.0 in want and 1.0 in want


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
                     params={"value": 1.0}, grid_t=np.array([0.0]),
                     grid_tau=np.array([1.0]), atom_zeros=(),
                     _fn_vec=lambda ts: np.ones_like(ts))
    tf_sin = next(tf for tf in standard_test_functions(-8, 8) if tf.id == "sin")
    assert abs(stein_residual(N01, const, tf_sin)) < 1e-9
    ku = stein_kernel(U01, 64)
    tf_sq = next(tf for tf in standard_test_functions(0, 1) if tf.id == "x^2")
    assert abs(stein_residual(U01, ku, tf_sq)) < 1e-9


def test_residual_detects_wrong_kernel():
    wrong = KernelFn(domain=SupportInterval(0.0, 1.0), form="constant",
                     params={"value": 0.3}, grid_t=np.array([0.5]),
                     grid_tau=np.array([0.3]), atom_zeros=(),
                     _fn_vec=lambda ts: np.full_like(ts, 0.3))
    tf_x = standard_test_functions(0, 1)[0]
    assert abs(stein_residual(U01, wrong, tf_x)) > 0.1


def test_foreign_kernel_is_integrated_over_the_singular_support():
    # a caller-built kernel has no registered Cantor intervals, so the
    # singular-continuous part is sampled at construction cells (first-order
    # accurate).  tau constantly sigma^2 satisfies the f(x)=x equation only
    # if the Cantor half of the mass is counted; by symmetry of the spec it
    # also satisfies x^2, while x^3 exposes it as invalid
    spec = KERNEL_SPECS["uniform_cantor"]
    var = moments(spec).variance
    const = KernelFn(domain=SupportInterval(0.0, 1.0), form="constant",
                     params={"value": var}, grid_t=np.array([0.5]),
                     grid_tau=np.array([var]), atom_zeros=(),
                     _fn_vec=lambda ts: np.full_like(ts, var))
    by_id = {tf.id: tf for tf in standard_test_functions(0.0, 1.0)}
    assert abs(stein_residual(spec, const, by_id["x"])) < 1e-6
    assert abs(stein_residual(spec, const, by_id["x^3"])) > 1e-3


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
