import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import log_ndtr

from steinkit import (
    CantorPart,
    DistributionSpec,
    Normal,
    SpecError,
    Tabulated,
    Uniform,
    ac_density,
    affine_transform,
    moments,
    parse_spec,
    partial_expectation,
    spec_to_dict,
    support,
    truncated_support,
)
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
from steinkit.distributions import (
    _ndtr,
    _ndtri,
    cantor_in_support,
    cantor_points,
    cantor_survival_upper_mean,
    integrate,
)

import oracle_utils as oracle

ALL_SPECS = dict(KERNEL_SPECS)
ALL_SPECS.update({k: v[0] for k, v in NO_KERNEL_SPECS.items()})


# -- parsing and validation -------------------------------------------------

def test_parse_single_uniform():
    spec = parse_spec('{"components":[{"kind":"uniform","lo":0,"hi":1,"weight":1.0}]}')
    assert len(spec.components) == 1
    assert isinstance(spec.components[0], Uniform)


def test_parse_mixed_example():
    doc = {"components": [
        {"kind": "atom", "location": 1.0, "mass": 0.25},
        {"kind": "atom", "location": -1.0, "mass": 0.25},
        {"kind": "uniform", "lo": -1.0, "hi": 1.0, "weight": 0.5},
    ]}
    spec = parse_spec(json.dumps(doc))
    assert len(spec.atoms) == 2
    assert spec.ac_weight == 0.5


def test_parse_rejects_bad_weight_sum():
    with pytest.raises(SpecError):
        parse_spec('{"components":[{"kind":"uniform","lo":0,"hi":1,"weight":0.9}]}')


def test_parse_rejects_malformed_document():
    with pytest.raises(SpecError):
        parse_spec("not json at all")
    with pytest.raises(SpecError):
        parse_spec('{"no_components": []}')
    with pytest.raises(SpecError):
        parse_spec('{"components":[{"kind":"martian","weight":1.0}]}')


def test_parse_rejects_duplicate_atoms():
    with pytest.raises(SpecError):
        parse_spec('{"components":[{"kind":"atom","location":1,"mass":0.5},'
                   '{"kind":"atom","location":1,"mass":0.5}]}')


def test_parse_rejects_negative_tabulated_values():
    with pytest.raises(SpecError):
        parse_spec('{"components":[{"kind":"tabulated","grid":[0,1],'
                   '"values":[1,-1],"weight":1.0}]}')


def test_parse_rejects_nonincreasing_grid():
    with pytest.raises(SpecError):
        parse_spec('{"components":[{"kind":"tabulated","grid":[0,0],'
                   '"values":[1,1],"weight":1.0}]}')


@pytest.mark.parametrize("text", [
    '{"components":[{"kind":"normal","mean":Infinity,"sd":1,"weight":1}]}',
    '{"components":[{"kind":"atom","location":NaN,"mass":0.5},'
    '{"kind":"uniform","lo":0,"hi":1,"weight":0.5}]}',
    # finite, but its closed-form second moment 2/rate^2 is not
    '{"components":[{"kind":"exponential","rate":1e-300,"weight":1}]}',
], ids=["normal_infinite_mean", "atom_nan_location", "exponential_rate_1e-300"])
def test_parse_rejects_non_finite_parameters(text):
    with pytest.raises(SpecError):
        parse_spec(text)


def test_tabulated_renormalizes_at_load():
    piece = Tabulated(np.array([0.0, 1.0]), np.array([3.0, 3.0]), 1.0)
    assert np.trapezoid(piece.values, piece.grid) == pytest.approx(1.0, abs=1e-14)


def test_spec_roundtrip_through_dict():
    for name, spec in ALL_SPECS.items():
        again = parse_spec(json.dumps(spec_to_dict(spec)))
        assert moments(again) == moments(spec), name


# -- moments -----------------------------------------------------------------

def test_uniform_moments():
    mom = moments(KERNEL_SPECS["uniform01"])
    assert mom.mean == pytest.approx(0.5, abs=1e-15)
    assert mom.variance == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_two_bump_moments_closed_form():
    spec = NO_KERNEL_SPECS["two_bump"][0]
    mom = moments(spec)
    assert mom.mean == pytest.approx(0.0, abs=1e-15)
    assert abs(mom.variance - 7.0 / 3.0) < 1e-12


def test_mixed_example_moments():
    mom = moments(KERNEL_SPECS["mixed_atoms_uniform"])
    assert mom.mean == pytest.approx(0.0, abs=1e-15)
    assert mom.variance == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cantor_moments_closed_form():
    mom = moments(DistributionSpec((CantorPart(2.0, 6.0, 1.0),)))
    assert mom.mean == pytest.approx(4.0, abs=1e-14)
    assert mom.variance == pytest.approx(16.0 / 8.0, abs=1e-12)


def test_single_atom_variance_zero():
    mom = moments(NO_KERNEL_SPECS["dirac"][0])
    assert mom.variance == 0.0


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_moments_match_quadrature_oracle(name):
    spec = ALL_SPECS[name]
    mean, var = oracle.moments_oracle(spec)
    mom = moments(spec)
    assert mom.mean == pytest.approx(mean, abs=1e-8)
    assert mom.variance == pytest.approx(var, abs=1e-8)


# -- density -----------------------------------------------------------------

def test_ac_density_values():
    mixed = KERNEL_SPECS["mixed_atoms_uniform"]
    assert ac_density(mixed, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert ac_density(mixed, 5.0) == 0.0
    std = KERNEL_SPECS["normal_std"]
    assert ac_density(std, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_ac_density_total_mass(name):
    spec = KERNEL_SPECS[name]
    mass, _ = integrate(lambda t: ac_density(spec, t), [-math.inf, *spec.density_breaks, math.inf])
    assert mass == pytest.approx(spec.ac_weight, abs=1e-8)


def test_ac_density_vectorized_matches_scalar():
    spec = KERNEL_SPECS["normal_uniform_mix"]
    ts = np.linspace(-3, 3, 41)
    vec = ac_density(spec, ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert ac_density(spec, float(t)) == pytest.approx(float(v), abs=0)


# -- normal CDF and quantile -------------------------------------------------

EPS = np.finfo(float).eps


def test_ndtr_is_within_its_condition_number_of_mpmath():
    # Phi's relative condition number is ~z^2, so (z^2 + 8) eps is what
    # libm's erfc of the once-rounded argument -z / sqrt 2 can promise
    z = np.linspace(-37.5, 8.3, 2001)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.ncdf(v)) for v in z])
    bound = (z * z + 8.0) * EPS * want
    assert np.all(np.abs(_ndtr(z) - want) <= bound)
    scalar = np.array([_ndtr(float(v)) for v in z])
    assert np.all(np.abs(scalar - want) <= bound)


def test_ndtri_is_within_4_eps_of_the_mpmath_root():
    ps = np.concatenate([np.logspace(-300, math.log10(0.5), 300),
                         1.0 - np.logspace(-15.9, math.log10(0.5), 100), [1.0 - 2.0 ** -53]])
    with mpmath.workdps(40):
        for p in map(float, ps):
            x = _ndtri(p)
            root = mpmath.findroot(lambda t: mpmath.ncdf(t) - p, x)
            assert abs(x - root) <= 4.0 * EPS * abs(root), p
    assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf


# -- partial expectations ----------------------------------------------------

def test_partial_expectation_examples():
    rade = NO_KERNEL_SPECS["rademacher"][0]
    assert partial_expectation(rade, 0.0) == pytest.approx(0.5, abs=1e-15)
    u01 = KERNEL_SPECS["uniform01"]
    assert partial_expectation(u01, 0.5) == pytest.approx(0.125, abs=1e-15)
    assert partial_expectation(u01, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_partial_expectation_against_oracle(name):
    spec = ALL_SPECS[name]
    lo, hi = truncated_support(spec, 1e-9)
    atoms = {a.location for a in spec.atoms}
    # the oracle's Cantor cells resolve the indicator only to ~2^-20
    tol = 1e-6 if spec.cantor_parts else 2e-8
    rng = np.random.default_rng(7)
    for t in rng.uniform(lo, hi, 5):
        t = float(t)
        if any(abs(t - a) < 1e-6 for a in atoms):
            continue
        assert partial_expectation(spec, t) == pytest.approx(
            oracle.partial_expectation_oracle(spec, t), abs=tol)


def test_partial_expectation_lower_tail_keeps_relative_precision():
    # normal(0.1, 1) + uniform(0, 1), mean 0.3: below 0 only the normal piece
    # contributes, 0.5 * (phi(z) + 0.2 * Phi(z)) at z = t - 0.1, here taken
    # through logarithms; the upper form sums order-one terms that cancel
    spec = DistributionSpec((Normal(0.1, 1.0, 0.5), Uniform(0.0, 1.0, 0.5)))
    for t in (-3.0, -12.0, -30.0):
        z = t - 0.1
        log_phi = -0.5 * z * z - 0.5 * math.log(2 * math.pi)
        want = 0.5 * (math.exp(log_phi) + 0.2 * math.exp(float(log_ndtr(z))))
        assert partial_expectation(spec, t) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert partial_expectation(spec, np.array([t, 0.5]))[0] == partial_expectation(spec, t)


def test_partial_expectation_tabulated_lower_edge():
    # triangle on [0, 1] with peak 2 at 1/2, mean 1/2: for 0 <= t <= 1/2,
    # E[(X - 1/2) 1{X >= t}] = -(integral from 0 to t of (x - 1/2) 4x dx)
    spec = KERNEL_SPECS["tabulated_triangle"]
    for t in (1e-7, 1e-3, 0.2):
        assert partial_expectation(spec, t) == pytest.approx(t * t - 4.0 * t ** 3 / 3.0,
                                                             rel=1e-12, abs=0.0)
    assert partial_expectation(spec, -1.0) == 0.0


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_partial_expectation_boundary_behavior(name):
    spec = ALL_SPECS[name]
    sup = support(spec)
    if sup.is_degenerate:
        return
    lo, hi = truncated_support(spec, 1e-9)
    assert abs(partial_expectation(spec, lo)) < 1e-8
    # X >= t includes an atom sitting exactly at the supremum, so probe past it
    past = hi + max(1e-9, abs(hi) * 1e-12)
    assert abs(partial_expectation(spec, past)) < 1e-7
    m = moments(spec).mean
    rng = np.random.default_rng(3)
    for t in rng.uniform(m, hi, 8):
        assert partial_expectation(spec, float(t)) >= -1e-12


def test_partial_expectation_atom_jump():
    spec = KERNEL_SPECS["atom_inside_uniform"]
    m = moments(spec).mean
    loc, mass = 0.5, 0.5
    eps = 1e-10
    left = partial_expectation(spec, loc - eps)
    right = partial_expectation(spec, loc + eps)
    assert left - right == pytest.approx(mass * (loc - m), abs=1e-7)
    # the value at the atom itself includes the atom
    assert partial_expectation(spec, loc) == pytest.approx(left, abs=1e-9)


# -- support -----------------------------------------------------------------

def test_support_cases():
    assert support(NO_KERNEL_SPECS["two_bump"][0]) == support(
        DistributionSpec((Uniform(-2, 2, 1.0),)))
    s = support(KERNEL_SPECS["exponential1"])
    assert s.lo == 0.0 and s.hi == math.inf
    d = support(NO_KERNEL_SPECS["dirac"][0])
    assert d.is_degenerate and d.lo == 0.7


def test_support_strips_tabulated_zero_runs():
    piece = Tabulated(np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                      np.array([0.0, 0.0, 2.0, 0.0, 0.0]), 1.0)
    s = support(DistributionSpec((piece,)))
    assert s.lo == 1.0 and s.hi == 3.0


def test_truncated_support_is_finite():
    lo, hi = truncated_support(KERNEL_SPECS["normal_std"], 1e-9)
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < -5.9 and hi > 5.9


# -- cantor helpers ----------------------------------------------------------

def test_cantor_survival_and_upper_mean_values():
    s, m = cantor_survival_upper_mean(0.0)
    assert (s, m) == (1.0, 0.5)
    s, m = cantor_survival_upper_mean(0.5)
    assert s == pytest.approx(0.5, abs=1e-15)
    assert m == pytest.approx(5.0 / 12.0, abs=1e-15)
    s, m = cantor_survival_upper_mean(1.0)
    assert (s, m) == (0.0, 0.0)


def test_cantor_against_cell_oracle():
    pts = cantor_points(16)
    for u in [0.1, 1.0 / 3.0, 0.44, 0.7, 0.95]:
        s, m = cantor_survival_upper_mean(u)
        assert s == pytest.approx(float(np.mean(pts >= u)), abs=1e-4)
        assert m == pytest.approx(float(np.mean(pts * (pts >= u))), abs=1e-4)


def test_cantor_membership():
    assert cantor_in_support(0.0, 0.0, 1.0)
    assert cantor_in_support(1.0, 0.0, 1.0)
    assert cantor_in_support(1.0 / 3.0, 0.0, 1.0)
    assert cantor_in_support(0.25, 0.0, 1.0)  # 0.0202... in ternary
    assert not cantor_in_support(0.5, 0.0, 1.0)
    assert not cantor_in_support(1.5, 0.0, 1.0)
    ts = np.array([0.0, 0.25, 0.5, 1.0 / 3.0, 2.0])
    assert list(cantor_in_support(ts, 0.0, 1.0)) == [True, True, False, True, False]


# -- affine maps -------------------------------------------------------------

@pytest.mark.parametrize("scale,shift", [(3.0, -2.0), (-1.5, 0.25), (0.5, 10.0)])
def test_affine_transform_moments(scale, shift):
    for name in ["uniform01", "normal_uniform_mix", "mixed_atoms_uniform",
                 "tabulated_triangle", "uniform_cantor"]:
        spec = KERNEL_SPECS[name]
        mom = moments(spec)
        mapped = moments(affine_transform(spec, scale, shift))
        assert mapped.mean == pytest.approx(scale * mom.mean + shift, abs=1e-10)
        assert mapped.variance == pytest.approx(scale * scale * mom.variance, abs=1e-10)


def test_affine_transform_exponential_restrictions():
    e1 = KERNEL_SPECS["exponential1"]
    assert moments(affine_transform(e1, 2.0, 0.0)).mean == pytest.approx(2.0)
    with pytest.raises(SpecError):
        affine_transform(e1, 1.0, 1.0)
    with pytest.raises(SpecError):
        affine_transform(e1, -1.0, 0.0)


def test_affine_transform_zero_scale_rejected():
    with pytest.raises(SpecError):
        affine_transform(KERNEL_SPECS["uniform01"], 0.0, 1.0)


# -- quadrature config ---------------------------------------------------------

def test_quadrature_config_validation():
    from steinkit import QuadratureConfig
    QuadratureConfig(tail_quantile=1e-6)
    with pytest.raises(SpecError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(SpecError):
        QuadratureConfig(tail_quantile=1e-5)
    with pytest.raises(SpecError):
        QuadratureConfig(tail_quantile=0.0)
    with pytest.raises(SpecError):
        QuadratureConfig(max_subdivisions=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(SpecError):
            QuadratureConfig(abs_tol=bad)
        with pytest.raises(SpecError):
            QuadratureConfig(rel_tol=bad)


def test_cantor_depth_scales_with_span():
    from steinkit import QuadratureConfig
    config = QuadratureConfig(abs_tol=1e-9)
    assert 3.0 ** -config.cantor_depth(1.0) < 1e-9
    assert config.cantor_depth(1.0) < config.cantor_depth(100.0)
    assert config.cantor_depth(0.0) >= 2


# -- expectation engine -------------------------------------------------------

def test_gk15_is_exact_on_polynomials_up_to_degree_22():
    from steinkit.distributions import _gk15
    a, b = np.array([-1.0]), np.array([2.0])
    for k in range(23):
        value, _ = _gk15(lambda x: x ** k, a, b)
        exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert value[0] == pytest.approx(exact, rel=1e-13), k
    # the embedded Gauss rule is exact to degree 13, so |K15 - G7| vanishes
    _, error = _gk15(lambda x: x ** 13, a, b)
    assert error[0] < 1e-11


def test_integrate_gaussian_over_the_whole_line():
    from steinkit.distributions import integrate
    value, abserr = integrate(lambda x: np.exp(-x * x), [-math.inf, math.inf])
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert abserr <= 1e-9
    half, _ = integrate(lambda x: np.exp(-x * x), [-math.inf, 0.0])
    assert half == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("name", sorted(k for k in ALL_SPECS if k != "dirac"))
def test_expect_recovers_the_closed_form_moments(name):
    # atoms, Cantor parts and infinite ends all enter through one call; the
    # Cantor cell sums are second order, so uniform_cantor gets 1e-10
    from steinkit.distributions import expect
    spec = ALL_SPECS[name]
    mom = moments(spec)
    mass, mean, second = expect(spec, lambda x, _: np.stack([np.ones_like(x), x, x * x]))
    tol = 1e-10 if spec.cantor_parts else 1e-12
    assert mass == pytest.approx(1.0, abs=tol)
    assert mean == pytest.approx(mom.mean, abs=tol * max(1.0, abs(mom.mean)))
    want = mom.variance + mom.mean ** 2
    assert second == pytest.approx(want, abs=tol * max(1.0, want))


def test_stacked_rows_match_separate_calls():
    from steinkit.distributions import integrate
    rows = [lambda x: np.exp(-x * x), lambda x: np.cos(3.0 * x) * np.exp(-0.5 * x * x),
            lambda x: x ** 4 * np.exp(-np.abs(x))]
    edges = [-math.inf, -1.0, 0.0, 2.0, math.inf]
    stacked, errors = integrate(lambda x: np.stack([r(x) for r in rows]), edges)
    assert stacked.shape == errors.shape == (3,)
    for row, value in zip(rows, stacked):
        alone, _ = integrate(row, edges)
        assert value == pytest.approx(alone, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("f, edges", [
    (lambda x: np.sqrt(np.abs(x)), [-1.0, 0.0, 1.0]),
    (lambda x: np.log(x), [1e-300, 1.0]),
    (lambda x: 1.0 / (1.0 + x * x), [-math.inf, math.inf]),
    (lambda x: np.exp(-x) * np.sin(10.0 * x), [0.0, math.inf]),
], ids=["sqrt", "log", "cauchy", "damped_sine"])
def test_abserr_meets_the_tolerance_when_the_engine_converges(f, edges):
    import warnings
    from steinkit import QuadratureConfig
    from steinkit.distributions import integrate
    config = QuadratureConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, abserr = integrate(f, edges, config)
    assert abserr <= max(config.abs_tol, config.rel_tol * abs(value))


def test_integrate_warns_when_the_subdivision_cap_is_hit():
    from steinkit import IntegrationWarning, QuadratureConfig
    from steinkit.distributions import integrate
    with pytest.warns(IntegrationWarning):
        value, abserr = integrate(lambda x: np.abs(x - 0.3), [0.0, 1.0],
                                  QuadratureConfig(max_subdivisions=1))
    assert value == pytest.approx(0.29, abs=1e-2)
    assert abserr > 1e-9


def test_subdivision_cap_counts_the_intervals_added_in_total():
    # a square-root cusp inside one of 1000 starting cells needs more than
    # two bisections, however many starting cells there are
    from steinkit import IntegrationWarning, QuadratureConfig
    from steinkit.distributions import integrate
    with pytest.warns(IntegrationWarning, match="1002 intervals"):
        integrate(lambda x: np.sqrt(np.abs(x - 0.3001)), np.linspace(0.0, 1.0, 1001),
                  QuadratureConfig(max_subdivisions=2))
