import json
import math
import warnings
from dataclasses import fields
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from steinkit import (
    Atom,
    CantorPart,
    DistributionSpec,
    Exponential,
    Normal,
    QuadratureConfig,
    SpecError,
    Tabulated,
    Uniform,
    ac_density,
    affine_transform,
    clt_bound,
    clt_curve,
    convolution_tv_result,
    moments,
    parse_spec,
    partial_expectation,
    recover_density,
    spec_to_dict,
    stein_kernel,
    support,
    truncated_support,
)
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
from steinkit.distributions import (
    _CANTOR_BLOCK,
    DEFAULT_CONFIG,
    _GK_X,
    KINDS,
    _ndtr,
    _ndtri,
    _piece_tail,
    _start_plan,
    cantor_in_support,
    cantor_points,
    cantor_survival_upper_mean,
    spec_from_dict,
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
    # finite, but its trapezoid total overflows and would divide it to zero
    '{"components":[{"kind":"tabulated","grid":[0,1e150],"values":[1e160,1e160],"weight":1}]}',
    # finite, but its span overflows
    '{"components":[{"kind":"tabulated","grid":[-1e308,1e308],"values":[1,1],"weight":1}]}',
], ids=["normal_infinite_mean", "atom_nan_location", "exponential_rate_1e-300",
        "tabulated_total_overflows", "tabulated_span_overflows"])
def test_parse_rejects_non_finite_parameters(text):
    with pytest.raises(SpecError):
        parse_spec(text)


def test_tabulated_renormalizes_at_load():
    piece = Tabulated(np.array([0.0, 1.0]), np.array([3.0, 3.0]), 1.0)
    assert np.trapezoid(piece.values, piece.grid) == pytest.approx(1.0, abs=1e-14)


def test_tabulated_renormalizes_a_total_off_by_more_than_rounding():
    # trapezoid total 1 + 1e-13: a drift far above the few ulps a normalized
    # density reads, so the values are divided again
    piece = Tabulated(np.array([0.0, 1.0]), np.array([1.0 + 1e-13, 1.0 + 1e-13]), 1.0)
    assert np.all(piece.values == 1.0)


def test_spec_roundtrip_through_dict():
    for name, spec in ALL_SPECS.items():
        again = parse_spec(json.dumps(spec_to_dict(spec)))
        assert moments(again) == moments(spec), name


def _params(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def mixtures(draw):
    """Valid mixtures of one to four components of any of the six kinds."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    raw = draw(st.lists(_params(0.05, 1.0), min_size=len(kinds), max_size=len(kinds)))
    comps = []
    for kind, w in zip(kinds, raw):
        w = w / math.fsum(raw)
        lo, width = draw(_params(-10.0, 10.0)), draw(_params(0.01, 10.0))
        match kind:
            case "uniform" | "cantor":
                comps.append(KINDS[kind](lo, lo + width, w))
            case "normal":
                comps.append(Normal(lo, width, w))
            case "exponential":
                comps.append(Exponential(1.0 / width, w))
            case "atom":
                comps.append(Atom(lo, w))
            case "tabulated":
                steps = draw(st.lists(_params(0.01, 2.0), min_size=1, max_size=5))
                values = draw(st.lists(_params(0.0, 5.0), min_size=len(steps) + 1,
                                       max_size=len(steps) + 1))
                assume(max(values) > 0.0)
                comps.append(Tabulated(lo + np.cumsum([0.0, *steps]), np.array(values), w))
    locations = [c.location for c in comps if isinstance(c, Atom)]
    assume(len(set(locations)) == len(locations))
    return DistributionSpec(tuple(comps))


def _bits(c):
    return [np.asarray(getattr(c, f.name), dtype=float).tobytes() for f in fields(c)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mixtures())
def test_spec_document_reproduces_every_field_bitwise(spec):
    for again in (spec_from_dict(spec_to_dict(spec)), parse_spec(json.dumps(spec_to_dict(spec)))):
        assert [type(c) for c in again.components] == [type(c) for c in spec.components]
        assert [_bits(c) for c in again.components] == [_bits(c) for c in spec.components]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mixtures(), st.lists(_params(-25.0, 35.0), min_size=1, max_size=8))
def test_piece_tail_forms_agree(spec, ts):
    # P(X < t) + P(X >= t) = 1 and E[(X - mean_c) 1{X >= t}] read from
    # either side agree, for every family
    t = np.array([*ts, *spec.density_breaks])
    for c in spec.components:
        p_up, c_up = _piece_tail(c, t, lower=False)
        p_low, c_low = _piece_tail(c, t, lower=True)
        assert np.abs(p_low + p_up - 1.0).max() <= 1e-12, c
        assert np.abs(c_low - c_up).max() <= 1e-12 * max(1.0, np.abs(t).max()), c


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mixtures(), st.lists(_params(-25.0, 35.0), min_size=1, max_size=8))
def test_piece_tail_second_moments_add_to_the_variance(spec, ts):
    # E[(X - mean_c)(X - t)+] + E[(mean_c - X)(t - X)+] = Var_c at every t,
    # and asking for D leaves P and C as they were, bit for bit
    t = np.array([*ts, *spec.density_breaks])
    for c in spec.components:
        width = max(1.0, np.abs(t - oracle.component_mean(c)).max())
        for lower in (False, True):
            p, centred, _ = _piece_tail(c, t, lower, second=True)
            assert [p.tobytes(), centred.tobytes()] == [a.tobytes() for a in _piece_tail(c, t, lower)]
        up, low = _piece_tail(c, t, False, second=True)[2], _piece_tail(c, t, True, second=True)[2]
        var = oracle.component_variance(c)
        assert np.abs(up + low - var).max() <= 1e-12 * max(var, width * width), c


@pytest.mark.parametrize("c", [
    Uniform(-1.0, 2.0, 1.0), Normal(0.3, 1.7, 1.0), Exponential(1.5, 1.0),
    Tabulated(np.array([-1.0, -0.5, 0.0, 0.7, 2.0]), np.array([0.1, 0.8, 0.2, 0.6, 0.0]), 1.0),
], ids=["uniform", "normal", "exponential", "tabulated"])
def test_piece_tail_second_moment_against_quadrature(c):
    # E[(X - mean_c)(X - t)+] above t, E[(mean_c - X)(t - X)+] below it, by
    # scipy's quad of the raw density split at t and the knots
    from scipy import integrate
    mean = oracle.component_mean(c)
    lo, hi = oracle.component_range(c, tail=1e-18)
    knots = [float(g) for g in c.grid] if isinstance(c, Tabulated) else []
    for t in [-3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 1.9, 3.0, 6.0]:
        for lower, (a, b) in ((False, (max(t, lo), hi)), (True, (lo, min(t, hi)))):
            def f(x):
                return (x - mean) * (x - t) * oracle.raw_pdf(c, x)
            inner = [k for k in knots if a < k < b] or None
            want = integrate.quad(f, a, b, points=inner, epsabs=1e-15, epsrel=1e-13,
                                  limit=200)[0] if a < b else 0.0
            got = float(_piece_tail(c, np.array([t]), lower, second=True)[2][0])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (t, lower)


def test_cantor_second_moment_against_exact_oracle():
    # in the gaps and at cell ends within one rounding; off them the Hoelder
    # modulus magnifies the input's rounding, as for the first moment
    rng = np.random.default_rng(7)
    depth = 11
    ks = rng.integers(0, 2 ** depth - 1, 40)
    a = np.array(_cantor_ends(depth, ks)) + 1.0
    b = np.array(_cantor_ends(depth, ks + 1), dtype=float)
    gaps = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GK_X).ravel() / 3.0 ** depth
    # cell ends in floats read as the exact ends, as in the walk's S and M
    ends = [Fraction(k, 3 ** d) for d, k in ((0, 0), (0, 1), (1, 1), (1, 2), (3, 7), (3, 20))]
    ends += [Fraction(1, 4), Fraction(-1, 2), Fraction(3, 2)]
    near = np.clip(cantor_points(20)[rng.integers(0, 2 ** 20, 100)]
                   + rng.uniform(-1e-12, 1e-12, 100), 0.0, 1.0)
    for exact, tol in ((list(gaps), 4e-16), (ends, 4e-16), (list(near), 1e-10)):
        u = np.array([float(x) for x in exact])
        s, m, q = cantor_survival_upper_mean(u, second=True)
        assert np.array_equal(s, cantor_survival_upper_mean(u)[0])
        assert np.array_equal(m, cantor_survival_upper_mean(u)[1])
        want = np.array([float(oracle.cantor_upper_second_moment_exact(x)) for x in exact])
        assert np.abs(q - want).max() <= tol
    assert math.isnan(cantor_survival_upper_mean(math.nan, second=True)[2])


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


@pytest.mark.parametrize("name, want", [
    ("uniform01", Fraction(1, 12)), ("tabulated_triangle", Fraction(1, 24)),
    ("overlap_uniforms", Fraction(7, 12))])
def test_centred_variance_is_within_an_ulp_on_rational_specs(name, want):
    # E[X^2] - m^2 loses a few ulps to cancellation even here; the centred
    # sum rounds each term once and stays within one
    var = moments(KERNEL_SPECS[name]).variance
    assert abs(Fraction(var) - want) <= math.ulp(float(want))


@pytest.mark.parametrize("k", [-1e4, 1e4, 1e8])
@pytest.mark.parametrize("name", sorted(n for n, spec in ALL_SPECS.items() if not any(
    isinstance(c, Exponential) for c in spec.components)))
def test_variance_is_shift_invariant(name, k):
    # the family of exponentials has no location parameter; E[X^2] - m^2
    # is 2.9e-8 off at a shift of 1e4 sigma and loses every digit at 1e8 sigma
    spec = ALL_SPECS[name]
    var = moments(spec).variance
    shifted = moments(affine_transform(spec, 1.0, k * math.sqrt(var))).variance
    assert shifted == pytest.approx(var, rel=1e-9, abs=0.0)


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
    mass, _ = oracle.engine_integrate(lambda t: ac_density(spec, t),
                                      [-math.inf, *spec.density_breaks, math.inf])
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


def test_ndtri_is_bitwise_normal_dist_inv_cdf():
    import statistics
    rng = np.random.default_rng(241)
    ps = np.concatenate([rng.uniform(0.0, 1.0, 200_000), 10.0 ** rng.uniform(-300.0, 0.0, 200_000),
                         [0.5, 0.075, 0.925, 1e-300, 1.0 - 2.0 ** -53]])
    ps = ps[(ps > 0.0) & (ps < 1.0)].tolist()
    inv_cdf = statistics.NormalDist().inv_cdf
    assert [_ndtri(p) for p in ps] == [inv_cdf(p) for p in ps]
    assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf


def test_import_leaves_the_statistics_module_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import steinkit
    # the child imports this checkout's source, which pytest's pythonpath
    # setting does not reach
    paths = [str(Path(steinkit.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = ("import sys, steinkit.cli; "
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"


# every count argument of the library: the name it is refused by, a call
# taking it, and a valid value
_U01 = KERNEL_SPECS["uniform01"]
COUNT_CALLS = {
    "stein_kernel grid_size": ("grid_size", lambda v: stein_kernel(_U01, v).grid_t, 64),
    "recover_density grid_size": (
        "grid_size", lambda v: recover_density(stein_kernel(_U01, 64), 0.5, v).values, 64),
    "clt_bound n": ("n", lambda v: clt_bound(_U01, v), 4),
    "convolution_tv_result n": ("n", lambda v: convolution_tv_result(_U01, v, 1024), 4),
    "convolution_tv_result grid_size": (
        "grid_size", lambda v: convolution_tv_result(_U01, 4, v), 1024),
    "clt_curve ns": ("n", lambda v: clt_curve(_U01, (4, v), 1024), 16),
    "clt_curve grid_size": ("grid_size", lambda v: clt_curve(_U01, (4, 16), v), 1024),
    "QuadratureConfig max_subdivisions": (
        "max_subdivisions", lambda v: QuadratureConfig(max_subdivisions=v), 200),
}


@pytest.mark.parametrize("bad", [16.5, 2.5, 4.0, 100.0, "64"])
@pytest.mark.parametrize("call", sorted(COUNT_CALLS))
def test_every_count_argument_takes_integers_only(call, bad):
    name, fn, _ = COUNT_CALLS[call]
    with pytest.raises(SpecError, match=rf"^{name} must be an integer, got {bad!r}$"):
        fn(bad)


@pytest.mark.parametrize("call", sorted(COUNT_CALLS))
def test_every_count_argument_takes_a_numpy_integer(call):
    _, fn, good = COUNT_CALLS[call]
    want, got = fn(good), fn(np.int64(good))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


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


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_partial_expectation_vanishes_at_infinity(name):
    # an exponential piece's centred tail once read inf * 0 = NaN at t = +inf
    spec = ALL_SPECS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (-math.inf, math.inf):
            assert partial_expectation(spec, t) == 0.0
        assert np.all(partial_expectation(spec, np.array([-math.inf, 0.5, math.inf]))[[0, 2]] == 0.0)


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
    pts = cantor_points(16) + 0.5 / 3.0 ** 16  # cell midpoints
    for u in [0.1, 1.0 / 3.0, 0.44, 0.7, 0.95]:
        s, m = cantor_survival_upper_mean(u)
        assert s == pytest.approx(float(np.mean(pts >= u)), abs=1e-4)
        assert m == pytest.approx(float(np.mean(pts * (pts >= u))), abs=1e-4)


def _uniform_cantor_start_nodes():
    spec = KERNEL_SPECS["uniform_cantor"]
    (_, x, _, _), _, _ = _start_plan(spec, None, DEFAULT_CONFIG)[0]
    return spec, np.array(x)


def test_cantor_walk_in_blocks_is_elementwise():
    # the walk takes its points a block at a time: any split of the points,
    # and every point on its own, gives the same bits
    _, x = _uniform_cantor_start_nodes()
    assert len(x) > 4 * _CANTOR_BLOCK
    s, m = cantor_survival_upper_mean(x)
    parts = [cantor_survival_upper_mean(x[k:k + 1000]) for k in range(0, len(x), 1000)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), s)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), m)
    rev = cantor_survival_upper_mean(x[::-1].reshape(-1, 8))
    assert np.array_equal(rev[0].ravel()[::-1], s) and np.array_equal(rev[1].ravel()[::-1], m)
    for k in np.random.default_rng(13).integers(0, len(x), 300):
        assert cantor_survival_upper_mean(float(x[k])) == (s[k], m[k])


def test_partial_expectation_on_the_cantor_start_nodes_keeps_a_small_peak():
    import tracemalloc
    spec, x = _uniform_cantor_start_nodes()
    partial_expectation(spec, x[:8])
    tracemalloc.start()
    try:
        partial_expectation(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, f"{len(x)} points: peak {peak / 1e6:.2f} MB"


def test_cantor_points_are_built_once_per_depth():
    pts = cantor_points(6)
    assert cantor_points(6) is pts and not pts.flags.writeable
    assert pts[-1] == pytest.approx(1.0 - 3.0 ** -6, abs=1e-15) and len(pts) == 64


def test_cantor_membership():
    assert cantor_in_support(0.0, 0.0, 1.0)
    assert cantor_in_support(1.0, 0.0, 1.0)
    assert cantor_in_support(1.0 / 3.0, 0.0, 1.0)
    assert cantor_in_support(0.25, 0.0, 1.0)  # 0.0202... in ternary
    assert not cantor_in_support(0.5, 0.0, 1.0)
    assert not cantor_in_support(1.5, 0.0, 1.0)
    ts = np.array([0.0, 0.25, 0.5, 1.0 / 3.0, 2.0])
    assert list(cantor_in_support(ts, 0.0, 1.0)) == [True, True, False, True, False]


def _cantor_ends(depth, cells):
    """Exact left ends 3^depth l_k of the standard Cantor set's construction
    cells numbered `cells` at `depth`, as Python ints."""
    return [sum(2 * 3 ** i for i in range(depth) if k >> i & 1) for k in cells]


def _exact(u):
    pairs = [oracle.cantor_survival_upper_mean_exact(x) for x in u]
    return np.array([[float(s) for s, _ in pairs], [float(m) for _, m in pairs]])


@pytest.mark.parametrize("depth", [11, 14])
def test_cantor_walk_in_the_gaps_against_exact_oracle(depth):
    # the engine's Gauss-Kronrod nodes on the gaps between cells, where the
    # Cantor CDF and partial mean are constant: within one rounding
    rng = np.random.default_rng(depth)
    ks = rng.integers(0, 2 ** depth - 1, 40)
    a = np.array(_cantor_ends(depth, ks)) + 1.0
    b = np.array(_cantor_ends(depth, ks + 1), dtype=float)
    nodes = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GK_X).ravel() / 3.0 ** depth
    got = np.array(cantor_survival_upper_mean(nodes))
    assert np.abs(got - _exact(nodes)).max() <= 2e-16


def test_cantor_walk_exact_at_cell_ends_and_outside():
    # cell ends down to the table's depth, computed in floats, read as the
    # exact end; 0, 1 and points off [0, 1] too, as arrays and as scalars
    rng = np.random.default_rng(5)
    ends = [Fraction(e + side, 3 ** d) for d in (1, 2, 5, 8, 12)
            for e in _cantor_ends(d, rng.integers(0, 2 ** d, 30)) for side in (0, 1)]
    u = np.array([float(f) for f in ends] + [0.0, 1.0, -0.5, -1e300, 1.5, 3.0, math.inf])
    want = _exact(ends + list(u[len(ends):]))
    got = np.array(cantor_survival_upper_mean(u))
    assert np.array_equal(got, want)
    for x, s, m in zip(u[::7], *want[:, ::7]):
        assert cantor_survival_upper_mean(float(x)) == (s, m)


def test_cantor_walk_near_the_set_against_exact_oracle():
    # off the gaps the Cantor function's Hoelder modulus (exponent log 2 /
    # log 3) magnifies the rounding of the input itself to ~3e-11
    rng = np.random.default_rng(6)
    near = cantor_points(20)[rng.integers(0, 2 ** 20, 150)] + rng.uniform(-1e-12, 1e-12, 150)
    u = np.concatenate([rng.uniform(0.0, 1.0, 150), np.clip(near, 0.0, 1.0)])
    got = np.array(cantor_survival_upper_mean(u))
    assert np.abs(got - _exact(u)).max() <= 1e-10


def test_cantor_walk_is_elementwise_on_any_shape():
    u = np.array([[0.5, math.nan, 0.25], [2.0 / 3.0, 0.0, 1.5]])
    s, m = cantor_survival_upper_mean(u)
    flat = cantor_survival_upper_mean(u.ravel())
    assert s.shape == m.shape == u.shape
    assert np.array_equal(s.ravel(), flat[0], equal_nan=True)
    assert np.array_equal(m.ravel(), flat[1], equal_nan=True)


def test_cantor_walk_propagates_nan():
    # as every AC piece's closed form does; the clamp used to walk a NaN as 0
    s, m = cantor_survival_upper_mean(math.nan)
    assert math.isnan(s) and math.isnan(m)
    s, m = cantor_survival_upper_mean(np.array([0.5, math.nan, 2.0 / 3.0]))
    assert np.isnan(s).tolist() == np.isnan(m).tolist() == [False, True, False]
    assert (s[0], s[2]) == (0.5, 0.5)
    cantor_only = NO_KERNEL_SPECS["cantor_only"][0]
    assert math.isnan(partial_expectation(cantor_only, math.nan))
    assert np.isnan(partial_expectation(cantor_only, np.array([0.3, math.nan]))).tolist() == [
        False, True]


def test_cantor_membership_agrees_with_the_level_loop():
    # 10^4 seeded points: on [-0.5, 1.5] and near the set both walks agree;
    # at float cell ends the table reads the end itself, where the loop's
    # per-level rounding mostly drifts off the set (it keeps 0, 1 and few others)
    rng = np.random.default_rng(7)
    near = cantor_points(20)[rng.integers(0, 2 ** 20, 3000)]
    near *= 1.0 + rng.uniform(-1e-9, 1e-9, 3000)
    ends = [(e + side) / 3.0 ** d for d in range(1, 13)
            for e in _cantor_ends(d, rng.integers(0, 2 ** d, 167)) for side in (0, 1)]
    generic = np.concatenate([rng.uniform(-0.5, 1.5, 3000), near, [0.0, 0.25, 0.75, 1.0]])
    assert len(generic) + len(ends) >= 10 ** 4
    for lo, hi in ((0.0, 1.0), (-2.0, 5.0)):
        t = (lo + (hi - lo) * generic).reshape(4, -1)  # elementwise on any shape
        assert np.array_equal(cantor_in_support(t, lo, hi),
                              oracle.cantor_in_support_by_levels(t, lo, hi))
    by_levels = oracle.cantor_in_support_by_levels(np.array(ends), 0.0, 1.0)
    assert cantor_in_support(np.array(ends), 0.0, 1.0).all() and by_levels.any()


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


def test_cantor_depth_is_set_by_the_tolerance():
    from steinkit import QuadratureConfig
    from steinkit.distributions import MAX_CELL_DEPTH
    assert QuadratureConfig().cantor_depth == 11
    assert QuadratureConfig(abs_tol=1e-15).cantor_depth == MAX_CELL_DEPTH


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


@pytest.mark.parametrize("end", [0.0, 3.7, -1000.0])
def test_gk15_takes_a_log_span_at_an_end_in_the_rounded_distance(end):
    # side +-inf: [s0, s1] stands for x = end +- e^s with the Jacobian
    # |x - end| of the rounded node, so 1/|x - end| reads s1 - s0 even where
    # the nodes, 1e-11 from a far end, are rounded by 1e-2 of that distance;
    # a finite interval in the same call is taken in x
    from steinkit.distributions import _gk15
    a, b = np.array([-25.0, -25.0, end + 1.0]), np.array([-24.0, -24.0, end + 2.0])
    side, anchor = np.array([math.inf, -math.inf, 0.0]), np.full(3, end)
    value, error = _gk15(lambda x: 1.0 / np.abs(x - end), a, b, side, anchor)
    np.testing.assert_allclose(value[:2], 1.0, rtol=1e-14)
    assert error[:2].max() < 1e-14
    assert value[2] == pytest.approx(math.log(2.0), rel=1e-8)


def test_integrate_gaussian_over_the_whole_line():
    value, abserr = oracle.engine_integrate(lambda x: np.exp(-x * x), [-math.inf, math.inf])
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert abserr <= 1e-9
    half, _ = oracle.engine_integrate(lambda x: np.exp(-x * x), [-math.inf, 0.0])
    assert half == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("piece", [
    Normal(5.0, 1e-3, 1.0), Normal(30.0, 1e-2, 1.0), Normal(100.0, 0.1, 1.0),
    Normal(1e3, 1.0, 1.0), Normal(0.0, 1e-6, 1.0), Exponential(1e6, 1.0),
], ids=["N(5,1e-3)", "N(30,1e-2)", "N(100,0.1)", "N(1e3,1)", "N(0,1e-6)", "Exp(1e6)"])
def test_expect_reads_the_mass_of_a_narrow_or_far_law(piece):
    # a law with no finite break reaches the quadrature as two infinite
    # tails; the seams at the tail_quantile window and tails scaled to it
    # put nodes where the law is, however narrow or far from 0
    from steinkit.distributions import expect
    spec = DistributionSpec((piece,))
    assert expect(spec, lambda x, _: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cut", [-7.5, -6.5, -3.0, 0.3, 6.5, 7.5])
def test_expect_cuts_the_starting_panel_that_holds_a_break(cut):
    # an atom is a break: it cuts the starting panels there, inside the
    # tail_quantile window (+-6.1) or, since the window stretches to take
    # the atom in, at its end next to a qagi tail, so the indicator of the
    # side past the atom (which leaves the atom out) is smooth on every
    # panel; the AC part then reads the normal's tail mass, against erfc
    from steinkit.distributions import expect
    w = 2.0 ** -10
    spec = DistributionSpec((Normal(0.0, 1.0, 1.0 - w), Atom(cut, w)))
    g = lambda x, _: (x < cut if cut < 0 else x > cut).astype(float)  # noqa: E731
    want = (1.0 - w) * 0.5 * math.erfc(abs(cut) / math.sqrt(2.0))
    assert expect(spec, g) == pytest.approx(want, rel=1e-13)


# several AC pieces over the same seams, which `expect` integrates as one
# mixture density
MULTI_PIECE_SPECS = {
    "exponential_triple": DistributionSpec(
        (Exponential(0.7, 0.3), Exponential(1.5, 0.3), Exponential(2.5, 0.4))),
    "normal_pair": DistributionSpec((Normal(0.0, 1.0, 0.5), Normal(0.0, 2.0, 0.5))),
}


@pytest.mark.parametrize("name", sorted(k for k in ALL_SPECS if k != "dirac")
                         + sorted(MULTI_PIECE_SPECS))
def test_expect_recovers_the_closed_form_moments(name):
    # atoms, Cantor parts and infinite ends all enter through one call; the
    # Cantor cell sums are second order, so uniform_cantor gets 1e-10
    from steinkit.distributions import expect
    spec = {**ALL_SPECS, **MULTI_PIECE_SPECS}[name]
    mom = moments(spec)
    mass, mean, second = expect(spec, lambda x, _: np.stack([np.ones_like(x), x, x * x]))
    tol = 1e-10 if spec.cantor_parts else 1e-12
    assert mass == pytest.approx(1.0, abs=tol)
    assert mean == pytest.approx(mom.mean, abs=tol * max(1.0, abs(mom.mean)))
    want = mom.variance + mom.mean ** 2
    assert second == pytest.approx(want, abs=tol * max(1.0, want))


@pytest.mark.parametrize("name", sorted(MULTI_PIECE_SPECS))
def test_multi_piece_kernel_certifies(name):
    from steinkit import kernel_stats, standard_test_functions, stein_kernel, stein_residual
    spec = MULTI_PIECE_SPECS[name]
    kernel = stein_kernel(spec, 1024)
    mean_tau, _ = kernel_stats(spec, kernel)
    assert mean_tau == pytest.approx(moments(spec).variance, rel=1e-12)
    for tf in standard_test_functions(*truncated_support(spec, 1e-9)):
        assert abs(stein_residual(spec, kernel, tf)) < 1e-9, tf.id


@pytest.mark.parametrize("name", ["normal_std", "exponential1"])
def test_few_edge_integrals_close_in_a_few_passes(name, monkeypatch):
    # the quadrature starts on equal panels (`_start_panels`) rather than the
    # bare edges, so a certificate integral needs at most a few GK15 passes,
    # each reduced by _gk15_reduce: the starting pass, the panels cut at
    # breaks, refinement
    import steinkit.distributions as dist
    from steinkit import kernel_stats, standard_test_functions, stein_kernel, stein_residual
    from steinkit.discrepancy import tv_to_normal
    passes = []
    reduce = dist._gk15_reduce

    def counting(*args):
        passes[-1] += 1
        return reduce(*args)

    monkeypatch.setattr(dist, "_gk15_reduce", counting)
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 1024)
    jobs = [lambda tf=tf: stein_residual(spec, kernel, tf)
            for tf in standard_test_functions(*truncated_support(spec, 1e-9))]
    for job in jobs + [lambda: kernel_stats(spec, kernel), lambda: tv_to_normal(spec)]:
        passes.append(0)
        job()
    assert 1 <= max(passes) <= 4, passes


def test_stacked_rows_match_separate_calls():
    rows = [lambda x: np.exp(-x * x), lambda x: np.cos(3.0 * x) * np.exp(-0.5 * x * x),
            lambda x: x ** 4 * np.exp(-np.abs(x))]
    edges = [-math.inf, -1.0, 0.0, 2.0, math.inf]
    stacked, errors = oracle.engine_integrate(lambda x: np.stack([r(x) for r in rows]), edges)
    assert stacked.shape == errors.shape == (3,)
    for row, value in zip(rows, stacked):
        alone, _ = oracle.engine_integrate(row, edges)
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
    config = QuadratureConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, abserr = oracle.engine_integrate(f, edges, config)
    assert abserr <= max(config.abs_tol, config.rel_tol * abs(value))


def test_integrate_warns_when_the_subdivision_cap_is_hit():
    from steinkit import IntegrationWarning, QuadratureConfig
    with pytest.warns(IntegrationWarning):
        value, abserr = oracle.engine_integrate(lambda x: np.abs(x - 0.3), [0.0, 1.0],
                                                QuadratureConfig(max_subdivisions=1))
    assert value == pytest.approx(0.29, abs=1e-2)
    assert abserr > 1e-9


def test_subdivision_cap_counts_the_starting_panels_as_starting_intervals():
    # one edge pair starts as PANELS panels; one more bisection adds two
    from steinkit import IntegrationWarning, QuadratureConfig
    from steinkit.distributions import PANELS
    nodes = []

    def f(x):
        nodes.append(len(x))
        return np.abs(x - 0.3)

    with pytest.warns(IntegrationWarning):
        oracle.engine_integrate(f, [0.0, 1.0], QuadratureConfig(max_subdivisions=1))
    assert nodes[0] == 15 * PANELS
    assert sum(nodes[1:]) <= 15 * 2


def test_subdivision_cap_counts_the_intervals_added_in_total():
    # a square-root cusp inside one of 1000 starting cells needs more than
    # two bisections, however many starting cells there are
    from steinkit import IntegrationWarning, QuadratureConfig
    with pytest.warns(IntegrationWarning, match="1002 intervals"):
        oracle.engine_integrate(lambda x: np.sqrt(np.abs(x - 0.3001)),
                                np.linspace(0.0, 1.0, 1001), QuadratureConfig(max_subdivisions=2))
