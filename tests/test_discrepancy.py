import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from steinkit import (
    DegenerateError,
    DistributionSpec,
    ExistenceError,
    Exponential,
    IntegrationWarning,
    Normal,
    NumericsError,
    Tabulated,
    Uniform,
    affine_transform,
    clt_bound,
    discrepancy_bounds,
    kernel_stats,
    moments,
    spec_from_dict,
    stein_kernel,
    truncated_support,
    tv_to_normal,
)
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
from steinkit.discrepancy import MAX_PASSES, _find_crossings
from steinkit.distributions import DEFAULT_CONFIG, _first_pass

import oracle_utils as oracle


def test_tv_normal_spec_is_zero():
    assert tv_to_normal(KERNEL_SPECS["normal_std"]) < 1e-8
    assert tv_to_normal(KERNEL_SPECS["normal_shifted"]) < 1e-8


@pytest.mark.parametrize("name, want", [
    # mpmath references: |p - phi| integrated over the whole line between
    # its crossings at 30 digits
    ("exponential1", 0.31921501557227006),
    ("normal_uniform_mix", 0.09114517961345926),
    ("normal_std", 0.0),
    ("normal_shifted", 0.0),
])
def test_tv_integrates_both_tails(name, want):
    assert tv_to_normal(KERNEL_SPECS[name]) == pytest.approx(want, abs=1e-13)


def test_tv_rademacher_is_one():
    assert tv_to_normal(NO_KERNEL_SPECS["rademacher"][0]) == pytest.approx(1.0, abs=1e-12)


def test_tv_degenerate_raises():
    with pytest.raises(DegenerateError):
        tv_to_normal(NO_KERNEL_SPECS["dirac"][0])


def test_tv_with_an_underflowed_variance_is_a_numerical_failure():
    # sigma^2 = 1e-400 rounds to 0, but the law is no point mass
    with pytest.raises(NumericsError, match="underflows"):
        tv_to_normal(DistributionSpec((Normal(0.0, 1e-200, 1.0),)))


def test_tv_uniform_against_oracle():
    spec = KERNEL_SPECS["uniform01"]
    got = tv_to_normal(spec)
    want = oracle.tv_to_normal_oracle(spec, -2.0, 3.0)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", ["mixed_atoms_uniform", "exponential1",
                                  "overlap_uniforms", "uniform_cantor"])
def test_tv_against_oracle(name):
    spec = KERNEL_SPECS[name]
    lo, hi = truncated_support(spec, 1e-9)
    m = moments(spec)
    sd = math.sqrt(m.variance)
    want = oracle.tv_to_normal_oracle(spec, min(lo, m.mean - 8 * sd),
                                      max(hi, m.mean + 8 * sd),
                                      singular_mass=spec.singular_mass)
    assert tv_to_normal(spec) == pytest.approx(want, abs=1e-7)


def test_tv_finds_crossing_next_to_density_jump():
    # the matched normal crosses the mixture density at -1.1796, within one
    # scan bracket of the jump at -1.1693; the pinned value is an independent
    # 24-point Gauss-Legendre quadrature split at every crossing
    spec = spec_from_dict({"components": [
        {"kind": "uniform", "lo": -1.8391288256568001, "hi": -0.5763866297579239,
         "weight": 0.3132239485831543},
        {"kind": "uniform", "lo": -1.1693390965827892, "hi": 0.47433658959668845,
         "weight": 0.34036079418640086},
        {"kind": "uniform", "lo": -0.035073048896532066, "hi": 1.7205038460737965,
         "weight": 0.34641525723044486},
    ]})
    assert tv_to_normal(spec) == pytest.approx(0.20689832751800563, abs=1e-8)


def test_tv_affine_invariance():
    for name in ["uniform01", "mixed_atoms_uniform", "exponential1"]:
        spec = KERNEL_SPECS[name]
        base = tv_to_normal(spec)
        for scale, shift in [(3.0, -2.0), (0.5, 4.0)]:
            if name == "exponential1" and shift != 0.0:
                continue
            mapped = affine_transform(spec, scale, shift)
            assert tv_to_normal(mapped) == pytest.approx(base, abs=1e-7), name


def _overlapping_uniforms(s):
    return DistributionSpec((Uniform(0.0, s, 0.5), Uniform(0.5 * s, 2.0 * s, 0.5)))


@pytest.mark.parametrize("k", [-66, -330, -500, 330])
def test_tv_is_exact_under_dyadic_scaling(k):
    # every node of the whole-line quadrature, tails included, scales with
    # the law, so a dyadic scale changes no bit of the distance
    got = tv_to_normal(_overlapping_uniforms(2.0 ** k))
    assert got == pytest.approx(tv_to_normal(_overlapping_uniforms(1.0)), rel=1e-15, abs=0.0)


def test_crossings_of_a_huge_density_raise_no_overflow():
    # on a support 2e-160 wide the density is ~1e160, whose products
    # overflow; the scan compares signs, so no numpy warning escapes.  The
    # distance itself is still 1.3e-4 relative off (absolute-x precision)
    spec = DistributionSpec((Uniform(0.0, 1e-160, 0.5), Uniform(5e-161, 2e-160, 0.5)))
    want = tv_to_normal(_overlapping_uniforms(1.0))
    assert tv_to_normal(spec) == pytest.approx(want, rel=1e-3, abs=0.0)
    with pytest.raises(NumericsError, match="sigma"):
        discrepancy_bounds(spec, stein_kernel(spec, 64))


def _scale_free_report(spec):
    """tv, bound_l1 / sigma^2, bound_sd / sigma^2 and the CLT bound at n = 16:
    each the same for every scaled copy of a law."""
    kernel = stein_kernel(spec, 256)
    var = moments(spec).variance
    rep = discrepancy_bounds(spec, kernel)
    return rep.tv_exact, rep.bound_l1 / var, rep.bound_sd / var, clt_bound(spec, 16, kernel)


_unscaled_report = functools.cache(lambda name: _scale_free_report(KERNEL_SPECS[name]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(sorted(KERNEL_SPECS)), st.integers(-330, 330))
@example("uniform01", -330)
@example("uniform_cantor", -330)
@example("exponential1", 330)
@example("mixed_atoms_uniform", 330)
def test_report_and_clt_bound_are_scale_free(name, k):
    # r = tau / sigma^2 - 1 is the same under every scaling, and dyadic
    # scaling moves no quadrature node off its scaled place; Var tau ~ s^4
    # once underflowed to 0 at k = -330 and overflowed at k = 330
    got = _scale_free_report(affine_transform(KERNEL_SPECS[name], 2.0 ** k, 0.0))
    assert got == pytest.approx(_unscaled_report(name), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_exponential_bound_l1_covers_whole_line(lam):
    # tau(x) = x / lam and sigma^2 = 1 / lam^2, so 2 E|tau - sigma^2| =
    # (2 / lam) E|X - 1/lam| = 4 / (lam^2 e); the tails beyond the tail
    # quantiles carry ~3e-8 of it
    spec = spec_from_dict({"components": [{"kind": "exponential", "rate": lam, "weight": 1.0}]})
    rep = discrepancy_bounds(spec, stein_kernel(spec, 256))
    assert rep.bound_l1 == pytest.approx(4.0 / (lam * lam * math.e), rel=1e-12)


def test_report_normal_is_all_zero():
    spec = KERNEL_SPECS["normal_std"]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 64))
    assert rep.tv_exact < 1e-8
    assert rep.bound_l1 == pytest.approx(0.0, abs=1e-9)
    assert rep.bound_sd == pytest.approx(0.0, abs=1e-9)


def test_report_uniform_bound_values():
    spec = KERNEL_SPECS["uniform01"]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 64))
    assert rep.bound_sd == pytest.approx(2.0 * math.sqrt(1.0 / 720.0), abs=1e-10)
    # oracle for 2 E|tau - sigma^2| with tau = t(1-t)/2
    xs = np.linspace(0.0, 1.0, 2_000_001)
    want_l1 = 2.0 * float(np.trapezoid(np.abs(xs * (1 - xs) / 2 - 1.0 / 12.0), xs))
    assert rep.bound_l1 == pytest.approx(want_l1, abs=1e-8)


@pytest.mark.parametrize("s", [1e-20, 1e-40])
def test_report_is_scale_free_for_tiny_supports(s):
    # the crossing scan's absolute length floors once put its brackets
    # outside these supports, and an IndexError escaped
    def report(s):
        spec = spec_from_dict({"components": [
            {"kind": "uniform", "lo": 0.0, "hi": s, "weight": 0.5},
            {"kind": "uniform", "lo": s / 2, "hi": 2 * s, "weight": 0.5}]})
        return discrepancy_bounds(spec, stein_kernel(spec, 1024))

    got, want = report(s), report(1.0)
    assert got.bound_l1 / s ** 2 == pytest.approx(want.bound_l1, rel=1e-15)
    assert got.bound_sd / s ** 2 == pytest.approx(want.bound_sd, rel=1e-15)
    assert got.tv_exact == pytest.approx(want.tv_exact, rel=1e-8)


def test_report_on_a_support_64_ulps_wide():
    lo = 1024.0
    spec = spec_from_dict({"components": [
        {"kind": "uniform", "lo": lo, "hi": lo + 64 * math.ulp(lo), "weight": 1.0}]})
    with warnings.catch_warnings():
        # 64 float steps cannot resolve the normal density to the tolerance
        warnings.simplefilter("ignore", IntegrationWarning)
        rep = discrepancy_bounds(spec, stein_kernel(spec, 1024))
    assert all(map(math.isfinite, (rep.tv_exact, rep.bound_l1, rep.bound_sd)))


def test_report_mixed_bound_l1_closed_form():
    # tau >= 1 > sigma^2 = 2/3 on the open interval, so the AC part of
    # E|tau - sigma^2| telescopes to sigma^2 - sigma^2 * mu_ac = 1/3, and the
    # atoms contribute sigma^2 * 1/2 = 1/3
    spec = KERNEL_SPECS["mixed_atoms_uniform"]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 64))
    assert rep.bound_l1 == pytest.approx(4.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_cauchy_schwarz_ordering(name):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 128)
    rep = discrepancy_bounds(spec, kernel, )
    assert rep.bound_l1 <= rep.bound_sd + 1e-7, name
    assert rep.tv_exact <= 1.0 + 1e-12
    assert rep.bound_l1 >= -1e-12 and rep.bound_sd >= -1e-12


@pytest.mark.parametrize("name", ["mixed_atoms_uniform", "exponential1",
                                  "normal_std", "normal_uniform_mix",
                                  "atom_at_edge_exponential"])
def test_tv_bounded_by_discrepancy_for_unit_scale_specs(name):
    # the discrepancy chain bounds d_TV whenever the variance is not far
    # below one; the corpus members here all satisfy it with slack
    spec = KERNEL_SPECS[name]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 128))
    assert rep.tv_exact <= rep.bound_l1 + 1e-7, name


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_normalized_bounds_sandwich_tv(name):
    # the general chain d_TV <= bound_l1 / sigma^2 <= bound_sd / sigma^2
    # holds at every variance; the report keeps the bounds without 1/sigma^2
    spec = KERNEL_SPECS[name]
    var = moments(spec).variance
    rep = discrepancy_bounds(spec, stein_kernel(spec, 256))
    assert rep.tv_exact <= rep.bound_l1 / var + 1e-7, name
    assert rep.bound_l1 / var <= rep.bound_sd / var + 1e-7, name


def test_bound_sd_matches_kernel_stats():
    for name in ["uniform01", "mixed_atoms_uniform", "exponential2"]:
        spec = KERNEL_SPECS[name]
        kernel = stein_kernel(spec, 64)
        _, var_tau = kernel_stats(spec, kernel)
        rep = discrepancy_bounds(spec, kernel)
        assert rep.bound_sd == pytest.approx(2.0 * math.sqrt(var_tau), abs=1e-12)


def _uniform_cantor_tau_gap(t):
    """sigma^2 q(t) - sigma^2 p(t) on (0, 1) for uniform_cantor, 1/2 U[0, 1]
    + 1/2 C[0, 1] (sigma^2 = 5/48, p = 1/2), with the Cantor tails in exact
    arithmetic: the uniform gives t (1 - t) / 4, the Cantor part
    (E[C 1{C >= t}] - P(C >= t) / 2) / 2."""
    s, m = oracle.cantor_survival_upper_mean_exact(t)
    return t * (1.0 - t) / 4.0 + float(m - s / 2) / 2.0 - 5.0 / 96.0


def test_crossing_scan_skips_the_cantor_set(monkeypatch):
    # tau - sigma^2 crosses zero at 0.0771... and 0.9229...; on the Cantor set
    # the pointwise kernel reads -sigma^2, which is no crossing of the a.e. one
    import steinkit.discrepancy as disc
    seen = []

    def recording(*args):
        seen.append(search(*args))
        return seen[-1]

    search = disc._node_crossings
    monkeypatch.setattr(disc, "_node_crossings", recording)
    spec = KERNEL_SPECS["uniform_cantor"]
    discrepancy_bounds(spec, stein_kernel(spec, 1024))
    pts = seen[0]  # the tau search runs first
    interior = pts[(pts > 0.0) & (pts < 1.0)]
    assert len(interior) == 2
    assert not oracle.cantor_in_support_by_levels(interior, 0.0, 1.0).any()
    want = [optimize.brentq(_uniform_cantor_tau_gap, a, b, xtol=1e-15) for a, b in
            [(0.05, 0.1), (0.9, 0.95)]]
    assert np.abs(interior - want).max() <= 1e-12


def test_report_to_dict_keys():
    spec = KERNEL_SPECS["uniform01"]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 64))
    assert set(rep.to_dict()) == {"tv", "bound_l1", "bound_sd"}


# -- crossing search ---------------------------------------------------------

def _scan(f, edges):
    """The points and values of a scan of f for `_find_crossings`: 65
    points a panel between the edges, the ends inset from them, and a NaN at
    each interior edge, where f may jump, as the library puts one at each
    kernel break."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    unit = min(edges[-1] - edges[0], 1.0)
    xs = np.linspace(lo, hi, 65, axis=1)
    inset = np.minimum(np.maximum(1e-12 * (hi - lo),
                                  1e-13 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), unit)),
                       0.25 * (hi - lo))
    xs[:, 0], xs[:, -1] = lo + inset, hi - inset
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    nan = np.full(len(hi), np.nan)
    return np.column_stack([xs, hi]).ravel()[:-1], np.column_stack([fx, nan]).ravel()[:-1]


def _crossings(f, edges):
    return [float(x) for x in _find_crossings(f, *_scan(f, edges))]


def test_crossing_search_finds_roots_over_several_panels():
    edges = [0.5, 4.0, 7.0, 10.0]
    got = _crossings(np.sin, edges)
    assert got == sorted(got)
    want = [math.pi, 2.0 * math.pi, 3.0 * math.pi]
    assert np.max(np.abs(np.array(got) - want)) < 2e-14
    oracle = [optimize.brentq(np.sin, r - 0.03, r + 0.02, xtol=1e-14) for r in want]
    assert np.max(np.abs(np.array(got) - oracle)) < 2e-14


def test_crossing_search_root_next_to_panel_edge():
    root = 1.0 + 1e-9
    f = lambda x: np.exp(x) - math.exp(root)  # noqa: E731
    got = _crossings(f, [0.0, 1.0, 2.0])
    assert len(got) == 1 and abs(got[0] - root) < 2e-14
    assert abs(got[0] - optimize.brentq(f, 1.0, 1.5, xtol=1e-14)) < 2e-14


def test_crossing_search_crossing_next_to_jump():
    # f jumps from +1 to -1e-6 at the edge 1 and crosses zero 1e-6 later;
    # the NaN at the edge keeps the jump itself from being a crossing
    root = 1.0 + 1e-6
    f = lambda x: np.where(x < 1.0, 1.0, x - root)  # noqa: E731
    got = _crossings(f, [0.0, 1.0, 2.0])
    assert len(got) == 1 and abs(got[0] - root) < 2e-14
    assert abs(got[0] - optimize.brentq(f, 1.0 + 1e-12, 1.5, xtol=1e-14)) < 2e-14


def test_crossing_search_finds_nothing_in_an_exact_zero():
    # an exact zero carries no sign: f = 0 everywhere has no crossing
    assert _crossings(np.zeros_like, [0.0, 1.0, 2.0]) == []


def test_crossing_search_returns_an_exact_zero_between_opposite_signs_once():
    # x - 0.5 vanishes exactly at the scan point 0.5 of [0, 1]
    got = _crossings(lambda x: x - 0.5, [0.0, 1.0])
    assert len(got) == 1 and abs(got[0] - 0.5) < 2e-14
    # and on a flat run of exact zeros between opposite signs
    f = lambda x: np.where(np.abs(x - 0.5) < 0.02, 0.0, x - 0.5)  # noqa: E731
    got = _crossings(f, [0.0, 1.0])
    assert len(got) == 1 and abs(got[0] - 0.5) <= 0.02


def test_tv_holds_where_two_crossings_share_a_bracket():
    # p - phi changes sign at 0.959 and 1.084, 0.125 apart: the integral of
    # |p - phi| must match a quadrature split at a dense scan's crossings
    spec = DistributionSpec((
        Normal(1.3705338877569138, 0.7400068196225158, 0.16610166912422483),
        Exponential(2.9927737241751426, 0.14133032588524455),
        Normal(0.8138503312837142, 1.827879623325489, 0.6925680049905306)))
    m, var = oracle.moments_oracle(spec)
    want = oracle.piecewise_density_tv(lambda t: oracle.mixture_pdf(spec, t),
                                       [-20.0, 0.0, 30.0], m, math.sqrt(var))
    assert tv_to_normal(spec) == pytest.approx(want, rel=0.0, abs=1e-9)


def test_tv_finds_a_crossing_pair_closer_than_a_scan_bracket(monkeypatch):
    # the pair at 0.959 and 1.084 lies between neighbouring starting nodes
    # of its own; the reference is a 30-digit mpmath integral of |p - phi|,
    # and the crossings are brentq's on the raw densities
    import steinkit.discrepancy as disc
    seen = []
    search = disc._node_crossings
    monkeypatch.setattr(disc, "_node_crossings", lambda *args: seen.append(search(*args)) or seen[-1])
    spec = DistributionSpec((
        Normal(1.3705338877569138, 0.7400068196225158, 0.16610166912422483),
        Exponential(2.9927737241751426, 0.14133032588524455),
        Normal(0.8138503312837142, 1.827879623325489, 0.6925680049905306)))
    assert abs(tv_to_normal(spec) - 0.098256870129793411354) <= 1e-15
    m, var = moments(spec).mean, moments(spec).variance

    def gap(t):
        return oracle.mixture_pdf(spec, t) - math.exp(-0.5 * (t - m) ** 2 / var) / math.sqrt(
            2.0 * math.pi * var)

    (got,) = seen
    pair = got[(got > 0.9) & (got < 1.1)]
    want = [optimize.brentq(gap, 0.9, 1.0, xtol=1e-15), optimize.brentq(gap, 1.0, 1.1, xtol=1e-15)]
    assert len(pair) == 2 and np.abs(pair - want).max() <= 1e-13, (pair, want)
    assert 0.959 < pair[0] < 0.960 and 1.084 < pair[1] < 1.085


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_the_report_reads_the_distance_on_the_kernels_pass(name):
    # the kernel's starting pass holds the same nodes and p as the p-only
    # pass tv_to_normal builds, so the two distances agree bit for bit
    spec = KERNEL_SPECS[name]
    assert discrepancy_bounds(spec, stein_kernel(spec, 256)).tv_exact == tv_to_normal(spec)


def test_crossing_search_stops_on_nan():
    # finite on the scan, NaN at every refinement point
    calls = []

    def f(x):
        calls.append(len(x))
        return x - 0.3 if len(calls) == 1 else np.full_like(x, np.nan)

    got = _crossings(f, [0.0, 1.0])
    assert len(calls) <= 1 + MAX_PASSES
    assert len(got) == 1 and 19 / 64 <= got[0] <= 20 / 64


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 10.0), st.floats(-4.0, 4.0))
@example(0.113, 6.387182191618228, -2.042712795848863)
def test_crossing_search_finds_a_simple_root_in_a_few_passes(r, c, b):
    # (x - r)(1 + c (x - r)^2) e^(bx): smooth, one simple root at r, cubic
    # for large c; probes centred on the inverse interpolate reach r within
    # 2e-14 in at most four passes after the scan
    got, calls = _cubic_root_search(r, c, b)
    assert len(got) == 1 and abs(got[0] - r) < 2e-14
    assert calls <= 5


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(10.0, 1000.0), st.floats(-4.0, 4.0))
def test_crossing_search_finds_a_root_of_a_sharply_curved_f(r, c, b):
    # the same f with c up to 1000: the scan spacing no longer resolves the
    # cubic, and a search may fall back on evenly spaced probes, but it still
    # reaches r within 2e-14 in at most six passes after the scan
    got, calls = _cubic_root_search(r, c, b)
    assert len(got) == 1 and abs(got[0] - r) < 2e-14
    assert calls <= 7


def _cubic_root_search(r, c, b):
    """The crossings `_find_crossings` reports for (x - r)(1 + c (x - r)^2)
    e^(bx) on [-1, 2], and how many calls of f it and the scan made."""
    calls = []

    def f(x):
        calls.append(len(x))
        return (x - r) * (1.0 + c * (x - r) ** 2) * np.exp(b * x)

    return _crossings(f, [-1.0, 2.0]), len(calls)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_certificate_crossing_searches_take_few_calls(name, monkeypatch):
    # the tau search of discrepancy_bounds, then the distance's density
    # search, each counted in calls of f after the scan of the starting
    # nodes; the Cantor staircase in uniform_cantor's tau is not smooth,
    # and its search falls back on evenly spaced probes
    import steinkit.discrepancy as disc
    counts = []
    search = disc._find_crossings

    def counted(f, xs, fx):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)
        return search(g, xs, fx)

    monkeypatch.setattr(disc, "_find_crossings", counted)
    spec = KERNEL_SPECS[name]
    discrepancy_bounds(spec, stein_kernel(spec, 256))
    assert len(counts) == 2
    assert counts[0] <= (16 if name == "uniform_cantor" else 5) and counts[1] <= 5, counts


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 999), st.integers(-8, 8).filter(bool),
                          st.integers(-8, 8).filter(bool)),
                min_size=1, max_size=40, unique_by=lambda k: k[0]))
def test_crossing_search_finds_each_bracketed_sign_change_once(pieces):
    # piecewise linear on [0, 1] from L_i to R_i between knots k_i / 1000,
    # with a jump at a knot wherever R_i differs from L_{i+1}; no value is
    # zero at a knot, so crossings lie >= 1/16000 apart
    pieces = sorted(pieces)
    knots = np.array([0.0] + [k / 1000 for k, _, _ in pieces] + [1.0])
    left = np.array([1.0] + [lv / 8 for _, lv, _ in pieces])
    right = np.array([-1.0] + [rv / 8 for _, _, rv in pieces])

    def f(x):
        i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(left) - 1)
        t = (x - knots[i]) / (knots[i + 1] - knots[i])
        return left[i] + (right[i] - left[i]) * t

    scans = []

    def traced(x):
        scans.append(np.array(x))
        return f(x)

    got = np.array(_crossings(traced, [0.0, 1.0]))
    xs, vals = scans[0], f(scans[0])
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    exact = xs[1:][vals[1:] == 0.0]
    assert len(got) == len(brackets) + len(exact)
    for j in brackets:
        inside = got[(xs[j] <= got) & (got <= xs[j + 1])]
        assert len(inside) == 1
        r = inside[0]
        assert f(r) == 0.0 or f(r - 2e-14) * f(r + 2e-14) <= 0.0


# -- random mixtures ------------------------------------------------------------

def _measurement_mixtures(count, seed=11):
    """The first `count` random mixtures of one fixed generator (numpy seed
    11): 1-3 pieces with Dirichlet(1) weights, each a normal, a
    uniform, an exponential or a 5-knot tabulated piece, at a location
    ~ N(0, 1.5^2) with a scale ~ e^N(0, 0.36): the sd, the half-width, 1/rate
    (an exponential has no location), or the half-width of evenly spaced
    knots whose values are ~ U[0.05, 1], drawn for every piece whatever its
    kind, which fixes the stream of draws."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        weights[-1] = 1.0 - weights[:-1].sum()
        pieces = []
        for w in weights:
            kind, loc, scale = int(rng.integers(0, 4)), rng.normal(0.0, 1.5), float(np.exp(rng.normal(0.0, 0.6)))
            pieces.append((Normal(loc, scale, w), Uniform(loc - scale, loc + scale, w),
                           Exponential(1.0 / scale, w),
                           Tabulated(loc + scale * np.linspace(-1.0, 1.0, 5), rng.uniform(0.05, 1.0, 5), w)
                           )[kind])
        specs.append(DistributionSpec(tuple(pieces)))
    return specs


@functools.cache
def _measurement_certificates(count):
    """(spec, kernel or None, tv, bound_l1 or None, tau crossings or None,
    density crossings) for each of the first `count` `_measurement_mixtures`:
    `discrepancy_bounds` where a kernel exists, else `tv_to_normal`, with the
    crossings `_node_crossings` returned to them."""
    import steinkit.discrepancy as disc
    search, out = disc._node_crossings, []
    for spec in _measurement_mixtures(count):
        seen = []
        disc._node_crossings = lambda *args: seen.append(search(*args)) or seen[-1]
        try:
            try:
                kernel = stein_kernel(spec)
            except ExistenceError:  # a gap between pieces
                kernel = None
            if kernel is None:
                tv, l1 = tv_to_normal(spec), None
            else:
                rep = discrepancy_bounds(spec, kernel)
                tv, l1 = rep.tv_exact, rep.bound_l1
        finally:
            disc._node_crossings = search
        out.append((spec, kernel, tv, l1, seen[0] if kernel else None, seen[-1]))
    return out


def _unfound_sign_changes(f, lo, hi, found, breaks, points):
    """The sign changes of a `points`-point scan of f over [lo, hi] that lie
    further than two scan steps from every point of `found`, leaving out
    those within one step of a break, where f may jump."""
    xs = np.linspace(lo, hi, points)
    step = xs[1] - xs[0]
    sign = np.sign(f(xs))
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    cuts = np.asarray(breaks, dtype=float)
    if cuts.size:
        i = i[np.abs(xs[i, None] - cuts).min(axis=1) > step]
        i = i[np.abs(xs[i + 1, None] - cuts).min(axis=1) > step]
    found = np.asarray(found, dtype=float)
    return [float(xs[j]) for j in i if not (found.size and np.abs(found - xs[j]).min() <= 2 * step)]


def test_no_crossing_of_either_search_is_missed_on_the_measurement_mixtures():
    # 120 mixtures (109 with a kernel) and a 2^16-point scan between the
    # first and last finite-panel node of the starting pass, where both
    # searches look: every sign change of p - phi, and of tau - sigma^2
    # where a kernel exists, is a returned crossing.  A missed pair would
    # lose a whole lobe of the closed-form sums
    missed = []
    for k, (spec, kernel, _, _, tau_found, p_found) in enumerate(_measurement_certificates(120)):
        (ac, _, _), _ = _first_pass(spec, kernel, DEFAULT_CONFIG)
        (_, _, side, _), x, _, _ = ac
        nodes = x[np.repeat(side == 0.0, len(x) // len(side))]
        mo = moments(spec)
        normal = Normal(mo.mean, math.sqrt(mo.variance), 1.0)
        gaps = [(lambda t: oracle._raw_pdf_array(normal, t) - sum(
            c.weight * oracle._raw_pdf_array(c, t) for c in spec.components), p_found)]
        if kernel is not None:
            gaps.append((lambda t: kernel.values_ae(t) - mo.variance, tau_found))
        for f, found in gaps:
            miss = _unfound_sign_changes(f, nodes[0], nodes[-1], found, spec._kernel_breaks, 1 << 16)
            if miss:
                missed.append((k, miss[:3]))
    assert sum(kernel is not None for _, kernel, *_ in _measurement_certificates(120)) >= 100
    assert not missed, missed


def test_closed_form_distances_match_quadrature_on_the_measurement_mixtures():
    # tv and bound_l1 against scipy's quad of |p - phi| and |tau - sigma^2| p
    # between the crossings the searches returned (`oracle_utils`), on the
    # first 60 `_measurement_mixtures`
    eps = np.finfo(float).eps
    worst = []
    for spec, kernel, tv, l1, tau_found, p_found in _measurement_certificates(120)[:60]:
        mo = moments(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # scipy's quad at its roundoff limit
            pairs = [(tv, oracle.tv_quad_reference(spec, mo.mean, mo.variance, p_found))]
            if kernel is not None:
                pairs.append((l1, oracle.bound_l1_quad_reference(spec, kernel, mo.variance, tau_found)))
        worst += [abs(got - want) / max(1e-12 * abs(want), 64 * eps) for got, want in pairs]
    assert max(worst) <= 1.0, max(worst)


def _near_normal_reference(w):
    """(tv, bound_l1) of (1 - w) N(0, 1) + w U[0, 1] at 40 digits by mpmath:
    |p - phi| and |sigma^2 q - sigma^2 p| integrated between their crossings
    (root-found from a scan) and the breaks 0 and 1, sigma^2 q = E[(X - m)
    1{X >= x}] in closed form, with m and sigma^2 from the weights as the
    spec holds them."""
    import mpmath as mp

    with mp.workdps(40):
        wn, wu = mp.mpf(1.0 - w), mp.mpf(w)
        m = wu / 2
        var = wn * (1 + m ** 2) + wu * (mp.mpf(1) / 12 + (mp.mpf(1) / 2 - m) ** 2)
        sd = mp.sqrt(var)

        def p(x):
            return wn * mp.npdf(x) + (wu if 0 <= x < 1 else 0)

        def q(x):  # sigma^2 q
            a = min(max(x, 0), 1)
            return wn * (mp.npdf(x) - m * (1 - mp.ncdf(x))) + wu * ((1 - a * a) / 2 - m * (1 - a))

        def l1(f):
            edges = [mp.mpf(-40), mp.mpf(-8), mp.mpf(0), mp.mpf(1), mp.mpf(8), mp.mpf(40)]
            pts = []
            for a, b in zip(edges[:-1], edges[1:]):
                xs = [a + (b - a) * (i + mp.mpf(1) / 2) / 200 for i in range(200)]
                vs = [f(x) for x in xs]
                pts += [a] + [mp.findroot(f, (x0, x1), solver="anderson")
                              for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]) if v0 * v1 < 0]
            pts.append(edges[-1])
            return sum(abs(mp.quad(f, [a, b])) for a, b in zip(pts[:-1], pts[1:]))

        tv = l1(lambda x: p(x) - mp.npdf(x, m, sd)) / 2
        bound = 2 * l1(lambda x: q(x) - var * p(x))
        return float(tv), float(bound), float(var)


@pytest.mark.parametrize("w", [1e-6, 1e-8, 1e-10])
def test_closed_form_distances_on_a_near_normal_law(w):
    # tv ~ 0.56 w: the closed forms hold 64 eps absolute against 40-digit
    # references (at w = 1e-10 that is still ~1e-7 relative)
    eps = np.finfo(float).eps
    spec = DistributionSpec((Normal(0.0, 1.0, 1.0 - w), Uniform(0.0, 1.0, w)))
    rep = discrepancy_bounds(spec, stein_kernel(spec))
    tv, bound, var = _near_normal_reference(w)
    assert abs(rep.tv_exact - tv) <= 64 * eps
    assert abs(rep.bound_l1 - bound) <= 64 * eps * var


@pytest.mark.parametrize("spec", [
    DistributionSpec((Normal(0.0, 1.0, 1.0),)),
    DistributionSpec((Normal(0.3, 1.7, 0.5), Normal(0.3, 1.7, 0.5))),
], ids=["normal_std", "normal_in_two_copies"])
def test_bound_l1_is_exactly_zero_on_a_normal(spec):
    # sigma^2 q = sigma^2 p on a normal, and its tail terms cancel bit for
    # bit: K = sd^2 P for each copy, as sigma^2 F is
    assert discrepancy_bounds(spec, stein_kernel(spec)).bound_l1 == 0.0


def test_bound_l1_on_the_w_shaped_law_needs_no_integral():
    # its Var tau diverges, so `_tau_moments` warns, once; bound_l1 is
    # finite and read from the tails
    spec = spec_from_dict({"components": [{"kind": "tabulated", "grid": [-1, -0.5, 0, 0.5, 1],
                                           "values": [0, 2, 0, 2, 0], "weight": 1.0}]})
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rep = discrepancy_bounds(spec, stein_kernel(spec))
    assert [w.category for w in seen] == [IntegrationWarning]
    assert rep.bound_l1 == pytest.approx(0.3955785923627079, rel=1e-13)
