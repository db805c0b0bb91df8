import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from steinkit import (
    DegenerateError,
    affine_transform,
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


def test_bound_sd_matches_kernel_stats():
    for name in ["uniform01", "mixed_atoms_uniform", "exponential2"]:
        spec = KERNEL_SPECS[name]
        kernel = stein_kernel(spec, 64)
        _, var_tau = kernel_stats(spec, kernel)
        rep = discrepancy_bounds(spec, kernel)
        assert rep.bound_sd == pytest.approx(2.0 * math.sqrt(var_tau), abs=1e-12)


def test_crossing_scan_skips_the_cantor_set(monkeypatch):
    # tau - sigma^2 crosses zero at 0.0771... and 0.9229...; on the Cantor set
    # the pointwise kernel reads -sigma^2, which is no crossing of the a.e. one
    import steinkit.discrepancy as disc
    from steinkit.distributions import cantor_in_support
    seen = []

    def recording_expect(*args, **kwargs):
        seen.append(np.asarray(kwargs["extra_breaks"]))
        return expect(*args, **kwargs)

    expect = disc.expect
    monkeypatch.setattr(disc, "expect", recording_expect)
    spec = KERNEL_SPECS["uniform_cantor"]
    discrepancy_bounds(spec, stein_kernel(spec, 1024))
    (pts,) = seen
    interior = pts[(pts > 0.0) & (pts < 1.0)]
    assert len(interior) == 2
    assert not cantor_in_support(interior, 0.0, 1.0).any()


def test_report_to_dict_keys():
    spec = KERNEL_SPECS["uniform01"]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 64))
    assert set(rep.to_dict()) == {"tv", "bound_l1", "bound_sd"}


# -- crossing search ---------------------------------------------------------

def _crossings(pts, edges):
    return [float(x) for x in pts if x not in edges]


def test_crossing_search_finds_roots_over_several_panels():
    edges = [0.5, 4.0, 7.0, 10.0]
    pts = _find_crossings(np.sin, edges)
    assert list(pts) == sorted(pts) and set(edges) <= set(pts)
    got = _crossings(pts, edges)
    want = [math.pi, 2.0 * math.pi, 3.0 * math.pi]
    assert np.max(np.abs(np.array(got) - want)) < 2e-14
    oracle = [optimize.brentq(np.sin, r - 0.03, r + 0.02, xtol=1e-14) for r in want]
    assert np.max(np.abs(np.array(got) - oracle)) < 2e-14


def test_crossing_search_root_next_to_panel_edge():
    root = 1.0 + 1e-9
    f = lambda x: np.exp(x) - math.exp(root)  # noqa: E731
    got = _crossings(_find_crossings(f, [0.0, 1.0, 2.0]), [0.0, 1.0, 2.0])
    assert len(got) == 1 and abs(got[0] - root) < 2e-14
    assert abs(got[0] - optimize.brentq(f, 1.0, 1.5, xtol=1e-14)) < 2e-14


def test_crossing_search_crossing_next_to_jump():
    # f jumps from +1 to -1e-6 at the edge 1 and crosses zero 1e-6 later;
    # the edge itself is no crossing
    root = 1.0 + 1e-6
    f = lambda x: np.where(x < 1.0, 1.0, x - root)  # noqa: E731
    got = _crossings(_find_crossings(f, [0.0, 1.0, 2.0]), [0.0, 1.0, 2.0])
    assert len(got) == 1 and abs(got[0] - root) < 2e-14
    assert abs(got[0] - optimize.brentq(f, 1.0 + 1e-12, 1.5, xtol=1e-14)) < 2e-14


def test_crossing_search_stops_on_nan():
    # finite on the scan, NaN at every refinement point
    calls = []

    def f(x):
        calls.append(len(x))
        return x - 0.3 if len(calls) == 1 else np.full_like(x, np.nan)

    pts = _find_crossings(f, [0.0, 1.0])
    assert len(calls) <= 1 + MAX_PASSES
    got = _crossings(pts, [0.0, 1.0])
    assert len(got) == 1 and 19 / 64 <= got[0] <= 20 / 64


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

    got = np.array(_crossings(_find_crossings(traced, [0.0, 1.0]), [0.0, 1.0]))
    xs, vals = scans[0], f(scans[0])
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    exact = xs[1:][vals[1:] == 0.0]
    assert len(got) == len(brackets) + len(exact)
    for j in brackets:
        inside = got[(xs[j] <= got) & (got <= xs[j + 1])]
        assert len(inside) == 1
        r = inside[0]
        assert f(r) == 0.0 or f(r - 2e-14) * f(r + 2e-14) <= 0.0
