import math
import time

import numpy as np
import pytest

from steinkit import (
    CltCurve,
    DistributionSpec,
    Exponential,
    Normal,
    NumericsError,
    SpecError,
    Tabulated,
    Uniform,
    clt_bound,
    clt_curve,
    convolution_tv,
    convolution_tv_result,
    parse_spec,
    rate_fit,
    stein_kernel,
    tv_to_normal,
)
from steinkit.corpus import KERNEL_SPECS

import oracle_utils as oracle

E1 = KERNEL_SPECS["exponential1"]
U01 = KERNEL_SPECS["uniform01"]
N01 = KERNEL_SPECS["normal_std"]
# a piecewise-linear density that jumps at both ends
TAB_JUMPS = DistributionSpec((Tabulated(np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
                                        np.array([1.0, 0.5, 1.2, 0.8, 0.3]), 1.0),))
EXP_PAIR = DistributionSpec((Exponential(0.7, 0.4), Exponential(2.5, 0.6)))
# a spike 1e-6 wide on top of a uniform
SPIKE = DistributionSpec((Uniform(0.0, 1e-6, 0.5), Uniform(0.0, 1.0, 0.5)))


def test_bound_exponential_n4():
    assert clt_bound(E1, 4) == pytest.approx(1.0, abs=1e-12)


def test_bound_uniform_n100():
    want = 2.0 * math.sqrt(1.0 / 720.0) / ((1.0 / 12.0) * 10.0)
    assert clt_bound(U01, 100) == pytest.approx(want, abs=1e-12)


def test_bound_normal_any_n():
    assert clt_bound(N01, 7) == pytest.approx(0.0, abs=1e-9)


def test_bound_scaling_is_exact():
    kernel = stein_kernel(E1, 64)
    for n in [1, 3, 10, 25]:
        assert clt_bound(E1, 4 * n, kernel=kernel) == clt_bound(E1, n, kernel=kernel) / 2


@pytest.mark.parametrize("k", [-20, -10, 10, 20])
def test_bound_is_scale_free_for_narrow_and_wide_normal_pairs(k):
    # 1/2 N(5s, s) + 1/2 N(5s, 2s): at s = 2^-20 the bound once read ~0
    def pair(s):
        return DistributionSpec((Normal(5 * s, s, 0.5), Normal(5 * s, 2 * s, 0.5)))
    want = clt_bound(pair(1.0), 1)
    assert clt_bound(pair(2.0 ** k), 1) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k", [-20, 20])
def test_bound_is_scale_free_for_exponential_pairs(k):
    def pair(k):
        return DistributionSpec((Exponential(2.0 ** k, 0.5), Exponential(2.0 ** (k + 1), 0.5)))
    assert clt_bound(pair(k), 1) == pytest.approx(clt_bound(pair(0), 1), rel=1e-15, abs=0.0)


def test_bound_rejects_bad_n():
    with pytest.raises(SpecError):
        clt_bound(E1, 0)


def test_convolution_normal_recovers_normal():
    assert convolution_tv(N01, 4, 4096) < 1e-6
    assert convolution_tv(N01, 16, 4096) < 1e-6


def test_convolution_matches_gamma_oracle():
    for n, tol in [(4, 1e-4), (16, 1e-5)]:
        got = convolution_tv(E1, n, 1 << 14)
        want = oracle.gamma_standardized_tv_oracle(n)
        assert got == pytest.approx(want, abs=tol)


def test_convolution_uniform_pair_matches_triangle_oracle():
    # sum of two uniforms is the triangle density on [0, 2]
    sd = math.sqrt(1.0 / 6.0)

    def tri_std(z):
        y = 1.0 + sd * z
        p = y if 0 <= y <= 1 else (2 - y if 1 < y <= 2 else 0.0)
        return p * sd

    from scipy import integrate, optimize
    from scipy.special import ndtr

    def diff(z):
        return tri_std(z) - math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    zmax = 1.0 / sd
    zs = np.linspace(-zmax + 1e-12, zmax - 1e-12, 2001)
    vals = [diff(z) for z in zs]
    roots = [optimize.brentq(diff, a, b) for a, b, fa, fb
             in zip(zs[:-1], zs[1:], vals[:-1], vals[1:]) if fa * fb < 0]
    pts = [-zmax, *roots, zmax]
    total = sum(abs(integrate.quad(diff, a, b, limit=200)[0])
                for a, b in zip(pts[:-1], pts[1:]))
    want = 0.5 * (total + 2.0 * float(ndtr(-zmax)))

    got = convolution_tv(U01, 2, 4096)
    assert got == pytest.approx(want, abs=1e-5)


def test_convolution_is_decreasing_and_dominated():
    kernel = stein_kernel(E1, 64)
    values = []
    for n in [4, 16, 64]:
        tv = convolution_tv(E1, n, 4096)
        assert tv <= clt_bound(E1, n, kernel=kernel)
        values.append(tv)
    assert values[0] > values[1] > values[2]


def test_convolution_rejects_singular_specs():
    with pytest.raises(SpecError):
        convolution_tv(KERNEL_SPECS["mixed_atoms_uniform"], 4)
    with pytest.raises(SpecError):
        convolution_tv(KERNEL_SPECS["uniform_cantor"], 4)


def test_convolution_rejects_bad_grid():
    with pytest.raises(SpecError):
        convolution_tv(U01, 4, 1000)
    with pytest.raises(SpecError):
        convolution_tv(U01, 4, 4095)


# the law of S_2 for SPIKE is piecewise linear: 1/4 a triangle on [0, 2e-6],
# 1/2 a trapezoid on [0, 1 + 1e-6] and 1/4 a triangle on [0, 2]
SPIKE_PAIR_KNOTS = [0.0, 1e-6, 2e-6, 1.0, 1.0 + 1e-6, 2.0]
SPIKE_PAIR_VALUES = [0.0, 0.25e6 + 0.5 + 0.25e-6, 0.5 + 0.5e-6, 0.75, 0.25 * (1.0 - 1e-6), 0.0]


def spike_pair_tv():
    mean, var = oracle.moments_oracle(SPIKE)
    return oracle.piecewise_density_tv(
        lambda t: float(np.interp(t, SPIKE_PAIR_KNOTS, SPIKE_PAIR_VALUES)),
        SPIKE_PAIR_KNOTS, 2.0 * mean, math.sqrt(2.0 * var))


def test_convolution_resolves_a_spike_below_the_cell_width():
    # the spike is 1e-6 wide, a 244th of one of 4096 cells over [0, 1]
    res = convolution_tv_result(SPIKE, 2, 4096, error_estimate=False)
    assert res.route == "fft"
    assert res.tv == pytest.approx(spike_pair_tv(), abs=5e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fft_route_matches_irwin_hall(n):
    res = convolution_tv_result(U01, n, 4096, error_estimate=False)
    assert res.route == "fft"
    assert res.tv == pytest.approx(oracle.irwin_hall_tv(n), abs=1e-7)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_fft_route_matches_gamma_oracle(n):
    res = convolution_tv_result(E1, n, 4096, error_estimate=False)
    assert res.route == "fft"
    assert res.tv == pytest.approx(oracle.gamma_standardized_tv_oracle(n), abs=5e-6)


def test_fft_route_refuses_a_collapsed_grid():
    # the support rounds to one point, so every cell mass is 0
    from steinkit.clt import _fft_tvs
    from steinkit.distributions import DEFAULT_CONFIG
    with pytest.raises(NumericsError):
        _fft_tvs(DistributionSpec((Normal(1.0, 1e-20, 1.0),)), (1,), 1024, DEFAULT_CONFIG)


def test_convolution_refuses_an_oversized_transform():
    from steinkit import NumericsError
    from steinkit.clt import FFT_MAX_LEN
    # at n = 10^9 the characteristic-function route finds no frequency count
    # and the FFT route would need 2^42 points
    with pytest.raises(NumericsError, match=str(FFT_MAX_LEN)):
        convolution_tv_result(U01, 10 ** 9)


def test_fft_route_gives_jump_cells_their_exact_mass():
    # midpoint samples put the mass 3.7e-3 off 1 at grid 1024 here; at n = 1
    # the distance is tv_to_normal's, by affine invariance
    spec = parse_spec('{"components":[{"kind":"normal","mean":0.1,"sd":1,"weight":0.5},'
                      '{"kind":"uniform","lo":0,"hi":1,"weight":0.5}]}')
    curve = clt_curve(spec, (1, 2, 4, 8), grid_size=1024)
    assert curve.empirical[0] == pytest.approx(tv_to_normal(spec), abs=5e-3)


@pytest.mark.parametrize("n", [8, 64, 1024, 4096])
def test_cf_route_matches_gamma_oracle(n):
    res = convolution_tv_result(E1, n)
    err = abs(res.tv - oracle.gamma_standardized_tv_oracle(n))
    assert res.route == "cf"
    assert err <= 1e-9
    assert err <= res.error_estimate <= 1e-8


@pytest.mark.parametrize("spec", [U01, TAB_JUMPS, EXP_PAIR],
                         ids=["uniform", "tabulated_jumps", "exponential_pair"])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_cf_route_matches_fine_fft_reference(spec, n):
    ref, ref_err = oracle.fft_convolution_tv_reference(spec, n, 1 << 16)
    res = convolution_tv_result(spec, n)
    assert res.route == "cf"
    assert abs(res.tv - ref) <= ref_err
    assert res.error_estimate <= 1e-8


@pytest.mark.parametrize("spec", [
    N01,
    DistributionSpec((Normal(-1.0, 1.0, 0.5), Normal(1.0, 0.5, 0.5))),
    DistributionSpec((Normal(0.0, 1.0, 0.3), Normal(0.5, 2.0, 0.7))),
], ids=["normal", "normal_pair", "normal_pair_skewed"])
def test_cf_route_is_exact_at_one_summand(spec):
    # at n = 1 psi is the characteristic function itself, so |1 + x| falls
    # far below 1e-8 on the frequency grid; d_TV(S_1^*, Z) is tv_to_normal
    res = convolution_tv_result(spec, 1, 1 << 14)
    assert res.route == "cf"
    assert abs(res.tv - tv_to_normal(spec)) <= max(res.error_estimate, 1e-14)


EDGEWORTH_SPECS = [name for name, spec in KERNEL_SPECS.items()
                   if not spec.atoms and not spec.cantor_parts
                   and not all(isinstance(c, Normal) for c in spec.components)]


@pytest.mark.parametrize("name", EDGEWORTH_SPECS)
def test_cf_route_meets_the_edgeworth_limit(name):
    # Cramer's condition holds, so the Edgeworth expansion holds in variation:
    # sqrt(n) d_TV -> |k3|/6 E|He3(Z)|/2, or n d_TV -> |k4|/24 E|He4(Z)|/2 when k3 = 0
    spec = KERNEL_SPECS[name]
    k3, k4 = oracle.standardized_cumulants(spec)
    if k3 != 0.0:
        limit, power = abs(k3) / 6.0 * oracle.half_mean_abs_hermite(3), 0.5
    else:
        limit, power = abs(k4) / 24.0 * oracle.half_mean_abs_hermite(4), 1.0
    gaps = []
    for n in (10 ** 4, 10 ** 6):
        res = convolution_tv_result(spec, n)
        assert res.route == "cf"
        gaps.append(abs(res.tv * n ** power / limit - 1.0))
    assert gaps[0] <= 1e-3
    assert gaps[1] < gaps[0]


def test_route_falls_back_to_fft_where_psi_decays_slowly():
    assert convolution_tv_result(U01, 2).route == "fft"
    res = convolution_tv_result(SPIKE, 2, 1 << 20, error_estimate=False)
    assert res.route == "fft"
    assert res.tv == pytest.approx(spike_pair_tv(), abs=1e-6)


def test_cf_route_reaches_a_million_summands():
    n = 10 ** 6
    t0 = time.perf_counter()
    res = convolution_tv_result(E1, n)
    elapsed = time.perf_counter() - t0
    assert res.route == "cf"
    assert elapsed < 1.0
    assert res.tv == pytest.approx(oracle.gamma_standardized_tv_oracle(n), abs=1e-9)


def test_convolution_result_reports_error_estimate():
    res = convolution_tv_result(U01, 4, 4096)
    assert res.error_estimate is not None
    assert res.error_estimate < 1e-4
    assert res.mass_defect < 1e-8


def test_convolution_takes_numpy_integers():
    assert convolution_tv(U01, np.int64(4), 1024) == convolution_tv(U01, 4, 1024)
    assert convolution_tv(E1, 64, grid_size=np.int64(1024)) == convolution_tv(E1, 64, 1024)
    assert clt_curve(E1, np.array([4, 64]), 1024).empirical == clt_curve(E1, (4, 64), 1024).empirical


def test_cf_route_takes_n_beyond_the_int64_range():
    # 10^20 summands: the Edgeworth limit sqrt(n) d_TV -> |k3|/6 E|He3(Z)|/2
    k3, _ = oracle.standardized_cumulants(E1)
    res = convolution_tv_result(E1, 10 ** 20)
    assert res.route == "cf"
    assert res.tv * 1e10 == pytest.approx(abs(k3) / 6.0 * oracle.half_mean_abs_hermite(3), rel=1e-3)


@pytest.mark.parametrize("call", [
    lambda: convolution_tv(U01, 4.5),
    lambda: convolution_tv(U01, 4.0),
    lambda: convolution_tv(U01, 4, 1024.0),
    lambda: clt_curve(U01, [4.5], 1024),
    lambda: clt_curve(U01, [4, 16, 64], 1024.5),
], ids=["n", "integral_float_n", "grid", "curve_n", "curve_grid"])
def test_non_integer_n_or_grid_raises_spec_error(call):
    with pytest.raises(SpecError, match=r"must be an integer, got (4\.5|4\.0|1024\.0|1024\.5)"):
        call()


# the purely absolutely continuous corpus specs
AC_SPECS = [name for name, spec in KERNEL_SPECS.items()
            if not spec.atoms and not spec.cantor_parts]


@pytest.mark.parametrize("grid", [1024, 4096])
@pytest.mark.parametrize("name", AC_SPECS)
def test_curve_is_bitwise_its_ns_taken_one_at_a_time(name, grid):
    # unsorted, repeated within and across groups, both routes in a group
    spec = KERNEL_SPECS[name]
    ns = (256, 1, 16, 16, 1024, 4, 64, 8, 3, 256)
    curve = clt_curve(spec, ns, grid)
    assert curve.empirical == tuple(convolution_tv(spec, n, grid) for n in ns)


@pytest.mark.parametrize("ns", [(16,), (1024, 16), (16, 64, 256), (16, 64, 256, 1024),
                                (1024, 16, 1024, 64)])
def test_cf_curve_evaluates_the_law_twice_and_transforms_once(ns, monkeypatch):
    # every n takes the CF route with the same M, so the whole curve makes
    # one Chernoff evaluation, one frequency evaluation and one FFT
    import steinkit.clt as clt
    assert all(convolution_tv_result(E1, n, 1024).route == "cf" for n in ns)
    calls = {"cf": 0, "fft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(clt, "_centered_cf_minus_one", counted("cf", clt._centered_cf_minus_one))
    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    clt_curve(E1, ns, 1024)
    assert calls == {"cf": 2, "fft": 1}


@pytest.mark.parametrize("ns", [(64, 256, 1024), (64, 256, 1024, 16, 64)])
def test_cf_curve_bounds_its_truncation_once_per_group(ns, monkeypatch):
    # the decay envelope is computed once, at every n's own window
    import steinkit.clt as clt
    calls = []

    def counted(spec, ns, scales, zwins):
        calls.append(len(ns))
        return frequencies(spec, ns, scales, zwins)

    frequencies = clt._frequencies
    monkeypatch.setattr(clt, "_frequencies", counted)
    clt_curve(E1, ns, 1024)
    assert calls == [len(ns[i:i + clt._CF_GROUP]) for i in range(0, len(ns), clt._CF_GROUP)]


@pytest.mark.parametrize("spec", [U01, KERNEL_SPECS["normal_uniform_mix"]], ids=["uniform", "mix"])
def test_fft_curve_builds_its_cell_masses_once(spec, monkeypatch):
    # one CDF per piece on the grid's edges, whatever the number of n
    import steinkit.clt as clt
    assert all(convolution_tv_result(spec, n, 1024).route == "fft" for n in (1, 2, 4, 8))
    edges = []

    def counted(c, t, lower):
        edges.append(len(t))
        return piece_tail(c, t, lower)

    piece_tail = clt._piece_tail
    monkeypatch.setattr(clt, "_piece_tail", counted)
    clt_curve(spec, (1, 2, 4, 8), 1024)
    assert edges == [1025] * len(spec.ac_pieces)


def test_curve_memory_does_not_grow_with_its_length():
    import tracemalloc
    ns = tuple(range(16, 1025, 16))
    clt_curve(E1, ns[:4], 4096)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = max(peak(lambda: convolution_tv(E1, n, 4096)) for n in ns)
    assert peak(lambda: clt_curve(E1, ns, 4096)) <= single + 2e6


def test_rate_fit_trivial_series():
    ns = (4, 8, 16, 32, 64)
    half = CltCurve(ns=ns, bounds=tuple(3.0 / math.sqrt(n) for n in ns),
                    empirical=tuple(5.0 / n for n in ns))
    slope_bound, slope_emp = rate_fit(half)
    assert slope_bound == pytest.approx(-0.5, abs=1e-12)
    assert slope_emp == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("power", [-1.0, -0.5, -0.25, 0.5])
@pytest.mark.parametrize("ns", [(1, 4, 16, 64, 256), (3, 10, 25, 100), (2, 5, 7, 16, 33, 1000)])
def test_rate_fit_is_exact_on_power_laws(power, ns):
    c = 1.0580852148209581
    slope, _ = rate_fit(CltCurve(ns=ns, bounds=tuple(c * n ** power for n in ns)))
    assert abs(slope - power) <= 4 * math.ulp(power)


@pytest.mark.parametrize("name", ["uniform01", "overlap_uniforms", "normal_uniform_mix",
                                  "exponential1", "tabulated_triangle"])
def test_rate_fit_matches_least_squares_on_corpus_curves(name):
    curve = clt_curve(KERNEL_SPECS[name], (1, 4, 16, 64, 256), grid_size=1024)
    logs = np.log(curve.ns)
    for got, values in ((curve.slope_bound, curve.bounds),
                        (curve.slope_empirical, curve.empirical)):
        assert got == pytest.approx(np.polyfit(logs, np.log(values), 1)[0], rel=0.0, abs=1e-14)


def test_rate_fit_insufficient_points():
    with pytest.raises(SpecError):
        rate_fit(CltCurve(ns=(4, 8), bounds=(1.0, 0.7)))
    with pytest.raises(SpecError):
        rate_fit(CltCurve(ns=(4, 8, 16), bounds=(1.0, 0.7, 0.5)))


def test_curve_for_exponential():
    curve = clt_curve(E1, [4, 8, 16, 32], grid_size=2048)
    for b, n in zip(curve.bounds, curve.ns):
        assert b == pytest.approx(2.0 / math.sqrt(n), abs=1e-10)
    assert curve.empirical is not None
    assert curve.slope_bound == pytest.approx(-0.5, abs=1e-12)
    assert all(e <= b for e, b in zip(curve.empirical, curve.bounds))


def test_curve_mixed_spec_has_no_empirical():
    curve = clt_curve(KERNEL_SPECS["mixed_atoms_uniform"], [4, 8, 16, 64],
                      grid_size=1024)
    assert curve.empirical is None
    assert curve.slope_bound == pytest.approx(-0.5, abs=1e-12)
    assert curve.slope_empirical is None


def test_centered_uniform_empirical_can_beat_the_rate():
    # symmetric summands kill the third cumulant; the exact distance then
    # decays near n^-1, strictly faster than the bound's n^-1/2
    sym = DistributionSpec((Uniform(-1.0, 1.0, 1.0),))
    curve = clt_curve(sym, [4, 8, 16, 32, 64], grid_size=4096)
    assert curve.slope_empirical < -0.8
    assert curve.slope_bound == pytest.approx(-0.5, abs=1e-12)


def test_curve_csv_format():
    from steinkit.clt import curve_to_csv
    curve = clt_curve(KERNEL_SPECS["mixed_atoms_uniform"], [4, 16], grid_size=1024)
    lines = curve_to_csv(curve).strip().split("\n")
    assert lines[0] == "n,bound,empirical"
    assert lines[1].startswith("4,") and lines[1].endswith(",")


@pytest.mark.parametrize("bounds, empirical", [((math.inf,), None), ((0.5,), (math.nan,))])
def test_curve_csv_refuses_non_finite_values(bounds, empirical):
    from steinkit.clt import curve_to_csv
    with pytest.raises(NumericsError):
        curve_to_csv(CltCurve(ns=(1,), bounds=bounds, empirical=empirical))
