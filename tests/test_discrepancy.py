import math

import numpy as np
import pytest

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

import oracle_utils as oracle


def test_tv_normal_spec_is_zero():
    assert tv_to_normal(KERNEL_SPECS["normal_std"]) < 1e-8
    assert tv_to_normal(KERNEL_SPECS["normal_shifted"]) < 1e-8


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


def test_report_to_dict_keys():
    spec = KERNEL_SPECS["uniform01"]
    rep = discrepancy_bounds(spec, stein_kernel(spec, 64))
    assert set(rep.to_dict()) == {"tv", "bound_l1", "bound_sd"}
