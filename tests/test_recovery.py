import dataclasses
import math
import time

import numpy as np
import pytest

from steinkit import (
    Atom,
    DistributionSpec,
    KernelFn,
    Normal,
    NumericsError,
    SpecError,
    SupportInterval,
    TestFunction,
    ac_density,
    moments,
    recover_density,
    stein_kernel,
    stein_operator,
    truncated_support,
)
from steinkit.corpus import KERNEL_SPECS
from steinkit.distributions import DEFAULT_CONFIG
from steinkit.kernels import MAX_GRID
from steinkit.recovery import RecoveredDensity, density_to_csv

import oracle_utils as oracle

U01 = KERNEL_SPECS["uniform01"]
N01 = KERNEL_SPECS["normal_std"]
E1 = KERNEL_SPECS["exponential1"]

# corpus specs whose kernel is positive inside the support
RECOVERABLE = sorted(set(KERNEL_SPECS) - {"atom_inside_uniform", "uniform_cantor"})


def test_uniform_kernel_recovers_flat_density():
    kernel = stein_kernel(U01, 64)
    den = recover_density(kernel, 0.5, 4096)
    assert float(np.max(np.abs(den.values - 1.0))) < 1e-6
    assert den.normalizer > 0
    assert np.trapezoid(den.values, den.grid) == pytest.approx(1.0, abs=1e-12)


def test_constant_kernel_recovers_normal():
    kernel = stein_kernel(N01, 64)
    den = recover_density(kernel, 0.0, 8192)
    phi = np.exp(-0.5 * den.grid ** 2) / math.sqrt(2 * math.pi)
    assert float(np.max(np.abs(den.values - phi))) < 1e-6


def test_linear_kernel_recovers_exponential():
    kernel = stein_kernel(E1, 64)
    den = recover_density(kernel, 1.0, 16384)
    assert float(np.max(np.abs(den.values - np.exp(-den.grid)))) < 1e-6


@pytest.mark.parametrize("name", ["uniform01", "uniform_sym", "normal_std",
                                  "exponential1", "exponential2",
                                  "tabulated_triangle", "overlap_uniforms",
                                  "normal_uniform_mix"])
def test_round_trip_l1(name):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 1024)
    den = recover_density(kernel, moments(spec).mean, 2048)
    truth = ac_density(spec, den.grid)
    l1 = float(np.trapezoid(np.abs(den.values - truth), den.grid))
    assert l1 < 1e-4, name


# (grid size, anchor as a fraction of the way from the mean to the upper end)
# The density is compared relative to its value at the anchor's grid point,
# away from the two end points: on the end cells every rule in t is off by
# ~1e-8, as the grid nodes within 1e-9 of a domain end are rounded, and the
# normalizer would spread that to every point.  The end cells are checked
# against the exact exponent in test_end_cells_match_exact_exponent.
@pytest.mark.parametrize("grid_size,anchor_shift", [(16, 0.0), (512, 0.0), (2048, 0.0),
                                                    (512, 0.3)])
@pytest.mark.parametrize("name", RECOVERABLE)
def test_matches_per_cell_adaptive_reference(name, grid_size, anchor_shift):
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 64)
    m = moments(spec).mean
    x0 = m + anchor_shift * (truncated_support(spec, 1e-9)[1] - m)
    den = recover_density(kernel, m, grid_size, anchor=x0)
    grid, values = oracle.recover_density_reference(kernel, m, grid_size, anchor=x0)
    assert np.array_equal(den.grid, grid)
    k = int(np.searchsorted(grid, x0))
    np.testing.assert_allclose(den.values[1:-1] / den.values[k], values[1:-1] / values[k],
                               rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("anchor", [None, 0.4, -0.7])
def test_underflow_floor_matches_reference(anchor):
    # tau = 1e-3 on (-5, 5): the exponent -t^2/2e-3 passes the floor near
    # |t| = 1.2, so most of the grid is pinned to zero on both sides
    kernel = KernelFn(domain=SupportInterval(-5.0, 5.0), form="constant",
                      params={"value": 1e-3}, grid_t=np.linspace(-4.9, 4.9, 16),
                      grid_tau=np.full(16, 1e-3), atom_zeros=(),
                      _fn_vec=lambda ts: np.full_like(ts, 1e-3))
    den = recover_density(kernel, 0.0, 512, anchor=anchor)
    grid, values = oracle.recover_density_reference(kernel, 0.0, 512, anchor=anchor)
    assert np.array_equal(den.grid, grid)
    assert np.count_nonzero(values == 0.0) > 300
    np.testing.assert_array_equal(den.values == 0.0, values == 0.0)
    np.testing.assert_allclose(den.values, values, rtol=1e-10, atol=0.0)


# psi = (m - t)/tau(t) has a closed-form antiderivative on these specs' end
# cells: 1/(t - lo) - 1/(hi - t) for a uniform on [lo, hi] (overlap_uniforms
# is one on [0, 3] near its ends), and 6(1 - 2s)/(s(3 - 4s)) on each half of
# the triangle, s = min(t, 1 - t)
def _uniform_exponent(lo, hi):
    return lambda t: math.log(t - lo) + math.log(hi - t)


def _triangle_exponent(t):
    s = min(t, 1.0 - t)
    return 2.0 * math.log(s) + math.log(3.0 - 4.0 * s)


EXACT_EXPONENTS = {
    "uniform01": _uniform_exponent(0.0, 1.0),
    "uniform_sym": _uniform_exponent(-1.0, 1.0),
    "overlap_uniforms": _uniform_exponent(0.0, 3.0),
    "tabulated_triangle": _triangle_exponent,
}


@pytest.mark.parametrize("grid_size", [16, 512, 2048])
@pytest.mark.parametrize("name", sorted(EXACT_EXPONENTS))
def test_end_cells_match_exact_exponent(name, grid_size):
    # log(p tau) is the exponent up to a constant, so across a cell its
    # difference is the cell's integral of psi; the end cells are where psi
    # is steepest and the adaptive rule works hardest
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 64)
    den = recover_density(kernel, moments(spec).mean, grid_size)
    exponent = EXACT_EXPONENTS[name]
    log_p_tau = [math.log(p * tau) for p, tau in zip(den.values, kernel.values(den.grid))]
    for i in (0, len(den.grid) - 2):
        got = log_p_tau[i + 1] - log_p_tau[i]
        want = exponent(float(den.grid[i + 1])) - exponent(float(den.grid[i]))
        assert abs(got - want) <= 5e-8, (i, got, want)


# The bound covers every grid, down to grid 16 where the end cells are widest.
@pytest.mark.parametrize("grid_size", [16, 512, 2048])
@pytest.mark.parametrize("name", RECOVERABLE)
def test_error_estimate_is_small(name, grid_size):
    spec = KERNEL_SPECS[name]
    den = recover_density(stein_kernel(spec, 64), moments(spec).mean, grid_size)
    assert math.isfinite(den.error_estimate)
    assert 0.0 <= den.error_estimate <= DEFAULT_CONFIG.abs_tol


@pytest.mark.parametrize("grid_size", [16, 512, 2048])
def test_recovery_evaluates_the_kernel_a_few_times(grid_size):
    # every cell, end cells included, shares each adaptive pass, so the
    # number of array evaluations does not grow with the grid
    calls = []

    def fn_vec(ts):
        calls.append(len(ts))
        return 0.5 * ts * (1.0 - ts)

    grid_t = np.linspace(0.01, 0.99, 16)
    kernel = KernelFn(domain=SupportInterval(0.0, 1.0), form="polynomial-over-interval",
                      params={"lo": 0.0, "hi": 1.0}, grid_t=grid_t,
                      grid_tau=0.5 * grid_t * (1.0 - grid_t), atom_zeros=(), _fn_vec=fn_vec)
    recover_density(kernel, 0.5, grid_size)
    assert len(calls) <= 8


@pytest.mark.parametrize("grid_size", [64, 4096])
def test_cantor_kernel_raises_before_quadrature(grid_size):
    spec = KERNEL_SPECS["uniform_cantor"]
    kernel = stein_kernel(spec, grid_size)
    start = time.perf_counter()
    with pytest.raises(NumericsError, match="Cantor"):
        recover_density(kernel, moments(spec).mean, grid_size)
    assert time.perf_counter() - start < 1.0


def test_anchor_independence():
    kernel = stein_kernel(U01, 64)
    base = recover_density(kernel, 0.5, 1024)
    for x0 in [0.1, 0.37, 0.9]:
        moved = recover_density(kernel, 0.5, 1024, anchor=x0)
        assert float(np.max(np.abs(moved.values - base.values))) < 1e-6
        assert moved.anchor == x0


def test_values_positive_where_kernel_positive():
    kernel = stein_kernel(U01, 64)
    den = recover_density(kernel, 0.5, 512)
    assert np.all(den.values > 0)


def test_interior_kernel_zero_raises():
    spec = KERNEL_SPECS["atom_inside_uniform"]
    kernel = stein_kernel(spec, 64)
    with pytest.raises(NumericsError):
        recover_density(kernel, moments(spec).mean, 256)


def test_boundary_atom_kernel_recovers_ac_shape():
    # atoms at the support edges leave the kernel positive inside; recovery
    # then returns the absolutely continuous part's shape, renormalized
    spec = KERNEL_SPECS["mixed_atoms_uniform"]
    kernel = stein_kernel(spec, 64)
    den = recover_density(kernel, 0.0, 2048)
    assert float(np.max(np.abs(den.values - 0.5))) < 1e-6


@pytest.mark.parametrize("name", ["atom_at_edge_exponential", "mixed_atoms_uniform"])
def test_end_cells_at_an_atom_start_ungraded(name):
    # an atom at a domain end keeps tau(end+) > 0 and psi bounded, so every
    # cell, the end cells included, closes on its first 15-node pass
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 512)
    points = []

    def fn_vec(ts):
        points.append(np.size(ts))
        return kernel._fn_vec(ts)

    counted = dataclasses.replace(kernel, _fn_vec=fn_vec)
    den = recover_density(counted, moments(spec).mean, 512)
    # tau on the grid, then 15 nodes on each cell: the grid's cells plus the
    # one the anchor splits off
    assert sum(points) == len(den.grid) + 15 * len(den.grid)


def test_anchor_outside_domain_raises():
    kernel = stein_kernel(U01, 64)
    with pytest.raises(SpecError):
        recover_density(kernel, 1.5, 256)
    with pytest.raises(SpecError):
        recover_density(kernel, 0.5, 256, anchor=-0.2)


@pytest.mark.parametrize("grid_size", [8, MAX_GRID + 1])
def test_grid_size_outside_its_range_raises(grid_size):
    with pytest.raises(SpecError, match="grid_size"):
        recover_density(stein_kernel(U01, 64), 0.5, grid_size)


def test_stein_operator_values():
    kn = stein_kernel(N01, 64)
    tf_x = TestFunction("x", lambda t: t, lambda t: 1.0, 1.0)
    assert stein_operator(kn, 0.0, tf_x, 2.0) == pytest.approx(-3.0, abs=1e-12)

    ku = stein_kernel(U01, 64)
    tf_one = TestFunction("one", lambda t: 1.0, lambda t: 0.0, 1.0)
    assert stein_operator(ku, 0.5, tf_one, 0.25) == pytest.approx(0.25, abs=1e-15)

    km = stein_kernel(KERNEL_SPECS["mixed_atoms_uniform"], 64)
    assert stein_operator(km, 0.0, tf_x, 0.0) == pytest.approx(1.5, abs=1e-12)


def test_stein_operator_array_matches_scalar_calls():
    km = stein_kernel(KERNEL_SPECS["mixed_atoms_uniform"], 64)
    tf = TestFunction("sin", np.sin, np.cos, 1.0)
    xs = np.array([-1.5, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0])
    got = stein_operator(km, 0.0, tf, xs)
    assert got.tolist() == [stein_operator(km, 0.0, tf, float(x)) for x in xs]


@pytest.mark.parametrize("name", ["uniform01", "mixed_atoms_uniform",
                                  "exponential1", "uniform_cantor"])
def test_operator_expectation_vanishes(name):
    # E[(Lg)(X)] = 0 is the Stein identity re-read through the operator
    from steinkit import standard_test_functions, stein_residual
    spec = KERNEL_SPECS[name]
    kernel = stein_kernel(spec, 256)
    for tf in standard_test_functions(*truncated_support(spec, 1e-9)):
        assert abs(stein_residual(spec, kernel, tf)) < 1e-6


def test_density_csv_refuses_non_finite_values():
    den = RecoveredDensity(grid=np.array([0.0, 1.0]), values=np.array([1.0, math.inf]),
                           normalizer=1.0, anchor=0.5, error_estimate=0.0)
    with pytest.raises(NumericsError):
        density_to_csv(den)


def test_support_narrower_than_a_float_step_raises():
    # a normal with sd 1e-20 at the atom's location: every grid point rounds
    # onto the atom, so the kernel has no sample to span its domain
    spec = DistributionSpec((Normal(1.0, 1e-20, 0.5), Atom(1.0, 0.5)))
    with pytest.raises(NumericsError):
        recover_density(stein_kernel(spec, 64), moments(spec).mean, 64)


def test_density_csv_format():
    kernel = stein_kernel(U01, 64)
    den = recover_density(kernel, 0.5, 32)
    lines = density_to_csv(den).strip().split("\n")
    assert lines[0] == "x,p"
    assert len(lines) == 33
    x, p = lines[1].split(",")
    assert 0.0 < float(x) < 1.0 and float(p) > 0.0
