"""Brute-force oracles used across the test suite.

Everything here recomputes library quantities by an independent route:
plain quadrature against component densities, atom sums, and equal-mass
Cantor construction cells.  Nothing imports the library's closed forms
beyond the raw component parameters.
"""

import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import ndtr

from steinkit.distributions import (
    DEFAULT_CONFIG,
    Atom,
    CantorPart,
    Exponential,
    Normal,
    Tabulated,
    Uniform,
    cantor_points,
)
from steinkit.recovery import EXPONENT_FLOOR, _segmented_grid

CANTOR_DEPTH = 14


def component_range(c, tail=1e-14):
    """Finite interval carrying essentially all of one AC component."""
    if isinstance(c, Uniform):
        return (c.lo, c.hi)
    if isinstance(c, Normal):
        return (c.mean - 9 * c.sd, c.mean + 9 * c.sd)
    if isinstance(c, Exponential):
        return (0.0, -math.log(tail) / c.rate)
    if isinstance(c, Tabulated):
        return (float(c.grid[0]), float(c.grid[-1]))
    raise TypeError(c)


def raw_pdf(c, t):
    """Density of one AC component from its parameters alone."""
    if isinstance(c, Uniform):
        return 1.0 / (c.hi - c.lo) if c.lo <= t <= c.hi else 0.0
    if isinstance(c, Normal):
        z = (t - c.mean) / c.sd
        return math.exp(-0.5 * z * z) / (c.sd * math.sqrt(2 * math.pi))
    if isinstance(c, Exponential):
        return c.rate * math.exp(-c.rate * t) if t >= 0 else 0.0
    if isinstance(c, Tabulated):
        return float(np.interp(t, c.grid, c.values, left=0.0, right=0.0))
    raise TypeError(c)


def mixture_pdf(spec, t):
    return sum(c.weight * raw_pdf(c, t) for c in spec.components
               if not isinstance(c, (Atom, CantorPart)))


def expect(spec, g):
    """E[g(X)] by quadrature over AC pieces, atom sums, and Cantor cells."""
    total = 0.0
    for c in spec.components:
        if isinstance(c, Atom):
            total += c.mass * g(c.location)
        elif isinstance(c, CantorPart):
            pts = c.lo + (c.hi - c.lo) * cantor_points(CANTOR_DEPTH)
            total += c.weight * float(np.mean([g(float(x)) for x in pts]))
        elif isinstance(c, Tabulated):
            val = 0.0
            for a, b in zip(c.grid[:-1], c.grid[1:]):
                v, _ = integrate.quad(lambda t: g(t) * raw_pdf(c, t),
                                      float(a), float(b), limit=200)
                val += v
            total += c.weight * val
        else:
            lo, hi = component_range(c)
            v, _ = integrate.quad(lambda t: g(t) * raw_pdf(c, t), lo, hi, limit=300)
            total += c.weight * v
    return total


def moments_oracle(spec):
    mean = expect(spec, lambda x: x)
    m2 = expect(spec, lambda x: x * x)
    return mean, m2 - mean * mean


def partial_expectation_oracle(spec, t, cantor_depth=20):
    """E[(X - m) 1{X >= t}]: quadrature from the cutpoint for AC pieces so
    the indicator never sits inside a quadrature panel, atom sums, and
    Cantor cells (the cell straddling t limits accuracy to ~2^-depth)."""
    m, _ = moments_oracle(spec)
    total = 0.0
    for c in spec.components:
        if isinstance(c, Atom):
            if c.location >= t:
                total += c.mass * (c.location - m)
        elif isinstance(c, CantorPart):
            pts = c.lo + (c.hi - c.lo) * cantor_points(cantor_depth)
            total += c.weight * float(np.mean((pts - m) * (pts >= t)))
        elif isinstance(c, Tabulated):
            val = 0.0
            for a, b in zip(c.grid[:-1], c.grid[1:]):
                a = max(float(a), t)
                if a >= b:
                    continue
                v, _ = integrate.quad(lambda s: (s - m) * raw_pdf(c, s),
                                      a, float(b), limit=200)
                val += v
            total += c.weight * val
        else:
            lo, hi = component_range(c)
            a = max(lo, t)
            if a < hi:
                v, _ = integrate.quad(lambda s: (s - m) * raw_pdf(c, s),
                                      a, hi, limit=300)
                total += c.weight * v
    return total


def forward_kernel_oracle(spec, t):
    """Pure-AC forward form: (1/p(t)) * integral from essinf to t of
    (m - s) p(s) ds.  The integral cancels down to order p(t), so the
    quadrature runs at tight absolute tolerance."""
    m, _ = moments_oracle(spec)
    lo = min(component_range(c)[0] for c in spec.components)
    val, _ = integrate.quad(lambda s: (m - s) * mixture_pdf(spec, s), lo, t,
                            epsabs=1e-14, epsrel=1e-12, limit=400)
    return val / mixture_pdf(spec, t)


def backward_kernel_oracle(spec, t):
    """Pure-AC backward form: -(1/p(t)) * integral from t to esssup of
    (m - s) p(s) ds."""
    m, _ = moments_oracle(spec)
    hi = max(component_range(c)[1] for c in spec.components)
    val, _ = integrate.quad(lambda s: (m - s) * mixture_pdf(spec, s), t, hi,
                            epsabs=1e-14, epsrel=1e-12, limit=400)
    return -val / mixture_pdf(spec, t)


def _split_abs_integral(diff, lo, hi, scan=4001):
    xs = np.linspace(lo, hi, scan)
    vals = [diff(x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            roots.append(optimize.brentq(diff, a, b, xtol=1e-13))
    pts = [lo, *roots, hi]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        v, _ = integrate.quad(diff, a, b, limit=300)
        total += abs(v)
    return total


def tv_to_normal_oracle(spec, lo, hi, singular_mass=0.0):
    """Half L1 distance between the spec's AC density and the matched
    normal, split at bisected crossings, plus half the singular mass."""
    m, var = moments_oracle(spec)
    sd = math.sqrt(var)

    def diff(t):
        return mixture_pdf(spec, t) - math.exp(-0.5 * ((t - m) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    total = _split_abs_integral(diff, lo, hi)
    total += float(ndtr((lo - m) / sd) + ndtr(-(hi - m) / sd))
    return 0.5 * (total + singular_mass)


def gamma_standardized_tv_oracle(n):
    """d_TV of the standardized sum of n unit exponentials against the
    standard normal, from the closed-form Gamma density."""
    sc = math.sqrt(n)
    g = stats.gamma(n)

    def diff(z):
        return g.pdf(n + sc * z) * sc - math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    total = _split_abs_integral(diff, -sc + 1e-12, 40.0)
    total += float(ndtr(-sc))
    return 0.5 * total


def _raw_pdf_array(c, t):
    """raw_pdf over an array of points."""
    if isinstance(c, Uniform):
        return np.where((t >= c.lo) & (t <= c.hi), 1.0 / (c.hi - c.lo), 0.0)
    if isinstance(c, Normal):
        z = (t - c.mean) / c.sd
        return np.exp(-0.5 * z * z) / (c.sd * math.sqrt(2 * math.pi))
    if isinstance(c, Exponential):
        return np.where(t >= 0, c.rate * np.exp(-c.rate * np.maximum(t, 0.0)), 0.0)
    if isinstance(c, Tabulated):
        return np.interp(t, c.grid, c.values, left=0.0, right=0.0)
    raise TypeError(c)


def fft_convolution_tv_reference(spec, n, grid_size, tail=1e-9):
    """(d_TV(S_n^*, Z), error estimate) for a purely AC spec by n-fold FFT
    self-convolution of the density sampled at the midpoints of a uniform
    grid over the support truncated at the `tail` quantiles, integrated
    against phi by trapezoid plus the normal mass beyond the grid.  The
    error estimate is the change against half the grid."""
    m, var = moments_oracle(spec)
    los, his = [], []
    for c in spec.components:
        if isinstance(c, Normal):
            z = float(stats.norm.ppf(tail))
            lo, hi = c.mean + c.sd * z, c.mean - c.sd * z
        elif isinstance(c, Exponential):
            lo, hi = 0.0, -math.log(tail) / c.rate
        else:
            lo, hi = component_range(c)
        los.append(lo)
        his.append(hi)
    lo, hi = min(los), max(his)
    scale = math.sqrt(var * n)

    def tv_at(grid):
        dx = (hi - lo) / grid
        xs = lo + (np.arange(grid) + 0.5) * dx
        w = sum(c.weight * _raw_pdf_array(c, xs) for c in spec.components) * dx
        w = w / np.sum(w)
        out_len = n * (grid - 1) + 1
        fft_len = 1 << (out_len - 1).bit_length()
        conv = np.fft.irfft(np.fft.rfft(w, fft_len) ** n, fft_len)[:out_len]
        np.maximum(conv, 0.0, out=conv)
        zs = (n * (lo + 0.5 * dx) + np.arange(out_len) * dx - n * m) / scale
        dz = dx / scale
        phi = np.exp(-0.5 * zs * zs) / math.sqrt(2 * math.pi)
        tv = 0.5 * float(np.trapezoid(np.abs(conv / dz - phi), zs))
        return tv + 0.5 * float(ndtr(zs[0] - 0.5 * dz) + ndtr(-(zs[-1] + 0.5 * dz)))

    tv = tv_at(grid_size)
    return tv, abs(tv - tv_at(grid_size // 2))


def recover_density_reference(kernel, m, grid_size, config=DEFAULT_CONFIG, anchor=None):
    """(grid, values) of the density recovered from a positive kernel by
    one scalar adaptive quadrature per grid cell, swept outward from the
    anchor; the same grid, floor rule and normalization as the library."""
    lo = kernel.domain.lo if math.isfinite(kernel.domain.lo) else float(kernel.grid_t[0])
    hi = kernel.domain.hi if math.isfinite(kernel.domain.hi) else float(kernel.grid_t[-1])
    x0 = m if anchor is None else anchor
    grid = _segmented_grid(lo, hi, kernel.density_breaks, grid_size)
    tau = np.array([kernel.evaluate(float(t)) for t in grid])
    pos = np.nonzero(tau > 0.0)[0]
    grid = grid[pos[0]:pos[-1] + 1]
    tau = tau[pos[0]:pos[-1] + 1]
    n = len(grid)

    def psi(t):
        return (m - t) / kernel.evaluate(t)

    def quad(a, b):
        val, _ = integrate.quad(psi, a, b, epsabs=config.abs_tol,
                                epsrel=config.rel_tol, limit=config.max_subdivisions)
        return val

    start = min(max(int(np.searchsorted(grid, x0)), 0), n - 1)
    expo = np.empty(n)
    expo[start] = quad(x0, grid[start])

    def sweep(indices):
        prev, dead = start, False
        for i in indices:
            if dead:
                expo[i] = -math.inf
                continue
            expo[i] = expo[prev] + quad(grid[prev], grid[i])
            if expo[i] < EXPONENT_FLOOR:
                expo[i] = -math.inf
                dead = True
            prev = i

    sweep(range(start + 1, n))
    sweep(range(start - 1, -1, -1))
    raw = np.exp(expo) / tau
    return grid, raw / float(np.trapezoid(raw, grid))
