"""Brute-force oracles used across the test suite.

Everything here recomputes library quantities by an independent route:
plain quadrature against component densities, exact moments by sympy
(imported on first use), atom sums, and equal-mass Cantor construction
cells.  Nothing imports the library's closed forms
beyond the raw component parameters.  The exceptions are
`kernel_measure_integral` and `engine_integrate`, helpers only tests use,
which run on the library's own expectation and quadrature engines.
"""

import math
from fractions import Fraction

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
    _adapt,
    _start_panels,
    cantor_points,
)
from steinkit.distributions import expect as engine_expect
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
            pts = c.lo + (c.hi - c.lo) * (cantor_points(CANTOR_DEPTH) + 0.5 / 3.0 ** CANTOR_DEPTH)
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


def kernel_measure_integral(spec, kernel, lo, hi, config=DEFAULT_CONFIG):
    """integral of tau over [lo, hi] against the full mixture measure: tau
    times the window's indicator, with the window's ends as breaks."""
    return float(engine_expect(spec, lambda x, tau: tau * ((lo <= x) & (x <= hi)),
                               extra_breaks=(lo, hi), kernel=kernel, config=config))


def engine_integrate(f, edges, config=DEFAULT_CONFIG):
    """(value, abserr) of the integral of f from edges[0] to edges[-1] by
    the library's globally adaptive Gauss-Kronrod engine, `_adapt` started
    on `_start_panels(edges)`: the sums over its final intervals, of shape
    (k,) when f maps points to a (k, n) stack."""
    value, error, _ = _adapt(f, config, *_start_panels(edges))
    total, abserr = value.sum(axis=-1), error.sum(axis=-1)
    if value.ndim == 1:
        return float(total), float(abserr)
    return total, abserr


def _piece_central_moments(c):
    """(weight, mean, 2nd, 3rd and 4th central moments) of one AC piece or
    atom, exact in sympy: its density integrated symbolically from its
    parameters, each float taken at its exact binary value."""
    import sympy as sp

    x = sp.Symbol("x", real=True)
    r = sp.Rational
    if isinstance(c, Atom):
        return r(c.mass), r(c.location), 0, 0, 0
    if isinstance(c, Uniform):
        parts = [(1 / (r(c.hi) - r(c.lo)), r(c.lo), r(c.hi))]
    elif isinstance(c, Normal):
        mu, sd = r(c.mean), r(c.sd)
        parts = [(sp.exp(-(x - mu) ** 2 / (2 * sd ** 2)) / (sd * sp.sqrt(2 * sp.pi)),
                  -sp.oo, sp.oo)]
    elif isinstance(c, Exponential):
        parts = [(r(c.rate) * sp.exp(-r(c.rate) * x), 0, sp.oo)]
    elif isinstance(c, Tabulated):
        g, v = [r(float(a)) for a in c.grid], [r(float(a)) for a in c.values]
        parts = [(v[i] + (v[i + 1] - v[i]) * (x - g[i]) / (g[i + 1] - g[i]), g[i], g[i + 1])
                 for i in range(len(g) - 1)]
    else:
        raise TypeError(c)

    def integral(f):
        return sum(sp.integrate(f * p, (x, a, b)) for p, a, b in parts)

    mass = integral(1)
    mean = integral(x) / mass
    return (r(c.weight), mean, *(integral((x - mean) ** k) / mass for k in (2, 3, 4)))


def standardized_cumulants(spec):
    """(kappa_3, kappa_4) of the standardized law of a spec of AC pieces and
    atoms: each piece's central moments combined exactly about the mixture
    mean; kappa_3 is 0.0 exactly for a law symmetric in its parameters."""
    pieces = [_piece_central_moments(c) for c in spec.components]
    total = sum(p[0] for p in pieces)
    m = sum(w * mean for w, mean, *_ in pieces) / total
    mu = [0, 0, 0]
    for w, mean, v, t, f in pieces:
        d = mean - m
        mu[0] += w * (v + d ** 2) / total
        mu[1] += w * (t + 3 * d * v + d ** 3) / total
        mu[2] += w * (f + 4 * d * t + 6 * d ** 2 * v + d ** 4) / total
    var, third, fourth = (float(u) for u in mu)
    return third / var ** 1.5, fourth / var ** 2 - 3.0


def half_mean_abs_hermite(k):
    """E|He_k(Z)| / 2 for k = 3 or 4: He_k phi = -(He_(k-1) phi)', so the
    integral between consecutive sign changes of the even |He_k| is a
    difference of He_(k-1) phi."""
    roots = {3: [0.0, math.sqrt(3.0)],
             4: [0.0, math.sqrt(3.0 - math.sqrt(6.0)), math.sqrt(3.0 + math.sqrt(6.0))]}[k]
    prev = {3: lambda z: z * z - 1.0, 4: lambda z: z ** 3 - 3.0 * z}[k]
    ends = [prev(z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) for z in roots] + [0.0]
    return sum(abs(a - b) for a, b in zip(ends[:-1], ends[1:]))


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
            pts = c.lo + (c.hi - c.lo) * (cantor_points(cantor_depth) + 0.5 / 3.0 ** cantor_depth)
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


def cantor_survival_upper_mean_exact(u, depth=70):
    """(P(Y >= u), E[Y 1{Y >= u}]) of the standard Cantor law as Fractions,
    from its self-similarity in exact arithmetic `depth` ternary levels deep,
    then closed with the middle-third values (an error below 2^-depth).

    Y lies in [0, 1/3] or [2/3, 1] with mass 1/2 each, as Y'/3 or 2/3 + Y'/3
    with Y' a copy of Y, and the right half has mean 5/6."""
    if u <= 0:
        return Fraction(1), Fraction(1, 2)
    if u >= 1:
        return Fraction(0), Fraction(0)
    u = Fraction(u)
    if depth == 0 or 1 < 3 * u < 2:
        return Fraction(1, 2), Fraction(5, 12)
    if 3 * u <= 1:
        s, m = cantor_survival_upper_mean_exact(3 * u, depth - 1)
        return Fraction(1, 2) + s / 2, Fraction(5, 12) + m / 6
    s, m = cantor_survival_upper_mean_exact(3 * u - 2, depth - 1)
    return s / 2, s / 3 + m / 6


def cantor_in_support_by_levels(t, lo, hi, depth=64):
    """Cantor-set membership by the ternary map, one level at a time in
    floating point: t is a member while its image stays in [0, 1/3] or
    [2/3, 1] for `depth` levels."""
    ts = np.asarray(t, dtype=float)
    member = (ts >= lo) & (ts <= hi)
    u = np.where(member, (ts - lo) / (hi - lo), 0.5)
    for _ in range(depth):
        left, right = u <= 1.0 / 3.0, u >= 2.0 / 3.0
        member &= left | right
        u = np.where(left, 3.0 * u, np.where(right, 3.0 * u - 2.0, u))
    return member


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


def piecewise_density_tv(pdf, breaks, mean, sd):
    """d_TV between the law with density pdf, zero outside [breaks[0],
    breaks[-1]] and smooth between consecutive breaks, and N(mean, sd^2):
    |pdf - normal| integrated between the breaks and bisected crossings,
    plus the normal mass outside the breaks."""
    def diff(t):
        return pdf(t) - math.exp(-0.5 * ((t - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    total = sum(_split_abs_integral(diff, a, b) for a, b in zip(breaks[:-1], breaks[1:]))
    total += float(ndtr((breaks[0] - mean) / sd) + ndtr(-(breaks[-1] - mean) / sd))
    return 0.5 * total


def tv_to_normal_oracle(spec, lo, hi, singular_mass=0.0):
    """Half L1 distance between the spec's AC density and the matched
    normal, split at bisected crossings, plus half the singular mass."""
    m, var = moments_oracle(spec)
    tv = piecewise_density_tv(lambda t: mixture_pdf(spec, t), [lo, hi], m, math.sqrt(var))
    return tv + 0.5 * singular_mass


def irwin_hall_tv(n):
    """d_TV of the standardized sum of n standard uniforms against the
    standard normal, from the Irwin-Hall density
    sum_{k <= y} (-1)^k C(n, k) (y - k)^(n-1) / (n-1)!, a polynomial between
    consecutive integers."""
    def pdf(y):
        return sum((-1) ** k * math.comb(n, k) * (y - k) ** (n - 1)
                   for k in range(math.floor(y) + 1)) / math.factorial(n - 1)

    return piecewise_density_tv(pdf, list(range(n + 1)), 0.5 * n, math.sqrt(n / 12.0))


# log n! = n log n - n + log(2 pi n) / 2 + r(n), with r(n) the sum over k of
# B_2k / (2k (2k - 1) n^(2k - 1)); these are the B_2k / (2k (2k - 1))
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0)


def _stirling_remainder(n):
    if n < 10:
        return math.lgamma(n + 1.0) - (n * math.log(n) - n + 0.5 * math.log(2 * math.pi * n))
    return sum(c / n ** (2 * k + 1) for k, c in enumerate(_STIRLING))


def _log1p_minus_identity(u):
    """log1p(u) - u, from its series -u^2/2 + u^3/3 - ... where |u| < 0.1."""
    if abs(u) >= 0.1:
        return math.log1p(u) - u
    return sum((-1.0) ** (k + 1) * u ** k / k for k in range(18, 1, -1))


def gamma_standardized_tv_oracle(n):
    """d_TV of the standardized sum of n unit exponentials against the
    standard normal, from the closed-form Gamma density in log space:
    with u = z / sqrt(n), log f(z) = n (log1p(u) - u) - log1p(u)
    - log(2 pi) / 2 - r(n), r the Stirling remainder, so no lgamma(n)
    rounding enters."""
    sc = math.sqrt(n)
    shift = 0.5 * math.log(2 * math.pi) + _stirling_remainder(n)

    def diff(z):
        u = z / sc
        log_f = n * _log1p_minus_identity(u) - math.log1p(u) - shift
        return math.exp(log_f) - math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

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
