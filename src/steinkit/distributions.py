"""Mixed univariate distributions and the expectation engine built on them.

A distribution is specified as a finite mixture whose components realize the
three parts of its Lebesgue decomposition: absolutely continuous pieces
(uniform, normal, exponential, or tabulated densities), point atoms, and an
optional Cantor-type singular-continuous part.  Every component contributes
closed-form moments, survival functions, and upper partial means, so that
mixture-level quantities (mean, variance, density, partial expectations)
are exact up to floating point wherever a closed form exists.

Every other expectation against the mixture goes through `expect`: the AC
pieces through `_adapt`, a vectorized globally adaptive Gauss-Kronrod 7-15
rule started on `_start_panels`, over segments split at the spec's density
breaks and atoms (computed once per spec) and at the edges of each Cantor
part's construction cells; atoms through their masses; the Cantor part,
whatever the kernel, through the midpoints of the same equal-mass cells.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DegenerateError, IntegrationWarning, NumericsError, SpecError

WEIGHT_SUM_TOL = 1e-12

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_ERFC = np.frompyfunc(math.erfc, 1, 1)
_FLOAT_MAX = np.finfo(float).max


def _ndtr(z):
    """Standard normal CDF 0.5 erfc(-z / sqrt 2), by libm's erfc per element."""
    x = -z / _SQRT2
    return 0.5 * (math.erfc(x) if np.ndim(x) == 0 else _ERFC(x).astype(float))


# Wichura's AS 241 (Applied Statistics 37, 1988), as CPython's statistics module
# writes it: the numerator and denominator coefficients of its three rational
# pieces (|p - 1/2| <= 0.425, then r = sqrt(-log min(p, 1 - p)) <= 5 and beyond),
# highest degree first
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)


def _ndtri(p: float) -> float:
    """Standard normal quantile, bitwise as `statistics.NormalDist().inv_cdf`
    (Wichura's AS 241); -inf at 0, inf at 1."""
    if p in (0.0, 1.0):
        return math.inf if p else -math.inf
    q = p - 0.5
    r = 0.180625 - q * q if abs(q) <= 0.425 else math.sqrt(-math.log(min(p, 1.0 - p)))
    piece = 0 if abs(q) <= 0.425 else 1 if r <= 5.0 else 2
    r -= (0.0, 1.6, 5.0)[piece]
    num, den = (functools.reduce(lambda acc, c: acc * r + c, cs) for cs in _AS241[piece])
    return num * q / den if piece == 0 else math.copysign(num / den, q)


def _check_weight(w, what):
    if not (0.0 < w <= 1.0):
        raise SpecError(f"{what} weight must lie in (0, 1], got {w}")


def _check_finite(what, **params):
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise SpecError(f"{what} piece needs a finite {name}, got {value}")


# ---------------------------------------------------------------------------
# Mixture components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    """Uniform density on [lo, hi], weighted."""

    lo: float
    hi: float
    weight: float

    def __post_init__(self):
        _check_finite("uniform", lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise SpecError(f"uniform piece needs lo < hi, got [{self.lo}, {self.hi}]")
        _check_weight(self.weight, "uniform")


@dataclass(frozen=True)
class Normal:
    """Gaussian density with the given mean and standard deviation, weighted."""

    mean: float
    sd: float
    weight: float

    def __post_init__(self):
        _check_finite("normal", mean=self.mean, sd=self.sd)
        if not self.sd > 0.0:
            raise SpecError(f"normal piece needs sd > 0, got {self.sd}")
        _check_weight(self.weight, "normal")


@dataclass(frozen=True)
class Exponential:
    """Exponential density rate*exp(-rate*t) on (0, inf), weighted."""

    rate: float
    weight: float

    def __post_init__(self):
        _check_finite("exponential", rate=self.rate)
        if not self.rate > 0.0:
            raise SpecError(f"exponential piece needs rate > 0, got {self.rate}")
        _check_weight(self.weight, "exponential")


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Piecewise-linear density over a strictly increasing grid, weighted.

    Input values are renormalized at construction so the interpolated
    density integrates to one, unless it already does to rounding (within
    4 n ulps of 1 for n knots), so that a piece written out and read back is
    bitwise the same; the stored arrays are immutable.
    """

    grid: np.ndarray
    values: np.ndarray
    weight: float

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.ndim != 1 or v.ndim != 1 or g.shape != v.shape or len(g) < 2:
            raise SpecError("tabulated piece needs matching 1-D grid/values with >= 2 points")
        _check_finite("tabulated", grid=g, values=v)
        # a span or total that overflows is refused below, without a warning
        with np.errstate(over="ignore"):
            if not np.all(np.diff(g) > 0):
                raise SpecError("tabulated grid must be strictly increasing")
            if np.any(v < 0):
                raise SpecError("tabulated density values must be nonnegative")
            total = np.trapezoid(v, g)
        if not 0 < total < math.inf:
            raise SpecError("tabulated density must have a positive, finite total mass")
        if abs(total - 1.0) > 4 * len(g) * math.ulp(1.0):
            v = v / total
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        _check_weight(self.weight, "tabulated")
        # Per-segment mass and first moment, second moment about the piece's
        # mean, plus suffix and prefix sums for O(log n) upper and lower
        # partial-mean queries.
        a, b = g[:-1], g[1:]
        va, vb = v[:-1], v[1:]
        h = b - a
        seg_mass, seg_m1 = _linear_piece_mass_m1(a, b, va, vb)
        suf_mass = np.concatenate([np.cumsum(seg_mass[::-1])[::-1], [0.0]])
        suf_m1 = np.concatenate([np.cumsum(seg_m1[::-1])[::-1], [0.0]])
        a, b = a - suf_m1[0], b - suf_m1[0]
        seg_m2 = h / 12.0 * (va * (3 * a * a + 2 * a * b + b * b)
                             + vb * (a * a + 2 * a * b + 3 * b * b))
        pre_mass = np.concatenate([[0.0], np.cumsum(seg_mass)])
        pre_m1 = np.concatenate([[0.0], np.cumsum(seg_m1)])
        for arr in (seg_mass, seg_m1, seg_m2, suf_mass, suf_m1, pre_mass, pre_m1):
            arr.flags.writeable = False
        object.__setattr__(self, "_seg_m2", seg_m2)
        object.__setattr__(self, "_suf_mass", suf_mass)
        object.__setattr__(self, "_suf_m1", suf_m1)
        object.__setattr__(self, "_pre_mass", pre_mass)
        object.__setattr__(self, "_pre_m1", pre_m1)


@dataclass(frozen=True)
class Atom:
    """Point mass at a single location."""

    location: float
    mass: float

    def __post_init__(self):
        _check_finite("atom", location=self.location)
        _check_weight(self.mass, "atom")


@dataclass(frozen=True)
class CantorPart:
    """Standard Cantor distribution rescaled to [lo, hi], weighted.

    Singular continuous: its CDF is a devil's staircase, it has no density,
    and it carries no atoms.  Mean and variance are closed form.
    """

    lo: float
    hi: float
    weight: float

    def __post_init__(self):
        _check_finite("cantor", lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise SpecError(f"cantor part needs lo < hi, got [{self.lo}, {self.hi}]")
        _check_weight(self.weight, "cantor")


AC_FAMILIES = (Uniform, Normal, Exponential, Tabulated)


# ---------------------------------------------------------------------------
# Standard Cantor measure helpers (on [0, 1])
# ---------------------------------------------------------------------------

CANTOR_TABLE_DEPTH = 12
_CELLS = 3.0 ** CANTOR_TABLE_DEPTH
# passes of the cell-table walks, T levels each: 72 ternary levels, at least
# the 64 at which a cell's mass 2^-64 lies below the rounding of values near 1
CANTOR_PASSES = 6
_CANTOR_BLOCK = 1 << 13  # points a Cantor walk takes at a time


@functools.cache
def _cantor_table():
    """3^T l_k for the left ends l_k of the standard Cantor set's 2^T cells (T =
    CANTOR_TABLE_DEPTH), in int64; the last cell k starting at or below each
    integer 0..3^T; and the law's mass and first moment above each cell."""
    ends = np.rint(cantor_points(CANTOR_TABLE_DEPTH) * _CELLS).astype(np.int64)
    cell = np.repeat(np.arange(len(ends), dtype=np.int16), np.diff(ends, append=int(_CELLS) + 1))
    above = np.append(np.cumsum((2 * ends + 1)[::-1])[::-1], 0)
    return ends, cell, np.arange(len(ends), -1, -1) / len(ends), above / (2.0 * _CELLS * len(ends))


def _cantor_cell(x):
    """(k, w, 0 < w < 1) for x = 3^T u: the last cell from x down and x's offset
    from its left end, after an x within rounding of an integer becomes it."""
    ends, cell = _cantor_table()[:2]
    x = np.where(np.abs(x - np.rint(x)) <= x * 2.0 ** -51, np.rint(x), x)
    k = cell[x.astype(np.intp)].astype(np.intp)
    w = x - ends[k]
    return k, w, (w > 0.0) & (w < 1.0)


def cantor_survival_upper_mean(u):
    """Survival P(Y >= u) and upper partial mean E[Y 1{Y >= u}] of the
    standard Cantor distribution, evaluated elementwise.

    A walk over `_cantor_table`, T levels a pass: a point in a gap reads
    both from the table; a point inside a cell goes on from its offset, by
    the self-similarity of the measure, for at most CANTOR_PASSES passes.  A
    NaN gives NaN for both.  The walk takes _CANTOR_BLOCK points at a time,
    which bounds its working arrays.
    """
    u = np.asarray(u, dtype=float)
    s, m = np.empty(u.size), np.empty(u.size)
    for k in range(0, u.size, _CANTOR_BLOCK):
        block = slice(k, k + _CANTOR_BLOCK)
        _cantor_walk(u.ravel()[block], s[block], m[block])
    if u.ndim == 0:
        return float(s[0]), float(m[0])
    return s.reshape(u.shape), m.reshape(u.shape)


def _cantor_walk(u, s, m) -> None:
    """`cantor_survival_upper_mean` of the 1-D array u, into s and m."""
    ends, _, s_tab, m_tab = _cantor_table()
    nan = np.isnan(u)
    x = np.fmin(np.fmax(u, 0.0), 1.0) * _CELLS  # a NaN walks as 0
    # M(u) = cmm*M(v) + cms*S(v) + cm1, S(u) = css*S(v) + cs1 at v = x / 3^T in
    # a cell k: S(v) = S_k+1 + S(w)/2^T, M(v) = M_k+1 + (l_k S(w) + M(w)/3^T)/2^T
    live = np.arange(len(x))
    cms = cm1 = cs1 = 0.0
    cmm = css = 1.0
    for _ in range(CANTOR_PASSES):
        k, w, inside = _cantor_cell(x)
        above = k + (w > 0.0)
        cm1 = cm1 + cmm * m_tab[above] + cms * s_tab[above]
        cs1 = cs1 + css * s_tab[above]
        s[live], m[live] = cs1, cm1
        cms = (cmm * ends[k] / _CELLS + cms) / len(ends)
        live, x, cms, cm1, cs1 = (a[inside] for a in (live, w * _CELLS, cms, cm1, cs1))
        cmm, css = cmm / (_CELLS * len(ends)), css / len(ends)
        if not len(live):
            break
    m[live] = cmm * (5.0 / 12.0) + cms * 0.5 + cm1
    s[live] = css * 0.5 + cs1
    s[nan] = m[nan] = math.nan


@functools.cache
def cantor_points(depth: int) -> np.ndarray:
    """Left endpoints of the 2^depth construction cells of the standard Cantor
    set, points of the set itself, each cell of mass 2^-depth; read-only."""
    n = 1 << depth
    idx = np.arange(n, dtype=np.int64)
    x = np.zeros(n)
    for i in range(depth):
        bit = (idx >> (depth - 1 - i)) & 1
        x += bit * (2.0 / 3.0 ** (i + 1))
    x.flags.writeable = False
    return x


def cantor_in_support(t, lo: float, hi: float):
    """Whether t stays in a cell of the rescaled Cantor set on [lo, hi] on every
    one of CANTOR_PASSES passes, elementwise; a scalar t gives a bool."""
    ts = np.asarray(t, dtype=float)
    member = ((ts >= lo) & (ts <= hi)).ravel()
    live = np.flatnonzero(member)
    x = (ts.ravel()[live] - lo) / (hi - lo) * _CELLS
    for _ in range(CANTOR_PASSES):
        _, w, inside = _cantor_cell(x)
        member[live[w > 1.0]] = False
        live, x = live[inside], w[inside] * _CELLS
        if not len(live):
            break
    return bool(member[0]) if ts.ndim == 0 else member.reshape(ts.shape)


# ---------------------------------------------------------------------------
# Per-component dispatch
# ---------------------------------------------------------------------------

def _piece_mean(c) -> float:
    match c:
        case Uniform():
            return 0.5 * (c.lo + c.hi)
        case Normal():
            return c.mean
        case Exponential():
            return 1.0 / c.rate
        case Tabulated():
            return float(c._suf_m1[0])
        case Atom():
            return c.location
        case CantorPart():
            return 0.5 * (c.lo + c.hi)
    raise TypeError(f"unknown component {c!r}")


def _piece_variance(c) -> float:
    match c:
        case Uniform():
            return (c.hi - c.lo) * (c.hi - c.lo) / 12.0
        case Normal():
            return c.sd * c.sd
        case Exponential():
            return 1.0 / (c.rate * c.rate)
        case Tabulated():
            return math.fsum(c._seg_m2)
        case Atom():
            return 0.0
        case CantorPart():
            return (c.hi - c.lo) * (c.hi - c.lo) / 8.0
    raise TypeError(f"unknown component {c!r}")


def _piece_pdf(c, t: np.ndarray) -> np.ndarray:
    """Density of one AC piece (unweighted), right-continuous at every break:
    a uniform's on [lo, hi), a tabulated piece's on [g_0, g_N)."""
    match c:
        case Uniform():
            return np.where((t >= c.lo) & (t < c.hi), 1.0 / (c.hi - c.lo), 0.0)
        case Normal():
            z = (t - c.mean) / c.sd
            return np.exp(-0.5 * z * z) / (c.sd * _SQRT2PI)
        case Exponential():
            return np.where(t >= 0.0, c.rate * np.exp(-c.rate * np.maximum(t, 0.0)), 0.0)
        case Tabulated():
            return np.where(t == c.grid[-1], 0.0,
                            np.interp(t, c.grid, c.values, left=0.0, right=0.0))
    raise TypeError(f"{c!r} has no density")


def _linear_piece_mass_m1(a, b, va, vb):
    """Mass and first moment of a linear density from (a, va) to (b, vb)."""
    w = b - a
    return 0.5 * (va + vb) * w, w / 6.0 * (va * (2 * a + b) + vb * (a + 2 * b))


def _piece_tail(c, t: np.ndarray, lower):
    """(P, C) for one component, elementwise: P = P(X >= t), or P(X < t)
    where `lower` (a bool, or a bool array like t), and
    C = E[(X - mean_c) 1{X >= t}] = -E[(X - mean_c) 1{X < t}].

    Each probability is computed directly rather than as one minus the
    other, so a CDF is exactly zero below the support and keeps full
    relative precision in a deep lower tail.  C has a cancellation-free
    closed form for every family, so deep-tail values scale with the local
    density instead of losing absolute precision to the subtraction of
    order-one terms; a tabulated piece sums its suffix sums on the upper
    side and its prefix sums on the lower side.
    """
    match c:
        case Uniform():
            tc = np.clip(t, c.lo, c.hi)
            p = np.where(lower, tc - c.lo, c.hi - tc) / (c.hi - c.lo)
            return p, (c.hi - tc) * (tc - c.lo) / (2.0 * (c.hi - c.lo))
        case Normal():
            z = (t - c.mean) / c.sd
            return _ndtr(np.where(lower, z, -z)), c.sd * np.exp(-0.5 * z * z) / _SQRT2PI
        case Exponential():
            tc = np.maximum(t, 0.0)
            s = np.exp(-c.rate * tc)
            # the largest float in place of tc = +inf keeps inf * 0 out of the
            # tail there; every finite tc is left as it is
            return np.where(lower, -np.expm1(-c.rate * tc), s), np.minimum(tc, _FLOAT_MAX) * s
        case Tabulated():
            g, v = c.grid, c.values
            tc = np.clip(np.asarray(t, dtype=float), g[0], g[-1])
            i = np.clip(np.searchsorted(g, tc, side="right") - 1, 0, len(g) - 2)
            ga, gb, va, vb = g[i], g[i + 1], v[i], v[i + 1]
            vt = va + (vb - va) * (tc - ga) / (gb - ga)
            # the linear piece below tc on the lower side, above it otherwise
            mass, m1 = _linear_piece_mass_m1(np.where(lower, ga, tc), np.where(lower, tc, gb),
                                             np.where(lower, va, vt), np.where(lower, vt, vb))
            p = np.where(lower, c._pre_mass[i] + mass, mass + c._suf_mass[i + 1])
            return p, np.where(lower, _piece_mean(c) * p - (c._pre_m1[i] + m1),
                               m1 + c._suf_m1[i + 1] - _piece_mean(c) * p)
        case Atom():
            return np.where(lower, t > c.location, t <= c.location).astype(float), np.zeros_like(t)
        case CantorPart():
            span = c.hi - c.lo
            s, m = map(np.asarray, cantor_survival_upper_mean((t - c.lo) / span))
            # in place, since on a kernel's starting nodes these arrays set the peak
            m -= 0.5 * s
            m *= span
            np.subtract(1.0, s, out=s, where=lower)
            return s, m
    raise TypeError(f"unknown component {c!r}")


def _series(z, coeffs):
    """sum_k coeffs[k] z^k by Horner's rule."""
    acc = np.zeros_like(z)
    for a in reversed(coeffs):
        acc = acc * z + a
    return acc


# Below |argument| = 1/2 the difference functions of the characteristic
# functions cancel; these power series reach full precision there.
# 1 - sin(x)/x = sum_{k>=1} (-1)^(k+1) x^(2k) / (2k+1)!, a series in x^2
_ONE_MINUS_SINC = [0.0] + [(-1.0) ** (k + 1) / math.factorial(2 * k + 1) for k in range(1, 9)]
# int_0^1 e^(zu) du - 1 and int_0^1 u e^(zu) du - 1/2, series in z
_E1_MINUS = [0.0] + [1.0 / math.factorial(k + 1) for k in range(1, 16)]
_E2_MINUS = [0.0] + [1.0 / (math.factorial(k) * (k + 2)) for k in range(1, 16)]
_TABULATED_BLOCK = 1 << 16


def _by_size(x, small, large):
    """small(x) where |x| < 1/2, large(x) elsewhere, elementwise."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, 1j))
    near = np.abs(x) < 0.5
    out[near] = small(x[near])
    out[~near] = large(x[~near])
    return out


def _one_minus_sinc(x):
    """1 - sin(x)/x elementwise, for real or complex x."""
    return _by_size(x, lambda v: _series(v * v, _ONE_MINUS_SINC),
                    lambda v: 1.0 - np.sin(v) / v)


def _expi_minus_one(y):
    """e^(iy) - 1 without cancellation at small |y|, for real or complex y."""
    return -2.0 * np.sin(0.5 * y) ** 2 + 1j * np.sin(y)


def _piece_cf_centered(c, t):
    """phi_c(t) e^(-i t mean_c) - 1 for one AC piece, elementwise.

    The centred characteristic function minus one, in forms that keep full
    relative precision as t -> 0, where it behaves like -var_c t^2 / 2.  The
    forms are analytic in t, so t = -iu gives E[e^(u (X - mean_c))] - 1, the
    centred moment generating function minus one (infinite where the MGF
    diverges).
    """
    match c:
        case Uniform():
            return -_one_minus_sinc(0.5 * (c.hi - c.lo) * t)
        case Normal():
            return np.expm1(-0.5 * (c.sd * t) ** 2 + 0j)
        case Exponential():
            # e^(-iu) / (1 - iu) - 1 with u = t / rate; the transform
            # diverges where Im t <= -rate, i.e. where Re(1 - iu) <= 0
            u = t / c.rate
            den = 1.0 - 1j * u
            val = (-2.0 * np.sin(0.5 * u) ** 2 + 1j * u * _one_minus_sinc(u)) / den
            return np.where(den.real > 0.0, val, np.inf)
        case Tabulated():
            return _tabulated_cf_centered(c, t)
    raise TypeError(f"{c!r} has no density")


def _tabulated_cf_centered(c: Tabulated, t):
    """Sum over linear segments [a, a + h] (centred at the piece's mean) of
    h int_0^1 (v_a + (v_b - v_a) u) (e^(it(a + hu)) - 1) du, with
    int_0^1 e^(i theta u) du and int_0^1 u e^(i theta u) du from their power series
    when |theta| = |t h| < 1/2.  Points are taken in blocks so that a block
    times the segment count stays within _TABULATED_BLOCK values."""
    t = np.asarray(t)
    a = c.grid[:-1] - _piece_mean(c)
    h = np.diff(c.grid)
    va, dv = c.values[:-1], np.diff(c.values)
    flat = t.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    rows = max(1, _TABULATED_BLOCK // len(h))
    for start in range(0, flat.size, rows):
        tb = flat[start:start + rows, None]
        z = 1j * (tb * h)
        e1m = _by_size(z, lambda v: _series(v, _E1_MINUS),
                       lambda v: np.expm1(v) / v - 1.0)
        e2m = _by_size(z, lambda v: _series(v, _E2_MINUS),
                       lambda v: (v * np.exp(v) - np.expm1(v)) / (v * v) - 0.5)
        rot = _expi_minus_one(tb * a)
        seg = h * (va * (rot * (1.0 + e1m) + e1m) + dv * (rot * (0.5 + e2m) + e2m))
        out[start:start + rows] = seg.sum(axis=1)
    return out.reshape(t.shape)


def _piece_cf_envelope(c, t):
    """Upper bound on |phi_c(t)| for t > 0 that decays at the family's rate:
    2/(t (hi - lo)) for a uniform, the Gaussian itself, rate/sqrt(rate^2 +
    t^2) for an exponential, and the density's total variation over t for a
    tabulated piece (integration by parts, counting the jumps at its ends)."""
    match c:
        case Uniform():
            return np.minimum(1.0, 2.0 / ((c.hi - c.lo) * t))
        case Normal():
            return np.exp(-0.5 * (c.sd * t) ** 2)
        case Exponential():
            return c.rate / np.hypot(c.rate, t)
        case Tabulated():
            v = c.values
            variation = v[0] + v[-1] + float(np.sum(np.abs(np.diff(v))))
            return np.minimum(1.0, variation / t)
    raise TypeError(f"{c!r} has no density")


def _piece_support(c):
    """Essential support [lo, hi] of one component: an AC piece's is the hull
    of its positivity intervals."""
    match c:
        case Atom():
            return (c.location, c.location)
        case CantorPart():
            return (c.lo, c.hi)
    pos = _positivity_intervals(c)
    return (pos[0][0], pos[-1][1])


def _piece_quantile_range(c, q: float):
    """Interval containing all but at most q of the component's mass per tail."""
    match c:
        case Normal():
            z = _ndtri(q)
            return (c.mean + c.sd * z, c.mean - c.sd * z)
        case Exponential():
            return (0.0, -math.log(q) / c.rate)
        case _:
            return _piece_support(c)


def _positivity_intervals(c):
    """Maximal open intervals on which one AC piece's density is positive
    up to a Lebesgue-null set."""
    match c:
        case Uniform():
            return [(c.lo, c.hi)]
        case Normal():
            return [(-math.inf, math.inf)]
        case Exponential():
            return [(0.0, math.inf)]
        case Tabulated():
            g, v = c.grid, c.values
            out = []
            start = None
            for i in range(len(g) - 1):
                dead = v[i] == 0.0 and v[i + 1] == 0.0
                if dead:
                    if start is not None:
                        out.append((start, float(g[i])))
                        start = None
                elif start is None:
                    start = float(g[i])
            if start is not None:
                out.append((start, float(g[-1])))
            return out
    raise TypeError(f"{c!r} has no density")


# ---------------------------------------------------------------------------
# Distribution spec + derived quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionSpec:
    """A finite mixture encoding one Lebesgue decomposition.

    Invariants enforced at construction: weights and atom masses sum to one
    within 1e-12, atom locations are pairwise distinct, and every AC piece
    carries a valid (normalized) density.  `density_breaks` holds, sorted,
    every point where the AC density may jump or kink: the finite ends of
    each piece and every tabulated knot.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise SpecError("spec needs at least one component")
        for c in comps:
            if not isinstance(c, (Atom, CantorPart) + AC_FAMILIES):
                raise SpecError(f"unknown component type {type(c).__name__}")
        total = sum(_component_weight(c) for c in comps)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise SpecError(f"weights and masses must sum to 1, got {total!r}")
        locs = [c.location for c in comps if isinstance(c, Atom)]
        if len(set(locs)) != len(locs):
            raise SpecError("atom locations must be pairwise distinct")
        object.__setattr__(self, "components", comps)
        # the spec is frozen, so its closed-form moments, its density breaks
        # (finite piece ends and tabulated knots) and, with the atoms added,
        # its kernel breaks are computed once
        object.__setattr__(self, "_moments", _closed_form_moments(self))
        breaks = set()
        for c in self.ac_pieces:
            ends = c.grid if isinstance(c, Tabulated) else _piece_support(c)
            breaks.update(float(b) for b in ends if math.isfinite(b))
        object.__setattr__(self, "density_breaks", tuple(sorted(breaks)))
        object.__setattr__(self, "_kernel_breaks", tuple(sorted(breaks | set(locs))))

    @property
    def ac_pieces(self) -> tuple:
        return tuple(c for c in self.components if isinstance(c, AC_FAMILIES))

    @property
    def atoms(self) -> tuple:
        return tuple(c for c in self.components if isinstance(c, Atom))

    @property
    def cantor_parts(self) -> tuple:
        return tuple(c for c in self.components if isinstance(c, CantorPart))

    @property
    def ac_weight(self) -> float:
        return sum(c.weight for c in self.ac_pieces)

    @property
    def atom_mass(self) -> float:
        return sum(c.mass for c in self.atoms)

    @property
    def singular_mass(self) -> float:
        return self.atom_mass + sum(c.weight for c in self.cantor_parts)

    def is_single_atom(self) -> bool:
        return len(self.components) == 1 and isinstance(self.components[0], Atom)


def _component_weight(c) -> float:
    return c.mass if isinstance(c, Atom) else c.weight


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


@dataclass(frozen=True)
class SupportInterval:
    """Essential support [lo, hi]; the open interval (lo, hi) is where the
    existence theory lives.  Degenerate (lo == hi) only for a point mass."""

    lo: float
    hi: float

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi


def _count(name: str, value, lo: int, hi: int = None) -> int:
    """value as an int by operator.index in [lo, hi]; SpecError naming it otherwise."""
    try:
        value = operator.index(value)
    except TypeError:
        raise SpecError(f"{name} must be an integer, got {value!r}") from None
    if value < lo or hi is not None and value > hi:
        bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise SpecError(f"{name} must {bound}, got {value}")
    return value


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive quadrature engine and tail truncation.

    Both tolerances must be positive and finite.  max_subdivisions caps the
    intervals one `_adapt` call adds to its starting intervals, in total."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200
    tail_quantile: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise SpecError("quadrature tolerances must be positive and finite")
        _count("max_subdivisions", self.max_subdivisions, 1)
        if not (0.0 < self.tail_quantile <= 1e-6):
            raise SpecError("tail_quantile must lie in (0, 1e-6]")

    @property
    def cantor_depth(self) -> int:
        """Depth D of `expect`'s Cantor cells, from abs_tol alone: d // 2 + 2,
        d >= 2 the ternary depth with 3^-d < abs_tol, at most MAX_CELL_DEPTH."""
        d = math.ceil(math.log(1.0 / self.abs_tol) / math.log(3.0))
        return min(max(d, 2) // 2 + 2, MAX_CELL_DEPTH)


DEFAULT_CONFIG = QuadratureConfig()


def moments(spec: DistributionSpec) -> Moments:
    """Mean and variance of the mixture, from closed forms per component."""
    return spec._moments


def _positive_variance(spec: DistributionSpec, what: str) -> float:
    """sigma^2 > 0 for `what`: DegenerateError at a point mass, else NumericsError."""
    var = moments(spec).variance
    if not var > 0.0:
        if spec.is_single_atom():
            raise DegenerateError(f"{what} is undefined for a point mass")
        raise NumericsError(f"sigma^2 = {var!r} underflows to 0 on a law that is not a point mass")
    return var


def _closed_form_moments(spec: DistributionSpec) -> Moments:
    """Mean by `math.fsum`, and the variance as the centred sum
    fsum_c w_c [Var_c + (mean_c - m)^2] (Chan, Golub and LeVeque, Amer.
    Statist. 1983): E[X^2] - m^2 cancels to nothing where |m| >> sigma."""
    try:
        mean = math.fsum(_component_weight(c) * _piece_mean(c) for c in spec.components)
        var = math.fsum(_component_weight(c) * (_piece_variance(c) + (_piece_mean(c) - mean) ** 2)
                        for c in spec.components)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise SpecError(f"closed-form moments are not finite: {exc}") from exc
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise SpecError(f"closed-form moments are not finite: mean {mean}, variance {var}")
    return Moments(mean=mean, variance=var)


def support(spec: DistributionSpec) -> SupportInterval:
    """Essential infimum and supremum of the mixture."""
    los, his = zip(*(_piece_support(c) for c in spec.components))
    return SupportInterval(lo=min(los), hi=max(his))


def truncated_support(spec: DistributionSpec, tail_quantile: float) -> tuple[float, float]:
    """Finite working interval leaving at most tail_quantile mass per side."""
    los, his = zip(*(_piece_quantile_range(c, tail_quantile) for c in spec.components))
    return (min(los), max(his))


def ac_density(spec: DistributionSpec, t):
    """Weighted Lebesgue density of the absolutely continuous part at t.

    Atoms and Cantor parts contribute nothing.  Accepts scalars or arrays.
    """
    arr = np.asarray(t, dtype=float)
    out = np.zeros_like(arr)
    for c in spec.ac_pieces:
        out = out + c.weight * _piece_pdf(c, arr)
    if np.ndim(t) == 0:
        return float(out)
    return out


def partial_expectation(spec: DistributionSpec, t):
    """E[(X - m) 1{X >= t}] for the mixture, m the mixture mean.

    For t >= m, per component this is (mean_c - m) * P(X >= t) plus the
    component's centered upper partial mean: closed forms for uniform,
    normal and exponential pieces, exact piecewise-polynomial integrals for
    tabulated pieces, atom indicator sums, and the Cantor cell-table
    walk.  For t < m the equal lower form
    -sum_c w_c [(mean_c - m) * P(X < t) + E[(X - mean_c) 1{X < t}]] is used
    instead: in a deep lower tail the upper form sums order-one terms that
    cancel down to the tiny true value, while every lower term is itself
    tiny there.  `_piece_tail` gives each point its form, in one pass over
    the components.  Accepts scalars or arrays.
    """
    m = moments(spec).mean
    arr = np.asarray(t, dtype=float)
    lower = ~(arr >= m)
    out = np.zeros_like(arr)
    for c in spec.components:
        p, centered = _piece_tail(c, arr, lower)
        shift = np.where(lower, m - _piece_mean(c), _piece_mean(c) - m)
        out = out + _component_weight(c) * (shift * p + centered)
        del p, centered, shift  # so that no component's arrays outlive its term
    return float(out) if np.ndim(t) == 0 else out


def affine_transform(spec: DistributionSpec, scale: float, shift: float) -> DistributionSpec:
    """Spec of Y = scale*X + shift.  scale must be nonzero.

    Exponential pieces are only representable for scale > 0 and shift == 0
    (the family has no location parameter); other combinations raise.
    Cantor parts map cleanly under reflection because the Cantor measure is
    symmetric about its midpoint.
    """
    if scale == 0.0:
        raise SpecError("affine scale must be nonzero")
    out = []
    for c in spec.components:
        match c:
            case Uniform():
                a, b = sorted((scale * c.lo + shift, scale * c.hi + shift))
                out.append(Uniform(a, b, c.weight))
            case Normal():
                out.append(Normal(scale * c.mean + shift, abs(scale) * c.sd, c.weight))
            case Exponential():
                if scale < 0 or shift != 0.0:
                    raise SpecError("exponential pieces only support scale > 0, shift == 0")
                out.append(Exponential(c.rate / scale, c.weight))
            case Tabulated():
                g = scale * c.grid + shift
                v = c.values / abs(scale)
                if scale < 0:
                    g, v = g[::-1], v[::-1]
                out.append(Tabulated(g.copy(), v.copy(), c.weight))
            case Atom():
                out.append(Atom(scale * c.location + shift, c.mass))
            case CantorPart():
                a, b = sorted((scale * c.lo + shift, scale * c.hi + shift))
                out.append(CantorPart(a, b, c.weight))
    return DistributionSpec(tuple(out))


# ---------------------------------------------------------------------------
# Expectation engine
# ---------------------------------------------------------------------------

MAX_CELL_DEPTH = 14
# `_start_panels` cuts each of its m intervals into 2^j equal panels, j the
# largest with m 2^j <= PANELS, so that few-edge integrals close in a pass or two
PANELS = 64

# Gauss-Kronrod 7-15, QUADPACK's qk15 (Piessens et al. 1983): the Kronrod
# abscissae on [0, 1] from the outside in, their weights, and the weights of
# the embedded 7-point Gauss rule, whose nodes are every second abscissa
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_GK_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_W = np.array(_WGK[:-1] + _WGK[::-1])
_G7_W = np.array(_WG[:-1] + _WG[::-1])


def _gk15(f, a, b, side=None, anchor=None):
    """K15 integrals of f over the intervals [a_i, b_i] and their error
    estimates |K15 - G7|, from one call of f on all nodes.

    f maps a 1-D array of points to values or to a (k, n) stack.  Where
    side_i is positive (negative) and finite, [a_i, b_i] lies in (0, 1] and
    stands for [anchor_i, inf) ((-inf, anchor_i]) under QUADPACK's qagi
    substitution scaled by |side_i|, x = anchor_i + side_i (1 - t)/t.  Where
    side_i is +inf (-inf), [a_i, b_i] is a span of s = log|x - anchor_i|,
    x = anchor_i + e^s (anchor_i - e^s), whose Jacobian |x - anchor_i| is
    taken from the rounded node: an f ~ 1/(x - anchor_i) times it tends to
    a constant at anchor_i, the nodes' rounding cancelling out of it.
    """
    x, jac, half = _gk15_nodes(a, b, side, anchor)
    return _gk15_reduce(f(x.ravel()), jac, half)


def _gk15_nodes(a, b, side=None, anchor=None):
    """(x, jac, half) of `_gk15`: its (n, 15) nodes in x, their Jacobians
    (1.0 on finite intervals only; on a log span |x - anchor| of the node
    as rounded) and the intervals' half-widths."""
    half = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + half[:, None] * _GK_X
    x, jac = t, 1.0
    if side is not None and side.any():
        x, jac = t.copy(), np.ones_like(t)
        log = np.isinf(side)
        tail = (side != 0.0) & ~log
        u = t[tail]
        x[tail] = anchor[tail, None] + side[tail, None] * (1.0 - u) / u
        jac[tail] = np.abs(side[tail, None]) / (u * u)
        x[log] = anchor[log, None] + np.copysign(np.exp(t[log]), side[log, None])
        jac[log] = np.abs(x[log] - anchor[log, None])
    return x, jac, half


def _gk15_reduce(fx, jac, half):
    """`_gk15`'s (K15, |K15 - G7|) from f's values fx at the raveled nodes."""
    fx = np.asarray(fx, dtype=float)
    fx = fx.reshape(fx.shape[:-1] + (len(half), len(_GK_X))) * jac
    kronrod = half * (fx @ _GK_W)
    return kronrod, np.abs(kronrod - half * (fx @ _G7_W))


def _qagi_cells(edges):
    """(a, b, side, anchor) of the starting intervals between sorted edges,
    in `_gk15`'s form: an infinite end becomes (0, 1] under QUADPACK's qagi
    substitution about the finite edge next to it (0 for the whole line),
    scaled by the mean width of the finite intervals (1 if there are none),
    so that the tail nodes sit where the law does at every scale."""
    e = np.asarray(edges, dtype=float)
    i, j = (1 if e[0] == -math.inf else 0), (len(e) - 1 if e[-1] == math.inf else len(e))
    scale = (e[j - 1] - e[i]) / (j - 1 - i) if j - 1 > i else 1.0
    cells = np.zeros((4, max(j - 1, i) + len(e) - j))
    cells[0, i:j - 1], cells[1, i:j - 1] = e[i:j - 1], e[i + 1:j]
    if i:
        cells[:, 0] = 0.0, 1.0, -scale, e[1] if e[1] < math.inf else 0.0
    if j < len(e):
        cells[:, -1] = 0.0, 1.0, scale, e[-2] if e[-2] > -math.inf else 0.0
    return cells


def _adapt(f, config: QuadratureConfig, a, b, side=None, anchor=None, first=None):
    """Globally adaptive Gauss-Kronrod 7-15 over the starting intervals
    [a_i, b_i] (with `_gk15`'s side and anchor), under one error budget;
    `first`, if given, is `_gk15`'s result on them.  Every interval is
    bisected in its own variable: x, a qagi tail's t, or a log span's s.

    Returns (value, error, origin): the K15 integral and |K15 - G7| of
    every final interval, shaped like f's output per node, and the index
    of the starting interval each final interval lies in.  All intervals
    needed to bring the summed error within max(abs_tol, rel_tol |total|)
    are bisected together, pass after pass; once bisection has added
    max_subdivisions intervals in all (QUADPACK's limit, less the starting
    intervals), the values so far are returned with an IntegrationWarning.
    """
    if side is None:
        side = anchor = np.zeros_like(a)
    origin = np.arange(len(a))
    value, error = _gk15(f, a, b, side, anchor) if first is None else first
    single = value.ndim == 1
    value, error = np.atleast_2d(value), np.atleast_2d(error)
    cap = config.max_subdivisions + len(a)
    while True:
        total, abserr = value.sum(axis=1), error.sum(axis=1)
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        failing = ~(abserr <= tol)
        if not failing.any():
            break
        # per failing row, the largest errors down to half its tolerance
        rows = error[failing]
        order = np.argsort(-rows, axis=1)
        ranked = np.take_along_axis(rows, order, axis=1)
        left = abserr[failing, None] - np.cumsum(ranked, axis=1) + ranked
        split = np.zeros(len(a), dtype=bool)
        split[order[~(left <= 0.5 * tol[failing, None])]] = True
        mid = 0.5 * (a + b)
        split &= (a < mid) & (mid < b)
        todo = np.flatnonzero(split)
        room = max(cap - len(a), 0)
        if len(todo) > room:
            worst = (error[:, todo] / tol[:, None]).max(axis=0)
            todo = todo[np.argsort(-worst)[:room]]
        if not len(todo):
            warnings.warn(f"integration tolerance not met: error estimate {abserr.max():.3g} "
                          f"with {len(a)} intervals", IntegrationWarning, stacklevel=3)
            break
        keep = np.ones(len(a), dtype=bool)
        keep[todo] = False
        na = np.concatenate([a[todo], mid[todo]])
        nb = np.concatenate([mid[todo], b[todo]])
        nside, nanchor = np.tile(side[todo], 2), np.tile(anchor[todo], 2)
        nv, ne = _gk15(f, na, nb, nside, nanchor)
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        side, anchor = np.concatenate([side[keep], nside]), np.concatenate([anchor[keep], nanchor])
        origin = np.concatenate([origin[keep], np.tile(origin[todo], 2)])
        value = np.concatenate([value[:, keep], np.atleast_2d(nv)], axis=1)
        error = np.concatenate([error[:, keep], np.atleast_2d(ne)], axis=1)
    if single:
        return value[0], error[0], origin
    return value, error, origin


def _start_panels(edges) -> tuple:
    """(a, b, side, anchor) of `_adapt`'s starting panels between sorted
    edges: each of the m intervals between them (an infinite end under
    QUADPACK's qagi substitution, `_qagi_cells`) cut into 2^j equal panels,
    j the largest with m 2^j <= PANELS (or 0)."""
    a, b, side, anchor = _qagi_cells(edges)
    k = 1 << max((PANELS // max(len(a), 1)).bit_length() - 1, 0)
    ends = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, k + 1)
    ends[:, -1] = b
    return ends[:, :-1].ravel(), ends[:, 1:].ravel(), *np.repeat([side / k, anchor], k, axis=1)


def _sorted_distinct(x) -> np.ndarray:
    """Sorted distinct values of x; np.unique would import numpy.ma."""
    x = np.sort(x)
    return x[np.append(True, np.diff(x) > 0)]


def expect(spec: DistributionSpec, g, extra_breaks: Sequence[float] = (), kernel=None,
           config: QuadratureConfig = DEFAULT_CONFIG):
    """E[g(X)] against the full mixture measure.

    g(x, tau) maps a 1-D array of points to values or to a (k, n) stack,
    whose rows are then integrated together (the result has shape (k,)).
    tau holds the kernel's values at x, or is None when no kernel is given:
    the Lebesgue-a.e. version at AC nodes, the pointwise version at atoms
    and Cantor samples (zero at atoms and for a registered Cantor part).

    The AC part is one `_adapt` call of g times the mixture's AC density,
    over the union of the pieces' supports, so its tolerance holds for the
    whole AC integral.  Its segments are split at the spec's density
    breaks, atoms, and the edges of each Cantor part's 2^D construction
    cells (its exact ends included), so every segment is smooth;
    `_start_panels` cuts a few segments into starting panels.  The ends of
    the tail_quantile window and its midpoint split them too, so the nodes
    find a law however narrow it is or far from 0, and an infinite tail is
    scaled to the window's segments.  Each starting panel that holds one of
    extra_breaks is then cut there (`_cut_pass`).
    On the gaps between those cells the Cantor CDF and partial mean are
    constant, so a kernel there is as smooth as the AC density; D is
    `config.cantor_depth`.  Atoms add their mass times g.  A Cantor part
    adds the mean of g over its cells: at the midpoints of the same 2^D
    cells, second order by the symmetry of every cell.  An integral over a
    window [lo, hi] is that of g times its indicator, with lo and hi among
    extra_breaks.

    The starting pass (the starting panels' GK15 nodes, the atoms and the
    Cantor midpoints) depends on the spec and config alone, so a kernel
    keeps it with p and tau at its points (`_first_pass`): g is evaluated
    there, and p and tau only on cut panels' nodes and in refinement.
    """
    (ac, atoms, parts), (p, tau, atom_tau, part_taus) = _first_pass(spec, kernel, config)

    def f(x):
        tau = None if kernel is None else kernel.values_ae(x)
        return np.asarray(g(x, tau), dtype=float) * ac_density(spec, x)

    total = 0.0
    if ac is not None:
        fx = np.asarray(g(ac[1], tau), dtype=float) * p
        value, _, _ = _cut_pass(f, ac, fx, extra_breaks, config)
        total = value.sum(axis=-1)
        total = float(total) if value.ndim == 1 else total
    if atoms is not None:
        xs, masses = atoms
        total = total + np.asarray(g(xs, atom_tau), dtype=float) @ masses
    for (pts, weight), part_tau in zip(parts, part_taus):
        total = total + weight * np.asarray(g(pts, part_tau), dtype=float).sum(axis=-1) / len(pts)
    return total


def _first_pass(spec: DistributionSpec, kernel, config: QuadratureConfig) -> tuple:
    """`_start_plan(spec, kernel, config)`, kept by the kernel for the last
    spec (by identity) and config it met."""
    memo = {} if kernel is None else kernel._start_pass
    hit = memo.get(config)
    if hit is None or hit[0] is not spec:
        memo.clear()
        hit = memo[config] = spec, *_start_plan(spec, kernel, config)
    return hit[1:]


def _cut_pass(f, ac, fx, breaks, config: QuadratureConfig):
    """`_adapt`'s (value, error, origin) of f over the starting pass ac, f
    fx at its nodes, each panel that holds a break cut there (a `qagi` tail
    panel in its variable u = s / (x - anchor + s), s its side): only the
    new panels' nodes are evaluated, in one call."""
    (a, b, side, anchor), _, jac, half = ac
    first = _gk15_reduce(fx, jac, half)
    x = np.asarray(breaks, dtype=float)
    if x.size:
        s = side[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(s == 0.0, x, s / (x - anchor[:, None] + s))
        inside = (a[:, None] < t) & (t < b[:, None])
        cut = inside.any(axis=1)
        if cut.any():
            ends = [_sorted_distinct(np.append(t[k, inside[k]], (a[k], b[k])))
                    for k in np.flatnonzero(cut)]
            n = [len(e) - 1 for e in ends]
            new = (np.concatenate([e[:-1] for e in ends]), np.concatenate([e[1:] for e in ends]),
                   np.repeat(side[cut], n), np.repeat(anchor[cut], n))
            a, b, side, anchor = (np.append(v[~cut], w) for v, w in zip((a, b, side, anchor), new))
            first = tuple(np.append(v[..., ~cut], w, axis=-1)
                          for v, w in zip(first, _gk15(f, *new)))
    return _adapt(f, config, a, b, side, anchor, first=first)


def _start_plan(spec: DistributionSpec, kernel, config: QuadratureConfig) -> tuple:
    """(nodes, values) of `expect`'s starting pass, every array read-only:
    nodes (ac, atoms, parts) holds the starting panels, their GK15 nodes x,
    Jacobians and half-widths, the atoms and masses, and each Cantor part's
    midpoints and weight; values p and tau at x, and tau at the others."""
    depth = config.cantor_depth
    left = cantor_points(depth) if spec.cantor_parts else None
    lo, hi = truncated_support(spec, config.tail_quantile)
    breaks = np.concatenate((spec._kernel_breaks, (lo, 0.5 * lo + 0.5 * hi, hi)))
    if spec.cantor_parts:
        ends = np.concatenate((left[1:], left[:-1] + 3.0 ** -depth))
        breaks = np.concatenate([breaks] + [np.concatenate((
            (c.lo, c.hi), c.lo + (c.hi - c.lo) * ends)) for c in spec.cantor_parts])
    ac = atoms = p = tau = atom_tau = None
    if spec.ac_pieces:
        los, his = zip(*(_piece_support(c) for c in spec.ac_pieces))
        a, b = min(los), max(his)
        seams = _sorted_distinct(np.concatenate(([a, b], breaks[(a < breaks) & (breaks < b)])))
        panels = _start_panels(seams)
        x, jac, half = _gk15_nodes(*panels)
        x = x.ravel()
        p = ac_density(spec, x)
        tau = None if kernel is None else kernel.values_ae(x)
        ac = panels, x, jac, half
    if spec.atoms:
        xs = np.array([a.location for a in spec.atoms])
        atoms = xs, np.array([a.mass for a in spec.atoms])
        atom_tau = None if kernel is None else kernel.values(xs)
    parts, part_taus = [], []
    for c in spec.cantor_parts:
        pts = c.lo + (c.hi - c.lo) * (left + 0.5 / 3.0 ** depth)
        parts.append((pts, c.weight))
        part_taus.append(None if kernel is None else np.zeros_like(pts)
                         if (c.lo, c.hi) in kernel.cantor_intervals else kernel.values(pts))
    plan = (ac, atoms, tuple(parts)), (p, tau, atom_tau, tuple(part_taus))
    stack = [plan]
    while stack:  # every array of the plan, however nested, becomes read-only
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            item.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# Spec documents (JSON)
# ---------------------------------------------------------------------------

# the document kind of each component class; its dataclass fields, in order,
# are the document's keys after "kind", read as float arrays where annotated
# np.ndarray and as floats elsewhere
KINDS = {"uniform": Uniform, "normal": Normal, "exponential": Exponential,
         "tabulated": Tabulated, "atom": Atom, "cantor": CantorPart}


def _component_from_dict(d: dict):
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError(f"component entry must be an object with a 'kind': {d!r}")
    kind = d["kind"]
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f"unknown component kind {kind!r}")
    try:
        return cls(*(np.asarray(d[f.name], dtype=float) if f.type in ("np.ndarray", np.ndarray)
                     else float(d[f.name]) for f in fields(cls)))
    except KeyError as exc:
        raise SpecError(f"{kind} component missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {kind} component: {exc}") from exc


def spec_from_dict(doc: dict) -> DistributionSpec:
    if not isinstance(doc, dict) or "components" not in doc:
        raise SpecError("spec document must be an object with a 'components' list")
    comps = doc["components"]
    if not isinstance(comps, list):
        raise SpecError("'components' must be a list")
    return DistributionSpec(tuple(_component_from_dict(d) for d in comps))


def spec_to_dict(spec: DistributionSpec) -> dict:
    kind_of = {cls: kind for kind, cls in KINDS.items()}
    out = []
    for c in spec.components:
        doc = {"kind": kind_of[type(c)]}
        for f in fields(c):
            value = getattr(c, f.name)
            doc[f.name] = list(value) if isinstance(value, np.ndarray) else value
        out.append(doc)
    return {"components": out}


def parse_spec(text: str) -> DistributionSpec:
    """Parse and validate a JSON spec document.

    The document is an object with a "components" list; each entry carries a
    "kind" of uniform | normal | exponential | tabulated | atom | cantor plus
    the parameters of that kind and a "weight" (or "mass" for atoms).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


def load_spec(path) -> DistributionSpec:
    """Read and parse a spec document; a missing file raises
    FileNotFoundError, one that is a directory or not UTF-8 SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read spec document {path}: {exc}") from exc
    return parse_spec(text)
