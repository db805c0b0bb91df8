"""Mixed univariate distributions and the quadrature engine built on them.

A distribution is specified as a finite mixture whose components realize the
three parts of its Lebesgue decomposition: absolutely continuous pieces
(uniform, normal, exponential, or tabulated densities), point atoms, and an
optional Cantor-type singular-continuous part.  Every component contributes
closed-form moments, survival functions, and upper partial means, so that
mixture-level quantities (mean, variance, density, partial expectations)
are exact up to floating point wherever a closed form exists; adaptive
quadrature is reserved for integrals of genuinely transcendental integrands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special

from .errors import SpecError

WEIGHT_SUM_TOL = 1e-12

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _check_weight(w, what):
    if not (0.0 < w <= 1.0):
        raise SpecError(f"{what} weight must lie in (0, 1], got {w}")


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
        if not self.sd > 0.0:
            raise SpecError(f"normal piece needs sd > 0, got {self.sd}")
        _check_weight(self.weight, "normal")


@dataclass(frozen=True)
class Exponential:
    """Exponential density rate*exp(-rate*t) on (0, inf), weighted."""

    rate: float
    weight: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise SpecError(f"exponential piece needs rate > 0, got {self.rate}")
        _check_weight(self.weight, "exponential")


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Piecewise-linear density over a strictly increasing grid, weighted.

    Input values are renormalized at construction so the interpolated
    density integrates to one; the stored arrays are immutable.
    """

    grid: np.ndarray
    values: np.ndarray
    weight: float

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.ndim != 1 or v.ndim != 1 or g.shape != v.shape or len(g) < 2:
            raise SpecError("tabulated piece needs matching 1-D grid/values with >= 2 points")
        if not np.all(np.diff(g) > 0):
            raise SpecError("tabulated grid must be strictly increasing")
        if np.any(v < 0):
            raise SpecError("tabulated density values must be nonnegative")
        total = np.trapezoid(v, g)
        if not total > 0:
            raise SpecError("tabulated density must have positive total mass")
        v = v / total
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        _check_weight(self.weight, "tabulated")
        # Per-segment mass and first/second moments, plus suffix and prefix
        # sums for O(log n) upper and lower partial-mean queries.
        a, b = g[:-1], g[1:]
        va, vb = v[:-1], v[1:]
        h = b - a
        seg_mass = 0.5 * (va + vb) * h
        seg_m1 = h / 6.0 * (va * (2 * a + b) + vb * (a + 2 * b))
        seg_m2 = h / 12.0 * (va * (3 * a * a + 2 * a * b + b * b)
                             + vb * (a * a + 2 * a * b + 3 * b * b))
        suf_mass = np.concatenate([np.cumsum(seg_mass[::-1])[::-1], [0.0]])
        suf_m1 = np.concatenate([np.cumsum(seg_m1[::-1])[::-1], [0.0]])
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
        if not self.lo < self.hi:
            raise SpecError(f"cantor part needs lo < hi, got [{self.lo}, {self.hi}]")
        _check_weight(self.weight, "cantor")


Component = Uniform | Normal | Exponential | Tabulated | Atom | CantorPart
AC_FAMILIES = (Uniform, Normal, Exponential, Tabulated)


# ---------------------------------------------------------------------------
# Standard Cantor measure helpers (on [0, 1])
# ---------------------------------------------------------------------------

def cantor_survival_upper_mean(u, depth: int = 64):
    """Survival P(Y >= u) and upper partial mean E[Y 1{Y >= u}] of the
    standard Cantor distribution, evaluated elementwise.

    Uses the self-similarity of the Cantor measure: both quantities satisfy
    affine recursions under the ternary map, which are accumulated as affine
    coefficients for `depth` steps.  The truncation error decays like 2^-depth.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u).copy()

    # M(u) = cmm*M(u') + cms*S(u') + cm1 ; S(u) = css*S(u') + cs1
    cmm = np.ones_like(u)
    cms = np.zeros_like(u)
    cm1 = np.zeros_like(u)
    css = np.ones_like(u)
    cs1 = np.zeros_like(u)

    below = u <= 0.0
    above = u >= 1.0
    active = ~(below | above)

    for _ in range(depth):
        left = active & (u <= 1.0 / 3.0)
        right = active & (u > 2.0 / 3.0)
        mid = active & ~left & ~right
        # left: M = M'/6 + 5/12,      S = S'/2 + 1/2,  u' = 3u
        # mid:  M = 5/12,             S = 1/2          (terminal)
        # right: M = M'/6 + S'/3,     S = S'/2,        u' = 3u - 2
        cm1[left] += cmm[left] * (5.0 / 12.0) + cms[left] * 0.5
        cms[left] = cmm[left] * 0.0 + cms[left] * 0.5
        cmm[left] *= 1.0 / 6.0
        cs1[left] += css[left] * 0.5
        css[left] *= 0.5

        cm1[mid] += cmm[mid] * (5.0 / 12.0) + cms[mid] * 0.5
        cs1[mid] += css[mid] * 0.5
        cmm[mid] = 0.0
        cms[mid] = 0.0
        css[mid] = 0.0
        active[mid] = False

        cms[right] = cmm[right] / 3.0 + cms[right] * 0.5
        cmm[right] *= 1.0 / 6.0
        css[right] *= 0.5

        u[left] = 3.0 * u[left]
        u[right] = 3.0 * u[right] - 2.0

    # Close the recursion with mid-range values; residual weight is tiny.
    m = cmm * (5.0 / 12.0) + cms * 0.5 + cm1
    s = css * 0.5 + cs1
    m[below] = 0.5
    s[below] = 1.0
    m[above] = 0.0
    s[above] = 0.0
    if scalar:
        return float(s[0]), float(m[0])
    return s, m


def cantor_points(depth: int, endpoint: str = "mid") -> np.ndarray:
    """Representative points of the 2^depth construction cells of the
    standard Cantor set, each carrying equal mass 2^-depth.

    endpoint='mid' gives cell midpoints (second-order accurate for smooth
    integrands, by symmetry of the measure in every cell); endpoint='left'
    gives cell left endpoints, which lie in the Cantor set itself.
    """
    n = 1 << depth
    idx = np.arange(n, dtype=np.int64)
    x = np.zeros(n)
    for i in range(depth):
        bit = (idx >> (depth - 1 - i)) & 1
        x += bit * (2.0 / 3.0 ** (i + 1))
    if endpoint == "mid":
        x += 0.5 / 3.0 ** depth
    elif endpoint != "left":
        raise ValueError("endpoint must be 'mid' or 'left'")
    return x


def cantor_in_support(t: float, lo: float, hi: float, depth: int = 64) -> bool:
    """Whether t lies in the rescaled Cantor set on [lo, hi] (up to depth)."""
    if t < lo or t > hi:
        return False
    u = (t - lo) / (hi - lo)
    for _ in range(depth):
        if u <= 1.0 / 3.0:
            u *= 3.0
        elif u >= 2.0 / 3.0:
            u = 3.0 * u - 2.0
        else:
            return False
    return True


def cantor_in_support_vec(ts: np.ndarray, lo: float, hi: float,
                          depth: int = 64) -> np.ndarray:
    """Vectorized membership test for the rescaled Cantor set on [lo, hi]."""
    ts = np.asarray(ts, dtype=float)
    member = (ts >= lo) & (ts <= hi)
    u = np.where(member, (ts - lo) / (hi - lo), 0.5)
    for _ in range(depth):
        left = u <= 1.0 / 3.0
        right = u >= 2.0 / 3.0
        member &= left | right
        if not member.any():
            break
        u = np.where(left, 3.0 * u, np.where(right, 3.0 * u - 2.0, u))
    return member


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


def _piece_second_moment(c) -> float:
    match c:
        case Uniform():
            return (c.lo * c.lo + c.lo * c.hi + c.hi * c.hi) / 3.0
        case Normal():
            return c.mean * c.mean + c.sd * c.sd
        case Exponential():
            return 2.0 / (c.rate * c.rate)
        case Tabulated():
            return float(np.sum(c._seg_m2))
        case Atom():
            return c.location * c.location
        case CantorPart():
            half = 0.5 * (c.lo + c.hi)
            return half * half + (c.hi - c.lo) ** 2 / 8.0
    raise TypeError(f"unknown component {c!r}")


def _piece_pdf(c, t: np.ndarray) -> np.ndarray:
    """Density of one AC piece (unweighted); atoms and Cantor parts have none."""
    match c:
        case Uniform():
            return np.where((t >= c.lo) & (t <= c.hi), 1.0 / (c.hi - c.lo), 0.0)
        case Normal():
            z = (t - c.mean) / c.sd
            return np.exp(-0.5 * z * z) / (c.sd * _SQRT2PI)
        case Exponential():
            return np.where(t >= 0.0, c.rate * np.exp(-c.rate * np.maximum(t, 0.0)), 0.0)
        case Tabulated():
            return np.interp(t, c.grid, c.values, left=0.0, right=0.0)
        case Atom() | CantorPart():
            return np.zeros_like(t)
    raise TypeError(f"unknown component {c!r}")


def _piece_survival_centered_upper(c, t: np.ndarray):
    """(P(X >= t), E[(X - mean_c) 1{X >= t}]) for one component, elementwise.

    The centered partial mean has a cancellation-free closed form for every
    family, so deep-tail values scale with the local density instead of
    losing absolute precision to the subtraction of order-one terms.
    """
    match c:
        case Uniform():
            tc = np.clip(t, c.lo, c.hi)
            s = (c.hi - tc) / (c.hi - c.lo)
            centered = (c.hi - tc) * (tc - c.lo) / (2.0 * (c.hi - c.lo))
            return s, centered
        case Normal():
            z = (t - c.mean) / c.sd
            s = special.ndtr(-z)
            centered = c.sd * np.exp(-0.5 * z * z) / _SQRT2PI
            return s, centered
        case Exponential():
            tc = np.maximum(t, 0.0)
            s = np.exp(-c.rate * tc)
            centered = tc * s
            return s, centered
        case Tabulated():
            return _tabulated_survival_centered_upper(c, t)
        case Atom():
            return (t <= c.location).astype(float), np.zeros_like(t)
        case CantorPart():
            span = c.hi - c.lo
            s, m = cantor_survival_upper_mean((t - c.lo) / span)
            return s, span * (m - 0.5 * s)
    raise TypeError(f"unknown component {c!r}")


def _tabulated_split(c: Tabulated, t: np.ndarray):
    """Locate t in the tabulated grid: (tc, idx, value at tc), with tc the
    clamped point and idx its segment."""
    g, v = c.grid, c.values
    tc = np.clip(np.asarray(t, dtype=float), g[0], g[-1])
    idx = np.clip(np.searchsorted(g, tc, side="right") - 1, 0, len(g) - 2)
    vt = v[idx] + (v[idx + 1] - v[idx]) * (tc - g[idx]) / (g[idx + 1] - g[idx])
    return tc, idx, vt


def _linear_piece_mass_m1(a, b, va, vb):
    """Mass and first moment of a linear density from (a, va) to (b, vb)."""
    w = b - a
    return 0.5 * (va + vb) * w, w / 6.0 * (va * (2 * a + b) + vb * (a + 2 * b))


def _tabulated_survival_centered_upper(c: Tabulated, t: np.ndarray):
    tc, idx, vt = _tabulated_split(c, t)
    part_mass, part_m1 = _linear_piece_mass_m1(tc, c.grid[idx + 1], vt, c.values[idx + 1])
    s = part_mass + c._suf_mass[idx + 1]
    u = part_m1 + c._suf_m1[idx + 1]
    return s, u - _piece_mean(c) * s


def _piece_cdf_centered_lower(c, t: np.ndarray):
    """(P(X < t), E[(X - mean_c) 1{X < t}]) for one component, elementwise.

    The lower-tail twin of `_piece_survival_centered_upper`: each CDF is
    computed directly rather than as one minus a survival function, so
    both values are exactly zero below the support and keep full relative
    precision in a deep lower tail.
    """
    match c:
        case Uniform():
            tc = np.clip(t, c.lo, c.hi)
            f = (tc - c.lo) / (c.hi - c.lo)
            centered = -(c.hi - tc) * (tc - c.lo) / (2.0 * (c.hi - c.lo))
            return f, centered
        case Normal():
            z = (t - c.mean) / c.sd
            return special.ndtr(z), -c.sd * np.exp(-0.5 * z * z) / _SQRT2PI
        case Exponential():
            tc = np.maximum(t, 0.0)
            return -np.expm1(-c.rate * tc), -tc * np.exp(-c.rate * tc)
        case Tabulated():
            tc, idx, vt = _tabulated_split(c, t)
            part_mass, part_m1 = _linear_piece_mass_m1(c.grid[idx], tc, c.values[idx], vt)
            f = c._pre_mass[idx] + part_mass
            return f, c._pre_m1[idx] + part_m1 - _piece_mean(c) * f
        case Atom():
            return (t > c.location).astype(float), np.zeros_like(t)
        case CantorPart():
            span = c.hi - c.lo
            s, m = cantor_survival_upper_mean((t - c.lo) / span)
            return 1.0 - s, -span * (m - 0.5 * s)
    raise TypeError(f"unknown component {c!r}")


def _piece_support(c):
    match c:
        case Uniform():
            return (c.lo, c.hi)
        case Normal():
            return (-math.inf, math.inf)
        case Exponential():
            return (0.0, math.inf)
        case Tabulated():
            pos = np.nonzero(c.values > 0)[0]
            lo = c.grid[pos[0] - 1] if pos[0] > 0 else c.grid[0]
            hi = c.grid[pos[-1] + 1] if pos[-1] < len(c.grid) - 1 else c.grid[-1]
            return (float(lo), float(hi))
        case Atom():
            return (c.location, c.location)
        case CantorPart():
            return (c.lo, c.hi)
    raise TypeError(f"unknown component {c!r}")


def _piece_quantile_range(c, q: float):
    """Interval containing all but at most q of the component's mass per tail."""
    match c:
        case Normal():
            z = float(special.ndtri(q))
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
    carries a valid (normalized) density.
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
        # the spec is frozen, so its closed-form moments are computed once
        object.__setattr__(self, "_moments", _closed_form_moments(self))

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

    def contains_open(self, t: float) -> bool:
        return self.lo < t < self.hi


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive quadrature engine and tail truncation."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200
    tail_quantile: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise SpecError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise SpecError("max_subdivisions must be >= 1")
        if not (0.0 < self.tail_quantile <= 1e-6):
            raise SpecError("tail_quantile must lie in (0, 1e-6]")

    def cantor_depth(self, span: float) -> int:
        """Ternary depth at which 3^-depth * span < abs_tol."""
        if span <= 0:
            return 2
        d = math.ceil(math.log(span / self.abs_tol) / math.log(3.0))
        return min(max(d, 2), 64)


DEFAULT_CONFIG = QuadratureConfig()


def moments(spec: DistributionSpec) -> Moments:
    """Mean and variance of the mixture, from closed forms per component."""
    return spec._moments


def _closed_form_moments(spec: DistributionSpec) -> Moments:
    mean = sum(_component_weight(c) * _piece_mean(c) for c in spec.components)
    m2 = sum(_component_weight(c) * _piece_second_moment(c) for c in spec.components)
    var = max(m2 - mean * mean, 0.0)
    if spec.is_single_atom():
        var = 0.0
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
    tabulated pieces, atom indicator sums, and the Cantor self-similarity
    recursion.  For t < m the equal lower form
    -sum_c w_c [(mean_c - m) * P(X < t) + E[(X - mean_c) 1{X < t}]] is used
    instead: in a deep lower tail the upper form sums order-one terms that
    cancel down to the tiny true value, while every lower term is itself
    tiny there.  Accepts scalars or arrays.
    """
    m = moments(spec).mean
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        return float(_upper_form(spec, arr, m) if arr >= m else _lower_form(spec, arr, m))
    out = np.empty_like(arr)
    upper = arr >= m
    out[upper] = _upper_form(spec, arr[upper], m)
    out[~upper] = _lower_form(spec, arr[~upper], m)
    return out


def _upper_form(spec: DistributionSpec, t: np.ndarray, m: float) -> np.ndarray:
    out = np.zeros_like(t)
    for c in spec.components:
        s, centered = _piece_survival_centered_upper(c, t)
        out = out + _component_weight(c) * ((_piece_mean(c) - m) * s + centered)
    return out


def _lower_form(spec: DistributionSpec, t: np.ndarray, m: float) -> np.ndarray:
    out = np.zeros_like(t)
    for c in spec.components:
        f, centered = _piece_cdf_centered_lower(c, t)
        out = out - _component_weight(c) * ((_piece_mean(c) - m) * f + centered)
    return out


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
# Quadrature engine
# ---------------------------------------------------------------------------

def _segment_bounds(lo, hi, interior_points):
    pts = sorted(p for p in interior_points if lo < p < hi)
    return [lo, *pts, hi]


def ac_segments(spec: DistributionSpec, lo: float = -math.inf, hi: float = math.inf,
                extra_breaks: Sequence[float] = ()):
    """(piece, a, b) quadrature segments covering the AC part over [lo, hi].

    Atom locations, Cantor endpoints, every piece's finite support edges,
    tabulated knots, and caller-supplied breakpoints all split every
    segment: integrands built from the mixture (the kernel in particular)
    jump or kink at any of those points, whichever piece is being
    integrated against.
    """
    breaks = set(extra_breaks)
    breaks.update(a.location for a in spec.atoms)
    for c in spec.cantor_parts:
        breaks.update((c.lo, c.hi))
    for c in spec.ac_pieces:
        breaks.update(b for b in _piece_support(c) if math.isfinite(b))
        if isinstance(c, Tabulated):
            breaks.update(float(g) for g in c.grid)
    out = []
    for c in spec.ac_pieces:
        plo, phi = _piece_support(c)
        a, b = max(plo, lo), min(phi, hi)
        if not a < b:
            continue
        seams = _segment_bounds(a, b, breaks)
        out.extend((c, sa, sb) for sa, sb in zip(seams[:-1], seams[1:]))
    return out


def integrate_ac(spec: DistributionSpec, fn: Callable[[float], float],
                 lo: float = -math.inf, hi: float = math.inf,
                 extra_breaks: Sequence[float] = (),
                 config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of fn(t) * p(t) dt over [lo, hi], p the weighted AC density.

    Adaptive quadrature piece by piece, so every panel sees one smooth
    density.
    """
    total = 0.0
    for c, sa, sb in ac_segments(spec, lo, hi, extra_breaks):

        def integrand(t, piece=c):
            return fn(t) * float(_piece_pdf(piece, np.float64(t)))

        val, _ = integrate.quad(
            integrand, sa, sb,
            epsabs=config.abs_tol, epsrel=config.rel_tol,
            limit=config.max_subdivisions)
        total += c.weight * val
    return total


def expect_cantor(spec: DistributionSpec, g: Callable[[np.ndarray], np.ndarray],
                  lo: float = -math.inf, hi: float = math.inf,
                  config: QuadratureConfig = DEFAULT_CONFIG,
                  endpoint: str = "mid") -> float:
    """Sum over Cantor parts of weight * E[g(X) 1{lo <= X <= hi}].

    Approximates each Cantor expectation by equal-mass construction cells;
    with midpoint sampling the error is second order in the cell width for
    smooth g (the measure is symmetric within every cell).  g must accept
    numpy arrays.
    """
    total = 0.0
    for c in spec.cantor_parts:
        span = c.hi - c.lo
        depth = config.cantor_depth(span)
        if endpoint == "mid":
            # cell symmetry makes midpoint sampling second order: half depth
            depth = max(2, depth // 2 + 2)
        depth = min(depth, 22)
        pts = c.lo + span * cantor_points(depth, endpoint=endpoint)
        sel = (pts >= lo) & (pts <= hi)
        if not np.any(sel):
            continue
        vals = np.asarray(g(pts[sel]), dtype=float)
        total += c.weight * float(np.sum(vals)) / len(pts)
    return total


def expect_measure(spec: DistributionSpec, fn: Callable, f_vec: Callable = None,
                   lo: float = -math.inf, hi: float = math.inf,
                   extra_breaks: Sequence[float] = (),
                   config: QuadratureConfig = DEFAULT_CONFIG,
                   cantor_endpoint: str = "mid") -> float:
    """E[fn(X) 1{lo <= X <= hi}] against the full mixture measure.

    fn is evaluated pointwise for the quadrature over the AC part and at
    atom locations; f_vec (defaults to fn) must accept arrays and is used
    for the Cantor cells.
    """
    total = integrate_ac(spec, fn, lo, hi, extra_breaks=extra_breaks, config=config)
    for a in spec.atoms:
        if lo <= a.location <= hi:
            total += a.mass * fn(a.location)
    total += expect_cantor(spec, f_vec or fn, lo, hi, config=config,
                           endpoint=cantor_endpoint)
    return total


# ---------------------------------------------------------------------------
# Spec documents (JSON)
# ---------------------------------------------------------------------------

def _component_from_dict(d: dict):
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError(f"component entry must be an object with a 'kind': {d!r}")
    kind = d["kind"]
    try:
        match kind:
            case "uniform":
                return Uniform(float(d["lo"]), float(d["hi"]), float(d["weight"]))
            case "normal":
                return Normal(float(d["mean"]), float(d["sd"]), float(d["weight"]))
            case "exponential":
                return Exponential(float(d["rate"]), float(d["weight"]))
            case "tabulated":
                return Tabulated(np.asarray(d["grid"], dtype=float),
                                 np.asarray(d["values"], dtype=float),
                                 float(d["weight"]))
            case "atom":
                return Atom(float(d["location"]), float(d["mass"]))
            case "cantor":
                return CantorPart(float(d["lo"]), float(d["hi"]), float(d["weight"]))
    except KeyError as exc:
        raise SpecError(f"{kind} component missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {kind} component: {exc}") from exc
    raise SpecError(f"unknown component kind {kind!r}")


def spec_from_dict(doc: dict) -> DistributionSpec:
    if not isinstance(doc, dict) or "components" not in doc:
        raise SpecError("spec document must be an object with a 'components' list")
    comps = doc["components"]
    if not isinstance(comps, list):
        raise SpecError("'components' must be a list")
    return DistributionSpec(tuple(_component_from_dict(d) for d in comps))


def spec_to_dict(spec: DistributionSpec) -> dict:
    out = []
    for c in spec.components:
        match c:
            case Uniform():
                out.append({"kind": "uniform", "lo": c.lo, "hi": c.hi, "weight": c.weight})
            case Normal():
                out.append({"kind": "normal", "mean": c.mean, "sd": c.sd, "weight": c.weight})
            case Exponential():
                out.append({"kind": "exponential", "rate": c.rate, "weight": c.weight})
            case Tabulated():
                out.append({"kind": "tabulated", "grid": list(c.grid),
                            "values": list(c.values), "weight": c.weight})
            case Atom():
                out.append({"kind": "atom", "location": c.location, "mass": c.mass})
            case CantorPart():
                out.append({"kind": "cantor", "lo": c.lo, "hi": c.hi, "weight": c.weight})
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())
