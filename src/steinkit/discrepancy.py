"""Total-variation distance to the moment-matched normal and its Stein
discrepancy bounds.

For a law mu with mean m, variance sigma^2 and Stein kernel tau, the
discrepancies reported here are

    bound_l1 = 2 E|tau(X) - sigma^2|    and    bound_sd = 2 sqrt(Var tau(X)),

with bound_l1 <= bound_sd always (Cauchy-Schwarz, since E[tau(X)] equals
the variance).  For laws standardized to unit variance they dominate
d_TV(mu, N(m, sigma^2)); in general the domination needs an extra 1/sigma^2
factor, which the report deliberately does not fold in.  The exact distance
decomposes as half the L1 distance between the AC density and the normal
density plus half the singular mass, since the singular part is orthogonal
to every Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DEFAULT_CONFIG,
    DistributionSpec,
    Normal,
    QuadratureConfig,
    _first_pass,
    _ndtr,
    _piece_pdf,
    _positive_variance,
    _tail_sums,
    ac_density,
    moments,
)
from .kernels import KernelFn, _tau_moments

PROBES = 8  # points a refinement pass evaluates in each live bracket
XTOL, RTOL = 1e-14, 4.0 * np.finfo(float).eps  # brentq's stopping rule
MAX_PASSES = 100  # so that a NaN or a flat bracket cannot loop forever


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact d_TV next to the two Stein discrepancies.  bound_l1 <= bound_sd
    always; both dominate tv_exact when the variance is (near) one, and
    after division by sigma^2 in general."""

    tv_exact: float
    bound_l1: float
    bound_sd: float

    def to_dict(self) -> dict:
        return {"tv": self.tv_exact, "bound_l1": self.bound_l1, "bound_sd": self.bound_sd}


def _find_crossings(f, xs, fx) -> np.ndarray:
    """The sorted sign changes of the array function f among the sorted
    points xs, where it takes the values fx.

    A NaN or an exact zero carries no sign: each nonzero value is bracketed
    with the previous nonzero one, so a NaN, which callers put at each jump
    of f, ends a bracket.  The brackets whose ends differ in sign are
    refined together by probe passes, one call of f each: PROBES probes in
    every live bracket, which shrinks to the first neighbouring signed
    points of opposite sign, or ends at an exact zero between them.  The
    probes are centred on the inverse interpolate (Brent 1973) through the
    bracket's ends and the points beside them that run monotone with them,
    spaced by half its change when one point is dropped but no closer than
    half the stopping width; they are evenly spaced where fewer than three
    points run monotone, and after an interpolated pass that shrank the
    bracket less than (PROBES + 1)-fold.  A bracket stops once narrower
    than XTOL min(w, 1) + RTOL |x|, w the width of xs; as in brentq, the
    crossing is the end of the final bracket where |f| is smaller.  Signs
    are compared, never through a product of values, which overflows once
    |f| passes ~1e154.  A pair of crossings between neighbouring points is
    missed.
    """
    xs, fx = np.asarray(xs, dtype=float), np.asarray(fx, dtype=float)
    xtol = XTOL * min(xs[-1] - xs[0], 1.0)
    nonzero = np.flatnonzero(fx != 0.0)
    sign = np.sign(fx[nonzero])
    brackets = []
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0).tolist():
        # from the nonzero point before the bracket to the one after it
        lo, hi = nonzero[max(i - 1, 0)], nonzero[min(i + 2, len(nonzero) - 1)] + 1
        pts = list(zip(xs[lo:hi].tolist(), fx[lo:hi].tolist()))
        brackets.append(_bracket(pts, int(nonzero[i] - lo), True, math.inf))
    live = brackets
    for _ in range(MAX_PASSES):
        live = [br for br in live
                if not (br[3] == 0.0 or br[1] - br[0] < xtol + RTOL * abs(br[1]))]
        if not live:
            break
        probes = [_probes(br, xtol) for br in live]
        vals = np.asarray(f(np.array(probes).ravel()), dtype=float).reshape(len(live), PROBES)
        for br, ps, vs in zip(live, probes, vals.tolist()):
            br[:] = _bracket([(br[0], br[2]), *zip(ps, vs), (br[1], br[3])], 0, br[5], br[1] - br[0])
    return np.array([a if abs(fa) < abs(fb) else b for a, b, fa, fb, *_ in brackets])


def _node_crossings(f, spec: DistributionSpec, ac, fx) -> np.ndarray:
    """`_find_crossings` of f on the nodes of the starting pass ac in x
    order, qagi tails included (a crossing beyond the tail_quantile window
    still bounds a lobe of the closed-form sums), fx f there, and at each
    kernel break among them, where f may jump, one point inset on each side
    (all in one call of f) with a NaN between them, so that no bracket
    spans the jump."""
    (_, _, side, _), x, _, _ = ac
    # the left tail's nodes run up to the window in x, then the finite
    # panels', and the right tail's run down to the window
    right = np.repeat(side > 0.0, len(x) // len(side))
    order = np.concatenate((np.flatnonzero(~right), np.flatnonzero(right)[::-1]))
    xs, vs = x[order], fx[order]
    br = np.array(spec._kernel_breaks)
    br = br[(xs[0] < br) & (br < xs[-1])]
    if br.size:
        k = np.searchsorted(xs, br)
        gap = np.stack([br - xs[k - 1], xs[k] - br], axis=1)
        inset = np.minimum(np.maximum(1e-10 * gap, 1e-13 * np.abs(br[:, None])), 0.5 * gap)
        pts = np.stack([br - inset[:, 0], br, br + inset[:, 1]], axis=1)
        vals = np.asarray(f(pts[:, ::2].ravel()), dtype=float).reshape(-1, 2)[:, [0, 0, 1]]
        vals[:, 1] = np.nan
        xs, vs = np.insert(np.stack([xs, vs]), np.repeat(k, 3), [pts.ravel(), vals.ravel()], axis=1)
    return _find_crossings(f, xs, vs)


def _probes(bracket, xtol: float) -> list:
    """The PROBES points of a probe pass in `bracket` (see `_find_crossings`)."""
    a, b, fa, fb, near, even = bracket
    if not even:
        pts = [(a, fa), (b, fb), *near]
        c = _inverse(pts, a)
        e = max(abs(c - _inverse([p for p in pts if p is not q], a)) for q in near)
        if a < c < b and e < b - a:
            step = 0.5 * max(e, xtol + RTOL * abs(b))
            return [min(max(c + step * (j - 0.5 * (PROBES - 1)), a), b) for j in range(PROBES)]
    return [a + (b - a) * (j + 1) / (PROBES + 1) for j in range(PROBES)]


def _inverse(pts, a: float) -> float:
    """Where the polynomial x(f) through the points (x, f), f strictly
    monotone, meets f = 0, in Lagrange's form about a."""
    return a + sum((x - a) * math.prod(g / (g - v) for _, g in pts if g != v) for x, v in pts)


def _bracket(pts, i: int, even: bool, width: float) -> list:
    """[a, b, f(a), f(b), monotone neighbours, even probes next] for the
    first sign change from the signed point pts[i] on, between neighbouring
    signed points, among the sorted points (x, f(x)) of a pass, even or
    not, on a bracket `width` wide; an exact zero between them is b."""
    signed = [k for k, (_, v) in enumerate(pts) if v and v == v]
    n = next(n for n in range(signed.index(i), len(signed) - 1)
             if (pts[signed[n]][1] > 0.0) != (pts[signed[n + 1]][1] > 0.0))
    i, j = signed[n], signed[n + 1]
    zero = next((x for x, v in pts[i + 1:j] if v == 0.0), None)
    (a, fa), (b, fb) = pts[i], pts[j] if zero is None else (zero, 0.0)
    near = [p for p in (pts[k] for k in signed[max(n - 1, 0):n]) if p[1] < fa < fb or p[1] > fa > fb]
    near += [p for p in (pts[k] for k in signed[n + 2:n + 3]) if fa < fb < p[1] or fa > fb > p[1]]
    return [a, b, fa, fb, tuple(near), not near or not (even or (PROBES + 1) * (b - a) <= width)]


def tv_to_normal(spec: DistributionSpec,
                 config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Exact total-variation distance from the spec to N(m, sigma^2) with the
    spec's own mean and variance.

    Half the L1 distance of the AC density p to the normal density phi,
    plus half the singular mass.  p - phi = G' for G = F_ac - Phi, so the
    L1 distance is the sum of |Delta G| between neighbouring points of the
    crossings of p and phi that `_node_crossings` finds from `expect`'s
    starting pass, the density breaks (the AC hull's finite ends among
    them), the mean and +-inf, where the limits are exact: no quadrature.
    G is read from the AC tails of `_tail_sums`, each point on its side of
    the mean, so deep-tail terms keep their precision.
    """
    return _distances(spec, None, config)[0]


def _sides(m: float, pts) -> tuple:
    """The distinct finite points pts below the mean m in order, m twice,
    and those above it, with the mask of the lower side: m closes each
    side's run."""
    pts = np.sort(np.asarray(pts, dtype=float))
    pts = pts[np.diff(pts, prepend=-math.inf) > 0.0]
    low, high = pts[pts < m], pts[pts > m]
    xs = np.concatenate((low, [m, m], high))
    return xs, np.arange(len(xs)) <= len(low)


def _variation(v, lower) -> float:
    """sum |Delta v| along each side's run, from v = 0 at -inf to m and from
    m to v = 0 at +inf: the L1 norm of v' where v' keeps its sign between
    neighbouring points."""
    low, high = np.concatenate(([0.0], v[lower])), np.concatenate((v[~lower], [0.0]))
    return float(np.abs(low[1:] - low[:-1]).sum() + np.abs(high[1:] - high[:-1]).sum())


def _distances(spec: DistributionSpec, kernel, config: QuadratureConfig) -> tuple:
    """(tv, bound_l1, or None without a kernel), from one `_tail_sums` call
    at both sums' points.  On the AC part (tau - sigma^2) p = sigma^2 q -
    sigma^2 p, whose antiderivative on each side of the mean is A = K -
    sigma^2 F (up to sign and a constant, H = -M - sigma^2 F_ac), so
    bound_l1 = 2 (sum |Delta A| + sigma^2 singular mass), summed between the
    crossings of tau and sigma^2 and the kernel breaks, where tau may jump;
    the canonical tau is 0 at atoms and on a Cantor part.  Each sum reads
    only its own points, so tv is the same with or without a kernel."""
    var = _positive_variance(spec, "the TV distance to the matched normal")
    m, sd = moments(spec).mean, math.sqrt(var)
    (ac, _, _), (p, tau, _, _) = _first_pass(spec, kernel, config)
    tv_pts, l1_pts = [spec.density_breaks], [spec._kernel_breaks]
    if ac is not None:
        normal = Normal(m, sd, 1.0)
        if kernel is not None:
            # where tau reads 0 on the support its density underflowed far out
            # in a tail: a jump that bounds no lobe, so it carries no sign
            l1_pts.append(_node_crossings(lambda t: kernel.values_ae(t) - var, spec, ac,
                                          np.where(tau > 0.0, tau - var, np.nan)))
        tv_pts.append(_node_crossings(lambda t: ac_density(spec, t) - _piece_pdf(normal, t),
                                      spec, ac, p - _piece_pdf(normal, ac[1])))
    xs, lower = _sides(m, np.concatenate(tv_pts))
    n = len(xs)
    if kernel is not None:
        l1_xs, l1_lower = _sides(m, np.concatenate(l1_pts))
        xs, lower = np.concatenate((xs, l1_xs)), np.concatenate((lower, l1_lower))
    f, k = _tail_sums(spec, xs, lower)
    z = (xs[:n] - m) / sd
    g = f[:n] - _ndtr(np.where(lower[:n], z, -z))
    tv = min(1.0, 0.5 * (_variation(g, lower[:n]) + spec.singular_mass))
    if kernel is None:
        return tv, None
    a = k[n:] - var * f[n:]
    return tv, 2.0 * (_variation(a, lower[n:]) + var * spec.singular_mass)


def discrepancy_bounds(spec: DistributionSpec, kernel: KernelFn,
                       config: QuadratureConfig = DEFAULT_CONFIG) -> DiscrepancyReport:
    """Both Stein discrepancy bounds together with the exact distance.

    bound_l1 = 2 E|tau - sigma^2| in closed form at the crossings of tau and
    sigma^2 (`_distances`), and bound_sd = 2 sigma^2 sqrt(Var r), r =
    tau / sigma^2 - 1, the `_tau_moments` that `kernel_stats` reads.  The
    crossings, and the distance's, are found on the kernel's starting pass.
    """
    var = moments(spec).variance
    _, var_r = _tau_moments(spec, kernel, config)
    tv, l1 = _distances(spec, kernel, config)
    return DiscrepancyReport(tv_exact=tv, bound_l1=l1, bound_sd=2.0 * var * math.sqrt(var_r))
