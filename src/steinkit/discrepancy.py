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
    _ndtri,
    _piece_pdf,
    ac_density,
    expect,
    integrate,
    moments,
    truncated_support,
)
from .errors import DegenerateError, NumericsError
from .kernels import KernelFn, _r_rows

BRACKETS_PER_PANEL = 64
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


def _find_crossings(f, edges) -> np.ndarray:
    """The sorted edges plus the sign changes of the array function f in
    each panel between them: the panel points for integrating |f|.

    One call of f scans every panel on BRACKETS_PER_PANEL brackets, from
    just inside its edges, where f may jump: a crossing next to a jump would
    otherwise cancel against it.  A NaN or an exact zero carries no sign:
    each nonzero scan value is bracketed with the previous nonzero one in
    its panel, and the brackets whose ends differ in sign are refined
    together by probe passes, one call of f each: PROBES probes in every
    live bracket, which shrinks to the first neighbouring signed points of
    opposite sign, or ends at an exact zero between them.  The probes are
    centred on the inverse interpolate (Brent 1973) through the bracket's
    ends and the points beside them that run monotone with them, spaced by
    half its change when one point is dropped but no closer than half the
    stopping width; they are evenly spaced where fewer than three points
    (of the scan, at first) run monotone, and after an interpolated pass
    that shrank the bracket less than (PROBES + 1)-fold.  A bracket stops
    once narrower than XTOL min(w, 1) + RTOL |x|, w the total width; as in
    brentq, the crossing is the end of the final bracket where |f| is
    smaller.  Signs are compared, never through a product of values, which
    overflows once |f| passes ~1e154.  A crossing within 1e-12 w of an edge
    (where a jump makes the scan report the edge itself) or of the crossing
    before it is dropped.  The length floors scale with min(w, 1), so that
    a narrow scan keeps its brackets inside its panels, and no inset
    exceeds a quarter of its panel.  A pair of crossings inside one bracket
    is missed, which only callers that integrate |f| tolerate.
    """
    edges = np.asarray(edges, dtype=float)
    width = edges[-1] - edges[0]
    unit = min(width, 1.0)
    xtol = XTOL * unit
    lo, hi = edges[:-1], edges[1:]
    xs = np.linspace(lo, hi, BRACKETS_PER_PANEL + 1, axis=1)
    inset = np.minimum(np.maximum(1e-12 * (hi - lo),
                                  1e-13 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), unit)),
                       0.25 * (hi - lo))
    xs[:, 0], xs[:, -1] = lo + inset, hi - inset
    vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    prev = np.maximum.accumulate(np.where(vals != 0.0, np.arange(xs.shape[1]), 0), axis=1)
    va = np.take_along_axis(vals, prev[:, :-1], axis=1)
    rows, cols = np.nonzero(np.sign(va) * np.sign(vals[:, 1:]) < 0.0)
    scans = {r: list(zip(xs[r].tolist(), vals[r].tolist())) for r in set(rows.tolist())}
    brackets = [_bracket(scans[r], int(prev[r, j]), True, math.inf)
                for r, j in zip(rows.tolist(), cols.tolist())]
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
    roots = np.array([a if abs(fa) < abs(fb) else b for a, b, fa, fb, *_ in brackets])
    tol = 1e-12 * width
    i = np.searchsorted(edges, roots)
    near = np.minimum(roots - edges[i - 1], edges[i] - roots) <= tol
    near |= np.diff(roots, prepend=-math.inf) <= tol
    return np.sort(np.concatenate([edges, roots[~near]]))


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

    Half the L1 distance of the AC density to the normal density over the
    whole line (split at the density crossings `_find_crossings` locates in
    the tail_quantile window of both laws, so |p - phi| is smooth on every
    quadrature panel), plus half the singular mass.
    """
    mom = moments(spec)
    if mom.variance <= 0.0:
        if spec.is_single_atom():
            raise DegenerateError("TV distance to the matched normal needs sigma^2 > 0")
        raise NumericsError("the variance underflows to 0 on a support that is not a point")
    m, sd = mom.mean, math.sqrt(mom.variance)

    slo, shi = truncated_support(spec, config.tail_quantile)
    z = abs(_ndtri(config.tail_quantile))
    lo = min(slo, m - z * sd)
    hi = max(shi, m + z * sd)

    edges = sorted({lo, hi, *(b for b in spec.density_breaks if lo < b < hi)})
    normal = Normal(m, sd, 1.0)

    def diff(t):
        return ac_density(spec, t) - _piece_pdf(normal, t)

    pts = [-math.inf, *_find_crossings(diff, edges), math.inf]
    total, _ = integrate(lambda t: np.abs(diff(t)), pts, config)
    return min(1.0, 0.5 * (total + spec.singular_mass))


def discrepancy_bounds(spec: DistributionSpec, kernel: KernelFn,
                       config: QuadratureConfig = DEFAULT_CONFIG) -> DiscrepancyReport:
    """Both Stein discrepancy bounds together with the exact distance.

    With r = tau(X) / sigma^2 - 1 as in `kernel_stats`, bound_l1 =
    2 sigma^2 E|r| and bound_sd = 2 sigma^2 sqrt(Var r), from one `expect`
    over the rows [|r|, r, r^2], split at the points of the truncated
    support where tau crosses sigma^2.
    """
    var = moments(spec).variance
    slo, shi = truncated_support(spec, config.tail_quantile)
    edges = [slo, *(b for b in spec._kernel_breaks if slo < b < shi), shi]
    pts = _find_crossings(lambda t: kernel.values_ae(t) - var, edges)
    l1, mean_r, sq = expect(spec, lambda x, tau: _r_rows(tau, var), extra_breaks=pts,
                            kernel=kernel, config=config)
    return DiscrepancyReport(
        tv_exact=tv_to_normal(spec, config=config),
        bound_l1=2.0 * var * float(l1),
        bound_sd=2.0 * var * math.sqrt(max(float(sq) - float(mean_r) ** 2, 0.0)),
    )
