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
    otherwise cancel against it.  An exact zero carries no sign: each
    nonzero scan value is bracketed with the previous nonzero one in its
    panel, and the brackets whose ends differ in sign are refined together
    by Illinois false position (Dowell and Jarratt, BIT 1971), bisecting
    where a step is NaN, until each is narrower than XTOL min(w, 1) +
    RTOL |x|, w the total width; as in brentq, the crossing is the end of
    the final bracket where |f| is smaller.  Signs are compared as np.sign
    values, never through a product of values, which overflows once |f|
    passes ~1e154.  A crossing within 1e-12 w of an edge (where a jump
    makes the scan report the edge itself) or of the crossing before it is
    dropped.  The length floors scale with min(w, 1), so that a narrow scan
    keeps its brackets inside its panels, and no inset exceeds a quarter of
    its panel.  A pair of crossings inside one bracket is missed, which
    only callers that integrate |f| tolerate.
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
    xa, va = (np.take_along_axis(v, prev[:, :-1], axis=1) for v in (xs, vals))
    sign = np.sign(va) * np.sign(vals[:, 1:]) < 0.0
    a, b, fa, fb = (v[sign] for v in (xa, xs[:, 1:], va, vals[:, 1:]))
    ga = fa.copy()  # f(a) itself; the Illinois rule halves fa
    live = np.arange(len(b))
    for _ in range(MAX_PASSES):
        live = live[~((fb[live] == 0.0)
                      | (np.abs(b[live] - a[live]) < xtol + RTOL * np.abs(b[live])))]
        if not len(live):
            break
        la, lb, lfa, lfb = a[live], b[live], fa[live], fb[live]
        # as in brentq, a step lands at least half the tolerance inside the
        # bracket, so that a converged end closes it on the next pass
        step = 0.5 * (xtol + RTOL * np.abs(lb))
        c = np.clip(lb - lfb * (lb - la) / (lfb - lfa),
                    np.minimum(la, lb) + step, np.maximum(la, lb) - step)
        c = np.where(np.isnan(c), 0.5 * (la + lb), c)
        fc = np.asarray(f(c), dtype=float)
        flip = np.sign(fc) * np.sign(lfb) < 0.0
        a[live] = np.where(flip, lb, la)
        fa[live] = np.where(flip, lfb, 0.5 * lfa)
        ga[live] = np.where(flip, lfb, ga[live])
        b[live], fb[live] = c, fc
    roots = np.where(np.abs(ga) < np.abs(fb), a, b)
    tol = 1e-12 * width
    i = np.searchsorted(edges, roots)
    near = np.minimum(roots - edges[i - 1], edges[i] - roots) <= tol
    near |= np.diff(roots, prepend=-math.inf) <= tol
    return np.sort(np.concatenate([edges, roots[~near]]))


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
