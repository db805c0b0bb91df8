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
    _SQRT2PI,
    DEFAULT_CONFIG,
    DistributionSpec,
    QuadratureConfig,
    _ndtri,
    ac_density,
    expect,
    integrate,
    moments,
    truncated_support,
)
from .errors import DegenerateError
from .kernels import KernelFn, kernel_stats

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


def _normal_pdf(t, m, sd):
    z = (np.asarray(t, dtype=float) - m) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT2PI)


def _find_crossings(f, edges) -> np.ndarray:
    """The sorted edges plus the sign changes of the array function f in
    each panel between them: the panel points for integrating |f|.

    One call of f scans every panel on BRACKETS_PER_PANEL brackets, from
    just inside its edges, where f may jump: a crossing next to a jump would
    otherwise cancel against it.  The brackets with a sign change (or a
    zero at their right end) are refined together by Illinois false
    position (Dowell and Jarratt, BIT 1971), bisecting where a step is NaN,
    until each is narrower than XTOL + RTOL |x|; as in brentq, the crossing
    is the end of the final bracket where |f| is smaller.  A crossing within
    1e-12 of the total width of an edge (where a jump makes the scan report
    the edge itself) or of the crossing before it is dropped.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    xs = np.linspace(lo, hi, BRACKETS_PER_PANEL + 1, axis=1)
    inset = np.maximum(1e-12 * (hi - lo),
                       1e-13 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0))
    xs[:, 0], xs[:, -1] = lo + inset, hi - inset
    vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    sign = (vals[:, :-1] * vals[:, 1:] < 0.0) | (vals[:, 1:] == 0.0)
    a, b, fa, fb = (v[sign] for v in (xs[:, :-1], xs[:, 1:], vals[:, :-1], vals[:, 1:]))
    ga = fa.copy()  # f(a) itself; the Illinois rule halves fa
    live = np.arange(len(b))
    for _ in range(MAX_PASSES):
        live = live[~((fb[live] == 0.0)
                      | (np.abs(b[live] - a[live]) < XTOL + RTOL * np.abs(b[live])))]
        if not len(live):
            break
        la, lb, lfa, lfb = a[live], b[live], fa[live], fb[live]
        # as in brentq, a step lands at least half the tolerance inside the
        # bracket, so that a converged end closes it on the next pass
        step = 0.5 * (XTOL + RTOL * np.abs(lb))
        c = np.clip(lb - lfb * (lb - la) / (lfb - lfa),
                    np.minimum(la, lb) + step, np.maximum(la, lb) - step)
        c = np.where(np.isnan(c), 0.5 * (la + lb), c)
        fc = np.asarray(f(c), dtype=float)
        flip = fc * lfb < 0.0
        a[live] = np.where(flip, lb, la)
        fa[live] = np.where(flip, lfb, 0.5 * lfa)
        ga[live] = np.where(flip, lfb, ga[live])
        b[live], fb[live] = c, fc
    roots = np.where(np.abs(ga) < np.abs(fb), a, b)
    tol = 1e-12 * max(edges[-1] - edges[0], 1.0)
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
        raise DegenerateError("TV distance to the matched normal needs sigma^2 > 0")
    m, sd = mom.mean, math.sqrt(mom.variance)

    slo, shi = truncated_support(spec, config.tail_quantile)
    z = abs(_ndtri(config.tail_quantile))
    lo = min(slo, m - z * sd)
    hi = max(shi, m + z * sd)

    edges = sorted({lo, hi, *(b for b in spec.density_breaks if lo < b < hi)})

    def diff(t):
        return ac_density(spec, t) - _normal_pdf(t, m, sd)

    pts = [-math.inf, *_find_crossings(diff, edges), math.inf]
    total, _ = integrate(lambda t: np.abs(diff(t)), pts, config)
    return min(1.0, 0.5 * (total + spec.singular_mass))


def discrepancy_bounds(spec: DistributionSpec, kernel: KernelFn,
                       config: QuadratureConfig = DEFAULT_CONFIG) -> DiscrepancyReport:
    """Both Stein discrepancy bounds together with the exact distance.

    bound_l1 = 2 E|tau(X) - sigma^2| is one `expect` over the whole line,
    split at the points of the truncated support where tau crosses sigma^2;
    atoms and the Cantor support contribute sigma^2 times their mass since
    the canonical kernel vanishes there.  bound_sd = 2 sqrt(Var tau(X)).
    """
    var = moments(spec).variance
    slo, shi = truncated_support(spec, config.tail_quantile)
    edges = sorted({slo, shi, *(b for b in spec.density_breaks if slo < b < shi),
                    *(a.location for a in spec.atoms if slo < a.location < shi)})
    pts = _find_crossings(lambda t: kernel.values_ae(t) - var, edges)
    l1 = expect(spec, lambda x, tau: np.abs(tau - var), extra_breaks=pts,
                kernel=kernel, config=config)
    bound_l1 = 2.0 * float(l1)

    _, var_tau = kernel_stats(spec, kernel, config=config)
    bound_sd = 2.0 * math.sqrt(var_tau)

    return DiscrepancyReport(
        tv_exact=tv_to_normal(spec, config=config),
        bound_l1=bound_l1,
        bound_sd=bound_sd,
    )
