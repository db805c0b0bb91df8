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
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri

from .distributions import (
    _SQRT2PI,
    DEFAULT_CONFIG,
    DistributionSpec,
    QuadratureConfig,
    Tabulated,
    _piece_pdf,
    _piece_quantile_range,
    _piece_support,
    ac_density,
    ac_segments,
    integrate_ac,
    moments,
    truncated_support,
)
from .errors import DegenerateError
from .kernels import COMPOSITE_POINTS, KernelFn, kernel_stats

BRACKETS_PER_PANEL = 64


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


def _find_crossings(diff, diff_vec, lo, hi, n_brackets=BRACKETS_PER_PANEL):
    """Sign changes of diff on [lo, hi], scanned with the vectorized
    diff_vec and located by bisection per bracket.

    diff may jump at the panel edges, where its value already belongs to
    the neighbouring piece, so the scan and the outer brackets start and end
    just inside the panel: a crossing next to a jump would otherwise cancel
    against the jump as a sign change and be missed.
    """
    xs = np.linspace(lo, hi, n_brackets + 1)
    inset = max(1e-12 * (hi - lo), 1e-13 * max(abs(lo), abs(hi), 1.0))
    xs[0], xs[-1] = lo + inset, hi - inset
    vals = diff_vec(xs)
    roots = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(float(optimize.brentq(diff, a, b, xtol=1e-14)))
    return roots


def _panel_points(edges, crossings, width):
    """Edges plus crossings, with crossings discarded when they sit on top of
    a kept point: a jump discontinuity at a panel edge makes the bracket scan
    report a root at the edge itself, which would otherwise create sliver
    panels (and the edge, not the root, is the exact split location)."""
    tol = 1e-12 * max(width, 1.0)
    keep = sorted(edges)
    for r in sorted(crossings):
        if all(abs(r - p) > tol for p in keep):
            keep.append(r)
    return sorted(keep)


def _component_edges(c):
    if isinstance(c, Tabulated):
        return [float(g) for g in c.grid]
    plo, phi = _piece_support(c)
    return [b for b in (plo, phi) if math.isfinite(b)]


def tv_to_normal(spec: DistributionSpec,
                 config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Exact total-variation distance from the spec to N(m, sigma^2) with the
    spec's own mean and variance.

    Half the L1 distance of the AC density to the normal density (panels are
    split at density crossing points found by bisection so each quadrature
    panel has a one-signed integrand), plus half the singular mass.
    """
    mom = moments(spec)
    if mom.variance <= 0.0:
        raise DegenerateError("TV distance to the matched normal needs sigma^2 > 0")
    m, sd = mom.mean, math.sqrt(mom.variance)

    slo, shi = truncated_support(spec, config.tail_quantile)
    z = abs(float(ndtri(config.tail_quantile)))
    lo = min(slo, m - z * sd)
    hi = max(shi, m + z * sd)

    edges = {lo, hi}
    for c in spec.ac_pieces:
        for b in _component_edges(c):
            if lo < b < hi:
                edges.add(float(b))
    edges = sorted(edges)

    def diff(t):
        return ac_density(spec, t) - _normal_pdf(t, m, sd)

    splits = []
    for a, b in zip(edges[:-1], edges[1:]):
        splits.extend(_find_crossings(diff, diff, a, b))
    pts = _panel_points(edges, splits, hi - lo)

    # each panel is one-signed between crossings, so |integral of the signed
    # difference| equals the integral of |difference| without abs() kinks
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(diff, a, b,
                                epsabs=config.abs_tol, epsrel=config.rel_tol,
                                limit=config.max_subdivisions)
        total += abs(val)
    # mass the matched normal carries outside the integration window, where
    # the spec itself has at most tail_quantile-level mass
    total += float(ndtr((lo - m) / sd)) + float(ndtr(-(hi - m) / sd))
    return min(1.0, 0.5 * (total + spec.singular_mass))


def discrepancy_bounds(spec: DistributionSpec, kernel: KernelFn,
                       config: QuadratureConfig = DEFAULT_CONFIG) -> DiscrepancyReport:
    """Both Stein discrepancy bounds together with the exact distance.

    bound_l1 = 2 E|tau(X) - sigma^2| splits the quadrature at the points
    where tau crosses sigma^2; atoms and the Cantor support contribute
    sigma^2 times their mass since the canonical kernel vanishes there.
    bound_sd = 2 sqrt(Var tau(X)).
    """
    mom = moments(spec)
    var = mom.variance

    def gap(t):
        return kernel.evaluate(t) - var

    def gap_vec(ts):
        return kernel.values(ts) - var

    if spec.cantor_parts:
        # |tau - sigma^2| on uniform grids; the abs kinks cost only O(h^2)
        # locally and the rough Cantor modulus averages out
        l1_ac = 0.0
        for c, sa, sb in ac_segments(spec):
            qa, qb = _piece_quantile_range(c, config.tail_quantile)
            sa, sb = max(sa, qa), min(sb, qb)
            if not sa < sb:
                continue
            ts = np.linspace(sa, sb, COMPOSITE_POINTS + 1)
            vals = np.abs(kernel.values_ae(ts) - var)
            l1_ac += c.weight * float(np.trapezoid(vals * _piece_pdf(c, ts), ts))
    else:
        slo, shi = truncated_support(spec, config.tail_quantile)
        edges = {slo, shi}
        for c in spec.ac_pieces:
            for b in _component_edges(c):
                if slo < b < shi:
                    edges.add(float(b))
        for a in spec.atoms:
            if slo < a.location < shi:
                edges.add(a.location)
        edges = sorted(edges)
        crossings = []
        for a, b in zip(edges[:-1], edges[1:]):
            crossings.extend(_find_crossings(gap, gap_vec, a, b))

        # per-panel signed integrals; tau - sigma^2 keeps one sign between
        # consecutive crossings, so the absolute values sum to E|tau - sigma^2|
        pts = _panel_points(edges, crossings, shi - slo)
        l1_ac = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            l1_ac += abs(integrate_ac(spec, gap, lo=a, hi=b, config=config))
    bound_l1 = 2.0 * (l1_ac + var * spec.singular_mass)

    _, var_tau = kernel_stats(spec, kernel, config=config)
    bound_sd = 2.0 * math.sqrt(var_tau)

    return DiscrepancyReport(
        tv_exact=tv_to_normal(spec, config=config),
        bound_l1=bound_l1,
        bound_sd=bound_sd,
    )
