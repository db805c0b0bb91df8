"""Reference values computed from a spec document's parameters alone.

Nothing here imports the program.  Moments and densities come from the
textbook formulas for each family, distances from this module's own
quadrature, and the Gamma-sum distance from the Gamma density in closed
form.  `oracle_checks.py` tests these against known values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.special import ndtr

SQRT2PI = math.sqrt(2.0 * math.pi)
AC_KINDS = ("uniform", "normal", "exponential", "tabulated")


def _tab_normalised(c):
    g = np.asarray(c["grid"], dtype=float)
    v = np.asarray(c["values"], dtype=float)
    total = float(np.sum(0.5 * (v[:-1] + v[1:]) * np.diff(g)))
    return g, v / total


def piece_pdf(c, x):
    """Unweighted density of one AC piece, elementwise over x."""
    x = np.asarray(x, dtype=float)
    kind = c["kind"]
    if kind == "uniform":
        return np.where((x >= c["lo"]) & (x <= c["hi"]), 1.0 / (c["hi"] - c["lo"]), 0.0)
    if kind == "normal":
        z = (x - c["mean"]) / c["sd"]
        return np.exp(-0.5 * z * z) / (c["sd"] * SQRT2PI)
    if kind == "exponential":
        r = c["rate"]
        return np.where(x >= 0.0, r * np.exp(-r * np.maximum(x, 0.0)), 0.0)
    if kind == "tabulated":
        g, v = _tab_normalised(c)
        return np.interp(x, g, v, left=0.0, right=0.0)
    raise ValueError(f"{kind} has no density")


def pdf(doc, x):
    """Weighted density of the absolutely continuous part."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c in doc["components"]:
        if c["kind"] in AC_KINDS:
            out = out + c["weight"] * piece_pdf(c, x)
    return out


def _piece_raw_moments(c):
    """(E[X], E[X^2]) of one component."""
    kind = c["kind"]
    if kind in ("uniform", "cantor"):
        a, b = c["lo"], c["hi"]
        mid = 0.5 * (a + b)
        if kind == "uniform":
            return mid, (a * a + a * b + b * b) / 3.0
        return mid, mid * mid + (b - a) ** 2 / 8.0
    if kind == "normal":
        return c["mean"], c["mean"] ** 2 + c["sd"] ** 2
    if kind == "exponential":
        return 1.0 / c["rate"], 2.0 / c["rate"] ** 2
    if kind == "atom":
        return c["location"], c["location"] ** 2
    if kind == "tabulated":
        # Simpson's rule is exact for x^k times a linear density, k <= 2
        g, v = _tab_normalised(c)
        a, b = g[:-1], g[1:]
        mid = 0.5 * (a + b)
        vm = 0.5 * (v[:-1] + v[1:])
        h = (b - a) / 6.0
        m1 = float(np.sum(h * (a * v[:-1] + 4 * mid * vm + b * v[1:])))
        m2 = float(np.sum(h * (a * a * v[:-1] + 4 * mid * mid * vm + b * b * v[1:])))
        return m1, m2
    raise ValueError(kind)


def _weight(c):
    return c["mass"] if c["kind"] == "atom" else c["weight"]


def moments(doc):
    """(mean, variance) of the mixture."""
    m1 = m2 = 0.0
    for c in doc["components"]:
        a, b = _piece_raw_moments(c)
        m1 += _weight(c) * a
        m2 += _weight(c) * b
    return m1, m2 - m1 * m1


def singular_mass(doc):
    return sum(_weight(c) for c in doc["components"] if c["kind"] in ("atom", "cantor"))


def _piece_range(c):
    """Interval outside which the piece's density is below 1e-30 of its peak."""
    kind = c["kind"]
    if kind == "uniform":
        return c["lo"], c["hi"]
    if kind == "normal":
        return c["mean"] - 12.0 * c["sd"], c["mean"] + 12.0 * c["sd"]
    if kind == "exponential":
        return 0.0, 70.0 / c["rate"]
    return float(c["grid"][0]), float(c["grid"][-1])


def _piece_edges(c):
    kind = c["kind"]
    if kind == "uniform":
        return [c["lo"], c["hi"]]
    if kind == "exponential":
        return [0.0]
    if kind == "tabulated":
        return [float(x) for x in c["grid"]]
    return []


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def abs_integral(f, edges, step=0.01, width=0.25):
    """Integral of |f| over [edges[0], edges[-1]].

    f must be vectorised and smooth between consecutive edges, but may jump
    at them.  Its sign changes are located on a scan grid of spacing at
    most `step` that runs from just inside one edge to just inside the
    next, and refined by Brent's method, so every panel has a one-signed
    integrand; panels are cut into pieces no wider than `width` and
    integrated by 24-point Gauss-Legendre.
    """
    pts = []
    for a, b in zip(edges[:-1], edges[1:]):
        pts.append(a)
        # f may jump at an edge, so the scan starts and ends at the one-sided
        # limits just inside the panel rather than at the edges themselves
        eps = max(1e-12 * (b - a), 1e-13 * max(abs(a), abs(b), 1.0))
        inner = np.linspace(a, b, max(256, math.ceil((b - a) / step)) + 1)[1:-1]
        xs = np.concatenate(([a + eps], inner, [b - eps]))
        fx = f(xs)
        for i in np.nonzero(np.sign(fx[:-1]) * np.sign(fx[1:]) < 0)[0]:
            pts.append(optimize.brentq(lambda t: float(f(np.array([t]))[0]),
                                       xs[i], xs[i + 1], xtol=1e-15))
    pts.append(edges[-1])
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        cuts = np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)
        lo, hi = cuts[:-1, None], cuts[1:, None]
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X
        total += abs(float(np.sum(0.5 * (hi - lo) * _GL_W * f(x))))
    return total


def tv_to_normal(doc):
    """d_TV between the mixture and the normal with its mean and variance."""
    m, var = moments(doc)
    sd = math.sqrt(var)
    ac = [c for c in doc["components"] if c["kind"] in AC_KINDS]
    ranges = [_piece_range(c) for c in ac] + [(m - 12.0 * sd, m + 12.0 * sd)]
    lo = min(r[0] for r in ranges)
    hi = max(r[1] for r in ranges)
    edges = sorted({lo, hi, *(e for c in ac for e in _piece_edges(c) if lo < e < hi)})

    def diff(x):
        z = (x - m) / sd
        return pdf(doc, x) - np.exp(-0.5 * z * z) / (sd * SQRT2PI)

    total = abs_integral(diff, edges)
    total += float(ndtr((lo - m) / sd) + ndtr(-(hi - m) / sd))
    return 0.5 * (total + singular_mass(doc))


def var_tau_single(doc):
    """Var tau(X) for a single closed-form piece, else None."""
    comps = doc["components"]
    if len(comps) != 1:
        return None
    c = comps[0]
    if c["kind"] == "uniform":
        return (c["hi"] - c["lo"]) ** 4 / 720.0
    if c["kind"] == "normal":
        return 0.0
    if c["kind"] == "exponential":
        return 1.0 / c["rate"] ** 4
    return None


def closed_kernel(doc, t):
    """The closed-form Stein kernel of a single uniform, normal or
    exponential piece, elementwise over t inside its support."""
    c = doc["components"][0]
    t = np.asarray(t, dtype=float)
    if c["kind"] == "uniform":
        return 0.5 * (t - c["lo"]) * (c["hi"] - t)
    if c["kind"] == "normal":
        return np.full_like(t, c["sd"] ** 2)
    if c["kind"] == "exponential":
        return t / c["rate"]
    raise ValueError(f"no closed-form kernel for {c['kind']}")


def gamma_sum_tv(n):
    """d_TV of (S_n - n)/sqrt(n) to N(0, 1), S_n a sum of n unit
    exponentials, i.e. a Gamma(n) variable standardised."""
    rt = math.sqrt(n)
    lg = math.lgamma(n)

    def diff(z):
        x = n + rt * np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            logf = (n - 1) * np.log(np.maximum(x, 1e-300)) - x - lg
        return rt * np.exp(logf) * (x > 0) - np.exp(-0.5 * z * z) / SQRT2PI

    total = abs_integral(diff, [-rt, 0.0, 60.0])
    return 0.5 * (total + float(ndtr(-rt)))
