"""Density reconstruction from a Stein kernel, and the Stein operator.

A positive kernel tau on an interval determines the absolutely continuous
law it belongs to: with gamma(x) = m - x,

    p(x) = (C / tau(x)) * exp( integral from x0 to x of gamma(t)/tau(t) dt ),

where x0 is the zero of gamma (the mean) and C normalizes.  The associated
first-order Stein operator is (Lg)(x) = tau(x) g'(x) + (m - x) g(x), whose
expectation vanishes exactly at the recovered law.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import DEFAULT_CONFIG, QuadratureConfig, _adapt, _count, _sorted_distinct
from .errors import NumericsError, SpecError
from .kernels import MAX_GRID, KernelFn, TestFunction, _require_finite

EXPONENT_FLOOR = math.log(1e-300)
_EDGE_INSET = 1e-9
_BREAK_GAP = 1e-12


def _segmented_grid(lo, hi, breaks, grid_size):
    """Uniform grids per smooth segment, split a hair on each side of every
    density breakpoint so no trapezoid cell straddles a jump."""
    inset = (hi - lo) * _EDGE_INSET
    gap = (hi - lo) * _BREAK_GAP
    cuts = [b for b in breaks if lo + inset < b < hi - inset]
    edges = [lo + inset]
    for b in cuts:
        edges.extend((b - gap, b + gap))
    edges.append(hi - inset)
    spans = [(a, b) for a, b in zip(edges[::2], edges[1::2])]
    total = sum(b - a for a, b in spans)
    parts = []
    for a, b in spans:
        n = max(8, int(round(grid_size * (b - a) / total)))
        parts.append(np.linspace(a, b, n))
    return np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class RecoveredDensity:
    """Density values on a strictly increasing grid, trapezoid-normalized to
    unit mass; `normalizer` is the constant C and `anchor` the zero of gamma.
    `error_estimate` is the total |K15 - G7| of the one adaptive integral
    over all cells, so it bounds the estimated error of the accumulated
    exponent at every grid point, the end cells included: those next to a
    finite domain end are integrated in log|t - end|, where the rounding
    of their nodes in t cancels."""

    grid: np.ndarray
    values: np.ndarray
    normalizer: float
    anchor: float
    error_estimate: float

    def __call__(self, t):
        return np.interp(t, self.grid, self.values, left=0.0, right=0.0)


def _outward_exponent(step, k):
    """Exponent at every grid point from the per-cell integrals `step`,
    accumulated outward from the anchor (cell k starts at it, grid point j
    closes cell j); once an exponent falls below the underflow floor it and
    every value further out are -inf."""
    expo = np.empty(len(step))
    expo[k:] = np.cumsum(step[k:])
    expo[:k] = -np.cumsum(step[:k][::-1])[::-1]
    for side in (expo[k:], expo[:k][::-1]):
        below = np.nonzero(side < EXPONENT_FLOOR)[0]
        if len(below):
            side[below[0]:] = -math.inf
    return expo


def recover_density(kernel: KernelFn, m: float, grid_size: int = 4096,
                    config: QuadratureConfig = DEFAULT_CONFIG,
                    anchor: float = None) -> RecoveredDensity:
    """Reconstruct the density determined by a strictly positive kernel.

    The exponent integral of psi(t) = (m - t)/tau(t) is taken cell by cell
    between consecutive grid points, with the anchor x0 inserted as a node
    (by convention the zero of gamma, x0 = m; any other interior anchor
    yields the same density after normalization).  All cells go to one
    globally adaptive Gauss-Kronrod 7-15 call, each pass evaluating the
    kernel once on every node, and the final intervals are summed back per
    cell.  The grid is split a hair on each side of every density break,
    and the cell across a break starts as its two sides, so psi is smooth
    under every rule; a cell next to a finite domain end that holds no
    atom, where psi ~ 1/(t - end), starts in s = log|t - end| on panels at
    most 1 wide, where psi times its Jacobian |t - end| is smooth and the
    rounding of the nodes in t cancels out of it.  An absolute error in
    the exponent is the density's relative error, so the whole integral is
    held to `config.abs_tol` alone.  Cumulative sums outward from x0 give
    the exponent; once it falls below the underflow floor the density is
    pinned to zero beyond.
    The grid spans the kernel's domain, falling back to the kernel's sampled
    range when the domain is unbounded, with a hair of inset so tau stays
    positive at the first and last points.  A kernel with an interior zero
    (at an atom or on a Cantor support) or a grid that repeats points (as on
    [1e14, 1e14 + 4] at grid_size 512) raises NumericsError before quadrature.
    """
    if not len(kernel.grid_t):
        raise NumericsError("the kernel's support is too narrow to sample off its atoms")
    lo = kernel.domain.lo if math.isfinite(kernel.domain.lo) else float(kernel.grid_t[0])
    hi = kernel.domain.hi if math.isfinite(kernel.domain.hi) else float(kernel.grid_t[-1])
    if not lo < m < hi:
        raise SpecError(f"mean m={m} lies outside the kernel domain ({lo}, {hi})")
    x0 = m if anchor is None else anchor
    if not lo < x0 < hi:
        raise SpecError(f"anchor x0={x0} lies outside the kernel domain ({lo}, {hi})")
    grid_size = _count("grid_size", grid_size, 16, MAX_GRID)

    for loc in kernel.atom_zeros:
        if lo < loc < hi:
            raise NumericsError(f"kernel has an interior zero at t={loc}; "
                                "the exponent integral diverges there")
    for clo, chi in kernel.cantor_intervals:
        if clo < hi and lo < chi:
            raise NumericsError(f"kernel vanishes on the Cantor support in [{clo}, {chi}], "
                                "an uncountable set of interior zeros; the exponent "
                                "integral diverges there")

    grid = _segmented_grid(lo, hi, kernel.density_breaks, grid_size)
    if not np.all(np.diff(grid) > 0.0):
        raise NumericsError(f"{grid_size} grid points on [{lo!r}, {hi!r}] do not strictly increase")
    tau = kernel.values(grid)
    # a density vanishing at an endpoint drives tau to zero faster than the
    # partial expectation can be resolved in floats; shave those edge points
    pos = np.nonzero(tau > 0.0)[0]
    if len(pos) < 16:
        raise NumericsError("kernel is not positive on enough of the grid")
    grid = grid[pos[0]:pos[-1] + 1]
    tau = tau[pos[0]:pos[-1] + 1]
    bad = np.nonzero(tau <= 0.0)[0]
    if len(bad):
        raise NumericsError(f"kernel is not strictly positive on the interior "
                            f"grid (first zero at t={float(grid[bad[0]])!r})")

    def psi(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (m - t) / kernel.values(t)

    # cell j runs between nodes j and j+1; cell k starts at the anchor
    k = int(np.searchsorted(grid, x0))
    nodes = np.insert(grid, k, x0)
    # the grid steps over each density break by 2 * _BREAK_GAP, so the cell
    # that straddles one starts as its two smooth sides
    breaks = np.asarray(kernel.density_breaks, dtype=float)
    inner = breaks[(nodes[0] < breaks) & (breaks < nodes[-1])]
    edges = _sorted_distinct(np.concatenate((nodes, inner)))
    a, b = edges[:-1], edges[1:]
    cell = np.searchsorted(nodes, a, side="right") - 1
    # an end cell at a finite domain end that holds no atom, where psi ~
    # 1/(t - end), starts in s = log|t - end| (`_gk15_nodes`) on panels at
    # most 1 wide, so that psi times its Jacobian is smooth to the end; an
    # atom at the end keeps tau(end+) > 0 and psi bounded, so its cell stays in t
    keep, logs = np.ones(len(a), dtype=bool), []
    for i, end in ((0, kernel.domain.lo), (len(a) - 1, kernel.domain.hi)):
        if math.isfinite(end) and end not in kernel.atom_zeros:
            s0, s1 = sorted(math.log(abs(t - end)) for t in (a[i], b[i]))
            s = np.linspace(s0, s1, math.ceil(s1 - s0) + 1)
            n = len(s) - 1
            logs.append((s[:-1], s[1:], np.full(n, math.copysign(math.inf, a[i] - end)),
                         np.full(n, end), np.full(n, cell[i])))
            keep[i] = False
    kept = np.count_nonzero(keep)
    starts = [(a[keep], b[keep], np.zeros(kept), np.zeros(kept), cell[keep]), *logs]
    a, b, side, anchor, cell = (np.concatenate(column) for column in zip(*starts))
    # an absolute error in the exponent is the density's relative error, so
    # the whole integral is held to abs_tol alone
    value, error, origin = _adapt(psi, replace(config, rel_tol=np.finfo(float).tiny),
                                  a, b, side, anchor)
    expo = _outward_exponent(np.bincount(cell[origin], value, len(nodes) - 1), k)

    raw = np.exp(expo) / tau
    total = float(np.trapezoid(raw, grid))
    if not (math.isfinite(total) and total > 0.0):
        raise NumericsError("recovered density could not be normalized")
    c = 1.0 / total
    return RecoveredDensity(grid=grid, values=raw * c, normalizer=c, anchor=x0,
                            error_estimate=float(np.sum(error)))


def stein_operator(kernel: KernelFn, m: float, g: TestFunction, x):
    """(Lg)(x) = tau(x) g'(x) + (m - x) g(x), elementwise on arrays."""
    x = np.asarray(x, dtype=float)
    out = kernel.values(x) * g.f_prime(x) + (m - x) * g.f(x)
    return float(out) if np.ndim(out) == 0 else out


def density_to_csv(density: RecoveredDensity) -> str:
    """CSV interchange form: header x,p, one row per grid point."""
    _require_finite("density value", density.grid, density.values)
    buf = io.StringIO()
    buf.write("x,p\n")
    for x, p in zip(density.grid, density.values):
        buf.write(f"{x:.17g},{p:.17g}\n")
    return buf.getvalue()
