"""Stein kernel existence, construction, and certification.

A Stein kernel for a square-integrable law mu with mean m is a function tau
with E[tau(X) f'(X)] = E[(X - m) f(X)] for every C^1 test function f with
bounded derivative.  A kernel exists iff the Lebesgue density of the
absolutely continuous part of mu is strictly positive (up to a null set) on
the open interval between the essential infimum and supremum.  When it
exists, the canonical version returned here is

    tau(t) = sigma^2 * q(t) * h(t) / p(t)   on the open support interval,

with q the non-zero-bias density, p the AC density, and h the
Radon-Nikodym factor of the AC part with respect to mu; tau vanishes off
the support interval, at every atom, and on the Cantor-type singular
support.  Purely atomic laws with two or more atoms admit no kernel, and
the gap between two atoms on which sigma^2 q is a positive constant, the
certificate that proves it, is exposed as an inconsistency witness.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import (
    DEFAULT_CONFIG,
    DistributionSpec,
    Exponential,
    Normal,
    QuadratureConfig,
    SupportInterval,
    Uniform,
    ac_density,
    cantor_in_support,
    expect,
    moments,
    partial_expectation,
    support,
    truncated_support,
    _count,
    _positive_variance,
    _positivity_intervals,
    _tail_sums,
)
from .errors import DegenerateError, ExistenceError, NumericsError, SpecError

UNDERFLOW_FLOOR = 1e-300
MAX_GRID = 1 << 20  # grid sizes are refused above this, before any allocation
_VAR_TAU_OVERFLOW = "Var tau: E (tau - sigma^2)^2 overflows the float range"


class Verdict(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    DEGENERATE = "degenerate"


class Reason(enum.Enum):
    AC_PART_ZERO = "ac_part_zero"
    DENSITY_VANISHES = "density_vanishes_on_subinterval"
    PURELY_ATOMIC = "purely_atomic"
    SINGULAR_MASS_INFO = "singular_mass_blocks_nothing"


@dataclass(frozen=True)
class ExistenceReport:
    """Verdict of the existence gate with machine-readable failure reasons."""

    verdict: Verdict
    reasons: tuple = ()
    failing_region: tuple | None = None

    @property
    def exists(self) -> bool:
        return self.verdict is Verdict.EXISTS

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reasons": [r.value for r in self.reasons],
            "failing_region": list(self.failing_region) if self.failing_region else None,
        }


@dataclass(frozen=True)
class TestFunction:
    """A C^1 test function with its exact derivative and a derivative bound
    valid on the working interval."""

    __test__ = False  # keep pytest from collecting this as a test class

    id: str
    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    derivative_bound: float

    def derivative_mismatch(self, lo: float, hi: float, n: int = 100, seed: int = 0) -> float:
        """Largest relative error of f_prime against central differences of f
        at n random interior points.  Used to enforce the exactness invariant."""
        rng = np.random.default_rng(seed)
        ts = rng.uniform(lo, hi, size=n)
        h = 1e-6 * max(abs(lo), abs(hi), 1.0)
        fd = (self.f(ts + h) - self.f(ts - h)) / (2.0 * h)
        exact = self.f_prime(ts)
        return float(np.max(np.abs(fd - exact) / np.maximum(np.abs(exact), 1.0), initial=0.0))


def _sech_squared(t):
    # 1/cosh^2 without overflowing cosh for large |t|
    e = np.exp(-2.0 * np.abs(t))
    return 4.0 * e / (1.0 + e) ** 2


def standard_test_functions(lo: float, hi: float) -> tuple:
    """The certification family {x, x^2, x^3, sin, cos, tanh, arctan} with
    derivative bounds taken over [lo, hi]."""
    c = max(abs(lo), abs(hi))
    return (
        TestFunction("x", lambda t: t, lambda t: 1.0, 1.0),
        TestFunction("x^2", lambda t: t * t, lambda t: 2.0 * t, 2.0 * c),
        TestFunction("x^3", lambda t: t ** 3, lambda t: 3.0 * t * t, 3.0 * c * c),
        TestFunction("sin", np.sin, np.cos, 1.0),
        TestFunction("cos", np.cos, lambda t: -np.sin(t), 1.0),
        TestFunction("tanh", np.tanh, _sech_squared, 1.0),
        TestFunction("arctan", np.arctan, lambda t: 1.0 / (1.0 + t * t), 1.0),
    )


# ---------------------------------------------------------------------------
# Existence gate
# ---------------------------------------------------------------------------

def _merge_intervals(intervals):
    """Merge open intervals whose closures touch; single shared endpoints are
    Lebesgue-null and do not break coverage."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def existence_check(spec: DistributionSpec) -> ExistenceReport:
    """Decide whether a Stein kernel exists for the spec.

    The gate tests whether the mixture's AC density is strictly positive up
    to a Lebesgue-null set on the open interval I between the essential
    infimum and supremum: the union of the pieces' positivity intervals must
    cover I with no gap of positive length, decided exactly without a
    tolerance.  A single atom is degenerate; otherwise no cover, no kernel.
    """
    sup = support(spec)
    if sup.is_degenerate:
        return ExistenceReport(Verdict.DEGENERATE)
    if not spec.ac_pieces:
        reason = Reason.PURELY_ATOMIC if not spec.cantor_parts else Reason.AC_PART_ZERO
        return ExistenceReport(Verdict.NOT_EXISTS, (reason,))

    covered = _merge_intervals(
        iv for c in spec.ac_pieces for iv in _positivity_intervals(c))

    # the cover is sorted and disjoint, so the spans of its complement in
    # [sup.lo, sup.hi] run between consecutive ends
    ends = [sup.lo, *(e for iv in covered for e in iv), sup.hi]
    gap = next(((a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b), None)

    if gap is None:
        return ExistenceReport(Verdict.EXISTS)
    reasons = [Reason.DENSITY_VANISHES]
    if spec.singular_mass > 0:
        reasons.append(Reason.SINGULAR_MASS_INFO)
    return ExistenceReport(Verdict.NOT_EXISTS, tuple(reasons), failing_region=gap)


# ---------------------------------------------------------------------------
# Non-zero-bias density
# ---------------------------------------------------------------------------

def nz_density(spec: DistributionSpec, t):
    """Density q(t) = sigma^-2 E[(X - m) 1{X >= t}] of the non-zero-biased
    distribution; vanishes outside the closed support interval.

    Defined for every law with sigma^2 > 0 (`_positive_variance`), whether
    or not a kernel exists.  Accepts scalars or arrays.
    """
    var = _positive_variance(spec, "the non-zero-bias density")
    sup = support(spec)
    arr = np.asarray(t, dtype=float)
    q = partial_expectation(spec, arr) / var
    q = np.where((arr < sup.lo) | (arr > sup.hi), 0.0, np.maximum(q, 0.0))
    if np.ndim(t) == 0:
        return float(q)
    return q


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KernelFn:
    """A Stein kernel in the canonical version: zero off the open support
    interval, zero at every atom, zero on the Cantor-type singular support.

    `form` is one of constant | polynomial-over-interval | linear (single
    closed-form pieces) or grid (general mixtures).  Evaluation goes through
    the generating rule in the array function `_fn_vec`, so grid kernels
    are exact at and between their export abscissae; `grid_t`/`grid_tau`
    are the canonical sampled representation used by the CSV interchange
    format, `grid_tau` read through `values`, the one place the version
    rules are applied.
    """

    domain: SupportInterval
    form: str
    params: dict
    grid_t: np.ndarray
    atom_zeros: tuple
    cantor_intervals: tuple = ()
    density_breaks: tuple = ()
    _fn_vec: Callable = field(default=None, repr=False)
    # expect's starting-pass plan {config: (spec, nodes, values)}, empty on a copy
    _start_pass: dict = field(default_factory=dict, init=False, repr=False)
    # `_tau_moments` {config: (spec, E r, Var r)}, for the last spec met, empty on a copy
    _r_moments: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def grid_tau(self) -> np.ndarray:
        """The kernel at the export abscissae grid_t."""
        return self.values(self.grid_t)

    def evaluate(self, t: float) -> float:
        """Kernel value at a point, applying the canonical version rules."""
        return float(self.values(t))

    __call__ = evaluate

    def values(self, ts) -> np.ndarray:
        """Vectorized pointwise evaluation with all version rules applied:
        zero at the atoms and on the registered Cantor supports, the null
        sets on which the Radon-Nikodym factor h vanishes; at a density
        break, the right-continuous AC density (each piece's on [lo, hi)),
        which no rewrite of the spec's pieces changes."""
        ts = np.asarray(ts, dtype=float)
        zero = np.isin(ts, self.atom_zeros)
        for lo, hi in self.cantor_intervals:
            zero |= cantor_in_support(ts, lo, hi)
        out = np.zeros_like(ts)  # values_ae is elementwise: bitwise the same on fewer points
        if not zero.all():
            out[~zero] = self.values_ae(ts[~zero])
        return out

    def values_ae(self, ts) -> np.ndarray:
        """Vectorized evaluation of the Lebesgue-a.e. version: the pointwise
        zeros on atoms and the Cantor set (both null sets) are not applied,
        which is exactly what integrals against Lebesgue measure need."""
        ts = np.asarray(ts, dtype=float)
        out = np.maximum(np.asarray(self._fn_vec(ts), dtype=float), 0.0)
        return np.where((ts <= self.domain.lo) | (ts >= self.domain.hi), 0.0, out)

    def descriptor(self) -> dict | None:
        """JSON descriptor for closed forms; None for grid kernels."""
        if self.form == "grid":
            return None
        return {"form": self.form, "params": dict(self.params)}


def _chebyshev_interior(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-clustered points strictly inside (lo, hi); clustering near
    the endpoints keeps the q/p ratio well resolved where p may vanish."""
    k = np.arange(n)
    theta = (2 * k + 1) * math.pi / (2 * n)
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(theta)


def stein_kernel(spec: DistributionSpec, grid_size: int = 4096,
                 config: QuadratureConfig = DEFAULT_CONFIG) -> KernelFn:
    """Construct the canonical Stein kernel for a spec that passes the
    existence gate.

    Single uniform, normal, and exponential pieces take their closed forms
    ((t-lo)(hi-t)/2 rescaled to the interval, the constant variance, and
    t/rate respectively); every other spec is built from the general rule
    sigma^2 q h / p evaluated exactly.  The export abscissae `grid_t` are
    `grid_size` Chebyshev-clustered points spanning the (tail-truncated)
    support, less the atoms of a grid kernel, where its AC density must not
    underflow; the rule itself is evaluated only when the kernel is.
    """
    grid_size = _count("grid_size", grid_size, 16, MAX_GRID)
    report = existence_check(spec)
    if report.verdict is Verdict.DEGENERATE:
        raise DegenerateError("a point mass admits the trivial kernel only; "
                              "no grid construction is defined")
    if report.verdict is not Verdict.EXISTS:
        raise ExistenceError(
            f"no Stein kernel exists: {', '.join(r.value for r in report.reasons)}",
            report=report)

    sup = support(spec)
    lo, hi = truncated_support(spec, config.tail_quantile)
    atom_zeros = tuple(a.location for a in spec.atoms)
    cantor_iv = tuple((c.lo, c.hi) for c in spec.cantor_parts)
    density_breaks = tuple(b for b in spec._kernel_breaks if lo < b < hi)

    fn_vec = None
    if len(spec.components) == 1:
        c = spec.components[0]
        if isinstance(c, Uniform):
            a, b = c.lo, c.hi
            fn_vec = lambda ts: 0.5 * (ts - a) * (b - ts)
            form, params = "polynomial-over-interval", {"lo": a, "hi": b}
        elif isinstance(c, Normal):
            v = c.sd * c.sd
            fn_vec = lambda ts: np.full_like(ts, v)
            form, params = "constant", {"value": v}
        elif isinstance(c, Exponential):
            r = c.rate
            fn_vec = lambda ts: ts / r
            form, params = "linear", {"slope": 1.0 / r, "origin": 0.0}

    grid_t = _chebyshev_interior(lo, hi, grid_size)
    if fn_vec is None:
        def fn_vec(ts):
            # sigma^2 * q / p with sigma^2 q written as the partial expectation;
            # the zeros of h are left to `values`
            pe = np.maximum(partial_expectation(spec, ts), 0.0)
            p = ac_density(spec, ts)
            return np.divide(pe, p, out=np.zeros_like(pe), where=p >= UNDERFLOW_FLOOR)

        form, params = "grid", {}
        grid_t = grid_t[~np.isin(grid_t, atom_zeros)]
        bad = np.nonzero(ac_density(spec, grid_t) < UNDERFLOW_FLOOR)[0]
        if len(bad):
            raise NumericsError(
                f"AC density underflows below {UNDERFLOW_FLOOR} inside the support "
                f"interval at t={float(grid_t[bad[0]])!r}")
    return KernelFn(domain=SupportInterval(sup.lo, sup.hi), form=form, params=params,
                    grid_t=grid_t, atom_zeros=atom_zeros,
                    cantor_intervals=cantor_iv, density_breaks=density_breaks,
                    _fn_vec=fn_vec)


# ---------------------------------------------------------------------------
# Certification and statistics
# ---------------------------------------------------------------------------

def stein_residual(spec: DistributionSpec, kernel: KernelFn, tf: TestFunction,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """E[tau(X) f'(X)] - E[(X - m) f(X)] for the given kernel and test
    function; a valid kernel drives this below the certification tolerance.

    Both sides form one integrand under `expect`, so the AC part, the atoms
    (where the canonical kernel vanishes) and the Cantor cells are each
    evaluated once.
    """
    m = moments(spec).mean
    return float(expect(spec, lambda x, tau: tau * tf.f_prime(x) - (x - m) * tf.f(x),
                        kernel=kernel, config=config))


def kernel_stats(spec: DistributionSpec, kernel: KernelFn,
                 config: QuadratureConfig = DEFAULT_CONFIG) -> tuple:
    """(E[tau(X)], Var(tau(X))) under the mixture, as sigma^2 + sigma^2 E r
    and sigma^4 Var r from `_tau_moments`.  The canonical kernel vanishes at
    the atoms and on the singular support, so r = -1 there."""
    var = moments(spec).variance
    mean_r, var_r = _tau_moments(spec, kernel, config)
    var_tau = var * (var * var_r)
    if var_tau == math.inf:
        raise NumericsError(_VAR_TAU_OVERFLOW)
    return var + var * mean_r, var_tau


def _tau_moments(spec: DistributionSpec, kernel: KernelFn, config: QuadratureConfig) -> tuple:
    """(E r, Var r), r = tau(X) / sigma^2 - 1, from one `expect` over its
    rows; Var r = E r^2 - (E r)^2 does not cancel, since E r is about 0.
    The kernel keeps them for the last spec (by identity) and config it
    met, as it keeps its starting pass, so `kernel_stats`,
    `discrepancy_bounds` and `clt_bound` share one integration."""
    memo = kernel._r_moments
    hit = memo.get(config)
    if hit is None or hit[0] is not spec:
        memo.clear()
        var = moments(spec).variance
        mean_r, sq = expect(spec, lambda x, tau: _r_rows(tau, var), kernel=kernel, config=config)
        hit = memo[config] = spec, float(mean_r), max(float(sq) - float(mean_r) ** 2, 0.0)
    return hit[1:]


def _r_rows(tau, var: float) -> np.ndarray:
    """The rows [r, r^2] of r = tau / sigma^2 - 1, which is the same for
    every scaled copy of a law.  A sigma^2 below the smallest normal float,
    or an r^2 past the float range, raises NumericsError before any warning."""
    if not var >= np.finfo(float).tiny:
        raise NumericsError(f"sigma^2 = {var!r} is below the smallest normal float")
    with np.errstate(over="ignore"):
        r = tau / var - 1.0
        sq = r * r
    if np.isinf(sq).any():
        raise NumericsError(_VAR_TAU_OVERFLOW)
    return np.stack([r, sq])


def nz_mass(spec: DistributionSpec, lo: float, hi: float) -> float:
    """integral of the non-zero-bias density q from lo to hi (negative for
    lo > hi), for sigma^2 > 0 as in nz_density; lo and hi may be infinite.

    Closed form, with no quadrature: sigma^2 q = -M' for M(x) =
    E[(X - m)(X - x)+], so the integral is (M(lo) - M(hi)) / sigma^2, with
    M read from `_tail_sums` on each end's side of the mean (sigma^2 - K
    below it, K above it) and M(-inf) = sigma^2, M(inf) = 0.
    """
    var = _positive_variance(spec, "the non-zero-bias density")
    x = np.array([lo, hi], dtype=float)
    lower = x < moments(spec).mean
    k = np.zeros(2)
    finite = np.isfinite(x)
    k[finite] = _tail_sums(spec, x[finite], lower[finite])[1]
    # M = sigma^2 - K below the mean and K above it; sigma^2 cancels exactly
    # where both ends lie on the same side
    k = np.where(lower, -k, k)
    return float(var * (int(lower[0]) - int(lower[1])) + k[0] - k[1]) / var


# ---------------------------------------------------------------------------
# Discrete inconsistency witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InconsistencyWitness:
    """The paper's certificate (J, c) that a purely atomic law has no Stein
    kernel.  On the gap J between two adjacent atoms, a mu-null open
    interval, sigma^2 q(t) = E[(X - m) 1{X >= t}] is a constant c > 0, so a
    test function f with f' a bump in J has E[tau f'] = 0 for every tau but
    E[(X - m) f] = c * int f' > 0.

    `interval` is the J with the largest c, and `residual_norm` is that c.
    A single atom has the trivial kernel: residual_norm 0 and `assignment`
    {x: 0}.  For two equal-mass atoms at +/-x, `implied_values` holds what
    the identities at the `functions` x and x^3 force on tau(x) + tau(-x),
    E[(X - m) X^j] / (j p x^(j-1)): the incompatible 2x^2 and 2x^2/3.
    """

    residual_norm: float
    functions: tuple | None = None
    implied_values: tuple | None = None
    assignment: dict | None = None
    interval: tuple | None = None

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def discrete_witness(spec: DistributionSpec) -> InconsistencyWitness:
    """The witness of a purely atomic spec: c on every gap between adjacent
    atoms from one `partial_expectation` call at their midpoints."""
    atoms = spec.atoms
    if len(atoms) != len(spec.components):
        raise SpecError("discrete witness is defined for purely atomic specs")
    if len(atoms) == 1:
        return InconsistencyWitness(residual_norm=0.0, assignment={atoms[0].location: 0.0})
    locs = np.sort([a.location for a in atoms])
    # 0.5 a + 0.5 b, unlike (a + b) / 2, cannot overflow
    c = partial_expectation(spec, 0.5 * locs[:-1] + 0.5 * locs[1:])
    i = int(np.argmax(c))

    functions = implied = None
    if len(atoms) == 2:
        (x1, p1), (x2, p2) = sorted((a.location, a.mass) for a in atoms)
        if math.isclose(x2, -x1, rel_tol=1e-12, abs_tol=0.0) and math.isclose(p1, p2, rel_tol=1e-12):
            m = moments(spec).mean
            functions = ("x^1", "x^3")
            implied = tuple(sum(a.mass * (a.location - m) * a.location ** j for a in atoms)
                            / (j * p1 * x1 ** (j - 1)) for j in (1, 3))
    return InconsistencyWitness(residual_norm=float(c[i]), functions=functions,
                                implied_values=implied,
                                interval=(float(locs[i]), float(locs[i + 1])))


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------

def _require_finite(what: str, *values) -> None:
    """Raise NumericsError unless every value is finite: the CSV forms, like
    the JSON renderer, carry numbers only."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise NumericsError(f"non-finite {what} in CSV output")


def kernel_to_csv(kernel: KernelFn) -> str:
    """CSV interchange form: header t,tau, one row per grid point, then one
    row per atom with tau = 0 and a trailing `# atom` comment."""
    tau = kernel.grid_tau
    _require_finite("kernel value", kernel.grid_t, tau)
    buf = io.StringIO()
    buf.write("t,tau\n")
    for t, v in zip(kernel.grid_t, tau):
        buf.write(f"{t:.17g},{v:.17g}\n")
    for loc in kernel.atom_zeros:
        buf.write(f"{loc:.17g},0 # atom\n")
    return buf.getvalue()
