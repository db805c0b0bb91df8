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
the over-determined moment system that proves it is exposed as an
inconsistency witness.
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
    _positivity_intervals,
)
from .errors import DegenerateError, ExistenceError, NumericsError, SpecError

UNDERFLOW_FLOOR = 1e-300
FEASIBILITY_TOL = 1e-9
MAX_GRID = 1 << 20  # grid sizes are refused above this, before any allocation


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


def _canonical_zeros(ts, atoms=(), cantor_intervals=()) -> np.ndarray:
    """Mask of the points of ts where the canonical version vanishes: the
    atoms and the registered Cantor supports, the null sets on which h = 0."""
    ts = np.asarray(ts, dtype=float)
    zero = np.isin(ts, atoms)
    for lo, hi in cantor_intervals:
        zero |= cantor_in_support(ts, lo, hi)
    return zero


@dataclass(frozen=True)
class RadonNikodymFactor:
    """Pointwise Radon-Nikodym factor h = d(mu_ac)/d(mu) for specs in this
    universe: 0 at atoms and on Cantor supports, 1 elsewhere.  Elementwise
    on arrays; a scalar gives a float."""

    atom_locations: tuple
    cantor_intervals: tuple

    def __call__(self, t):
        h = np.where(_canonical_zeros(t, self.atom_locations, self.cantor_intervals), 0.0, 1.0)
        return float(h) if h.ndim == 0 else h


def radon_nikodym_factor(spec: DistributionSpec) -> RadonNikodymFactor:
    return RadonNikodymFactor(
        atom_locations=tuple(a.location for a in spec.atoms),
        cantor_intervals=tuple((c.lo, c.hi) for c in spec.cantor_parts),
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


def existence_check(spec: DistributionSpec,
                    config: QuadratureConfig = DEFAULT_CONFIG) -> ExistenceReport:
    """Decide whether a Stein kernel exists for the spec.

    The gate tests whether the mixture's AC density is strictly positive up
    to a Lebesgue-null set on the open interval I between the essential
    infimum and supremum: the union of the pieces' positivity intervals must
    cover I with no gap of positive length.  Verdicts: a single atom is
    degenerate; anything else without that coverage has no kernel.
    """
    sup = support(spec)
    if sup.is_degenerate:
        return ExistenceReport(Verdict.DEGENERATE)
    if not spec.ac_pieces:
        reason = Reason.PURELY_ATOMIC if not spec.cantor_parts else Reason.AC_PART_ZERO
        return ExistenceReport(Verdict.NOT_EXISTS, (reason,))

    covered = _merge_intervals(
        iv for c in spec.ac_pieces for iv in _positivity_intervals(c))

    gap = None
    if covered[0][0] > sup.lo:
        gap = (sup.lo, covered[0][0])
    else:
        reach = covered[0][1]
        for lo, hi in covered[1:]:
            if lo > reach and reach < sup.hi:
                gap = (reach, min(lo, sup.hi))
                break
            reach = max(reach, hi)
        if gap is None and reach < sup.hi:
            gap = (reach, sup.hi)

    if gap is None:
        return ExistenceReport(Verdict.EXISTS)
    reasons = [Reason.DENSITY_VANISHES]
    if spec.singular_mass > 0:
        reasons.append(Reason.SINGULAR_MASS_INFO)
    return ExistenceReport(Verdict.NOT_EXISTS, tuple(reasons), failing_region=gap)


# ---------------------------------------------------------------------------
# Non-zero-bias density
# ---------------------------------------------------------------------------

def nz_density(spec: DistributionSpec, t,
               config: QuadratureConfig = DEFAULT_CONFIG):
    """Density q(t) = sigma^-2 E[(X - m) 1{X >= t}] of the non-zero-biased
    distribution; vanishes outside the closed support interval.

    Defined for every non-degenerate spec, whether or not a kernel exists.
    Accepts scalars or arrays.
    """
    mom = moments(spec)
    if mom.variance <= 0.0:
        raise DegenerateError("non-zero-bias density undefined for a point mass")
    sup = support(spec)
    arr = np.asarray(t, dtype=float)
    q = partial_expectation(spec, arr) / mom.variance
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
    format.  `values` is the one place the version rules are applied.
    """

    domain: SupportInterval
    form: str
    params: dict
    grid_t: np.ndarray
    grid_tau: np.ndarray
    atom_zeros: tuple
    cantor_intervals: tuple = ()
    density_breaks: tuple = ()
    _fn_vec: Callable = field(default=None, repr=False)

    def evaluate(self, t: float) -> float:
        """Kernel value at a point, applying the canonical version rules."""
        return float(self.values(t))

    __call__ = evaluate

    def values(self, ts) -> np.ndarray:
        """Vectorized pointwise evaluation with all version rules applied."""
        ts = np.asarray(ts, dtype=float)
        return np.where(_canonical_zeros(ts, self.atom_zeros, self.cantor_intervals),
                        0.0, self.values_ae(ts))

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
    sigma^2 q h / p evaluated exactly, and sampled on `grid_size`
    Chebyshev-clustered points spanning the (tail-truncated) support.
    """
    if not 16 <= grid_size <= MAX_GRID:
        raise SpecError(f"grid_size must lie in [16, {MAX_GRID}], got {grid_size}")
    report = existence_check(spec, config)
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
    breaks = set(atom_zeros) | set(spec.density_breaks)
    density_breaks = tuple(sorted(b for b in breaks if lo < b < hi))

    if len(spec.components) == 1:
        c = spec.components[0]
        fn_vec = None
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
        if fn_vec is not None:
            grid_t = _chebyshev_interior(lo, hi, grid_size)
            grid_tau = np.maximum(fn_vec(grid_t), 0.0)
            return KernelFn(domain=SupportInterval(sup.lo, sup.hi), form=form,
                            params=params, grid_t=grid_t, grid_tau=grid_tau,
                            atom_zeros=atom_zeros, density_breaks=density_breaks,
                            _fn_vec=fn_vec)

    def fn_vec(ts):
        # sigma^2 * q / p with sigma^2 q written as the partial expectation;
        # the zeros of h are left to `values`
        pe = np.maximum(partial_expectation(spec, ts), 0.0)
        p = ac_density(spec, ts)
        return np.divide(pe, p, out=np.zeros_like(pe), where=p >= UNDERFLOW_FLOOR)

    grid_t = _chebyshev_interior(lo, hi, grid_size)
    grid_t = grid_t[~_canonical_zeros(grid_t, atom_zeros)]
    dens = ac_density(spec, grid_t)
    bad = np.nonzero(dens < UNDERFLOW_FLOOR)[0]
    if len(bad):
        raise NumericsError(
            f"AC density underflows below {UNDERFLOW_FLOOR} inside the support "
            f"interval at t={grid_t[bad[0]]!r}")
    pe = np.maximum(partial_expectation(spec, grid_t), 0.0)
    grid_tau = np.where(_canonical_zeros(grid_t, cantor_intervals=cantor_iv), 0.0, pe / dens)
    return KernelFn(domain=SupportInterval(sup.lo, sup.hi), form="grid", params={},
                    grid_t=grid_t, grid_tau=grid_tau, atom_zeros=atom_zeros,
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
    """(E[tau(X)], Var(tau(X))) under the mixture.

    Atoms and the singular support carry kernel value zero in the canonical
    version, so they contribute only to the spread around the mean.
    """
    mean_tau, second = expect(spec, lambda x, tau: np.stack([tau, tau * tau]),
                              kernel=kernel, config=config)
    return float(mean_tau), max(float(second - mean_tau * mean_tau), 0.0)


def nz_mass(spec: DistributionSpec, lo: float, hi: float,
            config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """integral of the non-zero-bias density q over [lo, hi].

    Computed without quadrature of q itself: Fubini turns the integral into
    sigma^-2 E[(X - m) (clamp(X, lo, hi) - lo)], an expectation of a
    piecewise-smooth function that every component evaluates accurately.
    """
    mom = moments(spec)
    if mom.variance <= 0.0:
        raise DegenerateError("non-zero-bias density undefined for a point mass")
    m = mom.mean
    total = expect(spec, lambda x, _: (x - m) * (np.clip(x, lo, hi) - lo),
                   extra_breaks=(lo, hi), config=config)
    return float(total) / mom.variance


# ---------------------------------------------------------------------------
# Discrete inconsistency witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InconsistencyWitness:
    """Least-squares verdict on the moment system a purely atomic law imposes
    on its would-be kernel values.

    residual_norm > 0 iff the system is infeasible.  For a feasible system
    (single atoms) `assignment` maps each atom location to its kernel value.
    For two symmetric atoms, `functions` and `implied_values` name the two
    monomials whose equations pin the same linear combination of kernel
    values to incompatible constants.
    """

    residual_norm: float
    functions: tuple | None = None
    implied_values: tuple | None = None
    assignment: dict | None = None

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def discrete_witness(spec: DistributionSpec) -> InconsistencyWitness:
    """Build and solve the moment system for a purely atomic spec.

    With k atoms, the Stein identity against the monomials x^j for
    j = 1..k+1 gives k+1 linear equations in the k unknown kernel values;
    the least-squares residual certifies (in)feasibility.  Two equal-mass
    atoms at +/-c yield the classic pair of incompatible implied values for
    tau(c) + tau(-c), reported via the j = 1 and j = 3 equations.
    """
    atoms = spec.atoms
    if len(atoms) != len(spec.components):
        raise SpecError("discrete witness is defined for purely atomic specs")
    k = len(atoms)
    locs = np.array([a.location for a in atoms])
    masses = np.array([a.mass for a in atoms])
    m = float(np.sum(masses * locs))

    rows = []
    rhs = []
    for j in range(1, k + 2):
        rows.append(masses * j * locs ** (j - 1))
        rhs.append(float(np.sum(masses * (locs - m) * locs ** j)))
    a_mat = np.vstack(rows)
    b_vec = np.array(rhs)

    sol, _, _, _ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    residual = float(np.linalg.norm(a_mat @ sol - b_vec))

    scale = max(1.0, float(np.max(np.abs(b_vec))))
    if residual <= FEASIBILITY_TOL * scale:
        assignment = {float(x): float(v) + 0.0 for x, v in zip(locs, sol)}
        return InconsistencyWitness(residual_norm=0.0, assignment=assignment)

    functions = implied = None
    if k == 2:
        (x1, p1), (x2, p2) = sorted(zip(locs, masses))
        if math.isclose(x2, -x1, rel_tol=1e-12, abs_tol=0.0) and math.isclose(p1, p2, rel_tol=1e-12):
            # rows j=1 and j=3 both constrain tau(x1) + tau(x2)
            functions = ("x^1", "x^3")
            implied = (b_vec[0] / a_mat[0, 0], b_vec[2] / a_mat[2, 0])
    return InconsistencyWitness(residual_norm=residual, functions=functions,
                                implied_values=implied)


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------

def kernel_to_csv(kernel: KernelFn) -> str:
    """CSV interchange form: header t,tau, one row per grid point, then one
    row per atom with tau = 0 and a trailing `# atom` comment."""
    buf = io.StringIO()
    buf.write("t,tau\n")
    for t, v in zip(kernel.grid_t, kernel.grid_tau):
        buf.write(f"{t:.17g},{v:.17g}\n")
    for loc in kernel.atom_zeros:
        buf.write(f"{loc:.17g},0 # atom\n")
    return buf.getvalue()
