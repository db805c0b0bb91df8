"""Quantitative CLT harness: the kernel-variance bound on the total
variation distance of standardized i.i.d. sums to the standard normal,
checked against exact distances.

For X with variance sigma^2 and Stein kernel tau, the standardized sum
S_n^* = (S_n - n m) / (sigma sqrt(n)) satisfies

    d_TV(S_n^*, Z) <= 2 sqrt(Var tau(X)) / (sigma^2 sqrt(n)),

an O(n^-1/2) rate with an explicit constant.  The empirical side holds for
purely absolutely continuous specs, by one of two routes.  The
characteristic-function route inverts the closed-form characteristic
function of S_n^*,

    psi(s) = [phi_X(s / (sigma sqrt(n))) e^(-i s m / (sigma sqrt(n)))]^n,

as a Fourier series on a fixed window [-Z, Z], at a cost set by how fast
psi decays rather than by n.  The FFT route self-convolves the exact cell
masses of the law on a grid n times; it runs where psi decays too slowly,
such as small n on a density with jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    _SQRT2PI,
    DEFAULT_CONFIG,
    DistributionSpec,
    QuadratureConfig,
    Tabulated,
    _expi_minus_one,
    _ndtr,
    _piece_cf_centered,
    _piece_cf_envelope,
    _piece_mean,
    _piece_tail,
    moments,
    truncated_support,
)
from .errors import NumericsError, SpecError
from .kernels import KernelFn, _require_finite, kernel_stats, stein_kernel

MASS_DEFECT_LIMIT = 1e-3
# The FFT route's longest transform: at 2^24 points its working arrays take
# about 1 GB; a longer one is refused before anything is allocated
FFT_MAX_LEN = 1 << 24

# Characteristic-function route.  The window Z is the first of CF_WINDOWS
# whose Chernoff bound on P(|S_n^*| > Z) is below CF_TOL; M is the first
# power of two from CF_MIN_FREQS to CF_MAX_FREQS whose first M/2
# frequencies already meet CF_TOL by the decay envelope of |psi|.  The route
# evaluates one closed form per frequency and per term (a tabulated piece
# has one term per segment, other pieces one), and runs when M * terms +
# CF_FIXED_POINTS is below the FFT route's transform length: its fixed work
# (the Chernoff and envelope checks, the root refinement) takes about as
# long as an FFT convolution of CF_FIXED_POINTS points.  A result whose
# error estimate exceeds CF_ERROR_LIMIT is discarded for the FFT route.
CF_TOL = 1e-10
CF_ERROR_LIMIT = 1e-8
CF_MIN_FREQS = 512
CF_MAX_FREQS = 1 << 16
CF_FIXED_POINTS = 8192
CF_WINDOWS = (8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0, 48.0, 64.0)
_CHERNOFF_THETAS = np.geomspace(1.0 / 16.0, 128.0, 64)
# Candidate M, and the envelope's grid in units of the frequency step pi/Z:
# 16 points per decade from the first frequency any candidate M/2 drops to
# 10^3 times the last one M drops; _HALF_CUT and _FULL_CUT index the grid
# point at or below the first frequency dropped by M/2 and by M.
_FREQS = CF_MIN_FREQS << np.arange((CF_MAX_FREQS // CF_MIN_FREQS).bit_length())
_ENVELOPE_KS = np.geomspace(CF_MIN_FREQS // 2 - 1, 1e3 * CF_MAX_FREQS,
                            int(16 * math.log10(2e3 * CF_MAX_FREQS / CF_MIN_FREQS)) + 1)
_ENVELOPE_DLOG = np.diff(np.log(_ENVELOPE_KS))
_HALF_CUT = np.searchsorted(_ENVELOPE_KS, _FREQS // 2 - 1, side="right") - 1
_FULL_CUT = np.searchsorted(_ENVELOPE_KS, _FREQS - 1, side="right") - 1


@dataclass(frozen=True)
class CltCurve:
    """Bound and (for pure-AC specs) exact d_TV per n, with fitted log-log
    decay slopes."""

    ns: tuple
    bounds: tuple
    empirical: tuple | None = None
    slope_bound: float | None = None
    slope_empirical: float | None = None

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "bounds": list(self.bounds),
            "empirical": list(self.empirical) if self.empirical is not None else None,
            "slope_bound": self.slope_bound,
            "slope_empirical": self.slope_empirical,
        }


@dataclass(frozen=True)
class ConvolutionResult:
    """Exact distance plus accounting for its numeric error and the route
    ("cf" or "fft") that computed it."""

    tv: float
    mass_defect: float
    error_estimate: float | None = None
    route: str = "fft"


def _bound_from_var_tau(var_tau: float, variance: float, n: int) -> float:
    return 2.0 * math.sqrt(var_tau) / (variance * math.sqrt(n))


def clt_bound(spec: DistributionSpec, n: int,
              kernel: KernelFn = None,
              config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """2 sqrt(Var tau(X)) / (sigma^2 sqrt(n)); requires a Stein kernel."""
    if n < 1:
        raise SpecError(f"n must be >= 1, got {n}")
    if kernel is None:
        kernel = stein_kernel(spec, config=config)
    mom = moments(spec)
    _, var_tau = kernel_stats(spec, kernel, config=config)
    return _bound_from_var_tau(var_tau, mom.variance, n)


# ---------------------------------------------------------------------------
# FFT route
# ---------------------------------------------------------------------------

def _fft_len(n: int, grid_size: int) -> int:
    """Zero-padded transform length of the n-fold convolution of a grid."""
    return 1 << (n * (grid_size - 1)).bit_length()


def _fft_tv(spec: DistributionSpec, n: int, grid_size: int,
            config: QuadratureConfig) -> tuple:
    """(d_TV, mass defect) by the FFT route (see convolution_tv_result)."""
    lo, hi = truncated_support(spec, config.tail_quantile)
    edges = np.linspace(lo, hi, grid_size + 1)
    cdf = sum(c.weight * _piece_tail(c, edges, lower=True)[0] for c in spec.ac_pieces)
    w = np.diff(cdf)
    mass = float(np.sum(w))
    if not abs(1.0 - mass) <= MASS_DEFECT_LIMIT:
        raise NumericsError(
            f"cell mass {mass:.6f} is too far from 1; "
            f"the support [{lo!r}, {hi!r}] is too narrow for the grid")

    fft_len = _fft_len(n, grid_size)
    out_len = n * (grid_size - 1) + 1
    conv = np.fft.irfft(np.fft.rfft(w / mass, fft_len) ** n, fft_len)[:out_len]
    mom = moments(spec)
    dx = (hi - lo) / grid_size
    scale = math.sqrt(n * (mom.variance + dx * dx / 12.0))
    zs = (n * (lo + 0.5 * dx - mom.mean) + np.arange(out_len) * dx) / scale
    dz = dx / scale
    phi = np.exp(-0.5 * zs * zs) / _SQRT2PI
    tv = 0.5 * float(np.sum(np.abs(conv - phi * dz)))
    tv += 0.5 * (_ndtr(zs[0] - 0.5 * dz) + _ndtr(-(zs[-1] + 0.5 * dz)))
    return min(1.0, tv), abs(1.0 - mass)


# ---------------------------------------------------------------------------
# Characteristic-function route
# ---------------------------------------------------------------------------

def _centered_cf_minus_one(spec: DistributionSpec, t) -> np.ndarray:
    """phi_X(t) e^(-i t m) - 1, each piece's centring e^(i t (mean_c - m))
    applied analytically; at t = -iu the centred MGF minus one."""
    m = moments(spec).mean
    pieces = spec.ac_pieces
    total = math.fsum(c.weight for c in pieces)
    out = np.zeros(np.shape(t), dtype=complex)
    for c in pieces:
        d = _piece_cf_centered(c, t)
        rot = _expi_minus_one((_piece_mean(c) - m) * t)
        out += (c.weight / total) * (rot * (1.0 + d) + d)
    return out


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """(1 + x)^n for complex x as exp(n log|1 + x|) e^(i n arg(1 + x)), 0
    where 1 + x = 0; log1p(|1 + x|^2 - 1) keeps relative precision at small
    |x|, and log|1 + x| is direct below |1 + x|^2 = 1/2, where that rounds to -1."""
    re, im = x.real, x.imag
    sq = re * (2.0 + re) + im * im
    near = sq < -0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sq = np.log1p(sq)
        log_sq[near] = 2.0 * np.log(np.abs(1.0 + x[near]))
        modulus = np.exp(0.5 * n * log_sq)
    return modulus * np.exp(1j * (n * np.arctan2(im, 1.0 + re)))


def _window(spec: DistributionSpec, n: int, scale: float):
    """(Z, bound) for the first window in CF_WINDOWS whose Chernoff bound
    min_theta exp(n K(+-theta / scale) - theta Z), summed over both tails,
    is below CF_TOL; K is the centred cumulant generating function of X.
    None when no window qualifies."""
    thetas = _CHERNOFF_THETAS
    u = np.concatenate([thetas, -thetas]) / scale
    with np.errstate(all="ignore"):
        x = _centered_cf_minus_one(spec, -1j * u).real
        cgf = n * np.log1p(x)
        cgf = np.where((x > -1.0) & np.isfinite(cgf), cgf, np.inf)
    zs = np.asarray(CF_WINDOWS)
    exponents = cgf.reshape(2, -1, 1) - thetas[None, :, None] * zs
    bounds = np.exp(exponents.min(axis=1)).sum(axis=0)
    ok = np.flatnonzero(bounds <= CF_TOL)
    if not ok.size:
        return None
    return float(zs[ok[0]]), float(bounds[ok[0]])


def _frequencies(spec: DistributionSpec, n: int, scale: float, zwin: float):
    """(M, truncation bound at M) for the first M in _FREQS whose M/2
    frequencies already meet CF_TOL; None when none does.

    Dropping the frequencies s >= S changes the windowed density by at most
    (1/pi) int_S^inf |psi|, so d_TV by at most (Z/pi) int_S^inf |psi|, with
    |psi(s)| <= E(s) = [sum_c w_c env_c(s / scale)]^n.  The integral is a
    trapezoid in log s up to the top of _ENVELOPE_KS, plus E(s) s / (n - 1)
    above it, which bounds the rest of a tail decaying like s^-n.
    """
    step = math.pi / zwin
    s = _ENVELOPE_KS * step
    pieces = spec.ac_pieces
    total = math.fsum(c.weight for c in pieces)
    env = sum(c.weight / total * _piece_cf_envelope(c, s / scale) for c in pieces)
    with np.errstate(divide="ignore", under="ignore"):
        e = np.exp(n * np.log(np.minimum(env, 1.0)))
    if n > 1:
        beyond = e[-1] * s[-1] / (n - 1)
    else:
        beyond = 0.0 if e[-1] == 0.0 else math.inf
    g = e * s
    parts = 0.5 * (g[1:] + g[:-1]) * _ENVELOPE_DLOG
    tails = np.concatenate([np.cumsum(parts[::-1])[::-1], [0.0]]) + beyond
    ok = np.flatnonzero(tails[_HALF_CUT] <= CF_TOL * math.pi / zwin)
    if not ok.size:
        return None
    return int(_FREQS[ok[0]]), zwin / math.pi * float(tails[_FULL_CUT[ok[0]]])


def _phases(x: np.ndarray, count: int, zwin: float) -> np.ndarray:
    """e^(-i s_k x) for s_k = k pi / Z, k < count (a multiple of 32), as
    products of two short tables of exponentials."""
    base = (-1j * math.pi / zwin) * x[:, None]
    coarse = np.exp(base * (32.0 * np.arange(count // 32)))
    fine = np.exp(base * np.arange(32.0))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(x), count)


def _fourier_sums(phases: np.ndarray, weights: np.ndarray, x: np.ndarray,
                  zwin: float):
    """d = f - phi, d' and G(x) = int_{-Z}^x (f - phi) at points x, for the
    density f whose Fourier coefficients on [-Z, Z) are psi_k / (2Z);
    weights holds psi_k, s_k psi_k and psi_k / s_k (zero at k = 0)."""
    count = len(weights)
    sums = phases[:, :count] @ weights
    re, im_up, im_down = sums[:, 0].real, sums[:, 1].imag, sums[:, 2].imag
    edge = float(np.sum(weights[::2, 2].imag) - np.sum(weights[1::2, 2].imag))
    phi = np.exp(-0.5 * x * x) / _SQRT2PI
    f = (1.0 + 2.0 * re) / (2.0 * zwin)
    cdf = (x + zwin) / (2.0 * zwin) - (im_down - edge) / zwin
    return f - phi, im_up / zwin + x * phi, cdf - (_ndtr(x) - _ndtr(-zwin))


def _inverted_tv(psi: np.ndarray, zwin: float) -> tuple:
    """(d_TV, d_TV from the first half of psi, window mass) of the
    Fourier-series density against phi.

    One FFT gives f on len(psi) points of [-Z, Z).  Sign changes of f - phi
    between points where |f - phi| is above rounding level bracket the
    crossings; a Newton step on the Fourier sums refines them.  Then d_TV is
    half the sum of |G| increments between consecutive crossings, plus half
    the normal mass beyond +-Z.  The half-resolution value reuses the
    crossings: G is stationary there, so moving them changes it only to
    second order.
    """
    count = len(psi)
    alt = psi.copy()
    alt[1::2] *= -1.0
    zs = -zwin + (2.0 * zwin / count) * np.arange(count)
    dens = (2.0 * np.fft.fft(alt).real - 1.0) / (2.0 * zwin)
    diff = dens - np.exp(-0.5 * zs * zs) / _SQRT2PI
    noise = 64.0 * np.finfo(float).eps * float(np.sum(np.abs(psi))) / zwin
    sign = np.where(np.abs(diff) > noise, np.sign(diff), 0.0)
    live = np.flatnonzero(sign)
    flips = np.flatnonzero(sign[live[1:]] != sign[live[:-1]])
    left, right = live[flips], live[flips + 1]
    a, b = zs[left], zs[right]
    x = a + (b - a) * diff[left] / (diff[left] - diff[right])

    sk = np.arange(count) * (math.pi / zwin)
    sk[0] = 1.0
    weights = np.stack([psi, sk * psi, psi / sk], axis=1)
    weights[0] = 0.0
    d, slope, _ = _fourier_sums(_phases(x, count, zwin), weights, x, zwin)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.clip(np.where(slope != 0.0, x - d / slope, x), a, b)
    pts = np.concatenate([[-zwin], x, [zwin]])
    phases = _phases(pts, count, zwin)
    gaps = [_fourier_sums(phases, w, pts, zwin)[2] for w in (weights, weights[:count // 2])]
    tail = _ndtr(-zwin)
    tv, tv_half = (min(1.0, 0.5 * float(np.sum(np.abs(np.diff(g)))) + tail) for g in gaps)
    mass = float(np.sum(dens)) * (2.0 * zwin / count)
    return tv, tv_half, mass


def _cf_result(spec: DistributionSpec, n: int, grid_size: int):
    """The characteristic-function route's result, or None when its error
    bound needs M frequencies with M * terms + CF_FIXED_POINTS at least the
    FFT route's transform length for this n and grid, or when its own check
    fails."""
    terms = sum(len(c.grid) - 1 if isinstance(c, Tabulated) else 1
                for c in spec.ac_pieces)
    budget = (_fft_len(n, grid_size) - CF_FIXED_POINTS) / terms
    if budget <= CF_MIN_FREQS:
        return None
    scale = math.sqrt(moments(spec).variance) * math.sqrt(n)
    # M only grows with the window, so the smallest one rules out most
    # hopeless cases before the Chernoff bound is computed
    freqs = _frequencies(spec, n, scale, CF_WINDOWS[0])
    if freqs is None or freqs[0] >= budget:
        return None
    window = _window(spec, n, scale)
    if window is None:
        return None
    zwin, window_bound = window
    if zwin != CF_WINDOWS[0]:
        freqs = _frequencies(spec, n, scale, zwin)
        if freqs is None or freqs[0] >= budget:
            return None
    m_freqs, truncation = freqs
    s = np.arange(m_freqs) * (math.pi / zwin)
    psi = _power(_centered_cf_minus_one(spec, s / scale), n)
    tv, tv_half, mass = _inverted_tv(psi, zwin)
    err = truncation + window_bound + abs(tv - tv_half)
    if not err <= CF_ERROR_LIMIT:
        return None
    return ConvolutionResult(tv=tv, mass_defect=abs(1.0 - mass),
                             error_estimate=err, route="cf")


def convolution_tv_result(spec: DistributionSpec, n: int, grid_size: int = 4096,
                          config: QuadratureConfig = DEFAULT_CONFIG,
                          error_estimate: bool = True) -> ConvolutionResult:
    """Exact d_TV(S_n^*, Z) for a purely AC spec.

    Characteristic-function route ("cf"): psi is sampled at M frequencies
    k pi / Z and inverted on [-Z, Z] (see `_inverted_tv`).  It runs when its
    error bound holds within fewer transform points than the FFT route
    would use for this n and grid_size, its fixed work counted as
    CF_FIXED_POINTS points.  Its error estimate is the truncation bound
    plus the window's Chernoff bound plus the change against M/2
    frequencies (always computed); the mass defect is |1 - integral of f
    over the window|.

    FFT route ("fft"): every cell of a uniform grid over the
    (tail-truncated) support gets its exact mass, the CDF difference at its
    edges, and the masses are convolved n-fold with zero-padding past the
    full output length so cyclic wrap-around is structurally impossible.
    The distance is half the sum over the sum grid's cells of
    |mass - phi(z) dz|, with z standardized by sqrt(n (sigma^2 + dx^2 / 12))
    (Sheppard's variance of a law held as cell masses), plus half the
    normal mass beyond the grid.  The mass defect is the mass the
    truncation drops, at most about 2 tail_quantile; a mass more than
    MASS_DEFECT_LIMIT off 1 (a grid collapsed onto a point) raises
    NumericsError.  The error estimate is the difference against a
    half-resolution recomputation.  A transform longer than FFT_MAX_LEN
    points raises NumericsError.
    """
    if spec.atoms or spec.cantor_parts:
        raise SpecError("exact convolution distance requires a purely "
                        "absolutely continuous spec")
    if n < 1:
        raise SpecError(f"n must be >= 1, got {n}")
    if grid_size < 1024 or grid_size & (grid_size - 1):
        raise SpecError(f"grid_size must be a power of two >= 1024, got {grid_size}")

    cf = _cf_result(spec, n, grid_size)
    if cf is not None:
        return cf
    fft_len = _fft_len(n, grid_size)
    if fft_len > FFT_MAX_LEN:
        raise NumericsError(f"n={n} is out of reach: the characteristic-function route "
                            f"declines it and the FFT route would need {fft_len} points, "
                            f"above its limit of {FFT_MAX_LEN}")
    tv, defect = _fft_tv(spec, n, grid_size, config)
    err = None
    if error_estimate and grid_size >= 2048:
        coarse, _ = _fft_tv(spec, n, grid_size // 2, config)
        err = abs(tv - coarse)
    return ConvolutionResult(tv=tv, mass_defect=defect, error_estimate=err)


def convolution_tv(spec: DistributionSpec, n: int, grid_size: int = 4096,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return convolution_tv_result(spec, n, grid_size, config,
                                 error_estimate=False).tv


def rate_fit(curve: CltCurve) -> tuple:
    """Least-squares log-log slopes of the bound and empirical series.

    Needs at least 3 values of n spanning a factor of 8.
    """
    ns = np.asarray(curve.ns, dtype=float)
    if len(ns) < 3 or max(ns) / min(ns) < 8.0:
        raise SpecError("rate fit needs >= 3 values of n spanning a factor of 8")

    def slope(values):
        vals = np.asarray(values, dtype=float)
        if np.any(vals <= 0):
            return None
        return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])

    slope_bound = slope(curve.bounds)
    slope_emp = slope(curve.empirical) if curve.empirical is not None else None
    return slope_bound, slope_emp


def clt_curve(spec: DistributionSpec, ns, grid_size: int = 4096,
              config: QuadratureConfig = DEFAULT_CONFIG) -> CltCurve:
    """Assemble the bound series, the empirical series when the spec is
    purely AC, and the fitted slopes when the n-range supports a fit."""
    ns = tuple(int(n) for n in ns)
    if not ns or any(n < 1 for n in ns):
        raise SpecError("ns must be positive integers")
    kernel = stein_kernel(spec, config=config)
    mom = moments(spec)
    _, var_tau = kernel_stats(spec, kernel, config=config)
    bounds = tuple(_bound_from_var_tau(var_tau, mom.variance, n) for n in ns)

    empirical = None
    if not spec.atoms and not spec.cantor_parts:
        empirical = tuple(convolution_tv(spec, n, grid_size, config) for n in ns)

    curve = CltCurve(ns=ns, bounds=bounds, empirical=empirical)
    try:
        slope_bound, slope_emp = rate_fit(curve)
    except SpecError:
        return curve
    return replace(curve, slope_bound=slope_bound, slope_empirical=slope_emp)


def curve_to_csv(curve: CltCurve) -> str:
    """CSV interchange form: n,bound,empirical with the empirical field
    empty when undefined."""
    _require_finite("CLT value", curve.bounds, curve.empirical or ())
    lines = ["n,bound,empirical"]
    for i, n in enumerate(curve.ns):
        emp = "" if curve.empirical is None else f"{curve.empirical[i]:.17g}"
        lines.append(f"{n},{curve.bounds[i]:.17g},{emp}")
    return "\n".join(lines) + "\n"
