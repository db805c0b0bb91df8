"""Quantitative CLT harness: the kernel-variance bound on the total
variation distance of standardized i.i.d. sums to the standard normal,
checked against exact distances.

For X with variance sigma^2 and Stein kernel tau, the standardized sum
S_n^* = (S_n - n m) / (sigma sqrt(n)) satisfies

    d_TV(S_n^*, Z) <= 2 sqrt(Var tau(X)) / (sigma^2 sqrt(n)) = 2 sqrt(Var r / n),

r = tau(X) / sigma^2 - 1, an O(n^-1/2) rate with an explicit, scale-free
constant.  The empirical side holds for
purely absolutely continuous specs, by one of two routes.  The
characteristic-function route inverts the closed-form characteristic
function of S_n^*,

    psi(s) = [phi_X(s / (sigma sqrt(n))) e^(-i s m / (sigma sqrt(n)))]^n,

as a Fourier series on a fixed window [-Z, Z], at a cost set by how fast
psi decays rather than by n.  The FFT route self-convolves the exact cell
masses of the law on a grid n times; it runs where psi decays too slowly,
such as small n on a density with jumps.

A curve evaluates the law once for all its n, and inverts every n with the
same number of frequencies together; n = 1 takes no transform.  A single n
is the curve of that one n, and its value is the same in any curve.
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
    _count,
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
from .kernels import KernelFn, _require_finite, _tau_moments, stein_kernel

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
# A curve's ns go through the characteristic-function route in groups of
# this many, so that its working arrays do not grow with the curve's length
_CF_GROUP = 4


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


def clt_bound(spec: DistributionSpec, n: int,
              kernel: KernelFn = None,
              config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """2 sqrt(Var tau(X)) / (sigma^2 sqrt(n)) as 2 sqrt(Var r / n), r =
    tau / sigma^2 - 1, which forms no sigma^4; requires a Stein kernel, n >= 1."""
    n = _count("n", n, 1)
    if kernel is None:
        kernel = stein_kernel(spec, config=config)
    _, var_r = _tau_moments(spec, kernel, config)
    return 2.0 * math.sqrt(var_r / n)


# ---------------------------------------------------------------------------
# FFT route
# ---------------------------------------------------------------------------

def _fft_len(n: int, grid_size: int) -> int:
    """Zero-padded transform length of the n-fold convolution of a grid."""
    return 1 << (n * (grid_size - 1)).bit_length()


def _power_by_squaring(f: np.ndarray, n: int) -> np.ndarray:
    """f^n elementwise for an integer n >= 1, by repeated squaring."""
    if n == 1:
        return f
    half = _power_by_squaring(f * f, n >> 1)
    return half * f if n & 1 else half


def _fft_tvs(spec: DistributionSpec, ns, grid_size: int,
             config: QuadratureConfig) -> list:
    """[(d_TV, mass defect)] by the FFT route for each n in ns, from one set
    of cell masses (see convolution_tv_result): n = 1 takes the masses as
    they are, a larger n the n-th power of their transform."""
    if not ns:
        return []
    lo, hi = truncated_support(spec, config.tail_quantile)
    edges = np.linspace(lo, hi, grid_size + 1)
    cdf = sum(c.weight * _piece_tail(c, edges, lower=True)[0] for c in spec.ac_pieces)
    w = np.diff(cdf)
    mass = float(np.sum(w))
    if not abs(1.0 - mass) <= MASS_DEFECT_LIMIT:
        raise NumericsError(
            f"cell mass {mass:.6f} is too far from 1; "
            f"the support [{lo!r}, {hi!r}] is too narrow for the grid")
    w /= mass
    mom = moments(spec)
    dx = (hi - lo) / grid_size
    out = []
    for n in ns:
        fft_len, out_len = _fft_len(n, grid_size), n * (grid_size - 1) + 1
        if fft_len > FFT_MAX_LEN:
            raise NumericsError(f"n={n} is out of reach: the characteristic-function route "
                                f"declines it and the FFT route would need {fft_len} points, "
                                f"above its limit of {FFT_MAX_LEN}")
        conv = w
        if n > 1:
            conv = np.fft.irfft(_power_by_squaring(np.fft.rfft(w, fft_len), n), fft_len)[:out_len]
        scale = math.sqrt(n * (mom.variance + dx * dx / 12.0))
        zs = (n * (lo + 0.5 * dx - mom.mean) + np.arange(out_len) * dx) / scale
        dz = dx / scale
        phi = np.exp(-0.5 * zs * zs) / _SQRT2PI
        tv = 0.5 * float(np.sum(np.abs(conv - phi * dz)))
        tv += 0.5 * (_ndtr(zs[0] - 0.5 * dz) + _ndtr(-(zs[-1] + 0.5 * dz)))
        out.append((min(1.0, tv), abs(1.0 - mass)))
    return out


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


def _power(x: np.ndarray, n) -> np.ndarray:
    """(1 + x)^n for complex x (n a scalar or like x) as exp(n log|1 + x|)
    e^(i n arg(1 + x)), 0 where 1 + x = 0; log1p(|1 + x|^2 - 1) keeps relative
    precision at small |x|, and log|1 + x| is direct below |1 + x|^2 = 1/2."""
    re, im = x.real, x.imag
    sq = re * (2.0 + re) + im * im
    near = sq < -0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sq = np.log1p(sq)
        log_sq[near] = 2.0 * np.log(np.abs(1.0 + x[near]))
        modulus = np.exp(0.5 * n * log_sq)
    return modulus * np.exp(1j * (n * np.arctan2(im, 1.0 + re)))


def _windows(spec: DistributionSpec, ns: np.ndarray, scales: np.ndarray) -> tuple:
    """(Z, bound) per n: the first window in CF_WINDOWS whose Chernoff bound
    min_theta exp(n K(+-theta / scale) - theta Z), summed over both tails,
    is below CF_TOL, and that bound; Z is nan where no window qualifies.  K
    is the centred cumulant generating function of X, evaluated once for
    every n."""
    thetas = _CHERNOFF_THETAS
    u = np.concatenate([thetas, -thetas]) / scales[:, None]
    with np.errstate(all="ignore"):
        x = _centered_cf_minus_one(spec, -1j * u).real
        cgf = ns[:, None] * np.log1p(x)
        cgf = np.where((x > -1.0) & np.isfinite(cgf), cgf, np.inf)
    zs = np.asarray(CF_WINDOWS)
    exponents = cgf.reshape(len(ns), 2, len(thetas), 1) - thetas[:, None] * zs
    bounds = np.exp(exponents.min(axis=2)).sum(axis=1)
    ok = bounds <= CF_TOL
    rows, first = np.arange(len(ns)), ok.argmax(axis=1)
    return np.where(ok[rows, first], zs[first], np.nan), bounds[rows, first]


def _frequencies(spec: DistributionSpec, ns: np.ndarray, scales: np.ndarray,
                 zwins: np.ndarray) -> tuple:
    """(M, truncation bound at M) per n: the first M in _FREQS whose M/2
    frequencies of the window Z already meet CF_TOL; M is inf where none
    does.

    Dropping the frequencies s >= S changes the windowed density by at most
    (1/pi) int_S^inf |psi|, so d_TV by at most (Z/pi) int_S^inf |psi|, with
    |psi(s)| <= E(s) = [sum_c w_c env_c(s / scale)]^n.  The integral is a
    trapezoid in log s up to the top of _ENVELOPE_KS, plus E(s) s / (n - 1)
    above it, which bounds the rest of a tail decaying like s^-n.
    """
    s = _ENVELOPE_KS * (math.pi / zwins)[:, None]
    pieces = spec.ac_pieces
    total = math.fsum(c.weight for c in pieces)
    env = sum(c.weight / total * _piece_cf_envelope(c, s / scales[:, None]) for c in pieces)
    with np.errstate(divide="ignore", under="ignore", invalid="ignore"):
        e = np.exp(ns[:, None] * np.log(np.minimum(env, 1.0)))
        beyond = np.where(ns > 1, e[:, -1] * s[:, -1] / (ns - 1),
                          np.where(e[:, -1] == 0.0, 0.0, np.inf))
    g = e * s
    parts = 0.5 * (g[:, 1:] + g[:, :-1]) * _ENVELOPE_DLOG
    tails = np.cumsum(parts[:, ::-1], axis=1)[:, ::-1]
    tails = np.concatenate([tails, np.zeros((len(ns), 1))], axis=1) + beyond[:, None]
    ok = tails[:, _HALF_CUT] <= CF_TOL * math.pi / zwins[:, None]
    rows, first = np.arange(len(ns)), ok.argmax(axis=1)
    return (np.where(ok[rows, first], _FREQS[first], np.inf),
            zwins / math.pi * tails[rows, _FULL_CUT[first]])


def _phases(x: np.ndarray, count: int, zwin: np.ndarray) -> np.ndarray:
    """e^(-i s_k x) for s_k = k pi / Z, k < count (a multiple of 32), Z the
    window of each point, as products of two short tables of exponentials."""
    base = (-1j * (math.pi / zwin) * x)[:, None]
    coarse = np.exp(base * (32.0 * np.arange(count // 32)))
    fine = np.exp(base * np.arange(32.0))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(x), count)


def _inverted_tvs(psi: np.ndarray, zwin: np.ndarray) -> list:
    """Per row of psi, (d_TV, d_TV from the first half of the row, window
    mass) of the Fourier-series density against phi; every row holds psi at
    the same number M of frequencies k pi / Z of its own window [-Z, Z).

    One FFT along the rows gives each density f on M points of its window.
    Sign changes of f - phi between points where |f - phi| is above
    rounding level bracket the crossings; a Newton step on the Fourier sums
    refines them.  Then d_TV is half the sum of |G| increments between
    consecutive crossings, plus half the normal mass beyond +-Z, where G(x)
    = int_{-Z}^x (f - phi).  The half-resolution value reuses the
    crossings: G is stationary there, so moving them changes it only to
    second order.  The sums at every row's crossings come from one matrix
    of phases, and those at every row's G points from one more.
    """
    rows, count = psi.shape
    z = zwin[:, None]
    alt = psi.copy()
    alt[:, 1::2] *= -1.0
    zs = -z + (2.0 * z / count) * np.arange(count)
    dens = (2.0 * np.fft.fft(alt).real - 1.0) / (2.0 * z)
    diff = dens - np.exp(-0.5 * zs * zs) / _SQRT2PI
    noise = 64.0 * np.finfo(float).eps * np.array([np.abs(r).sum() for r in psi])[:, None] / z
    sign = np.where(np.abs(diff) > noise, np.sign(diff), 0.0)
    row, col = np.nonzero(sign)
    flips = np.flatnonzero((row[1:] == row[:-1])
                           & (sign[row[1:], col[1:]] != sign[row[:-1], col[:-1]]))
    owner, left, right = row[flips], col[flips], col[flips + 1]
    a, b = zs[owner, left], zs[owner, right]
    x = a + (b - a) * diff[owner, left] / (diff[owner, left] - diff[owner, right])

    # f = (1 + 2 Re sum psi_k e^(-i s_k x)) / (2Z), f' from the s_k psi_k
    # and G from the psi_k / s_k (zero at k = 0)
    sk = np.arange(count) * (math.pi / z)
    sk[:, 0] = 1.0
    weights = np.stack([psi, sk * psi, psi / sk], axis=2)
    weights[:, 0] = 0.0

    def sums(pts, owner, phases, count):
        """The first count weights of each point's row (the rows `owner`,
        in order) summed against its phases."""
        cuts = np.searchsorted(owner, np.arange(rows + 1))
        return np.concatenate([phases[i:j, :count] @ weights[r, :count]
                               for r, (i, j) in enumerate(zip(cuts[:-1], cuts[1:]))])

    zw = zwin[owner]
    found = sums(x, owner, _phases(x, count, zw), count)
    phi = np.exp(-0.5 * x * x) / _SQRT2PI
    d = (1.0 + 2.0 * found[:, 0].real) / (2.0 * zw) - phi
    slope = found[:, 1].imag / zw + x * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.clip(np.where(slope != 0.0, x - d / slope, x), a, b)
    ends = np.arange(rows)
    order = np.argsort(np.concatenate([ends, owner, ends]), kind="stable")
    pts = np.concatenate([-zwin, x, zwin])[order]
    owner = np.concatenate([ends, owner, ends])[order]
    zw = zwin[owner]
    phases = _phases(pts, count, zw)
    normal = _ndtr(pts) - _ndtr(-zw)
    gaps = []
    for m in (count, count // 2):
        edge = np.array([w[:m:2, 2].imag.sum() - w[1:m:2, 2].imag.sum() for w in weights])
        im_down = sums(pts, owner, phases, m)[:, 2].imag
        gaps.append((pts + zw) / (2.0 * zw) - (im_down - edge[owner]) / zw - normal)
    cuts = np.searchsorted(owner, np.arange(rows + 1))
    out = []
    for r, zr in enumerate(zwin.tolist()):
        tail = _ndtr(-zr)
        tv, tv_half = (min(1.0, 0.5 * float(np.abs(np.diff(g[cuts[r]:cuts[r + 1]])).sum()) + tail)
                       for g in gaps)
        out.append((tv, tv_half, float(dens[r].sum()) * (2.0 * zr / count)))
    return out


def _cf_results(spec: DistributionSpec, ns, grid_size: int) -> list:
    """Per n in ns, the characteristic-function route's result, or None
    when its error bound needs M frequencies with M * terms +
    CF_FIXED_POINTS at least the FFT route's transform length for that n
    and grid, or when its own check fails.  phi_X is evaluated once at
    every n's Chernoff arguments and frequencies, its envelope once at every
    n's window, and the n with the same M are inverted together."""
    terms = sum(len(c.grid) - 1 if isinstance(c, Tabulated) else 1
                for c in spec.ac_pieces)
    budgets = np.array([(_fft_len(n, grid_size) - CF_FIXED_POINTS) / terms for n in ns])
    out = [None] * len(ns)
    # as floats, as the closed forms take them; n may exceed the int64 range
    ns = np.array(ns, dtype=float)
    scales = math.sqrt(moments(spec).variance) * np.sqrt(ns)
    live = np.flatnonzero(budgets > CF_MIN_FREQS)
    if not live.size:
        return out
    zwins, window_bounds = _windows(spec, ns[live], scales[live])
    m_freqs, truncations = _frequencies(spec, ns[live], scales[live], zwins)
    ok = m_freqs < budgets[live]
    live, zwins, m_freqs = live[ok], zwins[ok], m_freqs[ok].astype(int)
    bounds = (truncations + window_bounds)[ok]
    if not live.size:
        return out
    s = np.concatenate([np.arange(m) * (math.pi / zwin) / scale
                        for m, zwin, scale in zip(m_freqs, zwins, scales[live])])
    psi = _power(_centered_cf_minus_one(spec, s), np.repeat(ns[live], m_freqs))
    psi = np.split(psi, np.cumsum(m_freqs)[:-1])
    for m in sorted(set(m_freqs.tolist())):
        group = np.flatnonzero(m_freqs == m)
        inverted = _inverted_tvs(np.array([psi[k] for k in group]), zwins[group])
        for k, (tv, tv_half, mass) in zip(group, inverted):
            err = float(bounds[k]) + abs(tv - tv_half)
            if err <= CF_ERROR_LIMIT:
                out[live[k]] = ConvolutionResult(tv=tv, mass_defect=abs(1.0 - mass),
                                                 error_estimate=err, route="cf")
    return out


def _convolutions(spec: DistributionSpec, ns, grid_size, config: QuadratureConfig,
                  error_estimate: bool) -> list:
    """ConvolutionResult per n in ns (see convolution_tv_result): the
    characteristic-function route on the ns in groups of _CF_GROUP, so
    that its working arrays do not grow with len(ns), then the FFT route on
    the n it declines, from one set of cell masses per grid."""
    grid_size = _count("grid_size", grid_size, 1024)
    if grid_size & (grid_size - 1):
        raise SpecError(f"grid_size must be a power of two >= 1024, got {grid_size}")
    results = []
    for start in range(0, len(ns), _CF_GROUP):
        results += _cf_results(spec, ns[start:start + _CF_GROUP], grid_size)
    fft_ns = [n for n, res in zip(ns, results) if res is None]
    fine = _fft_tvs(spec, fft_ns, grid_size, config)
    coarse = [None] * len(fine)
    if error_estimate and grid_size >= 2048:
        coarse = _fft_tvs(spec, fft_ns, grid_size // 2, config)
    fft = iter(ConvolutionResult(tv=tv, mass_defect=defect,
                                 error_estimate=None if c is None else abs(tv - c[0]))
               for (tv, defect), c in zip(fine, coarse))
    return [res if res is not None else next(fft) for res in results]


def convolution_tv_result(spec: DistributionSpec, n: int, grid_size: int = 4096,
                          config: QuadratureConfig = DEFAULT_CONFIG,
                          error_estimate: bool = True) -> ConvolutionResult:
    """Exact d_TV(S_n^*, Z) for a purely AC spec: the curve of the one n.

    Characteristic-function route ("cf"): psi is sampled at M frequencies
    k pi / Z and inverted on [-Z, Z] (see `_inverted_tvs`).  It runs when
    its error bound holds within fewer transform points than the FFT route
    would use for this n and grid_size, its fixed work counted as
    CF_FIXED_POINTS points.  Its error estimate is the truncation bound
    plus the window's Chernoff bound plus the change against M/2
    frequencies (always computed); the mass defect is |1 - integral of f
    over the window|.  A curve evaluates the characteristic function once
    at every n's Chernoff arguments and once at every n's frequencies, and
    inverts every n with the same M together.

    FFT route ("fft"): every cell of a uniform grid over the
    (tail-truncated) support gets its exact mass, the CDF difference at its
    edges, once per curve, and the masses are convolved n-fold with
    zero-padding past the full output length so cyclic wrap-around is
    structurally impossible; n = 1 takes the masses with no transform, and
    a larger n raises their transform to the n-th power by squaring.
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
    n = _count("n", n, 1)
    return _convolutions(spec, (n,), grid_size, config, error_estimate)[0]


def convolution_tv(spec: DistributionSpec, n: int, grid_size: int = 4096,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return convolution_tv_result(spec, n, grid_size, config,
                                 error_estimate=False).tv


def rate_fit(curve: CltCurve) -> tuple:
    """Least-squares log-log slopes of the bound and empirical series, in
    closed form: sum dx dy / sum dx^2 over the centred logs, by math.fsum.

    Needs at least 3 values of n spanning a factor of 8.
    """
    if len(curve.ns) < 3 or max(curve.ns) / min(curve.ns) < 8.0:
        raise SpecError("rate fit needs >= 3 values of n spanning a factor of 8")

    def centred_logs(values):
        logs = [math.log(v) for v in values]
        mean = math.fsum(logs) / len(logs)
        return [v - mean for v in logs]

    dx = centred_logs(curve.ns)

    def slope(values):
        if any(v <= 0 for v in values):
            return None
        dy = centred_logs(values)
        return math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)

    slope_bound = slope(curve.bounds)
    slope_emp = slope(curve.empirical) if curve.empirical is not None else None
    return slope_bound, slope_emp


def clt_curve(spec: DistributionSpec, ns, grid_size: int = 4096,
              config: QuadratureConfig = DEFAULT_CONFIG) -> CltCurve:
    """Assemble the bound series, the empirical series when the spec is
    purely AC (every n in one pass, see convolution_tv_result), and the
    fitted slopes when the n-range supports a fit."""
    ns = tuple(_count("n", n, 1) for n in ns)
    if not ns:
        raise SpecError("ns must be positive integers")
    kernel = stein_kernel(spec, config=config)
    _, var_r = _tau_moments(spec, kernel, config)
    bounds = tuple(2.0 * math.sqrt(var_r / n) for n in ns)

    empirical = None
    if not spec.atoms and not spec.cantor_parts:
        empirical = tuple(r.tv for r in _convolutions(spec, ns, grid_size, config,
                                                     error_estimate=False))

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
