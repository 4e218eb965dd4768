"""Uniform-grid functions, quadrature, Fourier transforms and smooth low-pass filtering.

Functions live on a large interval (1D) or square (2D) standing in for the
whole line/plane; everything downstream assumes the numerically significant
support sits well inside the window (positive support margin).

Conventions:
  * L^p norms use composite trapezoid quadrature on the uniform grid.
  * The Fourier transform carries the 2*pi in the exponent,
    F(z) = integral f(x) exp(-2*pi*i*x*z) dx, so a Gaussian exp(-pi x^2)
    is its own transform.
  * Smooth cutoffs are built from the C-infinity ramp based on exp(-1/t);
    see `smooth_ramp01`.

Every transform runs on `numpy.fft`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps

import numpy as np

__all__ = [
    "Grid1D",
    "Grid2D",
    "GridFunction",
    "SpectrumFunction",
    "default_grid_1d",
    "default_grid_2d",
    "lp_norm",
    "weighted_lp_norm",
    "fourier",
    "inverse_fourier",
    "smooth_ramp01",
    "lowpass_profile",
    "check_below_nyquist",
    "check_fft_grid",
    "smooth_lowpass",
    "save_csv",
    "load_csv",
]

_SUPPORT_RTOL = 1e-12
# Element-wise passes run in blocks of rows of the last axis (1 MiB on 2048
# points) or of points, so none allocates a grid- or point-sized temporary.
_ROW_BLOCK = 64
_POINT_BLOCK = 4096


@dataclass
class Grid1D:
    """Uniform 1D grid: points origin + spacing*m for m = 0..count-1."""

    origin: float
    spacing: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not self.spacing > 0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def x(self) -> np.ndarray:
        """The grid points, read-only from the `_axis_points` cache."""
        return _axis_points(self.origin, self.spacing, self.count)

    @property
    def length(self) -> float:
        return self.spacing * (self.count - 1)

    @property
    def nyquist(self) -> float:
        return 0.5 / self.spacing

    @property
    def resolution_exponent(self) -> int:
        """Largest j with 2^-j <= spacing (exact for dyadic spacings)."""
        return int(round(-np.log2(self.spacing)))

    @property
    def axes(self) -> tuple["Grid1D", ...]:
        """A 1D grid is the one-axis case of a tensor grid."""
        return (self,)

    @property
    def shape(self) -> tuple[int]:
        return (self.count,)


@dataclass
class Grid2D:
    """Tensor grid: per-axis Grid1D pair (x runs along axis 0 of value arrays)."""

    gx: Grid1D
    gy: Grid1D

    @property
    def axes(self) -> tuple[Grid1D, Grid1D]:
        return (self.gx, self.gy)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gx.count, self.gy.count)


def uncovered_axis(grid, pts: np.ndarray) -> str | None:
    """The first axis, "x" or "y", along which a point of `pts` (shape
    (n, d), finite) lies off the grid by more than 1e-9 spacings; None if
    the grid covers them all.  `GridFunction.interpolate` rejects by it."""
    for axis, (name, g) in enumerate(zip("xy", grid.axes)):
        # rounding is monotone, so these are the extremes of the cell
        # coordinates that `interpolate` forms
        c = pts[:, axis]
        if c.size and not ((c.min() - g.origin) / g.spacing >= -1e-9
                           and (c.max() - g.origin) / g.spacing <= g.count - 1 + 1e-9):
            return name
    return None


def default_grid_1d() -> Grid1D:
    """Default fine grid: h = 2^-10 on [-16, 16)."""
    h = 2.0**-10
    return Grid1D(-16.0, h, 32768)


def default_grid_2d() -> Grid2D:
    """Default fine grid: h = 2^-7 on [-8, 8)^2."""
    h = 2.0**-7
    g = Grid1D(-8.0, h, 2048)
    return Grid2D(g, Grid1D(-8.0, h, 2048))


class GridFunction:
    """A real-valued function tabulated on a Grid1D or Grid2D.

    Values are treated as immutable after construction. `support_margin` is
    the distance from the numerically significant support (relative threshold
    1e-12) to the domain boundary.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if not isinstance(grid, (Grid1D, Grid2D)):
            raise TypeError(f"unsupported grid type {type(grid)!r}")
        if values.shape != grid.shape:
            raise ValueError(
                f"value shape {values.shape} does not match grid shape {grid.shape}"
            )
        # NaN and +-inf show in the extremes, so the check needs no mask
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            bad = int(np.count_nonzero(~np.isfinite(values)))
            raise ValueError(f"grid function has {bad} non-finite values")
        self.grid = grid
        self.values = values

    @property
    def ndim(self) -> int:
        return len(self.grid.axes)

    def significant_support(self) -> tuple[tuple[float, float], ...]:
        """Per-axis hull of points where |f| exceeds 1e-12 * max|f|; the
        mask is formed one block of rows of the last axis at a time."""
        v = self.values
        peak = max(v.max(), -v.min())
        axes = self.grid.axes
        if peak == 0.0:
            return tuple((g.x[0], g.x[0]) for g in axes)
        rows = v.reshape(-1, v.shape[-1])
        row_hit, col_hit = (np.zeros(n, dtype=bool) for n in rows.shape)
        for blk in _blocks(len(rows), _ROW_BLOCK):
            mask = np.abs(rows[blk]) > _SUPPORT_RTOL * peak
            mask.any(axis=1, out=row_hit[blk])
            col_hit |= mask.any(axis=0)
        # in 1D the one row is the whole function and only the columns count
        idx = [np.flatnonzero(hit) for hit in (row_hit, col_hit)[-len(axes):]]
        return tuple((g.x[i[0]], g.x[i[-1]]) for i, g in zip(idx, axes))

    @property
    def support_margin(self) -> float:
        margins = []
        for (lo, hi), g in zip(self.significant_support(), self.grid.axes):
            margins.append(min(lo - g.x[0], g.x[-1] - hi))
        return float(min(margins))

    def interpolate(self, points) -> np.ndarray:
        """Linear (1D) / bilinear (2D) interpolation at off-grid points.

        1D takes an array of coordinates, 2D points of shape (..., 2); both
        return one flat value per point.  Points more than 1e-9 spacings off
        the grid (`uncovered_axis`), non-finite points and 2D points whose
        last axis is not 2 are rejected; trace evaluation depends on it.  No
        points give an empty array.

        The points are validated once and then interpolated `_POINT_BLOCK` at
        a time.  Each corner of a point's cell is one gather from the flat
        values, and the d-linear sum (in 2D
        v00 (1-tx)(1-ty) + v10 tx (1-ty) + v01 (1-tx) ty + v11 tx ty, the
        first axis's offset varying fastest) is accumulated in place, term by
        term and factor by factor in that order, into the output.
        """
        pts = np.asarray(points, dtype=float)
        # NaN and +-inf show in the extremes, so the check needs no mask
        if pts.size and not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
            raise ValueError(f"{np.count_nonzero(~np.isfinite(pts))} interpolation "
                             f"coordinate(s) are not finite")
        axes = self.grid.axes
        d = len(axes)
        if d > 1 and (pts.ndim == 0 or pts.shape[-1] != d):
            raise ValueError(f"{d}D interpolation points need shape (..., {d}), "
                             f"got {pts.shape}")
        pts = pts.reshape(-1, d)
        axis = uncovered_axis(self.grid, pts)
        if axis:
            raise ValueError(f"interpolation point outside grid domain ({axis})")
        out = np.empty(len(pts))
        strides = [math.prod(self.grid.shape[a + 1:]) for a in range(d)]
        # each corner as (flat offset, 0 or 1 per axis), the first axis
        # varying fastest; the factor of an axis is 1 - t at 0 and t at 1
        corners = [(sum(c * n for c, n in zip(bits, strides)), bits)
                   for bits in (c[::-1] for c in itertools.product((0, 1), repeat=d))]
        flat = self.values.reshape(-1)
        for blk in _blocks(len(pts), _POINT_BLOCK):
            block, o = pts[blk], out[blk]
            k, factors = 0, []
            for axis, (g, stride) in enumerate(zip(axes, strides)):
                t = (block[:, axis] - g.origin) / g.spacing
                i = np.clip(np.floor(t).astype(int), 0, g.count - 2)
                t = np.clip(t - i, 0.0, 1.0)
                k = k + i * stride
                factors.append((1 - t, t))
            flat.take(k, out=o)
            for w in factors:
                o *= w[0]
            term = np.empty_like(o)
            for off, bits in corners[1:]:
                flat.take(k + off, out=term)
                for w, bit in zip(factors, bits):
                    term *= w[bit]
                o += term
        return out


class SpectrumFunction:
    """Discrete spectrum of a GridFunction; `freqs` holds one frequency
    vector per axis, in numpy fft order."""

    def __init__(self, grid, freqs: tuple[np.ndarray, ...], values):
        self.grid = grid
        self.freqs = freqs
        self.values = np.asarray(values, dtype=complex)


def _read_only_cache(maxsize: int):
    """`lru_cache(maxsize)` whose callers share one read-only table per key."""
    def decorate(build):
        @lru_cache(maxsize=maxsize)
        @wraps(build)
        def cached(*args, **kwargs):
            table = build(*args, **kwargs)
            table.flags.writeable = False
            return table
        return cached
    return decorate


@_read_only_cache(maxsize=8)
def _axis_points(origin: float, spacing: float, count: int) -> np.ndarray:
    """origin + spacing * m for m < count, cached read-only.

    Keyed by the axis values, not by the (mutable) Grid1D: a sweep reads the
    points of the same axis hundreds of times, often for one end point.
    """
    return origin + spacing * np.arange(count)


def _along(axis: int, ndim: int, v: np.ndarray) -> np.ndarray:
    """The 1D array v as a view that broadcasts along `axis` of an ndim array."""
    return v.reshape([-1 if a == axis else 1 for a in range(ndim)])


def _blocks(n: int, size: int):
    """Slices of `size` consecutive entries covering n entries."""
    return (slice(s, s + size) for s in range(0, n, size))


def _trapezoid_sum(values: np.ndarray, grid, p: float, weight=None) -> float:
    """Composite-trapezoid integral of |values|^p, or (weight |values|)^p.

    A block of `_ROW_BLOCK` rows of the last axis at a time, the integrand
    is formed in one buffer, multiplied in place by the last axis's weights
    (spacing, endpoints halved) and summed per row; the row sums are then
    weighted by the other axes' weights and summed.  1D is the single-row
    case, bit for bit.  No BLAS product reduces, so no thread count shows.
    """
    ws = [np.full(g.count, g.spacing) for g in grid.axes]
    for w in ws:
        w[[0, -1]] *= 0.5
    *w_lead, w_last = ws
    rows = values.reshape(-1, len(w_last))
    w_rows = None if weight is None else weight.reshape(rows.shape)
    sums = np.empty(len(rows))
    buf = np.empty((min(_ROW_BLOCK, len(rows)), len(w_last)))
    for blk in _blocks(len(rows), _ROW_BLOCK):
        a = np.abs(rows[blk], out=buf[: len(sums[blk])])
        if w_rows is not None:
            a *= w_rows[blk]
        a **= p
        a *= w_last
        np.sum(a, axis=1, out=sums[blk])
    sums *= reduce(np.multiply.outer, w_lead, np.ones(())).reshape(-1)
    return np.sum(sums)


def lp_norm(f: GridFunction, p: float) -> float:
    """Trapezoid L^p norm of f over its grid, 1 <= p < infinity."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    return float(_trapezoid_sum(f.values, f.grid, p) ** (1.0 / p))


def weighted_lp_norm(f: GridFunction, weight, p: float) -> float:
    """L^p norm of weight(x)*f(x); `weight` is a callable on coordinates or an array."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if callable(weight):
        coords = np.meshgrid(*(g.x for g in f.grid.axes), indexing="ij")
        wv = np.asarray(weight(*coords), dtype=float)
    else:
        wv = np.asarray(weight, dtype=float)
    if wv.shape != f.values.shape:
        raise ValueError("weight shape does not match grid function")
    if not np.all(np.isfinite(wv)) or np.any(wv < 0):
        raise ValueError("weight must be nonnegative and finite on the grid")
    return float(_trapezoid_sum(f.values, f.grid, p, wv) ** (1.0 / p))


def check_fft_grid(grid) -> None:
    """Reject a grid with an axis whose point count is not a power of two."""
    for g in grid.axes:
        if g.count & (g.count - 1):
            raise ValueError(f"grid count must be a power of two for the fast "
                             f"transform, got {g.count}")


@_read_only_cache(maxsize=8)
def _axis_freqs(count: int, spacing: float) -> np.ndarray:
    """`np.fft.fftfreq(count, spacing)`, cached read-only: every spectrum of
    the axis carries it."""
    return np.fft.fftfreq(count, spacing)


@_read_only_cache(maxsize=8)
def _axis_phase(origin: float, spacing: float, count: int, sign: int) -> np.ndarray:
    """exp(sign * 2*pi*i * z * origin) at the fft frequencies z of one axis.

    Cached read-only: a transform pair on the same axis reuses it.
    """
    return np.exp(sign * 2j * np.pi * (_axis_freqs(count, spacing) * origin))


def _origin_phase(grid, sign: int) -> np.ndarray:
    """exp(sign * 2*pi*i * sum_a z_a * origin_a) over the fft frequency grid.

    The phase factors over the axes: the per-axis factors come from the
    `_axis_phase` cache, so a 1D transform takes no exponential once its
    axis has been seen, and 2D takes one outer product of two cached
    factors.  In 1D the result is the cached (read-only) factor itself.
    """
    return reduce(np.multiply.outer, [_axis_phase(g.origin, g.spacing, g.count, sign)
                                      for g in grid.axes])


def fourier(f: GridFunction) -> SpectrumFunction:
    """Discrete approximation of the continuous transform (2*pi convention).

    Includes the spacing factor and the origin phase, so values approximate
    F(z) = integral f exp(-2*pi*i*x*z) dx at the fft frequency bins, which
    come read-only from the `_axis_freqs` cache.
    """
    check_fft_grid(f.grid)
    freqs = tuple(_axis_freqs(g.count, g.spacing) for g in f.grid.axes)
    volume = math.prod(g.spacing for g in f.grid.axes)
    spec = f.values.astype(complex)
    np.fft.fftn(spec, out=spec)
    return SpectrumFunction(f.grid, freqs, volume * _origin_phase(f.grid, -1) * spec)


def inverse_fourier(F: SpectrumFunction) -> GridFunction:
    """Invert `fourier`; the (tiny) imaginary part is dropped."""
    volume = math.prod(g.spacing for g in F.grid.axes)
    spec = _origin_phase(F.grid, 1) * F.values / volume
    np.fft.ifftn(spec, out=spec)
    return GridFunction(F.grid, np.real(spec))


def _next_fast_len(target: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= target, the padded length
    of a real transform, as `scipy.fft.next_fast_len(target, real=True)`."""
    best, p5 = 1 << (target - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the smallest p35 * 2^a >= target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def smooth_ramp01(t) -> np.ndarray:
    """C-infinity monotone ramp: 0 for t <= 0, 1 for t >= 1.

    Built from r(t) = exp(-1/t): ramp(t) = r(t) / (r(t) + r(1-t)). This exact
    profile is part of the package contract so transition-band values are
    reproducible.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        num = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        den = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return num / (num + den)


def lowpass_profile(abs_freq, inner: float, outer: float) -> np.ndarray:
    """Smooth multiplier: 1 for |z| <= inner, 0 for |z| >= outer."""
    return smooth_ramp01((outer - np.asarray(abs_freq, dtype=float)) / (outer - inner))


@_read_only_cache(maxsize=32)
def _axis_profile(count: int, spacing: float, inner: float, outer: float,
                  half: bool = False) -> np.ndarray:
    """`lowpass_profile` at one axis's `fftfreq` bins (`rfftfreq` with `half`).

    Cached read-only: P is applied many times with few bands, and a 1D
    profile on the default grid takes two `exp` and about ten temporaries
    of 32768 bins.  The cache holds the bands of a sweep.
    """
    fz = (np.fft.rfftfreq if half else np.fft.fftfreq)(count, spacing)
    return lowpass_profile(np.abs(fz), inner, outer)


def check_below_nyquist(grid, freq: float, message: str) -> None:
    """Reject a band edge `freq` at or above the lowest Nyquist frequency of
    the grid's axes, with `message` formatted with `freq` and `nyq`."""
    nyq = min(g.nyquist for g in grid.axes)
    if freq >= nyq * (1 + 1e-12):
        raise ValueError(message.format(freq=freq, nyq=nyq))


def _check_band(grid, inner: float, outer: float) -> None:
    """Reject a low-pass band without 0 < inner < outer < the lowest Nyquist frequency."""
    if not (0 < inner < outer):
        raise ValueError(f"need 0 < inner < outer, got inner={inner}, outer={outer}")
    check_below_nyquist(grid, outer, "outer={freq} exceeds Nyquist frequency {nyq}")


def _rfftn(f: GridFunction, keep: int | None = None) -> np.ndarray:
    """The half spectrum of f: `rfft` along the last axis, its leading `keep`
    bins (all by default), then `fft` along the others, as `np.fft.rfftn`
    orders them.  No origin phase and no spacing volume: a real, even
    multiplier between `_rfftn` and `_irfftn` commutes with both."""
    check_fft_grid(f.grid)
    return np.fft.fftn(np.fft.rfft(f.values)[..., :keep], axes=range(f.ndim - 1))


def _irfftn(spec: np.ndarray, grid) -> GridFunction:
    """Invert `_rfftn`, overwriting `spec`: `ifft` along the leading axes,
    then `irfft` to the last axis's count, which zero-pads dropped bins."""
    np.fft.ifftn(spec, axes=range(spec.ndim - 1), out=spec)
    return GridFunction(grid, np.fft.irfft(spec, n=grid.shape[-1]))


def _half_spectrum(f: GridFunction):
    """(spec, freqs, energy): `_rfftn(f)`, each axis's bin frequencies
    (`rfftfreq` on the last axis), and each bin's share of the Plancherel
    energy sum |F|^2 dz over the full spectrum.  A last-axis bin counts for
    itself and its mirror, except the DC bin and an even count's Nyquist bin."""
    spec = _rfftn(f)
    *lead, last = f.grid.axes
    freqs = [np.fft.fftfreq(g.count, g.spacing) for g in lead] + [
        np.fft.rfftfreq(last.count, last.spacing)]
    weight = np.ones(spec.shape[-1])
    weight[1:(last.count + 1) // 2] = 2.0
    weight *= math.prod(g.spacing / g.count for g in f.grid.axes)
    return spec, freqs, np.abs(spec) ** 2 * weight


def smooth_lowpass(f: GridFunction, inner: float, outer: float) -> GridFunction:
    """Multiply the spectrum by the C-infinity low-pass profile of each axis.

    The multiplier is the product over the axes of
    `lowpass_profile(|z_a|, inner, outer)`: real and even in every z_a, so
    the half spectrum of `_rfftn` carries all of it, and the origin phase
    and spacing volume of `fourier` would cancel.  Each axis's profile comes
    read-only from the `_axis_profile` cache.  The last-axis profile (on the
    `rfftfreq` bins) falls to 0 past bin keep - 1 and stays 0, so only the
    leading `keep` bins are transformed back.  The other axes' profiles are
    multiplied in first, one axis at a time, the last axis's after: the
    transforms and products of `rfftn` / `irfftn` with the profiles in
    between, in the same order, on fewer bins, so the output is theirs bit
    for bit.
    """
    _check_band(f.grid, inner, outer)
    *others, g = f.grid.axes
    last_profile = _axis_profile(g.count, g.spacing, inner, outer, half=True)
    keep = int(np.flatnonzero(last_profile)[-1]) + 1
    spec = _rfftn(f, keep)
    for axis, h in enumerate(others):
        spec *= _along(axis, spec.ndim, _axis_profile(h.count, h.spacing, inner, outer))
    spec *= last_profile[:keep]
    return _irfftn(spec, f.grid)


def _full_spectrum_lowpass(f: GridFunction, inner: float, outer: float) -> GridFunction:
    """`smooth_lowpass`, in 1D through `fourier` and `inverse_fourier`.

    Only the zoo's band-limited field comes here.  The half spectrum differs
    by rounding, and that moves the ill-conditioned `residual_l2` of
    `analyze` on a zoo field, which the benchmark's sweep-1d reference pins
    to a relative 1e-9, by a few 1e-8.  Held back until ROADMAP item 4(a)
    replaces that reference; the zoo then calls `smooth_lowpass`.
    """
    axes = f.grid.axes
    if len(axes) != 1:
        return smooth_lowpass(f, inner, outer)
    _check_band(f.grid, inner, outer)
    F = fourier(f)
    mult = _axis_profile(axes[0].count, axes[0].spacing, inner, outer)
    return inverse_fourier(SpectrumFunction(F.grid, F.freqs, F.values * mult))


# ---------------------------------------------------------------------------
# serialization

def save_csv(f: GridFunction, path):
    """CSV dump: header `x,value` (1D) or `x,y,value` (2D), 17 significant digits."""
    points = itertools.product(*(g.x for g in f.grid.axes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("x", "y")[: f.ndim] + ("value",)) + "\n")
        for point, v in zip(points, f.values.reshape(-1)):
            fh.write(",".join(f"{c:.17g}" for c in (*point, v)) + "\n")


def load_csv(path) -> GridFunction:
    """Read `save_csv`'s layout: the rows must be the points of a uniform grid
    with at least two per axis, in x-major order, each coordinate within 1e-6
    spacings of its grid point."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    d = data.shape[1] - 1
    if d not in (1, 2):
        raise ValueError(f"unrecognized CSV layout with {data.shape[1]} columns")
    axes = []
    for coords in data[:, :d].T:
        xs = np.unique(coords)
        axes.append(Grid1D(float(xs[0]), float(np.ptp(xs[:2])), len(xs)))
    grid = _grid_from_axes(axes)
    points = np.meshgrid(*(g.x for g in axes), indexing="ij", sparse=True)
    if len(data) != math.prod(grid.shape) or not all(
            np.all(np.abs(coords.reshape(grid.shape) - x) <= 1e-6 * g.spacing)
            for coords, x, g in zip(data[:, :d].T, points, axes)):
        raise ValueError(f"the CSV rows are not the points of a uniform {grid.shape} "
                         f"grid in x-major order, as `save_csv` writes them")
    return GridFunction(grid, data[:, d].reshape(grid.shape))


def _grid_from_axes(axes: list[Grid1D]):
    """The grid with these axes; a lone axis is its own Grid1D."""
    return axes[0] if len(axes) == 1 else Grid2D(*axes)
