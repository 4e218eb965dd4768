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

`scipy.fft` is imported by the first `fourier` or `inverse_fourier` call.
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
        if not self.spacing > 0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")

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

    def uncovered_axis(self, pts: np.ndarray) -> str | None:
        """The first axis, "x" or "y", along which a point of `pts` (shape
        (n, 2), finite) lies off the grid by more than 1e-9 spacings; None if
        the grid covers them all.  `GridFunction.interpolate` rejects by it."""
        for axis, (name, g) in enumerate(zip("xy", self.axes)):
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

        1D takes an array of coordinates and returns one value per entry; 2D
        takes points of shape (..., 2) and returns one flat value per point.
        Points outside the domain, non-finite points and 2D points whose last
        axis is not 2 are rejected; trace evaluation depends on it.  No points
        give an empty array.

        In 2D the points are validated once and then interpolated
        `_POINT_BLOCK` at a time.  Each corner of a point's cell is one gather
        from the flat values, and the bilinear sum
        v00 (1-tx)(1-ty) + v10 tx (1-ty) + v01 (1-tx) ty + v11 tx ty
        is accumulated in place, term by term and factor by factor in that
        order, into the output.
        """
        pts = np.asarray(points, dtype=float)
        # NaN and +-inf show in the extremes, so the check needs no mask
        if pts.size and not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
            raise ValueError(f"{np.count_nonzero(~np.isfinite(pts))} interpolation "
                             f"coordinate(s) are not finite")
        # the domain tests are written so that a NaN would fail them
        if self.ndim == 1:
            g = self.grid
            if pts.size and not (pts.min() >= g.x[0] - 1e-12
                                 and pts.max() <= g.x[-1] + 1e-12):
                raise ValueError("interpolation point outside grid domain")
            return np.interp(pts, g.x, self.values)
        if pts.ndim == 0 or pts.shape[-1] != 2:
            raise ValueError(f"2D interpolation points need shape (..., 2), "
                             f"got {pts.shape}")
        pts = pts.reshape(-1, 2)
        axis = self.grid.uncovered_axis(pts)
        if axis:
            raise ValueError(f"interpolation point outside grid domain ({axis})")
        out = np.empty(len(pts))
        axes = self.grid.axes
        n1 = self.grid.shape[1]
        flat = self.values.reshape(-1)
        for blk in _blocks(len(pts), _POINT_BLOCK):
            block, o = pts[blk], out[blk]
            cells = []
            for axis, g in enumerate(axes):
                t = (block[:, axis] - g.origin) / g.spacing
                i = np.clip(np.floor(t).astype(int), 0, g.count - 2)
                cells.append((i, np.clip(t - i, 0.0, 1.0)))
            (i0, tx), (j0, ty) = cells
            sx, sy = 1 - tx, 1 - ty
            k = i0 * n1 + j0
            flat.take(k, out=o)
            o *= sx
            o *= sy
            term = np.empty_like(o)
            for off, wx, wy in ((n1, tx, sy), (1, sx, ty), (n1 + 1, tx, ty)):
                flat.take(k + off, out=term)
                term *= wx
                term *= wy
                o += term
        return out


class SpectrumFunction:
    """Discrete spectrum of a GridFunction; `freqs` holds one frequency
    vector per axis, in numpy fft order."""

    def __init__(self, grid, freqs: tuple[np.ndarray, ...], values):
        self.grid = grid
        self.freqs = freqs
        self.values = np.asarray(values, dtype=complex)

    @property
    def ndim(self) -> int:
        return len(self.grid.axes)

    def energy(self) -> np.ndarray:
        """|F|^2 times the frequency cell volume (discrete Plancherel weights)."""
        dz = 1.0 / math.prod(g.count * g.spacing for g in self.grid.axes)
        return np.abs(self.values) ** 2 * dz

    def abs_freq(self) -> np.ndarray:
        """|zeta| per bin (euclidean norm over the axes)."""
        return np.sqrt(reduce(np.add.outer, [fz**2 for fz in self.freqs]))


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


def _check_pow2(n: int, what: str):
    if n & (n - 1) != 0:
        raise ValueError(f"{what} count must be a power of two for the fast transform, got {n}")


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


def _fftn(spec: np.ndarray, transform) -> np.ndarray:
    """`np.fft.fftn` (`ifftn`) of the complex array `spec`, which it
    overwrites: scipy's `fft` (`ifft`) along one axis at a time, last axis
    first, as numpy walks them.  numpy casts real input to complex first, so
    this is its result bit for bit, with no copy between the axes."""
    for axis in reversed(range(spec.ndim)):
        spec = transform(spec, axis=axis, overwrite_x=True)
    return spec


def fourier(f: GridFunction) -> SpectrumFunction:
    """Discrete approximation of the continuous transform (2*pi convention).

    Includes the spacing factor and the origin phase, so values approximate
    F(z) = integral f exp(-2*pi*i*x*z) dx at the fft frequency bins, which
    come read-only from the `_axis_freqs` cache.
    """
    axes = f.grid.axes
    for g in axes:
        _check_pow2(g.count, "grid")
    from scipy import fft as sp_fft
    freqs = tuple(_axis_freqs(g.count, g.spacing) for g in axes)
    volume = math.prod(g.spacing for g in axes)
    spec = _fftn(f.values.astype(complex), sp_fft.fft)
    return SpectrumFunction(f.grid, freqs, volume * _origin_phase(f.grid, -1) * spec)


def inverse_fourier(F: SpectrumFunction) -> GridFunction:
    """Invert `fourier`; the (tiny) imaginary part is dropped."""
    from scipy import fft as sp_fft
    volume = math.prod(g.spacing for g in F.grid.axes)
    spec = _origin_phase(F.grid, 1) * F.values / volume
    return GridFunction(F.grid, np.real(_fftn(spec, sp_fft.ifft)))


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


def smooth_lowpass(f: GridFunction, inner: float, outer: float) -> GridFunction:
    """Multiply the spectrum by the C-infinity low-pass profile of each axis.

    The multiplier is the product over the axes of
    `lowpass_profile(|z_a|, inner, outer)`: real and even in every z_a.
    Each axis's profile comes from the read-only `_axis_profile` cache, so
    it is built once per axis and band and then only read.
    `fourier` multiplies the spectrum by the origin phase
    exp(-2*pi*i * z.origin) and the spacing volume, and `inverse_fourier`
    by their inverses.  A real multiplier in between commutes with both, so
    they cancel exactly and the filter is ifft(m * fft(values)).  An even,
    real multiplier keeps the spectrum of real values Hermitian, so the
    half spectrum carries all of it.

    On 2D grids the filter runs on the half spectrum and keeps only the
    columns it can pass: `rfft` along the last axis, then the leading
    `keep` columns, where the last-axis profile (on the `rfftfreq` bins)
    falls to 0 past bin keep - 1 and stays 0.  The other axes take their
    `fft`, each axis's profile is multiplied in place one axis at a time
    (the other axes' `fftfreq` bins first, the last axis's after), the
    other axes take their `ifft`, and `irfft` with n = count zero-pads the
    dropped columns.  These are the transforms and products of
    `rfftn` / `irfftn` with the profiles in between, in the same order, on
    fewer columns, so the output is theirs bit for bit; at band 1 on the
    2048² grid 16 of 1025 columns are kept.  It builds no phase, no
    full-grid multiplier and no complex full spectrum.

    On 1D grids it still goes through `fourier`, the product with the
    cached profile and `inverse_fourier`.  The half-spectrum route agrees with that
    only to rounding, and a 1D figure downstream cannot take a change of
    rounding: the benchmark's sweep-1d reference pins the `residual_l2` of
    `analyze`, the square root of a difference of nearly equal energies, to
    a relative 1e-9, and the half-spectrum route moves it by a few 1e-8.
    """
    if not (0 < inner < outer):
        raise ValueError(f"need 0 < inner < outer, got inner={inner}, outer={outer}")
    axes = f.grid.axes
    check_below_nyquist(f.grid, outer, "outer={freq} exceeds Nyquist frequency {nyq}")
    if len(axes) == 1:
        # Held back until ROADMAP item 4(a) replaces the `residual_l2`
        # reference (the FOUND line on `residual_l2` in CHANGES.md); deleting
        # this branch is then the whole 1D change.
        F = fourier(f)
        (g,) = axes
        mult = _axis_profile(g.count, g.spacing, inner, outer)
        return inverse_fourier(SpectrumFunction(F.grid, F.freqs, F.values * mult))
    for g in axes:
        _check_pow2(g.count, "grid")
    *others, last = range(len(axes))
    g = axes[last]
    last_profile = _axis_profile(g.count, g.spacing, inner, outer, half=True)
    # the profile falls monotonically to 0 and stays there: the columns past
    # its last nonzero bin are 0 after the multiply, so they are not kept
    keep = int(np.flatnonzero(last_profile)[-1]) + 1
    spec = np.fft.fftn(np.fft.rfft(f.values, axis=last)[..., :keep], axes=others)
    for axis in others:
        profile = _axis_profile(axes[axis].count, axes[axis].spacing, inner, outer)
        spec *= _along(axis, spec.ndim, profile)
    spec *= last_profile[:keep]
    np.fft.ifftn(spec, axes=others, out=spec)
    return GridFunction(f.grid, np.fft.irfft(spec, n=g.count, axis=last))


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
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    d = data.shape[1] - 1
    if d not in (1, 2):
        raise ValueError(f"unrecognized CSV layout with {data.shape[1]} columns")
    axes = []
    for coords in data[:, :d].T:
        xs = np.unique(coords)
        axes.append(Grid1D(float(xs[0]), float(xs[1] - xs[0]), len(xs)))
    grid = _grid_from_axes(axes)
    return GridFunction(grid, data[:, d].reshape(grid.shape))


def _grid_from_axes(axes: list[Grid1D]):
    """The grid with these axes; a lone axis is its own Grid1D."""
    return axes[0] if len(axes) == 1 else Grid2D(*axes)
