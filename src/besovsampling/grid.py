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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

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
    "smooth_lowpass",
    "save_csv",
    "load_csv",
    "to_json_dict",
    "from_json_dict",
]

_SUPPORT_RTOL = 1e-12


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
        return self.origin + self.spacing * np.arange(self.count)

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
        if not np.all(np.isfinite(values)):
            bad = int(np.count_nonzero(~np.isfinite(values)))
            raise ValueError(f"grid function has {bad} non-finite values")
        self.grid = grid
        self.values = values

    @property
    def ndim(self) -> int:
        return len(self.grid.axes)

    def significant_support(self) -> tuple[tuple[float, float], ...]:
        """Per-axis hull of points where |f| exceeds 1e-12 * max|f|."""
        v = np.abs(self.values)
        peak = v.max()
        axes = self.grid.axes
        if peak == 0.0:
            return tuple((g.x[0], g.x[0]) for g in axes)
        mask = v > _SUPPORT_RTOL * peak
        hulls = []
        for axis, g in enumerate(axes):
            others = tuple(a for a in range(len(axes)) if a != axis)
            idx = np.nonzero(mask.any(axis=others))[0]
            hulls.append((g.x[idx[0]], g.x[idx[-1]]))
        return tuple(hulls)

    @property
    def support_margin(self) -> float:
        margins = []
        for (lo, hi), g in zip(self.significant_support(), self.grid.axes):
            margins.append(min(lo - g.x[0], g.x[-1] - hi))
        return float(min(margins))

    def interpolate(self, points) -> np.ndarray:
        """Linear (1D) / bilinear (2D) interpolation at off-grid points.

        Points outside the domain are rejected; trace evaluation depends on it.
        """
        if self.ndim == 1:
            pts = np.asarray(points, dtype=float)
            g = self.grid
            if pts.min() < g.x[0] - 1e-12 or pts.max() > g.x[-1] + 1e-12:
                raise ValueError("interpolation point outside grid domain")
            return np.interp(pts, g.x, self.values)
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = []
        for axis, (name, g) in enumerate(zip("xy", self.grid.axes)):
            t = (pts[:, axis] - g.origin) / g.spacing
            if t.min() < -1e-9 or t.max() > g.count - 1 + 1e-9:
                raise ValueError(f"interpolation point outside grid domain ({name})")
            i = np.clip(np.floor(t).astype(int), 0, g.count - 2)
            cells.append((i, np.clip(t - i, 0.0, 1.0)))
        (i0, tx), (j0, ty) = cells
        v = self.values
        return (
            v[i0, j0] * (1 - tx) * (1 - ty)
            + v[i0 + 1, j0] * tx * (1 - ty)
            + v[i0, j0 + 1] * (1 - tx) * ty
            + v[i0 + 1, j0 + 1] * tx * ty
        )


class SpectrumFunction:
    """Discrete spectrum of a GridFunction; frequencies in numpy fft order."""

    def __init__(self, grid, freqs, values):
        self.grid = grid
        self.freqs = freqs  # 1D array, or (fx, fy) tuple in 2D
        self.values = np.asarray(values, dtype=complex)

    @property
    def ndim(self) -> int:
        return len(self.grid.axes)

    @property
    def axis_freqs(self) -> tuple[np.ndarray, ...]:
        """Per-axis frequency vectors (`freqs` itself is a bare array in 1D)."""
        return (self.freqs,) if self.ndim == 1 else tuple(self.freqs)

    def energy(self) -> np.ndarray:
        """|F|^2 times the frequency cell volume (discrete Plancherel weights)."""
        dz = 1.0 / math.prod(g.count * g.spacing for g in self.grid.axes)
        return np.abs(self.values) ** 2 * dz

    def abs_freq(self) -> np.ndarray:
        """|zeta| per bin (euclidean norm over the axes)."""
        return np.sqrt(reduce(np.add.outer, [fz**2 for fz in self.axis_freqs]))


def quad_weights(grid) -> np.ndarray:
    """Composite-trapezoid weights (endpoints halved), outer product over axes."""
    per_axis = []
    for g in grid.axes:
        w = np.full(g.count, g.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        per_axis.append(w)
    return reduce(np.multiply.outer, per_axis)


def lp_norm(f: GridFunction, p: float) -> float:
    """Trapezoid L^p norm of f over its grid, 1 <= p < infinity."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    w = quad_weights(f.grid)
    return float(np.sum(w * np.abs(f.values) ** p) ** (1.0 / p))


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
    w = quad_weights(f.grid)
    return float(np.sum(w * (wv * np.abs(f.values)) ** p) ** (1.0 / p))


def _check_pow2(n: int, what: str):
    if n & (n - 1) != 0:
        raise ValueError(f"{what} count must be a power of two for the fast transform, got {n}")


def _origin_phase(grid, freqs, sign: int) -> np.ndarray:
    """exp(sign * 2*pi*i * sum_a z_a * origin_a) over the frequency grid.

    The phase factors over the axes, so it costs one exponential per
    frequency of each axis and one outer product.
    """
    return reduce(np.multiply.outer, [np.exp(sign * 2j * np.pi * (fz * g.origin))
                                      for fz, g in zip(freqs, grid.axes)])


def fourier(f: GridFunction) -> SpectrumFunction:
    """Discrete approximation of the continuous transform (2*pi convention).

    Includes the spacing factor and the origin phase, so values approximate
    F(z) = integral f exp(-2*pi*i*x*z) dx at the fft frequency bins.
    """
    axes = f.grid.axes
    for g in axes:
        _check_pow2(g.count, "grid")
    freqs = tuple(np.fft.fftfreq(g.count, g.spacing) for g in axes)
    volume = math.prod(g.spacing for g in axes)
    vals = volume * _origin_phase(f.grid, freqs, -1) * np.fft.fftn(f.values)
    return SpectrumFunction(f.grid, freqs[0] if len(axes) == 1 else freqs, vals)


def inverse_fourier(F: SpectrumFunction) -> GridFunction:
    """Invert `fourier`; the (tiny) imaginary part is dropped."""
    volume = math.prod(g.spacing for g in F.grid.axes)
    spec = _origin_phase(F.grid, F.axis_freqs, 1) * F.values / volume
    return GridFunction(F.grid, np.real(np.fft.ifftn(spec)))


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


def smooth_lowpass(f: GridFunction, inner: float, outer: float) -> GridFunction:
    """Multiply the spectrum by the C-infinity low-pass profile (per axis in 2D)."""
    if not (0 < inner < outer):
        raise ValueError(f"need 0 < inner < outer, got inner={inner}, outer={outer}")
    nyq = min(g.nyquist for g in f.grid.axes)
    if outer >= nyq * (1 + 1e-12):
        raise ValueError(f"outer={outer} exceeds Nyquist frequency {nyq}")
    F = fourier(f)
    mult = reduce(np.multiply.outer, [lowpass_profile(np.abs(fz), inner, outer)
                                      for fz in F.axis_freqs])
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


def to_json_dict(f: GridFunction) -> dict:
    axes = [{"origin": g.origin, "spacing": g.spacing, "count": g.count}
            for g in f.grid.axes]
    # the 1D format keeps its one axis flat; 2D names the axes x and y
    grid = axes[0] if f.ndim == 1 else dict(zip("xy", axes))
    return {"grid": grid, "values": f.values.reshape(-1).tolist()}


def from_json_dict(d: dict) -> GridFunction:
    g = d["grid"]
    specs = [g] if "origin" in g else [g["x"], g["y"]]
    grid = _grid_from_axes([Grid1D(a["origin"], a["spacing"], a["count"]) for a in specs])
    return GridFunction(grid, np.asarray(d["values"]).reshape(grid.shape))


def _grid_from_axes(axes: list[Grid1D]):
    """The grid with these axes; a lone axis is its own Grid1D."""
    return axes[0] if len(axes) == 1 else Grid2D(*axes)
