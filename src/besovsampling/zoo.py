"""Deterministic test-function generators with known or designed norms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict
from functools import reduce

import numpy as np

from .grid import (_ROW_BLOCK, Grid1D, Grid2D, GridFunction, _blocks,
                   _full_spectrum_lowpass, _read_only_cache, lp_norm, smooth_ramp01)
from .geometry import (SamplingSequence1D, _hermite_coefficients,
                       _piecewise_cubic, random_sequence)
from .wavelets import (
    WaveletBasis,
    WaveletCoefficients,
    default_basis,
    dilate_coeffs,
    synthesize,
)

__all__ = ["ZooSpec", "ZooFunction", "make", "dilate", "translate",
           "calibration_zoo", "window_envelope"]

KINDS = ("gaussian", "compact-bump", "bandlimited-random", "gap-spline",
         "gap-sine", "besov-random", "dilate", "translate", "tensor2d")


@dataclass(frozen=True)
class ZooSpec:
    """The parameters of one zoo function; hashable, so it can key a memo."""

    kind: str
    center: float = 0.0
    width: float = 1.0
    band: float = 1.0
    amplitude: float = 1.0
    s: float = 0.5
    p: float = 2.0
    q: float = math.inf
    seed: int | None = None
    m_shift: int = 0
    tau: float = 0.0
    j_lo: int = 0
    j_hi: int = 6
    sequence_b: float | None = None
    sequence_seed: int = 0
    sequence_strict: bool = True
    resample: bool = False
    base: "ZooSpec | None" = None
    base2: "ZooSpec | None" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown zoo kind {self.kind!r}")
        if self.kind in ("bandlimited-random", "gap-spline", "besov-random") \
                and self.seed is None:
            raise ValueError(f"kind {self.kind!r} needs a seed")

    def to_dict(self) -> dict:
        def clean(d: dict) -> dict:
            return {k: "inf" if k == "q" and math.isinf(v) else clean(v) if isinstance(v, dict)
                    else v for k, v in d.items() if v is not None}

        return clean(asdict(self))

    @staticmethod
    def from_dict(d: dict) -> "ZooSpec":
        if not isinstance(d, dict):
            raise ValueError(f"a zoo spec must be a JSON object, got {d!r}")
        d = dict(d)
        accepted = [f.name for f in fields(ZooSpec)]
        unknown = sorted(set(d) - set(accepted))
        if unknown or "kind" not in d:
            problem = f"unknown key(s) {unknown}" if unknown else "no 'kind' key"
            raise ValueError(f"zoo spec has {problem}; accepted fields: {accepted} "
                             "('kind' is required)")
        if d.get("q") == "inf":
            d["q"] = math.inf
        for f in fields(ZooSpec):
            v = d.get(f.name)
            # annotations are strings here: "float", "int | None", ...
            if f.type.split()[0] in ("float", "int") and v is not None \
                    and (isinstance(v, bool) or not isinstance(v, (int, float))):
                raise ValueError(f"zoo spec field {f.name!r} must be a number, "
                                 f"got {v!r}")
        for key in ("base", "base2"):
            if key in d and d[key] is not None:
                d[key] = ZooSpec.from_dict(d[key])
        return ZooSpec(**d)


@dataclass(eq=False)
class ZooFunction:
    f: GridFunction
    spec: ZooSpec
    meta: dict = field(default_factory=dict)
    coeffs: WaveletCoefficients | None = None


def window_envelope(grid: Grid1D, flat: float = 0.6, zero: float = 0.85) -> np.ndarray:
    """Smooth mask: 1 on the central `flat` fraction, 0 beyond `zero`.

    Read-only, from a cache keyed by the axis values, not by the (mutable)
    Grid1D: a sweep windows every function on the same axis.
    """
    return _window_envelope(grid.origin, grid.spacing, grid.count, flat, zero)


@_read_only_cache(maxsize=8)
def _window_envelope(origin: float, spacing: float, count: int, flat: float,
                     zero: float) -> np.ndarray:
    grid = Grid1D(origin, spacing, count)
    half = grid.length / 2.0
    t = np.abs(grid.x - (grid.origin + half)) / half
    return smooth_ramp01((zero - t) / (zero - flat))


def _gaussian_vals(x, center, width, amplitude):
    return amplitude * np.exp(-np.pi * (x - center) ** 2 / width**2)


def _bump_vals(x, center, width, amplitude):
    t = (x - center) / width
    out = np.zeros_like(x)
    m = np.abs(t) < 1
    out[m] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


def _seq_for(spec: ZooSpec, grid: Grid1D) -> SamplingSequence1D:
    if spec.sequence_b is None:
        raise ValueError(f"kind {spec.kind!r} needs sequence_b")
    return random_sequence(spec.sequence_b, (grid.x[0], grid.x[-1]),
                           spec.sequence_seed, strict=spec.sequence_strict)


def _besov_random(spec: ZooSpec, grid: Grid1D, basis: WaveletBasis) -> ZooFunction:
    """Random wavelet series with designed per-scale Besov profile.

    c_{j,k} = 2^(-j (s - 1/p + 1/2)) * sign * w_j on a sparse translate set;
    w_j carries the q-profile normalized by n_j^(1/p), so the per-scale terms
    of the (s,p,.) wavelet norm are flat for q=inf and sum to `amplitude` for
    finite q.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.j_lo, spec.j_hi
    if lo > hi:
        raise ValueError("empty scale range")
    S = grid.length / 4.0
    mid = grid.origin + grid.length / 2.0
    R = basis.support[1]
    n_scales = hi - lo + 1
    data, per_scale_term = {}, {}
    for j in range(lo, hi + 1):
        k_min = math.ceil(2.0**j * (mid - S))
        k_max = math.floor(2.0**j * (mid + S) - R)
        if k_max < k_min:
            raise ValueError(
                f"support overflow: no translate of scale {j} fits the window quarter")
        n_j = min(k_max - k_min + 1, max(1, round(2.0 ** (0.5 * j))))
        ks = np.sort(rng.choice(np.arange(k_min, k_max + 1), size=n_j, replace=False))
        signs = rng.choice([-1.0, 1.0], size=n_j)
        if math.isinf(spec.q):
            w_j = spec.amplitude / n_j ** (1.0 / spec.p)
        else:
            w_j = spec.amplitude * n_scales ** (-1.0 / spec.q) / n_j ** (1.0 / spec.p)
        amp = 2.0 ** (-j * (spec.s - 1.0 / spec.p + 0.5)) * w_j
        k0 = int(ks[0])
        vals = np.zeros(int(ks[-1]) - k0 + 1)
        vals[ks - k0] = amp * signs
        data[j] = (k0, vals)
        per_scale_term[j] = w_j * n_j ** (1.0 / spec.p)
    coeffs = WaveletCoefficients(1, lo, hi, data, basis)
    f = synthesize(coeffs, grid)
    if math.isinf(spec.q):
        designed = max(per_scale_term.values())
    else:
        designed = float(np.sum(np.asarray(list(per_scale_term.values()))
                                ** spec.q) ** (1.0 / spec.q))
    meta = {
        "designed_norm": designed,
        "designed_s": spec.s,
        "designed_p": spec.p,
        "designed_q": spec.q,
        "per_scale_term": per_scale_term,
        "basis": (basis.family, basis.order),
    }
    return ZooFunction(f, spec, meta, coeffs=coeffs)


def make(spec: ZooSpec, grid, basis: WaveletBasis | None = None) -> ZooFunction:
    """Instantiate a zoo spec on a grid; deterministic under the spec seed."""
    if spec.kind == "tensor2d":
        if not isinstance(grid, Grid2D):
            raise ValueError("tensor2d needs a Grid2D")
        fx = make(spec.base, grid.axes[0], basis)
        fy = make(spec.base2 or spec.base, grid.axes[1], basis)
        vals = np.outer(fx.f.values, fy.f.values)
        return ZooFunction(GridFunction(grid, vals), spec,
                           {"factors": (fx.meta, fy.meta)})
    if isinstance(grid, Grid2D):
        raise ValueError(f"kind {spec.kind!r} is one-dimensional; use tensor2d")

    if spec.kind == "gaussian":
        vals = _gaussian_vals(grid.x, spec.center, spec.width, spec.amplitude)
        return ZooFunction(GridFunction(grid, vals), spec,
                           {"analytic": "gaussian"})
    if spec.kind == "compact-bump":
        vals = _bump_vals(grid.x, spec.center, spec.width, spec.amplitude)
        return ZooFunction(GridFunction(grid, vals), spec, {"analytic": "bump"})
    if spec.kind == "bandlimited-random":
        f = _bandlimited_field(grid, spec.band, spec.seed, spec.amplitude,
                               spec.center)
        return ZooFunction(f, spec, {"band": spec.band})
    if spec.kind == "gap-spline":
        seq = _seq_for(spec, grid)
        rng = np.random.default_rng(spec.seed)
        slopes = rng.uniform(-1.0, 1.0, size=len(seq.points))
        pieces = _hermite_coefficients(seq.points, np.zeros(len(seq.points)), slopes)
        vals = (spec.amplitude * _piecewise_cubic(seq.points, pieces, grid.x)
                * window_envelope(grid))
        return ZooFunction(GridFunction(grid, vals), spec,
                           {"vanishes_on": "sequence", "sequence_b": seq.b})
    if spec.kind == "gap-sine":
        if spec.sequence_b is None:
            raise ValueError("gap-sine needs sequence_b")
        b = spec.sequence_b
        vals = (spec.amplitude * np.sin(np.pi * (grid.x - grid.x[0]) / b)
                * window_envelope(grid))
        return ZooFunction(GridFunction(grid, vals), spec,
                           {"vanishes_on": "regular", "sequence_b": b})
    if spec.kind == "besov-random":
        return _besov_random(spec, grid, basis or default_basis())
    if spec.kind == "dilate":
        return dilate(make(spec.base, grid, basis), spec.m_shift, grid)
    if spec.kind == "translate":
        return translate(make(spec.base, grid, basis), spec.tau,
                         resample=spec.resample)
    raise AssertionError(f"unhandled kind {spec.kind}")


def _resample_dyadic(f: GridFunction, m: int, resample: bool) -> GridFunction:
    """Values of x -> f(2^m x) on the same grid; exact index mapping for m>=0."""
    g = f.grid
    out = np.zeros(g.count)
    if m >= 0:
        idx = np.round(g.origin * (2**m - 1) / g.spacing).astype(int) \
            + np.arange(g.count) * 2**m
        ok = (idx >= 0) & (idx < g.count)
        out[ok] = f.values[idx[ok]]
        return GridFunction(g, out)
    if not resample:
        step = 2 ** (-m)
        if (round(g.origin / g.spacing) % step == 0):
            idx = np.arange(g.count)
            src = np.round(g.origin * (2.0**m - 1) / g.spacing + idx * 2.0**m)
            exact = np.abs(g.origin * (2.0**m - 1) / g.spacing + idx * 2.0**m - src) < 1e-9
            if np.all(exact):
                srci = src.astype(int)
                ok = (srci >= 0) & (srci < g.count)
                out[ok] = f.values[srci[ok]]
                return GridFunction(g, out)
        raise ValueError(
            f"dilation by m={m} leaves the grid lattice; pass resample=True")
    pts = np.clip(2.0**m * g.x, g.x[0], g.x[-1])
    return GridFunction(g, f.interpolate(pts))


def dilate(zf: ZooFunction, m: int, grid=None) -> ZooFunction:
    """f -> f(2^m .), exact where the kind allows it.

    Analytic kinds are regenerated with rescaled parameters; besov-random is
    dilated exactly in coefficient space; anything else is resampled on the
    grid (exact index mapping for m >= 0).
    """
    grid = grid or zf.f.grid
    spec = zf.spec
    if m == 0:
        return zf
    if spec.kind in ("gaussian", "compact-bump"):
        out = make(ZooSpec(spec.kind, center=spec.center * 2.0**-m,
                           width=spec.width * 2.0**-m, amplitude=spec.amplitude), grid)
    elif spec.kind == "besov-random" and zf.coeffs is not None:
        cc = dilate_coeffs(zf.coeffs, m)
        f = synthesize(cc, grid)
        meta = dict(zf.meta)
        meta["designed_norm"] = zf.meta["designed_norm"] * 2.0 ** (
            m * (zf.meta["designed_s"] - 1.0 / zf.meta["designed_p"]))
        out = ZooFunction(f, spec, meta, coeffs=cc)
    else:
        out = ZooFunction(_resample_dyadic(zf.f, m, zf.spec.resample), spec,
                          dict(zf.meta))
    out.meta["dilated_by"] = m + zf.meta.get("dilated_by", 0)
    return out


def translate(zf: ZooFunction, tau: float, resample: bool = False) -> ZooFunction:
    """Shift by tau; exact for grid-multiple tau, else rejected or resampled."""
    g = zf.f.grid
    shift = tau / g.spacing
    out = np.zeros(g.count)
    if abs(shift - round(shift)) < 1e-9:
        k = int(round(shift))
        if k >= 0:
            out[k:] = zf.f.values[: g.count - k]
        else:
            out[:k] = zf.f.values[-k:]
    elif resample:
        pts = np.clip(g.x - tau, g.x[0], g.x[-1])
        out = zf.f.interpolate(pts)
    else:
        raise ValueError(
            f"translation {tau} is off-grid; pass resample=True to interpolate")
    zz = ZooFunction(GridFunction(g, out), zf.spec, dict(zf.meta),
                     coeffs=None)
    zz.meta["translated_by"] = tau + zf.meta.get("translated_by", 0.0)
    return zz


def _times_outer(vals: np.ndarray, factors: list[np.ndarray]) -> None:
    """`vals *= reduce(np.multiply.outer, factors)` bit for bit, a block of
    rows of the last axis at a time: each f0[i] * f1[j] is formed first."""
    lead = reduce(np.multiply.outer, factors[:-1], np.ones(())).reshape(-1)
    rows = vals.reshape(-1, factors[-1].size, copy=False)
    for blk in _blocks(len(rows), _ROW_BLOCK):
        rows[blk] *= np.multiply.outer(lead[blk], factors[-1])


def _bandlimited_field(grid, band: float, seed: int, amplitude: float,
                       center: float) -> GridFunction:
    """Seeded random field on any grid, bandlimited (per axis) to
    [-band, band], with L^2 norm `amplitude`.  The compact post-envelope keeps
    a genuine support margin; it widens the band only by the
    (superpolynomially small) envelope spectrum tails."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    _times_outer(noise, [_gaussian_vals(g.x, center, g.length / 8.0, 1.0)
                         for g in grid.axes])
    # in 1D the low-pass returns the real part of a complex array, a view
    vals = np.ascontiguousarray(
        _full_spectrum_lowpass(GridFunction(grid, noise), 0.7 * band, band).values)
    _times_outer(vals, [window_envelope(g, 0.7, 0.9) for g in grid.axes])
    n2 = lp_norm(GridFunction(grid, vals), 2.0)
    if n2 > 0:
        vals *= amplitude / n2
    return GridFunction(grid, vals)


def bandlimited_field_2d(grid: Grid2D, band: float, seed: int) -> GridFunction:
    """The 2D input of `verify sampling --geometry`: the band-limited field of
    the zoo's `bandlimited-random` kind, centred at the origin, of L^2 norm 1."""
    return _bandlimited_field(grid, band, seed, 1.0, 0.0)


def calibration_zoo(grid: Grid1D) -> list[ZooFunction]:
    """The standard 20-function calibration family (deterministic)."""
    seed = 2024
    specs = [
        ZooSpec("gaussian", width=0.5),
        ZooSpec("gaussian", width=1.0, center=1.5),
        ZooSpec("gaussian", width=2.0, center=-2.0),
        ZooSpec("besov-random", s=0.5, q=math.inf, j_lo=7, j_hi=7, seed=seed + 12),
        ZooSpec("compact-bump", width=1.0),
        ZooSpec("compact-bump", width=2.0, center=-1.0),
        ZooSpec("compact-bump", width=4.0, center=1.0),
        ZooSpec("bandlimited-random", band=0.05, seed=seed + 1),
        ZooSpec("bandlimited-random", band=1.0, seed=seed + 2),
        ZooSpec("bandlimited-random", band=4.0, seed=seed + 3),
        ZooSpec("bandlimited-random", band=16.0, seed=seed + 4),
        ZooSpec("besov-random", s=0.5, q=1.0, j_lo=0, j_hi=4, seed=seed + 5),
        ZooSpec("besov-random", s=0.5, q=math.inf, j_lo=0, j_hi=6, seed=seed + 6),
        ZooSpec("besov-random", s=0.9, q=math.inf, j_lo=0, j_hi=6, seed=seed + 7),
        ZooSpec("besov-random", s=0.6, q=math.inf, j_lo=0, j_hi=6, seed=seed + 8),
        ZooSpec("besov-random", s=1.2, q=1.0, j_lo=0, j_hi=5, seed=seed + 9),
        ZooSpec("besov-random", s=0.45, q=math.inf, j_lo=2, j_hi=7, seed=seed + 10),
        ZooSpec("gap-spline", sequence_b=2.0**-5, sequence_seed=seed + 11,
                seed=seed + 11),
        ZooSpec("dilate", m_shift=1, base=ZooSpec("gaussian", width=1.0)),
        ZooSpec("translate", tau=2.0, base=ZooSpec("compact-bump", width=1.0)),
    ]
    return [make(s, grid) for s in specs]
