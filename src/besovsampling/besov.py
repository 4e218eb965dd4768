"""Homogeneous Besov norms, two ways, and Paley-Wiener membership.

The wavelet form sums weighted per-scale coefficient l^p norms,

    ( sum_j [ 2^((s - d/p + d/2) j) ( sum_lambda |c_{j,lambda}|^p )^(1/p) ]^q )^(1/q),

with the sup over scales when q is infinite.  The Littlewood-Paley form
filters the spectrum through a smooth dyadic partition of unity rho,

    ( sum_j 2^(j s q) || F^-1[ rho(2^-j .) F f ] ||_p^q )^(1/q).

The two are equivalent norms with constants the package measures rather than
assumes; the acceptance runs record the observed ratio per configuration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .grid import GridFunction, _half_spectrum, _irfftn, lp_norm, smooth_ramp01
from .wavelets import WaveletBasis, WaveletCoefficients, analyze, default_basis

__all__ = [
    "BesovParams",
    "rho",
    "besov_norm_wavelet",
    "besov_norm_lp",
    "besov_norm_lp_details",
    "besov_norm_via_analyze",
    "critical_norm",
    "default_scale_range",
    "pw_membership",
    "SpectralCoverageError",
]


@dataclass(frozen=True)
class BesovParams:
    """Smoothness/integrability indices of the homogeneous Besov space."""

    s: float
    p: float
    q: float = 1.0
    d: int = 1

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"smoothness s must be positive, got {self.s}")
        if not (1.0 <= self.p < math.inf):
            raise ValueError(f"p must lie in [1, inf), got {self.p}")
        if not (1.0 <= self.q):
            raise ValueError(f"q must lie in [1, inf], got {self.q}")
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")

    @property
    def scale_weight_exponent(self) -> float:
        """Exponent of 2^j in the wavelet-form per-scale weight."""
        return self.s - self.d / self.p + self.d / 2.0


def _theta(t) -> np.ndarray:
    """Smooth step: 1 for t <= 1, 0 for t >= 2 (same ramp family as chi)."""
    return smooth_ramp01(2.0 - np.asarray(t, dtype=float))


def rho(abs_y) -> np.ndarray:
    """Dyadic frequency window supported in {1/2 < |y| < 2}.

    rho(y) = theta(|y|) - theta(2|y|) telescopes exactly: sum_j rho(2^-j y) = 1
    for y != 0.
    """
    t = np.abs(np.asarray(abs_y, dtype=float))
    return _theta(t) - _theta(2.0 * t)


def besov_norm_wavelet(c: WaveletCoefficients, params: BesovParams) -> float:
    """Wavelet-form homogeneous Besov norm of a coefficient set."""
    if params.d != c.dim:
        raise ValueError(f"params dimension {params.d} != coefficient dimension {c.dim}")
    if c.nnz() == 0:
        warnings.warn("empty coefficient set; Besov norm reported as 0", stacklevel=2)
        return 0.0
    w = params.scale_weight_exponent
    return _lq_sum([2.0 ** (w * j) * sj for j in c.scale_range()
                    if (sj := c.per_scale_p_sum(j, params.p)) > 0.0], params.q)


def _lq_sum(terms, q: float) -> float:
    """l^q norm of the per-scale terms, max-normalized against under/overflow."""
    if not terms:
        return 0.0
    peak = max(terms)
    if math.isinf(q) or peak == 0.0:
        return float(peak)
    scaled = np.asarray(terms) / peak
    return float(peak * np.sum(scaled**q) ** (1.0 / q))


class SpectralCoverageError(ValueError):
    """Raised when significant spectral energy falls outside the covered band."""

    def __init__(self, msg: str, report: dict):
        super().__init__(msg)
        self.report = report


def default_scale_range(f: GridFunction) -> tuple[int, int]:
    """Dyadic bands covering every representable frequency except the DC bin."""
    axes = f.grid.axes
    fund = min(1.0 / (g.count * g.spacing) for g in axes)
    top = math.hypot(*(g.nyquist for g in axes))
    j_lo = math.floor(math.log2(fund) + 1e-9)
    j_hi = math.ceil(math.log2(top) - 1e-9)
    return j_lo, j_hi


def besov_norm_lp_details(f: GridFunction, params: BesovParams,
                          j_range: tuple[int, int] | None = None) -> dict:
    """Littlewood-Paley Besov norm with the full band report.

    The covered band is exactly {2^j_lo <= |z| <= 2^j_hi}.  Nonzero spectral
    energy outside it beyond a relative 1e-6 is rejected; the DC bin can
    never be covered on a finite window and its energy fraction is reported
    separately instead of counting as a leak.  f is transformed once, to the
    half spectrum of `grid._half_spectrum`, and each scale's block is one
    inverse of it: rho(2^-j |z|) is real and even, so no phase is needed.
    """
    if params.d != f.ndim:
        raise ValueError(f"params dimension {params.d} != function dimension {f.ndim}")
    j_lo, j_hi = j_range if j_range is not None else default_scale_range(f)
    spec, freqs, energy = _half_spectrum(f)
    absf = np.sqrt(reduce(np.add.outer, [fz**2 for fz in freqs]))
    total = float(energy.sum())
    dc = energy[absf == 0.0]
    dc_fraction = float(dc.sum() / total) if total > 0 else 0.0
    outside = (absf > 0) & ((absf < 2.0**j_lo * (1 - 1e-12)) | (absf > 2.0**j_hi * (1 + 1e-12)))
    leak = float(energy[outside].sum() / total) if total > 0 else 0.0
    report = {
        "j_range": [j_lo, j_hi],
        "leak_fraction": leak,
        "dc_fraction": dc_fraction,
        "covered_band": [2.0**j_lo, 2.0**j_hi],
    }
    if leak > 1e-6:
        raise SpectralCoverageError(
            f"spectral energy fraction {leak:.3e} outside covered band "
            f"[2^{j_lo}, 2^{j_hi}]", report)
    terms = []
    per_scale = {}
    for j in range(j_lo, j_hi + 1):
        # rho is exactly +0.0 off 1/2 < y < 2, so only the band is evaluated
        y = absf * 2.0**-j
        band = (y > 0.5) & (y < 2.0)
        mult = np.zeros_like(y)
        mult[band] = rho(y[band])
        if not np.any(mult[band] * np.abs(spec[band]) > 0.0):
            continue
        bn = lp_norm(GridFunction(f.grid, _irfftn(spec * mult, f.grid.shape[-1])), params.p)
        per_scale[j] = bn
        if bn > 0:
            terms.append(2.0 ** (params.s * j) * bn)
    report["norm"] = _lq_sum(terms, params.q)
    report["per_scale"] = per_scale
    return report


def besov_norm_lp(f: GridFunction, params: BesovParams,
                  j_range: tuple[int, int] | None = None) -> float:
    return besov_norm_lp_details(f, params, j_range)["norm"]


def default_wavelet_scales(f: GridFunction) -> tuple[int, int]:
    """Coarse cutoff with 2^-j_min >= 4x the domain length; fine cutoff at the
    analyze admissibility bound.

    In 1D the cutoff is pushed further down, to -16, which keeps truncated
    homogeneous norms dilation-invariant to ~1e-5; in 2D the 4x-length rule
    is used as is.  The extra 1D scales are not free: each samples up to
    P + 1 wavelet translates over the whole axis for its polyphase product.
    """
    axes = f.grid.axes
    j_min = math.floor(-math.log2(4.0 * max(g.length for g in axes)))
    if f.ndim == 1:
        j_min = min(j_min, -16)
    j_max = min(g.resolution_exponent for g in axes) - 2
    return j_min, j_max


def besov_norm_via_analyze(f: GridFunction, params: BesovParams, basis: WaveletBasis,
                           j_min: int | None = None, j_max: int | None = None
                           ) -> tuple[float, WaveletCoefficients]:
    """Analyze f over a default (or given) scale range and take the wavelet norm."""
    d_lo, d_hi = default_wavelet_scales(f)
    c = analyze(f, basis, d_lo if j_min is None else j_min,
                d_hi if j_max is None else j_max)
    return besov_norm_wavelet(c, params), c


def critical_norm(f: GridFunction, p: float, m: int = 1,
                  basis: WaveletBasis | None = None) -> float:
    """||f|| in B^(m/p)_(p,1)(R^d), d = f.ndim: the critical space of the trace
    on a carrier with m-dimensional cells (m = 1 for a sequence), by the
    wavelet form over the default scale range."""
    params = BesovParams(s=m / p, p=p, q=1.0, d=f.ndim)
    return besov_norm_via_analyze(f, params, basis or default_basis())[0]


def pw_membership(f: GridFunction, b: float, tol: float = 1e-6):
    """Paley-Wiener test: spectral energy outside [-b, b] (per axis in 2D).

    Returns (is_member, report) where the report itemizes the leak against
    `total_energy`, the Plancherel energy of f's spectrum.
    """
    if b <= 0:
        raise ValueError(f"band limit must be positive, got {b}")
    _, freqs, energy = _half_spectrum(f)
    total = float(energy.sum())
    outside = reduce(np.logical_or.outer, [np.abs(fz) > b * (1 + 1e-12) for fz in freqs])
    leak = float(energy[outside].sum() / total) if total > 0 else 0.0
    report = {"b": b, "tol": tol, "leak_fraction": leak, "total_energy": total}
    return leak <= tol, report
