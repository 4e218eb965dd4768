"""Measured-ratio evaluation of the sampling and uncertainty inequalities.

Every operation reports ratios and empirical constants; nothing asserts a
theoretical constant except the explicit [1/2, 5/2] two-sided band, and that
band is only ever evaluated behind the smallness gate
b^(m/p) * ||f||_Besov / ||f||_p < delta.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .besov import critical_norm
from .geometry import cell_measures
from .grid import _POINT_BLOCK, GridFunction, _blocks, lp_norm, weighted_lp_norm
from .wavelets import WaveletBasis

__all__ = [
    "TraceValues",
    "SamplingReport",
    "UncertaintyReport",
    "DEFAULT_DELTA",
    "BAND",
    "trace",
    "sampling_ratio",
    "uncertainty_deficiency",
    "uncertainty_check",
    "intB_diagnostic",
    "heisenberg_product",
]

# Smallness gate calibrated on the 20-function zoo across b in {2^-2..2^-7}:
# the cell-weighted ratio stayed inside the band for every case with
# b^(1/p) N below 4.0 (the first failure, a gap spline vanishing on its own
# sequence, sat at 4.02).  Pinned with a safety margin.  The band endpoints
# are the two constants the source inequality states explicitly.
DEFAULT_DELTA = 3.5
BAND = (0.5, 2.5)


@dataclass(eq=False)
class TraceValues:
    """f restricted to a sampling set, with the weights needed for norms.

    carrier_weights realize the H^(d-m) measure on the carrier (all ones for
    point sets), cell_weights the nu_a(H_a)-weighted counterpart (b_n in 1D).
    """

    values: np.ndarray
    carrier_weights: np.ndarray
    cell_weights: np.ndarray
    m: int
    d: int
    b: float

    def __post_init__(self):
        if len(self.values) != len(self.carrier_weights) or \
                len(self.values) != len(self.cell_weights):
            raise ValueError("trace arrays must share one node count")
        _check_weights(self.carrier_weights, self.cell_weights)

    def lp_carrier(self, p: float) -> float:
        """(integral_G |f|^p dH^(d-m))^(1/p)."""
        return float(np.sum(self.carrier_weights * np.abs(self.values) ** p)
                     ** (1.0 / p))


def _check_weights(carrier: np.ndarray, cells: np.ndarray) -> None:
    if np.any(carrier <= 0) or np.any(cells <= 0):
        raise ValueError("trace weights must be positive")


def _trace_blocks(f: GridFunction, sampling_set):
    """f's values, carrier weights and cell weights on the anchors of a
    sampling set, `_POINT_BLOCK` anchors at a time, as (block, values,
    carrier weights, cell weights).  The one body of `trace` and of
    `sampling_ratio`'s norms: it checks the dimensions, the interpolation
    domain (each block) and the weights (each block)."""
    s = sampling_set
    if f.ndim != s.d:
        raise ValueError(f"a {s.d}D sampling set needs a {s.d}D grid function, "
                         f"got {f.ndim}D")
    anchors, weights = s.anchors, s.anchor_weights
    for blk in _blocks(len(anchors), _POINT_BLOCK):
        carrier = weights[blk]
        cells = carrier * cell_measures(s, blk)
        _check_weights(carrier, cells)
        yield blk, f.interpolate(anchors[blk]), carrier, cells


def trace(f: GridFunction, sampling_set) -> TraceValues:
    """Restrict f to the anchors of a sampling set, a 1D sequence (m = d = 1)
    or a 2D carrier (linear interpolation between grid nodes).  The carrier
    weights are a read-only view of the set's anchor weights."""
    s = sampling_set
    n = len(s.anchors)
    vals, cells = np.empty(n), np.empty(n)
    for blk, v, _, c in _trace_blocks(f, s):
        vals[blk], cells[blk] = v, c
    weights = s.anchor_weights.view()
    weights.flags.writeable = False
    return TraceValues(vals, weights, cells, s.m, s.d, s.b)


def _trace_sums(f: GridFunction, sampling_set, p: float) -> tuple[float, float]:
    """(sum w |f|^p, sum nu |f|^p): the carrier integral of |f|^p against
    H^(d-m) and its cell-weighted form, summed a block of anchors at a time
    with no array as long as the trace.  On a set of one block (a 1D sequence
    of at most `_POINT_BLOCK` points) they are `trace`'s sums bit for bit."""
    carrier_sum = cell_sum = 0.0
    for _, vals, carrier, cells in _trace_blocks(f, sampling_set):
        abs_pow = np.abs(vals) ** p
        carrier_sum += np.sum(carrier * abs_pow)
        cell_sum += np.sum(cells * abs_pow)
    return float(carrier_sum), float(cell_sum)


@dataclass
class SamplingReport:
    p: float
    m: int
    b: float
    lp_norm: float
    besov_norm: float
    ratio_norms: float          # N = besov / lp
    smallness: float            # b^(m/p) * N
    delta: float
    hypothesis_ok: bool
    trace_ratio: float          # b^(m/p) ||f|_G||_Lp(G) / ||f||_p
    cell_ratio: float           # cell-weighted sample norm / ||f||_p
    in_band_trace: bool | None
    in_band_cell: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def sampling_ratio(f: GridFunction, sampling_set, p: float,
                   basis: WaveletBasis | None = None,
                   besov_norm: float | None = None) -> SamplingReport:
    """Two-sided trace comparison at the critical smoothness s = m/p, q = 1.

    The two trace sums are taken first, `_POINT_BLOCK` anchors at a time,
    and no trace is built: a bad sampling set fails before the analysis, and
    the analysis, when `besov_norm` is not given, runs with nothing of the
    trace held.  The [1/2, 5/2] band flags are only evaluated when the
    smallness hypothesis b^(m/p) N < DEFAULT_DELTA holds; otherwise they
    stay None.
    """
    np_norm = lp_norm(f, p)
    if np_norm == 0.0:
        raise ValueError("cannot form sampling ratios: ||f||_p = 0")
    m, b = sampling_set.m, sampling_set.b
    # the sums check the sampling set, so a bad one fails before the analysis
    carrier_sum, cell_sum = _trace_sums(f, sampling_set, p)
    if besov_norm is None:
        besov_norm = critical_norm(f, p, m, basis)
    N = besov_norm / np_norm
    smallness = b ** (m / p) * N
    ok = bool(smallness < DEFAULT_DELTA)
    trace_ratio = b ** (m / p) * carrier_sum ** (1.0 / p) / np_norm
    cell_ratio = cell_sum ** (1.0 / p) / np_norm
    return SamplingReport(
        p=p, m=m, b=b, lp_norm=np_norm, besov_norm=besov_norm,
        ratio_norms=N, smallness=smallness, delta=DEFAULT_DELTA, hypothesis_ok=ok,
        trace_ratio=trace_ratio, cell_ratio=cell_ratio,
        in_band_trace=(BAND[0] <= trace_ratio <= BAND[1]) if ok else None,
        in_band_cell=(BAND[0] <= cell_ratio <= BAND[1]) if ok else None,
    )


def uncertainty_deficiency(f: GridFunction, sampling_set, p: float) -> float:
    """eps = 1 - (b^m integral_G |f|^p dH^(d-m) / ||f||_p^p)^(1/p), for any
    sampling set (b sum |f(a_n)|^p for a 1D sequence); negative means the
    sampled mass already exceeds the b^-m level (hypothesis fails)."""
    np_norm = lp_norm(f, p)
    if np_norm == 0.0:
        raise ValueError("||f||_p = 0")
    s = sampling_set
    mass = s.b ** s.m * _trace_sums(f, s, p)[0] / np_norm**p
    return 1.0 - mass ** (1.0 / p)


@dataclass
class UncertaintyReport:
    p: float
    b: float
    eps: float
    hypothesis_met: bool
    c_emp: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def uncertainty_check(f: GridFunction, sampling_set, p: float,
                      basis: WaveletBasis | None = None,
                      besov_norm: float | None = None) -> UncertaintyReport:
    """Empirical constant of the concentration lower bound, for eps > 0:
    c_emp = ||f||_Besov(m/p, p, 1) * b^(m/p) / (eps ||f||_p)."""
    s = sampling_set
    eps = uncertainty_deficiency(f, s, p)
    if eps <= 0.0:
        return UncertaintyReport(p, s.b, eps, False, None)
    if besov_norm is None:
        besov_norm = critical_norm(f, p, s.m, basis)
    c_emp = besov_norm * s.b ** (s.m / p) / (eps * lp_norm(f, p))
    return UncertaintyReport(p, s.b, eps, True, c_emp)


def intB_diagnostic(f: GridFunction, sampling_set, p: float,
                    basis: WaveletBasis | None = None,
                    besov_norm: float | None = None):
    """Key-estimate discrepancy: lhs = | ||f||_p - (sum nu_n |f(a_n)|^p)^(1/p) |,
    rhs = b^(m/p) ||f||_Besov(m/p, p, 1); returns (lhs, rhs, lhs/rhs)."""
    s = sampling_set
    np_norm = lp_norm(f, p)
    lhs = abs(np_norm - _trace_sums(f, s, p)[1] ** (1.0 / p))
    if besov_norm is None:
        besov_norm = critical_norm(f, p, s.m, basis)
    rhs = s.b ** (s.m / p) * besov_norm
    if rhs == 0.0:
        raise ValueError("Besov norm vanished; the diagnostic ratio is undefined")
    return lhs, rhs, lhs / rhs


def heisenberg_product(f: GridFunction, alpha: float, p: float,
                       basis: WaveletBasis | None = None,
                       besov_norm: float | None = None) -> float:
    """Scale-free uncertainty product
    |||x|^(alpha/p) f||_p * ||f||_Besov^alpha / ||f||_p^(1+alpha)."""
    if f.ndim != 1:
        raise ValueError("the uncertainty product is one-dimensional")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    np_norm = lp_norm(f, p)
    if np_norm == 0.0:
        raise ValueError("||f||_p = 0")
    wnorm = weighted_lp_norm(f, lambda x: np.abs(x) ** (alpha / p), p)
    if besov_norm is None:
        besov_norm = critical_norm(f, p, basis=basis)
    return wnorm * besov_norm**alpha / np_norm ** (1.0 + alpha)
