"""Sampling sets: 1D irregular sequences with cells, and 2D carrier geometries.

1D sequences are strictly increasing point sets {a_n} covering a working
interval, with cells I_n = [(a_{n-1}+a_n)/2, (a_n+a_{n+1})/2] and cell
lengths b_n; boundary cells are half cells so that sum(b_n) tiles the
interval exactly.

2D geometries attach transversal cells H_a with measures nu_a = dH^m, the
m-dimensional Hausdorff measure on H_a, to a carrier G.  Variants:

  hyperplane-union   horizontal lines y = a_n, vertical-segment cells (m=1)
  perturbed-graph    lines bent by a bounded-slope profile, cells follow (m=1);
                     the nodes whose cell the bend takes out of the window
                     are left out
  curve-family       near-vertical curves pinned to x ~ b*k; discrete anchor
                     set with square cells of l-inf radius b/4 (m=2)
  concentric-circles circles |x| = r_n with radial-segment cells (m=1)
  spiral             polar graph r = rho(theta), radial-segment cells (m=1)

Carriers are discretized into anchor nodes with H^(d-m) quadrature weights
(arc length for m=1, counting for m=2); the same nodes drive trace
integrals.  Everything is trimmed to a bounded window; probes for the
condition checks stay away from a b-collar of the boundary.

Condition checks are Monte-Carlo over a recorded probe family (isotropic
Gaussian bumps of width >= b); for circles and the spiral the comparison
integral carries the weight max(1, r) dr dsigma instead of Lebesgue measure.
Each geometry keeps a k-d tree over its anchors, built on first use: probes
and balls visit only the anchors and cells near them, and balls are counted
before they are gathered.  `scipy.spatial` is imported with the first tree
and `scipy.special` with the first probe integral, so a process that builds
no tree and integrates no probe loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .grid import _POINT_BLOCK, _blocks

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "SamplingSequence1D",
    "SamplingGeometry2D",
    "GeometryConditionsReport",
    "random_sequence",
    "regular_sequence",
    "build_geometry",
    "check_conditions",
    "cell_measures",
    "carrier_measure",
    "cover_multiplicity",
    "geometry_to_json_dict",
    "geometry_from_json_dict",
    "geometry_extent",
]

VARIANTS = (
    "hyperplane-union",
    "perturbed-graph",
    "curve-family",
    "concentric-circles",
    "spiral",
)

# Declared constants (C0, C0_equiv, D) per variant, used wherever the
# parameters (or a JSON spec) leave one out.
DECLARED_CONSTANTS = {
    "hyperplane-union": (10.0, 1.1, 4.0),
    "perturbed-graph": (10.0, 1.1, 4.0),
    "curve-family": (8.0, 6.0, 9.0),
    "concentric-circles": (10.0, 1.5, 4.0),
    "spiral": (12.0, 3.0, 4.0),
}


def carrier_dimension(variant: str) -> int:
    """m, the dimension of the variant's cells: 2 for the squares of
    curve-family, 1 for the segments of the others."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown geometry variant {variant!r}; choose from {VARIANTS}")
    return 2 if variant == "curve-family" else 1


def window_for_grid(grid) -> tuple[float, float]:
    """Square working window matching a (half-open) 2D grid span."""
    return (max(g.x[0] for g in grid.axes), min(g.x[-1] for g in grid.axes))


# ---------------------------------------------------------------------------
# 1D sequences

@dataclass(eq=False)
class SamplingSequence1D:
    """Increasing sample points with gap bound b and the attached cells."""

    points: np.ndarray
    b: float
    strict: bool = False

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if len(self.points) < 3:
            raise ValueError("need at least 3 sample points")
        gaps = np.diff(self.points)
        if np.any(gaps <= 0):
            raise ValueError("sample points must be strictly increasing")
        if np.any(gaps > self.b * (1 + 1e-12)):
            raise ValueError(f"a gap exceeds the bound b={self.b}")
        if self.strict and np.any(gaps < self.b / 2 * (1 - 1e-12)):
            raise ValueError(f"strict mode requires gaps >= b/2={self.b / 2}")

    # a sequence is the m = d = 1 sampling set: its anchors are the points,
    # weighted by the counting measure H^0
    m = 1
    d = 1

    @property
    def anchors(self) -> np.ndarray:
        return self.points

    @property
    def anchor_weights(self) -> np.ndarray:
        return np.ones(len(self.points))

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def cell_lengths(self) -> np.ndarray:
        """b_n = |I_n|; half cells at the two ends so the cells tile exactly."""
        g = self.gaps
        b_n = np.empty(len(self.points))
        b_n[1:-1] = (g[:-1] + g[1:]) / 2.0
        b_n[0] = g[0] / 2.0
        b_n[-1] = g[-1] / 2.0
        return b_n

    @property
    def cells(self) -> np.ndarray:
        """Cell endpoints, shape (n, 2)."""
        p = self.points
        mids = (p[:-1] + p[1:]) / 2.0
        lo = np.concatenate([[p[0]], mids])
        hi = np.concatenate([mids, [p[-1]]])
        return np.column_stack([lo, hi])

    def rescaled(self, m: int) -> "SamplingSequence1D":
        """Dyadic rescale a_n -> 2^-m a_n (matches dilating f by 2^m)."""
        return SamplingSequence1D(self.points * 2.0**-m, self.b * 2.0**-m, self.strict)


def random_sequence(b: float, interval: tuple[float, float], seed: int,
                    strict: bool = True, lattice: float | None = None
                    ) -> SamplingSequence1D:
    """Seeded sequence covering `interval` with gaps in [b/2, b] (strict) or
    (0, b] (loose).

    The raw gaps overshoot the interval and are rescaled down onto it; strict
    draws start slightly above b/2 so the rescale never violates the lower
    bound.  With `lattice` set, points are snapped to that lattice (gaps stay
    admissible as long as lattice <= b/8), which makes downstream grid
    sampling exact.
    """
    lo, hi = float(interval[0]), float(interval[1])
    L = hi - lo
    if not (b > 0) or L < 4 * b:
        raise ValueError(f"need interval length >= 4b, got length {L}, b={b}")
    rng = np.random.default_rng(seed)
    margin = 2.0 * b / L
    g_lo, g_hi = (b / 2 * (1 + margin), b) if strict else (0.05 * b, b * (1 - margin))
    # gaps are drawn until their running total reaches L, a chunk of about
    # the expected count at a time: the chunk's draws are the scalar draws
    # in turn, and cumsum adds them to the total one after another
    n_chunk = int(L / (0.5 * (g_lo + g_hi))) + 1
    gaps = np.empty(0)
    total = 0.0
    while total < L:
        chunk = rng.uniform(g_lo, g_hi, size=n_chunk)
        sums = np.cumsum(np.concatenate([[total], chunk]))[1:]
        k = min(int(np.searchsorted(sums, L)), n_chunk - 1)  # the first sum >= L
        gaps = np.concatenate([gaps, chunk[: k + 1]])
        total = sums[k]
    gaps = gaps * (L / total)
    pts = lo + np.concatenate([[0.0], np.cumsum(gaps)])
    pts[-1] = hi
    if lattice is not None:
        if lattice > b / 8:
            raise ValueError("lattice snapping needs lattice <= b/8")
        pts = np.round(pts / lattice) * lattice
        # snapping must not push the endpoints outside the working interval
        pts = np.clip(pts, math.ceil(lo / lattice - 1e-9) * lattice,
                      math.floor(hi / lattice + 1e-9) * lattice)
        pts = np.unique(pts)
    return SamplingSequence1D(pts, b, strict=strict)


def regular_sequence(b: float, interval: tuple[float, float]) -> SamplingSequence1D:
    """Arithmetic sequence with gap exactly b; interval length must be a
    multiple of b."""
    lo, hi = float(interval[0]), float(interval[1])
    n = (hi - lo) / b
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"interval length {hi - lo} is not a multiple of b={b}")
    pts = np.linspace(lo, hi, int(round(n)) + 1)
    return SamplingSequence1D(pts, b, strict=True)


# ---------------------------------------------------------------------------
# 2D geometries

@dataclass(eq=False)
class SamplingGeometry2D:
    """Discretized 2D sampling geometry.

    anchors:        (N, 2) carrier nodes
    anchor_weights: H^(d-m) quadrature weight per node (arc length for m=1,
                    1.0 for m=2)
    Cells are segments (cell_a/cell_b endpoints, m=1) or l-inf balls
    (cell_centers/cell_radius, m=2), each with its Hausdorff measure.
    `boundary_flags` marks anchors whose cell was trimmed by the window.
    `anchor_index` is a k-d tree over the anchors and `cell_reach` bounds the
    distance from an anchor to any point of its cell; both are built on first
    use, and the arrays are not to be changed after.
    """

    variant: str
    m: int
    b: float
    C0: float
    D: float
    window: tuple[float, float]
    anchors: np.ndarray
    anchor_weights: np.ndarray
    C0_equiv: float
    boundary_flags: np.ndarray
    cell_a: np.ndarray | None = None
    cell_b: np.ndarray | None = None
    cell_centers: np.ndarray | None = None
    cell_radius: float | None = None
    params: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return 2

    def n_anchors(self) -> int:
        return len(self.anchors)

    @cached_property
    def anchor_index(self) -> cKDTree:
        """k-d tree over the anchors, which it shares rather than copies."""
        from scipy.spatial import cKDTree
        # sliding-midpoint splits, and leaves of 64 points for the queries
        # that gather whole neighbourhoods
        return cKDTree(self.anchors, leafsize=64, balanced_tree=False,
                       compact_nodes=False, copy_data=False)

    @cached_property
    def cell_reach(self) -> float:
        """Largest distance from an anchor to a point of its cell, so a cell
        meets B(x, r) only if its anchor lies in B(x, r + cell_reach)."""
        # a segment's farthest point is an endpoint; a square adds half its diagonal
        ends, pad = (((self.cell_a, self.cell_b), 0.0) if self.m == 1 else
                     ((self.cell_centers,), math.sqrt(2.0) * self.cell_radius))
        far = 0.0  # `_POINT_BLOCK` anchors at a time, as in `cell_measures`
        for blk in _blocks(len(self.anchors), _POINT_BLOCK):
            for end in ends:
                dx, dy = (end[blk] - self.anchors[blk]).T
                far = max(far, float(np.max(dx * dx + dy * dy)))
        return math.sqrt(far) + pad


# Carrier quadrature step: the node spacing along the lines and circles.
CARRIER_STEP = 2.0**-7

# The `params` keys build_geometry takes: the common ones, then each
# variant's own and those it records (a written spec carries them back).
_COMMON_PARAMS = {"b", "window", "seed", "C0", "C0_equiv", "D"}
_VARIANT_PARAMS = {
    "hyperplane-union": {"heights", "strict", "drop_line", "step"},
    "perturbed-graph": {"heights", "strict", "drop_line", "amp", "freq", "step"},
    "curve-family": {"straight", "n_curves"},
    "concentric-circles": {"radii", "step", "rmax"},
    "spiral": {"radii", "n_per_turn", "rmax"},
}


def _index_param(value, key: str, stop: float = math.inf) -> int:
    """`value` as an integer in [0, stop); a ValueError naming `key` if not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not 0 <= value < stop:
        raise ValueError(f"geometry param {key!r} must be an integer in [0, {stop}), got {value!r}")
    return int(value)


def _random_radii(b: float, rmax: float, seed) -> np.ndarray:
    """3b/4, then seeded gaps in (b/2, b) until one reaches rmax."""
    rng = np.random.default_rng(seed)
    radii = [0.75 * b]
    while radii[-1] < rmax:
        radii.append(radii[-1] + rng.uniform(b / 2 * 1.001, b * 0.999))
    return np.asarray(radii)


def _small_window_message(variant: str, b: float, window) -> str:
    """Why the random radii (3b/4, then gaps below b up to rmax = reach - b)
    do not fit in the window."""
    return (f"{variant} with b={b:g} needs a window that reaches beyond 7b/4 = "
            f"{1.75 * b:g} from 0, and window {list(window)} reaches "
            f"{min(map(abs, window)):g}; widen the window or lower b")


# Piecewise cubics in the floating-point operations of scipy's
# CubicHermiteSpline, PchipInterpolator and PPoly, so their values are the
# same bits without importing `scipy.interpolate`.

def _hermite_coefficients(x, y, dydx) -> np.ndarray:
    """(4, n-1) power coefficients, highest first, of the piece on each
    [x_k, x_k+1] of the cubic with values y and slopes dydx at the knots."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point slope at an end, kept to the sign of m0 and
    below 3|m0| where the data turn."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x, y) -> np.ndarray:
    """Knot slopes of the monotone PCHIP interpolant: Fritsch-Butland's
    weighted harmonic mean of the neighbouring secants, 0 where they differ
    in sign or one vanishes."""
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        return np.array([m[0], m[0]])
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1][~flat] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[~flat]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _power_sum(c, s):
    """sum_k c[-1-k] s^k for coefficients c, highest first, added term by term
    with s^k as repeated products (PPoly's order, not Horner's)."""
    res, z = 0.0, 1.0
    for ck in c[::-1]:
        res = res + ck * z
        z = z * s
    return res


def _derivative(c) -> np.ndarray:
    """Coefficients, highest first, of the derivative of each piece."""
    return c[:-1] * np.arange(len(c) - 1, 0, -1)[:, None]


def _piecewise_cubic(x, c, xi):
    """Values at xi of the pieces c on the knots x: the piece of
    [x_k, x_k+1) (the last one closed), and the end pieces beyond the ends."""
    k = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, len(x) - 2)
    return _power_sum(c[:, k], xi - x[k])


def _radial_cells(counts, piece):
    """Anchors, weights, flags and radial segment cells (as the cell_a/cell_b
    keywords of SamplingGeometry2D), filled one circle or turn at a time.
    piece(k) gives the angles, radius, weights, inner and outer cell radius
    and boundary flag of the counts[k] nodes of piece k."""
    ends = np.cumsum([0, *counts])
    anchors, ca, cb = (np.empty((ends[-1], 2)) for _ in range(3))
    weights, flags = np.empty(ends[-1]), np.empty(ends[-1], bool)
    for k in range(len(counts)):
        sl = slice(ends[k], ends[k + 1])
        th, r, w, r_in, r_out, flag = piece(k)
        u = np.column_stack([np.cos(th), np.sin(th)])
        anchors[sl], weights[sl], ca[sl], cb[sl], flags[sl] = \
            r * u, w, r_in * u, r_out * u, flag
    return anchors, weights, flags, {"cell_a": ca, "cell_b": cb}


def build_geometry(variant: str, params: dict) -> SamplingGeometry2D:
    """Construct a sampling geometry on the window.

    Common params: b, window=(lo, hi), seed, C0, C0_equiv, D (positive;
    defaults per variant in DECLARED_CONSTANTS).  Variant-specific parameters
    are documented inline.  The carrier step CARRIER_STEP and the radial
    reach rmax = min(|lo|, |hi|) - b are fixed; `params` records them.  A
    key that the variant neither takes nor records is rejected.
    """
    *_, geometry = _geometry_steps(variant, params)
    return geometry


def _geometry_steps(variant: str, params: dict):
    """`build_geometry` in two steps: once `params` pass every check, yield an
    interval that holds both coordinates of every anchor, then the geometry."""
    m = carrier_dimension(variant)
    unknown = sorted(set(params) - _COMMON_PARAMS - _VARIANT_PARAMS[variant])
    if unknown:
        raise ValueError(f"unknown {variant} geometry param(s) {unknown}; it takes "
                         f"{sorted(_COMMON_PARAMS | _VARIANT_PARAMS[variant])}")
    C0, C0_equiv, D = (float(params.get(key, default)) for key, default in
                       zip(("C0", "C0_equiv", "D"), DECLARED_CONSTANTS[variant]))
    if not min(C0, C0_equiv, D) > 0:
        raise ValueError(f"the declared constants must be positive, got "
                         f"C0={C0}, C0_equiv={C0_equiv}, D={D}")
    b = float(params["b"])
    window = tuple(params.get("window", (-8.0, 8.0)))
    seed = _index_param(params.get("seed", 0), "seed")
    lo, hi = window
    rmax = float(min(abs(lo), abs(hi)) - b)

    if variant in ("hyperplane-union", "perturbed-graph"):
        # heights a_n: strict random sequence unless given explicitly
        strict = params.get("strict", True)
        heights = (SamplingSequence1D(params["heights"], b, strict=strict) if "heights" in params
                   else random_sequence(b, window, seed, strict=strict)).points
        rec = {"heights": heights.tolist(), "seed": seed, "step": CARRIER_STEP,
               **({k: params[k] for k in ("amp", "freq", "drop_line", "strict")
                   if params.get(k) is not None})}
        # cells span to the midlines of the neighbors, half cells at the ends;
        # clipping to the window happens after boundary flagging
        mids = (heights[:-1] + heights[1:]) / 2.0
        y_lo = np.concatenate([[heights[0] - b / 2], mids])
        y_hi = np.concatenate([mids, [heights[-1] + b / 2]])
        if "drop_line" in rec:
            # deliberate defect: remove one carrier line together with its
            # cells, leaving an uncovered band (cells are NOT re-derived)
            keep = np.ones(len(heights), bool)
            keep[_index_param(rec["drop_line"], "drop_line", len(heights))] = False
            heights, y_lo, y_hi = heights[keep], y_lo[keep], y_hi[keep]
        amp, freq = float(params.get("amp", b)), float(params.get("freq", 0.5))
        if variant == "perturbed-graph" and amp * freq > 1.0:
            raise ValueError(f"perturbation slope {amp * freq} exceeds 1")
        yield min(lo, heights[0]), max(hi, heights[-1])  # given heights may stick out
        # arc-length nodes along each line, half weights at the two ends
        n = max(2, int(math.ceil((hi - lo) / CARRIER_STEP)) + 1)
        w = np.full(n, (hi - lo) / (n - 1))
        w[[0, -1]] *= 0.5
        anchors = np.column_stack([np.tile(np.linspace(lo, hi, n), len(heights)),
                                   np.repeat(heights, n)])
        weights = np.tile(w, len(heights))
        line_idx = np.repeat(np.arange(len(heights)), n)
        bend = 0.0
        if variant == "perturbed-graph":
            bend = amp * np.sin(freq * anchors[:, 0])
            # arc length weight for y = f(x) + a_n
            slope = amp * freq * np.cos(freq * anchors[:, 0])
            weights *= np.sqrt(1.0 + slope**2)
            anchors[:, 1] = np.clip(anchors[:, 1] + bend, lo, hi)
        raw_lo = y_lo[line_idx] + bend
        raw_hi = y_hi[line_idx] + bend
        # a bent line leaves the window where its whole cell does; those
        # nodes (clipped onto the edge, with cells of zero measure) are not
        # part of the set in the window
        inside = (raw_lo < hi) & (raw_hi > lo)
        anchors, weights = anchors[inside], weights[inside]
        raw_lo, raw_hi = raw_lo[inside], raw_hi[inside]
        flags = (raw_lo < lo) | (raw_hi > hi)  # window-trimmed cells
        cells = {"cell_a": np.column_stack([anchors[:, 0], np.clip(raw_lo, lo, hi)]),
                 "cell_b": np.column_stack([anchors[:, 0], np.clip(raw_hi, lo, hi)])}

    elif variant == "curve-family":
        # near-vertical curves x = b*k + wiggle(y), anchors at y-spacing b,
        # square cells of l-inf radius b/4 centered on the lattice x = b*k
        rng = np.random.default_rng(seed)
        # keep curves (lattice position +- wiggle b/4) inside the window
        ks = np.arange(math.ceil((lo + b / 4) / b), math.floor((hi - b / 4) / b) + 1)
        ys = np.arange(lo + b / 2, hi - b / 2 + 1e-12, b)
        edges = [*(b * ks[[0, -1]] + [-b / 4, b / 4]), *ys[[0, -1]]] \
            if len(ks) and len(ys) else window  # the outer curves and rows
        yield min(edges), max(edges)
        xs = np.repeat(b * ks, len(ys)).reshape(len(ks), len(ys))
        if not params.get("straight", False):
            for x in xs:
                ph = rng.uniform(0, 2 * np.pi)
                x += (b / 4) * np.sin(2 * np.pi * ys / (hi - lo) * rng.integers(1, 4) + ph)
        anchors = np.column_stack([xs.ravel(), np.tile(ys, len(ks))])
        weights, flags = np.ones(len(anchors)), np.zeros(len(anchors), bool)
        centers = anchors.copy()
        centers[:, 0] = np.round(centers[:, 0] / b) * b  # squares sit on the lattice
        cells = {"cell_centers": centers, "cell_radius": b / 4.0}
        rec = {"seed": seed, "n_curves": len(ks),
               **({"straight": params["straight"]}
                  if params.get("straight") is not None else {})}

    elif variant == "concentric-circles":
        if "radii" in params:
            radii = np.asarray(params["radii"], dtype=float)
        else:
            radii = _random_radii(b, rmax, seed)
            if radii[-1] > rmax:
                radii = radii[:-1]
        if radii.size == 0:
            raise ValueError("concentric-circles needs a circle: geometry param 'radii' "
                             "is empty" if "radii" in params
                             else _small_window_message(variant, b, window))
        gaps = np.diff(radii)
        if np.any(gaps <= b / 2) or np.any(gaps >= b):
            raise ValueError("circle radii gaps must lie strictly in (b/2, b)")
        yield -np.max(np.abs(radii)), np.max(np.abs(radii))  # centred at 0
        mids = (radii[:-1] + radii[1:]) / 2.0
        seg_lo = np.concatenate([[0.0], mids])
        seg_hi = np.concatenate([mids, [radii[-1] + gaps[-1] / 2 if len(gaps) else radii[-1] + b / 2]])
        seg_hi = np.minimum(seg_hi, rmax + b)
        counts = [max(8, int(math.ceil(2 * np.pi * r / CARRIER_STEP))) for r in radii]

        def circle(i):
            th = np.linspace(0.0, 2 * np.pi, counts[i], endpoint=False)
            return (th, radii[i], 2 * np.pi * radii[i] / counts[i], seg_lo[i],
                    seg_hi[i], i == len(radii) - 1)

        anchors, weights, flags, cells = _radial_cells(counts, circle)
        rec = {"radii": radii.tolist(), "seed": seed, "step": CARRIER_STEP,
               "rmax": rmax}

    else:
        # spiral: r = rho(theta), rho(2*pi*k) = r_k, radial cells [r_{k-1}, r_{k+1}]
        radii = _random_radii(b, rmax, seed)
        if len(radii) < 2:  # one turn needs two radii
            raise ValueError(_small_window_message(variant, b, window))
        yield -radii[-1], radii[-1]  # centred at 0, rho increasing
        # rho is the PCHIP interpolant of the radii at theta = 2*pi*k: turn k
        # is its k-th piece, rho' that piece's derivative
        knots = 2 * np.pi * np.arange(len(radii))
        rho = _hermite_coefficients(knots, radii, _pchip_slopes(knots, radii))
        drho = _derivative(rho)
        n_per_turn = max(32, int(2 * math.pi * rmax / CARRIER_STEP))

        def turn(k):
            th = np.linspace(2 * np.pi * k, 2 * np.pi * (k + 1), n_per_turn,
                             endpoint=False)
            s = th - knots[k]
            r = _power_sum(rho[:, k], s)
            return (th, r[:, None],
                    np.sqrt(r**2 + _power_sum(drho[:, k], s)**2) * (2 * np.pi / n_per_turn),
                    radii[k - 1] if k >= 1 else 0.0, radii[k + 1], k >= len(radii) - 2)

        anchors, weights, flags, cells = _radial_cells(
            [n_per_turn] * (len(radii) - 1), turn)
        rec = {"radii": radii.tolist(), "seed": seed, "n_per_turn": n_per_turn,
               "rmax": rmax}

    yield SamplingGeometry2D(variant, m, b, C0, D, window, anchors, weights,
                             C0_equiv, flags, params=rec, **cells)


def cell_measures(obj, blk: slice = slice(None)) -> np.ndarray:
    """nu_a(H_a) per anchor (1D: the cell lengths b_n), or per anchor of the
    block `blk` of anchors.

    Segment lengths are sqrt(dx*dx + dy*dy), `_POINT_BLOCK` cells at a time,
    so no temporary is as large as the cells.
    """
    if isinstance(obj, SamplingSequence1D):
        return obj.cell_lengths[blk]
    g = obj
    n = len(g.anchors[blk])
    if g.m == 1:
        out = np.empty(n)
        cell_a, cell_b = g.cell_a[blk], g.cell_b[blk]
        for sub in _blocks(n, _POINT_BLOCK):
            dx, dy = (cell_b[sub] - cell_a[sub]).T
            np.sqrt(dx * dx + dy * dy, out=out[sub])
        return out
    return np.full(n, (2.0 * g.cell_radius) ** 2)


# ---------------------------------------------------------------------------
# condition checks

@dataclass
class GeometryConditionsReport:
    variant: str
    n_probes: int
    seed: int
    declared_C0: float
    declared_D: float
    equiv_lower: float
    equiv_upper: float
    equiv_C0: float
    mes2_lower: float
    mes2_upper: float
    mes2_C0: float
    mes_C0: float
    multiplicity_max: int | None
    diam_range: tuple[float, float]
    passes: dict
    failures: list

    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["diam_range"] = list(self.diam_range)
        return d


def _probe_params(rng, window, b, radial_max=None):
    """Isotropic Gaussian probe exp(-pi |x-c|^2 / w^2), width >= b, center in
    the probe-safe region (a b-collar plus 20% margin off the boundary)."""
    lo, hi = window
    pad = 0.2 * (hi - lo) / 2 + b
    w = rng.uniform(b, 4 * b)
    if radial_max is not None:
        rc = rng.uniform(0.0, max(radial_max - pad, b))
        th = rng.uniform(0, 2 * np.pi)
        c = np.array([rc * math.cos(th), rc * math.sin(th)])
    else:
        c = rng.uniform(lo + pad, hi - pad, size=2)
    return c, w


def _gauss_plane_integral(w: float) -> float:
    # integral over R^2 of exp(-pi |x-c|^2 / w^2)
    return w * w


def _gauss_segment_integral(a, bpt, near, c, w):
    """Exact integral of the Gaussian probe along the segments a[near] ->
    bpt[near], on the coordinate columns of their rows gathered with `take`."""
    from scipy.special import erf
    (ax, ay), (bx, by) = (np.take(p, near, axis=0).T for p in (a, bpt))
    dx, dy, rx, ry = bx - ax, by - ay, c[0] - ax, c[1] - ay
    L = np.sqrt(dx * dx + dy * dy)
    t0 = rx * dx + ry * dy  # over L: the foot of the perpendicular
    np.divide(t0, L, out=t0, where=L > 0)
    h2 = rx * rx + ry * ry - t0 * t0
    pref = np.exp(-np.pi * np.maximum(h2, 0.0) / w**2)
    srt = math.sqrt(math.pi) / w
    return pref * (w / 2.0) * (erf(srt * (L - t0)) - erf(srt * (-t0)))


def _gauss_square_integral(centers, radius, c, w):
    """Probe integral over axis-aligned squares (vectorized, exact erf form)."""
    from scipy.special import erf
    srt = math.sqrt(math.pi) / w
    out = np.ones(len(centers))
    for axis in range(2):
        lo = centers[:, axis] - radius - c[axis]
        hi = centers[:, axis] + radius - c[axis]
        out *= (w / 2.0) * (erf(srt * hi) - erf(srt * lo))
    return out


def _radial_profile_integral(tgrid, weight, c, w):
    """integral weight(t) * [angular integral of probe on circle radius t] dt.

    The angular integral of exp(-pi |x-c|^2 / w^2) over directions at radius
    t reduces exactly to the Bessel form
    2*pi * exp(-pi (t - rc)^2 / w^2) * i0e(2*pi*t*rc / w^2) with rc = |c|;
    the outer integral against dt carries the given radial weight.  Only the
    nodes with |t - rc| <= PROBE_CUTOFF w are summed, as for the cells.
    """
    from scipy.special import i0e
    rc = float(np.linalg.norm(c))
    keep = np.abs(tgrid - rc) <= PROBE_CUTOFF * w
    t, weight = tgrid[keep], weight[keep]
    arg = 2.0 * np.pi * t * rc / w**2
    vals = 2.0 * np.pi * np.exp(-np.pi * (t - rc) ** 2 / w**2) * i0e(arg)
    return float(np.trapezoid(weight * vals, t))


# Probe integrals skip the cells farther than PROBE_CUTOFF widths from the
# probe centre, where the probe is below exp(-pi PROBE_CUTOFF^2) = exp(-49 pi)
# ~ 1.9e-67: the dropped mass is at most that times the total cell measure.
PROBE_CUTOFF = 7.0


def _ball_indices(tree: cKDTree, x, r: float) -> np.ndarray:
    """Sorted indices of the tree points within distance r of x (may be
    empty: still an integer index array).

    A one-point tree at x, matched against `tree`, returns the indices as
    an array; `tree.query_ball_point` returns a Python list.
    """
    from scipy.spatial import cKDTree
    one = cKDTree(np.asarray(x, dtype=float).reshape(1, -1))
    return np.sort(one.sparse_distance_matrix(tree, r, output_type="ndarray")["j"])


def equiv_lhs_for_probe(g: SamplingGeometry2D, center, width: float) -> float:
    """Carrier/cell double integral of the Gaussian probe (exact erf forms),
    over the cells that come within PROBE_CUTOFF widths of the centre."""
    c = np.asarray(center, dtype=float)
    near = _ball_indices(g.anchor_index, c, PROBE_CUTOFF * width + g.cell_reach)
    if g.m == 1:
        vals = _gauss_segment_integral(g.cell_a, g.cell_b, near, c, width)
    else:
        vals = _gauss_square_integral(g.cell_centers[near], g.cell_radius, c, width)
    return float(np.sum(np.take(g.anchor_weights, near) * vals))


def equiv_ratio_for_probe(g: SamplingGeometry2D, center, width: float) -> float:
    """LHS / Lebesgue-integral ratio for one probe (the eq. (ii) lower side)."""
    return equiv_lhs_for_probe(g, center, width) / _gauss_plane_integral(width)


def carrier_measure(g: SamplingGeometry2D, x, R: float) -> float:
    """H^(d-m)(G cap B(x, R)) by the anchor quadrature: the weights of the
    anchors in the closed ball (their count for m=2)."""
    x = np.asarray(x, dtype=float)
    # the tree compares squared distances, which may round the other way at
    # |a - x| = R; the norm test runs only if the balls at R(1 -+ 1e-9) differ
    inner, outer = (g.anchor_index.query_ball_point(x, R * f, return_length=True)
                    for f in (1 - 1e-9, 1 + 1e-9))
    if inner == outer and g.m == 2:
        return float(outer)
    near = _ball_indices(g.anchor_index, x, R * (1 + 1e-9))
    if inner != outer:
        near = near[np.linalg.norm(g.anchors[near] - x[None, :], axis=1) <= R]
    return float(np.sum(g.anchor_weights[near])) if g.m == 1 else float(len(near))


def cover_multiplicity(g: SamplingGeometry2D, pts) -> np.ndarray:
    """How many closed radius-b cubes around the anchors contain each point."""
    from scipy.spatial import cKDTree
    pts = np.asarray(pts, dtype=float)
    pairs = cKDTree(pts).sparse_distance_matrix(g.anchor_index, g.b, p=np.inf,
                                                output_type="ndarray")
    return np.bincount(pairs["i"], minlength=len(pts))


MIN_PROBES = 10


def check_conditions(g: SamplingGeometry2D, n_probes: int = 1000, seed: int = 0
                     ) -> GeometryConditionsReport:
    """Monte-Carlo certificates for the covering/measure conditions.

    (a) the two-sided integral comparison on Gaussian-bump probes (for
        circles/spiral the right-hand side carries the max(1,r) dr dsigma
        weight), (b) cell Ahlfors bounds nu_a(B(x,R) cap H_a) vs min(R,b)^m
        with x on the cell, (c) the carrier-measure growth bound
        H^(d-m)(G cap B(x,R)) <= C0 R^(d-m) max(1, R/b)^m, and, for m=2, the
        covering multiplicity of the radius-b cubes.

    The geometry's anchor tree keeps each check local: a probe of width w
    integrates, on gathered coordinate columns, only the cells within 7w of
    its centre (beyond, the probe is below exp(-49 pi)), and its radial
    comparison only the radii within 7w of |c|.  A ball of (c) is counted at
    R(1 -+ 1e-9) first and gathered only for its weights (m=1) or when an
    anchor lies that close to the sphere.  The multiplicity is one l-inf pair
    query of the points against the anchors.
    """
    if n_probes < MIN_PROBES:
        raise ValueError(f"probe budget too small; need at least {MIN_PROBES}")
    rng = np.random.default_rng(seed)
    lo, hi = g.window
    b = g.b
    radial = g.variant in ("concentric-circles", "spiral")
    rmax = g.params.get("rmax")
    failures: list = []

    # --- (a) integral comparison
    # lower bound always against the Lebesgue integral; for circles/spiral the
    # upper bound is taken against the weighted measure max(1, r) dr dsigma.
    # The budget share is capped at 400 probes.
    n_equiv = min(400, max(10, n_probes // 5))
    lo_ratios, hi_ratios = [], []
    if radial:
        tgrid = np.linspace(0.0, rmax + 2 * b, 4096)
        tweight = np.maximum(1.0, tgrid)
    for _ in range(n_equiv):
        c, w = _probe_params(rng, g.window, b, radial_max=rmax if radial else None)
        lhs = equiv_lhs_for_probe(g, c, w)
        lebesgue = _gauss_plane_integral(w)
        upper_ref = _radial_profile_integral(tgrid, tweight, c, w) if radial else lebesgue
        lo_ratios.append(lhs / lebesgue)
        hi_ratios.append(lhs / upper_ref)
    equiv_lower = float(np.min(lo_ratios))
    equiv_upper = float(np.max(hi_ratios))
    equiv_C0 = max(equiv_upper, 1.0 / max(equiv_lower, 1e-300))

    # --- (b) cell Ahlfors regularity
    interior = ~g.boundary_flags
    idx_pool = np.nonzero(interior)[0]
    if len(idx_pool) == 0:
        idx_pool = np.arange(g.n_anchors())
    n_mes2 = max(10, n_probes // 2)
    picks = rng.choice(idx_pool, size=n_mes2)
    lo_c, hi_c = np.inf, 0.0
    for i in picks:
        R = float(np.exp(rng.uniform(math.log(b / 8), math.log(4 * b))))
        if g.m == 1:
            A, Bp = g.cell_a[i], g.cell_b[i]
            t = rng.uniform(0.0, 1.0)
            x = A + t * (Bp - A)
            length = _segment_ball_length(A, Bp, x, R)
        else:
            cen = g.cell_centers[i]
            x = cen + rng.uniform(-g.cell_radius, g.cell_radius, size=2)
            length = _square_ball_area(cen, g.cell_radius, x, R)
        ratio = length / min(R, b) ** g.m
        lo_c, hi_c = min(lo_c, ratio), max(hi_c, ratio)
    mes2_lower, mes2_upper = float(lo_c), float(hi_c)
    mes2_C0 = max(mes2_upper, 1.0 / max(mes2_lower, 1e-300))

    # --- (c) carrier measure growth
    n_mes = max(10, n_probes // 2)
    mes_c = 0.0
    for _ in range(n_mes):
        x = rng.uniform(lo + b, hi - b, size=2)
        R = float(np.exp(rng.uniform(math.log(b / 2), math.log((hi - lo) / 4))))
        meas = carrier_measure(g, x, R)
        denom = R ** (2 - g.m) * max(1.0, R / b) ** g.m
        mes_c = max(mes_c, meas / denom)

    # --- covering multiplicity (m=2 only)
    mult_max = None
    if g.m == 2:
        n_cov = 10000
        pts = rng.uniform(lo + b, hi - b, size=(n_cov, 2))
        mult = cover_multiplicity(g, pts)
        if np.any(mult == 0):
            failures.append("radius-b cubes fail to cover some probe points")
        mult_max = int(mult.max())

    # --- cell diameters (interior cells only; l-inf diameter for squares)
    if g.m == 1:
        lengths = cell_measures(g)
        diam = lengths[interior] if interior.any() else lengths
    else:
        diam = np.array([2.0 * g.cell_radius])
    diam_range = (float(diam.min()), float(diam.max()))
    # circles keep the long innermost cell reaching to the origin; the spiral
    # cells span two consecutive radii gaps -- both inherit wider bounds
    diam_cap = {"concentric-circles": 1.5 * b, "spiral": 2.0 * b}.get(g.variant, b)

    passes = {
        "equiv": equiv_C0 <= g.C0_equiv,
        "mes2": mes2_C0 <= g.C0,
        "mes": mes_c <= g.C0,
        "diam": diam_range[0] >= b / 2 * (1 - 1e-9)
                and diam_range[1] <= diam_cap * (1 + 1e-9),
    }
    if g.m == 2:
        passes["cover_multiplicity"] = mult_max is not None and mult_max <= g.D
    if not passes["equiv"]:
        failures.append(
            f"empirical equivalence constant {equiv_C0:.3g} exceeds declared "
            f"C0_equiv={g.C0_equiv}")
    return GeometryConditionsReport(
        g.variant, n_probes, seed, g.C0, g.D,
        equiv_lower, equiv_upper, equiv_C0,
        mes2_lower, mes2_upper, mes2_C0, float(mes_c),
        mult_max, diam_range, passes, failures,
    )


def _segment_ball_length(A, B, x, R) -> float:
    d = B - A
    L2 = float(d @ d)
    if L2 == 0:
        return 0.0
    # |A + t d - x|^2 <= R^2
    rel = A - x
    bq = 2.0 * float(rel @ d)
    cq = float(rel @ rel) - R * R
    disc = bq * bq - 4 * L2 * cq
    if disc <= 0:
        return 0.0
    sq = math.sqrt(disc)
    t1 = max(0.0, (-bq - sq) / (2 * L2))
    t2 = min(1.0, (-bq + sq) / (2 * L2))
    return max(0.0, t2 - t1) * math.sqrt(L2)


def _square_ball_area(center, radius, x, R, n: int = 129) -> float:
    xs = np.linspace(center[0] - radius, center[0] + radius, n)
    dx = xs - x[0]
    inside = R * R - dx * dx
    half = np.sqrt(np.maximum(inside, 0.0))
    y_lo = np.maximum(center[1] - radius, x[1] - half)
    y_hi = np.minimum(center[1] + radius, x[1] + half)
    chord = np.maximum(y_hi - y_lo, 0.0) * (inside > 0)
    return float(np.trapezoid(chord, xs))


# ---------------------------------------------------------------------------
# JSON round trip

def geometry_to_json_dict(g: SamplingGeometry2D) -> dict:
    return {"variant": g.variant, "b": g.b, "C0": g.C0, "C0_equiv": g.C0_equiv,
            "D": g.D, "window": list(g.window), "params": g.params}


def _json_params(d: dict) -> tuple[str, dict]:
    """The variant and `build_geometry` params of the geometry spec `d`."""
    missing = [key for key in ("variant", "b") if key not in d]
    if missing:
        raise ValueError(f"geometry spec lacks the required key(s) {missing}")
    params = dict(d.get("params", {}))
    if "seed" in d:
        params.setdefault("seed", d["seed"])
    params["b"] = d["b"]
    params["window"] = tuple(d.get("window", (-8.0, 8.0)))
    # constants the spec leaves out take build_geometry's per-variant defaults
    params.update({key: d[key] for key in ("C0", "C0_equiv", "D")
                   if d.get(key) is not None})
    return d["variant"], params


def geometry_from_json_dict(d: dict) -> SamplingGeometry2D:
    return build_geometry(*_json_params(d))


def geometry_extent(d: dict) -> tuple[float, float]:
    """An interval that holds both coordinates of every anchor of the geometry
    of spec `d`, checked as `geometry_from_json_dict` checks it: none is built."""
    return next(_geometry_steps(*_json_params(d)))
