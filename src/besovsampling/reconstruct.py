"""Approximation operators and the Neumann-series sampling reconstruction.

The pipeline composes the trace T_G, a cell-average V onto the node set
Lambda_G, the quasi-interpolation A c = sum_j c_j beta_j over a smooth
partition of unity on balls B(x_j, 2b), and the smooth spectral projector
P applied through the truncated Neumann series

    S = sum_{k=0}^{N} (I - P A V T_G)^k  P A V,

evaluated by the equivalent iteration f_{k+1} = f_k + (u - P A V T_G f_k)
with u = P A V t.  The passband of P is [-a/b, a/b] with transition out to
c/b; the constants only need to be "small enough", so they are runtime
configuration with defaults calibrated by `calibrate_passband`.

`build_operator` builds L = P A V T_G once per sampling set and grid: the
node set, the partition of unity, P and V's bins, with every input check.
Each Neumann step and each solve reuses it.  `full_pipeline` takes two
solves, of f and of its low-pass part g; S T h is their difference.

Note on conventions: the multiplier support scales with the inverse gap,
[-c/b, c/b]; dimensional analysis forces this scaling and it is used
consistently everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .besov import default_wavelet_scales
from .geometry import SamplingSequence1D
from .grid import (Grid1D, GridFunction, check_below_nyquist, check_fft_grid,
                   lp_norm, smooth_lowpass)
from .inequalities import TraceValues, trace
from .wavelets import WaveletBasis, analyze, default_basis, synthesize

__all__ = [
    "LowpassMultiplier",
    "PartitionOfUnity",
    "ReconstructionConfig",
    "ReconstructionOperator",
    "ReconstructionReport",
    "interp_pl",
    "bandlimited_split",
    "build_partition",
    "averaging_V",
    "build_operator",
    "neumann_reconstruct",
    "contraction_estimate",
    "make_passband_family",
    "calibrate_passband",
    "full_pipeline",
]


@dataclass(frozen=True)
class LowpassMultiplier:
    """Smooth projector P: pass below a_factor/b, stop above c_factor/b,
    applied by `smooth_lowpass` on the half spectrum."""

    a_factor: float
    c_factor: float
    b: float

    def __post_init__(self):
        if not (0 < self.a_factor < self.c_factor):
            raise ValueError(
                f"need 0 < a < c, got a={self.a_factor}, c={self.c_factor}")

    @property
    def inner(self) -> float:
        return self.a_factor / self.b

    @property
    def outer(self) -> float:
        return self.c_factor / self.b

    def apply(self, f: GridFunction) -> GridFunction:
        return smooth_lowpass(f, self.inner, self.outer)


def _bump01(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


_ROWS_PER_PRODUCT = 4  # node rows that one matrix product of the 2D partition places


@dataclass(eq=False)
class PartitionOfUnity:
    """Shepard-normalized smooth bumps on B(x_j, 2b) over the node set.

    1D stores the bump windows flattened in node order: `_idx` holds the grid
    index of every window sample, `_vals` the bump value there and `_lens`
    the samples per node, so one `np.bincount` evaluates the sum.  It adds
    in input order, the node order of a per-node loop, so the sums are the
    loop's to the last bit.  2D requires lattice-snapped nodes and places
    the bump kernel `_kernel` directly, by the grid rows `_rows` that hold
    nodes; `_idx` is each node's place in its row's padded y-line.  Where no
    node's disc reaches, the sum is an exact 0.0.
    """

    nodes: np.ndarray
    radius: float
    grid: object
    _total: np.ndarray | None = field(default=None, repr=False)
    _idx: np.ndarray | None = field(default=None, repr=False)
    _vals: np.ndarray | None = field(default=None, repr=False)
    _lens: np.ndarray | None = field(default=None, repr=False)
    _kernel: np.ndarray | None = field(default=None, repr=False)
    _rows: np.ndarray | None = field(default=None, repr=False)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != len(self.nodes):
            raise ValueError("one coefficient per node required")
        if isinstance(self.grid, Grid1D):
            return self._window_sum(np.repeat(coeffs, self._lens) * self._vals) / self._total
        return self._place(coeffs) / self._total

    def _place(self, coeffs: np.ndarray) -> np.ndarray:
        """2D: sum_j coeffs_j K[. - ix_j, . - iy_j] on the grid.  The kernel-wide
        windows of a node row's y-line times K give, in one product, the grid
        rows that it reaches (K is even, so this correlation is the
        convolution); rows past an edge land in the padding."""
        (kx, ky), (nx, ny), rows = self._kernel.shape, self.grid.shape, self._rows
        lines = np.bincount(self._idx, weights=coeffs,
                            minlength=len(rows) * (ny + ky - 1)).reshape(len(rows), -1)
        out = np.zeros((nx + kx - 1, ny))
        for s in range(0, len(rows), _ROWS_PER_PRODUCT):
            win = sliding_window_view(lines[s:s + _ROWS_PER_PRODUCT], ky, axis=1)
            blk = self._kernel @ win.reshape(-1, ky).T
            for r, i in enumerate(rows[s:s + _ROWS_PER_PRODUCT]):
                out[i:i + kx] += blk[:, r * ny:(r + 1) * ny]
        return out[kx // 2:kx // 2 + nx]

    def _window_sum(self, weights: np.ndarray) -> np.ndarray:
        """Sum of the flattened 1D window samples `weights` onto the grid."""
        return np.bincount(self._idx, weights=weights, minlength=self.grid.count)

    def partition_sum(self) -> np.ndarray:
        """sum_j beta_j on the grid (1 wherever nodes cover)."""
        return self.apply(np.ones(len(self.nodes)))

    def interior_mask(self) -> np.ndarray:
        """Grid points within `radius` of some node on every side."""
        nodes = self.nodes.reshape(len(self.nodes), -1)
        return reduce(np.logical_and.outer,
                      [(g.x >= nodes[:, a].min()) & (g.x <= nodes[:, a].max())
                       for a, g in enumerate(self.grid.axes)])


def build_partition(nodes: np.ndarray, b: float, grid) -> PartitionOfUnity:
    radius = 2.0 * b
    nodes = np.asarray(nodes, dtype=float)
    if isinstance(grid, Grid1D):
        lo = np.maximum(0, np.ceil((nodes - radius - grid.origin) / grid.spacing)
                        .astype(np.intp))
        hi = np.minimum(grid.count, np.floor((nodes + radius - grid.origin) / grid.spacing)
                        .astype(np.intp) + 1)
        lens = np.maximum(hi - lo, 0)
        # window samples of node j run lo_j, lo_j + 1, ..., hi_j - 1
        idx = np.arange(lens.sum()) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        vals = _bump01((grid.x[idx] - np.repeat(nodes, lens)) / radius)
        pou = PartitionOfUnity(nodes, radius, grid, _idx=idx, _vals=vals, _lens=lens)
        pou._total = np.maximum(pou._window_sum(vals), 1e-300)
        return pou
    origin, spacing = np.array([(g.origin, g.spacing) for g in grid.axes]).T
    lattice = np.round((nodes - origin) / spacing).astype(np.intp)
    off = np.max(np.abs(nodes - (origin + lattice * spacing)))
    if off > 1e-9:
        raise ValueError(
            "2D partition nodes must sit on the grid lattice "
            f"(max offset {off:.2e}); snap Lambda_G first")
    ix, iy = np.clip(lattice, 0, np.array(grid.shape) - 1).T
    nk = [math.floor(radius / g.spacing) for g in grid.axes]
    tx, ty = (np.arange(-n, n + 1) * g.spacing / radius for n, g in zip(nk, grid.axes))
    kern = _bump01(np.sqrt(np.add.outer(tx ** 2, ty ** 2)))
    rows, row_of = np.unique(ix, return_inverse=True)
    pou = PartitionOfUnity(nodes, radius, grid, _kernel=kern, _rows=rows,
                           _idx=row_of * (grid.shape[1] + 2 * nk[1]) + iy + nk[1])
    pou._total = np.maximum(pou._place(np.ones(len(nodes))), 1e-300)
    return pou


def reconstruction_nodes(sampling_set) -> np.ndarray:
    """Lambda_G, the one definition of the reconstruction lattice.

    The sequence itself in 1D; for a curve family the square-cell centres,
    (bZ)^2, one per anchor, so V is a bijective nearest-node map; for a line
    union bZ x {a_n} over the window, x-major.  No other set has one.
    """
    s = sampling_set
    if isinstance(s, SamplingSequence1D):
        return s.points
    if s.variant == "curve-family":
        return s.cell_centers.copy()
    if s.params.get("drop_line") is not None:
        raise ValueError("a deliberately broken geometry has no "
                         "reconstruction lattice")
    if s.variant != "hyperplane-union":
        raise ValueError(f"variant {s.variant!r} has no reconstruction lattice")
    lo, hi = s.window
    X, Y = np.meshgrid(np.arange(lo, hi + 1e-12, s.b), s.params["heights"],
                       indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def averaging_V(t: TraceValues, op: ReconstructionOperator):
    """Nearest-node cell averages of the trace onto Lambda_G.

    Point-sample sets (m = d: 1D sequences, curve-family anchor sets) make V
    the identity.  On a line union the trace is averaged over the Voronoi
    interval of each node along its line, through the operator's bins.
    Returns (coefficients, report) where the report records the l^p
    boundedness ratio ||V u||_p / (b^((m-d)/p) ||u||_Lp(G)).
    """
    if op.bins is None:
        vals = t.values.copy()
        return vals, _v_report(vals, t)
    n_lines = len(op.bins)
    lines = np.arange(n_lines)[:, None]
    vals = np.zeros((len(op.nodes) // n_lines, n_lines))
    wsum = np.zeros_like(vals)
    tw = t.carrier_weights.reshape(n_lines, -1)
    # each cell takes the anchors of one line, in line order
    np.add.at(vals, (op.bins, lines), tw * t.values.reshape(n_lines, -1))
    np.add.at(wsum, (op.bins, lines), tw)
    empty = wsum == 0
    # in the x-major node order; a cell no anchor reaches averages to 0
    flat = np.divide(vals, wsum, out=np.zeros_like(vals), where=~empty).ravel()
    report = _v_report(flat, t)
    report["empty_cells"] = int(empty.sum())
    return flat, report


def _v_report(vvals, t: TraceValues, p: float = 2.0) -> dict:
    num = float(np.sum(np.abs(vvals) ** p) ** (1 / p))
    den = t.b ** ((t.m - t.d) / p) * t.lp_carrier(p)
    return {"vnorm_ratio": num / den if den > 0 else 0.0, "p": p,
            "bound": 1.0}


# ---------------------------------------------------------------------------
# piecewise-linear interpolant and the bandlimited split

def interp_pl(t: TraceValues, seq: SamplingSequence1D, grid: Grid1D) -> GridFunction:
    """Piecewise-linear interpolant through (a_n, f(a_n)) on the grid."""
    if len(seq.points) < 2:
        raise ValueError("need at least 2 samples to interpolate")
    if seq.points[0] > grid.x[0] + 1e-9 or seq.points[-1] < grid.x[-1] - 1e-9:
        raise ValueError("sequence does not cover the grid window")
    return GridFunction(grid, np.interp(grid.x, seq.points, t.values))


def bandlimited_split(f: GridFunction, b: float,
                      basis: WaveletBasis | None = None,
                      mode: str = "spectrum"):
    """Split f = g + h at the scale cut 2^j0 <= 1/b <= 2^(j0+1).

    mode="spectrum" (default): g is the smooth low-pass of f with passband
    2^j0 and stopband 2^(j0+1).  mode="wavelet": g collects the
    wavelet terms with j <= j0 (plus the coarse block).  Either way g + h = f
    exactly.  Returns (g, h, info).
    """
    if b <= 0:
        raise ValueError("b must be positive")
    j0 = math.floor(math.log2(1.0 / b) + 1e-12)
    if mode == "spectrum":
        inner = 2.0**j0
        outer = 2.0 * inner
        check_below_nyquist(f.grid, outer, f"b={b} is finer than the grid "
                            "resolves: the split's stopband edge {freq} must lie "
                            "below its Nyquist frequency {nyq}")
        g = smooth_lowpass(f, inner, outer)
        h = GridFunction(f.grid, f.values - g.values)
        return g, h, {"mode": "spectrum", "j0": j0, "inner": inner, "outer": outer}
    if mode == "wavelet":
        basis = basis or default_basis()
        lo, j_adm = default_wavelet_scales(f)
        c = analyze(f, basis, lo, min(j0, j_adm))
        g = synthesize(c, f.grid)
        h = GridFunction(f.grid, f.values - g.values)
        return g, h, {"mode": "wavelet", "j0": j0, "j_range": [lo, min(j0, j_adm)]}
    raise ValueError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# Neumann series

@dataclass
class ReconstructionConfig:
    """Passband constants, iteration count and the L^p exponent."""

    c_factor: float = 0.25
    a_factor: float | None = None   # default c/2
    n_iter: int = 12
    p: float = 2.0

    def __post_init__(self):
        if self.n_iter < 0:
            raise ValueError("iteration count must be >= 0")
        if self.a_factor is None:
            self.a_factor = self.c_factor / 2.0

    def multiplier(self, b: float) -> LowpassMultiplier:
        return LowpassMultiplier(self.a_factor, self.c_factor, b)


@dataclass(frozen=True, eq=False)
class ReconstructionOperator:
    """L = P A V T_G on one sampling set and grid, built by `build_operator`.

    `bins` is None where V is the identity (m = d); on a line union it holds
    the lattice column of each anchor, one row per line.
    """

    sampling_set: object
    cfg: ReconstructionConfig
    grid: object
    nodes: np.ndarray
    partition: PartitionOfUnity
    pchi: LowpassMultiplier
    bins: np.ndarray | None

    def project(self, coeffs: np.ndarray) -> GridFunction:
        """P A c: the quasi-interpolant sum_j c_j beta_j, then P."""
        return self.pchi.apply(GridFunction(self.grid, self.partition.apply(coeffs)))

    def apply(self, f: GridFunction) -> GridFunction:
        """P A V T_G f."""
        return self.project(averaging_V(trace(f, self.sampling_set), self)[0])


def build_operator(sampling_set, cfg: ReconstructionConfig,
                   grid) -> ReconstructionOperator:
    """Build L once for `sampling_set` on `grid`.

    Every input error is raised here, before P first runs: a grid of another
    dimension or with an axis count that is not a power of two, a passband
    without 0 < a < c or with c/b at or above the grid's Nyquist frequency, a
    set with no reconstruction lattice and, on a line union, node columns off
    the grid, named by the window shift that puts them on it.

    On a line union the nodes' y, the line heights, are rounded to the
    nearest grid row, at most half a grid step, so that the 2D partition
    sits on the grid; V's bins and the trace keep the true heights.
    """
    s = sampling_set
    if len(grid.axes) != s.d:
        raise ValueError(f"a {s.d}D sampling set needs a {s.d}D grid, "
                         f"got {len(grid.axes)}D")
    check_fft_grid(grid)
    pchi = cfg.multiplier(s.b)
    check_below_nyquist(grid, pchi.outer, "P's stopband edge c/b = {freq} must lie "
                        "below the grid's Nyquist frequency {nyq}: lower c or raise b")
    nodes = reconstruction_nodes(s)
    bins = None
    if s.m < s.d:
        gx, gy = grid.axes
        cols = (nodes[:, 0] - gx.origin) / gx.spacing
        if np.max(np.abs(cols - np.round(cols))) > 1e-9:
            shift = (np.round(cols[0]) - cols[0]) * gx.spacing
            raise ValueError(
                f"the line-union nodes x = window[0] + k*b must sit on the grid "
                f"lattice (spacing {gx.spacing:g}, origin {gx.origin:g}): shift "
                f"the geometry's window {list(s.window)} by {shift:+g}"
                + ("" if abs(s.b / gx.spacing - round(s.b / gx.spacing)) < 1e-9
                   else f" and make b = {s.b:g} a multiple of the spacing"))
        rows = np.round((nodes[:, 1] - gy.origin) / gy.spacing)
        nodes[:, 1] = gy.origin + rows * gy.spacing
        n_lines = len(s.params["heights"])
        xs = nodes[::n_lines, 0]
        bins = np.clip(np.round((s.anchors[:, 0] - xs[0]) / s.b).astype(int),
                       0, len(xs) - 1).reshape(n_lines, -1)
    return ReconstructionOperator(s, cfg, grid, nodes,
                                  build_partition(nodes, s.b, grid), pchi, bins)


@dataclass
class ReconstructionReport:
    b: float
    a_factor: float
    c_factor: float
    n_iter: int
    p: float
    residuals: list
    contraction_ratios: list
    diverged: bool = False
    v_report: dict | None = None
    total_error: float | None = None
    rel_error: float | None = None
    h_norm: float | None = None
    g_error: float | None = None
    h_reconstructed_norm: float | None = None
    split_info: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def neumann_reconstruct(t: TraceValues, op: ReconstructionOperator
                        ) -> tuple[GridFunction, ReconstructionReport]:
    """Truncated Neumann series of `op` applied to a trace.

    Iterates f_{k+1} = f_k + (u - P A V T_G f_k) from f_0 = u = P A V t, so
    the output after n_iter steps is the series truncated at k = n_iter.
    Divergence (three consecutive growing correction norms) aborts: the
    iterate reached so far is returned with a report marked `diverged`.
    """
    cfg, grid = op.cfg, op.grid
    v, vrep = averaging_V(t, op)
    u = op.project(v)
    fk, residuals, grow = u, [], 0
    for _ in range(cfg.n_iter):
        corr = u.values - op.apply(fk).values
        residuals.append(lp_norm(GridFunction(grid, corr), cfg.p))
        grow = grow + 1 if len(residuals) >= 2 and residuals[-1] > residuals[-2] else 0
        fk = GridFunction(grid, fk.values + corr)
        if grow >= 3:
            break
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    return fk, ReconstructionReport(
        b=t.b, a_factor=cfg.a_factor, c_factor=cfg.c_factor, n_iter=cfg.n_iter,
        p=cfg.p, residuals=residuals, contraction_ratios=ratios,
        diverged=grow >= 3, v_report=vrep)


def make_passband_family(grid, sampling_set, cfg: ReconstructionConfig,
                         n: int = 20, seed: int = 0) -> list[GridFunction]:
    """Random functions bandlimited inside the flat passband of P."""
    inner = cfg.a_factor / sampling_set.b
    rng = np.random.default_rng(seed)
    env = reduce(np.multiply.outer,
                 [np.exp(-((g.x - g.origin - g.length / 2) / (g.length / 6.0)) ** 2)
                  for g in grid.axes])
    return [smooth_lowpass(GridFunction(grid, rng.standard_normal(grid.shape) * env),
                           0.8 * inner, inner)
            for _ in range(n)]


def contraction_estimate(sampling_set, cfg: ReconstructionConfig, grid,
                         n: int = 20, seed: int = 0,
                         orbit_depth: int = 1) -> float:
    """max over the passband family of ||(I - P A V T_G) g||_p / ||g||_p.

    The family is `make_passband_family(grid, sampling_set, cfg, n, seed)`.
    This is a family-certified lower estimate of the operator norm on the
    passband, not a uniform bound; it is recorded as such in reports.  With
    orbit_depth > 1 the max also runs over repeated applications (the decay
    rate the Neumann iteration actually sees asymptotically).
    """
    op = build_operator(sampling_set, cfg, grid)
    if n < 1:
        raise ValueError("contraction estimate needs a nonempty family")
    worst = 0.0
    for g in make_passband_family(grid, sampling_set, cfg, n=n, seed=seed):
        cur = g
        norm_cur = lp_norm(cur, cfg.p)
        for _ in range(max(1, orbit_depth)):
            if norm_cur < 1e-13:
                break
            nxt = GridFunction(grid, cur.values - op.apply(cur).values)
            norm_nxt = lp_norm(nxt, cfg.p)
            worst = max(worst, norm_nxt / norm_cur)
            cur, norm_cur = nxt, norm_nxt
    return worst


def calibrate_passband(sampling_set, grid,
                       cs=(0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1),
                       threshold: float = 0.9, n: int = 20, seed: int = 0):
    """Largest c_factor (a = c/2) whose family contraction estimate stays
    below `threshold`; returns (c, estimates dict)."""
    estimates = {}
    best = None
    for c in sorted(cs, reverse=True):
        cfg = ReconstructionConfig(c_factor=c)
        est = contraction_estimate(sampling_set, cfg, grid, n=n, seed=seed)
        estimates[c] = est
        if est < threshold and best is None:
            best = c
    return best, estimates


def full_pipeline(f: GridFunction, op: ReconstructionOperator) -> ReconstructionReport:
    """Split f = g + h at the projector passband, reconstruct from the trace
    of f, and report the three-term error breakdown
    ||f - S T f|| <= ||h|| + ||g - S T g|| + ||S T h||.

    Two solves: S is linear, so S T h = S T f - S T g.  The f iterates are
    the sum of the g and h iterates, so the f solve's abort covers h.  A solve
    that diverges ends the pipeline: its report comes back marked `diverged`,
    with the error terms left None.
    """
    if f.grid != op.grid:
        raise ValueError("f is not on the operator's grid")
    sset, p = op.sampling_set, op.cfg.p
    g = op.pchi.apply(f)
    h = GridFunction(f.grid, f.values - g.values)
    recon_f, rep = neumann_reconstruct(trace(f, sset), op)
    if rep.diverged:
        return rep
    recon_g, rep_g = neumann_reconstruct(trace(g, sset), op)
    if rep_g.diverged:
        return rep_g
    rep.total_error = lp_norm(GridFunction(f.grid, f.values - recon_f.values), p)
    fnorm = lp_norm(f, p)
    rep.rel_error = rep.total_error / fnorm if fnorm > 0 else 0.0
    rep.h_norm = lp_norm(h, p)
    rep.g_error = lp_norm(GridFunction(f.grid, g.values - recon_g.values), p)
    rep.h_reconstructed_norm = lp_norm(
        GridFunction(f.grid, recon_f.values - recon_g.values), p)
    rep.split_info = {"mode": "pchi", "inner": op.pchi.inner, "outer": op.pchi.outer}
    return rep
