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

Note on conventions: the multiplier support scales with the inverse gap,
[-c/b, c/b]; dimensional analysis forces this scaling and it is used
consistently everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace
from functools import reduce

import numpy as np
from scipy.signal import fftconvolve

from .besov import BesovParams, besov_norm_via_analyze
from .geometry import SamplingGeometry2D, SamplingSequence1D
from .grid import Grid1D, GridFunction, lp_norm, smooth_lowpass
from .inequalities import TraceValues, trace
from .wavelets import WaveletBasis, analyze, default_basis, synthesize
from .besov import default_wavelet_scales

__all__ = [
    "LowpassMultiplier",
    "PartitionOfUnity",
    "ReconstructionConfig",
    "ReconstructionReport",
    "ReconstructionDiverged",
    "interp_pl",
    "bandlimited_split",
    "build_partition",
    "averaging_V",
    "quasi_interp_A",
    "neumann_reconstruct",
    "contraction_estimate",
    "make_passband_family",
    "calibrate_passband",
    "full_pipeline",
]


@dataclass(frozen=True)
class LowpassMultiplier:
    """Smooth projector P: pass below a_factor/b, stop above c_factor/b."""

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


@dataclass(eq=False)
class PartitionOfUnity:
    """Shepard-normalized smooth bumps on B(x_j, 2b) over the node set.

    1D stores the bump windows flattened in node order: `_idx` holds the grid
    index of every window sample, `_vals` the bump value there and `_lens`
    the samples per node, so one `np.bincount` evaluates the sum.  It adds
    in input order, the node order of a per-node loop, so the sums are the
    loop's to the last bit.  2D requires lattice-snapped nodes, keeps their
    lattice positions in `_idx` and evaluates through one FFT convolution
    with the common bump kernel.
    """

    nodes: np.ndarray
    radius: float
    grid: object
    _total: np.ndarray | None = field(default=None, repr=False)
    _idx: np.ndarray | tuple | None = field(default=None, repr=False)
    _vals: np.ndarray | None = field(default=None, repr=False)
    _lens: np.ndarray | None = field(default=None, repr=False)
    _kernel: np.ndarray | None = field(default=None, repr=False)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != len(self.nodes):
            raise ValueError("one coefficient per node required")
        if isinstance(self.grid, Grid1D):
            return self._window_sum(np.repeat(coeffs, self._lens) * self._vals) / self._total
        imp = np.zeros(self.grid.shape)
        np.add.at(imp, self._idx, coeffs)
        num = fftconvolve(imp, self._kernel, mode="same")
        return num / self._total

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
    gx, gy = grid.gx, grid.gy
    ix = np.round((nodes[:, 0] - gx.origin) / gx.spacing).astype(int)
    iy = np.round((nodes[:, 1] - gy.origin) / gy.spacing).astype(int)
    off = np.max(np.abs(nodes[:, 0] - (gx.origin + ix * gx.spacing)))
    off = max(off, np.max(np.abs(nodes[:, 1] - (gy.origin + iy * gy.spacing))))
    if off > 1e-9:
        raise ValueError(
            "2D partition nodes must sit on the grid lattice "
            f"(max offset {off:.2e}); snap Lambda_G first")
    ix = np.clip(ix, 0, gx.count - 1)
    iy = np.clip(iy, 0, gy.count - 1)
    nk = int(math.floor(radius / gx.spacing))
    tx = np.arange(-nk, nk + 1) * gx.spacing / radius
    ty = np.arange(-nk, nk + 1) * gy.spacing / radius
    kern = np.sqrt(tx[:, None] ** 2 + ty[None, :] ** 2)
    kern = _bump01(kern)
    pou = PartitionOfUnity(nodes, radius, grid)
    pou._kernel = kern
    pou._idx = (ix, iy)
    imp = np.zeros(grid.shape)
    np.add.at(imp, (ix, iy), 1.0)
    pou._total = np.maximum(fftconvolve(imp, kern, mode="same"), 1e-300)
    return pou


def reconstruction_nodes(sampling_set) -> np.ndarray:
    """Lambda_G: the sequence itself in 1D, the geometry lattice in 2D.

    For curve carriers pinned to the b-lattice the nodes are the square-cell
    centers (the (bZ)^2 lattice), one per anchor, so V stays a bijective
    nearest-node map.
    """
    if isinstance(sampling_set, SamplingSequence1D):
        return sampling_set.points
    if sampling_set.variant == "curve-family":
        return sampling_set.cell_centers.copy()
    return sampling_set.lattice_nodes()


def averaging_V(t: TraceValues, sampling_set, nodes: np.ndarray):
    """Nearest-node cell averages of the trace onto Lambda_G.

    Point-sample sets (1D sequences, discrete 2D anchor sets) make V the
    identity.  For line carriers the trace is averaged over the Voronoi
    interval of each node along its line.  Returns (coefficients, report)
    where the report records the l^p boundedness ratio
    ||V u||_p / (b^((m-d)/p) ||u||_Lp(G)).
    """
    if isinstance(sampling_set, SamplingSequence1D):
        vals = t.values.copy()
        report = _v_report(vals, t, sampling_set.b, m=1, d=1)
        return vals, report
    g: SamplingGeometry2D = sampling_set
    if g.variant == "curve-family":
        vals = t.values.copy()
        report = _v_report(vals, t, g.b, m=g.m, d=2)
        return vals, report
    if g.variant != "hyperplane-union":
        raise ValueError(
            f"averaging onto a lattice is not defined for variant {g.variant!r}")
    if g.params.get("drop_line") is not None:
        raise ValueError("a deliberately broken geometry has no "
                         "reconstruction lattice")
    lo, hi = g.window
    heights = np.asarray(g.params["heights"], dtype=float)
    xs = np.arange(lo, hi + 1e-12, g.b)
    n_per_line = len(t.values) // len(heights)
    vals = np.zeros((len(xs), len(heights)))
    wsum = np.zeros_like(vals)
    anchors_x = g.anchors[:, 0].reshape(len(heights), n_per_line)
    tv = t.values.reshape(len(heights), n_per_line)
    tw = t.carrier_weights.reshape(len(heights), n_per_line)
    bins = np.clip(np.round((anchors_x - lo) / g.b).astype(int), 0, len(xs) - 1)
    for li in range(len(heights)):
        np.add.at(vals[:, li], bins[li], tw[li] * tv[li])
        np.add.at(wsum[:, li], bins[li], tw[li])
    empty = wsum == 0
    wsum[empty] = 1.0
    vals = vals / wsum
    vals[empty] = 0.0
    flat = vals.ravel()  # matches lattice_nodes ordering (x-major)
    report = _v_report(flat, t, g.b, m=g.m, d=2)
    report["empty_cells"] = int(empty.sum())
    return flat, report


def _v_report(vvals, t: TraceValues, b, m, d, p: float = 2.0) -> dict:
    num = float(np.sum(np.abs(vvals) ** p) ** (1 / p))
    den = b ** ((m - d) / p) * t.lp_carrier(p)
    return {"vnorm_ratio": num / den if den > 0 else 0.0, "p": p,
            "bound": 1.0}


def quasi_interp_A(coeffs: np.ndarray, pou: PartitionOfUnity, grid) -> GridFunction:
    """A c = sum_j c_j beta_j on the grid."""
    return GridFunction(grid, pou.apply(coeffs))


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
                      mode: str = "spectrum", omega: float = 1.0,
                      j_min: int | None = None):
    """Split f = g + h at the scale cut 2^j0 <= 1/b <= 2^(j0+1).

    mode="spectrum" (default): g is the smooth low-pass of f with passband
    omega*2^j0 and stopband 2*omega*2^j0.  mode="wavelet": g collects the
    wavelet terms with j <= j0 (plus the coarse block).  Either way g + h = f
    exactly.  Returns (g, h, info).
    """
    if b <= 0:
        raise ValueError("b must be positive")
    j0 = math.floor(math.log2(1.0 / b) + 1e-12)
    if mode == "spectrum":
        inner = omega * 2.0**j0
        outer = 2.0 * omega * 2.0**j0
        g = smooth_lowpass(f, inner, outer)
        h = GridFunction(f.grid, f.values - g.values)
        return g, h, {"mode": "spectrum", "j0": j0, "inner": inner, "outer": outer}
    if mode == "wavelet":
        basis = basis or default_basis()
        lo_default, j_adm = default_wavelet_scales(f)
        lo = lo_default if j_min is None else j_min
        c = analyze(f, basis, lo, min(j0, j_adm))
        g = synthesize(c, f.grid)
        h = GridFunction(f.grid, f.values - g.values)
        return g, h, {"mode": "wavelet", "j0": j0, "j_range": [lo, min(j0, j_adm)]}
    raise ValueError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# Neumann series

@dataclass
class ReconstructionConfig:
    """Passband constants, iteration count and cached operator pieces."""

    c_factor: float = 0.25
    a_factor: float | None = None   # default c/2
    n_iter: int = 12
    p: float = 2.0
    allow_noncontractive: bool = False
    pou: PartitionOfUnity | None = None
    contraction: float | None = None

    def __post_init__(self):
        if self.n_iter < 0:
            raise ValueError("iteration count must be >= 0")
        if self.a_factor is None:
            self.a_factor = self.c_factor / 2.0

    def multiplier(self, b: float) -> LowpassMultiplier:
        return LowpassMultiplier(self.a_factor, self.c_factor, b)


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
    besov_norm: float | None = None
    bound_ratio: float | None = None
    split_info: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class ReconstructionDiverged(RuntimeError):
    def __init__(self, msg, report: ReconstructionReport):
        super().__init__(msg)
        self.report = report


def _apply_once(fk: GridFunction, sset, nodes, pou, pchi, grid) -> GridFunction:
    """P A V T_G applied to a grid function."""
    tr = trace(fk, sset)
    v, _ = averaging_V(tr, sset, nodes)
    return pchi.apply(quasi_interp_A(v, pou, grid))


def neumann_reconstruct(t: TraceValues, sampling_set, cfg: ReconstructionConfig,
                        grid) -> tuple[GridFunction, ReconstructionReport]:
    """Truncated Neumann series applied to a trace.

    Iterates f_{k+1} = f_k + (u - P A V T_G f_k) from f_0 = u = P A V t, so
    the output after n_iter steps is the series truncated at k = n_iter.
    Divergence (three consecutive growing correction norms) aborts.
    """
    b = t.b
    nodes = reconstruction_nodes(sampling_set)
    pou = cfg.pou or build_partition(nodes, b, grid)
    pchi = cfg.multiplier(b)
    if cfg.contraction is not None and cfg.contraction >= 1.0 \
            and not cfg.allow_noncontractive:
        raise ValueError(
            f"cached contraction estimate {cfg.contraction} >= 1; "
            "pass allow_noncontractive=True to force")
    v, vrep = averaging_V(t, sampling_set, nodes)
    u = pchi.apply(quasi_interp_A(v, pou, grid))
    fk = u
    residuals = []
    grow = 0
    for _ in range(cfg.n_iter):
        applied = _apply_once(fk, sampling_set, nodes, pou, pchi, grid)
        corr = u.values - applied.values
        residuals.append(lp_norm(GridFunction(grid, corr), cfg.p))
        if len(residuals) >= 2 and residuals[-1] > residuals[-2]:
            grow += 1
        else:
            grow = 0
        fk = GridFunction(grid, fk.values + corr)
        if grow >= 3:
            rep = _make_report(b, cfg, residuals, vrep, diverged=True)
            raise ReconstructionDiverged(
                "correction norms grew for 3 consecutive iterations", rep)
    rep = _make_report(b, cfg, residuals, vrep)
    return fk, rep


def _make_report(b, cfg, residuals, vrep, diverged=False) -> ReconstructionReport:
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    return ReconstructionReport(
        b=b, a_factor=cfg.a_factor, c_factor=cfg.c_factor, n_iter=cfg.n_iter,
        p=cfg.p, residuals=residuals, contraction_ratios=ratios,
        diverged=diverged, v_report=vrep)


def make_passband_family(grid, sampling_set, cfg: ReconstructionConfig,
                         n: int = 20, seed: int = 0) -> list[GridFunction]:
    """Random functions bandlimited inside the flat passband of P."""
    inner = cfg.a_factor / sampling_set.b
    rng = np.random.default_rng(seed)
    out = []
    if isinstance(grid, Grid1D):
        env = np.exp(-((grid.x - grid.origin - grid.length / 2)
                       / (grid.length / 6.0)) ** 2)
        for _ in range(n):
            noise = rng.standard_normal(grid.count) * env
            f = smooth_lowpass(GridFunction(grid, noise), 0.8 * inner, inner)
            out.append(f)
    else:
        gx, gy = grid.gx, grid.gy
        env = (np.exp(-((gx.x - gx.origin - gx.length / 2) / (gx.length / 6.0)) ** 2)[:, None]
               * np.exp(-((gy.x - gy.origin - gy.length / 2) / (gy.length / 6.0)) ** 2)[None, :])
        for _ in range(n):
            noise = rng.standard_normal(grid.shape) * env
            f = smooth_lowpass(GridFunction(grid, noise), 0.8 * inner, inner)
            out.append(f)
    return out


def contraction_estimate(sampling_set, cfg: ReconstructionConfig, grid,
                         family: list[GridFunction] | None = None,
                         n: int = 20, seed: int = 0,
                         orbit_depth: int = 1) -> float:
    """max over the family of ||(I - P A V T_G) g||_p / ||g||_p.

    This is a family-certified lower estimate of the operator norm on the
    passband, not a uniform bound; it is recorded as such in reports.  With
    orbit_depth > 1 the max also runs over repeated applications (the decay
    rate the Neumann iteration actually sees asymptotically).
    """
    if family is None:
        family = make_passband_family(grid, sampling_set, cfg, n=n, seed=seed)
    if len(family) < 1:
        raise ValueError("contraction estimate needs a nonempty family")
    b = sampling_set.b
    nodes = reconstruction_nodes(sampling_set)
    pou = cfg.pou or build_partition(nodes, b, grid)
    pchi = cfg.multiplier(b)
    worst = 0.0
    for g in family:
        cur = g
        norm_cur = lp_norm(cur, cfg.p)
        for _ in range(max(1, orbit_depth)):
            if norm_cur < 1e-13:
                break
            applied = _apply_once(cur, sampling_set, nodes, pou, pchi, grid)
            nxt = GridFunction(grid, cur.values - applied.values)
            norm_nxt = lp_norm(nxt, cfg.p)
            worst = max(worst, norm_nxt / norm_cur)
            cur, norm_cur = nxt, norm_nxt
    return worst


def calibrate_passband(sampling_set, grid, b: float | None = None,
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


def full_pipeline(f: GridFunction, sampling_set, cfg: ReconstructionConfig,
                  basis: WaveletBasis | None = None,
                  besov_norm: float | None = None) -> ReconstructionReport:
    """Split f = g + h at the projector passband, reconstruct from the trace
    of f, and report the three-term error breakdown
    ||f - S T f|| <= ||h|| + ||g - S T g|| + ||S T h||."""
    b = sampling_set.b
    m = 1 if isinstance(sampling_set, SamplingSequence1D) else sampling_set.m
    pchi = cfg.multiplier(b)
    g = pchi.apply(f)
    h = GridFunction(f.grid, f.values - g.values)
    nodes = reconstruction_nodes(sampling_set)
    run_cfg = cfg if cfg.pou is not None else replace(
        cfg, pou=build_partition(nodes, b, f.grid))
    recon_f, rep = neumann_reconstruct(trace(f, sampling_set), sampling_set,
                                       run_cfg, f.grid)
    recon_g, _ = neumann_reconstruct(trace(g, sampling_set), sampling_set,
                                     run_cfg, f.grid)
    recon_h, _ = neumann_reconstruct(trace(h, sampling_set), sampling_set,
                                     run_cfg, f.grid)
    p = cfg.p
    rep.total_error = lp_norm(GridFunction(f.grid, f.values - recon_f.values), p)
    fnorm = lp_norm(f, p)
    rep.rel_error = rep.total_error / fnorm if fnorm > 0 else 0.0
    rep.h_norm = lp_norm(h, p)
    rep.g_error = lp_norm(GridFunction(f.grid, g.values - recon_g.values), p)
    rep.h_reconstructed_norm = lp_norm(recon_h, p)
    rep.split_info = {"mode": "pchi", "inner": pchi.inner, "outer": pchi.outer}
    if besov_norm is None and basis is not None:
        params = BesovParams(s=m / p, p=p, q=1.0, d=f.ndim)
        besov_norm, _ = besov_norm_via_analyze(f, params, basis)
    if besov_norm is not None:
        rep.besov_norm = besov_norm
        denom = b ** (m / p) * besov_norm
        rep.bound_ratio = rep.total_error / denom if denom > 0 else None
    return rep
