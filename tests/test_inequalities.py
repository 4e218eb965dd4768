import dataclasses
import math

import numpy as np
import pytest

from besovsampling import besov, inequalities
from besovsampling.besov import BesovParams, besov_norm_via_analyze, besov_norm_wavelet
from besovsampling.cli import _on_default_grid
from besovsampling.geometry import (
    VARIANTS,
    SamplingSequence1D,
    build_geometry,
    cell_measures,
    random_sequence,
    regular_sequence,
    window_for_grid,
)
from besovsampling.grid import (
    _POINT_BLOCK,
    Grid1D,
    Grid2D,
    GridFunction,
    lp_norm,
    smooth_lowpass,
)
from besovsampling.inequalities import (
    BAND,
    UncertaintyReport,
    _trace_sums,
    heisenberg_product,
    intB_diagnostic,
    sampling_ratio,
    trace,
    uncertainty_check,
    uncertainty_deficiency,
)
from besovsampling.wavelets import (WaveletCoefficients, default_basis, dilate_coeffs,
                                   synthesize)
from besovsampling.zoo import ZooSpec, dilate, make


def reference_trace_1d(f, seq):
    """`trace`'s own branch for a sequence, before a sequence became the
    m = d = 1 sampling set: (values, carrier weights)."""
    vals = f.interpolate(seq.points)
    return vals, np.ones(len(vals))


def reference_trace_2d(f, g):
    """`trace`'s branch for a 2D carrier, as it was."""
    return f.interpolate(g.anchors), g.anchor_weights.copy()


def cell_weights(s):
    """nu_a(H_a) times the carrier weight of each anchor of a sampling set
    (b_n in 1D): the weights of the cell-weighted sums."""
    return s.anchor_weights * cell_measures(s)


def cell_norm(tr, s, p):
    """(sum_n nu_n |f(node_n)|^p)^(1/p), the cell-weighted sample norm of the
    trace `tr` on the sampling set `s`."""
    return float(np.sum(cell_weights(s) * np.abs(tr.values) ** p) ** (1.0 / p))


def reference_uncertainty_deficiency(f, seq, p):
    """`uncertainty_deficiency`'s body for a 1D sequence before it streamed
    the trace sums: a whole trace, and b in place of b^m."""
    np_norm = lp_norm(f, p)
    tr = trace(f, seq)
    mass = seq.b * float(np.sum(np.abs(tr.values) ** p)) / np_norm**p
    return 1.0 - mass ** (1.0 / p)


def reference_uncertainty_check(f, seq, p, basis):
    """`uncertainty_check`'s body for a 1D sequence, as it was: b^(1/p) and
    the B^(1/p)_(p,1) norm."""
    eps = reference_uncertainty_deficiency(f, seq, p)
    if eps <= 0.0:
        return UncertaintyReport(p, seq.b, eps, False, None)
    besov_norm = besov.critical_norm(f, p, basis=basis)
    c_emp = besov_norm * seq.b ** (1.0 / p) / (eps * lp_norm(f, p))
    return UncertaintyReport(p, seq.b, eps, True, c_emp)


def reference_intB_diagnostic(f, seq, p, basis):
    """`intB_diagnostic`'s body for a 1D sequence, as it was."""
    np_norm = lp_norm(f, p)
    lhs = abs(np_norm - cell_norm(trace(f, seq), seq, p))
    rhs = seq.b ** (1.0 / p) * besov.critical_norm(f, p, basis=basis)
    return lhs, rhs, lhs / rhs


def trace_built_estimates(f, sset, p, besov_norm):
    """(eps, c_emp, lhs, rhs) of any sampling set from `trace`'s arrays:
    the mass b^m sum w |f|^p, the gate b^(m/p) and the cell norm."""
    tr = trace(f, sset)
    abs_pow = np.abs(tr.values) ** p
    np_norm = lp_norm(f, p)
    mass = sset.b ** sset.m * np.sum(tr.carrier_weights * abs_pow) / np_norm**p
    eps = 1.0 - mass ** (1.0 / p)
    gate = sset.b ** (sset.m / p)
    c_emp = besov_norm * gate / (eps * np_norm) if eps > 0 else None
    lhs = abs(np_norm - np.sum(cell_weights(sset) * abs_pow) ** (1.0 / p))
    return eps, c_emp, lhs, gate * besov_norm


def assert_trace_equals(tr, reference):
    for got, want in zip((tr.values, tr.carrier_weights), reference):
        assert np.array_equal(got, want)


class TestTrace:
    def test_constant_tiling(self, grid):
        seq = regular_sequence(0.25, (grid.x[0] + 0.0, grid.x[0] + 28.0))
        f = GridFunction(grid, np.ones(grid.count))
        tr = trace(f, seq)
        # cell-weighted mass of a constant recovers the covered length
        assert cell_norm(tr, seq, 1.0) == pytest.approx(28.0, abs=1e-10)

    def test_zero_at_samples(self, grid, db4):
        b = 2.0**-5
        zf = make(ZooSpec("gap-spline", sequence_b=b, sequence_seed=4, seed=4),
                  grid, db4)
        seq = random_sequence(b, (grid.x[0], grid.x[-1]), 4, strict=True)
        tr = trace(zf.f, seq)
        assert np.max(np.abs(tr.values)) < 1e-2 * np.max(np.abs(zf.f.values))

    def test_2d_product_structure(self, small_grid2d):
        gx = small_grid2d.gx
        win = (gx.x[0], gx.x[-1])
        u = np.exp(-np.pi * gx.x**2) * np.cos(2 * gx.x)
        f2 = GridFunction(small_grid2d, np.tile(u[None, :],
                                                (small_grid2d.gx.count, 1)))
        b = 0.25
        heights = random_sequence(b, win, 3, strict=True).points
        g = build_geometry("hyperplane-union",
                           {"b": b, "heights": heights.tolist(), "window": win})
        tr = trace(f2, g)
        p = 2.0
        line_len = win[1] - win[0]
        expected = line_len * np.sum(np.interp(heights, gx.x, u) ** 2)
        assert tr.lp_carrier(p) ** p == pytest.approx(expected, rel=1e-9)

    def test_outside_domain_rejected(self, small_grid):
        f = GridFunction(small_grid, np.ones(small_grid.count))
        seq = SamplingSequence1D(np.array([-9.0, 0.0, 7.0]), b=16.0)
        with pytest.raises(ValueError, match="outside"):
            trace(f, seq)

    @pytest.mark.parametrize("strict", [True, False])
    def test_1d_bit_identical_to_the_sequence_branch(self, grid, small_grid,
                                                     strict):
        for g, seed in ((grid, 3), (small_grid, 8)):
            f = make(ZooSpec("bandlimited-random", band=2.0, seed=seed), g).f
            seq = random_sequence(2.0**-4, (g.x[0], g.x[-1]), seed, strict=strict)
            tr = trace(f, seq)
            assert_trace_equals(tr, reference_trace_1d(f, seq))
            assert (tr.m, tr.d, tr.b) == (1, 1, seq.b)

    @pytest.mark.parametrize("variant", ["hyperplane-union", "curve-family",
                                         "concentric-circles", "spiral",
                                         "perturbed-graph"])
    def test_2d_bit_identical_to_the_carrier_branch(self, variant):
        g1 = Grid1D(-8.0, 2.0**-5, 512)
        grid2 = Grid2D(g1, Grid1D(-8.0, 2.0**-5, 512))
        u = np.exp(-np.pi * (g1.x / 2.0) ** 2)
        f = GridFunction(grid2, np.outer(u, np.cos(g1.x) * u))
        g = build_geometry(variant, {"b": 0.5, "seed": 2,
                                     "window": window_for_grid(grid2)})
        tr = trace(f, g)
        assert_trace_equals(tr, reference_trace_2d(f, g))
        assert (tr.m, tr.d, tr.b) == (g.m, 2, g.b)

    def test_dimension_mismatch_rejected(self, small_grid, small_grid2d):
        seq = random_sequence(0.25, (-4.0, 4.0), 1)
        with pytest.raises(ValueError, match="1D sampling set"):
            trace(GridFunction(small_grid2d, np.ones(small_grid2d.shape)), seq)
        g = build_geometry("curve-family", {"b": 0.5, "window": (-4.0, 4.0)})
        with pytest.raises(ValueError, match="2D sampling set"):
            trace(GridFunction(small_grid, np.ones(small_grid.count)), g)


class TestStreamedNorms:
    """The estimates take their two trace sums a block of anchors at a time,
    through the body of `trace`, and build no trace."""

    @staticmethod
    def trace_sums(tr, s, p):
        """(sum w |f|^p, sum nu |f|^p) of a whole trace `tr` on the set `s`."""
        abs_pow = np.abs(tr.values) ** p
        return (float(np.sum(tr.carrier_weights * abs_pow)),
                float(np.sum(cell_weights(s) * abs_pow)))

    @pytest.mark.parametrize("b", [2.0**-3, 2.0**-6])
    def test_1d_bit_for_bit(self, grid, b):
        f = make(ZooSpec("bandlimited-random", band=2.0, seed=5), grid).f
        seq = random_sequence(b, (grid.x[0], grid.x[-1]), 5, strict=True)
        assert len(seq.points) <= _POINT_BLOCK  # one block, as in every 1D sweep
        tr = trace(f, seq)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert _trace_sums(f, seq, p) == self.trace_sums(tr, seq, p)
            # the norms that `sampling_ratio` takes from the sums
            lp_carrier, lp_cells = (s ** (1.0 / p) for s in _trace_sums(f, seq, p))
            assert lp_carrier == tr.lp_carrier(p)
            assert lp_cells == cell_norm(tr, seq, p)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_2d_within_1e_12(self, variant):
        f, g = many_block_set(variant)
        tr = trace(f, g)
        for p in (1.0, 2.0, 3.5):
            np.testing.assert_allclose(_trace_sums(f, g, p), self.trace_sums(tr, g, p),
                                       rtol=1e-12, atol=0.0)

    def test_carrier_weights_are_a_read_only_view(self, small_grid2d):
        g = build_geometry("spiral", {"b": 0.5, "seed": 1,
                                      "window": window_for_grid(small_grid2d)})
        tr = trace(GridFunction(small_grid2d, np.ones(small_grid2d.shape)), g)
        assert np.shares_memory(tr.carrier_weights, g.anchor_weights)
        assert not tr.carrier_weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tr.carrier_weights[0] = 2.0
        assert g.anchor_weights.flags.writeable

    def test_every_block_is_checked_before_the_analysis(self, small_grid2d, db4,
                                                        monkeypatch):
        def no_analysis(*args, **kwargs):
            raise AssertionError("analyze ran before the trace checks")

        monkeypatch.setattr(besov, "analyze", no_analysis)
        g = build_geometry("spiral", {"b": 0.5, "seed": 1,
                                      "window": window_for_grid(small_grid2d)})
        f = GridFunction(small_grid2d, np.ones(small_grid2d.shape))
        assert len(g.anchors) > 4 * _POINT_BLOCK
        anchors = g.anchors.copy()
        anchors[-1] = (0.0, 9.0)  # in the last block only
        with pytest.raises(ValueError, match=r"outside grid domain \(y\)"):
            sampling_ratio(f, dataclasses.replace(g, anchors=anchors), 2.0)
        weights = g.anchor_weights.copy()
        weights[-1] = 0.0
        with pytest.raises(ValueError, match="trace weights must be positive"):
            sampling_ratio(f, dataclasses.replace(g, anchor_weights=weights), 2.0)
        with pytest.raises(ValueError, match="2D sampling set"):
            sampling_ratio(GridFunction(Grid1D(-8.0, 2.0**-5, 512), np.ones(512)),
                           g, 2.0, db4)


def many_block_set(variant):
    """A smooth 2D field on 512^2 (h = 2^-5) and a seeded set of `variant`
    of more than four blocks of anchors."""
    g1 = Grid1D(-8.0, 2.0**-5, 512)
    grid2 = Grid2D(g1, g1)
    u = np.exp(-np.pi * (g1.x / 2.0) ** 2)
    f = GridFunction(grid2, np.outer(u, np.cos(g1.x) * u))
    b = 2.0**-4 if variant == "curve-family" else 0.5
    g = build_geometry(variant, {"b": b, "seed": 2, "window": window_for_grid(grid2)})
    assert len(g.anchors) > 4 * _POINT_BLOCK
    return f, g


class TestEstimatesOnAnySet:
    """`uncertainty_deficiency`, `uncertainty_check` and `intB_diagnostic`
    take any sampling set: the mass b^m integral_G |f|^p dH^(d-m), the gate
    b^(m/p) and the B^(m/p)_(p,1) norm, from the streamed trace sums."""

    @pytest.mark.parametrize("b", [2.0**-3, 2.0**-6])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_1d_bit_for_bit_on_sweep_sequences(self, b, p):
        # the sequences and functions of the uncertainty and intb sweeps, seed 0
        basis = default_basis()
        zf, seq = _on_default_grid(
            ZooSpec("gap-spline", sequence_b=b, sequence_seed=0, seed=7), b, 0)
        assert len(seq.points) <= _POINT_BLOCK
        assert uncertainty_deficiency(zf.f, seq, p) == \
            reference_uncertainty_deficiency(zf.f, seq, p)
        assert uncertainty_check(zf.f, seq, p) == \
            reference_uncertainty_check(zf.f, seq, p, basis)
        zf, seq = _on_default_grid(
            ZooSpec("bandlimited-random", band=2.0, seed=3), b, 0)
        assert intB_diagnostic(zf.f, seq, p) == \
            reference_intB_diagnostic(zf.f, seq, p, basis)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_2d_within_1e_12_of_the_trace_built_form(self, variant):
        f, g = many_block_set(variant)
        for p in (1.0, 2.0, 3.5):
            eps, c_emp, lhs, rhs = trace_built_estimates(f, g, p, besov_norm=1.0)
            # 1 - eps is the p-th root of the mass, a sum of positive terms
            assert 1.0 - uncertainty_deficiency(f, g, p) == \
                pytest.approx(1.0 - eps, rel=1e-12, abs=0.0)
            rep = uncertainty_check(f, g, p, besov_norm=1.0)
            assert rep.hypothesis_met == (eps > 0) and rep.b == g.b
            if eps > 0:
                # c_emp eps does not carry eps's cancellation
                assert rep.c_emp * rep.eps == pytest.approx(c_emp * eps, rel=1e-12)
            got = intB_diagnostic(f, g, p, besov_norm=1.0)
            # lhs is a difference of two norms: 1e-12 of the norm
            assert got[0] == pytest.approx(lhs, rel=0.0, abs=1e-12 * lp_norm(f, p))
            assert got[1] == rhs

    def test_the_2d_critical_norm_takes_the_carrier_dimension(self, db4, monkeypatch):
        seen = []

        def norm(f, p, m=1, basis=None):
            seen.append((f.ndim, p, m))
            return 1.0

        monkeypatch.setattr(inequalities, "critical_norm", norm)
        f = many_block_set("curve-family")[0]
        for variant in ("curve-family", "spiral"):
            g = many_block_set(variant)[1]
            uncertainty_check(f, g, 3.5)
            intB_diagnostic(f, g, 3.5)
        # curve-family is a point set (m = 2), the spiral a curve (m = 1)
        assert seen == [(2, 3.5, 2), (2, 3.5, 2), (2, 3.5, 1), (2, 3.5, 1)]

    def test_builds_no_trace(self, monkeypatch):
        f, g = many_block_set("spiral")

        def no_trace(*args, **kwargs):
            raise AssertionError("an estimate built a trace")

        monkeypatch.setattr(inequalities, "trace", no_trace)
        uncertainty_check(f, g, 2.0, besov_norm=1.0)
        intB_diagnostic(f, g, 2.0, besov_norm=1.0)


class TestLatticeParseval:
    """A trigonometric polynomial band-limited below 1/(2b) on a period of
    the lattice b Z^d, sampled on one period of the lattice at p = 2, has
    b^d sum |f(lattice)|^2 = ||f||_2^2 (the subsampled DFT does not alias),
    so `uncertainty_deficiency` is 0.

    The input is white noise times a width-2 Gaussian envelope, low-passed
    below 0.9/(2b) on 512^d points of spacing h = 2^-5: its DFT is zero past
    the band, so the identity holds for the grid nodes, summed with weight
    h^d, to rounding.  `lp_norm` and the sets depart from it only at the
    window's edges: the trapezoid weights the edge nodes by less than h^d,
    and the set may miss the lattice points within b of the far edge (the
    straight curve family misses a row and a column of its lattice).  So
    |eps| <= |1 - mass| <= max(missing, deficit) / ||f||_2^2 with both at
    most 2 d L^(d-1) (b + h) M, where M is max |f|^2 over the nodes within b
    of an edge, the envelope's tail after the low-pass; plus sqrt(n) ulp for
    rounding over n nodes.  The aliased band 1.6/(2b) must break the bound.
    """

    H, N = 2.0**-5, 512

    def field(self, d, band, seed=0):
        g1 = Grid1D(-8.0, self.H, self.N)
        grid = g1 if d == 1 else Grid2D(g1, Grid1D(-8.0, self.H, self.N))
        envelope = np.exp(-np.pi * (g1.x / 2.0) ** 2)
        if d == 2:
            envelope = np.outer(envelope, envelope)
        noise = np.random.default_rng(seed).standard_normal(envelope.shape)
        return smooth_lowpass(GridFunction(grid, noise * envelope), 0.8 * band, band)

    def bound(self, f, b):
        v2 = f.values ** 2
        d, s, length = v2.ndim, int(round(b / self.H)), self.N * self.H
        strip = np.zeros(v2.shape, bool)
        for axis in range(d):
            index = [slice(None)] * d
            index[axis] = np.r_[:s, self.N - s:self.N]
            strip[tuple(index)] = True
        w = np.full(self.N, self.H)
        w[[0, -1]] *= 0.5
        norm2 = np.sum(v2 * w) if d == 1 else w @ v2 @ w
        edge = 2 * d * length ** (d - 1) * (b + self.H) * v2[strip].max()
        return edge / norm2 + math.sqrt(v2.size) * np.finfo(float).eps

    def sampling_set(self, f, b):
        if f.ndim == 1:
            g = f.grid
            return regular_sequence(b, (g.x[0], g.x[0] + self.N * self.H - b))
        return build_geometry("curve-family", {"b": b, "straight": True,
                                               "window": window_for_grid(f.grid)})

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("b", [2.0**-2, 2.0**-3, 2.0**-4])
    def test_band_limited_input_has_zero_deficiency(self, d, b):
        f = self.field(d, 0.9 / (2 * b))
        sset = self.sampling_set(f, b)
        # the anchors are grid nodes, so the trace reads the values themselves
        assert np.all(((sset.anchors + 8.0) / self.H) % 1 == 0)
        assert sset.m == d
        assert abs(uncertainty_deficiency(f, sset, 2.0)) <= self.bound(f, b)
        aliased = self.field(d, 1.6 / (2 * b))
        assert abs(uncertainty_deficiency(aliased, sset, 2.0)) > 100 * self.bound(aliased, b)


class TestSamplingRatio:
    def test_bandlimited_in_band(self, grid, db4):
        # the two-constant band from the source inequality, behind the gate
        zf = make(ZooSpec("bandlimited-random", band=1.0, seed=8), grid, db4)
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 10, strict=True)
        rep = sampling_ratio(zf.f, seq, 2.0)
        assert rep.hypothesis_ok
        assert rep.in_band_cell and rep.in_band_trace
        assert BAND[0] <= rep.cell_ratio <= BAND[1]

    def test_gate_blocks_band_claim(self, grid, db4):
        # single fine-scale packet with b far above its wavelength
        c = WaveletCoefficients(1, 6, 6, {6: (0, np.array([1.0]))}, db4)
        f = synthesize(c, grid)
        seq = random_sequence(2.0**-2, (grid.x[0], grid.x[-1]), 3, strict=True)
        rep = sampling_ratio(f, seq, 2.0)
        assert not rep.hypothesis_ok
        assert rep.in_band_cell is None and rep.in_band_trace is None

    def test_zero_function_rejected(self, grid, db4):
        f = GridFunction(grid, np.zeros(grid.count))
        seq = random_sequence(0.25, (grid.x[0], grid.x[-1]), 1)
        with pytest.raises(ValueError):
            sampling_ratio(f, seq, 2.0)

    def test_bad_geometry_fails_before_the_analysis(self, small_grid2d, db4,
                                                    monkeypatch):
        # a line union with one cell of zero measure
        geo = build_geometry("hyperplane-union", {
            "b": 2.0**-3, "seed": 1, "window": window_for_grid(small_grid2d)})
        cell_b = geo.cell_b.copy()
        cell_b[7] = geo.cell_a[7]
        geo = dataclasses.replace(geo, cell_b=cell_b)
        f = GridFunction(small_grid2d, np.ones(small_grid2d.shape))

        def no_analysis(*args, **kwargs):
            raise AssertionError("analyze ran before the trace check")

        monkeypatch.setattr(besov, "analyze", no_analysis)
        with pytest.raises(ValueError, match="trace weights must be positive"):
            sampling_ratio(f, geo, 2.0)

    def test_sample_removal_monotonicity(self, grid, db4):
        zf = make(ZooSpec("bandlimited-random", band=1.0, seed=8), grid, db4)
        seq = random_sequence(2.0**-4, (grid.x[0], grid.x[-1]), 2, strict=True)
        tr = trace(zf.f, seq)
        full = np.sum(np.abs(tr.values) ** 2)
        sub = np.sum(np.abs(tr.values[::2]) ** 2)
        assert sub <= full

    def test_scale_invariance_of_ratios(self, grid, db4):
        # dilate f dyadically and rescale the set; every ratio is unchanged
        zf = make(ZooSpec("gaussian", width=2.0), grid)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        _, coeffs = besov_norm_via_analyze(zf.f, params, db4)
        seq = random_sequence(2.0**-4, (grid.x[0], grid.x[-1]), 6, strict=True,
                              lattice=2.0 * grid.spacing)
        rep0 = sampling_ratio(zf.f, seq, 2.0,
                              besov_norm=besov_norm_wavelet(coeffs, params))
        zd = dilate(zf, 1)
        rep1 = sampling_ratio(
            zd.f, SamplingSequence1D(seq.points / 2, seq.b / 2, seq.strict), 2.0,
            besov_norm=besov_norm_wavelet(dilate_coeffs(coeffs, 1), params))
        assert rep1.trace_ratio == pytest.approx(rep0.trace_ratio, rel=1e-4)
        assert rep1.cell_ratio == pytest.approx(rep0.cell_ratio, rel=1e-4)
        assert rep1.smallness == pytest.approx(rep0.smallness, rel=1e-4)


class TestUncertainty:
    def test_gap_function_full_deficiency(self, grid, db4):
        b = 2.0**-5
        seq = random_sequence(b, (grid.x[0], grid.x[-1]), 4, strict=True,
                              lattice=grid.spacing)
        from scipy.interpolate import CubicHermiteSpline
        rng = np.random.default_rng(4)
        spl = CubicHermiteSpline(seq.points, np.zeros(len(seq.points)),
                                 rng.uniform(-1, 1, len(seq.points)))
        from besovsampling.zoo import window_envelope
        f = GridFunction(grid, spl(grid.x) * window_envelope(grid))
        eps = uncertainty_deficiency(f, seq, 2.0)
        assert eps == pytest.approx(1.0, abs=1e-12)
        rep = uncertainty_check(f, seq, 2.0)
        assert rep.hypothesis_met and rep.c_emp > 0

    def test_boundary_case_eps_zero(self, grid, db4):
        # mix a smooth function (sampled mass above the b^-1 level) with a gap
        # function (mass ~ 0) until the sampled mass hits the level exactly
        from scipy.interpolate import CubicHermiteSpline
        from scipy.optimize import brentq
        from besovsampling.zoo import window_envelope
        p = 2.0
        b = 2.0**-4
        seq = random_sequence(b, (grid.x[0], grid.x[-1]), 9, strict=True)
        smooth = make(ZooSpec("gaussian", width=2.0), grid).f.values
        rng = np.random.default_rng(9)
        spl = CubicHermiteSpline(seq.points, np.zeros(len(seq.points)),
                                 rng.uniform(-1, 1, len(seq.points)))
        gap = spl(grid.x) * window_envelope(grid)
        gap *= np.max(np.abs(smooth)) / np.max(np.abs(gap))

        def excess(theta):
            f = GridFunction(grid, theta * smooth + (1 - theta) * gap)
            return uncertainty_deficiency(f, seq, p)

        assert excess(0.0) > 0 and excess(1.0) < 0
        theta_star = brentq(excess, 0.0, 1.0, xtol=1e-14)
        f_star = GridFunction(grid,
                              theta_star * smooth + (1 - theta_star) * gap)
        assert uncertainty_deficiency(f_star, seq, p) == pytest.approx(
            0.0, abs=1e-9)

    def test_hypothesis_not_met(self, grid, db4):
        # oversampled constant-ish function: sampled mass exceeds b^-1 level
        zf = make(ZooSpec("gaussian", width=4.0), grid)
        seq = regular_sequence(2.0**-6, (grid.x[0], grid.x[0] + 28.0))
        rep = uncertainty_check(zf.f, seq, 2.0)
        if rep.eps <= 0:
            assert not rep.hypothesis_met and rep.c_emp is None

    def test_dilation_invariance(self, grid, db4):
        seq_probe = random_sequence(2.0**-3, (grid.x[0], grid.x[-1]), 12,
                                    strict=True, lattice=2.0 * grid.spacing)
        gi = int(np.argmax(np.diff(seq_probe.points)))
        center = float((seq_probe.points[gi] + seq_probe.points[gi + 1]) / 2)
        zf = make(ZooSpec("gaussian", width=0.05, center=center), grid)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        _, coeffs = besov_norm_via_analyze(zf.f, params, db4)
        seq = seq_probe
        rep0 = uncertainty_check(zf.f, seq, 2.0,
                                 besov_norm=besov_norm_wavelet(coeffs, params))
        zd = dilate(zf, 1)
        rep1 = uncertainty_check(
            zd.f, SamplingSequence1D(seq.points / 2, seq.b / 2, seq.strict), 2.0,
            besov_norm=besov_norm_wavelet(dilate_coeffs(coeffs, 1), params))
        assert rep0.hypothesis_met and rep1.hypothesis_met
        assert rep1.c_emp == pytest.approx(rep0.c_emp, rel=1e-6)


class TestIntB:
    def test_constant_exact_tiling(self, grid, db4):
        f = GridFunction(grid, np.ones(grid.count))
        seq = regular_sequence(0.25, (grid.x[0], grid.x[0] + 28.0))
        # restrict the norm to the covered interval: use the identity on the
        # cells directly
        tr = trace(f, seq)
        covered = cell_norm(tr, seq, 2.0)
        # ||f||_2 over the same covered interval
        inside = (grid.x >= seq.points[0]) & (grid.x <= seq.points[-1])
        norm_cov = math.sqrt(np.sum(f.values[inside] ** 2) * grid.spacing)
        assert covered == pytest.approx(norm_cov, rel=1e-3)
        lhs, rhs, ratio = intB_diagnostic(f, seq, 2.0)
        assert rhs > 0  # window-edge wavelets make the Besov factor positive

    def test_single_coarse_wavelet_small_ratio(self, grid, db4):
        c = WaveletCoefficients(1, -3, -3, {-3: (0, np.array([1.0]))}, db4)
        f = synthesize(c, grid)
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 3, strict=True)
        lhs, rhs, ratio = intB_diagnostic(f, seq, 2.0)
        assert ratio < 0.05

    def test_ratio_decreases_with_b(self, grid, db4):
        zf = make(ZooSpec("bandlimited-random", band=2.0, seed=5), grid, db4)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        bn, _ = besov_norm_via_analyze(zf.f, params, db4)
        ratios = []
        for bexp in (3, 5, 7):
            seq = random_sequence(2.0**-bexp, (grid.x[0], grid.x[-1]),
                                  bexp, strict=True)
            ratios.append(intB_diagnostic(zf.f, seq, 2.0,
                                          besov_norm=bn)[2])
        assert ratios[2] < ratios[0]

    def test_zero_besov_rejected(self, grid, db4):
        f = GridFunction(grid, np.ones(grid.count))
        seq = regular_sequence(0.25, (grid.x[0], grid.x[0] + 28.0))
        with pytest.raises(ValueError):
            intB_diagnostic(f, seq, 2.0, besov_norm=0.0)


class TestHeisenberg:
    def test_translate_monotone(self, grid, db4):
        zf = make(ZooSpec("compact-bump", width=1.0), grid)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        bn, _ = besov_norm_via_analyze(zf.f, params, db4)
        p0 = heisenberg_product(zf.f, 1.0, 2.0, besov_norm=bn)
        from besovsampling.zoo import translate
        zt = translate(zf, 6.0)
        # translation-invariant Besov factor: reuse bn for the shifted copy
        p1 = heisenberg_product(zt.f, 1.0, 2.0, besov_norm=bn)
        assert p1 > p0

    def test_positive_infimum_bump_family(self, grid, db4):
        prods = []
        for width in (0.5, 1.0, 2.0, 4.0):
            zf = make(ZooSpec("compact-bump", width=width), grid)
            prods.append(heisenberg_product(zf.f, 1.0, 2.0))
        assert min(prods) > 0.1

    def test_rejects_zero_function(self, grid, db4):
        f = GridFunction(grid, np.zeros(grid.count))
        with pytest.raises(ValueError):
            heisenberg_product(f, 1.0, 2.0)

    def test_rejects_2d(self, small_grid2d, db4):
        f = GridFunction(small_grid2d, np.ones(small_grid2d.shape))
        with pytest.raises(ValueError, match="one-dimensional"):
            heisenberg_product(f, 1.0, 2.0)


class Test2DConsistency:
    def test_variant_i_reproduces_1d(self, small_grid2d, db4):
        gx = small_grid2d.gx
        win = (gx.x[0], gx.x[-1])
        u = np.exp(-np.pi * (gx.x / 1.5) ** 2) * np.cos(3 * gx.x)
        f2 = GridFunction(small_grid2d,
                          np.tile(u[None, :], (small_grid2d.gx.count, 1)))
        b = 2.0**-3
        heights = random_sequence(b, win, 9, strict=True).points
        g2d = build_geometry("hyperplane-union",
                             {"b": b, "heights": heights.tolist(),
                              "window": win})
        seq = SamplingSequence1D(heights, b, strict=True)
        fu = GridFunction(gx, u)
        p = 2.0
        tr2 = trace(f2, g2d)
        tr1 = trace(fu, seq)
        r2 = b ** (1 / p) * tr2.lp_carrier(p) / lp_norm(f2, p)
        r1 = b ** (1 / p) * float(np.sum(np.abs(tr1.values) ** p)) ** (1 / p) \
            / lp_norm(fu, p)
        assert r2 == pytest.approx(r1, rel=1e-4)
