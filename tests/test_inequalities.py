import dataclasses
import math

import numpy as np
import pytest

from besovsampling import besov
from besovsampling.besov import BesovParams, besov_norm_via_analyze, besov_norm_wavelet
from besovsampling.geometry import (
    SamplingSequence1D,
    build_geometry,
    cell_measures,
    random_sequence,
    regular_sequence,
    window_for_grid,
)
from besovsampling.grid import Grid1D, Grid2D, GridFunction, lp_norm
from besovsampling.inequalities import (
    BAND,
    heisenberg_product,
    intB_diagnostic,
    sampling_ratio,
    trace,
    uncertainty_check,
    uncertainty_deficiency,
)
from besovsampling.wavelets import WaveletCoefficients, dilate_coeffs, synthesize
from besovsampling.zoo import ZooSpec, dilate, make


def reference_trace_1d(f, seq):
    """`trace`'s own branch for a sequence, before a sequence became the
    m = d = 1 sampling set: (values, carrier weights, cell weights)."""
    vals = f.interpolate(seq.points)
    return vals, np.ones(len(vals)), seq.cell_lengths


def reference_trace_2d(f, g):
    """`trace`'s branch for a 2D carrier, as it was."""
    vals = f.interpolate(g.anchors)
    return vals, g.anchor_weights.copy(), g.anchor_weights * cell_measures(g)


def assert_trace_equals(tr, reference):
    for got, want in zip((tr.values, tr.carrier_weights, tr.cell_weights),
                         reference):
        assert np.array_equal(got, want)


class TestTrace:
    def test_constant_tiling(self, grid):
        seq = regular_sequence(0.25, (grid.x[0] + 0.0, grid.x[0] + 28.0))
        f = GridFunction(grid, np.ones(grid.count))
        tr = trace(f, seq)
        # cell-weighted mass of a constant recovers the covered length
        assert tr.lp_cells(1.0) == pytest.approx(28.0, abs=1e-10)

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


class TestSamplingRatio:
    def test_bandlimited_in_band(self, grid, db4):
        # the two-constant band from the source inequality, behind the gate
        zf = make(ZooSpec("bandlimited-random", band=1.0, seed=8), grid, db4)
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 10, strict=True)
        rep = sampling_ratio(zf.f, seq, 2.0, db4)
        assert rep.hypothesis_ok
        assert rep.in_band_cell and rep.in_band_trace
        assert BAND[0] <= rep.cell_ratio <= BAND[1]

    def test_gate_blocks_band_claim(self, grid, db4):
        # single fine-scale packet with b far above its wavelength
        c = WaveletCoefficients(1, 6, 6, {6: (0, np.array([1.0]))}, db4)
        f = synthesize(c, grid)
        seq = random_sequence(2.0**-2, (grid.x[0], grid.x[-1]), 3, strict=True)
        rep = sampling_ratio(f, seq, 2.0, db4)
        assert not rep.hypothesis_ok
        assert rep.in_band_cell is None and rep.in_band_trace is None

    def test_zero_function_rejected(self, grid, db4):
        f = GridFunction(grid, np.zeros(grid.count))
        seq = random_sequence(0.25, (grid.x[0], grid.x[-1]), 1)
        with pytest.raises(ValueError):
            sampling_ratio(f, seq, 2.0, db4)

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
            sampling_ratio(f, geo, 2.0, db4)

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
        rep0 = sampling_ratio(zf.f, seq, 2.0, db4,
                              besov_norm=besov_norm_wavelet(coeffs, params))
        zd = dilate(zf, 1)
        rep1 = sampling_ratio(
            zd.f, seq.rescaled(1), 2.0, db4,
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
        rep = uncertainty_check(f, seq, 2.0, db4)
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
        rep = uncertainty_check(zf.f, seq, 2.0, db4)
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
        rep0 = uncertainty_check(zf.f, seq, 2.0, db4,
                                 besov_norm=besov_norm_wavelet(coeffs, params))
        zd = dilate(zf, 1)
        rep1 = uncertainty_check(
            zd.f, seq.rescaled(1), 2.0, db4,
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
        covered = tr.lp_cells(2.0)
        # ||f||_2 over the same covered interval
        inside = (grid.x >= seq.points[0]) & (grid.x <= seq.points[-1])
        norm_cov = math.sqrt(np.sum(f.values[inside] ** 2) * grid.spacing)
        assert covered == pytest.approx(norm_cov, rel=1e-3)
        lhs, rhs, ratio = intB_diagnostic(f, seq, 2.0, db4)
        assert rhs > 0  # window-edge wavelets make the Besov factor positive

    def test_single_coarse_wavelet_small_ratio(self, grid, db4):
        c = WaveletCoefficients(1, -3, -3, {-3: (0, np.array([1.0]))}, db4)
        f = synthesize(c, grid)
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 3, strict=True)
        lhs, rhs, ratio = intB_diagnostic(f, seq, 2.0, db4)
        assert ratio < 0.05

    def test_ratio_decreases_with_b(self, grid, db4):
        zf = make(ZooSpec("bandlimited-random", band=2.0, seed=5), grid, db4)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        bn, _ = besov_norm_via_analyze(zf.f, params, db4)
        ratios = []
        for bexp in (3, 5, 7):
            seq = random_sequence(2.0**-bexp, (grid.x[0], grid.x[-1]),
                                  bexp, strict=True)
            ratios.append(intB_diagnostic(zf.f, seq, 2.0, db4,
                                          besov_norm=bn)[2])
        assert ratios[2] < ratios[0]

    def test_zero_besov_rejected(self, grid, db4):
        f = GridFunction(grid, np.ones(grid.count))
        seq = regular_sequence(0.25, (grid.x[0], grid.x[0] + 28.0))
        with pytest.raises(ValueError):
            intB_diagnostic(f, seq, 2.0, db4, besov_norm=0.0)


class TestHeisenberg:
    def test_translate_monotone(self, grid, db4):
        zf = make(ZooSpec("compact-bump", width=1.0), grid)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        bn, _ = besov_norm_via_analyze(zf.f, params, db4)
        p0 = heisenberg_product(zf.f, 1.0, 2.0, db4, besov_norm=bn)
        from besovsampling.zoo import translate
        zt = translate(zf, 6.0)
        # translation-invariant Besov factor: reuse bn for the shifted copy
        p1 = heisenberg_product(zt.f, 1.0, 2.0, db4, besov_norm=bn)
        assert p1 > p0

    def test_positive_infimum_bump_family(self, grid, db4):
        prods = []
        for width in (0.5, 1.0, 2.0, 4.0):
            zf = make(ZooSpec("compact-bump", width=width), grid)
            prods.append(heisenberg_product(zf.f, 1.0, 2.0, db4))
        assert min(prods) > 0.1

    def test_rejects_zero_function(self, grid, db4):
        f = GridFunction(grid, np.zeros(grid.count))
        with pytest.raises(ValueError):
            heisenberg_product(f, 1.0, 2.0, db4)

    def test_rejects_2d(self, small_grid2d, db4):
        f = GridFunction(small_grid2d, np.ones(small_grid2d.shape))
        with pytest.raises(ValueError, match="one-dimensional"):
            heisenberg_product(f, 1.0, 2.0, db4)


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
