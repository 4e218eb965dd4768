import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from besovsampling.geometry import build_geometry, random_sequence
from besovsampling.grid import Grid1D, Grid2D, GridFunction, lp_norm, smooth_lowpass
from besovsampling.inequalities import trace
from besovsampling import grid as grid_mod
from besovsampling import reconstruct
from besovsampling.reconstruct import (
    LowpassMultiplier,
    ReconstructionConfig,
    _bump01,
    averaging_V,
    bandlimited_split,
    build_operator,
    build_partition,
    calibrate_passband,
    contraction_estimate,
    full_pipeline,
    interp_pl,
    make_passband_family,
    neumann_reconstruct,
    reconstruction_nodes,
)
from besovsampling.wavelets import WaveletCoefficients, synthesize
from besovsampling.zoo import ZooSpec, make


@pytest.fixture(scope="module")
def seq_and_cfg(grid_module):
    grid = grid_module
    b = 2.0**-6
    seq = random_sequence(b, (grid.x[0], grid.x[-1]), seed=11, strict=True)
    cfg = ReconstructionConfig(c_factor=0.25, n_iter=12)
    return seq, cfg


@pytest.fixture(scope="module")
def grid_module():
    from besovsampling.grid import default_grid_1d
    return default_grid_1d()


class TestInterpPL:
    def test_affine_reproduction(self, grid_module):
        grid = grid_module
        f = GridFunction(grid, 0.7 * grid.x - 1.3)
        seq = random_sequence(0.25, (grid.x[0], grid.x[-1]), 2, strict=True)
        pl = interp_pl(trace(f, seq), seq, grid)
        assert np.max(np.abs(pl.values - f.values)) < 1e-12

    def test_zero_samples(self, grid_module):
        grid = grid_module
        seq = random_sequence(0.25, (grid.x[0], grid.x[-1]), 2, strict=True)
        t = trace(GridFunction(grid, np.zeros(grid.count)), seq)
        pl = interp_pl(t, seq, grid)
        assert np.all(pl.values == 0.0)

    def test_error_controlled_by_critical_norm(self, grid_module, db4):
        # || f - S1 ||_p <= C b^(1/p) ||f||_(1/p,p,1); measure C across b
        from besovsampling.besov import BesovParams, besov_norm_via_analyze
        grid = grid_module
        zf = make(ZooSpec("compact-bump", width=2.0), grid)
        bn, _ = besov_norm_via_analyze(zf.f, BesovParams(0.5, 2.0, 1.0, 1), db4)
        consts = []
        for bexp in (3, 5, 7):
            b = 2.0**-bexp
            seq = random_sequence(b, (grid.x[0], grid.x[-1]), bexp, strict=True)
            pl = interp_pl(trace(zf.f, seq), seq, grid)
            err = lp_norm(GridFunction(grid, zf.f.values - pl.values), 2.0)
            consts.append(err / (b**0.5 * bn))
        # the normalized ratio stays bounded and never grows as b shrinks
        # (it decays for smooth f, where the critical-norm bound is loose)
        assert max(consts) < 1.0
        assert all(b2 <= a2 * 1.05 for a2, b2 in zip(consts, consts[1:]))

    def test_ratio_stable_for_critical_regularity(self, grid_module, db4):
        from besovsampling.besov import BesovParams
        grid = grid_module
        zf = make(ZooSpec("besov-random", s=0.5, q=1.0, j_lo=0, j_hi=8,
                          seed=41), grid, db4)
        bn = zf.meta["designed_norm"]
        consts = []
        for bexp in (3, 4, 5, 6):
            b = 2.0**-bexp
            seq = random_sequence(b, (grid.x[0], grid.x[-1]), bexp, strict=True)
            pl = interp_pl(trace(zf.f, seq), seq, grid)
            err = lp_norm(GridFunction(grid, zf.f.values - pl.values), 2.0)
            consts.append(err / (b**0.5 * bn))
        assert max(consts) / min(consts) < 5.0


class TestBandlimitedSplit:
    def test_exact_complement(self, grid_module):
        grid = grid_module
        zf = make(ZooSpec("bandlimited-random", band=4.0, seed=3), grid)
        g, h, info = bandlimited_split(zf.f, 2.0**-4)
        assert np.max(np.abs(g.values + h.values - zf.f.values)) < 1e-15
        assert info["mode"] == "spectrum" and info["j0"] == 4

    def test_coarse_wavelet_goes_to_g(self, db4, grid_module):
        grid = grid_module
        c = WaveletCoefficients(1, 0, 0, {0: (0, np.array([1.0]))}, db4)
        f = synthesize(c, grid)
        g, h, info = bandlimited_split(f, 2.0**-5, basis=db4, mode="wavelet")
        assert info["j0"] == 5
        assert lp_norm(h, 2.0) < 1e-3 * lp_norm(f, 2.0)

    def test_spectrum_mode_band(self, grid_module):
        from besovsampling.besov import pw_membership
        grid = grid_module
        zf = make(ZooSpec("compact-bump", width=1.0), grid)
        g, h, info = bandlimited_split(zf.f, 2.0**-4)
        ok, _ = pw_membership(g, info["outer"], tol=1e-10)
        assert ok

    def test_j0_bracketing(self):
        import math
        for b in (2.0**-3, 0.1, 0.07):
            j0 = math.floor(math.log2(1.0 / b) + 1e-12)
            assert 2.0**j0 <= 1.0 / b <= 2.0 ** (j0 + 1)


def looped_partition(nodes, b, grid, coeffs):
    """sum_j c_j beta_j on the grid, as a per-node loop over index windows."""
    radius = 2.0 * b
    x = grid.x
    rows = []
    total = np.zeros(grid.count)
    for xj in nodes:
        lo = max(0, int(math.ceil((xj - radius - grid.origin) / grid.spacing)))
        hi = min(grid.count,
                 int(math.floor((xj + radius - grid.origin) / grid.spacing)) + 1)
        vals = _bump01((x[lo:hi] - xj) / radius)
        rows.append((lo, hi, vals))
        total[lo:hi] += vals
    total = np.maximum(total, 1e-300)
    out = np.zeros(grid.count)
    for cj, (lo, hi, vals) in zip(coeffs, rows):
        out[lo:hi] += cj * vals
    return out / total


class TestPartitionLoop:
    """The flattened 1D partition equals the per-node loop bit for bit."""

    GRID = Grid1D(-4.0, 2.0**-6, 512)

    @settings(deadline=None, max_examples=40)
    @given(b=st.sampled_from([2.0**-3, 2.0**-5, 0.07]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_random=st.integers(min_value=0, max_value=60))
    def test_apply_and_partition_sum_match_loop(self, b, seed, n_random):
        g = self.GRID
        rng = np.random.default_rng(seed)
        nodes = np.concatenate([
            rng.uniform(-5.0, 5.0, n_random),  # overlapping, some clipped
            [g.x[0], g.x[-1], g.x[0] - b, g.x[-1] + b],  # clipped at both ends
            [-10.0, 20.0],  # windows that miss the grid
            g.x[rng.integers(0, g.count, 3)],  # window ends on grid points
        ])
        nodes = np.append(nodes, nodes[0])  # a repeated node
        rng.shuffle(nodes)
        pou = build_partition(nodes, b, g)
        for _ in range(2):  # a second apply on the same partition
            c = rng.normal(size=len(nodes))
            assert np.array_equal(pou.apply(c), looped_partition(nodes, b, g, c))
        assert np.array_equal(pou.partition_sum(),
                              looped_partition(nodes, b, g, np.ones(len(nodes))))

    def test_no_node_meets_the_grid(self):
        g = self.GRID
        pou = build_partition(np.array([-30.0, 40.0]), 2.0**-4, g)
        assert np.array_equal(pou.apply(np.array([1.0, -2.0])), np.zeros(g.count))


class TestPartition2D:
    """The 2D partition's cached kernel spectrum gives fftconvolve's bits."""

    def test_apply_matches_fftconvolve(self):
        g1 = Grid1D(-4.0, 2.0**-3, 100)
        grid = Grid2D(g1, Grid1D(-4.0, 2.0**-3, 72))
        rng = np.random.default_rng(5)
        ix = np.r_[0, 99, 0, 99, rng.integers(0, 100, 30)]  # corners first
        iy = np.r_[0, 0, 71, 71, rng.integers(0, 72, 30)]
        nodes = np.column_stack([g1.x[ix], grid.gy.x[iy]])
        for b in (0.5, 0.3):
            pou = build_partition(nodes, b, grid)

            def reference(c):
                imp = np.zeros(grid.shape)
                np.add.at(imp, (ix, iy), c)
                return fftconvolve(imp, pou._kernel, mode="same")

            total = np.maximum(reference(np.ones(len(nodes))), 1e-300)
            assert np.array_equal(pou._total, total)
            assert np.array_equal(pou.partition_sum(),
                                  reference(np.ones(len(nodes))) / total)
            for _ in range(2):  # a second apply reuses the spectrum
                c = rng.normal(size=len(nodes))
                assert np.array_equal(pou.apply(c), reference(c) / total)


class TestPartitionAndOperators:
    def test_partition_of_unity(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, _ = seq_and_cfg
        pou = build_partition(seq.points, seq.b, grid)
        total = pou.partition_sum()
        inner = pou.interior_mask()
        assert np.max(np.abs(total[inner] - 1.0)) < 1e-8

    def test_quasi_interp_constant(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, _ = seq_and_cfg
        pou = build_partition(seq.points, seq.b, grid)
        out = GridFunction(grid, pou.apply(np.ones(len(seq.points))))
        inner = pou.interior_mask()
        assert np.max(np.abs(out.values[inner] - 1.0)) < 1e-8

    def test_quasi_interp_single_node(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, _ = seq_and_cfg
        pou = build_partition(seq.points, seq.b, grid)
        c = np.zeros(len(seq.points))
        c[100] = 1.0
        out = GridFunction(grid, pou.apply(c))
        support = np.abs(grid.x - seq.points[100]) <= 2 * seq.b
        assert np.max(np.abs(out.values[~support])) == 0.0

    def test_quasi_interp_first_order_error(self, grid_module, seq_and_cfg):
        # lattice samples of a bandlimited f: ||Ac - f|| <= C b ||f'||
        grid = grid_module
        b = 2.0**-6
        nodes = np.arange(grid.x[0] + 2.0, grid.x[-1] - 2.0, b)
        pou = build_partition(nodes, b, grid)
        zf = make(ZooSpec("bandlimited-random", band=2.0, seed=4), grid)
        c = zf.f.interpolate(nodes)
        out = GridFunction(grid, pou.apply(c))
        inner = pou.interior_mask()
        err = np.sqrt(np.sum((out.values - zf.f.values)[inner] ** 2)
                      * grid.spacing)
        from besovsampling.grid import fourier, inverse_fourier, SpectrumFunction
        F = fourier(zf.f)
        deriv = inverse_fourier(SpectrumFunction(
            grid, F.freqs, 2j * np.pi * F.freqs[0] * F.values))
        assert err <= 2.0 * b * lp_norm(deriv, 2.0)

    def test_averaging_identity_1d(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        zf = make(ZooSpec("gaussian", width=2.0), grid)
        t = trace(zf.f, seq)
        v, rep = averaging_V(t, build_operator(seq, cfg, grid))
        assert np.array_equal(v, t.values)
        assert rep["vnorm_ratio"] <= 1.0 + 1e-12

    def test_averaging_identity_on_point_sets(self, grid_module, seq_and_cfg):
        """m = d, a sequence or a curve-family anchor set: V is the identity
        and its report is the ratio with b^((m-d)/p) = 1."""
        seq, cfg = seq_and_cfg
        t = trace(make(ZooSpec("gaussian", width=2.0), grid_module).f, seq)
        g1 = Grid1D(-8.0, 2.0**-5, 512)
        grid2 = Grid2D(g1, Grid1D(-8.0, 2.0**-5, 512))
        geo = build_geometry("curve-family", {"b": 0.5, "seed": 1,
                                              "window": (-7.5, 7.5)})
        u = np.exp(-np.pi * (g1.x / 3.0) ** 2)
        t2 = trace(GridFunction(grid2, np.outer(u, u)), geo)
        for tr, sset, grid, m, d in ((t, seq, grid_module, 1, 1),
                                     (t2, geo, grid2, 2, 2)):
            v, rep = averaging_V(tr, build_operator(sset, cfg, grid))
            assert np.array_equal(v, tr.values)
            num = float(np.sum(np.abs(v) ** 2.0) ** (1 / 2.0))
            den = sset.b ** ((m - d) / 2.0) * tr.lp_carrier(2.0)
            assert rep["vnorm_ratio"] == num / den

    def test_averaging_2d_constant_and_linear(self):
        g1 = Grid1D(-8.0, 2.0**-6, 1024)
        grid2 = Grid2D(g1, Grid1D(-8.0, 2.0**-6, 1024))
        win = (g1.x[0], g1.x[-1])
        b = 2.0**-3
        heights = random_sequence(b, win, 4, strict=True).points
        g = build_geometry("hyperplane-union",
                           {"b": b, "heights": heights.tolist(), "window": win})
        op = build_operator(g, ReconstructionConfig(), grid2)
        ones = GridFunction(grid2, np.ones(grid2.shape))
        t = trace(ones, g)
        v, rep = averaging_V(t, op)
        assert np.allclose(v, 1.0, atol=1e-12)
        # linear trace over interior symmetric cells averages to the center
        lin = GridFunction(grid2, np.tile(g1.x[:, None], (1, grid2.gy.count)))
        tv = trace(lin, g)
        v2, _ = averaging_V(tv, op)
        nodes = op.nodes
        interior = (nodes[:, 0] > win[0] + b) & (nodes[:, 0] < win[1] - b)
        assert np.max(np.abs(v2[interior] - nodes[interior, 0])) < 1e-9


class TestNeumann:
    def test_zero_trace_gives_zero(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        t = trace(GridFunction(grid, np.zeros(grid.count)), seq)
        out, rep = neumann_reconstruct(t, build_operator(seq, cfg, grid))
        assert np.all(out.values == 0.0)

    def test_zero_iterations_is_projected_quasi_interp(self, grid_module,
                                                       seq_and_cfg):
        grid = grid_module
        seq, _ = seq_and_cfg
        cfg = ReconstructionConfig(c_factor=0.25, n_iter=0)
        fam = make_passband_family(grid, seq, cfg, n=1, seed=5)
        t = trace(fam[0], seq)
        out, rep = neumann_reconstruct(t, build_operator(seq, cfg, grid))
        pou = build_partition(seq.points, seq.b, grid)
        # V is the identity on a sequence
        expected = cfg.multiplier(seq.b).apply(GridFunction(grid, pou.apply(t.values)))
        assert np.max(np.abs(out.values - expected.values)) < 1e-14

    def test_bandlimited_convergence(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        fam = make_passband_family(grid, seq, cfg, n=1, seed=9)
        g = fam[0]
        out, rep = neumann_reconstruct(trace(g, seq), build_operator(seq, cfg, grid))
        rel = lp_norm(GridFunction(grid, g.values - out.values), 2.0) \
            / lp_norm(g, 2.0)
        assert rel < 1e-3

    def test_truncation_consistency(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, _ = seq_and_cfg
        cfg_n = ReconstructionConfig(c_factor=0.25, n_iter=4)
        cfg_n1 = ReconstructionConfig(c_factor=0.25, n_iter=5)
        fam = make_passband_family(grid, seq, cfg_n, n=1, seed=13)
        t = trace(fam[0], seq)
        out_n, _ = neumann_reconstruct(t, build_operator(seq, cfg_n, grid))
        out_n1, rep = neumann_reconstruct(t, build_operator(seq, cfg_n1, grid))
        # the difference is exactly the last series term, whose norm is the
        # recorded final residual
        diff = lp_norm(GridFunction(grid, out_n1.values - out_n.values), 2.0)
        assert diff == pytest.approx(rep.residuals[-1], rel=1e-10)

    def test_linearity_of_pipeline_operators(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        fam = make_passband_family(grid, seq, cfg, n=2, seed=21)
        f1, f2 = fam
        a, bcoef = 0.7, -1.3
        combo = GridFunction(grid, a * f1.values + bcoef * f2.values)
        op = build_operator(seq, cfg, grid)
        o1, _ = neumann_reconstruct(trace(f1, seq), op)
        o2, _ = neumann_reconstruct(trace(f2, seq), op)
        oc, _ = neumann_reconstruct(trace(combo, seq), op)
        resid = oc.values - a * o1.values - bcoef * o2.values
        assert lp_norm(GridFunction(grid, resid), 2.0) < 1e-9


def reference_passband_family(grid, sampling_set, cfg, n, seed):
    """`make_passband_family` with its two branches, 1D and 2D, as they were."""
    inner = cfg.a_factor / sampling_set.b
    rng = np.random.default_rng(seed)
    out = []
    if isinstance(grid, Grid1D):
        env = np.exp(-((grid.x - grid.origin - grid.length / 2)
                       / (grid.length / 6.0)) ** 2)
        for _ in range(n):
            noise = rng.standard_normal(grid.count) * env
            out.append(smooth_lowpass(GridFunction(grid, noise), 0.8 * inner, inner))
    else:
        gx, gy = grid.gx, grid.gy
        env = (np.exp(-((gx.x - gx.origin - gx.length / 2) / (gx.length / 6.0)) ** 2)[:, None]
               * np.exp(-((gy.x - gy.origin - gy.length / 2) / (gy.length / 6.0)) ** 2)[None, :])
        for _ in range(n):
            noise = rng.standard_normal(grid.shape) * env
            out.append(smooth_lowpass(GridFunction(grid, noise), 0.8 * inner, inner))
    return out


class TestPassbandFamily:
    @pytest.mark.parametrize("grid", [
        Grid1D(-16.0, 2.0**-10, 32768),
        Grid1D(-5.3, 2.0**-6, 1024),
        # unequal axes, spacings and origins, so a swapped axis shows
        Grid2D(Grid1D(-3.3, 2.0**-4, 256), Grid1D(-5.1, 2.0**-5, 128)),
    ], ids=["1d-default", "1d-offset", "2d"])
    def test_bit_identical_to_the_per_dimension_branches(self, grid):
        seq = random_sequence(2.0**-2, (-2.0, 2.0), seed=3, strict=True)
        cfg = ReconstructionConfig(c_factor=0.25)
        got = make_passband_family(grid, seq, cfg, n=3, seed=7)
        want = reference_passband_family(grid, seq, cfg, n=3, seed=7)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)


class TestContraction:
    def test_dense_sampling_below_half(self, grid_module):
        grid = grid_module
        seq = random_sequence(2.0**-8, (grid.x[0], grid.x[-1]), 7, strict=True)
        cfg = ReconstructionConfig(c_factor=0.25)
        est = contraction_estimate(seq, cfg, grid, n=8, seed=1)
        assert est < 0.5

    def test_identity_hook_cancels_on_passband(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        fam = make_passband_family(grid, seq, cfg, n=3, seed=4)
        pchi = cfg.multiplier(seq.b)
        worst = 0.0
        for g in fam:
            # A1 replaced by the identity: P(g) = g exactly on the passband
            err = lp_norm(GridFunction(grid, g.values
                                       - pchi.apply(g).values), 2.0)
            worst = max(worst, err / lp_norm(g, 2.0))
        assert worst < 1e-9

    def test_divergence_aborts_with_report(self, grid_module):
        grid = grid_module
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 11, strict=True)
        cfg = ReconstructionConfig(c_factor=4.0, n_iter=30)
        fam = make_passband_family(grid, seq, cfg, n=1, seed=3)
        _fk, rep = neumann_reconstruct(trace(fam[0], seq),
                                       build_operator(seq, cfg, grid))
        assert rep.diverged
        assert len(rep.residuals) < cfg.n_iter
        assert rep.residuals[-1] > rep.residuals[-2] > rep.residuals[-3] \
            > rep.residuals[-4]

    def test_undersampled_passband_fails(self, grid_module):
        # passband pushed past what the sampling density supports: the
        # family estimate exceeds 1 (a solve then aborts, as above)
        grid = grid_module
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 11, strict=True)
        cfg = ReconstructionConfig(c_factor=4.0, n_iter=3)
        est = contraction_estimate(seq, cfg, grid, n=6, seed=5)
        assert est >= 1.0

    def test_monotone_decay_under_certified_rate(self, grid_module,
                                                 seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        r = contraction_estimate(seq, cfg, grid, n=8, seed=3, orbit_depth=12)
        assert r < 1.0
        fam = make_passband_family(grid, seq, cfg, n=1, seed=17)
        _, rep = neumann_reconstruct(trace(fam[0], seq), build_operator(seq, cfg, grid))
        for ratio in rep.contraction_ratios:
            assert ratio <= r + 0.05

    def test_calibration(self, grid_module):
        grid = grid_module
        seq = random_sequence(2.0**-6, (grid.x[0], grid.x[-1]), 11, strict=True)
        best, estimates = calibrate_passband(seq, grid, cs=(0.5, 0.25),
                                             n=5, seed=2)
        assert best == 0.5
        assert estimates[0.25] < estimates[0.5] < 0.9


class TestBuildOperator:
    """Every bad input is rejected by the operator build, before P runs."""

    @staticmethod
    def _bad_inputs():
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        grid2 = Grid2D(g1, Grid1D(-4.0, 2.0**-3, 64))
        win = (g1.x[0], g1.x[-1])
        seq = random_sequence(0.5, win, 1, strict=True)
        cfg = ReconstructionConfig()
        return {
            "sequence on a 2D grid": (seq, cfg, grid2, "needs a 1D grid"),
            "geometry on a 1D grid": (
                build_geometry("curve-family", {"b": 0.5, "seed": 1, "window": win}),
                cfg, g1, "needs a 2D grid"),
            # the operator rounds the line heights to the grid rows, but a
            # window off the grid lattice puts the node columns off it
            "off-lattice nodes": (
                build_geometry("hyperplane-union", {
                    "b": 0.5, "seed": 1, "window": (win[0] + g1.spacing / 2, win[1])}),
                cfg, grid2, "must sit on the grid lattice"),
            "a not below c": (seq, ReconstructionConfig(c_factor=0.25, a_factor=0.5),
                              g1, "need 0 < a < c"),
            "dropped line": (
                build_geometry("hyperplane-union", {
                    "b": 0.5, "seed": 1, "window": win, "drop_line": 2}),
                cfg, grid2, "deliberately broken"),
            "no lattice": (
                build_geometry("spiral", {"b": 0.5, "seed": 1, "window": win}),
                cfg, grid2, "has no reconstruction lattice"),
        }

    @pytest.mark.parametrize("case", ["sequence on a 2D grid", "geometry on a 1D grid",
                                      "off-lattice nodes", "a not below c",
                                      "dropped line", "no lattice"])
    def test_rejected_before_the_projector(self, monkeypatch, case):
        sset, cfg, grid, message = self._bad_inputs()[case]

        def no_projector(*args, **kwargs):
            raise AssertionError("P ran before the input check")

        monkeypatch.setattr(LowpassMultiplier, "apply", no_projector)
        with pytest.raises(ValueError, match=message):
            build_operator(sset, cfg, grid)


def three_solve_pipeline(f, op):
    """`full_pipeline` with its former body: a third Neumann solve for h."""
    sset, p = op.sampling_set, op.cfg.p
    g = op.pchi.apply(f)
    h = GridFunction(f.grid, f.values - g.values)
    recon_f, rep = neumann_reconstruct(trace(f, sset), op)
    recon_g, _ = neumann_reconstruct(trace(g, sset), op)
    recon_h, _ = neumann_reconstruct(trace(h, sset), op)
    rep.total_error = lp_norm(GridFunction(f.grid, f.values - recon_f.values), p)
    fnorm = lp_norm(f, p)
    rep.rel_error = rep.total_error / fnorm if fnorm > 0 else 0.0
    rep.h_norm = lp_norm(h, p)
    rep.g_error = lp_norm(GridFunction(f.grid, g.values - recon_g.values), p)
    rep.h_reconstructed_norm = lp_norm(recon_h, p)
    return rep


class TestFullPipeline:
    @staticmethod
    def _cases(grid_1d, db4):
        f1 = make(ZooSpec("besov-random", s=0.9, q=np.inf, j_lo=0, j_hi=7,
                          seed=31), grid_1d, db4).f
        seq = random_sequence(2.0**-5, (grid_1d.x[0], grid_1d.x[-1]), 4, strict=True)
        grid = Grid2D(Grid1D(-4.0, 2.0**-5, 256), Grid1D(-4.0, 2.0**-5, 256))
        win = (grid.gx.x[0], grid.gx.x[-1])
        # a field with content past the passband, so h is not small
        env = np.exp(-np.add.outer(grid.gx.x ** 2, grid.gy.x ** 2) / 2.0)
        noise = np.random.default_rng(3).standard_normal(grid.shape) * env
        f2 = smooth_lowpass(GridFunction(grid, noise), 2.0, 4.0)
        heights = random_sequence(0.25, win, 5, strict=True, lattice=2.0**-5).points
        return [
            (f1, seq),
            (f2, build_geometry("curve-family", {"b": 0.25, "seed": 2, "window": win})),
            (f2, build_geometry("hyperplane-union", {"b": 0.25, "window": win,
                                                     "heights": heights.tolist()})),
        ]

    def test_two_solves_match_three(self, grid_module, db4, monkeypatch):
        cfg = ReconstructionConfig(c_factor=0.25, n_iter=8)
        solve = reconstruct.neumann_reconstruct
        for f, sset in self._cases(grid_module, db4):
            op = build_operator(sset, cfg, f.grid)
            want = three_solve_pipeline(f, op)
            calls = []
            monkeypatch.setattr(reconstruct, "neumann_reconstruct",
                                lambda *a: calls.append(1) or solve(*a))
            got = full_pipeline(f, op)
            monkeypatch.setattr(reconstruct, "neumann_reconstruct", solve)
            assert len(calls) == 2
            for name in ("total_error", "rel_error", "h_norm", "g_error",
                         "residuals"):
                assert getattr(got, name) == getattr(want, name), name
            assert want.h_norm > 1e-3 * lp_norm(f, 2.0)
            assert got.h_reconstructed_norm == pytest.approx(
                want.h_reconstructed_norm, rel=1e-12, abs=0.0)

    def test_1d_pipeline_takes_no_full_spectrum(self, grid_module, seq_and_cfg, db4,
                                               monkeypatch):
        # P runs on the half spectrum, so no step goes through `fourier`
        seq, cfg = seq_and_cfg
        f = make(ZooSpec("besov-random", s=0.9, q=np.inf, j_lo=0, j_hi=7,
                         seed=31), grid_module, db4).f
        op = build_operator(seq, cfg, grid_module)
        calls = []
        for name in ("fourier", "inverse_fourier"):
            monkeypatch.setattr(grid_mod, name,
                                lambda *a, name=name: calls.append(name))
        rep = full_pipeline(f, op)
        assert calls == [] and rep.residuals

    def test_input_off_the_operator_grid(self, grid_module, seq_and_cfg):
        seq, cfg = seq_and_cfg
        op = build_operator(seq, cfg, grid_module)
        other = Grid1D(grid_module.origin + grid_module.spacing,
                       grid_module.spacing, grid_module.count)
        with pytest.raises(ValueError, match="operator's grid"):
            full_pipeline(GridFunction(other, np.zeros(other.count)), op)

    def test_bandlimited_degenerate_split(self, grid_module, seq_and_cfg):
        grid = grid_module
        seq, cfg = seq_and_cfg
        fam = make_passband_family(grid, seq, cfg, n=1, seed=23)
        rep = full_pipeline(fam[0], build_operator(seq, cfg, grid))
        assert rep.h_norm < 1e-10
        assert rep.rel_error < 1e-3

    def test_error_breakdown_triangle(self, grid_module, seq_and_cfg, db4):
        grid = grid_module
        seq, cfg = seq_and_cfg
        zf = make(ZooSpec("besov-random", s=0.9, q=np.inf, j_lo=0, j_hi=7,
                          seed=31), grid, db4)
        rep = full_pipeline(zf.f, build_operator(seq, cfg, grid))
        assert rep.total_error <= (rep.h_norm + rep.g_error
                                   + rep.h_reconstructed_norm) * (1 + 1e-9)

    def test_2d_reconstruction_both_variants(self):
        g1 = Grid1D(-8.0, 2.0**-6, 1024)
        grid2 = Grid2D(g1, Grid1D(-8.0, 2.0**-6, 1024))
        win = (g1.x[0], g1.x[-1])
        b = 2.0**-3
        cfg = ReconstructionConfig(c_factor=0.25, n_iter=10)
        heights = random_sequence(b, win, 3, strict=True).points
        for params, variant in [
            ({"heights": heights.tolist()}, "hyperplane-union"),
            ({"seed": 2}, "curve-family"),
        ]:
            g = build_geometry(variant, {"b": b, "window": win, **params})
            fam = make_passband_family(grid2, g, cfg, n=1, seed=8)
            rec, rep = neumann_reconstruct(trace(fam[0], g), build_operator(g, cfg, grid2))
            rel = lp_norm(GridFunction(grid2, fam[0].values - rec.values), 2.0) \
                / lp_norm(fam[0], 2.0)
            assert rel < 1e-2, variant
