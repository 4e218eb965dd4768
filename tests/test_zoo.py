import dataclasses
import math

import numpy as np
import pytest

from besovsampling.besov import BesovParams, besov_norm_wavelet
from besovsampling.geometry import random_sequence
from besovsampling.grid import (Grid1D, Grid2D, GridFunction, SpectrumFunction, fourier,
                                inverse_fourier, lowpass_profile, lp_norm, smooth_lowpass,
                                smooth_ramp01)
from besovsampling.zoo import (
    ZooSpec,
    _gaussian_vals,
    _window_envelope,
    bandlimited_field_2d,
    calibration_zoo,
    dilate,
    make,
    translate,
    window_envelope,
)


def reference_bandlimited_1d(spec, grid):
    """The 1D `bandlimited-random` branch of `make`, as it was: its low-pass
    is the full-spectrum route, `fourier`, the profile, `inverse_fourier`."""
    rng = np.random.default_rng(spec.seed)
    env = _gaussian_vals(grid.x, spec.center, grid.length / 8.0, 1.0)
    noise = rng.standard_normal(grid.count) * env
    F = fourier(GridFunction(grid, noise))
    mult = lowpass_profile(np.abs(F.freqs[0]), 0.7 * spec.band, spec.band)
    f = inverse_fourier(SpectrumFunction(grid, F.freqs, F.values * mult))
    vals = f.values * window_envelope(grid, flat=0.7, zero=0.9)
    n2 = lp_norm(GridFunction(grid, vals), 2.0)
    if n2 > 0:
        vals = vals * (spec.amplitude / n2)
    return vals


def support_margin(f):
    """The distance from the significant support of f to the grid's edge."""
    return min(min(lo - g.x[0], g.x[-1] - hi)
               for (lo, hi), g in zip(f.significant_support(), f.grid.axes))


def reference_field_2d(grid, band, seed):
    """`bandlimited_field_2d`'s own body, as it was."""
    rng = np.random.default_rng(seed)
    gx, gy = grid.gx, grid.gy
    env = (_gaussian_vals(gx.x, 0.0, gx.length / 8.0, 1.0)[:, None]
           * _gaussian_vals(gy.x, 0.0, gy.length / 8.0, 1.0)[None, :])
    noise = rng.standard_normal(grid.shape) * env
    f = smooth_lowpass(GridFunction(grid, noise), 0.7 * band, band)
    vals = f.values * np.outer(window_envelope(gx, 0.7, 0.9),
                               window_envelope(gy, 0.7, 0.9))
    n2 = lp_norm(GridFunction(grid, vals), 2.0)
    if n2 > 0:
        vals = vals * (1.0 / n2)
    return vals


class TestSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ZooSpec("sinc-train")

    def test_random_kinds_need_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ZooSpec("bandlimited-random", band=1.0)

    def test_json_round_trip(self):
        spec = ZooSpec("dilate", m_shift=2,
                       base=ZooSpec("besov-random", s=0.7, q=math.inf, seed=4))
        back = ZooSpec.from_dict(spec.to_dict())
        assert back.base.s == 0.7 and math.isinf(back.base.q)
        assert back.m_shift == 2
        assert back == spec
        pair = ZooSpec("tensor2d", base=ZooSpec("gaussian", width=0.5),
                       base2=ZooSpec("gap-sine", sequence_b=0.25))
        assert ZooSpec.from_dict(pair.to_dict()) == pair

    def test_equal_specs_hash_equal(self):
        def spec(width):
            return ZooSpec("dilate", m_shift=1,
                           base=ZooSpec("compact-bump", width=width))

        assert spec(2.0) == spec(2.0) and hash(spec(2.0)) == hash(spec(2.0))
        assert spec(2.0) != spec(3.0)
        assert {spec(2.0): "memo"}[spec(2.0)] == "memo"

    def test_fields_are_frozen(self):
        spec = ZooSpec("bandlimited-random", band=1.0, seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 4


class TestGenerators:
    def test_gaussian_formula(self, grid):
        zf = make(ZooSpec("gaussian", width=1.0), grid)
        assert np.max(np.abs(zf.f.values - np.exp(-np.pi * grid.x**2))) < 1e-12

    def test_determinism(self, grid, db4):
        spec = ZooSpec("besov-random", s=0.6, q=1.0, seed=11)
        a = make(spec, grid, db4)
        b = make(spec, grid, db4)
        assert np.array_equal(a.f.values, b.f.values)

    def test_besov_random_single_scale_norm(self, grid, db4):
        spec = ZooSpec("besov-random", s=0.5, p=2.0, q=math.inf,
                       j_lo=3, j_hi=3, seed=9, amplitude=1.7)
        zf = make(spec, grid, db4)
        params = BesovParams(0.5, 2.0, math.inf, 1)
        assert besov_norm_wavelet(zf.coeffs, params) == pytest.approx(
            zf.meta["designed_norm"], rel=1e-14)
        assert zf.meta["designed_norm"] == pytest.approx(1.7)

    def test_besov_random_designed_norm_matches(self, grid, db4):
        spec = ZooSpec("besov-random", s=0.6, p=2.0, q=1.0, j_lo=0, j_hi=5,
                       seed=13)
        zf = make(spec, grid, db4)
        params = BesovParams(0.6, 2.0, 1.0, 1)
        assert besov_norm_wavelet(zf.coeffs, params) == pytest.approx(
            zf.meta["designed_norm"], rel=1e-8)

    def test_gap_spline_vanishes_on_sequence(self, grid, db4):
        b = 2.0**-5
        spec = ZooSpec("gap-spline", sequence_b=b, sequence_seed=3, seed=3)
        zf = make(spec, grid, db4)
        seq = random_sequence(b, (grid.x[0], grid.x[-1]), 3, strict=True)
        # exact spline zeros at the sample points (machine precision)
        from scipy.interpolate import CubicHermiteSpline
        rng = np.random.default_rng(3)
        slopes = rng.uniform(-1, 1, len(seq.points))
        spl = CubicHermiteSpline(seq.points, np.zeros(len(seq.points)), slopes)
        assert np.max(np.abs(spl(seq.points))) < 1e-12
        # the tabulated function is small at samples (grid interpolation
        # bounded by h^2 |f''|; exact zeros need lattice-snapped sequences)
        vals = zf.f.interpolate(seq.points)
        assert np.max(np.abs(vals)) < 1e-2 * np.max(np.abs(zf.f.values))

    def test_support_overflow_rejected(self, db4, grid):
        with pytest.raises(ValueError, match="support overflow"):
            make(ZooSpec("besov-random", s=0.5, j_lo=-4, j_hi=-4, seed=1),
                 grid, db4)

    def test_bandlimited_margin_and_band(self, grid):
        zf = make(ZooSpec("bandlimited-random", band=1.0, seed=6), grid)
        assert support_margin(zf.f) > 0.05 * grid.length
        from besovsampling.besov import pw_membership
        ok, rep = pw_membership(zf.f, 1.5, tol=1e-3)
        assert ok

    def test_tensor2d(self, small_grid2d):
        spec = ZooSpec("tensor2d", base=ZooSpec("gaussian", width=1.0),
                       base2=ZooSpec("gaussian", width=2.0))
        zf = make(spec, small_grid2d)
        gx, gy = small_grid2d.gx, small_grid2d.gy
        expected = np.outer(np.exp(-np.pi * gx.x**2),
                            np.exp(-np.pi * gy.x**2 / 4.0))
        assert np.max(np.abs(zf.f.values - expected)) < 1e-12

    def test_field_2d(self, small_grid2d):
        f = bandlimited_field_2d(small_grid2d, 1.0, 5)
        assert support_margin(f) > 0.0
        assert lp_norm(f, 2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        ZooSpec("bandlimited-random", band=1.0, seed=0),
        ZooSpec("bandlimited-random", band=2.0, seed=3),
        ZooSpec("bandlimited-random", band=4.0, seed=7),
        ZooSpec("bandlimited-random", band=1.0, seed=5, center=1.5,
                amplitude=2.5),
    ], ids=["seed0", "seed3", "seed7", "centre-amplitude"])
    def test_bandlimited_bit_identical_to_the_1d_branch(self, grid, small_grid,
                                                        spec):
        for g in (grid, small_grid):
            assert np.array_equal(make(spec, g).f.values,
                                  reference_bandlimited_1d(spec, g))

    def test_field_2d_bit_identical_to_its_own_body(self, small_grid2d):
        # unequal axes, spacings and origins, so a swapped axis shows
        uneven = Grid2D(Grid1D(-6.0, 2.0**-5, 512), Grid1D(-3.0, 2.0**-4, 128))
        for g, seed in ((small_grid2d, 5), (uneven, 9)):
            assert np.array_equal(bandlimited_field_2d(g, 1.0, seed).values,
                                  reference_field_2d(g, 1.0, seed))


def fresh_envelope(grid, flat, zero):
    """`window_envelope` as it was before it was cached."""
    mid = grid.origin + grid.length / 2.0
    half = grid.length / 2.0
    t = np.abs(grid.origin + grid.spacing * np.arange(grid.count) - mid) / half
    return smooth_ramp01((zero - t) / (zero - flat))


class TestWindowEnvelope:
    def test_cached_read_only_and_equal_to_a_fresh_build(self, grid, small_grid2d):
        for g in (grid, *small_grid2d.axes, Grid1D(-3.3, 0.125, 64)):
            for flat, zero in ((0.6, 0.85), (0.7, 0.9)):
                env = window_envelope(g, flat, zero)
                assert not env.flags.writeable
                with pytest.raises(ValueError):
                    env[0] = 1.0
                fresh = fresh_envelope(g, flat, zero)
                assert np.array_equal(env.view(np.uint64), fresh.view(np.uint64))
                # keyed by the axis values, not by the Grid1D object
                same_axis = Grid1D(g.origin, g.spacing, g.count)
                assert window_envelope(same_axis, flat, zero) is env

    def test_cache_stays_bounded(self):
        maxsize = _window_envelope.cache_info().maxsize
        for i in range(maxsize + 3):
            g = Grid1D(-1.0 - i, 2.0**-4, 64)
            assert np.array_equal(window_envelope(g), fresh_envelope(g, 0.6, 0.85))
        assert _window_envelope.cache_info().currsize <= maxsize


class TestTransforms:
    def test_dilate_identity(self, grid):
        zf = make(ZooSpec("gaussian", width=1.0), grid)
        assert dilate(zf, 0) is zf

    def test_dilate_then_inverse(self, grid, db4):
        zf = make(ZooSpec("besov-random", s=0.5, j_lo=1, j_hi=4, seed=8),
                  grid, db4)
        back = dilate(dilate(zf, 2), -2, grid)
        assert np.max(np.abs(back.f.values - zf.f.values)) < 1e-12

    def test_dilate_gaussian_l2_scaling(self, grid):
        zf = make(ZooSpec("gaussian", width=1.0), grid)
        d = dilate(zf, 1)
        assert lp_norm(d.f, 2.0) == pytest.approx(
            2.0**-0.5 * lp_norm(zf.f, 2.0), rel=1e-10)

    def test_translate_exact_and_rejection(self, grid):
        zf = make(ZooSpec("compact-bump", width=1.0), grid)
        t = translate(zf, 2.0)
        k = int(round(2.0 / grid.spacing))
        assert np.array_equal(t.f.values[k:], zf.f.values[:-k])
        with pytest.raises(ValueError, match="off-grid"):
            translate(zf, grid.spacing * 0.5)
        t2 = translate(zf, grid.spacing * 0.5, resample=True)
        assert lp_norm(t2.f, 2.0) > 0


class TestCalibrationZoo:
    def test_size_and_determinism(self, grid, db4):
        zoo1 = calibration_zoo(grid)
        zoo2 = calibration_zoo(grid)
        assert len(zoo1) == 20
        for a, b in zip(zoo1, zoo2):
            assert np.array_equal(a.f.values, b.f.values)

    def test_all_members_have_margin(self, grid, db4):
        for zf in calibration_zoo(grid):
            assert support_margin(zf.f) > 0.0, zf.spec.kind

    def test_norm_ratio_coverage(self, grid, db4):
        # the zoo spans >= 3 decades of N = ||f||_Besov / ||f||_p
        # (measured at s=1, p=2, where the grid's scale span allows it)
        from besovsampling.besov import BesovParams, besov_norm_via_analyze
        params = BesovParams(1.0, 2.0, 1.0, 1)
        ns = []
        for zf in calibration_zoo(grid):
            norm, _ = besov_norm_via_analyze(zf.f, params, db4)
            ns.append(norm / lp_norm(zf.f, 2.0))
        assert max(ns) / min(ns) >= 1e3
