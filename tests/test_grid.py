import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besovsampling.grid import (
    Grid1D,
    Grid2D,
    GridFunction,
    SpectrumFunction,
    _axis_phase,
    _origin_phase,
    fourier,
    from_json_dict,
    inverse_fourier,
    load_csv,
    lowpass_profile,
    lp_norm,
    save_csv,
    smooth_lowpass,
    smooth_ramp01,
    to_json_dict,
    weighted_lp_norm,
)


def gaussian(grid, width=1.0, center=0.0):
    return GridFunction(grid, np.exp(-np.pi * (grid.x - center) ** 2 / width**2))


def random_function(grid, seed=0):
    return GridFunction(grid, np.random.default_rng(seed).standard_normal(grid.shape))


@pytest.fixture(scope="module")
def odd_grid2d():
    """Non-square 2D grid, a different spacing per axis, origins off the dyadic lattice."""
    return Grid2D(Grid1D(-3.3, 0.125, 64), Grid1D(-5.1, 0.0625, 128))


def outer_weight_lp_norm(f, p, weight=None):
    """Reference L^p norm: the trapezoid weights as one full-grid outer product."""
    per_axis = []
    for g in f.grid.axes:
        w = np.full(g.count, g.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        per_axis.append(w)
    w = reduce(np.multiply.outer, per_axis)
    v = np.abs(f.values) if weight is None else weight * np.abs(f.values)
    return float(np.sum(w * v ** p) ** (1.0 / p))


def full_spectrum_lowpass(f, inner, outer):
    """Reference low-pass: `fourier`, the full-grid multiplier, `inverse_fourier`."""
    F = fourier(f)
    mult = reduce(np.multiply.outer, [lowpass_profile(np.abs(fz), inner, outer)
                                      for fz in F.freqs])
    return inverse_fourier(SpectrumFunction(F.grid, F.freqs, F.values * mult)).values


class TestLpNorm:
    def test_zero(self, grid):
        assert lp_norm(GridFunction(grid, np.zeros(grid.count)), 2.0) == 0.0

    def test_indicator_unit_interval(self, grid):
        vals = ((grid.x >= 0.0) & (grid.x < 1.0)).astype(float)
        n = lp_norm(GridFunction(grid, vals), 2.0)
        assert abs(n - 1.0) < grid.spacing

    def test_gaussian_closed_form(self, grid):
        # ||exp(-pi x^2)||_2 = (integral exp(-2 pi x^2))^(1/2) = 2^(-1/4)
        n = lp_norm(gaussian(grid), 2.0)
        assert abs(n - 2.0 ** (-0.25)) < 1e-6

    def test_quadrature_consistency_under_refinement(self):
        g1 = Grid1D(-16.0, 2.0**-10, 32768)
        g2 = Grid1D(-16.0, 2.0**-11, 65536)
        n1 = lp_norm(gaussian(g1), 3.0)
        n2 = lp_norm(gaussian(g2), 3.0)
        assert abs(n1 - n2) / n2 < 1e-6

    def test_rejects_bad_p(self, small_grid):
        f = gaussian(small_grid)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)
        with pytest.raises(ValueError):
            lp_norm(f, np.inf)

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(min_value=1.0, max_value=4.0))
    def test_1d_equals_outer_weight_formula(self, small_grid, p):
        f = random_function(small_grid, seed=3)
        weight = np.abs(small_grid.x) ** 0.5
        assert lp_norm(f, p) == outer_weight_lp_norm(f, p)
        assert weighted_lp_norm(f, weight, p) == outer_weight_lp_norm(f, p, weight)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.7])
    def test_2d_matches_outer_weight_formula(self, odd_grid2d, p):
        f = random_function(odd_grid2d, seed=4)
        weight = np.add.outer(*(np.abs(g.x) for g in odd_grid2d.axes))
        assert lp_norm(f, p) == pytest.approx(outer_weight_lp_norm(f, p), rel=1e-15)
        assert weighted_lp_norm(f, weight, p) == pytest.approx(
            outer_weight_lp_norm(f, p, weight), rel=1e-15)

    def test_rejects_nonfinite(self, small_grid):
        vals = np.zeros(small_grid.count)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GridFunction(small_grid, vals)


class TestWeightedNorm:
    def test_unit_weight_matches(self, grid):
        f = gaussian(grid)
        assert weighted_lp_norm(f, lambda x: np.ones_like(x), 2.0) == pytest.approx(
            lp_norm(f, 2.0), rel=1e-14)

    def test_zero_function(self, grid):
        f = GridFunction(grid, np.zeros(grid.count))
        assert weighted_lp_norm(f, np.abs, 2.0) == 0.0

    def test_gaussian_second_moment(self, grid):
        # || |x| exp(-pi x^2) ||_2 against independent quadrature
        f = gaussian(grid)
        expected = np.sqrt(quad(lambda x: x**2 * np.exp(-2 * np.pi * x**2),
                                -np.inf, np.inf)[0])
        got = weighted_lp_norm(f, np.abs, 2.0)
        assert abs(got - expected) < 1e-6

    def test_rejects_negative_weight(self, small_grid):
        f = gaussian(small_grid)
        with pytest.raises(ValueError):
            weighted_lp_norm(f, lambda x: -np.ones_like(x), 2.0)


class TestFourier:
    def test_round_trip(self, grid):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid.count)
        f = GridFunction(grid, vals)
        back = inverse_fourier(fourier(f))
        assert np.max(np.abs(back.values - vals)) < 1e-10

    def test_gaussian_self_dual(self, grid):
        F = fourier(gaussian(grid))
        (fz,) = F.freqs
        sel = np.abs(fz) <= 4.0
        expected = np.exp(-np.pi * fz[sel] ** 2)
        assert np.max(np.abs(F.values[sel] - expected)) < 1e-6

    def test_conjugate_symmetry(self, grid):
        rng = np.random.default_rng(1)
        f = GridFunction(grid, rng.standard_normal(grid.count))
        F = fourier(f)
        # bins at +z and -z are mirror indices in fft order
        v = F.values
        mirrored = np.conj(np.concatenate([[v[0]], v[:0:-1]]))
        assert np.max(np.abs(v - mirrored)) < 1e-12 * np.max(np.abs(v))

    def test_plancherel(self, grid):
        rng = np.random.default_rng(2)
        f = GridFunction(grid, rng.standard_normal(grid.count))
        F = fourier(f)
        lhs = grid.spacing * np.sum(f.values**2)
        rhs = float(F.energy().sum())
        assert abs(lhs - rhs) / rhs < 1e-10

    def test_rejects_non_power_of_two(self):
        g = Grid1D(-1.0, 0.01, 300)
        with pytest.raises(ValueError, match="power of two"):
            fourier(GridFunction(g, np.zeros(300)))

    def test_2d_round_trip(self, small_grid2d):
        rng = np.random.default_rng(3)
        f = GridFunction(small_grid2d, rng.standard_normal(small_grid2d.shape))
        back = inverse_fourier(fourier(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-10


class TestOriginPhaseCache:
    """The per-axis origin phases are cached read-only and stay bounded."""

    def test_writes_into_a_spectrum_do_not_reach_later_transforms(self, small_grid):
        f = gaussian(small_grid, center=0.3)
        F_ref = fourier(f).values.copy()
        back_ref = inverse_fourier(fourier(f)).values.copy()
        F = fourier(f)
        F.values *= 3.0
        F.values[:5] = 7.0
        inverse_fourier(F)
        assert np.array_equal(fourier(f).values, F_ref)
        assert np.array_equal(inverse_fourier(fourier(f)).values, back_ref)

    def test_cached_factors_are_read_only(self, small_grid):
        fourier(gaussian(small_grid))
        g = small_grid
        phase = _axis_phase(g.origin, g.spacing, g.count, -1)
        assert not phase.flags.writeable
        with pytest.raises(ValueError):
            phase[0] = 0.0
        assert not _origin_phase(g, 1).flags.writeable

    def test_phase_is_the_product_of_axis_exponentials(self, small_grid2d):
        for sign in (-1, 1):
            direct = [np.exp(sign * 2j * np.pi
                             * (np.fft.fftfreq(g.count, g.spacing) * g.origin))
                      for g in small_grid2d.axes]
            assert np.array_equal(_origin_phase(small_grid2d, sign),
                                  np.multiply.outer(*direct))
            assert np.array_equal(_origin_phase(small_grid2d.gx, sign), direct[0])

    def test_cache_size_stays_bounded(self):
        maxsize = _axis_phase.cache_info().maxsize
        for i in range(maxsize + 3):
            g = Grid1D(-1.0 - i, 2.0**-4, 64)
            inverse_fourier(fourier(GridFunction(g, np.ones(64))))
        assert _axis_phase.cache_info().currsize <= maxsize


class TestSmoothLowpass:
    def test_passband_identity(self, grid):
        # width-3 gaussian: spectrum concentrated well below inner = 2
        f = gaussian(grid, width=3.0)
        out = smooth_lowpass(f, 2.0, 4.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-9

    def test_projection_on_passband(self, grid):
        f = smooth_lowpass(gaussian(grid, width=0.5), 1.0, 2.0)
        twice = smooth_lowpass(smooth_lowpass(f, 4.0, 8.0), 4.0, 8.0)
        once = smooth_lowpass(f, 4.0, 8.0)
        assert np.max(np.abs(twice.values - once.values)) < 1e-9

    def test_stopband_kill(self, grid):
        f = GridFunction(grid, np.cos(2 * np.pi * 64.0 * grid.x))
        out = smooth_lowpass(f, 1.0, 2.0)
        assert np.max(np.abs(out.values)) < 1e-9

    def test_transition_band_scaling(self, grid):
        # bin-aligned cosine inside the transition band scales by the profile
        xi = 3.0
        f = GridFunction(grid, np.cos(2 * np.pi * xi * grid.x))
        out = smooth_lowpass(f, 2.0, 4.0)
        expected = float(lowpass_profile(np.array([xi]), 2.0, 4.0)[0])
        assert np.max(np.abs(out.values - expected * f.values)) < 1e-9

    def test_rejects_bad_band(self, small_grid):
        f = gaussian(small_grid)
        with pytest.raises(ValueError):
            smooth_lowpass(f, 4.0, 2.0)

    def test_1d_equals_full_spectrum_route(self, small_grid, grid):
        for g in (small_grid, grid):
            f = random_function(g, seed=5)
            assert np.array_equal(smooth_lowpass(f, 2.0, 4.0).values,
                                  full_spectrum_lowpass(f, 2.0, 4.0))

    @pytest.mark.parametrize("inner, outer", [(1.5, 3.0), (0.3, 3.99)])
    def test_2d_matches_full_spectrum_route(self, odd_grid2d, inner, outer):
        f = random_function(odd_grid2d, seed=6)
        got = smooth_lowpass(f, inner, outer).values
        ref = full_spectrum_lowpass(f, inner, outer)
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))

    # bin-aligned frequencies (multiples of 1/8 on both axes); the nonzero ones lie in (1.5, 3)
    @pytest.mark.parametrize("xi, eta", [(2.25, 0.0), (0.0, 2.625), (2.25, 2.625)])
    def test_2d_transition_band_scaling(self, odd_grid2d, xi, eta):
        gx, gy = odd_grid2d.axes
        vals = np.multiply.outer(np.cos(2 * np.pi * xi * gx.x), np.cos(2 * np.pi * eta * gy.x))
        out = smooth_lowpass(GridFunction(odd_grid2d, vals), 1.5, 3.0)
        expected = float(lowpass_profile(xi, 1.5, 3.0) * lowpass_profile(eta, 1.5, 3.0))
        assert np.max(np.abs(out.values - expected * vals)) < 1e-12

    def test_2d_rejects_nyquist_and_non_power_of_two(self, odd_grid2d):
        # the coarser axis 0 sets the Nyquist limit: 1 / (2 * 0.125) = 4
        with pytest.raises(ValueError, match="Nyquist"):
            smooth_lowpass(random_function(odd_grid2d), 1.0, 4.5)
        grid = Grid2D(Grid1D(-3.3, 0.125, 48), Grid1D(-5.1, 0.0625, 128))
        with pytest.raises(ValueError, match="power of two"):
            smooth_lowpass(random_function(grid), 1.0, 2.0)

    def test_ramp_profile_shape(self):
        t = np.linspace(-1, 2, 301)
        r = smooth_ramp01(t)
        assert np.all(r[t <= 0] == 0.0)
        assert np.all(r[t >= 1] == 1.0)
        assert np.all(np.diff(r) >= -1e-15)


class TestSerialization:
    def test_csv_round_trip_1d(self, small_grid, tmp_path):
        f = gaussian(small_grid)
        path = tmp_path / "f.csv"
        save_csv(f, path)
        back = load_csv(path)
        assert back.grid.count == small_grid.count
        assert np.max(np.abs(back.values - f.values)) == 0.0

    def test_csv_round_trip_2d(self, tmp_path):
        g = Grid1D(0.0, 0.25, 8)
        grid2 = Grid2D(g, Grid1D(-1.0, 0.5, 4))
        vals = np.arange(32, dtype=float).reshape(8, 4) / 7.0
        f = GridFunction(grid2, vals)
        path = tmp_path / "f2.csv"
        save_csv(f, path)
        back = load_csv(path)
        assert np.max(np.abs(back.values - vals)) == 0.0

    def test_json_round_trip(self, small_grid):
        f = gaussian(small_grid)
        d = json.loads(json.dumps(to_json_dict(f)))
        back = from_json_dict(d)
        assert np.max(np.abs(back.values - f.values)) == 0.0

    def test_support_margin(self, small_grid):
        f = gaussian(small_grid, width=0.5)
        assert f.support_margin > 0.2 * small_grid.length
        flat = GridFunction(small_grid, np.ones(small_grid.count))
        assert flat.support_margin == 0.0
