import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad

from besovsampling.geometry import SamplingGeometry2D, cell_measures
from besovsampling.grid import (
    _POINT_BLOCK,
    _ROW_BLOCK,
    Grid1D,
    Grid2D,
    GridFunction,
    SpectrumFunction,
    _axis_freqs,
    _axis_phase,
    _axis_points,
    _axis_profile,
    _half_spectrum,
    _next_fast_len,
    _origin_phase,
    _trapezoid_weights,
    default_grid_1d,
    fourier,
    inverse_fourier,
    load_csv,
    lowpass_profile,
    lp_norm,
    save_csv,
    smooth_lowpass,
    smooth_ramp01,
    weighted_lp_norm,
)
from besovsampling.reconstruct import LowpassMultiplier


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


def one_pass_lp_norm(f, p, weight=None):
    """`lp_norm` / `weighted_lp_norm` before they ran in blocks of rows: the
    integrand as one array, each axis's weights multiplied in place, then
    one `np.sum`."""
    a = (np.abs(f.values) if weight is None else weight * np.abs(f.values)) ** p
    for axis, g in enumerate(f.grid.axes):
        w = np.full(g.count, g.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        a *= w.reshape([-1 if b == axis else 1 for b in range(a.ndim)])
    return float(np.sum(a) ** (1.0 / p))


def mask_hull(f):
    """`significant_support` before it ran in blocks of rows: one full mask."""
    v = np.abs(f.values)
    axes = f.grid.axes
    if v.max() == 0.0:
        return tuple((g.x[0], g.x[0]) for g in axes)
    mask = v > 1e-12 * v.max()
    hulls = []
    for axis, g in enumerate(axes):
        others = tuple(a for a in range(len(axes)) if a != axis)
        idx = np.nonzero(mask.any(axis=others))[0]
        hulls.append((g.x[idx[0]], g.x[idx[-1]]))
    return tuple(hulls)


# 2D grids whose row count is not a multiple of the row block
TAIL_GRIDS = {
    "one-row-tail": Grid2D(Grid1D(-4.1, 0.0625, 2 * _ROW_BLOCK + 1), Grid1D(-3.0, 0.125, 48)),
    "long-tail": Grid2D(Grid1D(-6.0, 2.0**-5, 3 * _ROW_BLOCK + 37), Grid1D(-3.0, 2.0**-4, 128)),
}


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_1d_bit_identical_to_the_one_pass_sum(self, small_grid, grid, p):
        for g in (small_grid, grid):
            f = random_function(g, seed=5)
            weight = np.abs(g.x) ** (1.0 / p)
            assert np.array_equal(lp_norm(f, p), one_pass_lp_norm(f, p))
            assert np.array_equal(weighted_lp_norm(f, weight, p),
                                  one_pass_lp_norm(f, p, weight))

    @pytest.mark.parametrize("name", TAIL_GRIDS)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_2d_blocks_agree_with_the_one_pass_sum(self, name, p):
        # the same positive terms summed in another order: each pairwise sum
        # of N positive terms is within about log2(N) rounding errors
        grid = TAIL_GRIDS[name]
        f = random_function(grid, seed=6)
        weight = np.add.outer(*(np.abs(g.x) for g in grid.axes))
        rel = 4 * math.log2(f.values.size) * np.finfo(float).eps
        assert lp_norm(f, p) == pytest.approx(one_pass_lp_norm(f, p), rel=rel, abs=0)
        assert weighted_lp_norm(f, weight, p) == pytest.approx(
            one_pass_lp_norm(f, p, weight), rel=rel, abs=0)

    def test_rejects_nonfinite(self, small_grid, small_grid2d):
        # a lone NaN, +inf or -inf anywhere in a 1D or 2D array
        for bad in (np.nan, np.inf, -np.inf):
            for g in (small_grid, small_grid2d):
                size = math.prod(g.shape)
                for i in (0, 3, size // 2, size - 1):
                    vals = np.random.default_rng(i).standard_normal(size)
                    vals[i] = bad
                    with pytest.raises(ValueError, match="has 1 non-finite"):
                        GridFunction(g, vals.reshape(g.shape))


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
        rhs = float(np.sum(np.abs(F.values) ** 2)) / (grid.count * grid.spacing)
        assert abs(lhs - rhs) / rhs < 1e-10

    def test_half_spectrum_energy_is_the_full_spectrum_energy(self, small_grid, odd_grid2d):
        # each half-spectrum bin carries its mirror's |F|^2 dz too, except
        # DC and Nyquist on the last axis, so the sums over |z| agree
        for g in (small_grid, odd_grid2d):
            f = random_function(g, seed=9)
            F = fourier(f)
            full = np.abs(F.values) ** 2 / math.prod(a.count * a.spacing for a in g.axes)
            _, freqs, energy = _half_spectrum(f)
            assert energy.shape == (*g.shape[:-1], g.shape[-1] // 2 + 1)
            assert all(same_bits(fz, fresh) for fz, fresh in zip(freqs[:-1], F.freqs))
            for band in ((0.0, 0.0), (0.0, 1.0), (1.0, 2.5), (2.5, np.inf)):
                sums = [float(e[(r >= band[0]) & (r <= band[1])].sum())
                        for e, r in ((energy, radii(freqs)), (full, radii(F.freqs)))]
                assert sums[0] == pytest.approx(sums[1], rel=1e-12, abs=1e-300)
            volume = math.prod(a.spacing for a in g.axes)
            assert float(energy.sum()) == pytest.approx(volume * np.sum(f.values**2),
                                                        rel=1e-12)

    def test_rejects_non_power_of_two(self):
        g = Grid1D(-1.0, 0.01, 300)
        with pytest.raises(ValueError, match="power of two"):
            fourier(GridFunction(g, np.zeros(300)))

    def test_2d_round_trip(self, small_grid2d):
        rng = np.random.default_rng(3)
        f = GridFunction(small_grid2d, rng.standard_normal(small_grid2d.shape))
        back = inverse_fourier(fourier(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-10


def radii(freqs):
    """|z| at every bin of the frequency grid that `freqs` spans."""
    return np.sqrt(reduce(np.add.outer, [fz**2 for fz in freqs]))


def fftn_fourier(f):
    """`fourier`'s values through `np.fft.fftn` on its real input, without
    the in-place complex cast."""
    volume = math.prod(g.spacing for g in f.grid.axes)
    return volume * _origin_phase(f.grid, -1) * np.fft.fftn(f.values)


def ifftn_inverse_fourier(F):
    """`inverse_fourier`'s values through an allocating `np.fft.ifftn`."""
    volume = math.prod(g.spacing for g in F.grid.axes)
    return np.real(np.fft.ifftn(_origin_phase(F.grid, 1) * F.values / volume))


def same_bits(a, b):
    """Equal shapes and equal bits, the sign of a zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFourierBitForBit:
    """`fourier` and `inverse_fourier` equal the `fftn`/`ifftn` routes in
    every bit and leave their input alone."""

    @pytest.mark.parametrize("name", ["default-1d", "uneven-2d"])
    def test_equal_to_the_fftn_routes(self, name):
        grid = default_grid_1d() if name == "default-1d" else UNEVEN_GRIDS["uneven"]
        f = random_function(grid, seed=21)
        values = f.values.copy()
        F = fourier(f)
        assert same_bits(F.values, fftn_fourier(f))
        assert same_bits(f.values, values)
        spec = F.values.copy()
        assert same_bits(inverse_fourier(F).values, ifftn_inverse_fourier(F))
        assert same_bits(F.values, spec)
        # a spectrum that is not Hermitian: the dropped imaginary part is not 0
        rng = np.random.default_rng(22)
        G = SpectrumFunction(grid, F.freqs, rng.standard_normal(grid.shape)
                             + 1j * rng.standard_normal(grid.shape))
        assert same_bits(inverse_fourier(G).values, ifftn_inverse_fourier(G))


def test_next_fast_len_is_scipys_real_padded_length():
    # every target up to 2^17, which holds the padded lengths of the 1D FFT
    # route on the default grid, and targets just above 2^20 and 3 * 2^18
    targets = [*range(1, 2**17 + 1), 2**20 + 1, 2**20 + 7, 3 * 2**18 + 1]
    assert [_next_fast_len(t) for t in targets] == [
        next_fast_len(t, real=True) for t in targets]


class TestAxisCaches:
    """Grid points and fft bins come read-only from caches keyed by the axis
    values, and equal freshly computed arrays."""

    def test_read_only_and_equal_to_fresh_arrays(self, small_grid2d):
        grids = (default_grid_1d(), Grid1D(-3.3, 0.125, 64), *small_grid2d.axes)
        for g in grids:
            fourier(GridFunction(g, np.ones(g.count)))
            for cached, fresh in ((g.x, g.origin + g.spacing * np.arange(g.count)),
                                  (_axis_freqs(g.count, g.spacing),
                                   np.fft.fftfreq(g.count, g.spacing))):
                assert same_bits(cached, fresh)
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0] = 1.0
        F = fourier(random_function(small_grid2d))
        assert all(fz is _axis_freqs(g.count, g.spacing)
                   for fz, g in zip(F.freqs, small_grid2d.axes))

    def test_trapezoid_weights(self, small_grid2d):
        # one read-only table per axis, shared by every norm on that axis
        for g in (default_grid_1d(), *small_grid2d.axes):
            lp_norm(GridFunction(g, np.ones(g.count)), 2.0)
            w = _trapezoid_weights(g.count, g.spacing)
            fresh = np.full(g.count, g.spacing)
            fresh[[0, -1]] *= 0.5
            assert same_bits(w, fresh) and not w.flags.writeable
            assert w is _trapezoid_weights(g.count, g.spacing)
        hits = _trapezoid_weights.cache_info().hits
        lp_norm(random_function(small_grid2d), 1.5)
        assert _trapezoid_weights.cache_info().hits == hits + 2

    def test_points_follow_a_changed_axis(self):
        g = Grid1D(-1.0, 0.25, 8)
        before = g.x
        g.origin, g.count = 2.0, 16
        assert same_bits(g.x, 2.0 + 0.25 * np.arange(16))
        assert same_bits(before, -1.0 + 0.25 * np.arange(8))

    def test_caches_stay_bounded(self):
        for cache in (_axis_points, _axis_freqs):
            maxsize = cache.cache_info().maxsize
            for i in range(maxsize + 3):
                g = Grid1D(-1.0 - i, 2.0**-4 / (i + 1), 64)
                assert g.x[-1] == g.origin + g.spacing * 63
                fourier(GridFunction(g, np.ones(64)))
            assert cache.cache_info().currsize <= maxsize


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


class TestLowpassProfileCache:
    """Each axis's low-pass profile is cached read-only per band."""

    def test_cached_profiles_are_read_only(self, small_grid, small_grid2d):
        smooth_lowpass(gaussian(small_grid), 2.0, 4.0)
        smooth_lowpass(random_function(small_grid2d), 2.0, 4.0)
        for g in (small_grid, *small_grid2d.axes):
            for half in (False, True):
                profile = _axis_profile(g.count, g.spacing, 2.0, 4.0, half)
                assert not profile.flags.writeable
                with pytest.raises(ValueError):
                    profile[0] = 0.0

    def test_more_bands_than_the_cache_holds(self, small_grid, odd_grid2d):
        # every band twice, so the second round reads profiles built again
        # after their eviction
        maxsize = _axis_profile.cache_info().maxsize
        bands = [(0.5 + 0.05 * i, 2.0 + 0.05 * i) for i in range(maxsize + 3)]
        f1, f2 = random_function(small_grid, seed=7), random_function(odd_grid2d, seed=8)
        for inner, outer in bands + bands:
            for f in (f1, f2):
                got = smooth_lowpass(f, inner, outer).values
                assert np.array_equal(got, rfftn_lowpass(f, inner, outer))
                ref = full_spectrum_lowpass(f, inner, outer)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            for g in (small_grid, *odd_grid2d.axes):
                for half, bins in ((False, np.fft.fftfreq), (True, np.fft.rfftfreq)):
                    fresh = lowpass_profile(np.abs(bins(g.count, g.spacing)), inner, outer)
                    assert np.array_equal(_axis_profile(g.count, g.spacing, inner, outer,
                                                        half), fresh)
        assert _axis_profile.cache_info().currsize <= maxsize


def rfftn_lowpass(f, inner, outer):
    """`smooth_lowpass`'s body before it kept only the columns the last-axis
    profile keeps: `rfftn`, one profile per axis, `irfftn`."""
    axes = f.grid.axes
    spec = np.fft.rfftn(f.values)
    last = len(axes) - 1
    for axis, g in enumerate(axes):
        fz = (np.fft.rfftfreq if axis == last else np.fft.fftfreq)(g.count, g.spacing)
        shape = [-1 if a == axis else 1 for a in range(spec.ndim)]
        spec *= lowpass_profile(np.abs(fz), inner, outer).reshape(shape)
    return np.fft.irfftn(spec, s=f.grid.shape, axes=list(range(len(axes))))


def fancy_index_bilinear(f, points):
    """`GridFunction.interpolate`'s 2D formula before it gathered from the
    flat values: four 2D fancy-index reads in one expression."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cells = []
    for axis, g in enumerate(f.grid.axes):
        t = (pts[:, axis] - g.origin) / g.spacing
        i = np.clip(np.floor(t).astype(int), 0, g.count - 2)
        cells.append((i, np.clip(t - i, 0.0, 1.0)))
    (i0, tx), (j0, ty) = cells
    v = f.values
    return (
        v[i0, j0] * (1 - tx) * (1 - ty)
        + v[i0 + 1, j0] * tx * (1 - ty)
        + v[i0, j0 + 1] * (1 - tx) * ty
        + v[i0 + 1, j0 + 1] * tx * ty
    )


def one_pass_bilinear(f, points):
    """`GridFunction.interpolate`'s 2D formula before it ran in blocks of
    points: four flat gathers over all points, accumulated in place."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cells = []
    for axis, g in enumerate(f.grid.axes):
        t = (pts[:, axis] - g.origin) / g.spacing
        i = np.clip(np.floor(t).astype(int), 0, g.count - 2)
        cells.append((i, np.clip(t - i, 0.0, 1.0)))
    (i0, tx), (j0, ty) = cells
    sx, sy = 1 - tx, 1 - ty
    n1 = f.grid.shape[1]
    flat = f.values.reshape(-1)
    k = i0 * n1 + j0
    out = flat.take(k)
    out *= sx
    out *= sy
    for off, wx, wy in ((n1, tx, sy), (1, sx, ty), (n1 + 1, tx, ty)):
        term = flat.take(k + off)
        term *= wx
        term *= wy
        out += term
    return out


def traced_peak(call):
    """Bytes that `call()` holds at its peak above what it starts with,
    as `tracemalloc` sees them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, result


# unequal axes, spacings and origins; in the second the last axis is the coarser
UNEVEN_GRIDS = {
    "odd": Grid2D(Grid1D(-3.3, 0.125, 64), Grid1D(-5.1, 0.0625, 128)),
    "uneven": Grid2D(Grid1D(-6.0, 2.0**-5, 512), Grid1D(-3.0, 2.0**-4, 128)),
}


class TestInterpolate:
    @pytest.mark.parametrize("name", UNEVEN_GRIDS)
    def test_2d_bit_identical_to_the_fancy_index_formula(self, name):
        grid = UNEVEN_GRIDS[name]
        f = random_function(grid, seed=11)
        (x0, x1), (y0, y1) = ((g.x[0], g.x[-1]) for g in grid.axes)
        rng = np.random.default_rng(12)
        interior = np.column_stack([rng.uniform(x0, x1, 5000),
                                    rng.uniform(y0, y1, 5000)])
        ys = np.linspace(y0, y1, 37)
        xs = np.linspace(x0, x1, 29)
        edges = np.vstack([
            [[x0, y0], [x0, y1], [x1, y0], [x1, y1]],   # the four corners
            np.column_stack([np.full(37, x1), ys]),      # the last row
            np.column_stack([xs, np.full(29, y1)]),      # the last column
            [[x1 + 1e-12, y1 + 1e-12], [x0 - 1e-12, y0]],  # just outside, tolerated
        ])
        pts = np.vstack([interior, edges])
        assert np.array_equal(f.interpolate(pts), fancy_index_bilinear(f, pts))
        # a grid node gives its value back
        assert f.interpolate([[x1, y1]])[0] == f.values[-1, -1]

    @pytest.mark.parametrize("n", [0, 1, _POINT_BLOCK, 3 * _POINT_BLOCK + 1,
                                   2 * _POINT_BLOCK + 977],
                             ids=["empty", "one", "one-block", "one-point-tail",
                                  "long-tail"])
    def test_2d_blocks_bit_identical_to_the_one_pass_formula(self, n):
        grid = UNEVEN_GRIDS["uneven"]
        f = random_function(grid, seed=13)
        rng = np.random.default_rng(n)
        pts = np.column_stack([rng.uniform(g.x[0], g.x[-1], n) for g in grid.axes])
        got = f.interpolate(pts)
        assert got.shape == (n,)
        assert np.array_equal(got, one_pass_bilinear(f, pts))

    def test_1d_is_the_one_axis_case(self, small_grid):
        # the linear sum v0 (1-t) + v1 t, within rounding of `np.interp`
        # (which forms v0 + t (v1 - v0)), one flat value per point
        f = random_function(small_grid, seed=4)
        x = small_grid.x
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(x[0], x[-1], 2 * _POINT_BLOCK + 3),
                              [x[0], x[-1], x[-1] + 1e-12, x[0] - 1e-12]])
        got = f.interpolate(pts)
        assert got.shape == pts.shape
        np.testing.assert_allclose(got, np.interp(pts, x, f.values), rtol=0,
                                   atol=4 * np.finfo(float).eps * np.max(np.abs(f.values)))
        assert np.array_equal(f.interpolate(x), f.values)
        assert f.interpolate(pts.reshape(-1, 3)).shape == pts.shape

    def test_1d_and_2d_share_the_off_grid_rule(self, small_grid, odd_grid2d):
        # up to 1e-9 spacings past an end is on the grid, more is off it
        f1 = random_function(small_grid)
        f2 = random_function(odd_grid2d)
        gx, gy = odd_grid2d.axes
        for g, call in ((small_grid, lambda c: f1.interpolate([c])),
                        (gx, lambda c: f2.interpolate([[c, gy.x[0]]]))):
            assert call(g.x[-1] + 0.5e-9 * g.spacing).shape == (1,)
            assert call(g.x[0] - 0.5e-9 * g.spacing).shape == (1,)
            for c in (g.x[-1] + 2e-9 * g.spacing, g.x[0] - 2e-9 * g.spacing):
                with pytest.raises(ValueError, match=r"outside grid domain \(x\)"):
                    call(c)

    def test_2d_points_need_two_coordinates(self, odd_grid2d):
        f = random_function(odd_grid2d)
        for bad in (np.zeros((4, 3)), np.zeros(4), 0.0):
            with pytest.raises(ValueError, match=r"shape \(\.\.\., 2\)"):
                f.interpolate(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, odd_grid2d, small_grid, bad):
        f2 = random_function(odd_grid2d)
        with pytest.raises(ValueError, match="not finite"):
            f2.interpolate([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="not finite"):
            f2.interpolate([[0.0, bad]])
        with pytest.raises(ValueError, match="not finite"):
            random_function(small_grid).interpolate([0.0, bad])

    def test_outside_points_rejected(self, odd_grid2d, small_grid):
        f2 = random_function(odd_grid2d)
        with pytest.raises(ValueError, match=r"outside grid domain \(y\)"):
            f2.interpolate([[0.0, 100.0]])
        with pytest.raises(ValueError, match="outside grid domain"):
            random_function(small_grid).interpolate([small_grid.x[-1] + 1e-6])

    def test_no_points_give_no_values(self, odd_grid2d, small_grid):
        got = random_function(small_grid).interpolate(np.array([]))
        assert got.shape == (0,)
        got = random_function(odd_grid2d).interpolate(np.empty((0, 2)))
        assert got.shape == (0,)


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
        # bit for bit the rfft route; the full-spectrum route to rounding
        for g in (small_grid, grid):
            f = random_function(g, seed=5)
            got = smooth_lowpass(f, 2.0, 4.0).values
            assert np.array_equal(got, rfftn_lowpass(f, 2.0, 4.0))
            ref = full_spectrum_lowpass(f, 2.0, 4.0)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    # P's bands as (a, c, b): inner a/b and outer c/b
    P_BANDS = [(0.125, 0.25, 2.0**-4), (0.3, 0.499, 2.0**-3)]

    @pytest.mark.parametrize("a, c, b", P_BANDS)
    def test_1d_projector_is_the_half_spectrum_route(self, small_grid, grid, a, c, b):
        # test-side reference: rfft, the leading `keep` profile bins, irfft
        for g in (small_grid, grid):
            f = random_function(g, seed=5)
            profile = lowpass_profile(np.abs(np.fft.rfftfreq(g.count, g.spacing)),
                                      a / b, c / b)
            keep = int(np.flatnonzero(profile)[-1]) + 1
            ref = np.fft.irfft(np.fft.rfft(f.values)[:keep] * profile[:keep], n=g.count)
            assert np.array_equal(LowpassMultiplier(a, c, b).apply(f).values, ref)

    @pytest.mark.parametrize("a, c, b", P_BANDS)
    def test_1d_projector_matches_full_spectrum_route(self, small_grid, grid, a, c, b):
        for g in (small_grid, grid):
            f = random_function(g, seed=6)
            got = LowpassMultiplier(a, c, b).apply(f).values
            ref = full_spectrum_lowpass(f, a / b, c / b)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_projector_checks_its_band(self, small_grid, odd_grid2d):
        # c/b = 0.625 / 2^-6 = 40, above both grids' Nyquist frequencies (32 and 4)
        for g in (small_grid, odd_grid2d):
            with pytest.raises(ValueError, match="Nyquist"):
                LowpassMultiplier(0.25, 0.625, 2.0**-6).apply(random_function(g))
        with pytest.raises(ValueError, match="0 < inner < outer"):
            LowpassMultiplier(0.25, 0.5, -1.0).apply(random_function(small_grid))

    def test_2d_projector_is_smooth_lowpass(self, odd_grid2d):
        f = random_function(odd_grid2d, seed=7)
        for a, c, b in self.P_BANDS:
            assert np.array_equal(LowpassMultiplier(a, c, b).apply(f).values,
                                  smooth_lowpass(f, a / b, c / b).values)

    @pytest.mark.parametrize("inner, outer", [(1.5, 3.0), (0.3, 3.99)])
    def test_2d_matches_full_spectrum_route(self, odd_grid2d, inner, outer):
        f = random_function(odd_grid2d, seed=6)
        got = smooth_lowpass(f, inner, outer).values
        ref = full_spectrum_lowpass(f, inner, outer)
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", UNEVEN_GRIDS)
    # (inner, outer) as fractions of the lowest Nyquist frequency
    @pytest.mark.parametrize("band", [(0.375, 0.75), (0.075, 0.125), (0.1, 0.999),
                                      (0.5, 0.999)],
                             ids=["mid", "narrow", "wide", "nyquist"])
    def test_2d_bit_identical_to_the_rfftn_route(self, name, band):
        grid = UNEVEN_GRIDS[name]
        nyq = min(g.nyquist for g in grid.axes)
        inner, outer = band[0] * nyq, band[1] * nyq
        f = random_function(grid, seed=13)
        assert np.array_equal(smooth_lowpass(f, inner, outer).values,
                              rfftn_lowpass(f, inner, outer))

    def test_nyquist_band_reaches_the_last_kept_bin(self):
        # on the uneven grid the last axis is the coarser one, so at outer
        # just below its Nyquist frequency the last-axis profile is nonzero
        # up to the bin below Nyquist: every column but the last is kept
        g = UNEVEN_GRIDS["uneven"].axes[1]
        fz = np.fft.rfftfreq(g.count, g.spacing)
        profile = lowpass_profile(np.abs(fz), 0.5 * g.nyquist, 0.999 * g.nyquist)
        assert np.flatnonzero(profile)[-1] == len(fz) - 2

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

    @pytest.mark.parametrize("name", TAIL_GRIDS)
    def test_support_hull_equals_the_one_mask_hull(self, name, small_grid):
        grid = TAIL_GRIDS[name]
        rng = np.random.default_rng(8)
        x, y = (g.x for g in grid.axes)
        bump = np.exp(-np.add.outer((x - 0.7) ** 2, (y + 0.4) ** 2))
        zero = np.zeros(grid.shape)
        fields = [rng.standard_normal(grid.shape) * bump, -bump, zero]
        for corner in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            one = zero.copy()
            one[corner] = -2.5
            fields.append(one)
        tiny = zero.copy()
        tiny[_ROW_BLOCK, 5] = 1e-300  # the only nonzero is in the second block
        fields.append(tiny)
        for vals in fields:
            f = GridFunction(grid, vals)
            assert f.significant_support() == mask_hull(f)
        f1 = gaussian(small_grid, width=0.5)
        assert f1.significant_support() == mask_hull(f1)

    def test_support_margin(self, small_grid):
        x = small_grid.x
        ((lo, hi),) = gaussian(small_grid, width=0.5).significant_support()
        assert min(lo - x[0], x[-1] - hi) > 0.2 * small_grid.length
        flat = GridFunction(small_grid, np.ones(small_grid.count))
        assert flat.significant_support() == ((x[0], x[-1]),)


class TestNoFullSizeTemporaries:
    """The 2D element-wise passes run in blocks: none may hold a temporary
    of a quarter of the grid's (or the point set's) size."""

    GRID = Grid2D(Grid1D(-8.0, 2.0**-6, 1024), Grid1D(-8.0, 2.0**-5, 512))
    FRACTION = 0.25

    def test_lp_norm_and_support(self):
        f = random_function(self.GRID, seed=1)
        full = f.values.nbytes
        weight = np.ones(self.GRID.shape)
        for call in (lambda: lp_norm(f, 1.5), lambda: weighted_lp_norm(f, weight, 2.0),
                     f.significant_support):
            peak, _ = traced_peak(call)
            assert peak < self.FRACTION * full, (call, peak, full)

    def test_construction(self):
        # a boolean mask of the grid would be an eighth of its values
        values = random_function(self.GRID, seed=4).values
        peak, f = traced_peak(lambda: GridFunction(self.GRID, values))
        assert f.values is values
        assert peak < values.nbytes / 16, (peak, values.nbytes)

    def test_segment_cell_measures(self):
        rng = np.random.default_rng(5)
        n = 2**19
        cell_a, cell_b = rng.uniform(-8.0, 8.0, (2, n, 2))
        g = SamplingGeometry2D("spiral", 1, 2.0**-4, 12.0, 4.0, (-8.0, 8.0), cell_a,
                               np.ones(n), 3.0, np.zeros(n, dtype=bool),
                               cell_a=cell_a, cell_b=cell_b)
        peak, out = traced_peak(lambda: cell_measures(g))
        assert peak - out.nbytes < self.FRACTION * out.nbytes, (peak, out.nbytes)
        # the one-pass formula it replaces, per element the same arithmetic
        dx, dy = (cell_b - cell_a).T
        assert same_bits(out, np.sqrt(dx * dx + dy * dy))

    def test_cell_reach(self):
        rng = np.random.default_rng(6)
        n = 2**19
        anchors, cell_a, cell_b = rng.uniform(-8.0, 8.0, (3, n, 2))
        g = SamplingGeometry2D("spiral", 1, 2.0**-4, 12.0, 4.0, (-8.0, 8.0), anchors,
                               np.ones(n), 3.0, np.zeros(n, dtype=bool),
                               cell_a=cell_a, cell_b=cell_b)
        # below a quarter of one float per anchor
        peak, reach = traced_peak(lambda: g.cell_reach)
        assert peak < self.FRACTION * anchors.nbytes / 2, (peak, anchors.nbytes)
        # the one-pass form it replaces
        assert reach == math.sqrt(max(float(np.max(np.einsum("ij,ij->i", d, d)))
                                      for d in (cell_a - anchors, cell_b - anchors)))

    def test_anchor_cells(self):
        # 1024 anchors on the default window at b = 2^-9: cells of side b
        # would number (16 / b)^2 ~ 6.7e7, a table of 512 MiB
        rng = np.random.default_rng(7)
        n = 1024
        anchors = rng.uniform(-8.0, 8.0 - 2.0**-7, (n, 2))
        g = SamplingGeometry2D("curve-family", 2, 2.0**-9, 8.0, 9.0, (-8.0, 8.0 - 2.0**-7),
                               anchors, np.ones(n), 6.0, np.zeros(n, dtype=bool),
                               cell_centers=anchors, cell_radius=2.0**-11)
        # below 8 floats per anchor
        peak, (_, _, cells, starts, order) = traced_peak(lambda: g._anchor_cells)
        assert peak < 8 * anchors.nbytes / 2, (peak, anchors.nbytes)
        assert cells**2 <= n and starts[-1] == n
        assert np.array_equal(np.sort(order), np.arange(n))

    def test_interpolate(self):
        f = random_function(self.GRID, seed=2)
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(g.x[0], g.x[-1], 2**19)
                               for g in self.GRID.axes])
        peak, out = traced_peak(lambda: f.interpolate(pts))
        assert peak - out.nbytes < self.FRACTION * out.nbytes, (peak, out.nbytes)
