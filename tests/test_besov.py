import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovsampling.besov import (
    BesovParams,
    SpectralCoverageError,
    _lq_sum,
    besov_norm_lp,
    besov_norm_lp_details,
    besov_norm_via_analyze,
    besov_norm_wavelet,
    critical_norm,
    default_scale_range,
    pw_membership,
    rho,
)
from besovsampling.grid import (Grid1D, Grid2D, GridFunction, SpectrumFunction, fourier,
                                inverse_fourier, lp_norm, smooth_lowpass)
from besovsampling.wavelets import WaveletCoefficients, default_basis, dilate_coeffs
from besovsampling.zoo import ZooSpec, make


def unit_coeff(basis, j, k=0):
    return WaveletCoefficients(1, j, j, {j: (k, np.array([1.0]))}, basis)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BesovParams(s=-0.5, p=2.0)
        with pytest.raises(ValueError):
            BesovParams(s=0.5, p=0.5)
        with pytest.raises(ValueError):
            BesovParams(s=0.5, p=2.0, d=3)
        BesovParams(s=0.5, p=2.0, q=math.inf)  # q = inf is fine


class TestWindow:
    def test_partition_of_unity(self):
        ys = np.exp(np.random.default_rng(0).uniform(
            math.log(1e-4), math.log(1e4), 500))
        total = sum(rho(ys * 2.0**-j) for j in range(-40, 41))
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_support(self):
        ys = np.array([0.1, 0.49, 0.5, 2.0, 2.3, 10.0])
        assert np.all(rho(ys[:3]) == 0.0)
        assert np.all(rho(ys[3:]) == 0.0)
        inside = np.linspace(0.55, 1.9, 50)
        assert np.all(rho(inside) > 0.0)


class TestWaveletNorm:
    def test_single_coefficient(self, db4):
        params = BesovParams(0.7, 3.0, 1.0, 1)
        for j in (-2, 0, 3):
            n = besov_norm_wavelet(unit_coeff(db4, j), params)
            expected = 2.0 ** ((0.7 - 1 / 3 + 0.5) * j)
            assert n == pytest.approx(expected, rel=1e-14)

    def test_empty_is_zero_with_warning(self, db4):
        c = WaveletCoefficients(1, 0, 1, {}, db4)
        with pytest.warns(UserWarning, match="empty"):
            assert besov_norm_wavelet(c, BesovParams(0.5, 2.0)) == 0.0

    def test_dilation_scaling_law(self, db4):
        rng = np.random.default_rng(3)
        c = WaveletCoefficients(
            1, -2, 4,
            {j: (rng.integers(-5, 5), rng.standard_normal(rng.integers(2, 9)))
             for j in range(-2, 5)}, db4)
        for s, p in ((0.5, 2.0), (1.0, 1.0), (0.3, 1.5)):
            params = BesovParams(s, p, 1.0, 1)
            n0 = besov_norm_wavelet(c, params)
            for m in (-2, 1, 4):
                nm = besov_norm_wavelet(dilate_coeffs(c, m), params)
                assert nm == pytest.approx(2.0 ** (m * (s - 1 / p)) * n0,
                                           rel=1e-12)

    def test_exact_invariance_at_critical_index(self, db4):
        c = WaveletCoefficients(
            1, 0, 2, {0: (0, np.array([1.0, -0.5])), 2: (3, np.array([2.0]))},
            db4)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        n0 = besov_norm_wavelet(c, params)
        n1 = besov_norm_wavelet(dilate_coeffs(c, 2), params)
        assert abs(n1 - n0) <= 1e-10 * n0

    def test_q_infinity_is_sup(self, db4):
        c = WaveletCoefficients(
            1, 0, 1, {0: (0, np.array([3.0])), 1: (0, np.array([1.0]))}, db4)
        params = BesovParams(0.5, 2.0, math.inf, 1)
        w = params.scale_weight_exponent
        expected = max(3.0, 2.0**w * 1.0)
        assert besov_norm_wavelet(c, params) == pytest.approx(expected)

    @pytest.mark.parametrize("p, m", [(1.0, 1), (2.0, 1), (2.0, 2), (4.0, 2)])
    def test_critical_norm_is_the_wavelet_norm_at_m_over_p(self, small_grid,
                                                           small_grid2d, db4, p, m):
        f1 = make(ZooSpec("gaussian", width=1.0), small_grid).f
        f2 = GridFunction(small_grid2d, np.outer(
            *(np.exp(-np.pi * g.x**2) for g in small_grid2d.axes)))
        for f in (f1, f2):
            params = BesovParams(s=m / p, p=p, q=1.0, d=f.ndim)
            assert critical_norm(f, p, m, db4) == besov_norm_via_analyze(f, params, db4)[0]
        # the default basis stands in when none is given
        assert critical_norm(f1, p, m) == critical_norm(f1, p, m, default_basis())


@st.composite
def coeff_sets(draw):
    scales = {}
    js = draw(st.lists(st.integers(-3, 5), min_size=1, max_size=4, unique=True))
    for j in js:
        n = draw(st.integers(1, 6))
        vals = draw(st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n))
        if any(v != 0 for v in vals):
            scales[j] = (0, np.asarray(vals))
    return scales


class TestEmbeddings:
    @settings(deadline=None, max_examples=30)
    @given(coeff_sets())
    def test_q_monotonicity(self, db4, scales):
        if not scales:
            return
        c = WaveletCoefficients(1, min(scales), max(scales), scales, db4)
        norms = []
        for q in (1.0, 2.0, 4.0, math.inf):
            norms.append(besov_norm_wavelet(c, BesovParams(0.5, 2.0, q, 1)))
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-12)

    def test_highpass_lower_bound(self, grid, db4):
        # no spectrum below b  =>  norm_s >= C b^(s-s') norm_s'
        s, s_prime = 1.0, 0.5
        consts = []
        for width, b in ((0.25, 2.0), (0.1, 4.0)):
            f0 = GridFunction(grid, np.exp(-np.pi * (grid.x / width) ** 2)
                              * np.cos(2 * np.pi * 4 * b * grid.x))
            low = smooth_lowpass(f0, b / 2, b)
            h = GridFunction(grid, f0.values - low.values)
            n_s = besov_norm_lp(h, BesovParams(s, 2.0, 1.0, 1))
            n_sp = besov_norm_lp(h, BesovParams(s_prime, 2.0, 1.0, 1))
            consts.append(n_s / (b ** (s - s_prime) * n_sp))
        assert all(c > 0 for c in consts)
        assert max(consts) / min(consts) < 5.0


class TestLpNormForm:
    def test_zero(self, grid):
        f = GridFunction(grid, np.zeros(grid.count))
        assert besov_norm_lp(f, BesovParams(0.5, 2.0, 1.0, 1)) == 0.0

    def test_frequency_packet_two_blocks(self, grid):
        # packet strictly inside the octave (2^(j0-1), 2^(j0+1)) meets only
        # the two adjacent dyadic blocks, whose window weights sum to 1
        j0 = 3
        carrier = np.cos(2 * np.pi * (2.0**j0) * grid.x)
        env = np.exp(-np.pi * (grid.x / 4.0) ** 2)
        f = GridFunction(grid, carrier * env)
        details = besov_norm_lp_details(f, BesovParams(0.5, 2.0, 1.0, 1))
        per = {j: v for j, v in details["per_scale"].items() if v > 1e-9}
        assert set(per) <= {j0 - 1, j0, j0 + 1}
        F = fourier(f)
        absf = np.abs(F.freqs[0])
        sel = absf > 0
        cover = sum(rho(absf[sel] * 2.0**-j) for j in (j0 - 1, j0, j0 + 1))
        energy = F.energy()[sel]
        mask = energy > 1e-12 * energy.max()
        assert np.max(np.abs(cover[mask] - 1.0)) < 1e-10

    def test_equivalence_with_wavelet_form(self, grid, db4):
        f = make(ZooSpec("compact-bump", width=2.0), grid).f
        params = BesovParams(0.5, 2.0, 2.0, 1)
        nw, _ = besov_norm_via_analyze(f, params, db4)
        nl = besov_norm_lp(f, params)
        ratio = nw / nl
        assert 0.1 < ratio < 10.0

    def test_leak_rejection(self, grid):
        f = GridFunction(grid, np.cos(2 * np.pi * 32.0 * grid.x)
                         * np.exp(-np.pi * (grid.x / 4) ** 2))
        with pytest.raises(SpectralCoverageError) as err:
            besov_norm_lp(f, BesovParams(0.5, 2.0, 1.0, 1), j_range=(-3, 3))
        assert err.value.report["leak_fraction"] > 1e-6

    def test_integer_translation_invariance(self, grid, db4):
        # per-level sums are permuted on every populated scale; coarse-scale
        # leftovers are suppressed by the vanishing moments
        zf = make(ZooSpec("besov-random", s=0.5, q=1.0, j_lo=0, j_hi=5,
                          seed=3), grid, db4)
        params = BesovParams(0.5, 2.0, 1.0, 1)
        n0, _ = besov_norm_via_analyze(zf.f, params, db4)
        for tau in (1.0, 2.0):
            shifted = np.zeros(grid.count)
            k = int(round(tau / grid.spacing))
            shifted[k:] = zf.f.values[:-k]
            n1, _ = besov_norm_via_analyze(GridFunction(grid, shifted),
                                           params, db4)
            assert abs(n1 - n0) / n0 < 1e-8


def every_bin_lp_norm(f, params):
    """`besov_norm_lp_details`'s per-scale loop before it evaluated rho only
    on each scale's band: rho on every bin at every scale."""
    j_lo, j_hi = default_scale_range(f)
    F = fourier(f)
    absf = F.abs_freq()
    per_scale, terms = {}, []
    for j in range(j_lo, j_hi + 1):
        mult = rho(absf * 2.0**-j)
        if not np.any(mult * np.abs(F.values) > 0.0):
            continue
        block = inverse_fourier(SpectrumFunction(F.grid, F.freqs, F.values * mult))
        per_scale[j] = lp_norm(block, params.p)
        if per_scale[j] > 0:
            terms.append(2.0 ** (params.s * j) * per_scale[j])
    return per_scale, _lq_sum(terms, params.q)


class TestLpNormBand:
    """rho is evaluated only on each scale's band, with the same bits."""

    def test_rho_is_positive_zero_off_its_band(self):
        y = np.concatenate([np.linspace(0.0, 0.5, 1001), np.linspace(2.0, 1e6, 1001)])
        r = rho(y)
        assert np.all(r == 0.0) and not np.any(np.signbit(r))

    @pytest.mark.parametrize("s, p, q", [(0.5, 2.0, 1.0), (0.9, 1.3, math.inf)])
    def test_equals_the_every_bin_loop(self, grid, s, p, q):
        g2 = Grid1D(-8.0, 2.0**-3, 128)
        noise = np.random.default_rng(4).standard_normal((128, 128))
        for f in (make(ZooSpec("bandlimited-random", band=1.0, seed=3), grid).f,
                  smooth_lowpass(GridFunction(Grid2D(g2, g2), noise), 1.0, 2.0)):
            params = BesovParams(s, p, q, f.ndim)
            got = besov_norm_lp_details(f, params)
            per_scale, norm = every_bin_lp_norm(f, params)
            assert got["per_scale"] == per_scale and len(per_scale) > 3
            assert got["norm"] == norm


class TestPaleyWiener:
    def test_lowpass_output_is_member(self, grid):
        f0 = GridFunction(grid,
                          np.exp(-np.pi * grid.x**2) * np.cos(6 * grid.x))
        f = smooth_lowpass(f0, 1.0, 2.0)
        ok, rep = pw_membership(f, 2.0)
        assert ok and rep["leak_fraction"] <= 1e-6

    def test_cosine_beyond_band_fails(self, grid):
        f = GridFunction(grid, np.cos(2 * np.pi * 4.0 * grid.x))
        ok, rep = pw_membership(f, 2.0)
        assert not ok
        assert rep["leak_fraction"] > 0.9

    def test_gaussian_tail(self, grid):
        # spectrum exp(-pi z^2): spectral width 1/sqrt(2 pi); 4 widths out the
        # tail integral is far below 1e-6
        f = GridFunction(grid, np.exp(-np.pi * grid.x**2))
        width = 1.0 / math.sqrt(2 * math.pi)
        ok, _ = pw_membership(f, 4 * 1.0, tol=1e-6)
        assert ok
        ok_narrow, rep = pw_membership(f, width, tol=1e-6)
        assert not ok_narrow

    def test_rejects_bad_band(self, grid):
        f = GridFunction(grid, np.exp(-np.pi * grid.x**2))
        with pytest.raises(ValueError):
            pw_membership(f, -1.0)
