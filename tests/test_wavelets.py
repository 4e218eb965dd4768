import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from besovsampling.grid import Grid1D, Grid2D, GridFunction, lp_norm
from besovsampling.wavelets import (
    WaveletCoefficients,
    _axis_correlate,
    _axis_place,
    analyze,
    build_basis,
    coeffs_from_json_dict,
    coeffs_to_json_dict,
    default_basis,
    dilate_coeffs,
    pyramid_details,
    scaling_coefficients,
    synthesize,
)


def unit_coeff(basis, j=0, k=0, dim=1):
    if dim == 1:
        return WaveletCoefficients(1, j, j, {j: (k, np.array([1.0]))}, basis)
    return WaveletCoefficients(
        2, j, j, {j: {(1, 1): (k, k, np.array([[1.0]]))}}, basis)


class TestBasisConstruction:
    def test_haar_defining_values(self, haar):
        assert np.allclose(haar.scaling_filter, [2**-0.5, 2**-0.5], atol=1e-15)
        assert haar.R == 1.0
        x_in = np.array([0.1, 0.25, 0.4])
        assert np.allclose(haar.eval(1, x_in), 1.0)
        assert np.allclose(haar.eval(1, x_in + 0.5), -1.0)
        assert haar.eval(1, np.array([1.3]))[0] == 0.0

    def test_default_basis_one_object_per_basis(self):
        default_basis.cache_clear()
        spellings = [default_basis(), default_basis("daubechies", 4),
                     default_basis("daubechies", 4, 12)]
        assert all(b is spellings[0] for b in spellings)
        info = default_basis.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert default_basis("haar", 4) is default_basis("Haar", 2)

    def test_filter_identities(self, db4):
        v = db4.validate()
        assert v["filter_sum"] < 1e-12
        assert v["qmf_max"] < 1e-12

    @pytest.mark.parametrize("order", [2, 3, 6, 10])
    def test_filter_identities_other_orders(self, order):
        basis = build_basis("daubechies", order, depth=10)
        v = basis.validate()
        assert v["filter_sum"] < 1e-12
        assert v["qmf_max"] < 1e-12
        assert v["moment_max"] < 1e-6

    def test_db4_against_equation_solver(self, db4):
        # independent oracle: solve the defining equations (normalization,
        # shift orthogonality, sum rules) from a low-precision start
        K = 4

        def equations(h):
            eqs = [h.sum() - np.sqrt(2.0)]
            for m in range(K):
                eqs.append(np.dot(h[: len(h) - 2 * m], h[2 * m:])
                           - (1.0 if m == 0 else 0.0))
            kk = np.arange(len(h))
            for m in range(K):
                eqs.append(np.dot((-1.0) ** kk * kk ** m, h))
            return np.array(eqs)

        start = np.round(db4.scaling_filter, 3)
        sol = least_squares(equations, start, method="lm", xtol=1e-15,
                            ftol=1e-15, gtol=1e-15)
        assert np.max(np.abs(sol.x - db4.scaling_filter)) < 1e-10

    def test_vanishing_moments(self, db4):
        step = 2.0**-db4.depth
        y = db4.support[0] + step * np.arange(len(db4.psi_table))
        for m in range(db4.vanishing_moments):
            mom = np.sum(y**m * db4.psi_table) * step
            assert abs(mom) < 1e-6

    def test_psi_vanishes_outside_support(self, db4):
        lo, hi = db4.support
        pts = np.array([lo - 0.5, hi + 0.5, lo - 3.0, hi + 10.0])
        assert np.all(db4.eval(1, pts) == 0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            build_basis("daubechies", 1)
        with pytest.raises(ValueError):
            build_basis("daubechies", 11)
        with pytest.raises(ValueError):
            build_basis("coiflet")

    def test_gram_orthonormality_small(self, db4):
        g = Grid1D(-8.0, 2.0**-10, 16384)
        rows = []
        for j in (0, 1, 2):
            for k in range(-3, 4):
                c = unit_coeff(db4, j, k)
                rows.append(synthesize(c, g).values)
        W = np.array(rows)
        G = g.spacing * (W @ W.T)
        assert np.max(np.abs(G - np.eye(len(rows)))) < 1e-6


def masked_eval(basis, which, y):
    """`WaveletBasis.eval` in its masked form: interpolate the points inside
    the support only, through boolean-index copies, and leave the rest 0."""
    y = np.asarray(y, dtype=float)
    lo, _hi = basis.support
    t = (y - lo) * 2.0**basis.depth
    tab = basis.table(which)
    out = np.zeros(y.shape)
    m = (t >= 0) & (t <= len(tab) - 1)
    ti = np.clip(np.floor(t[m]).astype(int), 0, len(tab) - 2)
    fr = t[m] - ti
    out[m] = tab[ti] * (1.0 - fr) + tab[ti + 1] * fr
    return out


class TestKernelEvaluation:
    """`eval` equals the masked form bit for bit, wherever it is evaluated."""

    @staticmethod
    def _points(basis, rng, extra):
        lo, hi = basis.support
        step = 2.0**-basis.depth
        n_tab = (hi - lo) * 2**basis.depth + 1
        return np.concatenate([
            rng.uniform(lo - 1.0, hi + 1.0, 200),
            lo + step * rng.integers(0, n_tab, 50),  # exact table nodes
            [lo, hi, lo + step, hi - step],
            [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo - step, hi + step],
            [np.nan, np.inf, -np.inf],
            extra,
        ])

    @settings(deadline=None, max_examples=60)
    @given(name=st.sampled_from(["haar", "daubechies"]), which=st.sampled_from([0, 1]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
    def test_matches_masked_form_bit_for_bit(self, name, which, seed, extra):
        basis = default_basis(name)
        y = self._points(basis, np.random.default_rng(seed), extra)
        with np.errstate(over="ignore", invalid="ignore"):
            got = basis.eval(which, y)
            ref = masked_eval(basis, which, y)
        assert got.shape == y.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_shapes(self, db4):
        y = np.linspace(-4.0, 5.0, 12).reshape(3, 4)
        assert np.array_equal(db4.eval(1, y), masked_eval(db4, 1, y))
        assert db4.eval(0, 0.25).shape == ()
        assert db4.eval(0, 0.25) == masked_eval(db4, 0, 0.25)


class TestAnalyze:
    def test_synthesized_wavelet_is_orthonormal(self, db4, grid):
        f = synthesize(unit_coeff(db4), grid)
        c = analyze(f, db4, -2, 2, with_coarse=False)
        assert abs(c.get(0, 0) - 1.0) < 1e-6
        worst = 0.0
        for j in c.scale_range():
            if j not in c.scales:
                continue
            k0, vals = c.scales[j]
            for i, v in enumerate(vals):
                if not (j == 0 and k0 + i == 0):
                    worst = max(worst, abs(v))
        assert worst < 1e-6

    def test_haar_indicator_symmetry(self, haar, grid):
        vals = ((grid.x >= 0.0) & (grid.x < 1.0)).astype(float)
        c = analyze(GridFunction(grid, vals), haar, 0, 0, with_coarse=False)
        assert abs(c.get(0, 0)) < 1e-12

    def test_parseval_with_coarse_residual(self, db4, grid):
        rng = np.random.default_rng(5)
        base = np.exp(-(grid.x / 3.0) ** 2)
        smooth = base * np.cos(1.7 * grid.x) + 0.3 * base * np.sin(5.1 * grid.x)
        f = GridFunction(grid, smooth)
        c = analyze(f, db4, -6, 6)
        total = c.total_energy() + c.coarse_energy()
        assert abs(total - lp_norm(f, 2.0) ** 2) / lp_norm(f, 2.0) ** 2 < 1e-5

    def test_rejects_jmax_beyond_grid(self, db4, small_grid):
        f = GridFunction(small_grid, np.exp(-small_grid.x**2))
        with pytest.raises(ValueError, match="admissible"):
            analyze(f, db4, 0, small_grid.resolution_exponent - 1)

    def test_rejects_non_dyadic_grid(self, db4):
        g = Grid1D(-1.0, 0.003, 1024)
        f = GridFunction(g, np.exp(-g.x**2))
        with pytest.raises(ValueError, match="dyadic"):
            analyze(f, db4, 0, 2)

    def test_vanishing_moment_kill_on_polynomials(self, db4, grid):
        # cubic inside a window; interior-scale coefficients must vanish
        poly = grid.x**3 - 2.0 * grid.x + 1.0
        window = np.abs(grid.x) <= 4.0
        f = GridFunction(grid, np.where(window, poly, 0.0))
        c = analyze(f, db4, 2, 4, with_coarse=False)
        R = db4.R
        for j in (2, 3, 4):
            k0, vals = c.scales[j]
            ks = k0 + np.arange(len(vals))
            interior = (ks > 2.0**j * (-4) + R) & (ks < 2.0**j * 4 - R)
            assert np.max(np.abs(vals[interior])) < 1e-6


class TestSynthesize:
    def test_single_coefficient_is_tabulated_wavelet(self, db4, small_grid):
        out = synthesize(unit_coeff(db4), small_grid)
        assert np.max(np.abs(out.values - db4.eval(1, small_grid.x))) == 0.0

    def test_zero_coefficients(self, db4, small_grid):
        c = WaveletCoefficients(1, 0, 1, {}, db4)
        assert np.all(synthesize(c, small_grid).values == 0.0)

    def test_round_trip_gaussian(self, db4, grid):
        f = GridFunction(grid, np.exp(-np.pi * grid.x**2))
        c = analyze(f, db4, -6, 6)
        back = synthesize(c, grid)
        err = lp_norm(GridFunction(grid, back.values - f.values), 2.0)
        assert err / lp_norm(f, 2.0) < 1e-3

    def test_rejects_unresolved_scale(self, db4, small_grid):
        c = unit_coeff(db4, j=small_grid.resolution_exponent + 1)
        with pytest.raises(ValueError, match="resolve"):
            synthesize(c, small_grid)


class TestDilateCoeffs:
    def test_identity(self, db4):
        c = unit_coeff(db4)
        d = dilate_coeffs(c, 0)
        assert d.scales[0][0] == 0 and d.scales[0][1][0] == 1.0

    def test_single_shift(self, db4):
        d = dilate_coeffs(unit_coeff(db4), 1)
        assert d.j_min == d.j_max == 1
        assert d.get(1, 0) == pytest.approx(2.0**-0.5, abs=0.0)

    def test_group_law(self, db4):
        c = WaveletCoefficients(
            1, -1, 1,
            {-1: (2, np.array([0.3, -0.4])), 1: (0, np.array([1.5]))}, db4)
        back = dilate_coeffs(dilate_coeffs(c, 3), -3)
        for j in (-1, 1):
            assert np.allclose(back.scales[j][1], c.scales[j][1],
                               rtol=1e-15, atol=0)

    def test_overflow_rejected(self, db4):
        with pytest.raises(ValueError):
            dilate_coeffs(unit_coeff(db4), 100)


class TestTensor2D:
    def test_separable_coefficients_factor(self, db4, small_grid2d):
        gx = small_grid2d.gx
        u = np.exp(-np.pi * (gx.x - 0.5) ** 2)
        v = np.exp(-np.pi * (gx.x + 1.0) ** 2 / 2.0)
        f2 = GridFunction(small_grid2d, np.outer(u, v))
        c2 = analyze(f2, db4, -2, 2)
        fu = GridFunction(gx, u)
        fv = GridFunction(gx, v)
        cu = analyze(fu, db4, -2, 2)
        ku1, su1 = scaling_coefficients(fu, db4, 0)
        kv, sv = scaling_coefficients(fv, db4, 0)
        cv = analyze(fv, db4, -2, 2)
        k10, k20, vals = c2.scales[0][(1, 0)]
        ku, vu = cu.scales[0]
        for i in range(0, vals.shape[0], 3):
            for jdx in range(0, vals.shape[1], 3):
                left = vals[i, jdx]
                right = vu[k10 + i - ku] * sv[k20 + jdx - kv]
                assert abs(left - right) < 1e-8
        # (1,1) block factors into two wavelet coefficient arrays
        k10, k20, vals = c2.scales[0][(1, 1)]
        kv1, vv = cv.scales[0]
        for i in range(0, vals.shape[0], 4):
            for jdx in range(0, vals.shape[1], 4):
                assert abs(vals[i, jdx]
                           - vu[k10 + i - ku] * vv[k20 + jdx - kv1]) < 1e-8

    def test_2d_synthesis_round_trip(self, db4, small_grid2d):
        gx = small_grid2d.gx
        u = np.exp(-np.pi * gx.x**2)
        f2 = GridFunction(small_grid2d, np.outer(u, u))
        c2 = analyze(f2, db4, -4, 3)
        back = synthesize(c2, small_grid2d)
        rel = lp_norm(GridFunction(small_grid2d, back.values - f2.values), 2.0) \
            / lp_norm(f2, 2.0)
        assert rel < 1e-2


# (basis, j) on grids of 1024 points at h = 2^-6: the kernel spans
# M = (hi - lo) * 2^(6 - j) samples, so Haar has M > n, M = n, M < n at
# j = -6, -4, -3 and D4 (P = 7) has M = 28672, 1792, 896 at j = -6, -2, -1.
AXIS_CASES = [("haar", -6), ("haar", -4), ("haar", -3),
              ("db4", -6), ("db4", -2), ("db4", -1)]


class TestAxisCorrelation:
    """`_axis_correlate`/`_axis_place` against the direct double sum
    sum_m f_m w(2^j x_m - k), on both sides of M = n."""

    @staticmethod
    def _cases(small_grid):
        rng = np.random.default_rng(5)
        # a 2D grid whose second axis has an origin off every dyadic block
        g2 = Grid2D(Grid1D(-3.0, 2.0**-5, 64), Grid1D(-323 / 64, 2.0**-6, 1024))
        return [(small_grid, rng.normal(size=small_grid.count), 0),
                (g2.gy, rng.normal(size=g2.shape), 1)]

    @staticmethod
    def _kernel(g, basis, j, which, ks):
        return basis.eval(which, 2.0**j * g.x[None, :] - ks[:, None])

    @pytest.mark.parametrize("name, j", AXIS_CASES)
    @pytest.mark.parametrize("which", [0, 1])
    def test_correlate_matches_double_sum(self, request, small_grid, name, j, which):
        basis = request.getfixturevalue(name)
        for g, values, axis in self._cases(small_grid):
            k0, out = _axis_correlate(values, g, basis, j, which, axis=axis)
            # two translates past each end must have no support on the grid
            ks = np.arange(k0 - 2, k0 + out.shape[axis] + 2)
            W = self._kernel(g, basis, j, which, ks)
            ref = np.moveaxis(np.tensordot(W, values, axes=(1, axis)), 0, axis)
            assert not np.any(np.take(ref, [0, 1, -2, -1], axis=axis))
            ref = np.take(ref, np.arange(2, len(ks) - 2), axis=axis)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name, j", AXIS_CASES)
    @pytest.mark.parametrize("which", [0, 1])
    def test_place_matches_double_sum(self, request, small_grid, name, j, which):
        basis = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        for g, values, axis in self._cases(small_grid):
            k0, corr = _axis_correlate(values, g, basis, j, which, axis=axis)
            # translates beyond both ends of the grid's reach are placed as zeros
            shape = list(corr.shape)
            shape[axis] += 6
            coeffs = rng.normal(size=shape)
            out = _axis_place(coeffs, k0 - 3, g, basis, j, which, axis=axis)
            ks = np.arange(k0 - 3, k0 - 3 + shape[axis])
            W = self._kernel(g, basis, j, which, ks)
            ref = np.moveaxis(np.tensordot(W.T, coeffs, axes=(1, axis)), 0, axis)
            assert out.shape == values.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestPyramidCrossCheck:
    def test_details_match_quadrature_analysis(self, db4, small_grid):
        f = GridFunction(small_grid,
                         np.exp(-np.pi * (small_grid.x - 1.0) ** 2 / 4.0))
        J = 3
        k0, s = scaling_coefficients(f, db4, J)
        details, _ = pyramid_details(s, k0, db4, levels=2)
        c = analyze(f, db4, J - 2, J - 1, with_coarse=False)
        checked = 0
        for lvl, j in enumerate((J - 1, J - 2)):
            k0_d, d = details[lvl]
            kj, vals = c.scales[j]
            for i, v in enumerate(vals):
                idx = kj + i - k0_d
                if 0 <= idx < len(d) and abs(v) > 1e-9:
                    assert abs(d[idx] - v) < 1e-10
                    checked += 1
        assert checked > 20


class TestCoefficientJson:
    def test_round_trip_1d(self, db4):
        c = WaveletCoefficients(
            1, -1, 2, {-1: (3, np.array([0.25, -1.5])),
                       2: (-4, np.array([1.0, 0.0, 2.0]))}, db4)
        d = json.loads(json.dumps(coeffs_to_json_dict(c)))
        back = coeffs_from_json_dict(d, db4)
        assert back.get(-1, 4) == -1.5
        assert back.get(2, -2) == 2.0
        assert back.get(2, -3) == 0.0

    def test_round_trip_2d(self, db4):
        c = WaveletCoefficients(
            2, 0, 0, {0: {(0, 1): (1, 2, np.array([[0.5, 0.0], [0.0, -2.0]]))}},
            db4)
        back = coeffs_from_json_dict(coeffs_to_json_dict(c), db4)
        assert back.get(0, (1, 2), (0, 1)) == 0.5
        assert back.get(0, (2, 3), (0, 1)) == -2.0
