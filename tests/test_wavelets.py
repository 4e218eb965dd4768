import gc
import json
import weakref
from dataclasses import replace
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy.optimize import least_squares
from scipy.signal import fftconvolve
from scipy.special import erf

from besovsampling import wavelets
from besovsampling.grid import (
    Grid1D,
    Grid2D,
    GridFunction,
    default_grid_1d,
    default_grid_2d,
    lp_norm,
)
from besovsampling.wavelets import (
    WaveletCoefficients,
    _axis_correlate,
    _axis_kernel,
    _axis_place,
    _axis_setup,
    _full_blocks,
    _kernel_samples,
    _polyphase_blocks,
    _trim_translates,
    analyze,
    build_basis,
    coeffs_to_json_dict,
    default_basis,
    dilate_coeffs,
    pyramid_details,
    scaling_coefficients,
    synthesize,
)
from besovsampling.zoo import ZooSpec, make


def unit_coeff(basis, j=0, k=0, dim=1):
    if dim == 1:
        return WaveletCoefficients(1, j, j, {j: (k, np.array([1.0]))}, basis)
    return WaveletCoefficients(
        2, j, j, {j: {(1, 1): (k, k, np.array([[1.0]]))}}, basis)


class TestBasisConstruction:
    def test_haar_defining_values(self, haar):
        assert np.allclose(haar.scaling_filter, [2**-0.5, 2**-0.5], atol=1e-15)
        assert haar.support[1] == 1
        x_in = np.array([0.1, 0.25, 0.4])
        assert np.allclose(haar.eval(1, x_in), 1.0)
        assert np.allclose(haar.eval(1, x_in + 0.5), -1.0)
        assert haar.eval(1, np.array([1.3]))[0] == 0.0

    def test_default_basis_one_object_per_basis(self):
        default_basis.cache_clear()
        spellings = [default_basis(), default_basis("daubechies", 4),
                     default_basis("Daubechies")]
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
        for m in range(db4.order):
            mom = np.sum(y**m * db4.psi_table) * step
            assert abs(mom) < 1e-6

    def test_psi_vanishes_outside_support(self, db4):
        lo, hi = db4.support
        pts = np.array([lo - 0.5, hi + 0.5, lo - 3.0, hi + 10.0])
        assert np.all(db4.eval(1, pts) == 0.0)

    @pytest.mark.parametrize("order", [None, *range(2, 11)])
    def test_profiles_vanish_at_the_support_end(self, order):
        # 2D analysis drops the kernel-table row that samples w(hi)
        basis = build_basis("haar" if order is None else "daubechies", order)
        assert basis.validate()["psi_outside_support"] == 0.0

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
    the support only, through boolean-index copies, and leave the rest 0.
    Haar, a step function, floors the fraction."""
    y = np.asarray(y, dtype=float)
    lo, _hi = basis.support
    t = (y - lo) * 2.0**basis.depth
    tab = basis.table(which)
    out = np.zeros(y.shape)
    m = (t >= 0) & (t <= len(tab) - 1)
    ti = np.clip(np.floor(t[m]).astype(int), 0, len(tab) - 2)
    fr = t[m] - ti
    if basis.family == "haar":
        fr = np.floor(fr)
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


def eval_samples(g, basis, j, which, q_first, n):
    """Kernel rows as they were built before the run sampler: one `eval`
    call per row, at lo + 2^(j-res) q for the offsets q = q0..q0 + n - 1."""
    lo, _hi = basis.support
    s = 2.0 ** (j - g.resolution_exponent)
    return np.stack([basis.eval(which, lo + s * (q0 + np.arange(n))) for q0 in q_first])


def same_bits(a, b):
    """Equal shapes and equal bits, the sign of a zero included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def every_block(g, basis, j, which, k_lo, k_hi):
    """Every block of the polyphase split as (grid slice, first translate
    k_a, W), each with its kernels sampled afresh: 1D analysis at M >= n
    before its whole blocks shared the `_full_blocks` table."""
    stride, base, _M = _axis_setup(g, basis, j)
    lo, hi = basis.support
    for u in range(base // stride, (base + g.count - 1) // stride + 1):
        m_lo, m_hi = max(0, u * stride - base), min(g.count, (u + 1) * stride - base)
        k_a, k_b = max(u - (hi - lo), k_lo), min(u, k_hi)
        if k_a <= k_b:
            q_first = [m_lo + base - k * stride for k in range(k_a, k_b + 1)]
            yield (slice(m_lo, m_hi), k_a,
                   _kernel_samples(g, basis, j, which, q_first, m_hi - m_lo))


# an axis of each default grid and `small_grid`, with the scales analysed on
# it and some coarser ones, where the kernel spans many times the axis
KERNEL_AXES = {
    "default-1d": (default_grid_1d(), range(-16, 9)),
    "default-2d": (default_grid_2d().gx, range(-8, 6)),
    "small": (Grid1D(-8.0, 2.0**-6, 1024), range(-8, 5)),
}


class TestKernelSamples:
    """`_kernel_samples` reads the tables per run of offsets; every kernel
    of the analysis and synthesis machinery equals `eval` bit for bit."""

    @pytest.mark.parametrize("axis_name", KERNEL_AXES)
    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_machinery_kernels_equal_eval(self, request, axis_name, name):
        basis = request.getfixturevalue(name)
        g, scales = KERNEL_AXES[axis_name]
        lo, hi = basis.support
        seen = set()
        for j in scales:
            stride, base, M = _axis_setup(g, basis, j)
            s = 2.0 ** (j - g.resolution_exponent)
            for which in (0, 1):
                for sl, k_a, W in _polyphase_blocks(g, basis, j, which, -10**9, 10**9):
                    q_first = [sl.start + base - k * stride
                               for k in range(k_a, k_a + len(W))]
                    n = sl.stop - sl.start
                    assert same_bits(W, eval_samples(g, basis, j, which, q_first, n))
                    seen.add("edges")
                    if any(np.any(lo + s * (q + np.arange(n)) == hi) for q in q_first):
                        seen.add("t = last")
                full = _full_blocks(g, basis, j, which, -10**9, 10**9)
                if full is not None:
                    K = full[3]
                    ref = eval_samples(g, basis, j, which, [0], K.size).reshape(K.shape)
                    assert same_bits(K, ref)
                    seen.add("table")
                if M < g.count:
                    assert same_bits(_axis_kernel(g, basis, j, which),
                                     eval_samples(g, basis, j, which, [0], M + 1)[0])
                    seen.add("kernel")
        assert seen == {"edges", "t = last", "table", "kernel"}

    @staticmethod
    def _random_tables(db4):
        """db4's support and depth with random tables: a nonzero last entry,
        so t = last reads it, and zeros of both signs between negatives."""
        rng = np.random.default_rng(4)
        phi, psi = (rng.standard_normal(len(db4.psi_table)) for _ in range(2))
        for tab in (phi, psi):
            # -0.0 then a negative: -0.0 * 1 + (-1) * 0 is -0.0 at fr = 0
            tab[[1, 2, 256, 257, 4000]] = [-0.0, -1.0, -0.0, -3.0, 0.0]
        return replace(db4, phi_table=phi, psi_table=psi)

    @pytest.mark.parametrize("name", ["haar", "db4", "random"])
    @pytest.mark.parametrize("j", [-16, -9, -3, -2, 0, 5])
    def test_any_offsets_equal_eval(self, request, db4, grid, name, j):
        # rows that start before the table, off a run, across t = last and
        # past the table's end, on the default 1D grid
        basis = self._random_tables(db4) if name == "random" else request.getfixturevalue(name)
        e = j - grid.resolution_exponent + basis.depth
        run = 2 ** max(-e, 0)
        q_end = (len(basis.psi_table) - 1) * run // 2 ** max(e, 0)
        rng = np.random.default_rng(j + 20)
        q_first = [-3 * run - 1, -5, 0, q_end - 7, q_end, q_end + 1,
                   *rng.integers(-2 * run, q_end + 2 * run, 6)]
        for n in (1, 2, run + 3, 3 * run + 11):
            for which in (0, 1):
                got = _kernel_samples(grid, basis, j, which, q_first, n)
                assert same_bits(got, eval_samples(grid, basis, j, which, q_first, n))

    def test_analysis_and_synthesis_call_no_eval(self, db4, haar, small_grid,
                                                 small_grid2d, monkeypatch):
        def refuse(self, which, y):
            raise AssertionError("eval called")

        monkeypatch.setattr(wavelets.WaveletBasis, "eval", refuse)
        for g in (small_grid, small_grid2d):
            coords = np.meshgrid(*(a.x for a in g.axes), indexing="ij")
            f = GridFunction(g, np.exp(-np.pi * sum((x - 0.3) ** 2 for x in coords)))
            for basis in (haar, db4):
                synthesize(analyze(f, basis, -8, 3), g)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_default_grid_analysis_equals_the_eval_route(self, request, grid, name,
                                                         monkeypatch):
        basis = request.getfixturevalue(name)
        f = make(ZooSpec("bandlimited-random", band=1.0, seed=3), grid, basis).f
        c = analyze(f, basis, -16, 8)
        back = synthesize(c, grid)
        monkeypatch.setattr(wavelets, "_kernel_samples", eval_samples)
        # a copy of the basis holds no kernel spectra, so the FFT route's
        # kernels are sampled again
        ref = analyze(f, replace(basis), -16, 8)
        assert c.residual_l2 == ref.residual_l2
        for j in c.scales:
            assert same_bits(c.scales[j][1], ref.scales[j][1])
        assert same_bits(c.coarse[1], ref.coarse[1])
        assert same_bits(back.values, synthesize(ref, grid).values)


def coefficient_pairs(a, b):
    """(k0, values) pairs of two analyses over the same scales, coarse first."""
    assert list(a.scales) == list(b.scales)
    return [(a.coarse, b.coarse)] + [(a.scales[j], b.scales[j]) for j in a.scales]


class TestKernelSpectra:
    """The FFT route's kernel spectra are built once per basis, read-only,
    bounded in number and freed with their basis."""

    @pytest.mark.parametrize("family, order", [("haar", None), ("daubechies", 4)])
    def test_cold_warm_and_fresh_bases_agree(self, grid, family, order):
        f = make(ZooSpec("bandlimited-random", band=2.0, seed=6), grid).f
        basis = build_basis(family, order)
        cold = analyze(f, basis, -16, 8)
        spectra = dict(basis._spectra)
        # the FFT route's scales (M < n), one psi spectrum each
        assert sorted(j for _L, _res, j, _w in spectra) == [
            j for j in range(-16, 9) if _axis_setup(grid, basis, j)[2] < grid.count]
        for (L, _res, j, which), spectrum in spectra.items():
            assert not spectrum.flags.writeable
            assert same_bits(spectrum,
                             sp_fft.rfft(_axis_kernel(grid, basis, j, which)[::-1], L))
        warm = analyze(f, basis, -16, 8)
        assert all(basis._spectra[key] is s for key, s in spectra.items())
        fresh = analyze(f, build_basis(family, order), -16, 8)
        for other in (warm, fresh):
            assert other.residual_l2 == cold.residual_l2
            for (k0, v), (k0_ref, ref) in coefficient_pairs(other, cold):
                assert k0 == k0_ref and same_bits(v, ref)

    def test_spectra_die_with_their_basis(self, small_grid):
        f = GridFunction(small_grid, np.exp(-np.pi * small_grid.x**2))
        refs = []
        for _ in range(20):
            basis = build_basis("haar")
            analyze(f, basis, -3, 3)
            refs += [weakref.ref(s) for s in basis._spectra.values()]
        del basis
        gc.collect()
        # psi at j = -3..3 and phi at -3 for the coarse block
        assert len(refs) == 20 * 8
        assert all(r() is None for r in refs)

    def test_more_spectra_than_a_basis_keeps(self, haar):
        basis = replace(haar)
        # 8 spectra an axis (psi at j = -3..3, phi at -3), 40 in all
        axes = [Grid1D(-8.0, 2.0**-e, 2 ** (e + 4)) for e in (6, 7, 8, 9, 10)]
        fs = [GridFunction(g, np.exp(-np.pi * g.x**2)) for g in axes]
        # every axis twice, so the second round reads spectra built again
        # after their eviction
        for f in fs + fs:
            c = analyze(f, basis, -3, 3)
            assert len(basis._spectra) <= wavelets._MAX_SPECTRA
            ref = analyze(f, replace(haar), -3, 3)
            for (k0, v), (k0_ref, r) in coefficient_pairs(c, ref):
                assert k0 == k0_ref and same_bits(v, r)
        assert len(basis._spectra) == wavelets._MAX_SPECTRA


class TestAnalyze:
    def test_synthesized_wavelet_is_orthonormal(self, db4, grid):
        f = synthesize(unit_coeff(db4), grid)
        c = analyze(f, db4, -2, 2)
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
        c = analyze(GridFunction(grid, vals), haar, 0, 0)
        assert abs(c.get(0, 0)) < 1e-12

    def test_parseval_with_coarse_residual(self, db4, grid):
        rng = np.random.default_rng(5)
        base = np.exp(-(grid.x / 3.0) ** 2)
        smooth = base * np.cos(1.7 * grid.x) + 0.3 * base * np.sin(5.1 * grid.x)
        f = GridFunction(grid, smooth)
        c = analyze(f, db4, -6, 6)
        total = c.total_energy() + c.coarse_energy()
        assert abs(total - lp_norm(f, 2.0) ** 2) / lp_norm(f, 2.0) ** 2 < 1e-5

    @pytest.mark.parametrize("two_d", [False, True])
    def test_one_support_pass_for_the_coarse_block(self, db4, small_grid,
                                                   small_grid2d, two_d, monkeypatch):
        grid = small_grid2d if two_d else small_grid
        r2 = sum(np.meshgrid(*[(g.x - 0.4) ** 2 for g in grid.axes],
                             indexing="ij"))
        f = GridFunction(grid, np.exp(-np.pi * r2) * np.cos(3.0 * r2))
        ref = scaling_coefficients(f, db4, -3)
        calls = []
        hull = GridFunction.significant_support
        monkeypatch.setattr(GridFunction, "significant_support",
                            lambda self: calls.append(1) or hull(self))
        c = analyze(f, db4, -3, 2)
        assert len(calls) == 1
        ((k0s, vals),) = wavelets._unpack(f.ndim, c.coarse, coarse=True).values()
        ((k0s_ref, vals_ref),) = wavelets._unpack(f.ndim, ref, coarse=True).values()
        assert k0s == k0s_ref and np.array_equal(vals, vals_ref)

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
        c = analyze(f, db4, 2, 4)
        R = db4.support[1]
        for j in (2, 3, 4):
            k0, vals = c.scales[j]
            ks = k0 + np.arange(len(vals))
            interior = (ks > 2.0**j * (-4) + R) & (ks < 2.0**j * 4 - R)
            assert np.max(np.abs(vals[interior])) < 1e-6


class TestHaarGaussianOracle:
    """Haar coefficients of f(x) = exp(-pi x^2) against differences of erf.

    On the default 1D grid (h = 2^-10 on [-16, 16), where f underflows to 0
    at both ends) each half of a Haar support, [a, a + L) with L = 2^-j / 2,
    or the whole 2^-j for the coarse phi, starts and ends on the grid, and
    the right-continuous jumps make `analyze` 2^(j/2) times a left-endpoint
    sum h sum f(x_m) over each piece.  That sum is the trapezoid sum plus
    (h/2) (f(a) - f(a + L)), and the trapezoid error on [a, a + L) is at
    most (h^2/12) times the sum over its cells of h max|f''|.  That sum is
    at most 2 pi L, as |f''| <= 2 pi, and at most int|f''| + h int|f^(3)|
    over the line, as max|g| on a cell is at most (1/h) int|g| plus the
    variation of g there.  For this f, int|f''| = 4 max|f'| =
    4 sqrt(2 pi) e^(-1/2) and int|f^(3)| = 16 pi e^(-3/2) + 4 pi.  n ulp of
    2^(j/2) sum h |f| = 2^(j/2) covers the rounding of the sums.  Scales
    -16..-3 take the polyphase route (M >= n), -2..8 the FFT route.
    """

    @staticmethod
    def _expected(j, ks, signs, h, n):
        """2^(j/2) sum over the pieces of sign * (integral + endpoint term),
        and the bound on what is left."""
        def f(x):
            return np.exp(-np.pi * x**2)

        piece = 2.0**-j / len(signs)
        second = 4.0 * np.sqrt(2.0 * np.pi) * np.exp(-0.5)
        third = 16.0 * np.pi * np.exp(-1.5) + 4.0 * np.pi
        value, tol = np.zeros(len(ks)), np.full(len(ks), n * np.finfo(float).eps)
        for i, sign in enumerate(signs):
            a = ks * 2.0**-j + i * piece
            b = a + piece
            exact = 0.5 * (erf(np.sqrt(np.pi) * b) - erf(np.sqrt(np.pi) * a))
            value += sign * (exact + 0.5 * h * (f(a) - f(b)))
            tol += h**2 / 12.0 * min(2.0 * np.pi * piece, second + h * third)
        return 2.0 ** (j / 2) * value, 2.0 ** (j / 2) * tol

    def test_every_scale_matches_erf(self, haar, grid):
        f = GridFunction(grid, np.exp(-np.pi * grid.x**2))
        c = analyze(f, haar, -16, 8)
        assert list(c.scales) == list(range(-16, 9))
        pieces = [(j, c.scales[j], (1.0, -1.0)) for j in c.scales]
        for j, (k0, vals), signs in pieces + [(-16, c.coarse, (1.0,))]:
            ks = k0 + np.arange(len(vals))
            value, tol = self._expected(j, ks, signs, grid.spacing, grid.count)
            assert np.all(np.abs(vals - value) <= tol), j


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


# (basis, j) on axes of 1024 points at h = 2^-6: the kernel spans
# M = (hi - lo) * 2^(6 - j) samples, so Haar has M > n, M = n, M < n at
# j = -6, -4, -3 and D4 (P = 7) has M = 28672, 3584, 1792, 896 at
# j = -6, -3, -2, -1.  From j = 1 on (stride 32 down to 2), 2D analysis
# multiplies runs of T = 64 / stride whole blocks by one table.
AXIS_CASES = [("haar", -6), ("haar", -4), ("haar", -3),
              ("db4", -6), ("db4", -3), ("db4", -2), ("db4", -1),
              ("haar", 1), ("haar", 4), ("db4", 1), ("db4", 2), ("db4", 3),
              ("db4", 5)]


def _double_sum(values, g, basis, j, which, ks, axis):
    """sum_m values[m, ...] w(2^j x_m - k) along `axis`, for each k in `ks`."""
    W = basis.eval(which, 2.0**j * g.x[None, :] - ks[:, None])
    return np.moveaxis(np.tensordot(W, values, axes=(1, axis)), 0, axis)


class TestAxisCorrelation:
    """`_axis_correlate`/`_axis_place` against the direct double sum
    sum_m f_m w(2^j x_m - k), on both sides of M = n."""

    @staticmethod
    def _cases(small_grid):
        rng = np.random.default_rng(5)
        # 2D grids whose long axis has an origin off every dyadic block, as
        # axis 1 and as axis 0
        g2 = Grid2D(Grid1D(-3.0, 2.0**-5, 64), Grid1D(-323 / 64, 2.0**-6, 1024))
        g3 = Grid2D(Grid1D(-331 / 64, 2.0**-6, 1024), Grid1D(-1.0, 2.0**-5, 48))
        return [(small_grid, rng.normal(size=small_grid.count), 0),
                (g2.gy, rng.normal(size=g2.shape), 1),
                (g3.gx, rng.normal(size=g3.shape), 0),
                (g3.gy, rng.normal(size=g3.shape), 1)]

    def test_cases_have_full_blocks_at_M_past_the_axis(self, db4, small_grid):
        # D4 at j = -3: M = 3.5 n, one whole block between two partial ones
        for g, values, axis in self._cases(small_grid)[1:3]:
            stride, base, M = _axis_setup(g, db4, -3)
            assert M >= values.shape[axis] and base % stride
            m_a, _u_a, nb, _K = _full_blocks(g, db4, -3, 1, -100, 100)
            assert nb == 1 and 0 < m_a < stride

    @pytest.mark.parametrize("name, j", AXIS_CASES)
    @pytest.mark.parametrize("which", [0, 1])
    def test_correlate_matches_double_sum(self, request, small_grid, name, j, which):
        basis = request.getfixturevalue(name)
        for g, values, axis in self._cases(small_grid):
            k0, (out,) = _axis_correlate(values, g, basis, j, [which], axis=axis)
            # two translates past each end must have no support on the grid
            ks = np.arange(k0 - 2, k0 + out.shape[axis] + 2)
            ref = _double_sum(values, g, basis, j, which, ks, axis)
            assert not np.any(np.take(ref, [0, 1, -2, -1], axis=axis))
            ref = np.take(ref, np.arange(2, len(ks) - 2), axis=axis)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_fine_cases_cover_the_runs_of_blocks(self, request, small_grid):
        # the 2D cases take runs of T > 1 blocks, with a block count that is
        # not a multiple of T (a short last run) and one below T (only that)
        seen = set()
        for name, j in AXIS_CASES:
            basis = request.getfixturevalue(name)
            for g, _values, _axis in self._cases(small_grid)[1:]:
                stride, _base, _M = _axis_setup(g, basis, j)
                T = -(-wavelets._RUN_SAMPLES // stride)
                full = _full_blocks(g, basis, j, 1, -10**6, 10**6)
                if T > 1 and full is not None:
                    nb = full[2]
                    seen.add("T > 1")
                    seen.update({"nb % T"} if nb % T else set())
                    seen.update({"nb < T"} if nb < T else set())
        assert seen == {"T > 1", "nb % T", "nb < T"}

    @pytest.mark.parametrize("name, j", AXIS_CASES)
    def test_both_profiles_in_one_call(self, request, small_grid, name, j):
        basis = request.getfixturevalue(name)
        for g, values, axis in self._cases(small_grid):
            k0, outs = _axis_correlate(values, g, basis, j, [0, 1], axis=axis)
            for which, out in zip((0, 1), outs):
                ks = k0 + np.arange(out.shape[axis])
                ref = _double_sum(values, g, basis, j, which, ks, axis)
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name, j", AXIS_CASES)
    @pytest.mark.parametrize("which", [0, 1])
    def test_place_matches_double_sum(self, request, small_grid, name, j, which):
        basis = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        for g, values, axis in self._cases(small_grid):
            k0, (corr,) = _axis_correlate(values, g, basis, j, [which], axis=axis)
            # translates beyond both ends of the grid's reach are placed as zeros
            shape = list(corr.shape)
            shape[axis] += 6
            coeffs = rng.normal(size=shape)
            out = _axis_place(coeffs, k0 - 3, g, basis, j, which, axis=axis)
            ks = np.arange(k0 - 3, k0 - 3 + shape[axis])
            W = basis.eval(which, 2.0**j * g.x[None, :] - ks[:, None])
            ref = np.moveaxis(np.tensordot(W.T, coeffs, axes=(1, axis)), 0, axis)
            assert out.shape == values.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def _place_two_routes(coeffs, k0, g, basis, j, which, axis=0):
    """`_axis_place` as it was with two routes: the polyphase blocks for
    M >= n, and for M < n the coefficients stuffed with stride - 1 zeros
    between translates and convolved with the kernel by `fftconvolve`."""
    stride, base, M = _axis_setup(g, basis, j)
    nk = coeffs.shape[axis]
    n = g.count
    if M >= n:
        c_mv = np.moveaxis(coeffs, axis, -1)
        out_mv = np.zeros(c_mv.shape[:-1] + (n,))
        for sl, k_a, W in every_block(g, basis, j, which, k0, k0 + nk - 1):
            out_mv[..., sl] = c_mv[..., k_a - k0 : k_a - k0 + len(W)] @ W
        return np.moveaxis(out_mv, -1, axis)
    kern = _axis_kernel(g, basis, j, which)
    # impulse at lattice position k*stride - base for each translate
    pos0 = k0 * stride - base
    imp_shape = list(coeffs.shape)
    imp_shape[axis] = (nk - 1) * stride + 1
    imp = np.zeros(imp_shape)
    sl = [slice(None)] * coeffs.ndim
    sl[axis] = slice(0, None, stride)
    imp[tuple(sl)] = coeffs
    shape = [1] * coeffs.ndim
    shape[axis] = len(kern)
    full = fftconvolve(imp, kern.reshape(shape), mode="full", axes=axis)
    # full[i] corresponds to grid index m = i + pos0
    out_shape = list(coeffs.shape)
    out_shape[axis] = n
    out = np.zeros(out_shape)
    i_lo = max(0, -pos0)
    i_hi = min(full.shape[axis], n - pos0)
    if i_hi > i_lo:
        src = [slice(None)] * coeffs.ndim
        src[axis] = slice(i_lo, i_hi)
        dst = [slice(None)] * coeffs.ndim
        dst[axis] = slice(i_lo + pos0, i_hi + pos0)
        out[tuple(dst)] = full[tuple(src)]
    return out


def _translate_range(g, basis, j):
    """First and last translate with support on the grid."""
    stride, base, M = _axis_setup(g, basis, j)
    return -((M - base) // stride), (base + g.count - 1) // stride


class TestPlacementBody:
    """The one placement body of `_axis_place` against the two routes it
    replaced, within 1e-14 of the largest value."""

    @staticmethod
    def _close(out, ref):
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_besov_random_on_the_default_grid(self, db4, grid, monkeypatch):
        spec = ZooSpec("besov-random", s=0.5, q=1.0, j_lo=0, j_hi=8, seed=3)
        f_new = make(spec, grid, db4).f
        # its analysis over the default scales places at M >= n (j <= -3)
        # as well as at M < n
        c = analyze(f_new, db4, -16, 8)
        back_new = synthesize(c, grid)
        monkeypatch.setattr(wavelets, "_axis_place", _place_two_routes)
        self._close(f_new.values, make(spec, grid, db4).f.values)
        self._close(back_new.values, synthesize(c, grid).values)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_2d_grid_on_both_sides_of_M_equal_n(self, request, name, monkeypatch):
        basis = request.getfixturevalue(name)
        rng = np.random.default_rng(8)
        # axis 1 starts off every dyadic block, so its ends cut blocks short
        grid = Grid2D(Grid1D(-3.0, 2.0**-5, 128), Grid1D(-323 / 64, 2.0**-6, 256))
        sides = set()
        for axis, g in enumerate(grid.axes):
            for j in range(-6, g.resolution_exponent - 1):
                _stride, _base, M = _axis_setup(g, basis, j)
                sides.add(M >= g.count)
                k_a, k_b = _translate_range(g, basis, j)
                shape = [5, 5]
                shape[axis] = k_b - k_a + 1
                coeffs = rng.normal(size=shape)
                for which in (0, 1):
                    self._close(_axis_place(coeffs, k_a, g, basis, j, which, axis),
                                _place_two_routes(coeffs, k_a, g, basis, j, which,
                                                  axis))
        assert sides == {True, False}
        x, y = grid.gx.x[:, None], grid.gy.x[None, :]
        f = GridFunction(grid, np.exp(-np.pi * ((x + 0.4) ** 2 + 2.0 * y**2))
                         * np.sin(4.0 * x + y))
        c = analyze(f, basis, -5, 3)
        back_new = synthesize(c, grid)
        monkeypatch.setattr(wavelets, "_axis_place", _place_two_routes)
        self._close(back_new.values, synthesize(c, grid).values)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_stride_past_the_axis_two_partial_blocks(self, request, name):
        basis = request.getfixturevalue(name)
        # h = 2^-6, 64 points from -1/2: at j = -1 a block is 128 points and
        # the block boundary at x = 0 cuts the axis in two
        g, j = Grid1D(-0.5, 2.0**-6, 64), -1
        stride, _base, _M = _axis_setup(g, basis, j)
        assert stride > g.count
        blocks = list(_polyphase_blocks(g, basis, j, 1, -100, 100))
        assert [sl for sl, _k_a, _W in blocks] == [slice(0, 32), slice(32, 64)]
        k_a, k_b = _translate_range(g, basis, j)
        coeffs = np.random.default_rng(9).normal(size=k_b - k_a + 1)
        out = _axis_place(coeffs, k_a, g, basis, j, 1)
        self._close(out, _place_two_routes(coeffs, k_a, g, basis, j, 1))
        ks = np.arange(k_a, k_b + 1)
        ref = basis.eval(1, 2.0**j * g.x[:, None] - ks[None, :]) @ coeffs
        self._close(out, ref)

    @pytest.mark.parametrize("name, j", [("haar", 2), ("db4", 1), ("db4", 2)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_partial_translate_range(self, request, small_grid, name, j, axis):
        basis = request.getfixturevalue(name)
        lo, hi = basis.support
        k_a, k_b = _translate_range(small_grid, basis, j)
        # the middle three fifths of the translates, with a run of P + 3 zero
        # coefficients in the middle, as the sparse `besov-random` ones have
        ka, nk = k_a + (k_b - k_a) // 5, 3 * (k_b - k_a) // 5
        c = np.random.default_rng(10).normal(size=nk)
        c[nk // 2 - (hi - lo + 3) // 2 : nk // 2 + (hi - lo + 4) // 2] = 0.0
        coeffs = np.moveaxis(np.outer(c, [1.0, -0.5, 2.0]), 0, axis)
        out = _axis_place(coeffs, ka, small_grid, basis, j, 1, axis)
        self._close(out, _place_two_routes(coeffs, ka, small_grid, basis, j, 1, axis))
        # where no translate with a nonzero coefficient reaches, the output is
        # exactly 0; the zero-stuffed FFT route left rounding of order 1e-16
        t = 2.0**j * small_grid.x[:, None] - (ka + np.flatnonzero(c))[None, :]
        unreached = ~np.any((t >= lo) & (t <= hi), axis=1)
        assert np.count_nonzero(unreached) > 200
        assert np.all(np.compress(unreached, out, axis=axis) == 0.0)


def _correlate_one_kernel(values, g, basis, j, which, axis):
    """One profile's correlation as `_axis_correlate` made it before the
    forward spectrum was shared: its own `fftconvolve` for M < n."""
    stride, base, M = _axis_setup(g, basis, j)
    n = values.shape[axis]
    k_min = int(np.ceil((base - M) / stride))
    k_max = int(np.floor((base + n - 1) / stride))
    if M >= n:
        vals_mv = np.moveaxis(values, axis, -1)
        out = np.zeros(vals_mv.shape[:-1] + (k_max - k_min + 1,))
        for sl, k_a, W in every_block(g, basis, j, which, k_min, k_max):
            out[..., k_a - k_min : k_a - k_min + len(W)] += vals_mv[..., sl] @ W.T
        return k_min, np.moveaxis(out, -1, axis)
    kern = _axis_kernel(g, basis, j, which)
    shape = [1] * values.ndim
    shape[axis] = len(kern)
    conv = fftconvolve(values, kern[::-1].reshape(shape), mode="full", axes=axis)
    idx = M - base + np.arange(k_min, k_max + 1) * stride
    return k_min, np.take(conv, idx, axis=axis)


def _tensor_correlate_axis0_first(f, basis, j, types, hull):
    """The tensor correlation in its earlier order: axis 0 first, partial
    results shared by type prefix, one profile per correlation."""
    axes = f.grid.axes
    fac = 2.0 ** (j * len(axes) / 2.0) * prod(g.spacing for g in axes)
    partial = {(): ((), f.values)}
    for axis, g in enumerate(axes):
        last = axis == len(axes) - 1
        nxt = {}
        for prefix, (k0s, vals) in partial.items():
            for which in (0, 1):
                key = prefix + (which,)
                if not any(l[: axis + 1] == key for l in types):
                    continue
                k0, corr = _correlate_one_kernel(vals, g, basis, j, which, axis)
                i_lo, i_hi = _trim_translates(k0, corr.shape[axis], hull[axis],
                                              basis, j)
                if i_hi <= i_lo:
                    continue
                kept = corr[(slice(None),) * axis + (slice(i_lo, i_hi),)]
                nxt[key] = (k0s + (k0 + i_lo,), fac * kept if last else kept)
        partial = nxt
    return partial


class TestSharedSpectrum:
    """The multi-profile `_axis_correlate` and the last-axis-first tensor
    correlation against the one-profile, axis-0-first forms they replace."""

    # j = -6 puts every case below on the polyphase route (M >= n) and j = 3
    # every case on the FFT route (M < n), for both bases.  The 1D spectra
    # are long enough (over 256 KiB) for numpy to evaluate a product with a
    # temporary operand in place, with the operands swapped.  2D arrays take
    # no FFT route: at j = 3 they are held to the direct double sum.
    @pytest.mark.parametrize("name", ["haar", "db4"])
    @pytest.mark.parametrize("j", [-6, 3])
    def test_matches_one_kernel_correlations_bit_for_bit(self, request, grid,
                                                         name, j):
        basis = request.getfixturevalue(name)
        rng = np.random.default_rng(7)
        g2 = Grid2D(Grid1D(-3.0, 2.0**-5, 128), Grid1D(-323 / 64, 2.0**-6, 256))
        cases = [(grid, rng.normal(size=grid.count), 0),
                 (g2.gx, rng.normal(size=g2.shape), 0),
                 (g2.gy, rng.normal(size=g2.shape), 1)]
        for g, values, axis in cases:
            _stride, _base, M = _axis_setup(g, basis, j)
            assert (M >= values.shape[axis]) == (j == -6)
            k0, outs = _axis_correlate(values, g, basis, j, [0, 1], axis=axis)
            assert len(outs) == 2
            for which, out in zip((0, 1), outs):
                k0_ref, ref = _correlate_one_kernel(values, g, basis, j, which, axis)
                assert k0 == k0_ref
                if values.ndim == 2 and j == 3:
                    ref = _double_sum(values, g, basis, j, which,
                                      k0 + np.arange(out.shape[axis]), axis)
                    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
                else:
                    assert np.array_equal(out, ref)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_1d_analyze_keeps_its_routes_bit_for_bit(self, request, grid, name,
                                                     monkeypatch):
        # 1D keeps `_correlate_1d` until ROADMAP item 4(a), so its analysis
        # over the default scales equals the one-kernel routes' in every bit
        basis = request.getfixturevalue(name)
        x = grid.x
        f = GridFunction(grid, np.exp(-np.pi * (x / 3.0) ** 2) * np.cos(5.0 * x + 0.3)
                         + 0.2 * np.exp(-16.0 * np.pi * (x - 1.7) ** 2))
        new = analyze(f, basis, -16, 8)
        monkeypatch.setattr(wavelets, "_tensor_correlate", _tensor_correlate_axis0_first)
        old = analyze(f, basis, -16, 8)
        assert list(new.scales) == list(old.scales)
        for a, b in [(new.coarse, old.coarse)] + [(new.scales[j], old.scales[j])
                                                  for j in old.scales]:
            assert a[0] == b[0] and np.array_equal(a[1], b[1])
        assert new.residual_l2 == old.residual_l2

    def test_1d_whole_blocks_take_the_table_bit_for_bit(self, db4):
        # an axis off every dyadic block: at j = -2 and -3 (M >= n) D4 meets
        # whole blocks between two that the axis ends cut short
        g = Grid1D(-331 / 64, 2.0**-6, 1024)
        values = np.random.default_rng(11).normal(size=g.count)
        mixed = set()
        for j in range(-8, -1):
            _stride, _base, M = _axis_setup(g, db4, j)
            assert M >= g.count
            k0, outs = _axis_correlate(values, g, db4, j, [0, 1])
            for which, out in zip((0, 1), outs):
                k0_ref, ref = _correlate_one_kernel(values, g, db4, j, which, 0)
                assert k0 == k0_ref and np.array_equal(out, ref)
            edges = list(_polyphase_blocks(g, db4, j, 1, -10**6, 10**6))
            if _full_blocks(g, db4, j, 1, -10**6, 10**6) is not None and len(edges) == 2:
                mixed.add(j)
        assert mixed == {-3, -2}

    def test_2d_analyze_matches_axis0_first_order(self, db4, monkeypatch):
        grid = Grid2D(Grid1D(-4.0, 2.0**-5, 256), Grid1D(-4.0, 2.0**-6, 512))
        x, y = grid.gx.x[:, None], grid.gy.x[None, :]
        f = GridFunction(grid, np.exp(-np.pi * ((x - 0.3) ** 2 + 2.0 * (y + 0.2) ** 2))
                         * np.cos(3.0 * x * y + y))
        # scales -4..3 take the polyphase route at the coarse end and the FFT
        # route at the fine end on both axes
        c_new = analyze(f, db4, -4, 3)
        monkeypatch.setattr(wavelets, "_tensor_correlate", _tensor_correlate_axis0_first)
        c_old = analyze(f, db4, -4, 3)
        assert list(c_new.scales) == list(c_old.scales)
        pairs = [(c_new.coarse, c_old.coarse)]
        for j in c_old.scales:
            new, old = c_new.scales[j], c_old.scales[j]
            assert list(new) == list(old)
            pairs += [(new[l], old[l]) for l in old]
        peak = max(np.max(np.abs(old[-1])) for _new, old in pairs)
        for new, old in pairs:
            assert new[:-1] == old[:-1]
            assert np.max(np.abs(new[-1] - old[-1])) <= 1e-13 * peak


class TestPyramidCrossCheck:
    def test_details_match_quadrature_analysis(self, db4, small_grid):
        f = GridFunction(small_grid,
                         np.exp(-np.pi * (small_grid.x - 1.0) ** 2 / 4.0))
        J = 3
        k0, s = scaling_coefficients(f, db4, J)
        details, _ = pyramid_details(s, k0, db4, levels=2)
        c = analyze(f, db4, J - 2, J - 1)
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
    def test_1d_entries(self, db4):
        c = WaveletCoefficients(
            1, -1, 2, {-1: (3, np.array([0.25, -1.5])),
                       2: (-4, np.array([1.0, 0.0, 2.0]))}, db4)
        d = json.loads(json.dumps(coeffs_to_json_dict(c)))
        assert {key: d[key] for key in ("d", "j_min", "j_max", "basis")} == {
            "d": 1, "j_min": -1, "j_max": 2,
            "basis": {"family": db4.family, "order": db4.order}}
        # a scalar k and no type; the zero at k = -3 is dropped
        assert d["entries"] == [{"j": -1, "k": 3, "value": 0.25},
                                {"j": -1, "k": 4, "value": -1.5},
                                {"j": 2, "k": -4, "value": 1.0},
                                {"j": 2, "k": -2, "value": 2.0}]
        kept = coeffs_to_json_dict(c, threshold=0.5)["entries"]
        assert [(e["j"], e["k"]) for e in kept] == [(-1, 4), (2, -4), (2, -2)]

    def test_2d_entries(self, db4):
        c = WaveletCoefficients(
            2, 0, 0, {0: {(0, 1): (1, 2, np.array([[0.5, 0.0], [0.0, -2.0]]))}},
            db4)
        d = json.loads(json.dumps(coeffs_to_json_dict(c)))
        assert (d["d"], d["j_min"], d["j_max"]) == (2, 0, 0)
        assert d["entries"] == [{"j": 0, "k": [1, 2], "l": [0, 1], "value": 0.5},
                                {"j": 0, "k": [2, 3], "l": [0, 1], "value": -2.0}]
