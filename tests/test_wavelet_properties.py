"""Property tests for the coefficient map: adjointness of analyze/synthesize
and the analyze-after-synthesize round trip."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from besovsampling.grid import Grid1D, GridFunction
from besovsampling.wavelets import WaveletCoefficients, analyze, synthesize

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _translates(basis, j, box, inside):
    """Translates whose support lies inside (or else meets) [-box, box]."""
    lo, hi = basis.support
    if inside:
        return math.ceil(-box * 2.0**j - lo), math.floor(box * 2.0**j - hi)
    return math.floor(-box * 2.0**j - hi) + 1, math.ceil(box * 2.0**j - lo) - 1


def random_coeffs(rng, basis, dim, j_min, j_max, box, density=1.0, inside=False):
    """Random coefficients (coarse block included) in the public layouts."""
    def block(j, types):
        k_lo, k_hi = _translates(basis, j, box, inside)
        n = k_hi - k_lo + 1
        out = {}
        for l in types:
            vals = rng.normal(size=(n,) * dim) * (rng.random((n,) * dim) < density)
            out[l] = (k_lo,) * dim + (vals,)
        return out

    if dim == 1:
        scales = {j: block(j, [(1,)])[(1,)] for j in range(j_min, j_max + 1)}
        coarse = block(j_min, [(0,)])[(0,)]
    else:
        scales = {j: block(j, [(0, 1), (1, 0), (1, 1)])
                  for j in range(j_min, j_max + 1)}
        coarse = block(j_min, [(0, 0)])[(0, 0)]
    return WaveletCoefficients(dim, j_min, j_max, scales, basis, coarse=coarse)


def entries(c):
    """{(j, type, k): value} over every stored coefficient, coarse block as j=None."""
    blocks = []
    for j, entry in c.scales.items():
        if c.dim == 1:
            blocks.append((j, (1,), entry))
        else:
            blocks.extend((j, l, e) for l, e in entry.items())
    if c.coarse is not None:
        blocks.append((None, (0,) * c.dim, c.coarse))
    out = {}
    for j, l, (*k0s, vals) in blocks:
        for idx in np.ndindex(vals.shape):
            k = tuple(k0 + i for k0, i in zip(k0s, idx))
            out[(j, l, k)] = float(vals[idx])
    return out


def check_adjoint(basis, grid, dim, j_min, j_max, seed):
    rng = np.random.default_rng(seed)
    half = max(g.length for g in ((grid,) if dim == 1 else (grid.gx, grid.gy))) / 2
    c = random_coeffs(rng, basis, dim, j_min, j_max, box=half + 1.0)
    shape = (grid.count,) if dim == 1 else grid.shape
    f = GridFunction(grid, rng.normal(size=shape))
    h = grid.spacing if dim == 1 else grid.gx.spacing * grid.gy.spacing
    lhs = h * float(np.sum(synthesize(c, grid).values * f.values))
    ce, ae = entries(c), entries(analyze(f, basis, j_min, j_max))
    rhs = sum(v * ae.get(key, 0.0) for key, v in ce.items())
    scale = np.linalg.norm(list(ce.values())) * np.linalg.norm(list(ae.values()))
    assert abs(lhs - rhs) <= 1e-10 * scale, (lhs, rhs, scale)


class TestAdjointness:
    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS)
    def test_1d(self, db4, small_grid, seed):
        # j = -4 takes the direct-sum path (kernel longer than the signal)
        check_adjoint(db4, small_grid, 1, -4, 4, seed)

    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_2d(self, db4, small_grid2d, seed):
        check_adjoint(db4, small_grid2d, 2, -4, 2, seed)


class TestRoundTrip:
    @settings(max_examples=4, deadline=None)
    @given(seed=SEEDS)
    def test_sparse_1d(self, db4, seed):
        grid = Grid1D(-8.0, 2.0**-10, 16384)
        rng = np.random.default_rng(seed)
        # interior scales: at least 256 points per unit, supports inside [-7, 7]
        c = random_coeffs(rng, db4, 1, 0, 2, box=7.0, density=0.2, inside=True)
        c.coarse = None
        back = analyze(synthesize(c, grid), db4, 0, 2)
        want = entries(c)
        got = entries(back)
        err = max(abs(got.get(key, 0.0) - want.get(key, 0.0))
                  for key in set(want) | set(got))
        assert err < 1e-6
