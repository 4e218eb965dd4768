"""Compactly supported orthonormal wavelet bases and the coefficient map.

The basis is built from the scaling filter: Haar directly, Daubechies with K
vanishing moments (filter length 2K) by spectral factorization of the
Bernstein polynomial, followed by a Gauss-Newton polish of the defining
equations (normalization, shift orthogonality, sum rules) to machine
precision.  The scaling function and mother wavelet are tabulated at exact
dyadic points by cascade refinement of the two-scale relation, starting from
the eigenvector of the integer-point transfer matrix.

Coefficients c_{j,k} = integral f * psi_{j,k} are computed by quadrature of f
against the tabulated wavelets on the fine grid, not by the pyramid filter
bank; `pyramid_details` provides the filter-bank recursion as an independent
cross-check for dyadically sampled inputs.  Along each axis the sampled
kernel spans M = (hi - lo) * 2^(res - j) grid steps, P = hi - lo strides.

The quadrature works on the polyphase split: the axis is cut into
stride-sample blocks aligned with the translates, and each block meets at
most P + 1 translates.  With one kernel table K[q, r] per scale and profile
(translate u - q at offset r of block u), the blocks that lie wholly on the
grid take one matrix product against K, and the at most two that the axis
ends cut short take kernels sampled at their own grid points.  Nothing is
padded or transformed, at any scale.  Analysis multiplies the blocks by K
and adds each translate's diagonal terms; synthesis, the transposed
operator, multiplies each block's translate window by K.  At strides below
64, 2D analysis multiplies runs of T blocks at a time by the wider,
block-Toeplitz form of K, with every profile's rows stacked into one table.
Every kernel, table and edge block is sampled by `_kernel_samples`, which
reads the tabulated profile once per table interval, not once per point.

1D analysis keeps its earlier routes until the benchmark's 1D `residual_l2`
reference can take a change of rounding (ROADMAP item 4(a)): an FFT
correlation read at every stride-th lag for M < n, phi and psi sharing the
forward spectrum, and one product per block against K for M >= n.

In 2D, analysis correlates axis 1 first, so the strided axis 0 sees only the
partial results, already reduced to one value per translate.  Synthesis, its
adjoint, places along axis 0 first, so its full-size placement runs along
axis 1.

Supports: the Daubechies tables are recentred by an integer shift (a pure
relabeling of translates) so phi and psi share the support [-(K-1), K] and
the radius R = K; Haar keeps [0, 1] with R = 1.  Haar is a step function
whose jumps carry the right-continuous value, so quadrature on half-open
dyadic grids reproduces the Haar integral identities exactly at any scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, prod

import numpy as np

from .grid import Grid1D, GridFunction, _next_fast_len, lp_norm

__all__ = [
    "WaveletBasis",
    "WaveletCoefficients",
    "build_basis",
    "check_dyadic_grid",
    "daubechies_filter",
    "analyze",
    "synthesize",
    "scaling_coefficients",
    "dilate_coeffs",
    "pyramid_details",
    "coeffs_to_json_dict",
]

_MAX_ABS_SCALE = 60
# 2D analysis multiplies runs of blocks at least this many samples long by
# one table (`_axis_correlate`); CHANGES.md has the measured choice
_RUN_SAMPLES = 64
# kernel spectra one basis keeps for 1D analysis (`_kernel_spectrum`)
_MAX_SPECTRA = 32


def daubechies_filter(order: int) -> np.ndarray:
    """Minimal-phase Daubechies scaling filter with `order` vanishing moments.

    Spectral factorization: the halfband polynomial P(y) = sum binom(K-1+k,k) y^k
    is transferred to the z-domain through y = (2 - z - 1/z)/4 and split into
    its roots inside the unit circle.  A Gauss-Newton pass on the defining
    equations removes the root-finding error.
    """
    K = int(order)
    if K == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    P = np.array([comb(K - 1 + k, k) for k in range(K)], dtype=float)
    # P(y(z)) * z^(K-1): ascending-power polynomial in z of degree 2K-2
    poly = np.zeros(2 * K - 1)
    for k in range(K):
        zk = np.polynomial.polynomial.polypow(np.array([-1.0, 1.0]), 2 * k)
        poly[K - 1 - k : K - 1 - k + len(zk)] += zk * P[k] * (-0.25) ** k
    roots = np.roots(poly[::-1])
    inside = roots[np.abs(roots) < 1.0]
    L = np.array([1.0 + 0j])
    for r in inside:
        L = np.convolve(L, np.array([1.0, -r]))
    L = np.real(L)
    L /= L.sum()  # normalizes |m0(0)| = 1
    m0 = np.array([1.0])
    for _ in range(K):
        m0 = np.convolve(m0, [0.5, 0.5])
    h = np.sqrt(2.0) * np.convolve(m0, L)
    return _polish_filter(h, K)


def _filter_equations(h: np.ndarray, K: int) -> np.ndarray:
    eqs = [h.sum() - np.sqrt(2.0)]
    for m in range(K):
        v = float(np.dot(h[: len(h) - 2 * m], h[2 * m :])) - (1.0 if m == 0 else 0.0)
        eqs.append(v)
    k = np.arange(len(h), dtype=float)
    for m in range(K):
        eqs.append(float(np.dot((-1.0) ** k * k**m, h)))
    return np.array(eqs)


def _polish_filter(h: np.ndarray, K: int, sweeps: int = 3) -> np.ndarray:
    for _ in range(sweeps):
        F = _filter_equations(h, K)
        if np.max(np.abs(F)) < 1e-15:
            break
        J = np.zeros((len(F), len(h)))
        eps = 1e-7
        for i in range(len(h)):
            hp = h.copy()
            hp[i] += eps
            J[:, i] = (_filter_equations(hp, K) - F) / eps
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        h = h + step
    return h


def _cascade_phi(h: np.ndarray, depth: int) -> np.ndarray:
    """Exact values of the scaling function at j/2^depth, j = 0..(L-1)*2^depth."""
    L = len(h)
    n = L - 1
    M = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            k = 2 * i - j
            if 0 <= k < L:
                M[i, j] = np.sqrt(2.0) * h[k]
    w, v = np.linalg.eig(M)
    idx = int(np.argmin(np.abs(w - 1.0)))
    phi_int = np.real(v[:, idx])
    phi_int /= phi_int.sum()
    vals = phi_int
    for d in range(1, depth + 1):
        m = np.arange(n * 2**d + 1)
        new = np.zeros(len(m))
        for k in range(L):
            src = m - k * 2 ** (d - 1)
            ok = (src >= 0) & (src <= n * 2 ** (d - 1))
            new[ok] += np.sqrt(2.0) * h[k] * vals[src[ok]]
        vals = new
    return vals


@dataclass(eq=False)
class WaveletBasis:
    """Scaling/wavelet filter pair with tabulated scaling function and wavelet.

    Tables hold values at support_lo + i/2^depth over the common support
    [0, R] with R = len(filter) - 1.  `order` is the number of vanishing
    moments of psi (1 for Haar).  Immutable after construction, apart from
    `_spectra`, the kernel spectra of 1D analysis (`_kernel_spectrum`):
    they are held by the basis, so they are freed with it.
    """

    family: str
    order: int
    scaling_filter: np.ndarray
    depth: int
    support: tuple[int, int]
    phi_table: np.ndarray = field(repr=False)
    psi_table: np.ndarray = field(repr=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def R(self) -> float:
        return float(self.support[1])

    @property
    def wavelet_filter(self) -> np.ndarray:
        h = self.scaling_filter
        L = len(h)
        return np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])

    def table(self, which: int) -> np.ndarray:
        return self.phi_table if which == 0 else self.psi_table

    def eval(self, which: int, y) -> np.ndarray:
        """psi^0 / psi^1 at arbitrary points: exact on the table lattice, linear
        between its nodes (Haar: a step), 0 outside the support (and at NaN).

        The value is tab[ti] * (1 - fr) + tab[ti + 1] * fr at table position
        t = ti + fr, computed in place over the whole array: points outside
        the support read table node 0 and are zeroed afterwards, so there are
        no masked copies and four temporaries in all.
        """
        y = np.asarray(y, dtype=float)
        lo, _hi = self.support
        tab = self.table(which)
        t = y.reshape(-1) - lo
        t *= 2.0**self.depth
        outside = ~((t >= 0) & (t <= len(tab) - 1))
        t[outside] = 0.0
        ti = t.astype(np.intp)  # t >= 0, so truncation is floor
        np.minimum(ti, len(tab) - 2, out=ti)
        t -= ti  # t is now fr
        if self.family == "haar":
            np.floor(t, out=t)
        nxt = tab[1:].take(ti)
        nxt *= t
        np.subtract(1.0, t, out=t)
        out = tab.take(ti)
        out *= t
        out += nxt
        out[outside] = 0.0
        return out.reshape(y.shape)

    def validate(self) -> dict:
        """Residuals of the defining identities; all should be ~1e-12 or below."""
        h = self.scaling_filter
        K = len(h) // 2
        qmf = [abs(float(np.dot(h[: len(h) - 2 * m], h[2 * m :])) - (1.0 if m == 0 else 0.0))
               for m in range(K)]
        step = 2.0**-self.depth
        y = self.support[0] + step * np.arange(len(self.psi_table))
        moments = [abs(float(np.sum(y**m * self.psi_table) * step))
                   for m in range(self.order)]
        return {
            "filter_sum": abs(float(h.sum()) - np.sqrt(2.0)),
            "qmf_max": max(qmf),
            "moment_max": max(moments),
            # the tables stop at the support ends, so this is w beyond them;
            # 2D analysis leaves out the kernel row that samples it
            "psi_outside_support": sum(abs(float(self.eval(w, self.support[1])))
                                       for w in (0, 1)),
        }


def build_basis(family: str, order: int | None = None, depth: int = 12) -> WaveletBasis:
    """Construct a Haar or Daubechies-order-K basis tabulated at depth >= 10."""
    family = family.lower()
    if depth < 10:
        raise ValueError(f"tabulation depth must be >= 10, got {depth}")
    if family == "haar":
        h = np.array([1.0, 1.0]) / np.sqrt(2.0)
        n = 2**depth
        # right-continuous convention: half-open dyadic grids then sum the
        # Haar quadrature identities exactly
        phi = np.ones(n + 1)
        phi[-1] = 0.0
        psi = np.ones(n + 1)
        psi[n // 2 :] = -1.0
        psi[-1] = 0.0
        return WaveletBasis("haar", 1, h, depth, (0, 1), phi, psi)
    if family == "daubechies":
        if order is None or not (2 <= int(order) <= 10):
            raise ValueError(f"Daubechies order must be in 2..10, got {order}")
        K = int(order)
        h = daubechies_filter(K)
        L = 2 * K
        phi = _cascade_phi(h, depth)
        g = np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])
        # psi at the same depth, from phi via the two-scale relation
        n = (L - 1) * 2**depth
        psi = np.zeros(n + 1)
        for k in range(L):
            src = 2 * np.arange(n + 1) - k * 2**depth
            ok = (src >= 0) & (src <= n)
            psi[ok] += np.sqrt(2.0) * g[k] * phi[src[ok]]
        # integer recentering (a pure relabeling of translates) puts the
        # common support at [-(K-1), K], so R = K as in the |x| > R convention
        lo = -((L - 1) // 2)
        return WaveletBasis("daubechies", K, h, depth, (lo, lo + L - 1),
                            phi, psi)
    raise ValueError(f"unsupported wavelet family {family!r}; choose haar or daubechies")


@lru_cache(maxsize=8)
def _cached_basis(family: str, order: int | None, depth: int) -> WaveletBasis:
    return build_basis(family, order, depth)


def default_basis(family: str = "daubechies", order: int = 4,
                  depth: int = 12) -> WaveletBasis:
    """Cached basis for the common Daubechies-4 workhorse configuration.

    The cache key is the basis, not the call: `default_basis()` and
    `default_basis("daubechies", 4, 12)` return the same object.
    """
    family = family.lower()
    return _cached_basis(family, None if family == "haar" else order, depth)


default_basis.cache_info = _cached_basis.cache_info
default_basis.cache_clear = _cached_basis.cache_clear


# ---------------------------------------------------------------------------
# coefficient container


def _unpack(dim: int, entry, coarse: bool = False) -> dict:
    """{tensor type: (per-axis first translates, values)} of one stored entry.

    With `_pack`, the only code that knows the public layouts: a 1D scale
    entry is the bare (k0, values) block of type (1,), a 2D one maps each type
    to (k1_0, k2_0, values); the coarse entry is one block of type (0,...,0).
    """
    if coarse or dim == 1:
        entry = {(0,) * dim if coarse else (1,): entry}
    return {l: (tuple(block[:-1]), block[-1]) for l, block in entry.items()}


def _pack(dim: int, blocks: dict, coarse: bool = False):
    """Inverse of `_unpack`."""
    entry = {l: (*k0s, vals) for l, (k0s, vals) in blocks.items()}
    if coarse or dim == 1:
        (entry,) = entry.values()
    return entry


@dataclass(eq=False)
class WaveletCoefficients:
    """Sparse-by-scale coefficient map c_{j,lambda}.

    1D: scales[j] = (k0, values) with k = k0 + index.
    2D: scales[j][(l1,l2)] = (k1_0, k2_0, values[k1_index, k2_index]).
    `coarse` optionally holds scaling-function coefficients at j_min in the
    same layout (type (0,0) in 2D); `residual_l2` is the relative L^2 energy
    not captured by [j_min, j_max] plus the coarse block.
    """

    dim: int
    j_min: int
    j_max: int
    scales: dict
    basis: WaveletBasis
    coarse: tuple | None = None
    residual_l2: float | None = None

    def scale_range(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def blocks(self, j: int) -> dict:
        """{tensor type: (per-axis first translates, values)} at scale j."""
        return _unpack(self.dim, self.scales[j]) if j in self.scales else {}

    def per_scale_p_sum(self, j: int, p: float) -> float:
        """(sum over lambda at scale j of |c|^p)^(1/p); 0 for empty scales.

        Max-normalized so extreme coefficient magnitudes cannot underflow or
        overflow the p-th powers.
        """
        blocks = [vals for _k0s, vals in self.blocks(j).values()]
        peak = max((float(np.max(np.abs(v))) for v in blocks), default=0.0)
        if peak == 0.0:
            return 0.0
        tot = sum(float(np.sum((np.abs(v) / peak) ** p)) for v in blocks)
        return peak * tot ** (1.0 / p)

    def total_energy(self) -> float:
        tot = 0.0
        for j in self.scales:
            tot += self.per_scale_p_sum(j, 2.0) ** 2
        return tot

    def coarse_energy(self) -> float:
        if self.coarse is None:
            return 0.0
        ((_k0s, vals),) = _unpack(self.dim, self.coarse, coarse=True).values()
        return float(np.sum(np.asarray(vals) ** 2))

    def get(self, j: int, k, l=None) -> float:
        """c_{j,k} of tensor type l (the wavelet type (1,) when l is None)."""
        block = self.blocks(j).get((1,) if l is None else tuple(l))
        if block is None:
            return 0.0
        k0s, vals = block
        idx = tuple(int(ki) - k0 for ki, k0 in zip(np.atleast_1d(k), k0s))
        if all(0 <= i < n for i, n in zip(idx, vals.shape)):
            return float(vals[idx])
        return 0.0

    def nnz(self) -> int:
        return sum(vals.size for j in self.scales
                   for _k0s, vals in self.blocks(j).values())


def coeffs_to_json_dict(c: WaveletCoefficients, threshold: float = 0.0) -> dict:
    entries = []
    for j in sorted(c.scales):
        for l, (k0s, vals) in sorted(c.blocks(j).items()):
            for idx in np.argwhere(np.abs(vals) > threshold):
                k = [int(k0 + i) for k0, i in zip(k0s, idx)]
                entry = {"j": j, "value": float(vals[tuple(idx)])}
                # the 1D format has a scalar k and no type
                entry.update({"k": k[0]} if c.dim == 1 else {"k": k, "l": list(l)})
                entries.append(entry)
    return {
        "d": c.dim,
        "j_min": c.j_min,
        "j_max": c.j_max,
        "basis": {"family": c.basis.family, "order": c.basis.order},
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# analysis / synthesis machinery

def _lattice_offset(g: Grid1D) -> int:
    """x_0 / h, for an axis whose spacing h is dyadic and whose origin x_0
    lies on the h-lattice; a ValueError for any other axis."""
    if abs(g.spacing * 2**g.resolution_exponent - 1.0) > 1e-9:
        raise ValueError(
            f"wavelet analysis needs dyadic grid spacing, got {g.spacing}"
        )
    x0h = g.origin / g.spacing
    if abs(x0h - round(x0h)) > 1e-9:
        raise ValueError("grid origin must be an integer multiple of the spacing")
    return int(round(x0h))


def check_dyadic_grid(grid) -> None:
    """Reject a grid that wavelet quadrature cannot use (see `_lattice_offset`)."""
    for g in grid.axes:
        _lattice_offset(g)


def _axis_setup(g: Grid1D, basis: WaveletBasis, j: int):
    """Dyadic-alignment bookkeeping for one axis at scale j.

    Returns (stride, base_index, kernel) where the correlation of the value
    array with kernel[::-1] evaluated at base_index + k*stride yields
    sum_m f_m * w(2^j x_m - k) for the tabulated profile w.
    """
    x0h = _lattice_offset(g)
    res = g.resolution_exponent
    if j > res:
        raise ValueError(f"scale {j} finer than the grid resolution exponent {res}")
    stride = 2 ** (res - j)
    lo, hi = basis.support
    M = (hi - lo) * stride  # kernel index range 0..M
    base = x0h - lo * stride  # lattice index of x_0 relative to support start
    return stride, base, M


def _kernel_samples(g: Grid1D, basis: WaveletBasis, j: int, which: int,
                    q_first, n: int) -> np.ndarray:
    """W[i, r] = w(t) at table position t = (q_first[i] + r) * 2^e, r < n,
    with e = j - res + depth: profile w at lattice offset q from its support
    start.  This is `basis.eval(which, lo + 2^(j-res) * q)` bit for bit,
    because that float route computes the same t exactly: lo + 2^(j-res) q
    is exact while res - j stays far below 53.

    For e <= 0 each run of 2^-e consecutive offsets shares one table
    interval [c, c + 1], and the fractions fr repeat from run to run and
    from row to row.  So a row is A (1 - fr) + B fr, with A = tab[c] and
    B = tab[c + 1] read once per run as strided slices of the table: the
    products and the sum of `eval`, in its order.  For e > 0 a run is one
    offset with fr = 0 and c steps by 2^e.  Runs off the table are 0, and
    t = last takes `eval`'s clamped tab[last - 1] * 0 + tab[last] * 1.
    Each row is built in one run-shaped buffer and copied out.  The samples
    are not cached.
    """
    tab = basis.table(which)
    last = len(tab) - 1
    e = j - g.resolution_exponent + basis.depth
    run, step = 2 ** max(-e, 0), 2 ** max(e, 0)  # offsets per run, entries per run
    # Haar is a step function: its fractions floor to 0, as in `eval`
    fr = np.zeros(run) if basis.family == "haar" else np.arange(run) / run
    one_minus_fr = 1.0 - fr
    end = tab[last - 1] * 0.0 + tab[last] * 1.0
    q_end = last * run // step  # the offset at t = last
    out = np.empty((len(q_first), n))
    n_runs = -(-(run - 1 + n) // run)
    buf, term = np.empty((n_runs, run)), np.empty((n_runs, run))
    for row, q0 in zip(out, q_first):
        off = q0 % run
        nr = -(-(off + n) // run)
        c0 = (q0 - off) // run * step  # table entry of the first run
        # the runs i_lo..i_hi - 1 have 0 <= c < last
        i_lo = min(max(0, -c0 // step), nr)
        i_hi = min(max(i_lo, (last - c0 + step - 1) // step), nr)
        runs = buf[:nr]
        runs[:i_lo] = 0.0
        runs[i_hi:] = 0.0
        c_lo, c_hi = c0 + i_lo * step, c0 + i_hi * step
        on, t = runs[i_lo:i_hi], term[: i_hi - i_lo]
        np.multiply(tab[c_lo:c_hi:step, None], one_minus_fr, out=on)
        np.multiply(tab[c_lo + 1 : c_hi + 1 : step, None], fr, out=t)
        on += t
        row[:] = runs.reshape(-1)[off : off + n]
        if 0 <= q_end - q0 < n:
            row[q_end - q0] = end
    return out


def _axis_kernel(g: Grid1D, basis: WaveletBasis, j: int, which: int) -> np.ndarray:
    """w sampled at the M + 1 grid steps of its support."""
    _stride, _base, M = _axis_setup(g, basis, j)
    return _kernel_samples(g, basis, j, which, [0], M + 1)[0]


def _polyphase_blocks(g: Grid1D, basis: WaveletBasis, j: int, which: int,
                      k_lo: int, k_hi: int):
    """The blocks of the polyphase split that the axis ends cut short, each
    with its own kernels; the whole blocks share the `_full_blocks` table.

    Grid index m sits at lattice position m + base = u*stride + r: block u,
    offset r.  Translate k meets block u only for u - P <= k <= u, where
    P = hi - lo is the support length in strides.  Yields (grid slice, first
    translate k_a, W) for each such block with W[i, m - start] =
    w(2^j x_m - (k_a + i)), translates kept to [k_lo, k_hi].
    """
    stride, base, _M = _axis_setup(g, basis, j)
    n = g.count
    lo, hi = basis.support
    u_first, u_last = base // stride, (base + n - 1) // stride
    for u in sorted({u_first, u_last}):
        m_lo, m_hi = max(0, u * stride - base), min(n, (u + 1) * stride - base)
        if m_hi - m_lo == stride:
            continue
        k_a, k_b = max(u - (hi - lo), k_lo), min(u, k_hi)
        if k_a > k_b:
            continue
        # translate k samples the block at offsets m + base - k*stride
        W = _kernel_samples(g, basis, j, which,
                            [m_lo + base - k * stride for k in range(k_a, k_b + 1)],
                            m_hi - m_lo)
        yield slice(m_lo, m_hi), k_a, W


def _full_blocks(g: Grid1D, basis: WaveletBasis, j: int, which: int,
                 k_lo: int, k_hi: int):
    """The blocks of the polyphase split that lie wholly on the grid and meet
    a translate in [k_lo, k_hi], with the one kernel table they share.

    Returns (m_a, u_a, nb, K), or None when there is no such block: grid
    indices m_a..m_a + nb*stride - 1 are blocks u_a..u_a + nb - 1, and
    K[q, r] = w(lo + 2^(j-res) (r + q*stride)) is the kernel of translate
    u - q at offset r of block u, for q = 0..P, sampled a row at a time
    (faster than one long row).  Row q = P samples w at hi + r/stride,
    where every basis is 0 (`WaveletBasis.validate`); 2D analysis leaves it
    out, and 1D and `_axis_place` keep all P + 1 rows.
    2D analysis expands K to the run table K_T[s + P - 1 - q, s*stride + r]
    = K[q, r] of `_axis_correlate`.
    """
    stride, base, M = _axis_setup(g, basis, j)
    P = M // stride
    u_a = max(-(-base // stride), k_lo)
    u_b = min((base + g.count) // stride, k_hi + P + 1)
    if u_b <= u_a:
        return None
    K = _kernel_samples(g, basis, j, which, range(0, (P + 1) * stride, stride), stride)
    return u_a * stride - base, u_a, u_b - u_a, K


def _axis_correlate(values: np.ndarray, g: Grid1D, basis: WaveletBasis, j: int,
                    whiches, axis: int = 0):
    """All-translate correlations along one axis, one per profile in `whiches`.

    Returns (k0, outs) where outs[t][i, ...] = sum_m values[m, ...] *
    w_t(2^j x_m - (k0+i)) for the profile w_t = psi^whiches[t].
    With the blocks and the table K of `_full_blocks`, translate k is
    sum_q Y[k + q, q] with Y[u, q] = sum_r f(block u, offset r) K[q, r].
    The whole blocks are cut into runs of T = ceil(64 / stride) blocks
    (T = 1 from stride 64 up), each T*stride samples long and meeting T + P
    translates.  Each run, a (T*stride, other axes) view, takes one product
    against the run table K_T[s + P - 1 - q, s*stride + r] = K[q, r]
    (s < T, q < P: row q = P of K is 0) with the rows of every profile
    stacked, so the values are read once per scale, and row i of the
    product adds into translate (first block of the run) + i - (P - 1).
    A last run of fewer than T blocks takes the leading rows and columns
    of K_T.  The at most two partial blocks at the axis ends take their own
    `_polyphase_blocks` kernels, one product per profile.  Nothing is
    padded or transformed, and each product holds one run's translates.
    1D arrays keep the routes of `_correlate_1d`.
    """
    stride, base, M = _axis_setup(g, basis, j)
    n = values.shape[axis]
    k_min = int(np.ceil((base - M) / stride))
    k_max = int(np.floor((base + n - 1) / stride))
    if values.ndim == 1:
        # held back until ROADMAP item 4(a) replaces the `residual_l2`
        # reference; deleting this branch is then the whole 1D change
        return k_min, _correlate_1d(values, g, basis, j, whiches, k_min, k_max)
    P = M // stride
    # the axis first, the others as columns: a view in 2D, whichever axis
    v = np.moveaxis(values, axis, 0)
    cols = v.shape[1:]
    v = v.reshape(n, -1)
    out = np.zeros((len(whiches), k_max - k_min + 1, v.shape[1]))
    fulls = [_full_blocks(g, basis, j, which, k_min, k_max) for which in whiches]
    if fulls[0] is not None:
        m_a, u_a, nb, _K = fulls[0]
        T = -(-_RUN_SAMPLES // stride)
        # K_T[s + P - 1 - q, s*stride + r] = K[q, r] for q < P
        K = np.stack([Kw[P - 1 :: -1] for *_, Kw in fulls])
        KT = np.zeros((len(whiches), T + P - 1, T, stride))
        for s in range(T):
            KT[:, s : s + P, s] = K
        KT = KT.reshape(len(whiches), T + P - 1, T * stride)
        for u in range(0, nb, T):
            L = min(T, nb - u)  # a last run of fewer than T blocks
            KL = KT[:, : L + P - 1, : L * stride].reshape(-1, L * stride)
            Y = KL @ v[m_a + u * stride : m_a + (u + L) * stride]
            i = u_a + u - (P - 1) - k_min
            out[:, i : i + L + P - 1] += Y.reshape(len(whiches), L + P - 1, -1)
    for o, which in zip(out, whiches):
        for sl, k_a, W in _polyphase_blocks(g, basis, j, which, k_min, k_max):
            o[k_a - k_min : k_a - k_min + len(W)] += W @ v[sl]
    return k_min, [np.moveaxis(o.reshape((-1,) + cols), 0, axis) for o in out]


def _correlate_1d(values, g, basis, j, whiches, k_min, k_max):
    """The 1D correlation.  For M < n each output equals scipy's
    `fftconvolve(values, kernel[::-1], mode="full")` at the stride lags bit
    for bit; the forward spectrum is taken once for every kernel, and each
    kernel's spectrum once per basis (`_kernel_spectrum`).  For M >= n, one
    product per polyphase block in block order: whole block u takes the
    rows K[u - k] of the `_full_blocks` table, an edge block its own."""
    stride, base, M = _axis_setup(g, basis, j)
    n = len(values)
    outs = []
    if M >= n:
        for which in whiches:
            blocks = list(_polyphase_blocks(g, basis, j, which, k_min, k_max))
            full = _full_blocks(g, basis, j, which, k_min, k_max)
            if full is not None:
                m_a, u_a, nb, K = full
                for u in range(u_a, u_a + nb):
                    ks = np.arange(max(u + 1 - len(K), k_min), min(u, k_max) + 1)
                    m = m_a + (u - u_a) * stride
                    blocks.append((slice(m, m + stride), ks[0], K[u - ks]))
            out = np.zeros(k_max - k_min + 1)
            for sl, k_a, W in sorted(blocks, key=lambda block: block[0].start):
                out[k_a - k_min : k_a - k_min + len(W)] += values[sl] @ W.T
            outs.append(out)
        return outs
    L = _next_fast_len(n + M)
    spectrum = np.fft.rfft(values, L)
    # conv[n'] = sum_m f_m kern[M - n' + m]; translate k reads index n' = M - base + k*stride
    idx = M - base + np.arange(k_min, k_max + 1) * stride
    for which in whiches:
        # a named operand, as in fftconvolve: numpy's complex product is not
        # bitwise commutative, and `spectrum * <temporary>` may be evaluated
        # in place in the temporary with the operands swapped
        kern_spectrum = _kernel_spectrum(g, basis, j, which, L)
        conv = np.fft.irfft(spectrum * kern_spectrum, L)
        outs.append(conv[idx])
    return outs


def _kernel_spectrum(g: Grid1D, basis: WaveletBasis, j: int, which: int,
                     L: int) -> np.ndarray:
    """`np.fft.rfft(_axis_kernel(g, basis, j, which)[::-1], L)`, read-only.

    The kernel depends on the axis only through its resolution, so the
    spectrum is kept on the basis under (L, resolution, j, which) and dies
    with it; past `_MAX_SPECTRA` the oldest goes.
    """
    key = (L, g.resolution_exponent, j, which)
    spectra = basis._spectra
    if key not in spectra:
        spectrum = np.fft.rfft(_axis_kernel(g, basis, j, which)[::-1], L)
        spectrum.flags.writeable = False
        if len(spectra) >= _MAX_SPECTRA:
            del spectra[next(iter(spectra))]
        spectra[key] = spectrum
    return spectra[key]


def _axis_place(coeffs: np.ndarray, k0: int, g: Grid1D, basis: WaveletBasis, j: int,
                which: int, axis: int = 0) -> np.ndarray:
    """Adjoint of `_axis_correlate`: sum_k c_k w(2^j x_m - k) on the grid.

    Grid index m sits in block u at offset r, m + base = u*stride + r, and
    only translates u - P..u reach it, so a block is sum_q c_(u-q) K[q, r]
    with the `_full_blocks` table K.  The blocks that lie wholly on the grid
    and meet a translate take one product of their translate windows against
    K; the at most two partial blocks at the axis ends take their own
    `_polyphase_blocks` kernels.  Where no translate reaches, the output is
    exactly 0.
    """
    stride, _base, M = _axis_setup(g, basis, j)
    P = M // stride
    c_mv = np.moveaxis(coeffs, axis, -1)
    nk = c_mv.shape[-1]
    out = np.zeros(c_mv.shape[:-1] + (g.count,))
    full = _full_blocks(g, basis, j, which, k0, k0 + nk - 1)
    if full is not None:
        m_a, u_a, nb, K = full
        # coefficients of translates u_a - P..u_a + nb - 1, zero outside k0..k0 + nk - 1
        padded = np.zeros(c_mv.shape[:-1] + (nb + P,))
        k_a, k_b = max(u_a - P, k0), min(u_a + nb, k0 + nk)
        padded[..., k_a - u_a + P : k_b - u_a + P] = c_mv[..., k_a - k0 : k_b - k0]
        # windows[..., u - u_a, i] = c_(u-P+i), so row i of K[::-1] has q = P - i
        windows = np.lib.stride_tricks.sliding_window_view(padded, P + 1, axis=-1)
        placed = windows @ K[::-1]
        out[..., m_a : m_a + nb * stride] = placed.reshape(c_mv.shape[:-1] + (-1,))
    for sl, k_a, W in _polyphase_blocks(g, basis, j, which, k0, k0 + nk - 1):
        out[..., sl] = c_mv[..., k_a - k0 : k_a - k0 + len(W)] @ W
    return np.moveaxis(out, -1, axis)


def _trim_translates(k0: int, nk: int, support_hull: tuple[float, float],
                     basis: WaveletBasis, j: int) -> tuple[int, int]:
    """Index window of translates whose support meets the significant support."""
    lo, hi = basis.support
    slo, shi = support_hull
    k_lo = int(np.ceil(2.0**j * slo - hi - 1e-9))
    k_hi = int(np.floor(2.0**j * shi - lo + 1e-9))
    i_lo = max(0, k_lo - k0)
    i_hi = min(nk, k_hi - k0 + 1)
    return i_lo, max(i_lo, i_hi)


def _admissible_jmax(grid) -> int:
    return min(g.resolution_exponent for g in grid.axes) - 2


def _tensor_correlate(f: GridFunction, basis: WaveletBasis, j: int, types,
                      hull) -> dict:
    """<f, psi^l_{j,k}> for each tensor type l in `types`, one axis at a time.

    The axes are walked from last to first, so the full-size array is
    correlated along its contiguous axis and the strided axes see only the
    partial results, already reduced to one value per translate.  The
    partial correlation of a type suffix is shared by every type that ends
    with it: in 2D the detail types take one correlation of f along axis 1
    with phi and psi, then one along axis 0 of each of the two partials,
    three `_axis_correlate` calls and five products against a kernel table
    in all.  Translates are trimmed to the significant support `hull`; types
    trimmed to nothing are left out.
    Returns {type: (per-axis first translates, values)} in type order.
    """
    axes = f.grid.axes
    fac = 2.0 ** (j * len(axes) / 2.0) * prod(g.spacing for g in axes)
    partial = {(): ((), f.values)}
    for axis in reversed(range(len(axes))):
        g = axes[axis]
        nxt = {}
        for suffix, (k0s, vals) in partial.items():
            whiches = [w for w in (0, 1)
                       if any(l[axis:] == (w,) + suffix for l in types)]
            if not whiches:
                continue
            k0, corrs = _axis_correlate(vals, g, basis, j, whiches, axis=axis)
            for which, corr in zip(whiches, corrs):
                i_lo, i_hi = _trim_translates(k0, corr.shape[axis], hull[axis],
                                              basis, j)
                if i_hi <= i_lo:
                    continue
                kept = corr[(slice(None),) * axis + (slice(i_lo, i_hi),)]
                nxt[(which,) + suffix] = ((k0 + i_lo,) + k0s,
                                          fac * kept if axis == 0 else kept)
        partial = nxt
    return dict(sorted(partial.items()))


def analyze(f: GridFunction, basis: WaveletBasis, j_min: int, j_max: int,
            with_coarse: bool = True) -> WaveletCoefficients:
    """Coefficients c_{j,lambda} of f over scales [j_min, j_max] by grid quadrature.

    Translates whose support misses the numerically significant support of f
    are omitted (they are exact zeros for compactly supported f).  When
    `with_coarse` is set, scaling-function coefficients at j_min are attached
    and the relative L^2 truncation residual is reported.
    """
    if j_min > j_max:
        raise ValueError(f"empty scale range [{j_min}, {j_max}]")
    jm = _admissible_jmax(f.grid)
    if j_max > jm:
        raise ValueError(
            f"j_max={j_max} too fine for the grid; admissible bound is {jm} "
            "(four points per wavelet oscillation)"
        )
    hull = f.significant_support()
    d = f.ndim
    details = [l for l in itertools.product((0, 1), repeat=d) if any(l)]
    scales = {}
    for j in range(j_min, j_max + 1):
        blocks = _tensor_correlate(f, basis, j, details, hull)
        if blocks:
            scales[j] = _pack(d, blocks)
    coarse = _coarse_block(f, basis, j_min, hull) if with_coarse else None
    out = WaveletCoefficients(d, j_min, j_max, scales, basis, coarse=coarse)
    l2 = lp_norm(f, 2.0)
    if l2 > 0:
        captured = out.total_energy() + out.coarse_energy()
        out.residual_l2 = float(np.sqrt(max(l2**2 - captured, 0.0)) / l2)
    else:
        out.residual_l2 = 0.0
    return out


def scaling_coefficients(f: GridFunction, basis: WaveletBasis, j: int):
    """<f, phi_{j,k}> for all overlapping translates, in the coarse-block layout."""
    return _coarse_block(f, basis, j, f.significant_support())


def _coarse_block(f: GridFunction, basis: WaveletBasis, j: int, hull):
    return _pack(f.ndim, _tensor_correlate(f, basis, j, [(0,) * f.ndim], hull),
                 coarse=True)


def synthesize(c: WaveletCoefficients, grid) -> GridFunction:
    """Pointwise sum of tabulated wavelets weighted by the coefficients.

    When the coefficient object carries a coarse scaling block (from
    `analyze` with with_coarse), it is placed as well, so the round trip
    misses only the energy above j_max plus quadrature error.
    """
    axes = grid.axes
    if len(axes) != c.dim:
        raise ValueError(f"{c.dim}D coefficients need a {c.dim}D grid")
    if c.j_max > min(g.resolution_exponent for g in axes):
        raise ValueError(f"grid does not resolve scale {c.j_max}")
    terms = [(j, c.blocks(j)) for j in c.scales]
    if c.coarse is not None:
        terms.append((c.j_min, _unpack(c.dim, c.coarse, coarse=True)))
    out = np.zeros(grid.shape)
    for j, blocks in terms:
        for l, (k0s, vals) in blocks.items():
            part = vals
            for axis in range(c.dim):
                part = _axis_place(part, k0s[axis], axes[axis], c.basis, j,
                                   which=l[axis], axis=axis)
            part *= 2.0 ** (j * c.dim / 2.0)  # a fresh array, scaled in place
            out += part
    return GridFunction(grid, out)


def dilate_coeffs(c: WaveletCoefficients, m: int) -> WaveletCoefficients:
    """Exact coefficient action of f -> f(2^m .): scale shift by m, values
    times 2^(-m*d/2)."""
    if not (abs(c.j_min + m) <= _MAX_ABS_SCALE and abs(c.j_max + m) <= _MAX_ABS_SCALE):
        raise ValueError(f"dilation by m={m} pushes scales outside +-{_MAX_ABS_SCALE}")
    fac = 2.0 ** (-m * c.dim / 2.0)

    def scaled(entry, coarse=False):
        blocks = _unpack(c.dim, entry, coarse)
        return _pack(c.dim, {l: (k0s, fac * v) for l, (k0s, v) in blocks.items()},
                     coarse)

    scales = {j + m: scaled(entry) for j, entry in c.scales.items()}
    coarse = None if c.coarse is None else scaled(c.coarse, coarse=True)
    return WaveletCoefficients(c.dim, c.j_min + m, c.j_max + m, scales, c.basis,
                               coarse=coarse, residual_l2=c.residual_l2)


def pyramid_details(s_fine: np.ndarray, k0: int, basis: WaveletBasis,
                    levels: int):
    """Mallat filter-bank recursion from fine-scale scaling coefficients.

    Given s[i] = <f, phi_{J, k0+i}> (zero outside the array), returns
    ([(k0_detail, d), ...] one per level downward, (k0_final, s)).  With the
    tabulated support starting at `lo`, one step reads
    <f, w_{j-1,k}> = sum_i filt[i] * <f, phi_{j, 2k + lo + i}>.
    Wholly filter-based, so it cross-checks the quadrature path of `analyze`.
    """
    h = basis.scaling_filter
    g = basis.wavelet_filter
    lo, _hi = basis.support
    L = len(h)
    s = np.asarray(s_fine, dtype=float)
    details = []
    for _ in range(levels):
        k_lo = int(np.ceil((k0 - lo - (L - 1)) / 2))
        k_hi = int(np.floor((k0 + len(s) - 1 - lo) / 2))
        ks = np.arange(k_lo, k_hi + 1)
        new_s = np.zeros(len(ks))
        new_d = np.zeros(len(ks))
        for i in range(L):
            src = 2 * ks + lo + i - k0
            ok = (src >= 0) & (src < len(s))
            new_s[ok] += h[i] * s[src[ok]]
            new_d[ok] += g[i] * s[src[ok]]
        details.append((k_lo, new_d))
        s, k0 = new_s, k_lo
    return details, (k0, s)

