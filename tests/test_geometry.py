import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.special import erf

from besovsampling.geometry import (
    DECLARED_CONSTANTS,
    VARIANTS,
    SamplingGeometry2D,
    SamplingSequence1D,
    _ball_indices,
    _gauss_square_integral,
    _random_radii,
    build_geometry,
    carrier_measure,
    cell_measures,
    check_conditions,
    cover_multiplicity,
    equiv_lhs_for_probe,
    equiv_ratio_for_probe,
    geometry_extent,
    geometry_from_json_dict,
    geometry_to_json_dict,
    random_sequence,
    regular_sequence,
)

WIN = (-8.0, 8.0 - 2.0**-7)


def loop_sequence_points(b, interval, seed, strict=True):
    """`random_sequence`'s points as its loop drew them before the gaps were
    drawn in chunks: one scalar draw and one add per gap."""
    lo, hi = float(interval[0]), float(interval[1])
    L = hi - lo
    rng = np.random.default_rng(seed)
    margin = 2.0 * b / L
    gaps = []
    total = 0.0
    while total < L:
        if strict:
            g = rng.uniform(b / 2 * (1 + margin), b)
        else:
            g = rng.uniform(0.05 * b, b * (1 - margin))
        gaps.append(g)
        total += g
    gaps = np.asarray(gaps) * (L / total)
    pts = lo + np.concatenate([[0.0], np.cumsum(gaps)])
    pts[-1] = hi
    return pts


class TestSequences:
    @pytest.mark.parametrize("strict", [True, False])
    def test_chunked_draws_equal_the_loop(self, strict):
        interval = (-16.0, 16.0 - 2.0**-10)
        for seed in range(40):
            for b in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 0.3):
                got = random_sequence(b, interval, seed, strict=strict).points
                ref = loop_sequence_points(b, interval, seed, strict)
                assert np.array_equal(got, ref), (seed, b)

    def test_strict_gaps(self):
        seq = random_sequence(2.0**-4, (-16, 16), seed=7, strict=True)
        g = seq.gaps
        assert g.min() >= 2.0**-5 * (1 - 1e-12)
        assert g.max() <= 2.0**-4 * (1 + 1e-12)

    def test_loose_gaps(self):
        seq = random_sequence(2.0**-4, (-16, 16), seed=7, strict=False)
        assert seq.gaps.max() <= 2.0**-4
        assert seq.gaps.min() > 0

    def test_determinism(self):
        a = random_sequence(0.1, (-16, 16), seed=3)
        b = random_sequence(0.1, (-16, 16), seed=3)
        assert np.array_equal(a.points, b.points)

    def test_regular_override(self):
        seq = regular_sequence(0.125, (-16, 16))
        assert np.allclose(seq.gaps, 0.125, rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            regular_sequence(0.3, (-16, 16))

    def test_cells_tile_exactly(self):
        seq = random_sequence(2.0**-3, (-16, 16), seed=5)
        assert seq.cell_lengths.sum() == pytest.approx(32.0, abs=1e-12)
        cells = seq.cells
        assert np.allclose(cells[1:, 0], cells[:-1, 1], atol=1e-14)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(1.0, (0.0, 2.0), seed=0)

    def test_lattice_snap(self):
        h = 2.0**-10
        seq = random_sequence(2.0**-4, (-16, 16), seed=1, lattice=h)
        assert np.max(np.abs(seq.points / h - np.round(seq.points / h))) < 1e-9
        with pytest.raises(ValueError, match="lattice"):
            random_sequence(2.0**-4, (-16, 16), seed=1, lattice=2.0**-5)

    def test_invalid_sequences_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            SamplingSequence1D(np.array([0.0, 1.0, 0.5]), b=2.0)
        with pytest.raises(ValueError, match="gap"):
            SamplingSequence1D(np.array([0.0, 0.5, 3.0]), b=1.0)
        with pytest.raises(ValueError, match="strict"):
            SamplingSequence1D(np.array([0.0, 0.1, 1.0, 2.0]), b=1.0,
                               strict=True)


class TestBuilders:
    def test_hyperplane_regular(self):
        b = 0.5
        heights = np.arange(-8.0, 8.0 + 1e-12, b)
        g = build_geometry("hyperplane-union",
                           {"b": b, "heights": heights.tolist(), "window": WIN})
        diam = np.linalg.norm(g.cell_b - g.cell_a, axis=1)
        interior = ~g.boundary_flags
        assert np.allclose(diam[interior], b, atol=1e-12)

    def test_circle_radii_contract(self):
        b = 0.25
        radii = (3 * b / 4) * np.arange(1, 30)
        g = build_geometry("concentric-circles",
                           {"b": b, "radii": radii.tolist(), "window": WIN})
        gaps = np.diff(radii)
        assert np.all((gaps > b / 2) & (gaps < b))
        # radial cell lengths are (r_{n+1} - r_{n-1}) / 2 for interior circles
        meas = cell_measures(g)
        n_per = len(g.anchors) // len(radii)
        for n in range(1, len(radii) - 1):
            expected = (radii[n + 1] - radii[n - 1]) / 2.0
            got = meas[n * n_per]
            assert abs(got - expected) < 1e-10

    def test_circles_reject_bad_gaps(self):
        with pytest.raises(ValueError, match="gaps"):
            build_geometry("concentric-circles",
                           {"b": 0.25, "radii": [0.2, 0.3, 0.8], "window": WIN})

    def test_curve_family_squares(self):
        b = 0.25
        g = build_geometry("curve-family",
                           {"b": b, "seed": 0, "straight": True, "window": WIN})
        meas = cell_measures(g)
        assert np.allclose(meas, (b / 2.0) ** 2, atol=1e-14)
        # squares on distinct lattice columns are disjoint
        xs = np.unique(g.cell_centers[:, 0])
        assert np.min(np.diff(xs)) >= b - 1e-12

    @pytest.mark.parametrize("variant", ["spiral", "concentric-circles",
                                         "hyperplane-union", "perturbed-graph"])
    def test_segment_cell_measures_are_the_norm(self, geometry_of, variant):
        # `cell_measures`' m = 1 body before it squared the two columns itself
        g = geometry_of(variant)
        assert np.array_equal(cell_measures(g),
                              np.linalg.norm(g.cell_b - g.cell_a, axis=1))

    def test_perturbed_graph_keeps_the_nodes_whose_cell_meets_the_window(self):
        params = {"b": 2.0**-3, "seed": 1, "window": WIN}
        g = build_geometry("perturbed-graph", params)
        # the same lines unbent: default amp = b and freq = 0.5
        flat = build_geometry("hyperplane-union", params)
        bend = 2.0**-3 * np.sin(0.5 * flat.anchors[:, 0])
        lo, hi = WIN
        meets = (flat.cell_a[:, 1] + bend < hi) & (flat.cell_b[:, 1] + bend > lo)
        assert 0 < np.count_nonzero(~meets)
        assert np.array_equal(g.anchors[:, 0], flat.anchors[meets, 0])
        assert np.all(cell_measures(g) > 0)
        assert np.all((g.anchors[:, 1] >= lo) & (g.anchors[:, 1] <= hi))

    def test_perturbed_slope_bound(self):
        with pytest.raises(ValueError, match="slope"):
            build_geometry("perturbed-graph",
                           {"b": 0.25, "amp": 2.0, "freq": 3.0, "window": WIN})

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            build_geometry("moebius", {"b": 0.25})

    @pytest.mark.parametrize("variant, key", [
        ("hyperplane-union", "drop_lin"),
        ("hyperplane-union", "amp"),  # only a perturbed graph bends
        ("curve-family", "radii"),
        ("spiral", "step"),
    ])
    def test_unknown_param_rejected(self, variant, key):
        with pytest.raises(ValueError, match=f"param\\(s\\) \\['{key}'\\]"):
            build_geometry(variant, {"b": 0.5, "window": WIN, key: 3})

    @pytest.mark.parametrize("variant", ["spiral", "concentric-circles"])
    def test_window_too_small_for_the_radii(self, variant):
        with pytest.raises(ValueError, match=r"b=0\.5 .* 7b/4 = 0\.875 .*"
                                             r"\[-0\.8, 0\.8\] reaches 0\.8"):
            build_geometry(variant, {"b": 0.5, "window": (-0.8, 0.8)})

    @pytest.mark.parametrize("key", ["C0", "C0_equiv", "D"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_declared_constants_must_be_positive(self, key, value):
        with pytest.raises(ValueError, match="must be positive"):
            build_geometry("spiral", {"b": 0.5, "window": WIN, key: value})

    def test_1d_regular_cell_measures(self):
        seq = regular_sequence(0.25, (-16, 16))
        m = cell_measures(seq)
        assert np.allclose(m[1:-1], 0.25, atol=1e-14)

    def test_sequence_is_the_point_sampling_set(self):
        seq = random_sequence(0.25, (-4.0, 4.0), 2)
        assert (seq.m, seq.d) == (1, 1)
        assert seq.anchors is seq.points
        assert np.array_equal(seq.anchor_weights, np.ones(len(seq.points)))
        assert np.array_equal(cell_measures(seq), seq.cell_lengths)


class TestConditions:
    def test_hyperplane_exact_tiling(self):
        g = build_geometry("hyperplane-union", {"b": 2.0**-3, "seed": 2,
                                                "window": WIN})
        rep = check_conditions(g, n_probes=150, seed=4)
        assert rep.equiv_C0 <= 1.0 + 1e-3
        assert rep.passes["equiv"]

    def test_dropped_line_fails_lower_bound(self):
        b = 2.0**-3
        intact = build_geometry("hyperplane-union", {"b": b, "seed": 2,
                                                     "window": WIN})
        heights = np.asarray(intact.params["heights"])
        mid = len(heights) // 2
        broken = build_geometry("hyperplane-union",
                                {"b": b, "seed": 2, "drop_line": mid,
                                 "window": WIN})
        probe = (0.0, float(heights[mid]))
        good = equiv_ratio_for_probe(intact, probe, b)
        bad = equiv_ratio_for_probe(broken, probe, b)
        assert good > 1.0 - 1e-3
        assert bad < 1.0 / broken.C0_equiv

    @pytest.mark.parametrize("variant,extra", [
        ("perturbed-graph", {"amp": 0.1, "freq": 2.0}),
        ("curve-family", {}),
        ("concentric-circles", {}),
        ("spiral", {}),
    ])
    def test_variants_pass(self, variant, extra):
        g = build_geometry(variant, {"b": 2.0**-3, "seed": 1, "window": WIN,
                                     **extra})
        rep = check_conditions(g, n_probes=150, seed=4)
        assert rep.all_pass(), rep.passes
        assert math.isfinite(rep.equiv_C0) and math.isfinite(rep.mes_C0)

    def test_covering_multiplicity(self):
        g = build_geometry("curve-family", {"b": 2.0**-3, "seed": 1,
                                            "window": WIN})
        rep = check_conditions(g, n_probes=150, seed=4)
        assert rep.multiplicity_max is not None
        assert rep.multiplicity_max <= g.D

    def test_cell_regularity_two_sided(self):
        g = build_geometry("concentric-circles", {"b": 2.0**-3, "seed": 1,
                                                  "window": WIN})
        rep = check_conditions(g, n_probes=200, seed=9)
        assert rep.mes2_lower > 1.0 / g.C0
        assert rep.mes2_upper < g.C0

    def test_determinism(self):
        g = build_geometry("concentric-circles", {"b": 2.0**-3, "seed": 1,
                                                  "window": WIN})
        r1 = check_conditions(g, n_probes=120, seed=5)
        r2 = check_conditions(g, n_probes=120, seed=5)
        assert r1.to_dict() == r2.to_dict()

    def test_mes_constant_stability_circles(self):
        # Monte-Carlo max stabilizes as the probe count grows 10x
        g = build_geometry("concentric-circles", {"b": 2.0**-3, "seed": 1,
                                                  "window": WIN})
        small = check_conditions(g, n_probes=1000, seed=11)
        big = check_conditions(g, n_probes=10000, seed=11)
        rel = abs(big.mes_C0 - small.mes_C0) / small.mes_C0
        assert rel < 0.2


@pytest.fixture(scope="module")
def geometry_of():
    """variant -> its b=2^-3 geometry, built on first use and freed with the
    module (the spiral alone holds ~0.5M anchors)."""
    built = {}

    def get(variant):
        if variant not in built:
            built[variant] = build_geometry(
                variant, {"b": 2.0**-3, "seed": 1, "window": WIN})
        return built[variant]
    return get


def _segment_integral_reference(a, bpt, c, w):
    """The exact probe integral along segments a -> bpt on (N, 2) rows, as
    `_gauss_segment_integral` computed it before it worked on columns."""
    d = bpt - a
    L = np.linalg.norm(d, axis=1)
    L = np.where(L == 0, 1e-300, L)
    u = d / L[:, None]
    rel = c[None, :] - a
    t0 = np.einsum("ij,ij->i", rel, u)
    h2 = np.einsum("ij,ij->i", rel, rel) - t0**2
    pref = np.exp(-np.pi * np.maximum(h2, 0.0) / w**2)
    srt = math.sqrt(math.pi) / w
    return pref * (w / 2.0) * (erf(srt * (L - t0)) - erf(srt * (-t0)))


def _full_scan_lhs(g, c, w):
    """The probe integral over every cell, without the index."""
    c = np.asarray(c, dtype=float)
    if g.m == 1:
        vals = _segment_integral_reference(g.cell_a, g.cell_b, c, w)
    else:
        vals = _gauss_square_integral(g.cell_centers, g.cell_radius, c, w)
    return float(np.sum(g.anchor_weights * vals))


def _full_scan_carrier_measure(g, x, R):
    inside = np.linalg.norm(g.anchors - x[None, :], axis=1) <= R
    if g.m == 1:
        return float(np.sum(g.anchor_weights[inside]))
    return float(np.count_nonzero(inside))


def _full_scan_multiplicity(g, pts):
    mult = np.zeros(len(pts), dtype=int)
    for e in g.anchors:
        mult += ((np.abs(pts[:, 0] - e[0]) <= g.b)
                 & (np.abs(pts[:, 1] - e[1]) <= g.b))
    return mult


IN_WIN = st.floats(min_value=WIN[0], max_value=WIN[1])


def _stacked_geometry(variant, params):
    """`build_geometry` as it was: per-line, per-curve, per-circle and
    per-turn arrays collected in lists and stacked, one constructor per
    variant; the carrier step 2^-7 and rmax = min(|lo|, |hi|) - b."""
    C0, C0_equiv, D = DECLARED_CONSTANTS[variant]
    b, window = float(params["b"]), tuple(params.get("window", (-8.0, 8.0)))
    step, seed = 2.0**-7, params.get("seed", 0)
    lo, hi = window
    rmax = float(min(abs(lo), abs(hi)) - b)
    if variant in ("hyperplane-union", "perturbed-graph"):
        if "heights" in params:
            heights = np.asarray(params["heights"], dtype=float)
        else:
            heights = random_sequence(b, window, seed,
                                      strict=params.get("strict", True)).points
        heights_full = heights.copy()
        mids = (heights[:-1] + heights[1:]) / 2.0
        y_lo = np.concatenate([[heights[0] - b / 2], mids])
        y_hi = np.concatenate([mids, [heights[-1] + b / 2]])
        if params.get("drop_line") is not None:
            keep = np.ones(len(heights), bool)
            keep[int(params["drop_line"])] = False
            heights, y_lo, y_hi = heights[keep], y_lo[keep], y_hi[keep]
        n = max(2, int(math.ceil((hi - lo) / step)) + 1)
        xs = np.linspace(lo, hi, n)
        w = np.full(n, (hi - lo) / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        anchors, weights, line_idx = [], [], []
        for i, y in enumerate(heights):
            anchors.append(np.column_stack([xs, np.full(n, y)]))
            weights.append(w)
            line_idx.append(np.full(n, i, dtype=int))
        anchors, weights = np.vstack(anchors), np.concatenate(weights)
        line_idx = np.concatenate(line_idx)
        if variant == "perturbed-graph":
            amp, freq = float(params.get("amp", b)), float(params.get("freq", 0.5))
            bend = amp * np.sin(freq * anchors[:, 0])
            slope = amp * freq * np.cos(freq * anchors[:, 0])
            weights = weights * np.sqrt(1.0 + slope**2)
            anchors = anchors.copy()
            anchors[:, 1] = np.clip(anchors[:, 1] + bend, lo, hi)
        else:
            bend = np.zeros(len(anchors))
        raw_lo, raw_hi = y_lo[line_idx] + bend, y_hi[line_idx] + bend
        inside = (raw_lo < hi) & (raw_hi > lo)
        anchors, weights = anchors[inside], weights[inside]
        raw_lo, raw_hi = raw_lo[inside], raw_hi[inside]
        ca = np.column_stack([anchors[:, 0], np.clip(raw_lo, lo, hi)])
        cb = np.column_stack([anchors[:, 0], np.clip(raw_hi, lo, hi)])
        flags = (raw_lo < lo) | (raw_hi > hi)
        return SamplingGeometry2D(
            variant, 1, b, C0, D, window, anchors, weights, C0_equiv, flags,
            cell_a=ca, cell_b=cb,
            params={"heights": heights_full.tolist(), "seed": seed, "step": step,
                    **({k: params[k] for k in ("amp", "freq", "drop_line", "strict")
                        if params.get(k) is not None})})
    if variant == "curve-family":
        rng = np.random.default_rng(seed)
        ks = np.arange(math.ceil((lo + b / 4) / b), math.floor((hi - b / 4) / b) + 1)
        ys = np.arange(lo + b / 2, hi - b / 2 + 1e-12, b)
        anchors = []
        for k in ks:
            if params.get("straight", False):
                wig = np.zeros(len(ys))
            else:
                ph = rng.uniform(0, 2 * np.pi)
                wig = (b / 4) * np.sin(2 * np.pi * ys / (hi - lo) * rng.integers(1, 4) + ph)
            anchors.append(np.column_stack([b * k + wig, ys]))
        anchors = np.vstack(anchors)
        centers = anchors.copy()
        centers[:, 0] = np.round(centers[:, 0] / b) * b
        return SamplingGeometry2D(
            variant, 2, b, C0, D, window, anchors, np.ones(len(anchors)),
            C0_equiv, np.zeros(len(anchors), bool),
            cell_centers=centers, cell_radius=b / 4.0,
            params={"seed": seed, "n_curves": len(ks),
                    **({"straight": params["straight"]}
                       if params.get("straight") is not None else {})})
    if variant == "concentric-circles":
        if "radii" in params:
            radii = np.asarray(params["radii"], dtype=float)
        else:
            radii = _random_radii(b, rmax, seed)
            if radii[-1] > rmax:
                radii = radii[:-1]
        gaps = np.diff(radii)
        mids = (radii[:-1] + radii[1:]) / 2.0
        seg_lo = np.concatenate([[0.0], mids])
        seg_hi = np.concatenate(
            [mids, [radii[-1] + gaps[-1] / 2 if len(gaps) else radii[-1] + b / 2]])
        seg_hi = np.minimum(seg_hi, rmax + b)
        anchors, weights, ca, cb, flags = [], [], [], [], []
        for i, r in enumerate(radii):
            n = max(8, int(math.ceil(2 * np.pi * r / step)))
            th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
            u = np.column_stack([np.cos(th), np.sin(th)])
            anchors.append(r * u)
            weights.append(np.full(n, 2 * np.pi * r / n))
            ca.append(seg_lo[i] * u)
            cb.append(seg_hi[i] * u)
            flags.append(np.full(n, i == len(radii) - 1))
        return SamplingGeometry2D(
            variant, 1, b, C0, D, window, np.vstack(anchors), np.concatenate(weights),
            C0_equiv, np.concatenate(flags), cell_a=np.vstack(ca), cell_b=np.vstack(cb),
            params={"radii": radii.tolist(), "seed": seed, "step": step, "rmax": rmax})
    radii = _random_radii(b, rmax, seed)
    rho = PchipInterpolator(2 * np.pi * np.arange(len(radii)), radii)
    n_per_turn = max(32, int(2 * math.pi * rmax / step))
    anchors, weights, ca, cb, flags = [], [], [], [], []
    for k in range(len(radii) - 1):
        th = np.linspace(2 * np.pi * k, 2 * np.pi * (k + 1), n_per_turn, endpoint=False)
        r = rho(th)
        dr = rho.derivative()(th)
        u = np.column_stack([np.cos(th), np.sin(th)])
        anchors.append(r[:, None] * u)
        weights.append(np.sqrt(r**2 + dr**2) * (2 * np.pi / n_per_turn))
        ca.append((radii[k - 1] if k >= 1 else 0.0) * u)
        cb.append(radii[k + 1] * u)
        flags.append(np.full(n_per_turn, k >= len(radii) - 2))
    return SamplingGeometry2D(
        variant, 1, b, C0, D, window, np.vstack(anchors), np.concatenate(weights),
        C0_equiv, np.concatenate(flags), cell_a=np.vstack(ca), cell_b=np.vstack(cb),
        params={"radii": radii.tolist(), "seed": seed, "n_per_turn": n_per_turn,
                "rmax": rmax})


HALF = (-4.0, 4.0)
OFF_LATTICE = (-3.9375, 3.875)
# four parameter sets per variant: seeds, b and windows, the dropped line,
# given heights and radii, a bent graph and straight curves
BUILDS = {
    "hyperplane-union": [
        {"b": 0.5, "seed": 0, "window": WIN},
        {"b": 0.25, "seed": 2, "window": OFF_LATTICE, "drop_line": 5},
        {"b": 0.5, "heights": np.arange(-8.0, 8.0 + 1e-12, 0.5).tolist(), "window": WIN},
        {"b": 2.0**-3, "seed": 4, "window": HALF, "strict": False},
    ],
    "perturbed-graph": [
        {"b": 0.5, "seed": 1, "window": WIN},
        {"b": 0.25, "seed": 2, "window": HALF, "drop_line": 0},
        {"b": 0.5, "heights": np.arange(-4.0, 4.0 + 1e-12, 0.375).tolist(),
         "window": HALF, "amp": 1.0, "freq": 0.9},
        {"b": 2.0**-3, "seed": 4, "window": OFF_LATTICE, "amp": 0.25, "freq": 3.0},
    ],
    "curve-family": [
        {"b": 0.5, "seed": 0, "window": WIN},
        {"b": 0.25, "seed": 5, "window": OFF_LATTICE},
        {"b": 0.25, "seed": 1, "window": WIN, "straight": True},
        {"b": 2.0**-3, "seed": 6, "window": HALF, "straight": False},
    ],
    "concentric-circles": [
        {"b": 0.5, "seed": 0, "window": WIN},
        {"b": 0.25, "seed": 3, "window": OFF_LATTICE},
        {"b": 0.25, "radii": (0.1875 * np.arange(1, 30)).tolist(), "window": WIN},
        {"b": 0.5, "radii": [0.375], "window": HALF},
    ],
    "spiral": [
        {"b": 0.5, "seed": 0, "window": WIN},
        {"b": 0.25, "seed": 3, "window": OFF_LATTICE},
        {"b": 2.0**-3, "seed": 6, "window": HALF},
        {"b": 0.5, "seed": 9, "window": HALF},
    ],
}


@pytest.mark.parametrize("variant, params", [
    (v, p) for v, sets in BUILDS.items() for p in sets],
    ids=[f"{v}-{i}" for v, sets in BUILDS.items() for i in range(len(sets))])
def test_build_matches_the_stacked_build(variant, params):
    g, ref = build_geometry(variant, params), _stacked_geometry(variant, params)
    for name in ("anchors", "anchor_weights", "cell_a", "cell_b", "cell_centers",
                 "boundary_flags"):
        a, r = getattr(g, name), getattr(ref, name)
        assert (a is None and r is None) or (
            np.array_equal(a, r) and a.dtype == r.dtype and a.shape == r.shape), name
    assert (g.m, g.cell_radius, g.params) == (ref.m, ref.cell_radius, ref.params)
    assert check_conditions(g, n_probes=40, seed=2).to_dict() == \
        check_conditions(ref, n_probes=40, seed=2).to_dict()


@pytest.mark.parametrize("variant, params", [
    (v, p) for v, sets in BUILDS.items() for p in sets],
    ids=[f"{v}-{i}" for v, sets in BUILDS.items() for i in range(len(sets))])
def test_every_anchor_lies_in_the_extent(variant, params):
    """The command line checks that the grid covers a spec's anchors by
    `geometry_extent`, before it builds the spec: given heights stick out of
    the window, and the radial variants end at their outer radius."""
    spec = {"variant": variant, "b": params["b"], "window": list(params["window"]),
            "params": {k: v for k, v in params.items() if k not in ("b", "window")}}
    lo, hi = geometry_extent(spec)
    anchors = geometry_from_json_dict(spec).anchors
    assert lo <= anchors.min() and anchors.max() <= hi
    if variant in ("hyperplane-union", "perturbed-graph"):
        assert (lo, hi) == (anchors.min(), anchors.max())


def test_the_extent_checks_the_spec_without_building_it(monkeypatch):
    def no_anchors(*args):
        raise AssertionError("an anchor was built")

    monkeypatch.setattr(np, "column_stack", no_anchors)
    monkeypatch.setattr(np, "tile", no_anchors)
    spec = {"variant": "spiral", "b": 0.25, "window": [-4.0, 4.0]}
    for variant in VARIANTS:
        geometry_extent({**spec, "variant": variant})
    with pytest.raises(ValueError, match="seed"):
        geometry_extent({**spec, "params": {"seed": "x"}})
    with pytest.raises(ValueError, match="widen the window"):
        geometry_extent({**spec, "window": [-0.3, 0.3]})


class TestSpatialIndex:
    @settings(deadline=None, max_examples=60)
    @given(variant=st.sampled_from(VARIANTS), cx=IN_WIN, cy=IN_WIN,
           scale=st.floats(min_value=1.0, max_value=4.0))
    def test_probe_integral_matches_full_scan(self, geometry_of, variant, cx,
                                              cy, scale):
        g = geometry_of(variant)
        w = scale * g.b
        fast = equiv_lhs_for_probe(g, (cx, cy), w)
        slow = _full_scan_lhs(g, (cx, cy), w)
        # the cells left out are beyond 7w, where the probe is < exp(-49 pi)
        dropped = math.exp(-49 * math.pi) * float(
            np.sum(g.anchor_weights * cell_measures(g)))
        assert abs(fast - slow) <= 1e-12 * slow + dropped

    def test_cell_reaching_far_from_its_anchor(self):
        # one anchor at the foot of a 10-long cell; the probe sits at the
        # cell's far end, 10 away from the anchor and 100 widths
        g = SamplingGeometry2D(
            "hyperplane-union", 1, 1.0, 10.0, 4.0, (-16.0, 16.0),
            anchors=np.array([[0.0, 0.0]]), anchor_weights=np.array([1.0]),
            C0_equiv=1.1, boundary_flags=np.array([False]),
            cell_a=np.array([[0.0, 0.0]]), cell_b=np.array([[0.0, 10.0]]))
        probe, w = (0.0, 10.0), 0.1
        assert equiv_lhs_for_probe(g, probe, w) == pytest.approx(
            _full_scan_lhs(g, probe, w), rel=1e-12)
        assert _full_scan_lhs(g, probe, w) > 0.4 * w

    @settings(deadline=None, max_examples=60)
    @given(variant=st.sampled_from(VARIANTS), cx=IN_WIN, cy=IN_WIN,
           log_r=st.floats(min_value=math.log(2.0**-4), max_value=math.log(4.0)))
    def test_carrier_measure_matches_full_scan(self, geometry_of, variant, cx,
                                               cy, log_r):
        g = geometry_of(variant)
        x = np.array([cx, cy])
        R = math.exp(log_r)
        assert carrier_measure(g, x, R) == _full_scan_carrier_measure(g, x, R)

    def test_carrier_measure_of_concentric_circles(self, geometry_of):
        # oracle: a ball at the origin that holds the circles r_i < R whole
        # has length 2 pi sum r_i.  Each weight 2 pi r_i / count_i is within
        # eps relative (two roundings), a sum of n terms within (n - 1) eps / 2
        # and the k radii are summed from n >= 8k anchors, so the two sides
        # differ by at most (n + k + 2) eps / 2 <= n eps relative
        g = geometry_of("concentric-circles")
        radii = np.asarray(g.params["radii"])
        dist = np.linalg.norm(g.anchors, axis=1)
        eps = np.finfo(float).eps
        for k in range(1, len(radii)):
            R = (radii[k - 1] + radii[k]) / 2.0
            want = 2 * np.pi * np.sum(radii[:k])
            n = np.count_nonzero(dist <= R)
            assert abs(carrier_measure(g, np.zeros(2), R) - want) <= n * eps * want, k

    def test_carrier_measure_with_anchors_on_the_sphere(self, geometry_of):
        # anchors at distance R from x: straight curves put them on a dyadic
        # lattice, b (and one ulp below b) from an anchor, and the nodes of a
        # circle lie at its radius from the origin, up to their rounding
        lattice = build_geometry("curve-family", {"b": 2.0**-3, "seed": 0,
                                                  "straight": True, "window": WIN})
        e = lattice.anchors[len(lattice.anchors) // 2]
        circles = geometry_of("concentric-circles")
        r = circles.params["radii"][20]
        balls = [(lattice, e, lattice.b), (lattice, e, np.nextafter(lattice.b, 0.0)),
                 (circles, np.zeros(2), r)]
        outer_differs = []
        for g, x, R in balls:
            counts = [g.anchor_index.query_ball_point(x, R * f, return_length=True)
                      for f in (1 - 1e-9, 1 + 1e-9)]
            assert counts[0] < counts[1]  # the norm test decides
            want = _full_scan_carrier_measure(g, x, R)
            assert carrier_measure(g, x, R) == want
            outer = _full_scan_carrier_measure(g, x, R * (1 + 1e-9))
            outer_differs.append(outer != want)
        # the larger ball alone would miscount
        assert outer_differs == [False, True, True]

    def test_multiplicity_matches_full_scan(self, geometry_of):
        g = geometry_of("curve-family")
        pts = np.random.default_rng(3).uniform(WIN[0], WIN[1], size=(500, 2))
        assert np.array_equal(cover_multiplicity(g, pts),
                              _full_scan_multiplicity(g, pts))

    def test_multiplicity_counts_cube_boundary(self):
        # straight curves: anchors (b k, y_j) on a dyadic lattice, so these
        # points sit at l-inf distance exactly b from anchors
        g = build_geometry("curve-family", {"b": 2.0**-3, "seed": 0,
                                            "straight": True, "window": WIN})
        b = g.b
        e = g.anchors[len(g.anchors) // 2]
        pts = np.array([e + (b, 0.0), e + (b / 2, b), e + (-b, -b)])
        strict = np.array([np.count_nonzero(np.max(np.abs(g.anchors - p), axis=1) < b)
                           for p in pts])
        mult = cover_multiplicity(g, pts)
        assert np.array_equal(mult, _full_scan_multiplicity(g, pts))
        assert np.all(mult > strict)

    def test_ball_indices_match_query_ball_point(self, geometry_of):
        # straight curves put the anchors on a dyadic lattice, so a lattice
        # neighbour sits at distance exactly b
        lattice = build_geometry("curve-family", {"b": 2.0**-3, "seed": 0,
                                                  "straight": True, "window": WIN})
        e = lattice.anchors[len(lattice.anchors) // 2]
        rng = np.random.default_rng(4)
        g = geometry_of("concentric-circles")
        balls = [(g, np.array([100.0, -100.0]), 1.0),  # empty
                 (g, g.anchors[1234], 0.0),  # an anchor at the centre, r = 0
                 (lattice, e, lattice.b)]  # anchors at distance exactly r
        balls += [(g, rng.uniform(WIN[0], WIN[1], size=2), r)
                  for r in rng.uniform(0.0, 2.0, size=20)]
        sizes = []
        for geo, x, r in balls:
            got = _ball_indices(geo.anchor_index, x, r)
            want = sorted(geo.anchor_index.query_ball_point(x, r))
            assert got.dtype == np.intp
            assert np.array_equal(got, np.array(want, dtype=np.intp))
            sizes.append(len(got))
        assert sizes[0] == 0 and sizes[1] >= 1 and max(sizes[3:]) > 1000
        exact = np.linalg.norm(lattice.anchors - e, axis=1) == lattice.b
        assert np.all(np.isin(np.flatnonzero(exact),
                              _ball_indices(lattice.anchor_index, e, lattice.b)))
        assert np.count_nonzero(exact) >= 2

    @pytest.mark.parametrize("variant", ["curve-family", "concentric-circles"])
    def test_empty_neighbourhoods(self, geometry_of, variant):
        g = geometry_of(variant)
        far = np.array([100.0, -100.0])
        assert equiv_lhs_for_probe(g, far, g.b) == 0.0
        assert equiv_ratio_for_probe(g, far, g.b) == 0.0
        assert carrier_measure(g, far, 1.0) == 0.0
        assert cover_multiplicity(g, far[None, :]).tolist() == [0]

    def test_multiplicity_of_no_points(self, geometry_of):
        mult = cover_multiplicity(geometry_of("curve-family"), np.empty((0, 2)))
        assert mult.shape == (0,) and mult.dtype.kind == "i"


def _bench_rule():
    """bench/check.py's comparison: floats to rtol 1e-9 and atol 1e-12,
    everything else exactly."""
    path = Path(__file__).resolve().parents[1] / "bench" / "check.py"
    spec = importlib.util.spec_from_file_location("bench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# check_conditions(g, n_probes=200, seed=1).to_dict() at b=2^-3, seed 1, on
# the default 2D window, recorded before the probe integrals, ball measures
# and multiplicities were computed as they are now
CERTIFIED = {
    "curve-family": {
        "variant": "curve-family", "n_probes": 200, "seed": 1,
        "declared_C0": 8.0, "declared_D": 9.0,
        "equiv_lower": 0.23573511825890042, "equiv_upper": 0.2545776968454962,
        "equiv_C0": 4.242049328016251,
        "mes2_lower": 0.25, "mes2_upper": 3.1433102728800173, "mes2_C0": 4.0,
        "mes_C0": 4.0, "multiplicity_max": 6, "diam_range": [0.0625, 0.0625],
        "passes": {"equiv": True, "mes2": True, "mes": True, "diam": True,
                   "cover_multiplicity": True},
        "failures": []},
    "concentric-circles": {
        "variant": "concentric-circles", "n_probes": 200, "seed": 1,
        "declared_C0": 10.0, "declared_D": 4.0,
        "equiv_lower": 0.9995966655733529, "equiv_upper": 1.000612146442785,
        "equiv_C0": 1.000612146442785,
        "mes2_lower": 0.5685144784476146, "mes2_upper": 2.0000000000000018,
        "mes2_C0": 2.0000000000000018, "mes_C0": 4.597190950328965,
        "multiplicity_max": None,
        "diam_range": [0.07106430980595048, 0.1409776924945674],
        "passes": {"equiv": True, "mes2": True, "mes": True, "diam": True},
        "failures": []},
}


@pytest.mark.parametrize("variant", sorted(CERTIFIED))
def test_certificate_matches_the_recorded_report(geometry_of, variant):
    check = _bench_rule()
    got = check.normalise(check_conditions(geometry_of(variant), n_probes=200,
                                           seed=1).to_dict())
    assert check.mismatches(got, CERTIFIED[variant]) == []


class TestGeometryJson:
    @pytest.mark.parametrize("variant, extra", [
        *((v, {}) for v in VARIANTS),
        ("curve-family", {"straight": True}),
        ("hyperplane-union", {"strict": False}),
        ("perturbed-graph", {"strict": False}),
        ("hyperplane-union", {"drop_line": 3}),
        ("perturbed-graph", {"amp": 0.1, "freq": 2.0}),
    ], ids=[*VARIANTS, "curve-family-straight", "hyperplane-union-loose",
            "perturbed-graph-loose", "hyperplane-union-dropped", "perturbed-graph-bent"])
    def test_round_trip(self, tmp_path, variant, extra):
        g = build_geometry(variant, {"b": 2.0**-3, "seed": 6, "window": WIN,
                                     **extra})
        path = tmp_path / "g.json"
        path.write_text(json.dumps(geometry_to_json_dict(g)))
        back = geometry_from_json_dict(json.loads(path.read_text()))
        assert (back.variant, back.m, back.b, back.window) == \
            (g.variant, g.m, g.b, g.window)
        assert (back.C0, back.C0_equiv, back.D) == (g.C0, g.C0_equiv, g.D)
        for name in ("anchors", "anchor_weights", "cell_a", "cell_b",
                     "cell_centers", "boundary_flags"):
            a, b = getattr(back, name), getattr(g, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        assert back.cell_radius == g.cell_radius

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_spec_without_constants_declares_the_builder_defaults(self, variant):
        params = {"b": 0.5, "seed": 3, "window": WIN}
        built = build_geometry(variant, params)
        read = geometry_from_json_dict({"variant": variant, "b": 0.5,
                                        "window": list(WIN),
                                        "params": {"seed": 3}})
        assert (read.C0, read.C0_equiv, read.D) == \
            (built.C0, built.C0_equiv, built.D)

    def test_spec_constants_override_one_at_a_time(self):
        built = build_geometry("spiral", {"b": 0.5, "window": WIN})
        read = geometry_from_json_dict({"variant": "spiral", "b": 0.5,
                                        "window": list(WIN), "D": 7.0})
        assert (read.C0, read.C0_equiv, read.D) == (built.C0, built.C0_equiv, 7.0)
