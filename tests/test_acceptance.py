"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them).

Tolerances are pinned here and nowhere else; shared analyses are cached in
module fixtures so the whole suite stays within its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from besovsampling.besov import (
    BesovParams,
    besov_norm_lp,
    besov_norm_via_analyze,
    besov_norm_wavelet,
)
from besovsampling.cli import RunConfig, execute_sweep, fit_slope, sweep_outputs
from besovsampling.geometry import (
    build_geometry,
    check_conditions,
    equiv_ratio_for_probe,
    random_sequence,
)
from besovsampling.grid import (
    Grid1D,
    GridFunction,
    default_grid_1d,
    default_grid_2d,
    lp_norm,
)
from besovsampling.inequalities import (
    intB_diagnostic,
    heisenberg_product,
    sampling_ratio,
    trace,
    uncertainty_check,
)
from besovsampling.reconstruct import (
    ReconstructionConfig,
    bandlimited_split,
    build_operator,
    contraction_estimate,
    full_pipeline,
    interp_pl,
    make_passband_family,
    neumann_reconstruct,
)
from besovsampling.wavelets import (
    WaveletCoefficients,
    analyze,
    build_basis,
    dilate_coeffs,
    synthesize,
)
from besovsampling.zoo import (
    ZooSpec,
    bandlimited_field_2d,
    calibration_zoo,
    dilate,
    make,
)
from besovsampling.zoo import _resample_dyadic


def report(n, name, detail):
    print(f"\nACCEPTANCE {n} ({name}): PASS — {detail}")


@pytest.fixture(scope="module")
def basis():
    return build_basis("daubechies", 4, depth=12)


@pytest.fixture(scope="module")
def grid10():
    return default_grid_1d()


@pytest.fixture(scope="module")
def zoo10(grid10, basis):
    zoo = calibration_zoo(grid10, basis)
    return [(zf, analyze(zf.f, basis, -16, 8)) for zf in zoo]


@pytest.fixture(scope="module")
def zoo11(basis):
    g = Grid1D(-16.0, 2.0**-11, 65536)
    zoo = calibration_zoo(g, basis)
    return g, [(zf, analyze(zf.f, basis, -16, 9)) for zf in zoo]


def test_criterion_01_wavelet_validity(basis):
    t0 = time.time()
    v = basis.validate()
    assert v["filter_sum"] < 1e-12
    assert v["qmf_max"] < 1e-12
    assert v["moment_max"] < 1e-6
    # Gram matrix over j in [-2, 2], k in [-10, 10] on a window wide enough
    # to hold every translate
    g = Grid1D(-64.0, 2.0**-10, 131072)
    rows = []
    for j in range(-2, 3):
        for k in range(-10, 11):
            c = WaveletCoefficients(1, j, j, {j: (k, np.array([1.0]))}, basis)
            rows.append(synthesize(c, g).values)
    W = np.array(rows)
    gram = g.spacing * (W @ W.T)
    worst = float(np.max(np.abs(gram - np.eye(len(rows)))))
    dt = time.time() - t0
    assert worst < 1e-6
    assert dt < 30.0
    report(1, "wavelet validity",
           f"filter residuals {v['filter_sum']:.1e}/{v['qmf_max']:.1e}, "
           f"moments {v['moment_max']:.1e}, Gram dev {worst:.1e} "
           f"[{dt:.1f}s < 30s]")


def test_criterion_02_dilation_exactness(basis, grid10):
    t0 = time.time()
    # coefficient level, three p values at the critical index s = 1/p
    rng = np.random.default_rng(7)
    c = WaveletCoefficients(
        1, -2, 5,
        {j: (int(rng.integers(-9, 9)),
             rng.standard_normal(int(rng.integers(2, 8))))
         for j in range(-2, 6)}, basis)
    worst_coeff = 0.0
    for p in (1.0, 2.0, 4.0):
        params = BesovParams(1.0 / p, p, 1.0, 1)
        n0 = besov_norm_wavelet(c, params)
        for m in (-3, 1, 2):
            nm = besov_norm_wavelet(dilate_coeffs(c, m), params)
            worst_coeff = max(worst_coeff, abs(nm - n0) / n0)
    assert worst_coeff < 1e-10
    # end to end through analyze: exact grid resampling f -> f(2x)
    worst_e2e = 0.0
    params = BesovParams(0.5, 2.0, 1.0, 1)
    # dilated content must stay well resolved (scale <= 5 at h = 2^-10); the
    # scale range covers all content on both sides (residual certifies it)
    # so the l^1-over-scales sum is not polluted by empty fine scales
    cases = [
        (make(ZooSpec("gaussian", width=1.0), grid10).f, None),
        (make(ZooSpec("besov-random", s=0.5, q=1.0, j_lo=0, j_hi=4, seed=3),
              grid10, basis).f, 6),
    ]
    for f, j_max in cases:
        n0, c0 = besov_norm_via_analyze(f, params, basis, j_max=j_max)
        fd = _resample_dyadic(f, 1, resample=False)
        n1, c1 = besov_norm_via_analyze(fd, params, basis, j_max=j_max)
        # certifies coverage at the ~1e-5 energy level
        assert c0.residual_l2 < 5e-3 and c1.residual_l2 < 5e-3
        worst_e2e = max(worst_e2e, abs(n1 - n0) / n0)
    dt = time.time() - t0
    assert worst_e2e < 1e-4
    assert dt < 60.0
    report(2, "Besov dilation exactness",
           f"coefficient-level dev {worst_coeff:.2e} (<=1e-10), "
           f"end-to-end dev {worst_e2e:.2e} (<=1e-4) [{dt:.1f}s < 1min]")


CONFIGS_C3 = [(0.5, 2.0, 1.0), (1.0, 1.0, 1.0), (0.25, 4.0, 1.0)]


def test_criterion_03_norm_equivalence(zoo10, zoo11, basis):
    t0 = time.time()
    details = []
    for (s, p, q) in CONFIGS_C3:
        params = BesovParams(s, p, q, 1)
        spreads = {}
        intervals = {}
        for label, pack in (("coarse", zoo10), ("fine", zoo11[1])):
            ratios = []
            for zf, coeffs in pack:
                nw = besov_norm_wavelet(coeffs, params)
                nl = besov_norm_lp(zf.f, params)
                ratios.append(nw / nl)
            ratios = np.asarray(ratios)
            spreads[label] = float(ratios.max() / ratios.min())
            intervals[label] = (float(ratios.min()), float(ratios.max()))
        assert spreads["coarse"] <= 10.0
        assert spreads["fine"] <= 10.0
        lo_drift = abs(intervals["fine"][0] - intervals["coarse"][0]) \
            / intervals["coarse"][0]
        hi_drift = abs(intervals["fine"][1] - intervals["coarse"][1]) \
            / intervals["coarse"][1]
        assert lo_drift < 0.2 and hi_drift < 0.2
        details.append(f"(s={s},p={p}): spread {spreads['coarse']:.2f} "
                       f"drift {max(lo_drift, hi_drift) * 100:.1f}%")
    dt = time.time() - t0
    assert dt < 300.0
    report(3, "norm equivalence", "; ".join(details) + f" [{dt:.0f}s < 5min]")


def test_criterion_04_two_sided_band(grid10, basis):
    t0 = time.time()
    b = 2.0**-6
    p = 2.0
    params = BesovParams(1.0 / p, p, 1.0, 1)
    seqs = [random_sequence(b, (grid10.x[0], grid10.x[-1]), 100 + i,
                            strict=True) for i in range(10)]
    n_in, n_gated, marginal_fail = 0, 0, True
    failures = []
    for fs in range(50):
        zf = make(ZooSpec("bandlimited-random", band=1.0, seed=fs), grid10,
                  basis)
        bn, _ = besov_norm_via_analyze(zf.f, params, basis)
        for seq in seqs:
            rep = sampling_ratio(zf.f, seq, p, basis, besov_norm=bn)
            if not rep.hypothesis_ok:
                continue
            n_gated += 1
            if rep.in_band_cell:
                n_in += 1
            else:
                failures.append(rep)
    frac = n_in / n_gated if n_gated else 0.0
    # any failure must sit at the edge of the smallness gate
    for rep in failures:
        assert rep.smallness > 0.8 * rep.delta
    dt = time.time() - t0
    assert n_gated >= 400
    assert frac >= 0.95
    assert dt < 300.0
    report(4, "two-sided sampling band",
           f"{n_in}/{n_gated} gated cases inside [0.5, 2.5] "
           f"({100 * frac:.1f}% >= 95%), {len(failures)} gate-marginal "
           f"failures [{dt:.0f}s < 5min]")


def test_criterion_05_uncertainty_lower_bound(basis):
    t0 = time.time()
    fine = Grid1D(-16.0, 2.0**-12, 131072)
    from scipy.interpolate import CubicHermiteSpline
    from besovsampling.zoo import window_envelope
    env = window_envelope(fine)
    details = []
    for p in (1.0, 2.0):
        by_b = {}
        for bexp in range(4, 10):
            b = 2.0**-bexp
            cs = []
            for seed in (0, 1):
                seq = random_sequence(b, (fine.x[0], fine.x[-1]),
                                      10 * bexp + seed, strict=True,
                                      lattice=fine.spacing)
                rng = np.random.default_rng(100 * bexp + seed)
                spl = CubicHermiteSpline(
                    seq.points, np.zeros(len(seq.points)),
                    rng.uniform(-1, 1, len(seq.points)))
                f = GridFunction(fine, spl(fine.x) * env)
                rep = uncertainty_check(f, seq, p, basis)
                assert rep.eps == pytest.approx(1.0, abs=1e-9)
                assert rep.c_emp > 0
                cs.append(rep.c_emp)
            by_b[b] = float(np.mean(cs))
        slope, _, _ = fit_slope(sorted(by_b.items()))
        inf_c = min(by_b.values())
        assert inf_c > 0.1
        assert abs(slope) < 0.1
        details.append(f"p={p}: inf c_emp {inf_c:.3f}, |slope| {abs(slope):.3f}")
    dt = time.time() - t0
    assert dt < 300.0
    report(5, "uncertainty lower bound", "; ".join(details)
           + f" [{dt:.0f}s < 5min]")


def test_criterion_06_intb_diagnostic(grid10, zoo10, basis):
    t0 = time.time()
    details = []
    for p in (1.0, 2.0, 4.0):
        params = BesovParams(1.0 / p, p, 1.0, 1)
        max_ratios = []
        bs = []
        for bexp in (3, 4, 5, 6):
            b = 2.0**-bexp
            worst = 0.0
            for i, (zf, coeffs) in enumerate(zoo10):
                bn = besov_norm_wavelet(coeffs, params)
                if bn == 0.0:
                    continue
                seq = random_sequence(b, (grid10.x[0], grid10.x[-1]),
                                      13 * i + bexp, strict=True)
                _, _, ratio = intB_diagnostic(zf.f, seq, p, basis,
                                              besov_norm=bn)
                worst = max(worst, ratio)
            assert math.isfinite(worst)
            max_ratios.append(worst)
            bs.append(b)
        slope, _, _ = fit_slope(list(zip(bs, max_ratios)))
        # ratios must not grow as b halves: slope (vs b) stays above -0.1
        assert slope > -0.1
        details.append(f"p={p}: max ratio {max(max_ratios):.3f}, "
                       f"slope {slope:+.2f}")
    dt = time.time() - t0
    assert dt < 300.0
    report(6, "intB diagnostic", "; ".join(details) + f" [{dt:.0f}s < 5min]")


def test_criterion_07_heisenberg(grid10, basis):
    t0 = time.time()
    details = []
    for alpha, p in ((1.0, 2.0), (2.0, 1.0)):
        zf = make(ZooSpec("compact-bump", width=1.0), grid10)
        p0 = heisenberg_product(zf.f, alpha, p, basis)
        p1 = heisenberg_product(dilate(zf, 1).f, alpha, p, basis)
        dev = abs(p1 - p0) / p0
        assert dev < 1e-4
        prods = []
        for width in (0.5, 1.0, 2.0, 4.0):
            for center in (0.0, 1.0):
                z = make(ZooSpec("compact-bump", width=width, center=center),
                         grid10)
                prods.append(heisenberg_product(z.f, alpha, p, basis))
        assert min(prods) > 0.0
        details.append(f"(a={alpha},p={p}): dilation dev {dev:.1e}, "
                       f"inf c_p {min(prods):.3f}")
    dt = time.time() - t0
    assert dt < 120.0
    report(7, "Heisenberg product", "; ".join(details) + f" [{dt:.0f}s < 2min]")


def test_criterion_08_approximation_rates(grid10, basis):
    t0 = time.time()
    bs = [2.0**-e for e in (2, 3, 4, 5)]
    details = []
    for s in (0.6, 0.9):
        for seed in (21, 22):
            zf = make(ZooSpec("besov-random", s=s, q=math.inf, j_lo=0,
                              j_hi=8, seed=seed), grid10, basis)
            h_errs, pl_errs = [], []
            for b in bs:
                _, h, _ = bandlimited_split(zf.f, b)
                h_errs.append(lp_norm(h, 2.0))
                seq = random_sequence(b, (grid10.x[0], grid10.x[-1]),
                                      seed + int(-math.log2(b)), strict=True)
                pl = interp_pl(trace(zf.f, seq), seq, grid10)
                pl_errs.append(lp_norm(
                    GridFunction(grid10, zf.f.values - pl.values), 2.0))
            s_split = fit_slope(list(zip(bs, h_errs)))[0]
            s_pl = fit_slope(list(zip(bs, pl_errs)))[0]
            assert abs(s_split - s) <= 0.15, (s, seed, s_split)
            assert abs(s_pl - s) <= 0.15, (s, seed, s_pl)
            details.append(f"s={s}/{seed}: split {s_split:.2f} pl {s_pl:.2f}")
    # generic critical-regularity member: slope >= 1/p - 0.1
    zf = make(ZooSpec("besov-random", s=0.5, q=1.0, j_lo=0, j_hi=8, seed=33),
              grid10, basis)
    pl_errs = []
    for b in bs:
        seq = random_sequence(b, (grid10.x[0], grid10.x[-1]),
                              int(1 / b), strict=True)
        pl = interp_pl(trace(zf.f, seq), seq, grid10)
        pl_errs.append(lp_norm(GridFunction(grid10, zf.f.values - pl.values),
                               2.0))
    s_gen = fit_slope(list(zip(bs, pl_errs)))[0]
    assert s_gen >= 0.5 - 0.1
    dt = time.time() - t0
    assert dt < 600.0
    report(8, "approximation rates",
           "; ".join(details) + f"; generic {s_gen:.2f} >= 0.4 "
           f"[{dt:.0f}s < 10min]")


def test_criterion_09_reconstruction(grid10, basis):
    t0 = time.time()
    b = 2.0**-6
    seq = random_sequence(b, (grid10.x[0], grid10.x[-1]), 11, strict=True)
    cfg = ReconstructionConfig(c_factor=0.25, n_iter=12)
    est = contraction_estimate(seq, cfg, grid10, n=20, seed=3)
    assert est < 0.9
    worst_rel = 0.0
    op = build_operator(seq, cfg, grid10)
    for seed in (5, 6, 7):
        g = make_passband_family(grid10, seq, cfg, n=1, seed=seed)[0]
        rec, rep = neumann_reconstruct(trace(g, seq), op)
        rel = lp_norm(GridFunction(grid10, g.values - rec.values), 2.0) \
            / lp_norm(g, 2.0)
        worst_rel = max(worst_rel, rel)
    assert worst_rel < 1e-3
    # pipeline slope for the s = 0.9 zoo member
    slopes = []
    for seed in (77, 78):
        zf = make(ZooSpec("besov-random", s=0.9, q=math.inf, j_lo=0, j_hi=7,
                          seed=seed), grid10, basis)
        errs, bs = [], []
        for bexp in (3, 4, 5, 6):
            bb = 2.0**-bexp
            sq = random_sequence(bb, (grid10.x[0], grid10.x[-1]),
                                 200 + bexp + seed, strict=True)
            rep = full_pipeline(zf.f, build_operator(sq, ReconstructionConfig(
                c_factor=0.25, n_iter=12), grid10))
            errs.append(rep.total_error)
            bs.append(bb)
        slopes.append(fit_slope(list(zip(bs, errs)))[0])
    for sl in slopes:
        assert abs(sl - 0.9) <= 0.15
    dt = time.time() - t0
    assert dt < 600.0
    report(9, "reconstruction",
           f"contraction {est:.3f} < 0.9, bandlimited rel err "
           f"{worst_rel:.1e} < 1e-3 in <=12 iters, pipeline slopes "
           f"{[f'{s:.2f}' for s in slopes]} in 0.9±0.15 [{dt:.0f}s < 10min]")


def test_criterion_10_multivariate(basis):
    t0 = time.time()
    grid2 = default_grid_2d()
    win = (grid2.gx.x[0], grid2.gx.x[-1])
    variants = ["hyperplane-union", "curve-family", "concentric-circles",
                "spiral"]
    cond_details = []
    for variant in variants:
        g = build_geometry(variant, {"b": 2.0**-4, "seed": 1, "window": win})
        rep = check_conditions(g, n_probes=1000, seed=5)
        assert rep.all_pass(), (variant, rep.passes)
        assert math.isfinite(rep.equiv_C0) and math.isfinite(rep.mes_C0)
        cond_details.append(f"{variant}: C0 {rep.equiv_C0:.2f}/{rep.mes_C0:.2f}")
    # trace ratios across the b sweep for bandlimited fields
    fields = [bandlimited_field_2d(grid2, 1.0, seed) for seed in (42, 43)]
    norms = []
    for f in fields:
        coeffs = analyze(f, basis, -6, 5)
        norms.append({m: besov_norm_wavelet(
            coeffs, BesovParams(m / 2.0, 2.0, 1.0, 2)) for m in (1, 2)})
    ratio_details = []
    for variant in variants:
        lo_r, hi_r = [], []
        for bexp in (3, 4, 5):
            b = 2.0**-bexp
            g = build_geometry(variant, {"b": b, "seed": bexp, "window": win})
            for f, nn in zip(fields, norms):
                rep = sampling_ratio(f, g, 2.0, basis, besov_norm=nn[g.m])
                lo_r.append(rep.trace_ratio)
                hi_r.append(rep.cell_ratio)
        for vals in (lo_r, hi_r):
            assert max(vals) / min(vals) <= 4.0, (variant, vals)
        ratio_details.append(f"{variant}: {max(lo_r) / min(lo_r):.2f}")
    # deliberately broken geometry: dropped line fails the lower bound on a
    # probe sitting in the uncovered band
    b = 2.0**-4
    intact = build_geometry("hyperplane-union", {"b": b, "seed": 2,
                                                 "window": win})
    heights = np.asarray(intact.params["heights"])
    mid = len(heights) // 2
    broken = build_geometry("hyperplane-union",
                            {"b": b, "seed": 2, "drop_line": mid,
                             "window": win})
    probe = (0.0, float(heights[mid]))
    bad = equiv_ratio_for_probe(broken, probe, b)
    assert bad < 1.0 / broken.C0_equiv
    dt = time.time() - t0
    assert dt < 900.0
    report(10, "multivariate trace",
           "; ".join(cond_details) + " | ratio spreads "
           + "; ".join(ratio_details)
           + f" | broken-line probe ratio {bad:.2f} [{dt:.0f}s < 15min]")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    configs = [
        RunConfig(command="sampling", b_list=[2.0**-5, 2.0**-6],
                  p_list=[2.0], seeds=[3]),
        RunConfig(command="uncertainty", b_list=[2.0**-4, 2.0**-5],
                  p_list=[2.0], seeds=[1]),
        RunConfig(command="intb", b_list=[2.0**-4], p_list=[1.0, 2.0],
                  seeds=[2]),
        RunConfig(command="split", b_list=[0.25, 0.125], p_list=[2.0],
                  s_list=[0.6], seeds=[4]),
        RunConfig(command="heisenberg", b_list=[2.0**-4], p_list=[2.0],
                  s_list=[1.0], seeds=[5]),
        RunConfig(command="pl", b_list=[0.25], p_list=[2.0], s_list=[0.5],
                  seeds=[6]),
        RunConfig(command="reconstruct", b_list=[2.0**-5], p_list=[2.0],
                  s_list=[0.9], seeds=[7]),
    ]
    for cfg in configs:
        blobs = []
        for run in ("r1", "r2"):
            c = RunConfig(**{**cfg.__dict__, "out_dir":
                             str(tmp_path / cfg.command / run)})
            rows = execute_sweep(c)
            csv_path, _, _ = sweep_outputs(c, rows)
            blobs.append(csv_path.read_bytes())
        assert blobs[0] == blobs[1], cfg.command
    dt = time.time() - t0
    report(11, "determinism",
           f"{len(configs)} pipelines re-run byte-identical [{dt:.0f}s]")
