"""Command-line drivers: single verifications, parameter sweeps, reports.

Every run is seeded and deterministic: identical configurations produce
byte-identical CSV output.  Each CSV gets a sibling JSON report embedding the
full configuration and an environment fingerprint; rows also carry the short
fingerprint hash.  Exit code 0 means every asserted check in the run passed
(rows whose smallness gate failed are reported but not asserted).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, asdict
from functools import lru_cache
from pathlib import Path

import click
import numpy as np

from . import __version__
from .besov import (
    BesovParams,
    besov_norm_lp_details,
    besov_norm_via_analyze,
)
from .geometry import (
    MIN_PROBES,
    SamplingSequence1D,
    check_conditions,
    geometry_from_json_dict,
    geometry_to_json_dict,
    random_sequence,
)
from .grid import (
    GridFunction,
    default_grid_1d,
    default_grid_2d,
    load_csv,
    lp_norm,
    save_csv,
)
from .inequalities import (
    heisenberg_product,
    intB_diagnostic,
    sampling_ratio,
    trace,
    uncertainty_check,
)
from .reconstruct import (
    ReconstructionConfig,
    bandlimited_split,
    build_operator,
    full_pipeline,
    interp_pl,
)
from .wavelets import check_dyadic_grid, coeffs_to_json_dict, default_basis
from .zoo import ZooSpec, bandlimited_field_2d, make

CSV_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# shared plumbing

def parse_value_list(text: str) -> list[float]:
    """Parse '2^-3..2^-7' (halving range), comma lists, and dyadic atoms.

    A range runs from its larger end down to its smaller one by halving, in
    whichever order the ends are written; they must be a power of two apart.
    """
    def atom(tok: str) -> float:
        tok = tok.strip()
        if "^" in tok:
            base, exp = tok.split("^")
            return float(base) ** float(exp)
        return float(tok)

    text = text.strip()
    if ".." in text:
        lo, hi = sorted(atom(t) for t in text.split(".."))
        ok = 0 < lo and math.isfinite(hi)
        halvings = round(math.log2(hi / lo)) if ok else 0
        if not ok or abs(hi / 2.0**halvings - lo) > 1e-9 * lo:
            raise ValueError(
                f"range {text!r} is not a halving range: its ends must be positive "
                "and a power of two apart, as in '2^-3..2^-7'")
        return [hi / 2.0**i for i in range(halvings + 1)]
    return [atom(t) for t in text.split(",") if t.strip()]


def fit_slope(rows) -> tuple[float, float, float]:
    """Least squares in log-log coordinates; returns (slope, intercept,
    residual rms).  Rows are (x, y) pairs with positive entries."""
    rows = [(float(x), float(y)) for x, y in rows]
    if len(rows) < 3:
        raise ValueError("slope fit needs at least 3 rows")
    if any(x <= 0 or y <= 0 for x, y in rows):
        raise ValueError("slope fit needs positive values")
    lx = np.log([x for x, _ in rows])
    ly = np.log([y for _, y in rows])
    A = np.column_stack([lx, np.ones(len(lx))])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((ly - A @ coef) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def environment_fingerprint(config: dict) -> dict:
    fp = {
        "package": f"besovsampling {__version__}",
        "numpy": np.__version__,
        "csv_schema": CSV_SCHEMA_VERSION,
        "ramp_profile": "exp(-1/t) two-sided",
        "config": config,
    }
    digest = hashlib.sha256(
        json.dumps(fp, sort_keys=True, default=str).encode()).hexdigest()[:12]
    fp["hash"] = digest
    return fp


def write_csv(path, header: list[str], rows: list[list], fingerprint: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header + ["fingerprint"]) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(format(v, ".12g"))
                elif v is None:
                    cells.append("")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells + [fingerprint]) + "\n")


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def _emit(payload: dict, out: str | None):
    """Echo a command's JSON result, and write it to `out` when given."""
    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    click.echo(text)


# ---------------------------------------------------------------------------
# sweep pipelines (top-level functions so --jobs can pickle them)

def _seq_for_tuple(b: float, seed: int, grid) -> SamplingSequence1D:
    """A seeded strict sequence spanning the grid's first axis."""
    x = grid.axes[0].x
    return random_sequence(b, (x[0], x[-1]), seed, strict=True)


@lru_cache(maxsize=256)
def _critical_norm(spec: ZooSpec, p: float) -> float:
    """||f||_B(1/p, p, 1) of the 1D zoo function `spec`, memoized.

    The key is (spec, p) alone: the grid and basis are always the defaults,
    `default_grid_1d()` and `default_basis()`.  The norm does not depend on
    b, so a sweep over b analyzes each function once; a hit returns the
    float the same call made before, bit for bit.  The memo holds floats
    only, at most 256 of them, least recently used first out.  A b-major
    sweep visits every (seed, p) pair before the next b, so it needs one
    entry per (seed, p) pair to hit: past 256 pairs it analyzes at every b.
    """
    basis = default_basis()
    f = make(spec, default_grid_1d(), basis).f
    norm, _ = besov_norm_via_analyze(f, BesovParams(s=1.0 / p, p=p, q=1.0, d=1),
                                     basis)
    return norm


def _field_on_geometry(geom_path: str, b: float, seed: int):
    """The 2D pipelines' input: a seeded bandlimited field and the geometry."""
    with open(geom_path, encoding="utf-8") as fh:
        d = json.load(fh)
    d["b"] = b  # sweeps override the spec's gap bound per tuple
    return (bandlimited_field_2d(default_grid_2d(), 1.0, seed),
            geometry_from_json_dict(d))


def run_sampling_tuple(args) -> dict:
    b, p, s_idx, seed, geom_path = args
    basis = default_basis()
    if geom_path is None:
        grid = default_grid_1d()
        spec = ZooSpec("bandlimited-random", band=1.0, seed=seed)
        f = make(spec, grid, basis).f
        sset = _seq_for_tuple(b, seed + 1, grid)
        norm = _critical_norm(spec, p)
    else:
        f, sset = _field_on_geometry(geom_path, b, seed)
        norm = None
    rep = sampling_ratio(f, sset, p, basis, besov_norm=norm)
    # 1D asserts the cell-weighted band (the two explicit constants); in 2D
    # the cell form carries a cell-geometry factor, so the b^(m/p)-weighted
    # trace ratio is the asserted quantity
    flag = rep.in_band_cell if geom_path is None else rep.in_band_trace
    ok = (not rep.hypothesis_ok) or bool(flag)
    return {"b": b, "p": p, "seed": seed,
            "ratio_lo": rep.trace_ratio, "ratio_hi": rep.cell_ratio,
            "hypothesis_ok": rep.hypothesis_ok, "N": rep.ratio_norms,
            "ok": ok}


def run_uncertainty_tuple(args) -> dict:
    b, p, s_idx, seed, _geometry = args
    grid = default_grid_1d()
    basis = default_basis()
    seq = _seq_for_tuple(b, seed, grid)
    zf = make(ZooSpec("gap-spline", sequence_b=b, sequence_seed=seed,
                      seed=seed + 7), grid, basis)
    rep = uncertainty_check(zf.f, seq, p, basis)
    ok = rep.hypothesis_met and rep.c_emp is not None and rep.c_emp > 0
    return {"b": b, "p": p, "seed": seed, "eps": rep.eps,
            "c_emp": rep.c_emp, "hypothesis_ok": rep.hypothesis_met, "ok": ok}


def run_heisenberg_tuple(args) -> dict:
    b, p, s_val, seed, _geometry = args
    alpha = s_val if s_val is not None else 1.0
    grid = default_grid_1d()
    basis = default_basis()
    spec = ZooSpec("compact-bump", width=0.5 + (seed % 5) * 0.5)
    prod = heisenberg_product(make(spec, grid, basis).f, alpha, p, basis,
                              besov_norm=_critical_norm(spec, p))
    return {"b": b, "p": p, "alpha": alpha, "seed": seed, "product": prod,
            "ok": prod > 0}


def run_intb_tuple(args) -> dict:
    b, p, s_idx, seed, _geometry = args
    grid = default_grid_1d()
    basis = default_basis()
    spec = ZooSpec("bandlimited-random", band=2.0, seed=seed + 3)
    seq = _seq_for_tuple(b, seed, grid)
    lhs, rhs, ratio = intB_diagnostic(make(spec, grid, basis).f, seq, p, basis,
                                      besov_norm=_critical_norm(spec, p))
    return {"b": b, "p": p, "seed": seed, "lhs": lhs, "rhs": rhs,
            "ratio": ratio, "ok": math.isfinite(ratio)}


def run_pl_tuple(args) -> dict:
    b, p, s_val, seed, _geometry = args
    grid = default_grid_1d()
    basis = default_basis()
    s = s_val if s_val is not None else 0.5
    zf = make(ZooSpec("besov-random", s=s, q=math.inf, j_lo=0, j_hi=8,
                      seed=seed + 11), grid, basis)
    seq = _seq_for_tuple(b, seed, grid)
    pl = interp_pl(trace(zf.f, seq), seq, grid)
    err = lp_norm(GridFunction(grid, zf.f.values - pl.values), p)
    return {"b": b, "p": p, "s": s, "seed": seed, "error": err, "ok": err >= 0}


def run_split_tuple(args) -> dict:
    b, p, s_val, seed, _geometry = args
    grid = default_grid_1d()
    basis = default_basis()
    s = s_val if s_val is not None else 0.6
    zf = make(ZooSpec("besov-random", s=s, q=math.inf, j_lo=0, j_hi=8,
                      seed=seed + 11), grid, basis)
    g, h, info = bandlimited_split(zf.f, b)
    return {"b": b, "p": p, "s": s, "seed": seed,
            "h_norm": lp_norm(h, p), "j0": info["j0"],
            "designed_norm": zf.meta["designed_norm"], "ok": True}


def run_reconstruct_tuple(args) -> dict:
    b, p, s_val, seed, geom_path = args
    basis = default_basis()
    s = s_val if s_val is not None else 0.9
    if geom_path is None:
        grid = default_grid_1d()
        zf = make(ZooSpec("besov-random", s=s, q=math.inf, j_lo=0, j_hi=7,
                          seed=seed + 13), grid, basis)
        f = zf.f
        sset = _seq_for_tuple(b, seed, grid)
    else:
        f, sset = _field_on_geometry(geom_path, b, seed)
    cfg = ReconstructionConfig(c_factor=0.25, n_iter=12, p=p)
    rep = full_pipeline(f, build_operator(sset, cfg, f.grid))
    return {"b": b, "p": p, "s": s, "seed": seed,
            "total_error": rep.total_error, "rel_error": rep.rel_error,
            "h_norm": rep.h_norm, "g_error": rep.g_error,
            "ok": not rep.diverged}


PIPELINES = {
    "sampling": run_sampling_tuple,
    "uncertainty": run_uncertainty_tuple,
    "heisenberg": run_heisenberg_tuple,
    "intb": run_intb_tuple,
    "pl": run_pl_tuple,
    "split": run_split_tuple,
    "reconstruct": run_reconstruct_tuple,
}
# pipelines that run on the default 1D grid only and take no --geometry
ONE_DIMENSIONAL = frozenset({"uncertainty", "heisenberg", "intb", "pl", "split"})


@dataclass
class RunConfig:
    command: str
    b_list: list = field(default_factory=lambda: [2.0**-4])
    p_list: list = field(default_factory=lambda: [2.0])
    s_list: list = field(default_factory=lambda: [None])
    seeds: list = field(default_factory=lambda: [0])
    geometry: str | None = None
    out_dir: str = "."
    jobs: int = 1

    def tuples(self):
        return [(b, p, s, seed, self.geometry) for b in self.b_list
                for p in self.p_list for s in self.s_list
                for seed in self.seeds]


def _config_from_dict(raw: dict) -> RunConfig:
    """The RunConfig of a `sweep --config` file, with its keys checked."""
    accepted = [f.name for f in fields(RunConfig)]
    unknown = sorted(set(raw) - set(accepted))
    if unknown or "command" not in raw:
        problem = f"unknown key(s) {unknown}" if unknown else "no 'command' key"
        raise ValueError(f"sweep config has {problem}; accepted fields: {accepted} "
                         "('command' is required)")
    return RunConfig(**raw)


@dataclass
class SweepResult:
    """Rows per parameter tuple, optional log-log slope fit, fingerprint."""

    rows: list
    fingerprint: dict
    slope_fit: dict | None = None
    schema: int = CSV_SCHEMA_VERSION

    def all_ok(self) -> bool:
        return all(r.get("ok", True) for r in self.rows)

    def to_dict(self) -> dict:
        return asdict(self)


def execute_sweep(cfg: RunConfig):
    """Run one pipeline over the parameter grid; deterministic merge order."""
    if cfg.command not in PIPELINES:
        raise ValueError(f"unknown pipeline {cfg.command!r}; "
                         f"choose from {sorted(PIPELINES)}")
    if cfg.geometry is not None and cfg.command in ONE_DIMENSIONAL:
        raise ValueError(
            f"pipeline {cfg.command} is one-dimensional; --geometry is not "
            f"supported here (only {sorted(set(PIPELINES) - ONE_DIMENSIONAL)} take it)")
    # every pipeline takes an L^p norm, and the critical Besov norm B^{1/p}_{p,1}
    bad_p = [p for p in cfg.p_list if not 1.0 <= p < math.inf]
    if bad_p:
        raise ValueError(f"p must lie in [1, inf), got {bad_p[0]}")
    if not (isinstance(cfg.jobs, int) and cfg.jobs >= 1):
        raise ValueError(f"jobs must be a positive integer, got {cfg.jobs!r}")
    packed = [(cfg.command, t) for t in cfg.tuples()]
    # a forked pool starts all its workers up front, so start no idle ones
    workers = min(cfg.jobs, len(packed))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_dispatch_tuple, packed))
    else:
        rows = [_dispatch_tuple(pt) for pt in packed]
    return rows


def _dispatch_tuple(packed):
    command, t = packed
    try:
        return PIPELINES[command](t)
    except Exception as err:
        raise RuntimeError(
            f"pipeline {command!r} failed at tuple "
            f"(b={t[0]}, p={t[1]}, s={t[2]}, seed={t[3]}): {err}") from err


def build_sweep_result(cfg: RunConfig, rows: list[dict]) -> SweepResult:
    # out_dir and jobs are execution details; the fingerprint must not depend
    # on where results land or how many workers produced them
    hashed = {k: v for k, v in asdict(cfg).items() if k not in ("out_dir", "jobs")}
    result = SweepResult(rows=rows, fingerprint=environment_fingerprint(hashed))
    # slope fit wherever the sweep produced a positive error-vs-b law
    header = list(rows[0].keys())
    err_key = next((k for k in ("error", "h_norm", "total_error") if k in header
                    and all(isinstance(r[k], float) and r[k] > 0 for r in rows)),
                   None)
    if err_key is not None and len({r["b"] for r in rows}) >= 3:
        by_b = {}
        for r in rows:
            by_b.setdefault(r["b"], []).append(r[err_key])
        pairs = sorted((b, float(np.mean(v))) for b, v in by_b.items())
        try:
            slope, intercept, resid = fit_slope(pairs)
            result.slope_fit = {"on": err_key, "slope": slope,
                                "intercept": intercept, "residual": resid}
        except ValueError:
            pass
    return result


def sweep_outputs(cfg: RunConfig, rows: list[dict]):
    result = build_sweep_result(cfg, rows)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    csv_path = out_dir / f"sweep_{cfg.command}.csv"
    write_csv(csv_path, header, [[r[k] for k in header] for r in rows],
              result.fingerprint["hash"])
    json_path = out_dir / f"sweep_{cfg.command}.json"
    write_json(json_path, result.to_dict())
    return csv_path, json_path, result.all_ok()


# ---------------------------------------------------------------------------
# click commands

@contextmanager
def _input_errors(*options: str):
    """Report a ValueError about the command's input as a usage error (exit
    code 2, no traceback), naming `options` when they are its cause."""
    try:
        yield
    except ValueError as err:
        if options:
            raise click.BadParameter(str(err), param_hint=list(options)) from err
        raise click.UsageError(str(err)) from err


@click.group()
def main():
    """Wavelet Besov norms and sampling-inequality verification."""


@main.group()
def besov():
    """Besov norm computations."""


@besov.command("norm")
@click.option("--def", "definition", type=click.Choice(["wavelet", "lp"]),
              default="wavelet", show_default=True)
@click.option("--s", type=float, required=True)
@click.option("--p", type=float, required=True)
@click.option("--q", default="1", show_default=True,
              help="summability index; 'inf' for the sup form")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--basis", "family", default="daubechies", show_default=True)
@click.option("--order", default=4, show_default=True)
@click.option("--j-min", type=int, default=None)
@click.option("--j-max", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def besov_norm_cmd(definition, s, p, q, input_path, family, order, j_min, j_max, out):
    """Homogeneous Besov norm of a CSV grid function."""
    qv = math.inf if str(q).lower() in ("inf", "infinity") else float(q)
    with _input_errors("--input"):
        f = load_csv(input_path)
        if definition == "wavelet":
            check_dyadic_grid(f.grid)
    with _input_errors():  # the message names s, p or q
        params = BesovParams(s=s, p=p, q=qv, d=f.ndim)
    if definition == "wavelet":
        basis = default_basis(family, order)
        # the grid passed its check, so what analyze rejects is the range
        with _input_errors("--j-min", "--j-max"):
            norm, coeffs = besov_norm_via_analyze(f, params, basis, j_min, j_max)
        result = {"norm": norm, "truncation_residual": coeffs.residual_l2,
                  "j_range": [coeffs.j_min, coeffs.j_max],
                  "definition": "wavelet",
                  "basis": {"family": basis.family, "order": basis.order}}
    else:
        jr = None if j_min is None or j_max is None else (j_min, j_max)
        # the default range leaves out only the DC bin, so a leak is the range's
        with _input_errors("--j-min", "--j-max"):
            details = besov_norm_lp_details(f, params, j_range=jr)
        result = {"norm": details["norm"],
                  "truncation_residual": details["leak_fraction"],
                  "dc_fraction": details["dc_fraction"],
                  "j_range": details["j_range"], "definition": "lp"}
    result["fingerprint"] = environment_fingerprint(
        {"cmd": "besov norm", "def": definition, "s": s, "p": p, "q": str(q),
         "basis": family, "order": order, "j_min": j_min, "j_max": j_max})["hash"]
    _emit(result, out)


@besov.command("filters")
@click.option("--basis", "family", default="daubechies", show_default=True)
@click.option("--order", default=4, show_default=True)
def besov_filters_cmd(family, order):
    """Print the scaling filter for external validation."""
    basis = default_basis(family, order)
    for k, h in enumerate(basis.scaling_filter):
        click.echo(f"{k},{h:.17g}")


@main.group()
def zoo():
    """Test-function generation."""


@zoo.command("make")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def zoo_make_cmd(spec_path, out):
    """Instantiate a zoo spec JSON on the default grid and write CSV."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = ZooSpec.from_dict(json.load(fh))
    grid = default_grid_1d()
    zf = make(spec, grid, default_basis())
    save_csv(zf.f, out)
    click.echo(json.dumps({"out": out, "meta": zf.meta}, default=str,
                          sort_keys=True))


@main.group()
def geometry():
    """Sampling geometry construction and validation."""


@geometry.command("check")
@click.option("--geometry", "geom_path", type=click.Path(exists=True), required=True)
@click.option("--probes", type=click.IntRange(min=MIN_PROBES), default=1000,
              show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def geometry_check_cmd(geom_path, probes, seed, out):
    """Empirical covering/measure condition report for a geometry spec."""
    with open(geom_path, encoding="utf-8") as fh, _input_errors():
        g = geometry_from_json_dict(json.load(fh))
    rep = check_conditions(g, n_probes=probes, seed=seed)
    payload = {"geometry": geometry_to_json_dict(g), "report": rep.to_dict(),
               "fingerprint": environment_fingerprint(
                   {"cmd": "geometry check", "probes": probes, "seed": seed})}
    _emit(payload, out)
    if not rep.all_pass():
        sys.exit(1)


@main.command("verify")
@click.argument("pipeline", type=click.Choice(["sampling", "uncertainty",
                                               "heisenberg", "intb"]))
@click.option("--p", "p_list", default="2", show_default=True)
@click.option("--b", "b_list", default="2^-4", show_default=True)
@click.option("--sweep", "sweep_range", default=None,
              help="override --b with a range like 2^-3..2^-7")
@click.option("--seed", default="0", show_default=True)
@click.option("--geometry", "geom_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--out-dir", default=".", show_default=True)
@click.option("--jobs", default=1, show_default=True)
def verify_cmd(pipeline, p_list, b_list, sweep_range, seed, geom_path, out,
               out_dir, jobs):
    """Measured-ratio verification runs; CSV + JSON reports."""
    # execute_sweep checks its config before any tuple runs; a failing tuple
    # raises RuntimeError, so only input errors arrive here as ValueError
    with _input_errors():
        cfg = RunConfig(
            command=pipeline,
            b_list=parse_value_list(sweep_range or b_list),
            p_list=parse_value_list(p_list),
            seeds=[int(t) for t in str(seed).split(",")],
            geometry=geom_path,
            out_dir=out_dir,
            jobs=jobs,
        )
        rows = execute_sweep(cfg)
    csv_path, json_path, ok = sweep_outputs(cfg, rows)
    if out:
        write_json(out, {"rows": rows,
                         "fingerprint": build_sweep_result(cfg, rows).fingerprint})
    click.echo(f"wrote {csv_path} and {json_path}")
    if not ok:
        sys.exit(1)


@main.group()
def approx():
    """Approximation-operator runs (interpolants and splits)."""


@approx.command("pl")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--b", default="2^-4", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def approx_pl_cmd(input_path, b, seed, out):
    """Piecewise-linear interpolation error on a seeded strict sequence."""
    rows = []
    with _input_errors():
        f = load_csv(input_path)
        for bv in parse_value_list(b):
            seq = _seq_for_tuple(bv, seed, f.grid)
            pl = interp_pl(trace(f, seq), seq, f.grid)
            rows.append({"b": bv, "error": lp_norm(
                GridFunction(f.grid, f.values - pl.values), 2.0)})
    payload = {"rows": rows, "fingerprint": environment_fingerprint(
        {"cmd": "approx pl", "b": b, "seed": seed})}
    _emit(payload, out)


@approx.command("split")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--b", default="2^-4", show_default=True)
@click.option("--mode", type=click.Choice(["spectrum", "wavelet"]),
              default="spectrum", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def approx_split_cmd(input_path, b, mode, out):
    """Bandlimited split f = g + h at the scale cut for each b."""
    rows = []
    with _input_errors():
        f = load_csv(input_path)
        for bv in parse_value_list(b):
            g, h, info = bandlimited_split(f, bv, mode=mode)
            rows.append({"b": bv, "h_norm": lp_norm(h, 2.0), **info})
    payload = {"rows": rows, "fingerprint": environment_fingerprint(
        {"cmd": "approx split", "b": b, "mode": mode})}
    _emit(payload, out)


@main.command("reconstruct")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--geometry", "geom_path", type=click.Path(exists=True), default=None)
@click.option("--b", default=2.0**-6, type=float, show_default=True,
              help="gap bound for the default 1D sequence when no geometry given")
@click.option("--c", "c_factor", default=0.25, show_default=True)
@click.option("--a", "a_factor", default=None, type=float)
@click.option("--iters", default=12, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def reconstruct_cmd(input_path, geom_path, b, c_factor, a_factor, iters, seed, out):
    """Neumann-series reconstruction of a grid function from its trace."""
    spec = None
    with _input_errors():
        f = load_csv(input_path)
        if geom_path is None:
            sset = _seq_for_tuple(b, seed, f.grid)
        else:
            spec = json.loads(Path(geom_path).read_text(encoding="utf-8"))
            sset = geometry_from_json_dict(spec)
        # the operator build rejects every bad input before P runs
        op = build_operator(sset, ReconstructionConfig(
            c_factor=c_factor, a_factor=a_factor, n_iter=iters), f.grid)
    rep = full_pipeline(f, op)
    payload = {"report": rep.to_dict(), "fingerprint": environment_fingerprint(
        {"cmd": "reconstruct", "b": b, "c": c_factor, "a": a_factor,
         "iters": iters, "seed": seed, "geometry": spec})}
    _emit(payload, out)
    if rep.diverged:
        sys.exit(1)


@main.command("sweep")
@click.argument("pipeline")
@click.option("--b", "b_list", default="2^-3..2^-6", show_default=True)
@click.option("--p", "p_list", default="2", show_default=True)
@click.option("--s", "s_list", default=None,
              help="smoothness list for pl/split/reconstruct pipelines")
@click.option("--seed", default="0", show_default=True)
@click.option("--out-dir", default=".", show_default=True)
@click.option("--jobs", default=1, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def sweep_cmd(pipeline, b_list, p_list, s_list, seed, out_dir, jobs, config_path):
    """Parameter sweep over (b, p, s, seed) tuples for a named pipeline."""
    with _input_errors():  # as in verify_cmd
        if config_path:
            with open(config_path, encoding="utf-8") as fh:
                raw = json.load(fh)
            cfg = _config_from_dict(raw)
        else:
            cfg = RunConfig(
                command=pipeline,
                b_list=parse_value_list(b_list),
                p_list=parse_value_list(p_list),
                s_list=([None] if s_list is None else parse_value_list(s_list)),
                seeds=[int(t) for t in str(seed).split(",")],
                out_dir=out_dir,
                jobs=jobs,
            )
        rows = execute_sweep(cfg)
    csv_path, json_path, ok = sweep_outputs(cfg, rows)
    click.echo(f"wrote {csv_path} and {json_path}")
    if not ok:
        sys.exit(1)


@main.command("fit-slope")
@click.option("--csv", "csv_path", type=click.Path(exists=True), required=True)
@click.option("--x", "x_col", default="b", show_default=True)
@click.option("--y", "y_col", default="error", show_default=True)
def fit_slope_cmd(csv_path, x_col, y_col):
    """Log-log slope fit of two CSV columns."""
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        xi, yi = header.index(x_col), header.index(y_col)
        pairs = []
        for line in fh:
            cells = line.strip().split(",")
            pairs.append((float(cells[xi]), float(cells[yi])))
    slope, intercept, resid = fit_slope(pairs)
    click.echo(json.dumps({"slope": slope, "intercept": intercept,
                           "residual": resid}))


@main.command("coeff-dump")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--j-min", type=int, required=True)
@click.option("--j-max", type=int, required=True)
@click.option("--order", default=4, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def coeff_dump_cmd(input_path, j_min, j_max, order, out):
    """Analyze a CSV grid function and dump the coefficient JSON."""
    from .wavelets import analyze
    with _input_errors("--input"):
        f = load_csv(input_path)
        check_dyadic_grid(f.grid)
    basis = default_basis("daubechies", order)
    with _input_errors("--j-min", "--j-max"):
        c = analyze(f, basis, j_min, j_max)
    write_json(out, coeffs_to_json_dict(c, threshold=1e-14))
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
