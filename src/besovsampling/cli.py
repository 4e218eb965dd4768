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
    critical_norm,
)
from .geometry import (
    MIN_PROBES,
    SamplingSequence1D,
    carrier_dimension,
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
    values = [atom(t) for t in text.split(",") if t.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def fit_slope(rows) -> tuple[float, float, float]:
    """Least squares in log-log coordinates; returns (slope, intercept,
    residual rms).  Rows are (x, y) pairs with positive finite entries."""
    rows = [(float(x), float(y)) for x, y in rows]
    if len(rows) < 3:
        raise ValueError(f"slope fit needs at least 3 rows, got {len(rows)}")
    if not all(0 < v < math.inf for row in rows for v in row):
        raise ValueError("slope fit needs positive finite values")
    lx = np.log([x for x, _ in rows])
    ly = np.log([y for _, y in rows])
    A = np.column_stack([lx, np.ones(len(lx))])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((ly - A @ coef) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def environment_fingerprint(config: dict) -> dict:
    fp = {"package": f"besovsampling {__version__}", "numpy": np.__version__,
          "csv_schema": CSV_SCHEMA_VERSION, "ramp_profile": "exp(-1/t) two-sided",
          "config": config}
    fp["hash"] = hashlib.sha256(
        json.dumps(fp, sort_keys=True, default=str).encode()).hexdigest()[:12]
    return fp


def write_csv(path, header: list[str], rows: list[list], fingerprint: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header + ["fingerprint"]) + "\n")
        for row in rows:
            cells = [format(v, ".12g") if isinstance(v, float) else
                     "" if v is None else str(v) for v in row]
            fh.write(",".join(cells + [fingerprint]) + "\n")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, default=str)


def write_json(path, payload: dict):
    Path(path).write_text(_json_text(payload) + "\n", encoding="utf-8")


def _emit(payload: dict, out: str | None):
    """Echo a command's JSON result, and write it to `out` when given."""
    if out:
        write_json(out, payload)
    click.echo(_json_text(payload))


# ---------------------------------------------------------------------------
# sweep pipelines (top-level functions so --jobs can pickle them)

def _seq_for_tuple(b: float, seed: int, grid) -> SamplingSequence1D:
    """A seeded strict sequence spanning the grid's first axis."""
    x = grid.axes[0].x
    return random_sequence(b, (x[0], x[-1]), seed, strict=True)


def _on_default_grid(spec: ZooSpec, b: float | None = None, seq_seed: int | None = None):
    """A 1D tuple's zoo function of `spec` on the default grid, the default
    basis and, given `seq_seed`, the seeded strict sequence of gap bound b."""
    grid, basis = default_grid_1d(), default_basis()
    seq = None if seq_seed is None else _seq_for_tuple(b, seq_seed, grid)
    return make(spec, grid, basis), basis, seq


@lru_cache(maxsize=256)
def _critical_norm(spec: ZooSpec, p: float) -> float:
    """||f||_B(1/p, p, 1) of the 1D zoo function `spec`, memoized on (spec, p)
    alone: the grid and basis are always the defaults, and the norm does not
    depend on b, so a sweep over b analyzes each function once; a hit returns
    the same float bit for bit.  The memo holds at most 256 floats, least
    recently used first out.  A b-major sweep visits every (seed, p) pair
    before the next b, so past 256 pairs it analyzes at every b."""
    zf, basis, _ = _on_default_grid(spec)
    return critical_norm(zf.f, p, basis=basis)


def run_sampling_tuple(args) -> dict:
    b, p, s_idx, seed, geom_path = args
    if geom_path is None:
        spec = ZooSpec("bandlimited-random", band=1.0, seed=seed)
        zf, basis, sset = _on_default_grid(spec, b, seed + 1)
        f, norm = zf.f, _critical_norm(spec, p)
    else:
        # the critical norm needs only the spec's carrier dimension, so the
        # field is analyzed before the geometry exists and never beside it
        spec = _json(geom_path)
        f, basis = bandlimited_field_2d(default_grid_2d(), 1.0, seed), default_basis()
        norm = critical_norm(f, p, carrier_dimension(spec.get("variant")), basis)
        sset = geometry_from_json_dict({**spec, "b": b})
    rep = sampling_ratio(f, sset, p, basis, besov_norm=norm)
    # 1D asserts the cell-weighted band (the two explicit constants); in 2D
    # the cell form carries a cell-geometry factor, so the b^(m/p)-weighted
    # trace ratio is the asserted quantity
    flag = rep.in_band_cell if geom_path is None else rep.in_band_trace
    ok = (not rep.hypothesis_ok) or bool(flag)
    return {"b": b, "p": p, "seed": seed, "ratio_lo": rep.trace_ratio,
            "ratio_hi": rep.cell_ratio, "hypothesis_ok": rep.hypothesis_ok,
            "N": rep.ratio_norms, "ok": ok}


def run_uncertainty_tuple(args) -> dict:
    b, p, s_idx, seed, _geometry = args
    zf, basis, seq = _on_default_grid(
        ZooSpec("gap-spline", sequence_b=b, sequence_seed=seed, seed=seed + 7),
        b, seed)
    rep = uncertainty_check(zf.f, seq, p, basis)
    ok = rep.hypothesis_met and rep.c_emp is not None and rep.c_emp > 0
    return {"b": b, "p": p, "seed": seed, "eps": rep.eps,
            "c_emp": rep.c_emp, "hypothesis_ok": rep.hypothesis_met, "ok": ok}


def run_heisenberg_tuple(args) -> dict:
    b, p, s_val, seed, _geometry = args
    alpha = s_val if s_val is not None else 1.0
    spec = ZooSpec("compact-bump", width=0.5 + (seed % 5) * 0.5)
    zf, basis, _ = _on_default_grid(spec)
    prod = heisenberg_product(zf.f, alpha, p, basis,
                              besov_norm=_critical_norm(spec, p))
    return {"b": b, "p": p, "alpha": alpha, "seed": seed, "product": prod,
            "ok": prod > 0}


def run_intb_tuple(args) -> dict:
    b, p, s_idx, seed, _geometry = args
    spec = ZooSpec("bandlimited-random", band=2.0, seed=seed + 3)
    zf, basis, seq = _on_default_grid(spec, b, seed)
    lhs, rhs, ratio = intB_diagnostic(zf.f, seq, p, basis,
                                      besov_norm=_critical_norm(spec, p))
    return {"b": b, "p": p, "seed": seed, "lhs": lhs, "rhs": rhs,
            "ratio": ratio, "ok": math.isfinite(ratio)}


def run_pl_tuple(args) -> dict:
    b, p, s_val, seed, _geometry = args
    s = s_val if s_val is not None else 0.5
    zf, _, seq = _on_default_grid(ZooSpec("besov-random", s=s, q=math.inf, j_lo=0,
                                          j_hi=8, seed=seed + 11), b, seed)
    pl = interp_pl(trace(zf.f, seq), seq, zf.f.grid)
    err = lp_norm(GridFunction(zf.f.grid, zf.f.values - pl.values), p)
    return {"b": b, "p": p, "s": s, "seed": seed, "error": err, "ok": err >= 0}


def run_split_tuple(args) -> dict:
    b, p, s_val, seed, _geometry = args
    s = s_val if s_val is not None else 0.6
    zf, _, _ = _on_default_grid(ZooSpec("besov-random", s=s, q=math.inf, j_lo=0,
                                        j_hi=8, seed=seed + 11))
    g, h, info = bandlimited_split(zf.f, b)
    return {"b": b, "p": p, "s": s, "seed": seed,
            "h_norm": lp_norm(h, p), "j0": info["j0"],
            "designed_norm": zf.meta["designed_norm"], "ok": True}


def run_reconstruct_tuple(args) -> dict:
    b, p, s_val, seed, geom_path = args
    s = s_val if s_val is not None else 0.9
    if geom_path is None:
        spec = ZooSpec("besov-random", s=s, q=math.inf, j_lo=0, j_hi=7, seed=seed + 13)
        zf, _, sset = _on_default_grid(spec, b, seed)
        f = zf.f
    else:
        f = bandlimited_field_2d(default_grid_2d(), 1.0, seed)
        sset = _geometry_spec(geom_path, b)[1]
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


def _read_config(path: str) -> RunConfig:
    """The RunConfig of a `sweep --config` file, with its keys checked."""
    raw = _json(path)
    accepted = [f.name for f in fields(RunConfig)]
    unknown = sorted(set(raw) - set(accepted))
    if unknown or "command" not in raw:
        problem = f"unknown key(s) {unknown}" if unknown else "no 'command' key"
        raise ValueError(f"sweep config has {problem}; accepted fields: {accepted} "
                         "('command' is required)")
    return RunConfig(**raw)


def _positive(v) -> bool:
    """Whether `v` is a positive finite number (not a bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf


# the value lists of a RunConfig: the option and config key that set each,
# the test an entry must pass and what the test asks
_VALUE_LISTS = (
    ("--b", "b_list", _positive, "b must be a positive finite number"),
    # every pipeline takes an L^p norm, and the critical Besov norm B^{1/p}_{p,1}
    ("--p", "p_list", lambda p: _positive(p) and p >= 1.0, "p must lie in [1, inf)"),
    # None leaves s (the smoothness, or heisenberg's alpha) to the pipeline
    ("--s", "s_list", lambda s: s is None or _positive(s),
     "s must be a positive finite number"),
    ("--seed", "seeds", lambda s: isinstance(s, int) and s >= 0,
     "seed must be a non-negative integer"),
)


def _config_problem(cfg: RunConfig) -> tuple[str, str, str] | None:
    """The first RunConfig field that no sweep can run, as the command-line
    option and the config key that set it and what is wrong; None if every
    field is fine."""
    if cfg.command not in PIPELINES:
        return "PIPELINE", "command", (f"unknown pipeline {cfg.command!r}; "
                                       f"choose from {sorted(PIPELINES)}")
    if cfg.geometry is not None and cfg.command in ONE_DIMENSIONAL:
        return "--geometry", "geometry", (
            f"pipeline {cfg.command} is one-dimensional; --geometry is not "
            f"supported here (only {sorted(set(PIPELINES) - ONE_DIMENSIONAL)} take it)")
    for option, key, ok, rule in _VALUE_LISTS:
        values = getattr(cfg, key)
        if not (isinstance(values, list) and values):
            return option, key, f"{key} must be a non-empty list, got {values!r}"
        bad = [v for v in values if not ok(v)]
        if bad:
            return option, key, f"{rule}, got {bad[0]!r}"
    if not (isinstance(cfg.jobs, int) and cfg.jobs >= 1):
        return "--jobs", "jobs", f"jobs must be a positive integer, got {cfg.jobs!r}"
    return None


def execute_sweep(cfg: RunConfig):
    """Run one pipeline over the parameter grid; deterministic merge order."""
    problem = _config_problem(cfg)
    if problem:
        raise ValueError(problem[-1])
    packed = [(cfg.command, t) for t in cfg.tuples()]
    # a forked pool starts all its workers up front, so start no idle ones
    workers = min(cfg.jobs, len(packed))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
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


def _sweep_report(cfg: RunConfig, rows: list[dict]) -> dict:
    """A sweep's JSON report: its rows, fingerprint and CSV schema, and a
    log-log slope fit wherever the rows hold a positive error-vs-b law."""
    # out_dir and jobs are execution details; the fingerprint must not depend
    # on where results land or how many workers produced them
    hashed = {k: v for k, v in asdict(cfg).items() if k not in ("out_dir", "jobs")}
    if cfg.geometry is not None:
        # the spec's content, not its path, as `reconstruct --geometry` hashes it
        hashed["geometry"] = _json(cfg.geometry)
    report = {"rows": rows, "fingerprint": environment_fingerprint(hashed),
              "slope_fit": None, "schema": CSV_SCHEMA_VERSION}
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
            report["slope_fit"] = {"on": err_key, "slope": slope,
                                   "intercept": intercept, "residual": resid}
        except ValueError:
            pass
    return report


def sweep_outputs(cfg: RunConfig, rows: list[dict]):
    report = _sweep_report(cfg, rows)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    csv_path = out_dir / f"sweep_{cfg.command}.csv"
    write_csv(csv_path, header, [[r[k] for k in header] for r in rows],
              report["fingerprint"]["hash"])
    json_path = out_dir / f"sweep_{cfg.command}.json"
    write_json(json_path, report)
    return csv_path, json_path, all(r.get("ok", True) for r in rows)


# ---------------------------------------------------------------------------
# input readers: each kind of input is read in one place, and a bad one is a
# usage error (exit code 2, no traceback) that names its option

@contextmanager
def _input_errors(hint):
    """Report an error of the input as a usage error naming `hint`, click's param_hint."""
    try:
        yield
    except (OSError, ValueError, TypeError) as err:
        raise click.BadParameter(str(err), param_hint=hint) from err


class _Reader(click.ParamType):
    """An option that `read` reads from the file it names, or from its text."""

    def __init__(self, name: str, read, file: bool = True):
        self.name, self.read, self.file = name, read, file

    def convert(self, value, param, ctx):
        if self.file:
            value = click.Path(exists=True, dir_okay=False).convert(value, param, ctx)
        with _input_errors(param.get_error_hint(ctx)):
            return self.read(value)


def _json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _geometry_spec(path: str, b: float | None = None):
    """The geometry spec at `path` and the geometry it builds; a sweep
    tuple gives `b`, its own gap bound, for the spec's."""
    spec = _json(path)
    if b is not None:
        spec["b"] = b
    return spec, geometry_from_json_dict(spec)


def _require_dyadic(f: GridFunction) -> None:
    """Reject an `--input` grid that wavelet analysis cannot use."""
    with _input_errors(["--input"]):
        check_dyadic_grid(f.grid)


def _basis(family: str, order: int):
    """The cached basis of `--basis` and `--order`; only a Daubechies basis
    has an order to reject."""
    with _input_errors(["--order" if family.lower() == "daubechies" else "--basis"]):
        return default_basis(family, order)


_GRID_CSV = _Reader("csv", load_csv)
_GEOMETRY = _Reader("spec", _geometry_spec)
# `zoo make` reads the function that its spec makes on the default grid
_ZOO_SPEC = _Reader("spec", lambda path: make(ZooSpec.from_dict(_json(path)),
                                             default_grid_1d(), default_basis()))
_CONFIG = _Reader("config", _read_config)
_VALUES = _Reader("values", parse_value_list, file=False)
_SEEDS = _Reader("seeds", lambda text: [int(t) for t in text.split(",")], file=False)
_BASIS = click.option("--basis", "family", default="daubechies", show_default=True)
_ORDER = click.option("--order", default=4, show_default=True)


def _run_sweep(cfg: RunConfig, from_config: bool = False, out: str | None = None):
    """The body of `verify` and `sweep`: check `cfg` (read from `--config` if
    `from_config`), run it, write its CSV, JSON and `out`, set the exit code."""
    def hint(option, key):
        return f"the {key!r} key of '--config'" if from_config else [option]

    problem = _config_problem(cfg)
    if problem:
        option, key, message = problem
        raise click.BadParameter(message, param_hint=hint(option, key))
    if cfg.geometry is not None:
        # a tuple analyzes its field before it builds the spec at its b, and
        # then traces the field there: build every b's geometry first, check
        # that the field's grid covers it, and drop it
        grid = default_grid_2d()
        with _input_errors(hint("--geometry", "geometry")):
            for b in cfg.b_list:
                axis = grid.uncovered_axis(_geometry_spec(cfg.geometry, b)[1].anchors)
                if axis:
                    (x0, x1), (y0, y1) = ((g.x[0], g.x[-1]) for g in grid.axes)
                    raise ValueError(
                        f"at b={b} the geometry has anchors off the 2D grid "
                        f"[{x0}, {x1}] x [{y0}, {y1}] along {axis}; give it a "
                        "window inside the grid")
    rows = execute_sweep(cfg)
    csv_path, json_path, ok = sweep_outputs(cfg, rows)
    if out:
        write_json(out, {"rows": rows,
                         "fingerprint": _sweep_report(cfg, rows)["fingerprint"]})
    click.echo(f"wrote {csv_path} and {json_path}")
    if not ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# click commands

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
@click.option("--input", "f", type=_GRID_CSV, required=True)
@_BASIS
@_ORDER
@click.option("--j-min", type=int, default=None)
@click.option("--j-max", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def besov_norm_cmd(definition, s, p, q, f, family, order, j_min, j_max, out):
    """Homogeneous Besov norm of a CSV grid function."""
    with _input_errors(["--s", "--p", "--q"]):  # the message names s, p or q
        params = BesovParams(s=s, p=p, q=float(q), d=f.ndim)
    if definition == "wavelet":
        _require_dyadic(f)
        basis = _basis(family, order)
        with _input_errors(["--j-min", "--j-max"]):  # the range against the grid
            norm, coeffs = besov_norm_via_analyze(f, params, basis, j_min, j_max)
        result = {"norm": norm, "truncation_residual": coeffs.residual_l2,
                  "j_range": [coeffs.j_min, coeffs.j_max], "definition": "wavelet",
                  "basis": {"family": basis.family, "order": basis.order}}
    else:
        jr = None if j_min is None or j_max is None else (j_min, j_max)
        # the default range leaves out only the DC bin, so a leak is the range's
        with _input_errors(["--j-min", "--j-max"]):
            details = besov_norm_lp_details(f, params, j_range=jr)
        result = {"norm": details["norm"],
                  "truncation_residual": details["leak_fraction"],
                  "dc_fraction": details["dc_fraction"],
                  "j_range": details["j_range"], "definition": "lp"}
    result["fingerprint"] = environment_fingerprint(
        {"cmd": "besov norm", "def": definition, "s": s, "p": p, "q": q,
         "basis": family, "order": order, "j_min": j_min, "j_max": j_max})["hash"]
    _emit(result, out)


@besov.command("filters")
@_BASIS
@_ORDER
def besov_filters_cmd(family, order):
    """Print the scaling filter for external validation."""
    for k, h in enumerate(_basis(family, order).scaling_filter):
        click.echo(f"{k},{h:.17g}")


@main.group()
def zoo():
    """Test-function generation."""


@zoo.command("make")
@click.option("--spec", "zf", type=_ZOO_SPEC, required=True)
@click.option("--out", type=click.Path(), required=True)
def zoo_make_cmd(zf, out):
    """Instantiate a zoo spec JSON on the default grid and write CSV."""
    save_csv(zf.f, out)
    click.echo(json.dumps({"out": out, "meta": zf.meta}, default=str,
                          sort_keys=True))


@main.group()
def geometry():
    """Sampling geometry construction and validation."""


@geometry.command("check")
@click.option("--geometry", "spec_and_geometry", type=_GEOMETRY, required=True)
@click.option("--probes", type=click.IntRange(min=MIN_PROBES), default=1000,
              show_default=True,
              help="Probe budget N: min(400, max(10, N // 5)) Gaussian probes "
                   "for the integral comparison (a), and max(10, N // 2) balls "
                   "each for the cell bounds (b) and the growth bound (c).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def geometry_check_cmd(spec_and_geometry, probes, seed, out):
    """Empirical covering/measure condition report for a geometry spec."""
    g = spec_and_geometry[1]
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
@click.option("--p", "p_list", type=_VALUES, default="2", show_default=True)
@click.option("--b", "b_list", type=_VALUES, default="2^-4", show_default=True)
@click.option("--sweep", "sweep_range", type=_VALUES, default=None,
              help="override --b with a range like 2^-3..2^-7")
@click.option("--seed", "seeds", type=_SEEDS, default="0", show_default=True)
@click.option("--geometry", "geom_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--out-dir", default=".", show_default=True)
@click.option("--jobs", default=1, show_default=True)
def verify_cmd(pipeline, p_list, b_list, sweep_range, seeds, geom_path, out,
               out_dir, jobs):
    """Measured-ratio verification runs; CSV + JSON reports."""
    _run_sweep(RunConfig(command=pipeline, b_list=sweep_range or b_list,
                         p_list=p_list, seeds=seeds, geometry=geom_path,
                         out_dir=out_dir, jobs=jobs), out=out)


@main.group()
def approx():
    """Approximation-operator runs (interpolants and splits)."""


@approx.command("pl")
@click.option("--input", "f", type=_GRID_CSV, required=True)
@click.option("--b", type=_VALUES, default="2^-4", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def approx_pl_cmd(f, b, seed, out):
    """Piecewise-linear interpolation error on a seeded strict sequence."""
    rows = []
    with _input_errors(["--input", "--b"]):  # each b's sequence on the grid
        for bv in b:
            seq = _seq_for_tuple(bv, seed, f.grid)
            pl = interp_pl(trace(f, seq), seq, f.grid)
            rows.append({"b": bv, "error": lp_norm(
                GridFunction(f.grid, f.values - pl.values), 2.0)})
    payload = {"rows": rows, "fingerprint": environment_fingerprint(
        {"cmd": "approx pl", "b": b, "seed": seed})}
    _emit(payload, out)


@approx.command("split")
@click.option("--input", "f", type=_GRID_CSV, required=True)
@click.option("--b", type=_VALUES, default="2^-4", show_default=True)
@click.option("--mode", type=click.Choice(["spectrum", "wavelet"]),
              default="spectrum", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def approx_split_cmd(f, b, mode, out):
    """Bandlimited split f = g + h at the scale cut for each b."""
    rows = []
    with _input_errors(["--input", "--b"]):  # each b's cut against the grid
        for bv in b:
            g, h, info = bandlimited_split(f, bv, mode=mode)
            rows.append({"b": bv, "h_norm": lp_norm(h, 2.0), **info})
    payload = {"rows": rows, "fingerprint": environment_fingerprint(
        {"cmd": "approx split", "b": b, "mode": mode})}
    _emit(payload, out)


@main.command("reconstruct")
@click.option("--input", "f", type=_GRID_CSV, required=True)
@click.option("--geometry", "spec_and_geometry", type=_GEOMETRY, default=None)
@click.option("--b", default=2.0**-6, type=float, show_default=True,
              help="gap bound for the default 1D sequence when no geometry given")
@click.option("--c", "c_factor", default=0.25, show_default=True)
@click.option("--a", "a_factor", default=None, type=float)
@click.option("--iters", type=click.IntRange(min=0), default=12, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def reconstruct_cmd(f, spec_and_geometry, b, c_factor, a_factor, iters, seed, out):
    """Neumann-series reconstruction of a grid function from its trace."""
    spec, sset = spec_and_geometry or (None, None)
    # the operator build checks the set, grid and passband together, before P runs
    with _input_errors(["--input", "--b" if spec is None else "--geometry",
                        "--c", "--a"]):
        if spec is None:
            sset = _seq_for_tuple(b, seed, f.grid)
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
@click.option("--b", "b_list", type=_VALUES, default="2^-3..2^-6", show_default=True)
@click.option("--p", "p_list", type=_VALUES, default="2", show_default=True)
@click.option("--s", "s_list", type=_VALUES, default=None,
              help="smoothness list for pl/split/reconstruct pipelines")
@click.option("--seed", "seeds", type=_SEEDS, default="0", show_default=True)
@click.option("--out-dir", default=".", show_default=True)
@click.option("--jobs", default=1, show_default=True)
@click.option("--config", type=_CONFIG, default=None)
def sweep_cmd(pipeline, b_list, p_list, s_list, seeds, out_dir, jobs, config):
    """Parameter sweep over (b, p, s, seed) tuples for a named pipeline."""
    _run_sweep(config or RunConfig(command=pipeline, b_list=b_list, p_list=p_list,
                                   s_list=s_list or [None], seeds=seeds,
                                   out_dir=out_dir, jobs=jobs), config is not None)


@main.command("fit-slope")
@click.option("--csv", "csv_path", type=click.Path(exists=True), required=True)
@click.option("--x", "x_col", default="b", show_default=True)
@click.option("--y", "y_col", default="error", show_default=True)
def fit_slope_cmd(csv_path, x_col, y_col):
    """Log-log slope fit of two CSV columns."""
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        missing = [opt for opt, col in (("--x", x_col), ("--y", y_col))
                   if col not in header]
        if missing:
            raise click.BadParameter(f"no such column; the CSV has {header}",
                                     param_hint=missing)
        xi, yi = header.index(x_col), header.index(y_col)
        rows = [line.strip().split(",") for line in fh]
    with _input_errors(["--csv"]):  # the rows of the columns --x and --y name
        if any(len(cells) <= max(xi, yi) for cells in rows):
            raise ValueError(f"a row has fewer cells than the header {header}")
        slope, intercept, resid = fit_slope([(c[xi], c[yi]) for c in rows])
    click.echo(json.dumps({"slope": slope, "intercept": intercept,
                           "residual": resid}))


@main.command("coeff-dump")
@click.option("--input", "f", type=_GRID_CSV, required=True)
@click.option("--j-min", type=int, required=True)
@click.option("--j-max", type=int, required=True)
@_ORDER
@click.option("--out", type=click.Path(), required=True)
def coeff_dump_cmd(f, j_min, j_max, order, out):
    """Analyze a CSV grid function and dump the coefficient JSON."""
    from .wavelets import analyze
    _require_dyadic(f)
    basis = _basis("daubechies", order)
    with _input_errors(["--j-min", "--j-max"]):  # the range against the grid
        c = analyze(f, basis, j_min, j_max)
    write_json(out, coeffs_to_json_dict(c, threshold=1e-14))
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
