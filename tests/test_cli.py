import concurrent.futures
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from besovsampling import besov, cli, geometry
from besovsampling.cli import (
    PIPELINES,
    RunConfig,
    execute_sweep,
    fit_slope,
    main,
    parse_value_list,
    sweep_outputs,
)
from besovsampling.geometry import (
    VARIANTS,
    geometry_from_json_dict,
    random_sequence,
    window_for_grid,
)
from besovsampling.grid import (
    _POINT_BLOCK,
    _ROW_BLOCK,
    Grid1D,
    Grid2D,
    GridFunction,
    default_grid_1d,
    default_grid_2d,
    load_csv,
    save_csv,
)
from besovsampling.reconstruct import (
    LowpassMultiplier,
    ReconstructionConfig,
    build_operator,
    full_pipeline,
)
from besovsampling.wavelets import default_basis
from besovsampling.zoo import ZooSpec, make
from conftest import clear_cli_memos
from test_grid import traced_peak

# the pipelines that take their Besov norm from the (spec, p) memo
MEMOIZED = ("sampling", "heisenberg", "intb")
# the pipeline whose 1D function depends on b
B_DEPENDENT = ("uncertainty",)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def gauss_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "f.csv"
    grid = default_grid_1d()
    save_csv(make(ZooSpec("gaussian", width=1.0), grid).f, path)
    return str(path)


class TestParsing:
    def test_dyadic_range(self):
        vals = parse_value_list("2^-3..2^-7")
        assert vals == [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]

    def test_comma_list(self):
        assert parse_value_list("0.5,2^-2") == [0.5, 0.25]

    def test_single(self):
        assert parse_value_list("2") == [2.0]

    def test_range_either_order(self):
        assert parse_value_list("2^-7..2^-3") == parse_value_list("2^-3..2^-7")

    def test_range_ends_not_power_of_two_apart(self):
        with pytest.raises(ValueError, match=re.escape("'2^-3..2^-7'")):
            parse_value_list("2^-3..0.1")


class TestFitSlope:
    def test_exact_power_law(self):
        bs = [2.0**-k for k in range(3, 8)]
        rows = [(b, b**0.9) for b in bs]
        slope, intercept, resid = fit_slope(rows)
        assert abs(slope - 0.9) < 1e-6
        assert resid < 1e-12

    def test_constant_data(self):
        rows = [(b, 3.0) for b in (0.5, 0.25, 0.125)]
        slope, _, _ = fit_slope(rows)
        assert abs(slope) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope([(0.5, 1.0), (0.25, -1.0), (0.125, 1.0)])
        with pytest.raises(ValueError):
            fit_slope([(0.5, 1.0), (0.25, 1.0)])


class TestCommands:
    def test_besov_norm_wavelet(self, runner, gauss_csv):
        res = runner.invoke(main, ["besov", "norm", "--def", "wavelet",
                                   "--s", "0.5", "--p", "2",
                                   "--input", gauss_csv])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["norm"] > 0
        assert "truncation_residual" in payload and "j_range" in payload

    def test_besov_norm_lp(self, runner, gauss_csv):
        res = runner.invoke(main, ["besov", "norm", "--def", "lp",
                                   "--s", "0.5", "--p", "2", "--q", "inf",
                                   "--input", gauss_csv])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["norm"] > 0

    def test_filters_print(self, runner):
        res = runner.invoke(main, ["besov", "filters", "--order", "2"])
        assert res.exit_code == 0
        rows = [line.split(",") for line in res.output.strip().splitlines()]
        h = np.array([float(v) for _, v in rows])
        assert abs(h.sum() - math.sqrt(2)) < 1e-12

    def test_zoo_make(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "compact-bump", "width": 2.0}))
        out = tmp_path / "f.csv"
        res = runner.invoke(main, ["zoo", "make", "--spec", str(spec),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "x,value"

    def test_geometry_check(self, runner, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({
            "variant": "curve-family", "b": 0.25, "C0": 8.0, "C0_equiv": 6.0,
            "D": 9.0, "window": [-8.0, 7.9921875], "params": {"seed": 1}}))
        res = runner.invoke(main, ["geometry", "check", "--geometry",
                                   str(spec), "--probes", "100", "--seed", "1"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["report"]["passes"]["equiv"]

    def test_verify_sampling_writes_reports(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "sampling", "--p", "2",
                                   "--b", "2^-5..2^-6", "--seed", "1",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        csv = (tmp_path / "sweep_sampling.csv").read_text().splitlines()
        assert csv[0].startswith("b,p,seed,ratio_lo,ratio_hi,hypothesis_ok")
        assert len(csv) == 3

    def test_approx_split(self, runner, gauss_csv, tmp_path):
        out = tmp_path / "split.json"
        res = runner.invoke(main, ["approx", "split", "--input", gauss_csv,
                                   "--b", "2^-3,2^-4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2 and all(r["h_norm"] >= 0 for r in rows)

    def test_reconstruct_command(self, runner, gauss_csv, tmp_path):
        out = tmp_path / "rec.json"
        res = runner.invoke(main, ["reconstruct", "--input", gauss_csv,
                                   "--b", str(2.0**-5), "--iters", "6",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = json.loads(out.read_text())["report"]
        assert rep["rel_error"] < 0.2
        assert len(rep["residuals"]) == 6

    def test_reconstruct_default_sequence_on_the_default_grid(self, runner,
                                                              gauss_csv):
        # the sequence spans the input's grid, which here is the default one
        res = runner.invoke(main, ["reconstruct", "--input", gauss_csv,
                                   "--b", str(2.0**-5), "--iters", "4",
                                   "--seed", "3"])
        assert res.exit_code == 0, res.output
        grid = default_grid_1d()
        seq = random_sequence(2.0**-5, (grid.x[0], grid.x[-1]), 3, strict=True)
        rep = full_pipeline(load_csv(gauss_csv), build_operator(
            seq, ReconstructionConfig(n_iter=4), grid))
        want = json.loads(json.dumps(rep.to_dict(), default=str))
        assert json.loads(res.output)["report"] == want

    def test_reconstruct_off_the_default_grid(self, runner, tmp_path):
        grid = Grid1D(-4.0, 2.0**-8, 2048)
        path = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.exp(-np.pi * grid.x ** 2)), path)
        res = runner.invoke(main, ["reconstruct", "--input", str(path),
                                   "--b", str(2.0**-4), "--iters", "6"])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)["report"]
        assert len(rep["residuals"]) == 6
        assert rep["rel_error"] < 0.05

    def test_diverging_reconstruct_writes_its_report(self, tmp_path):
        grid = Grid1D(-4.0, 2.0**-8, 2048)
        path = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.exp(-np.pi * grid.x ** 2)), path)
        out = tmp_path / "rec.json"
        res = CliRunner().invoke(main, ["reconstruct", "--input", str(path),
                                        "--b", str(2.0**-4), "--c", "4.0",
                                        "--iters", "30", "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert '"diverged": true' in out.read_text()
        rep = json.loads(out.read_text())["report"]
        assert len(rep["residuals"]) < 30
        assert rep["total_error"] is None and rep["rel_error"] is None

    def test_bad_input_nonzero_exit(self, runner, tmp_path):
        res = runner.invoke(main, ["besov", "norm", "--def", "wavelet",
                                   "--s", "0.5", "--p", "2",
                                   "--input", str(tmp_path / "missing.csv")])
        assert res.exit_code != 0

    def test_coeff_dump(self, runner, gauss_csv, tmp_path):
        out = tmp_path / "coeffs.json"
        res = runner.invoke(main, ["coeff-dump", "--input", gauss_csv,
                                   "--j-min", "-2", "--j-max", "2",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert payload["d"] == 1 and payload["entries"]

    def test_verify_with_geometry(self, runner, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({
            "variant": "curve-family", "b": 0.125, "C0": 8.0,
            "C0_equiv": 6.0, "D": 9.0, "window": [-8.0, 7.9921875],
            "params": {"seed": 1}}))
        res = runner.invoke(main, ["verify", "sampling", "--p", "2",
                                   "--b", "2^-3", "--seed", "1",
                                   "--geometry", str(spec),
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "sweep_sampling.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_verify_with_perturbed_graph_geometry(self, runner, tmp_path):
        # the bent lines leave the window; the nodes they leave it with are
        # not part of the set, so the trace sees no cell of zero measure
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({
            "variant": "perturbed-graph", "b": 0.125, "window": [-8.0, 7.9921875],
            "params": {"seed": 1, "amp": 0.5}}))
        res = runner.invoke(main, ["verify", "sampling", "--p", "2",
                                   "--b", "2^-3", "--seed", "1",
                                   "--geometry", str(spec),
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, row = (tmp_path / "sweep_sampling.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["ok"] == "True"

    @pytest.mark.parametrize("variant", ["hyperplane-union", "perturbed-graph"])
    def test_spec_without_window_takes_the_grid_span(self, runner, tmp_path, variant):
        # the default window is the span of the 2D grid the field lives on,
        # so the anchors of the line variants stay on it
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": variant, "b": 0.25, "params": {"seed": 1}}))
        res = runner.invoke(main, ["verify", "sampling", "--b", "2^-2", "--seed", "1",
                                   "--geometry", str(spec), "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["geometry", "check", "--geometry", str(spec),
                                   "--probes", "100"])
        assert json.loads(res.output)["geometry"]["window"] == [-8.0, 7.9921875]

    def test_spec_window_in_params_is_read(self, runner, tmp_path):
        spec = tmp_path / "geom.json"
        for where in ({"window": [-4, 4], "params": {}}, {"params": {"window": [-4, 4]}},
                      {"window": [-4, 4], "params": {"window": [-4.0, 4.0]}}):
            spec.write_text(json.dumps({"variant": "curve-family", "b": 0.5, **where}))
            res = runner.invoke(main, ["geometry", "check", "--geometry", str(spec),
                                       "--probes", "100"])
            assert json.loads(res.output)["geometry"]["window"] == [-4, 4], where

    def test_verify_out_fingerprint_is_the_csv_fingerprint(self, runner, tmp_path):
        """--out carries the results' fingerprint, which --jobs and --out-dir
        do not enter."""
        blobs, csv_hashes = [], []
        for sub, jobs in itertools.product(("a", "b"), ("1", "2")):
            out = tmp_path / f"{sub}{jobs}.json"
            res = runner.invoke(main, ["verify", "heisenberg", "--b", "2^-4",
                                       "--seed", "5", "--jobs", jobs,
                                       "--out-dir", str(tmp_path / sub),
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            blobs.append(out.read_bytes())
            row = (tmp_path / sub / "sweep_heisenberg.csv").read_text().splitlines()[1]
            csv_hashes.append(row.rsplit(",", 1)[1])
        assert len(set(blobs)) == 1
        assert {json.loads(blobs[0])["fingerprint"]["hash"]} == set(csv_hashes)

    @pytest.mark.parametrize("args", [
        ["besov", "norm", "--s", "0.5", "--p", "2"],
        ["approx", "pl", "--b", "2^-3,2^-4"],
        ["approx", "split", "--b", "2^-3,2^-4"],
    ], ids=["besov-norm", "approx-pl", "approx-split"])
    def test_out_file_is_the_echoed_json(self, runner, gauss_csv, tmp_path, args):
        out = tmp_path / "out.json"
        res = runner.invoke(main, args + ["--input", gauss_csv, "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = out.read_text(encoding="utf-8")
        assert text == res.output
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"

    def test_geometry_rejected_for_1d_pipelines(self, runner, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({
            "variant": "curve-family", "b": 0.125, "window": [-8.0, 7.99],
            "params": {"seed": 1}}))
        res = runner.invoke(main, ["verify", "intb", "--p", "2",
                                   "--b", "2^-3", "--geometry", str(spec),
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code != 0


class TestSweeps:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = RunConfig(command="sampling", b_list=[2.0**-5, 2.0**-6],
                        p_list=[2.0], seeds=[3])
        rows = execute_sweep(cfg)
        outs = []
        for sub in ("a", "b"):
            cfg = RunConfig(command="sampling", b_list=[2.0**-5, 2.0**-6],
                            p_list=[2.0], seeds=[3],
                            out_dir=str(tmp_path / sub))
            rows = execute_sweep(cfg)
            csv_path, _, ok = sweep_outputs(cfg, rows)
            assert ok
            outs.append(csv_path.read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_matches_serial(self, tmp_path):
        for command in PIPELINES:
            base = dict(command=command, b_list=[2.0**-4, 2.0**-5],
                        p_list=[2.0], seeds=[1])
            # parallel first: forked workers must not inherit a warm memo
            parallel = execute_sweep(RunConfig(**base, jobs=2))
            serial = execute_sweep(RunConfig(**base, jobs=1))
            assert serial == parallel, command

    def test_pool_never_larger_than_the_tuples(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records its size and maps in this process: it starts no worker."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the CLI imports the pool class only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setitem(PIPELINES, "intb", lambda t: {"b": t[0]})
        rows = execute_sweep(RunConfig("intb", b_list=[0.25, 0.125, 0.0625], jobs=64))
        assert sizes == [3]
        assert rows == [{"b": 0.25}, {"b": 0.125}, {"b": 0.0625}]
        # one tuple runs in this process, with no pool at all
        assert execute_sweep(RunConfig("intb", b_list=[0.25], jobs=2)) == [{"b": 0.25}]
        assert sizes == [3]

    def test_config_file_cli(self, tmp_path):
        from click.testing import CliRunner
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "command": "split", "b_list": [0.25, 0.125, 0.0625],
            "p_list": [2.0], "s_list": [0.6], "seeds": [4],
            "out_dir": str(tmp_path)}))
        res = CliRunner().invoke(main, ["sweep", "split", "--config",
                                        str(cfg_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "sweep_split.json").read_text())
        assert "slope_fit" in payload
        assert payload["slope_fit"]["on"] == "h_norm"

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="pipeline"):
            execute_sweep(RunConfig(command="frobnicate"))

    def test_geometry_rejected_before_any_tuple(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setitem(PIPELINES, "intb", calls.append)
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "curve-family", "b": 0.125}))
        with pytest.raises(ValueError, match="one-dimensional"):
            execute_sweep(RunConfig("intb", geometry=str(spec), jobs=2))
        assert calls == []

    def test_verify_uncertainty_rejects_geometry(self, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "curve-family", "b": 0.125}))
        res = CliRunner().invoke(main, ["verify", "uncertainty", "--geometry",
                                        str(spec), "--out-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert "one-dimensional" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "sweep_uncertainty.csv").exists()


class TestCriticalNormMemo:
    """sampling, heisenberg and intb analyze each (spec, p) once per sweep,
    and their rows and CSV bytes are those of an analysis at every tuple."""

    B_LIST = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]

    def test_one_analysis_per_spec_and_p(self, monkeypatch):
        calls = []
        analyze = besov.besov_norm_via_analyze

        def counted(f, params, basis):
            calls.append((params.p, f.values.tobytes()))
            return analyze(f, params, basis)

        # the memo analyzes through besov.critical_norm
        monkeypatch.setattr(besov, "besov_norm_via_analyze", counted)
        for command in MEMOIZED:
            execute_sweep(RunConfig(command, b_list=self.B_LIST,
                                    p_list=[1.0, 2.0], seeds=[1, 2]))
        # 3 pipelines x 2 seeds (one spec each) x 2 values of p
        assert len(calls) == 12
        assert len(set(calls)) == 12

    def test_rows_equal_an_analysis_at_every_tuple(self, monkeypatch):
        def sweep(command):
            return execute_sweep(RunConfig(command, b_list=self.B_LIST[1:3],
                                           p_list=[1.0, 2.0], seeds=[1, 2]))

        memo = {command: sweep(command) for command in MEMOIZED}
        # besov_norm=None: each inequality function analyzes f itself
        monkeypatch.setattr(cli, "_critical_norm", lambda *args: None)
        for command in MEMOIZED:
            assert sweep(command) == memo[command], command

    def test_warm_memo_csv_equals_cold(self, tmp_path):
        for command in PIPELINES:
            csvs, runs = [], []
            for run in ("warm", "cold"):
                cfg = RunConfig(command, b_list=self.B_LIST, seeds=[3, 4],
                                out_dir=str(tmp_path / command / run))
                rows = []
                for t in cfg.tuples():
                    if run == "cold":
                        clear_cli_memos()
                    rows.append(PIPELINES[command](t))
                csv_path, _, _ = sweep_outputs(cfg, rows)
                csvs.append(csv_path.read_bytes())
                runs.append(rows)
            assert runs[0] == runs[1], command
            assert csvs[0] == csvs[1], command


class TestZooFunctionMemo:
    """A 1D sweep makes each function that does not depend on b once, and
    every tuple reads it through read-only values."""

    def test_one_make_per_b_independent_spec(self, monkeypatch):
        made = []

        def counted(spec, grid, basis=None):
            made.append(spec)
            return make(spec, grid, basis)

        monkeypatch.setattr(cli, "make", counted)
        for command in PIPELINES:
            made.clear()
            execute_sweep(RunConfig(command, b_list=TestCriticalNormMemo.B_LIST,
                                    seeds=[1, 2]))
            # one spec per seed, or one per seed and b where the function needs b
            per_seed = 4 if command in B_DEPENDENT else 1
            assert len(made) == len(set(made)) == 2 * per_seed, command

    def test_memoized_values_are_read_only(self):
        spec = ZooSpec("besov-random", s=0.6, q=math.inf, j_lo=0, j_hi=8, seed=12)
        zf = cli._zoo_function(spec)
        with pytest.raises(ValueError, match="read-only"):
            zf.f.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            zf.f.values *= 2.0
        assert cli._zoo_function(spec) is zf


class TestFieldNormMemo:
    """`verify sampling --geometry` analyzes each seed's 2D field once over b,
    from the field the tuple built, and its rows are those of an analysis at
    every tuple."""

    def test_one_analysis_per_seed_and_rows_equal_cold(self, tmp_path, monkeypatch):
        calls, fields = [], []
        analyze, field_2d = besov.besov_norm_via_analyze, cli.bandlimited_field_2d

        def counted(f, params, basis):
            calls.append(params.s)
            return analyze(f, params, basis)

        def built(*args):
            fields.append(args)
            return field_2d(*args)

        monkeypatch.setattr(besov, "besov_norm_via_analyze", counted)
        monkeypatch.setattr(cli, "bandlimited_field_2d", built)
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({
            "variant": "curve-family", "b": 0.25,
            "window": list(window_for_grid(default_grid_2d())), "params": {"seed": 1}}))
        cfg = RunConfig("sampling", b_list=[2.0**-3, 2.0**-4], seeds=[1],
                        geometry=str(path))
        warm = execute_sweep(cfg)
        # one field per tuple, one analysis per seed (m = 2: s = 2/p = 1)
        assert (len(fields), calls) == (2, [1.0])
        cold = []
        for t in cfg.tuples():
            clear_cli_memos()
            cold.append(PIPELINES["sampling"](t))
        assert cold == warm
        assert (len(fields), calls) == (4, [1.0] * 3)

    def test_cli_builds_each_geometry_once(self, tmp_path, monkeypatch):
        builds = []
        build = geometry.build_geometry

        def counted(variant, params):
            builds.append(params["b"])
            return build(variant, params)

        monkeypatch.setattr(geometry, "build_geometry", counted)
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({
            "variant": "curve-family", "b": 0.25,
            "window": list(window_for_grid(default_grid_2d())), "params": {"seed": 1}}))
        res = CliRunner().invoke(main, ["verify", "sampling", "--b", "2^-3,2^-4",
                                        "--geometry", str(path),
                                        "--out-dir", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert builds == [2.0**-3, 2.0**-4]


class TestUsageErrors:
    """Input errors end as click usage errors: exit code 2, no traceback."""

    @staticmethod
    def _usage_error(args, *needles):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        for needle in needles:
            assert needle in res.output
        return res

    def test_verify_bad_sweep_range(self, tmp_path):
        self._usage_error(["verify", "sampling", "--b", "2^-3..0.1",
                           "--out-dir", str(tmp_path)], "'2^-3..0.1'")
        assert not (tmp_path / "sweep_sampling.csv").exists()

    def test_sweep_bad_range_and_unknown_pipeline(self, tmp_path):
        self._usage_error(["sweep", "intb", "--b", "2^-3..0.1",
                           "--out-dir", str(tmp_path)], "power of two")
        self._usage_error(["sweep", "frobnicate", "--out-dir", str(tmp_path)],
                          "unknown pipeline")

    def test_geometry_check_too_few_probes(self, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "curve-family", "b": 0.25}))
        self._usage_error(["geometry", "check", "--geometry", str(spec),
                           "--probes", "5"], "--probes", "x>=10")

    def test_geometry_check_negative_seed(self, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "curve-family", "b": 0.25}))
        self._usage_error(["geometry", "check", "--geometry", str(spec),
                           "--seed", "-3"], "--seed", "x>=0")

    def test_geometry_check_bad_spec(self, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "moebius", "b": 0.25}))
        self._usage_error(["geometry", "check", "--geometry", str(spec)],
                          "unknown geometry variant")

    @pytest.mark.parametrize("spec, missing", [({"variant": "spiral"}, "'b'"),
                                               ({"b": 0.25}, "'variant'")])
    def test_geometry_spec_missing_key(self, tmp_path, gauss_csv, spec, missing):
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(spec))
        self._usage_error(["geometry", "check", "--geometry", str(path)],
                          "required key", missing)
        self._usage_error(["reconstruct", "--input", gauss_csv,
                           "--geometry", str(path)], "required key", missing)

    def test_sweep_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "intb", "b_lst": [0.25]}))
        self._usage_error(["sweep", "intb", "--config", str(cfg)],
                          "unknown key(s) ['b_lst']", "'b_list'")
        cfg.write_text(json.dumps({"b_list": [0.25]}))
        self._usage_error(["sweep", "intb", "--config", str(cfg)],
                          "no 'command' key", "'b_list'")

    @pytest.mark.parametrize("variant, params, needle", [
        ("hyperplane-union", {"drop_line": 999}, "'drop_line'"),
        ("perturbed-graph", {"drop_line": -1}, "'drop_line'"),
        ("concentric-circles", {"radii": []}, "'radii'"),
        ("spiral", {"seed": "abc"}, "'seed'"),
        ("hyperplane-union", {"drop_lin": 3}, "['drop_lin']"),
    ], ids=["drop-line-past-the-end", "drop-line-negative", "no-radii",
            "seed-not-an-integer", "misspelt-key"])
    def test_geometry_spec_bad_param(self, tmp_path, variant, params, needle):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": variant, "b": 0.5,
                                    "window": [-4.0, 4.0], "params": params}))
        self._usage_error(["geometry", "check", "--geometry", str(spec)], needle)

    @pytest.mark.parametrize("variant", ["spiral", "concentric-circles"])
    def test_geometry_window_too_small(self, tmp_path, variant):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": variant, "b": 0.5,
                                    "window": [-0.8, 0.8]}))
        self._usage_error(["geometry", "check", "--geometry", str(spec)],
                          "[-0.8, 0.8]", "b=0.5", "7b/4 = 0.875")

    def test_geometry_spec_with_two_windows(self, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "curve-family", "b": 0.5, "window": [-8, 7],
                                    "params": {"window": [-4, 4]}}))
        self._usage_error(["geometry", "check", "--geometry", str(spec)],
                          "'--geometry'", "two windows", "[-8, 7]", "[-4, 4]")
        self._usage_error(["verify", "sampling", "--b", "0.5", "--geometry", str(spec),
                           "--out-dir", str(tmp_path / "out")],
                          "'--geometry'", "two windows")
        assert not (tmp_path / "out").exists()

    def test_geometry_check_non_positive_constant(self, tmp_path):
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "spiral", "b": 0.25, "C0_equiv": 0}))
        self._usage_error(["geometry", "check", "--geometry", str(spec)],
                          "must be positive", "C0_equiv=0.0")

    @pytest.mark.parametrize("body, args, needles", [
        ("b,error\n0.5,1\n0.25,0.5\n0.125,0.25\n", ["--y", "nosuch"],
         ["'--y'", "no such column"]),
        ("b,error\n0.5,1\n0.25,0.5\n0.125,0.25\n", ["--x", "a", "--y", "c"],
         ["'--x' / '--y'", "no such column"]),
        ("b,error\n0.5,1\n0.25,0.5\n", [], ["'--csv'", "at least 3 rows, got 2"]),
        ("b,error\n0.5,1\n0.25,0\n0.125,0.25\n", [],
         ["'--csv'", "positive finite values"]),
        ("b,error\n0.5,1\n0.25,abc\n0.125,0.25\n", [],
         ["'--csv'", "could not convert string to float: 'abc'"]),
        ("b,error\n0.5,1\n0.25\n0.125,0.25\n", [], ["'--csv'", "fewer cells"]),
    ], ids=["missing-y", "missing-x-and-y", "two-rows", "zero-cell",
            "non-numeric-cell", "short-row"])
    def test_fit_slope_bad_csv(self, tmp_path, body, args, needles):
        data = tmp_path / "rows.csv"
        data.write_text(body)
        self._usage_error(["fit-slope", "--csv", str(data), *args], *needles)

    @pytest.mark.parametrize("spec, needles", [
        ({"kind": "nope"}, ["unknown zoo kind 'nope'"]),
        ({"kind": "gaussian", "widht": 2.0},
         ["unknown key(s) ['widht']", "'width'"]),
        ({"width": 2.0}, ["no 'kind' key", "'width'"]),
        ({"kind": "tensor2d", "base": {"kind": "gaussian"}},
         ["tensor2d needs a Grid2D"]),
        ({"kind": "gaussian", "width": "abc"},
         ["field 'width' must be a number, got 'abc'"]),
        ([1, 2], ["must be a JSON object, got [1, 2]"]),
    ], ids=["unknown-kind", "unknown-key", "no-kind", "tensor2d-on-1d-grid",
            "non-numeric-value", "not-an-object"])
    def test_zoo_make_bad_spec(self, tmp_path, spec, needles):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "f.csv"
        self._usage_error(["zoo", "make", "--spec", str(path), "--out", str(out)],
                          "'--spec'", *needles)
        assert not out.exists()

    def test_reconstruct_2d_input_without_geometry(self, tmp_path, monkeypatch):
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        grid = Grid2D(g1, Grid1D(-4.0, 2.0**-3, 64))
        data = tmp_path / "f2d.csv"
        save_csv(GridFunction(grid, np.ones(grid.shape)), data)

        def no_projector(*args, **kwargs):
            raise AssertionError("P ran before the dimension check")

        monkeypatch.setattr(LowpassMultiplier, "apply", no_projector)
        self._usage_error(["reconstruct", "--input", str(data)],
                          "a 1D sampling set needs a 1D grid, got 2D")

    def test_reconstruct_bad_passband(self, gauss_csv, monkeypatch):
        def no_projector(*args, **kwargs):
            raise AssertionError("P ran before the passband check")

        monkeypatch.setattr(LowpassMultiplier, "apply", no_projector)
        self._usage_error(["reconstruct", "--input", gauss_csv,
                           "--c", "0.25", "--a", "0.5"], "need 0 < a < c")

    def test_approx_pl_2d_input(self, tmp_path):
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        data = tmp_path / "f2d.csv"
        save_csv(GridFunction(Grid2D(g1, g1), np.ones((64, 64))), data)
        self._usage_error(["approx", "pl", "--input", str(data)],
                          "a 1D sampling set needs a 1D grid function, got 2D")

    @pytest.mark.parametrize("two_d", [False, True])
    def test_approx_split_b_finer_than_the_grid(self, tmp_path, two_d):
        # h = 2^-3: Nyquist 4, below the stopband edge 32 of the default b = 2^-4
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        grid = Grid2D(g1, g1) if two_d else g1
        data = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.ones(grid.shape)), data)
        self._usage_error(["approx", "split", "--input", str(data)],
                          "b=0.0625 is finer than the grid resolves",
                          "Nyquist frequency 4.0")
        res = CliRunner().invoke(main, ["approx", "split", "--input", str(data),
                                        "--b", "0.5"])
        assert res.exit_code == 0, res.output

    def test_besov_norm_j_max_too_fine(self, gauss_csv):
        self._usage_error(["besov", "norm", "--s", "0.5", "--p", "2",
                           "--input", gauss_csv, "--j-max", "20"],
                          "'--j-min' / '--j-max'", "j_max=20 too fine")

    def test_besov_norm_lp_range_leaves_energy_out(self, gauss_csv):
        self._usage_error(["besov", "norm", "--def", "lp", "--s", "0.5", "--p", "2",
                           "--input", gauss_csv, "--j-min", "2", "--j-max", "4"],
                          "'--j-min' / '--j-max'", "outside covered band")

    def test_coeff_dump_bad_input_and_range(self, tmp_path, gauss_csv):
        out = tmp_path / "c.json"
        self._usage_error(["coeff-dump", "--input", gauss_csv, "--j-min", "-2",
                           "--j-max", "20", "--out", str(out)],
                          "'--j-min' / '--j-max'", "j_max=20 too fine")
        grid = Grid1D(-6.0, 0.375, 32)
        data = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.exp(-np.pi * grid.x**2)), data)
        self._usage_error(["coeff-dump", "--input", str(data), "--j-min", "-2",
                           "--j-max", "0", "--out", str(out)],
                          "'--input'", "needs dyadic grid spacing, got 0.375")
        assert not out.exists()

    def test_besov_norm_non_dyadic_input(self, tmp_path):
        grid = Grid1D(-6.0, 0.375, 32)
        data = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.exp(-np.pi * grid.x**2)), data)
        self._usage_error(["besov", "norm", "--s", "0.5", "--p", "2",
                           "--input", str(data)],
                          "'--input'", "needs dyadic grid spacing, got 0.375")

    def test_besov_norm_p_below_one(self, gauss_csv):
        self._usage_error(["besov", "norm", "--s", "0.5", "--p", "0.5",
                           "--input", gauss_csv],
                          "p must lie in [1, inf), got 0.5")

    def test_reconstruct_passband_above_nyquist(self, tmp_path, monkeypatch):
        # h = 2^-3: Nyquist 4, below c/b = 0.25 / 2^-6 = 16
        grid = Grid1D(-4.0, 2.0**-3, 64)
        data = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.exp(-np.pi * grid.x**2)), data)

        def no_projector(*args, **kwargs):
            raise AssertionError("P ran before the Nyquist check")

        monkeypatch.setattr(LowpassMultiplier, "apply", no_projector)
        self._usage_error(["reconstruct", "--input", str(data)],
                          "c/b = 16.0 must lie below the grid's Nyquist "
                          "frequency 4.0: lower c or raise b")

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one(self, tmp_path, monkeypatch, jobs):
        def no_pipeline(t):
            raise AssertionError("a tuple ran before the jobs check")

        monkeypatch.setitem(cli.PIPELINES, "heisenberg", no_pipeline)
        message = f"jobs must be a positive integer, got {jobs}"
        self._usage_error(["verify", "heisenberg", f"--jobs={jobs}",
                           "--out-dir", str(tmp_path)], message)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "heisenberg", "jobs": jobs,
                                   "out_dir": str(tmp_path / "out")}))
        self._usage_error(["sweep", "heisenberg", "--config", str(cfg)], message)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("args, bad", [
        (["verify", "heisenberg", "--p", "0.5"], "0.5"),
        (["verify", "sampling", "--p", "inf"], "inf"),
        (["sweep", "pl", "--p", "2,0.5"], "0.5")])
    def test_p_outside_range(self, tmp_path, monkeypatch, args, bad):
        def no_pipeline(t):
            raise AssertionError("a tuple ran before the p check")

        monkeypatch.setitem(cli.PIPELINES, args[1], no_pipeline)
        self._usage_error(args + ["--out-dir", str(tmp_path)],
                          f"p must lie in [1, inf), got {bad}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, option, bad", [
        (["verify", "sampling", "--b", "-0.5"], "'--b'", "-0.5"),
        (["verify", "heisenberg", "--b", "0"], "'--b'", "0.0"),
        (["sweep", "pl", "--b", "2^-3,inf"], "'--b'", "inf"),
        (["sweep", "split", "--s", "0.6,-1"], "'--s'", "-1.0")])
    def test_b_and_s_not_positive(self, tmp_path, monkeypatch, args, option, bad):
        def no_pipeline(t):
            raise AssertionError("a tuple ran before the b and s checks")

        monkeypatch.setitem(cli.PIPELINES, args[1], no_pipeline)
        name = option.strip("'-")
        self._usage_error(args + ["--out-dir", str(tmp_path)], option,
                          f"{name} must be a positive finite number, got {bad}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key, values, message", [
        ("b_list", ["x"], "b must be a positive finite number, got 'x'"),
        ("b_list", [], "b_list must be a non-empty list, got []"),
        ("s_list", [0.9, 0], "s must be a positive finite number, got 0"),
        ("p_list", ["2"], "p must lie in [1, inf), got '2'")])
    def test_config_value_lists(self, tmp_path, monkeypatch, key, values, message):
        def no_pipeline(t):
            raise AssertionError("a tuple ran before the config check")

        monkeypatch.setitem(cli.PIPELINES, "reconstruct", no_pipeline)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "reconstruct", key: values,
                                   "out_dir": str(tmp_path / "out")}))
        self._usage_error(["sweep", "reconstruct", "--config", str(cfg)],
                          f"the '{key}' key of '--config'", message)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("variant", ["curve-family", "hyperplane-union"])
    def test_geometry_off_the_grid_fails_before_any_field(self, tmp_path,
                                                         monkeypatch, variant):
        # a tuple analyzes its field before it builds and traces the geometry
        def no_field(*args, **kwargs):
            raise AssertionError("a field was built before the geometry check")

        monkeypatch.setattr(cli, "bandlimited_field_2d", no_field)
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": variant, "b": 0.5, "window": [-9, 9]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sampling", "b_list": [0.5],
                                   "geometry": str(spec),
                                   "out_dir": str(tmp_path / "out")}))
        for args, option in [
                (["verify", "sampling", "--b", "0.5", "--geometry", str(spec),
                  "--out-dir", str(tmp_path / "out")], "'--geometry'"),
                (["sweep", "sampling", "--config", str(cfg)],
                 "the 'geometry' key of '--config'")]:
            self._usage_error(args, option, "anchors off the 2D grid", "along x")
        assert not (tmp_path / "out").exists()

    def test_negative_seed(self, tmp_path, monkeypatch):
        def no_pipeline(t):
            raise AssertionError("a tuple ran before the seed check")

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "intb", "seeds": [3, -1],
                                   "out_dir": str(tmp_path / "out")}))
        for args, bad in [(["verify", "sampling", "--seed", "-1"], "-1"),
                          (["sweep", "pl", "--seed", "0,-2"], "-2"),
                          (["sweep", "intb", "--config", str(cfg)], "-1")]:
            monkeypatch.setitem(cli.PIPELINES, args[1], no_pipeline)
            self._usage_error(args + ["--out-dir", str(tmp_path / "out")],
                              f"seed must be a non-negative integer, got {bad}")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# rows of the reader table: a command line ({name} is a file of the
# `reader_files` fixture) and the columns, bad inputs, that it reads
READER_ROWS = {
    "besov-norm": ("besov norm --s 0.5 --p 2 --input {csv}",
                   ("non-dyadic", "unknown-family", "order-out-of-range", "one-row",
                    "missing-point", "unsorted", "y-major")),
    "besov-filters": ("besov filters", ("unknown-family", "order-out-of-range")),
    "coeff-dump": ("coeff-dump --input {csv} --j-min -2 --j-max 0 --out {out}",
                   ("non-dyadic", "order-out-of-range")),
    "approx-split": ("approx split --mode wavelet --b 0.5 --input {csv}",
                     ("non-dyadic",)),
    "besov-norm-lp": ("besov norm --def lp --s 0.5 --p 2 --input {csv}",
                      ("not-a-power-of-two",)),
    "approx-pl": ("approx pl --input {csv}", ("two-d",)),
    "reconstruct": ("reconstruct --input {csv}", ("two-d", "not-a-power-of-two")),
    "geometry-check": ("geometry check --geometry {spec}",
                       ("missing-key", "mistyped-param")),
    "reconstruct-geometry": ("reconstruct --input {grid2d} --geometry {spec}",
                             ("missing-key", "mistyped-param")),
    "verify-sampling": ("verify sampling --geometry {spec} --out-dir {out_dir}",
                        ("missing-key", "mistyped-param")),
    "sweep-config": ("sweep sampling --config {config}",
                     ("missing-key", "mistyped-param")),
    "zoo-make": ("zoo make --spec {zoo} --out {out}", ("unknown-kind", "mistyped-field")),
    "fit-slope": ("fit-slope --csv {fit}",
                  ("non-numeric-cell", "unknown-x", "unknown-y", "two-rows")),
}
# columns: the files a bad input puts in place of good ones, the options it
# adds, and the option that the error must name
READER_COLUMNS = {
    "non-dyadic": ({"csv": "non-dyadic.csv"}, "", "'--input'"),
    "two-d": ({"csv": "grid2d.csv"}, "", "'--input'"),
    "not-a-power-of-two": ({"csv": "300-points.csv"}, "", "'--input'"),
    "one-row": ({"csv": "one-row.csv"}, "", "'--input'"),
    "missing-point": ({"csv": "missing-point.csv"}, "", "'--input'"),
    "unsorted": ({"csv": "unsorted.csv"}, "", "'--input'"),
    "y-major": ({"csv": "y-major.csv"}, "", "'--input'"),
    "missing-key": ({"spec": "missing-key.json", "config": "config-missing-key.json"},
                    "", "'--geometry'"),
    "mistyped-param": ({"spec": "mistyped.json", "config": "config-mistyped.json"},
                       "", "'--geometry'"),
    "unknown-family": ({}, " --basis foo", "'--basis'"),
    "order-out-of-range": ({}, " --order 11", "'--order'"),
    "unknown-kind": ({"zoo": "zoo-unknown-kind.json"}, "", "'--spec'"),
    "mistyped-field": ({"zoo": "zoo-mistyped.json"}, "", "'--spec'"),
    "non-numeric-cell": ({"fit": "fit-non-numeric.csv"}, "", "'--csv'"),
    "unknown-x": ({}, " --x gap", "'--x'"),
    "unknown-y": ({}, " --y err", "'--y'"),
    "two-rows": ({"fit": "fit-two-rows.csv"}, "", "'--csv'"),
}
READER_CELLS = [(row, column) for row, (_, columns) in READER_ROWS.items()
                for column in columns]


@pytest.fixture()
def reader_files(tmp_path, monkeypatch):
    """Small inputs, good and bad, and no heavy work: building a 2D field
    or running P fails the test."""
    def heavy(*args, **kwargs):
        raise AssertionError("heavy work ran before the inputs were read")

    monkeypatch.setattr(cli, "bandlimited_field_2d", heavy)
    monkeypatch.setattr(LowpassMultiplier, "apply", heavy)
    g1 = Grid1D(-4.0, 2.0**-3, 64)
    save_csv(GridFunction(g1, np.exp(-np.pi * g1.x**2)), tmp_path / "good.csv")
    save_csv(GridFunction(Grid2D(g1, g1), np.ones((64, 64))), tmp_path / "grid2d.csv")
    odd = Grid1D(-6.0, 0.375, 32)
    save_csv(GridFunction(odd, np.exp(-np.pi * odd.x**2)), tmp_path / "non-dyadic.csv")
    g300 = Grid1D(-1.5, 0.01, 300)
    save_csv(GridFunction(g300, np.exp(-np.pi * g300.x**2)), tmp_path / "300-points.csv")
    # rows that are not a grid's points in x-major order, as `save_csv` writes them
    good = (tmp_path / "good.csv").read_text().splitlines()
    rows = {"one-row": good[:2], "missing-point": ["x,value", "0,1", "1,2", "3,4", "4,5"],
            "unsorted": [good[0], good[2], good[1], *good[3:]],
            "y-major": ["x,y,value"] + [f"{x},{y},{x + y}" for y in range(4) for x in range(4)]}
    for name, lines in rows.items():
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    # a sweep gives the spec its own b, so the key every reader needs is the variant
    specs = {"missing-key": {"b": 0.5, "window": [-4.0, 4.0]},
             "mistyped": {"variant": "curve-family", "b": 0.5, "window": [-4.0, 4.0],
                          "params": {"seed": "x"}}}
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        (tmp_path / f"config-{name}.json").write_text(json.dumps({
            "command": "sampling", "b_list": [0.5], "out_dir": str(tmp_path / "out"),
            "geometry": str(tmp_path / f"{name}.json")}))
    zoo_specs = {"unknown-kind": {"kind": "sawtooth"},
                 "mistyped": {"kind": "gaussian", "width": "wide"}}
    for name, spec in zoo_specs.items():
        (tmp_path / f"zoo-{name}.json").write_text(json.dumps(spec))
    fits = {"": "0.5,0.1\n0.25,0.05\n0.125,0.025\n",
            "-non-numeric": "0.5,0.1\n0.25,abc\n0.125,0.025\n",
            "-two-rows": "0.5,0.1\n0.25,0.05\n"}
    for name, rows in fits.items():
        (tmp_path / f"fit{name}.csv").write_text("b,error\n" + rows)
    return tmp_path


@pytest.mark.parametrize("row, column", READER_CELLS,
                         ids=[f"{row}-{column}" for row, column in READER_CELLS])
def test_each_reader_names_its_option(reader_files, row, column):
    """Each kind of input is read in one place: every bad one exits 2 with
    no traceback, before any heavy work, naming the option it came in by."""
    template, _ = READER_ROWS[row]
    files, extra, option = READER_COLUMNS[column]
    if row == "sweep-config":
        option = "the 'geometry' key of '--config'"
    paths = {"csv": "good.csv", "grid2d": "grid2d.csv", "spec": "", "config": "",
             "zoo": "", "fit": "fit.csv", **files, "out": "c.json", "out_dir": "out"}
    args = [token.format(**{k: str(reader_files / v) for k, v in paths.items()})
            for token in (template + extra).split()]
    res = TestUsageErrors._usage_error(args, option)
    assert res.output.count("Error:") == 1
    assert not (reader_files / "out").exists()
    assert not (reader_files / "c.json").exists()


@pytest.mark.parametrize("args, option", [
    ("verify heisenberg --b ,", "'--b'"),
    ("verify heisenberg --b 2^-3..abc", "'--b'"),
    ("verify heisenberg --p 2,x", "'--p'"),
    ("sweep split --s abc", "'--s'"),
    ("sweep split --seed 1,x", "'--seed'"),
    ("approx pl --input {csv} --b 2^x", "'--b'"),
    ("besov norm --s 0.5 --p 2 --q abc --input {csv}", "'--s' / '--p' / '--q'"),
], ids=["empty-list", "range-end", "p-not-a-number", "s-not-a-number",
        "seed-not-an-integer", "approx-b", "q-not-a-number"])
def test_value_readers_name_their_option(reader_files, monkeypatch, args, option):
    def no_pipeline(t):
        raise AssertionError("a tuple ran before the values were read")

    for name in PIPELINES:
        monkeypatch.setitem(cli.PIPELINES, name, no_pipeline)
    csv = str(reader_files / "good.csv")
    TestUsageErrors._usage_error([t.format(csv=csv) for t in args.split()], option)


def test_2d_sampling_tuple_holds_the_field_and_the_geometry(tmp_path):
    """At its peak one 2D sampling tuple on the b=2^-4 spiral holds the field,
    the geometry and at most 2 MiB more: the L^p norm's row block (1 MiB on
    2048 points) and 16 blocks of anchors.  It analyzes the field before it
    builds the geometry and streams the trace norms; with the trace built and
    held through the analysis it held about 50 MiB more."""
    grid2 = default_grid_2d()
    spec = {"variant": "spiral", "b": 2.0**-4, "window": list(window_for_grid(grid2)),
            "params": {"seed": 3}}
    path = tmp_path / "spiral.json"
    path.write_text(json.dumps(spec))
    g = geometry_from_json_dict(spec)
    geometry_bytes = sum(a.nbytes for a in (g.anchors, g.anchor_weights, g.cell_a,
                                            g.cell_b, g.boundary_flags))
    del g
    field_bytes = 8 * grid2.shape[0] * grid2.shape[1]
    blocks = _ROW_BLOCK * grid2.shape[1] * 8 + 16 * _POINT_BLOCK * 2 * 8
    default_basis()  # built once per process and cached, not the tuple's
    peak, row = traced_peak(
        lambda: cli.run_sampling_tuple((2.0**-4, 2.0, None, 3, str(path))))
    assert row["ok"] and row["hypothesis_ok"]
    assert peak < field_bytes + geometry_bytes + blocks, (
        peak, field_bytes, geometry_bytes, blocks)


class TestReconstructGeometry:
    """`reconstruct --geometry` on a 64^2 grid: the variants with a
    reconstruction lattice run; the others are usage errors naming the
    variant, raised before P runs."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant(self, tmp_path, monkeypatch, variant):
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        grid = Grid2D(g1, Grid1D(-4.0, 2.0**-3, 64))
        data = tmp_path / "f2d.csv"
        u = np.exp(-np.pi * (g1.x / 2.0) ** 2)
        save_csv(GridFunction(grid, np.outer(u, u)), data)
        raw = {"variant": variant, "b": 0.5, "window": [g1.x[0], g1.x[-1]],
               "params": {"seed": 1}}
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps(raw))
        args = ["reconstruct", "--input", str(data), "--geometry", str(spec),
                "--iters", "2"]
        if variant not in ("hyperplane-union", "curve-family"):
            def no_projector(*args, **kwargs):
                raise AssertionError("P ran before the lattice check")

            monkeypatch.setattr(LowpassMultiplier, "apply", no_projector)
            TestUsageErrors._usage_error(args, f"variant {variant!r} has no "
                                         "reconstruction lattice")
            return
        if variant == "hyperplane-union":
            # the random line heights are off the grid rows
            heights = np.asarray(geometry_from_json_dict(raw).params["heights"])
            assert np.any(np.abs(heights / g1.spacing - np.round(heights / g1.spacing))
                          > 0.1)
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)["report"]
        assert not report["diverged"]
        assert 0 < report["rel_error"] < 1
        assert "besov_norm" not in report and "bound_ratio" not in report

    @pytest.mark.parametrize("variant", ["curve-family", "hyperplane-union"])
    def test_window_inside_the_grid(self, tmp_path, variant):
        # grid points that no node reaches get A c = 0, so the report is finite
        g1 = Grid1D(-8.0, 2.0**-4, 256)
        data = tmp_path / "f2d.csv"
        u = np.exp(-np.pi * (g1.x / 2.0) ** 2)
        save_csv(GridFunction(Grid2D(g1, g1), np.outer(u, u)), data)
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": variant, "b": 2.0**-3,
                                    "window": [-4.0, 4.0], "params": {"seed": 1}}))
        res = CliRunner().invoke(main, ["reconstruct", "--input", str(data),
                                        "--geometry", str(spec)])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)["report"]
        assert not report["diverged"]
        numbers = [report[k] for k in ("total_error", "rel_error", "h_norm", "g_error",
                                       "h_reconstructed_norm")] + report["residuals"]
        assert all(math.isfinite(x) for x in numbers)
        assert report["rel_error"] < 1e-2

    def test_window_off_the_grid_lattice(self, tmp_path, monkeypatch):
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        data = tmp_path / "f2d.csv"
        save_csv(GridFunction(Grid2D(g1, g1), np.ones((64, 64))), data)
        spec = tmp_path / "geom.json"
        spec.write_text(json.dumps({"variant": "hyperplane-union", "b": 0.5,
                                    "window": [-3.9375, 3.875],
                                    "params": {"seed": 1}}))

        def no_projector(*args, **kwargs):
            raise AssertionError("P ran before the lattice check")

        monkeypatch.setattr(LowpassMultiplier, "apply", no_projector)
        TestUsageErrors._usage_error(
            ["reconstruct", "--input", str(data), "--geometry", str(spec)],
            "window [-3.9375, 3.875] by -0.0625")


class TestFingerprints:
    """Every option that changes a command's answer changes its hash."""

    @staticmethod
    def _hash(args):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
        fp = json.loads(res.output)["fingerprint"]
        return fp if isinstance(fp, str) else fp["hash"]

    @pytest.mark.parametrize("option", [["--def", "lp"], ["--basis", "haar"],
                                        ["--order", "2"], ["--j-min", "-6"],
                                        ["--j-max", "6"]])
    def test_besov_norm(self, gauss_csv, option):
        base = ["besov", "norm", "--s", "0.5", "--p", "2", "--input", gauss_csv]
        assert self._hash(base + option) != self._hash(base)

    def test_reconstruct_passband(self, tmp_path):
        grid = Grid1D(-4.0, 2.0**-8, 2048)
        data = tmp_path / "f.csv"
        save_csv(GridFunction(grid, np.exp(-np.pi * grid.x ** 2)), data)
        base = ["reconstruct", "--input", str(data), "--b", str(2.0**-4),
                "--iters", "2"]
        assert self._hash(base + ["--a", "0.1"]) != self._hash(base)

    def test_reconstruct_geometry_spec(self, tmp_path):
        g1 = Grid1D(-4.0, 2.0**-3, 64)
        grid = Grid2D(g1, Grid1D(-4.0, 2.0**-3, 64))
        data = tmp_path / "f2d.csv"
        u = np.exp(-np.pi * (g1.x / 2.0) ** 2)
        save_csv(GridFunction(grid, np.outer(u, u)), data)
        hashes = []
        for seed in (1, 2):
            spec = tmp_path / f"geom{seed}.json"
            spec.write_text(json.dumps({
                "variant": "curve-family", "b": 0.5,
                "window": [g1.x[0], g1.x[-1]], "params": {"seed": seed}}))
            hashes.append(self._hash(["reconstruct", "--input", str(data),
                                      "--geometry", str(spec), "--iters", "2"]))
        assert hashes[0] != hashes[1]

    def test_sweep_geometry_spec(self, tmp_path, monkeypatch):
        """A sweep hashes its geometry spec's content, not the spec's path."""
        # only the fingerprint is read, so the sweep's rows are a stand-in
        monkeypatch.setattr(cli, "execute_sweep",
                            lambda cfg: [{"b": cfg.b_list[0], "ok": True}])

        def sweep_hash(spec):
            out = tmp_path / "out.json"
            res = CliRunner().invoke(main, ["verify", "sampling", "--b", "2^-3",
                                            "--geometry", str(spec), "--out-dir",
                                            str(tmp_path / "sweep"), "--out", str(out)])
            assert res.exit_code == 0, res.output
            return json.loads(out.read_text())["fingerprint"]["hash"]

        spec = {"variant": "curve-family", "b": 0.125, "window": [-8.0, 7.9921875],
                "params": {"seed": 1}}
        first, copy = tmp_path / "geom.json", tmp_path / "copy" / "geom.json"
        copy.parent.mkdir()
        for path in (first, copy):
            path.write_text(json.dumps(spec))
        before = sweep_hash(first)
        assert sweep_hash(copy) == before
        spec["params"]["seed"] = 2
        first.write_text(json.dumps(spec))
        assert sweep_hash(first) != before


def test_cli_import_loads_only_the_scipy_it_uses(tmp_path):
    """Importing the CLI loads no part of scipy, and neither do the bench's
    set-up tuple (`pl` at b=2^-3), a 2D `sampling` tuple, a 1D critical norm
    and a 1D `sampling` and `reconstruct` tuple, which run on numpy alone
    (every 1D transform is `numpy.fft`'s).  `scipy.special` comes with the
    first geometry check, and `scipy.spatial` with none: the check's
    neighbourhoods come from the geometry's own cell table.  A 2D `build_operator`
    and one apply of its partition of unity, which places its kernel
    directly, load no `scipy.fft`.  The import loads none of the `unused`
    subpackages, which cost about 25 MiB and 0.25 s of every start.  A fresh
    interpreter shows what each step pulls in."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spec = tmp_path / "spiral.json"
    spec.write_text(json.dumps({
        "variant": "spiral", "b": 2.0**-4,
        "window": list(window_for_grid(default_grid_2d())), "params": {"seed": 3}}))
    code = """
import sys
import numpy as np
import besovsampling.cli as cli
from besovsampling.besov import critical_norm
from besovsampling.geometry import build_geometry, check_conditions
from besovsampling.grid import Grid1D, Grid2D, GridFunction, default_grid_1d
from besovsampling.reconstruct import ReconstructionConfig, build_operator
def scipy_modules():
    return [name for name in sys.modules if name.split(".")[0] == "scipy"]
unused = ("scipy.interpolate", "scipy.spatial", "scipy.optimize", "scipy.linalg",
          "scipy.sparse", "scipy.signal")
print(*[name for name in unused if name in sys.modules])
print(*scipy_modules())
cli.execute_sweep(cli.RunConfig("pl", b_list=[2.0**-3], seeds=[2**40]))
row = cli.run_sampling_tuple((2.0**-4, 2.0, None, 3, sys.argv[1]))
print(row["ok"], *scipy_modules())
g = default_grid_1d()
critical_norm(GridFunction(g, np.exp(-np.pi * g.x**2)), 2.0)
rows = [cli.run_sampling_tuple((2.0**-3, 2.0, None, 5, None)),
        cli.run_reconstruct_tuple((2.0**-3, 2.0, None, 5, None))]
print(*[row["ok"] for row in rows], *scipy_modules())
family = build_geometry("curve-family", {"b": 0.5, "window": (-4, 4)})
check_conditions(family, n_probes=10)
print("scipy.spatial" in sys.modules, "scipy.special" in sys.modules,
      "scipy.fft" in sys.modules)
axis = Grid1D(-4.0, 2.0**-4, 128)
op = build_operator(family, ReconstructionConfig(), Grid2D(axis, axis))
op.partition.apply(np.ones(len(op.nodes)))
print("scipy.fft" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", code, str(spec)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["", "", "True", "True True",
                                       "False True False", "False"]
