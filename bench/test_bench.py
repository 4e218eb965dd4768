"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Tracing must not change what the package computes, the work counters of two
traced runs must agree exactly, the output check must reject a changed
value, and the benchmark must refuse to run where the package is missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from besovsampling import cli  # noqa: E402

# The cheaper half of one sweep-1d pass: every pipeline kind that runs in
# about a second in total, plus the Neumann reconstruction at the coarsest b.
CHEAP = ("pl|", "split|", "besov-norm|", "reconstruct|b=0.125|")


def _execute(work_dir: Path, tracer: tracing.Tracer | None = None) -> dict:
    ops = [op for op in workloads.sweep_1d(work_dir, 3, 0)
           if op.key.startswith(CHEAP)]
    if tracer:
        tracer.install()
    try:
        return {op.key: check.normalise(op.call()) for op in ops}
    finally:
        if tracer:
            tracer.uninstall()


def test_tracing_leaves_outputs_unchanged(tmp_path):
    original = cli.execute_sweep
    plain = _execute(tmp_path / "plain")
    tracer = tracing.Tracer()
    traced = _execute(tmp_path / "traced", tracer)
    assert traced == plain
    assert tracer.spans, "the traced run recorded no spans"
    assert cli.execute_sweep is original, "uninstall left a wrapper behind"


def test_counters_repeat_exactly(tmp_path):
    runs = []
    for name in ("first", "second"):
        tracer = tracing.Tracer()
        _execute(tmp_path / name, tracer)
        runs.append(tracer.metrics())
    counts = [k for k, unit in tracing.metric_units().items() if unit != "s"]
    first, second = ({k: m[k] for k in counts} for m in runs)
    assert first == second
    for name in ("grid.fft_points", "reconstruct.neumann.iters",
                 "reconstruct.pou.nodes", "inequalities.trace.points",
                 "wavelets.analyze.coeffs", "cli.bytes_written"):
        assert first[name] > 0, name


def test_shipped_references_match_this_commit(tmp_path):
    refs = check.load_refs("sweep-1d")
    out = _execute(tmp_path)
    shared = [k for k in out if k in refs]
    assert shared, "no shipped reference covers seed 3"
    for key in shared:
        ok, numbers = out[key]
        assert ok, key
        assert check.mismatches(numbers, refs[key], key) == []


def test_check_rejects_a_perturbed_reference():
    got = {"ratio": 1.2345678901234, "ok": True, "rows": 3,
           "slope_fit": {"slope": 0.5, "residual": [1e-3, -1.25]}}
    ref = copy.deepcopy(got)
    assert check.mismatches(got, ref) == []
    ref["slope_fit"]["residual"][1] *= 1 + 1e-13   # reordering noise passes
    assert check.mismatches(got, ref) == []
    ref["slope_fit"]["residual"][1] *= 1 + 1e-7
    (where,) = check.mismatches(got, ref)
    assert where.startswith(".slope_fit.residual[1]:")
    flipped = dict(copy.deepcopy(got), ok=False)
    assert check.mismatches(got, flipped)
    assert check.mismatches(got, dict(copy.deepcopy(got), rows=3.0))


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sweep-1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
