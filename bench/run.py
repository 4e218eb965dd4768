"""Benchmark of besovsampling: one workload, one run.

    python3 bench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It imports the package from ``src/``,
drives it through its public functions, one operation at a time (a closed
loop, jobs=1, BLAS/OpenMP threads capped at 1), and prints a JSON object as
the last line of standard output.

A run is WORKERS worker processes, started one after another and never two
at once.  Each sets up as a command-line call does, then measures whole
passes of the workload (see workloads.py) for its share of ``--seconds``;
every pass runs the same kinds of operation on fresh input seeds.

Each operation is timed on the wall clock, and so is a fixed calibration
loop (numpy FFT, sort and interpreter work) before and after it.  The
timings reported are at reference speed: an op's wall time times
REF_CALIBRATION_S over what the loop took around it.  The machine is a few
cores of a shared host, whose speed moves by up to a half in spells of
seconds to minutes; the ratio to the loop stays within a few per cent of
itself through them (see README.md).  The wall-clock figures go to the
summary lines and the results file.  ``setup_s`` is the median of the
workers' set-ups, rescaled by a calibration point taken right after each.

A traced run (``--trace 1``) is one worker measuring exactly one pass, so
its work counters repeat exactly, and reports the per-layer metrics of
tracing.py instead of the end-to-end ones.

An operation fails when it raises, when its own flag is false, or when its
numbers differ from the reference recorded for its inputs (check.py).
Failed operations do not count towards ``ops_per_s``.

Everything the run writes goes under ``.bench_out/`` in the checkout: the
results file with every operation's numbers and the environment record,
the outputs the sweeps write, and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKERS = 3               # measuring processes in an untraced run
CAL_POINTS = 1 << 16      # size of the calibration loop
CAL_REPS = 3              # runs of the loop in a calibration point, at least,
CAL_SHARE = 0.01          # ... over at least this share of the op before it
CAL_FIRST_S = 0.05        # ... or over this long after set-up
# What the calibration loop takes in the fast spells of the 2-core host the
# references were recorded on (2.1 GHz, Python 3.11.7, numpy 2.4.6).
REF_CALIBRATION_S = 0.003
WORKER_TIMEOUT_S = 150
WARMUP_SEED = 2**40       # no pass seed reaches it
END_TO_END_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"}


def load_package():
    """Cap native threads, then import besovsampling from this checkout."""
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    pkg = SRC / "besovsampling"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {pkg}; run this from "
                         "the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import besovsampling
    if Path(besovsampling.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported besovsampling from "
                         f"{besovsampling.__file__}, not from {pkg}")


def setup() -> float:
    """Seconds for what a command-line call pays before its first result:
    import, basis build and one cheap warm-up tuple."""
    t0 = time.perf_counter()
    load_package()
    from besovsampling import cli, wavelets
    wavelets.build_basis("daubechies", 4)
    cli.execute_sweep(cli.RunConfig("pl", b_list=[2.0**-3], seeds=[WARMUP_SEED]))
    return time.perf_counter() - t0


def _cache_sizes() -> dict[str, int]:
    """Cache sizes of cpu0 in bytes, keyed like 'L1d', 'L2', 'L3'."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[name] = int(size.rstrip("KMG")) * mult
    return sizes


def environment(largest: tuple[int, str]) -> dict:
    import numpy
    import scipy
    caches = _cache_sizes()
    llc = max((k for k in caches if not k.endswith("i")), default=None,
              key=lambda k: (int(k[1]), k))
    nbytes, what = largest
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAPS},
        "caches_bytes": caches,
        "llc": llc,
        "largest_array": {"bytes": nbytes, "what": what,
                          "share_of_llc": nbytes / caches[llc] if llc else None},
    }


class Calibration:
    """A fixed loop of numpy FFT, sort and interpreter work, timed between
    operations to read how fast the machine runs at that moment."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._x = np.random.default_rng(0).standard_normal(CAL_POINTS)

    def point(self, seconds: float) -> float:
        """Seconds the loop takes now: the shortest of at least CAL_REPS
        runs over at least `seconds`, so that an interrupt or a stall
        shorter than that does not count."""
        np, x = self._np, self._x
        best = math.inf
        runs = 0
        started = time.perf_counter()
        while runs < CAL_REPS or time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            np.sort(np.fft.irfft(np.fft.rfft(x)))
            total = 0
            for i in range(CAL_POINTS // 4):
                total += i * i
            best = min(best, time.perf_counter() - t0)
            runs += 1
        return best


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """`seconds` rescaled to a machine on which the calibration loop takes
    REF_CALIBRATION_S."""
    return seconds * REF_CALIBRATION_S / calibration_s


def measure(workload: str, seed: int, first_pass: int, seconds: float,
            traced: bool, passes_wanted: int | None) -> dict:
    """The body of one worker: set up, then time whole passes from
    `first_pass` on, or exactly `passes_wanted` of them.  After the first,
    a pass starts only if one more as long as the last still ends within
    `seconds`."""
    setup_s = setup()
    import check
    import tracing
    import workloads
    calibration = Calibration()
    cal = setup_cal_s = calibration.point(CAL_FIRST_S)
    make_pass = workloads.WORKLOADS[workload]
    work_dir = OUT / "work" / f"{workload}-{seed}-trace{int(traced)}"
    tracer = tracing.Tracer() if traced else None

    records: list[dict] = []
    passes = 0
    started = time.perf_counter()
    if tracer:
        tracer.install()
    try:
        while True:
            pass_started = time.perf_counter()
            for op in make_pass(work_dir, seed, first_pass + passes):
                if tracer:
                    tracer.op_id = len(records)
                error = numbers = None
                t0 = time.perf_counter()
                try:
                    ok, numbers = op.call()
                except Exception as exc:  # a failed op is counted, not fatal
                    ok, error = False, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                cal_before, cal = cal, calibration.point(CAL_SHARE * dt)
                records.append({"key": op.key, "seconds": dt,
                                "calibration_s": (cal_before + cal) / 2,
                                "ok": bool(ok), "error": error,
                                "numbers": check.normalise(numbers)})
            passes += 1
            elapsed = time.perf_counter() - started
            last_pass = time.perf_counter() - pass_started
            if (passes >= passes_wanted if passes_wanted is not None
                    else elapsed + last_pass > seconds):
                break
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "setup_s": setup_s, "setup_calibration_s": setup_cal_s,
        "passes": passes, "records": records,
        "measured_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_layer": tracer.metrics() if tracer else None,
        "spans": tracer.span_records() if tracer else None,
    }


def spawn_worker(workload: str, seed: int, first_pass: int, seconds: float,
                 traced: bool, passes_wanted: int | None, index: int) -> dict:
    """Run `measure` in a fresh interpreter and wait for it to end."""
    out = OUT / "work" / f"worker-{workload}-{seed}-trace{int(traced)}-{index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(out),
           "--workload", workload, "--seed", str(seed), "--first-pass",
           str(first_pass), "--seconds", repr(seconds), "--trace", str(int(traced))]
    if passes_wanted is not None:
        cmd += ["--passes", str(passes_wanted)]
    subprocess.run(cmd, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, traced: bool,
        passes_wanted: int | None = None) -> dict:
    """Run the workload in worker processes, check its outputs; returns the
    results record.  Importing the package here first compiles and caches
    what the workers then load, so that no timed set-up pays for it."""
    load_package()
    import check
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    shutil.rmtree(OUT / "work" / f"{workload}-{seed}-trace{int(traced)}",
                  ignore_errors=True)
    if traced and passes_wanted is None:
        passes_wanted = 1
    n_workers = WORKERS if passes_wanted is None else 1
    parts: list[dict] = []
    for index in range(n_workers):
        first_pass = sum(p["passes"] for p in parts)
        share = (seconds - sum(p["measured_s"] for p in parts)) / (n_workers - index)
        parts.append(spawn_worker(workload, seed, first_pass, share, traced,
                                  passes_wanted, index))
    setup_samples = [at_reference_speed(p["setup_s"], p["setup_calibration_s"])
                     for p in parts]
    records = [r for p in parts for r in p["records"]]

    refs = check.load_refs(workload)
    checked = 0
    for r in records:
        r["mismatch"] = []
        if r["error"] is None and r["key"] in refs:
            checked += 1
            r["mismatch"] = check.mismatches(r["numbers"], refs[r["key"]], r["key"])
        r["verified"] = r["ok"] and not r["mismatch"]

    times = [r["seconds"] for r in records]
    ref_times = [at_reference_speed(r["seconds"], r["calibration_s"]) for r in records]
    verified = sum(r["verified"] for r in records)
    metrics = {
        "ops_per_s": verified / sum(ref_times),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "setup_s": statistics.median(setup_samples),
    }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "workers": n_workers, "passes": sum(p["passes"] for p in parts),
        "attempted": len(records), "failed": len(records) - verified,
        "checked": checked, "metrics": metrics,
        "extra": {
            "op_s.p50": statistics.median(ref_times),
            "wall_ops_per_s": verified / sum(times),
            "wall_op_s.p50": statistics.median(times),
            "wall_op_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[-1]
                              if len(times) >= 2 else times[0]),
            "samples": len(times),
            "fail_ratio": (len(records) - verified) / len(records),
            "setup_samples_s": setup_samples,
            "wall_setup_samples_s": [p["setup_s"] for p in parts],
            "calibration_s.p50": statistics.median(r["calibration_s"] for r in records),
        },
        "per_layer": parts[0]["per_layer"] if traced else None,
        "environment": environment(workloads.largest_array(workload, seed)),
        "ops": records,
        "spans": parts[0]["spans"] if traced else None,
    }


def _summary(res: dict) -> list[str]:
    m, x, env = res["metrics"], res["extra"], res["environment"]
    largest = env["largest_array"]
    share = largest["share_of_llc"]
    lines = [
        f"# {res['workload']} seed {res['seed']} "
        f"({'traced' if res['trace'] else 'untraced'}): {res['attempted']} ops in "
        f"{res['passes']} pass(es) over {res['workers']} worker(s), "
        f"{res['failed']} failed, {res['checked']} checked against references",
        f"# at reference speed: ops_per_s {m['ops_per_s']:.4g} 1/s | op_s.p50 "
        f"{x['op_s.p50']:.4g} s (n={x['samples']}) | peak_rss_mb "
        f"{m['peak_rss_mb']:.1f} MiB | setup_s {m['setup_s']:.4g} s (median of "
        f"{len(x['setup_samples_s'])}) | fail_ratio {x['fail_ratio']:.4g}",
        f"# wall clock: ops_per_s {x['wall_ops_per_s']:.4g} 1/s | op_s.p50 "
        f"{x['wall_op_s.p50']:.4g} s | op_s.p90 {x['wall_op_s.p90']:.4g} s | "
        f"calibration loop {x['calibration_s.p50'] * 1e3:.3g} ms (reference "
        f"{REF_CALIBRATION_S * 1e3:.3g} ms)",
        f"# nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, threads capped at 1, LLC "
        f"{env['llc']} {env['caches_bytes'].get(env['llc'], 0) / 2**20:.0f} MiB; "
        f"largest array {largest['bytes'] / 2**20:.2f} MiB ({largest['what']})"
        + (f", {share:.3f} x LLC" if share is not None else ""),
    ]
    for r in res["ops"]:
        if not r["verified"]:
            why = r["error"] or ("own flag false" if not r["ok"]
                                 else "; ".join(r["mismatch"][:3]))
            lines.append(f"# FAILED {r['key']}: {why}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int,
                    help="run exactly this many passes instead of --seconds "
                         "(for recording references)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--first-pass", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.worker:
        part = measure(args.workload, args.seed, args.first_pass, args.seconds,
                       bool(args.trace), args.passes)
        Path(args.worker).write_text(json.dumps(part), encoding="utf-8")
        return 0

    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.passes)
    out = OUT / "results" / f"{res['workload']}-seed{res['seed']}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(res, indent=1, default=str) + "\n", encoding="utf-8")
    if args.trace:
        import tracing
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in res["metrics"].items()}
    for line in _summary(res):
        print(line)
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
