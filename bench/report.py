"""Run every workload, untraced once and traced twice, and print the metrics.

    python3 bench/report.py [--seed 1] [--seconds 30] [--workload NAME ...]

For each workload this prints every end-to-end metric with its unit, the
median op time with its sample count, the wall-clock figures (``op_s.p90``
too), the ``fail_ratio``, the traced run's overhead as traced versus
untraced ``ops_per_s``, whether the work counters of the two traced runs
agree exactly, and every per-layer metric.  All three workloads take about
three minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    results = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"line": last, "results": json.loads(results.read_text())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    all_ok = True
    for w in args.workload or WORKLOADS:
        plain = _run(w, args.seed, args.seconds, 0)
        traced = [_run(w, args.seed, args.seconds, 1) for _ in range(2)]
        res, x = plain["results"], plain["results"]["extra"]
        env = res["environment"]
        print(f"== {w} (seed {args.seed}; {res['attempted']} ops, "
              f"{res['failed']} failed, {res['checked']} checked against references)")
        for name, m in plain["line"]["metrics"].items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
        print(f"  {'op_s.p50':<12} {x['op_s.p50']:.6g} s (n={x['samples']})")
        print(f"  wall clock: ops_per_s {x['wall_ops_per_s']:.6g} 1/s, op_s.p50 "
              f"{x['wall_op_s.p50']:.6g} s, op_s.p90 {x['wall_op_s.p90']:.6g} s "
              f"(n={x['samples']})")
        print(f"  {'fail_ratio':<12} {x['fail_ratio']:.6g} "
              f"({res['failed']}/{res['attempted']})")
        largest = env["largest_array"]
        print(f"  largest array {largest['bytes'] / 2**20:.2f} MiB ({largest['what']})"
              f" against LLC {env['caches_bytes'].get(env['llc'], 0) / 2**20:.0f} MiB")
        t_rate = traced[0]["results"]["metrics"]["ops_per_s"]
        u_rate = res["metrics"]["ops_per_s"]
        spans = len(traced[0]["results"]["spans"])
        print(f"  tracing overhead: traced ops_per_s {t_rate:.6g} vs untraced "
              f"{u_rate:.6g} ({(u_rate / t_rate - 1) * 100:+.1f}%, one run each; "
              f"{spans} spans per traced pass)")
        a, b = (t["line"]["metrics"] for t in traced)
        counts = [k for k, m in a.items() if m["unit"] != "s"]
        differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
        print(f"  counters of two traced runs: "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        for k, m in a.items():
            print(f"    {k:<44} {m['value']:.6g} {m['unit']}")
        all_ok &= not differ and plain["line"]["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
