"""Output check: compare an operation's numbers with a recorded reference.

References live in ``bench/refs/<workload>.json`` as ``{op key: numbers}``.
They were recorded by this benchmark at the commit that added it; an
operation whose key has a reference must reproduce it.  Floats may move by
RTOL relative (ATOL absolute near zero): tight enough to catch any change of
algorithm, loose enough for reordered floating-point sums (an ``rfft`` in
place of an ``fft``, a spatial index in place of a full scan).  The slack
over 1e-12 is for derived figures such as ``total_error``, a difference of
nearly equal norms that amplifies reordering noise by up to ~1e4.
Everything else (flags, counts, strings) must match exactly.

Run as a script to compare two results files written by ``run.py``:

    python3 bench/check.py .bench_out/results/A.json .bench_out/results/B.json

or to merge results files into the references (only at a commit whose
outputs are the reference):

    python3 bench/check.py --record .bench_out/results/*.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
REFS_DIR = Path(__file__).resolve().parent / "refs"


def mismatches(got, want, path: str = "") -> list[str]:
    """Where `got` differs from `want`; empty when they agree."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= RTOL * abs(want) + ATOL or (math.isnan(got)
                                                         and math.isnan(want)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def load_refs(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def normalise(numbers):
    """JSON round trip, so live results compare like recorded ones
    (tuples become lists, dict keys become strings)."""
    return json.loads(json.dumps(numbers, default=str))


def _ops_by_key(results_path: str) -> tuple[str, dict]:
    data = json.loads(Path(results_path).read_text(encoding="utf-8"))
    return data["workload"], {op["key"]: op["numbers"] for op in data["ops"]
                              if op["ok"] and op["error"] is None}


def _compare_files(a: str, b: str) -> int:
    wa, ops_a = _ops_by_key(a)
    wb, ops_b = _ops_by_key(b)
    if wa != wb:
        print(f"different workloads: {wa} and {wb}")
        return 2
    shared = sorted(set(ops_a) & set(ops_b))
    bad = 0
    for key in shared:
        for m in mismatches(ops_b[key], ops_a[key], key):
            print(m)
            bad += 1
    print(f"{len(shared)} shared operations, {bad} mismatching values")
    return 1 if bad else 0


def _record(paths: list[str]) -> int:
    merged: dict[str, dict] = {}
    for p in paths:
        workload, ops = _ops_by_key(p)
        merged.setdefault(workload, load_refs(workload)).update(ops)
    REFS_DIR.mkdir(exist_ok=True)
    for workload, ops in merged.items():
        out = REFS_DIR / f"{workload}.json"
        out.write_text(json.dumps(ops, sort_keys=True, separators=(",", ":")) + "\n",
                       encoding="utf-8")
        print(f"{out}: {len(ops)} operations")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--record"] and len(args) > 1:
        sys.exit(_record(args[1:]))
    if len(args) == 2:
        sys.exit(_compare_files(*args))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
