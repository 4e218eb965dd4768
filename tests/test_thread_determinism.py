"""Bytes that do not depend on the BLAS thread count (ROADMAP item 11).

Each check runs in a fresh interpreter per thread count, because OpenBLAS
reads OPENBLAS_NUM_THREADS once, when numpy is first imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

FIELD_AND_NORMS = """
import hashlib
from besovsampling.grid import Grid1D, Grid2D, lp_norm
from besovsampling.zoo import bandlimited_field_2d

grid = Grid2D(Grid1D(-8.0, 2.0**-4, 256), Grid1D(-6.0, 2.0**-5, 512))
f = bandlimited_field_2d(grid, 1.0, 17)
print(hashlib.sha256(f.values.tobytes()).hexdigest())
for p in (1.0, 1.5, 2.0, 4.0):
    print(lp_norm(f, p).hex())
"""

# three Daubechies-4 pipelines of the 1D sweep: their analysis reads the
# coarse kernels through BLAS matrix-vector products
SWEEP_1D = """
import hashlib, sys
from pathlib import Path
from besovsampling.cli import RunConfig, execute_sweep, sweep_outputs

for name in ("sampling", "uncertainty", "reconstruct"):
    cfg = RunConfig(command=name, b_list=[2.0**-3], seeds=[5],
                    out_dir=str(Path(sys.argv[1]) / name))
    csv_path, _, _ = sweep_outputs(cfg, execute_sweep(cfg))
    print(name, hashlib.sha256(csv_path.read_bytes()).hexdigest())
"""


def run_with_threads(code: str, threads: int, *args: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_2d_field_and_lp_norms_do_not_depend_on_blas_threads():
    one, two = (run_with_threads(FIELD_AND_NORMS, n) for n in (1, 2))
    assert len(one.split()) == 5
    assert one == two


def test_1d_sweep_csvs_do_not_depend_on_blas_threads(tmp_path):
    one, two = (run_with_threads(SWEEP_1D, n, str(tmp_path / f"threads-{n}"))
                for n in (1, 2))
    assert len(one.split()) == 6
    assert one == two
