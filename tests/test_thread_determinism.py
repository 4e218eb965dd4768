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

# the CLI's Daubechies-4 wavelet norm, whose 1D analysis takes BLAS
# matrix-vector products at the coarse scales, and a 2D analysis, whose
# kernel-table products are matrix-matrix
WAVELET_NORM_AND_2D_ANALYZE = """
import hashlib, sys
from pathlib import Path
import numpy as np
from click.testing import CliRunner
from besovsampling.cli import main
from besovsampling.grid import Grid1D, Grid2D, GridFunction, default_grid_1d, save_csv
from besovsampling.wavelets import analyze, default_basis
from besovsampling.zoo import ZooSpec, make

csv = str(Path(sys.argv[1]) / "f.csv")
save_csv(make(ZooSpec("bandlimited-random", band=4.0, seed=3), default_grid_1d()).f, csv)
res = CliRunner().invoke(main, ["besov", "norm", "--def", "wavelet", "--s", "0.5",
                                "--p", "2", "--input", csv])
assert res.exit_code == 0, res.output
print(hashlib.sha256(res.output.encode()).hexdigest())
grid = Grid2D(Grid1D(-8.0, 2.0**-4, 256), Grid1D(-6.0, 2.0**-5, 512))
f = GridFunction(grid, np.random.default_rng(4).standard_normal(grid.shape))
c = analyze(f, default_basis(), -4, 2)
for j in sorted(c.scales):
    blocks = c.scales[j]
    print(j, hashlib.sha256(b"".join(blocks[l][-1].tobytes() for l in sorted(blocks))).hexdigest())
print(hashlib.sha256(c.coarse[-1].tobytes()).hexdigest(), c.residual_l2.hex())
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


def test_wavelet_norm_and_2d_analyze_do_not_depend_on_blas_threads(tmp_path):
    outs = []
    for n in (1, 2):
        out_dir = tmp_path / f"threads-{n}"
        out_dir.mkdir()
        outs.append(run_with_threads(WAVELET_NORM_AND_2D_ANALYZE, n, str(out_dir)))
    one, two = outs
    assert len(one.splitlines()) == 9
    assert one == two
