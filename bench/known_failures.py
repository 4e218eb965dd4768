"""Known-failing paths, left out of the timed workloads, each with a one-call
reproducer.

    python3 bench/known_failures.py

prints, for each path, the call and whether it still fails.  A change that
fixes one of them should add its operation to the workload named here, in
a change of its own, and delete its entry.

perturbed-graph sampling (every b and seed; would belong in sampling-2d).
    Window trimming leaves cells of zero measure (about 1.5k at b=2^-4), so
    `trace` raises "trace weights must be positive" and every
    `verify sampling --geometry <perturbed-graph spec>` fails.  It fails only
    after the full 2D analysis of the field, so a fix does not change the
    cost of the operation.

hyperplane-union reconstruct in 2D.
    The partition-of-unity nodes of a line union sit off the grid lattice,
    so `build_partition` raises "2D partition nodes must sit on the grid
    lattice".  It fails within seconds today; once fixed, it is a full 2D
    reconstruct tuple of about 50 s, longer than one benchmark run (see
    README.md on why no workload runs the 2D reconstruct tuple).
"""

from __future__ import annotations

import sys

from run import load_package


def _geometry(variant: str):
    from besovsampling import geometry, grid
    window = geometry.window_for_grid(grid.default_grid_2d())
    return geometry.build_geometry(variant, {"b": 2.0**-4, "seed": 1,
                                             "window": window})


def perturbed_graph_trace():
    """trace(f, perturbed-graph geometry) for any 2D field f."""
    import numpy as np
    from besovsampling import grid, inequalities
    g2 = grid.default_grid_2d()
    inequalities.trace(grid.GridFunction(g2, np.zeros(g2.shape)),
                       _geometry("perturbed-graph"))


def hyperplane_union_partition():
    """build_partition on the reconstruction nodes of a 2D line union."""
    from besovsampling import grid, reconstruct
    g = _geometry("hyperplane-union")
    reconstruct.build_partition(reconstruct.reconstruction_nodes(g), g.b,
                                grid.default_grid_2d())


REPRODUCERS = {
    "perturbed-graph sampling (sampling-2d)": perturbed_graph_trace,
    "hyperplane-union 2D reconstruct": hyperplane_union_partition,
}


def main() -> int:
    load_package()
    still_failing = 0
    for name, call in REPRODUCERS.items():
        try:
            call()
        except ValueError as exc:
            still_failing += 1
            print(f"{name}: fails: {exc}")
        else:
            print(f"{name}: passes now; add it to its workload")
    return 0 if still_failing == len(REPRODUCERS) else 1


if __name__ == "__main__":
    sys.exit(main())
