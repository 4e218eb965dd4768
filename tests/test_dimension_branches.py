"""The lines of `src` that branch on the dimension do not grow in number.

1D is the one-axis case of one separable path, so code loops over
`grid.axes` instead of testing the dimension.  The pattern is the
dimension-branch grep that CHANGES.md records with each change:

    grep -nE "<PATTERN>" src/besovsampling/*.py | wc -l

and CEILING is its count when this test was written.  A change that
removes branches may lower the ceiling; none may raise it.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "besovsampling"

PATTERN = (r"isinstance\([^)]*(Grid[12]D|SamplingSequence1D)\)|ndim [!=]= [12]"
           r"|dim == 1|\.gx|\.gy|len\(axes\) [!=]= 1")
CEILING = 22


def dimension_branches():
    """`path:line: text` of every line of src/besovsampling/*.py that the grep matches."""
    pattern = re.compile(PATTERN)
    return [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]


def test_dimension_branches_do_not_grow():
    found = dimension_branches()
    assert len(found) <= CEILING, "\n".join(found)


def test_the_pattern_sees_every_kind_of_branch():
    pattern = re.compile(PATTERN)
    for line in ("if isinstance(grid, Grid1D):", "if f.ndim == 1:", "if v.ndim != 2:",
                 "if c.dim == 1", "gx = grid.gx", "return axes[0] if len(axes) == 1",
                 "if len(axes) != 1:"):
        assert pattern.search(line), line
    assert not pattern.search("for g in grid.axes:")
