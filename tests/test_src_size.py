"""The package source does not grow in lines.

The count is that of

    wc -l src/besovsampling/*.py

and CEILING is its value when it was last set.  A change that deletes lines
may lower the ceiling; raising it is a decision that CHANGES.md records
with its reason.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "besovsampling"

CEILING = 4666


def src_lines() -> dict[str, int]:
    """Line count of each file of src/besovsampling/*.py."""
    return {path.name: len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(SRC.glob("*.py"))}


def test_src_does_not_grow():
    lines = src_lines()
    assert sum(lines.values()) <= CEILING, lines
