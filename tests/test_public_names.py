"""Every public name of the package is used by the package or the bench.

A name in a module's `__all__` counts as used when some `Name` or
`Attribute` node of `src` or `bench` refers to it outside its own top-level
definition; imports, strings and docstrings do not count, and neither do
the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names that only the tests call, each kept for a stated reason
KEPT = {
    # ROADMAP item 2 decides whether it is deleted or rebuilt
    "calibrate_passband",
    # ROADMAP item 7 decides whether the pyramid becomes the analysis route
    "pyramid_details",
    "scaling_coefficients",
    # the README's feature list names the Paley-Wiener membership test
    "pw_membership",
    # the package's top-level API; the lattice case of a 1D sampling set
    "regular_sequence",
    # the acceptance criteria build their calibration inputs with it
    "calibration_zoo",
}


def _exports_and_references():
    exports, refs = {}, set()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/**/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != owner:
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != owner:
                    refs.add(node.attr)
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                for name in ast.literal_eval(stmt.value):
                    exports[name] = path.relative_to(ROOT).as_posix()
    return exports, refs


def test_every_public_name_has_a_caller():
    exports, refs = _exports_and_references()
    assert exports, "no __all__ found under src or bench"
    unused = sorted(f"{path}: {name}" for name, path in exports.items()
                    if name not in refs and name not in KEPT)
    assert not unused, f"public names that nothing calls: {unused}"


def test_kept_names_are_still_public_and_still_unused():
    exports, refs = _exports_and_references()
    assert KEPT <= set(exports), sorted(KEPT - set(exports))
    assert not KEPT & refs, f"now called, drop from KEPT: {sorted(KEPT & refs)}"
