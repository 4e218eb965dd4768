"""Every public name of the package is used by the package or the bench.

A name in a module's `__all__` counts as used when some `Name` or
`Attribute` node of `src` or `bench` refers to it outside its own top-level
definition; imports, strings and docstrings do not count, and neither do
the tests.  A public method or property of a class in an `__all__` counts as
used when some `Attribute` node of `src` or `bench` names it outside its own
definition.
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
    # acceptance criterion 1 checks the basis's defining identities with it
    "WaveletBasis.validate",
}


def _trees():
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/**/*.py")]):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _exports_and_references():
    exports, refs = {}, set()
    for path, tree in _trees():
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
                    exports[name] = path
    return exports, refs


def _unused_members():
    """{"Class.member": path} of every public method or property of a class in
    an `__all__` that no `Attribute` node of `src` or `bench` names outside
    the member's own definition."""
    exports, _ = _exports_and_references()
    trees = dict(_trees())
    members = {}
    for path, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and exports.get(cls.name) == path:
                members.update({(cls.name, fn.name): fn for fn in cls.body
                                if isinstance(fn, ast.FunctionDef)
                                and not fn.name.startswith("_")})
    attrs = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)]
    unused = {}
    for (cls, name), fn in members.items():
        own = {id(node) for node in ast.walk(fn)}
        if not any(a.attr == name and id(a) not in own for a in attrs):
            unused[f"{cls}.{name}"] = exports[cls]
    return unused


def test_every_public_name_has_a_caller():
    exports, refs = _exports_and_references()
    assert exports, "no __all__ found under src or bench"
    unused = sorted(f"{path}: {name}" for name, path in exports.items()
                    if name not in refs and name not in KEPT)
    assert not unused, f"public names that nothing calls: {unused}"


def test_every_public_member_has_a_caller():
    unused = sorted(f"{path}: {name}" for name, path in _unused_members().items()
                    if name not in KEPT)
    assert not unused, f"public members that nothing calls: {unused}"


def test_kept_names_are_still_public_and_still_unused():
    exports, refs = _exports_and_references()
    kept_names = {name for name in KEPT if "." not in name}
    assert kept_names <= set(exports), sorted(kept_names - set(exports))
    assert not kept_names & refs, f"now called, drop from KEPT: {sorted(kept_names & refs)}"
    kept_members = KEPT - kept_names
    unused = _unused_members()
    assert kept_members <= set(unused), (
        f"now called or gone, drop from KEPT: {sorted(kept_members - set(unused))}")
