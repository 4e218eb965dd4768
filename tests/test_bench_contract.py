"""The traced benchmark run wraps package functions by name and reads their
arguments by name: a rename in the package must fail here, not in bench/."""

import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# argument names the work counters may read from a call
ARG_NAMES = {"f", "F", "c", "g", "self"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(layer: str, name: str):
    home = importlib.import_module(f"besovsampling.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        return vars(getattr(home, cls_name))[meth]
    return getattr(home, name)


def read_names(fn) -> set[str]:
    """String constants in a counter's code (nested code included) that name
    call arguments."""
    names, todo = set(), [fn.__code__]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                todo.append(const)
            elif isinstance(const, str) and const in ARG_NAMES:
                names.add(const)
    return names


def package_bindings() -> dict:
    return {(name, attr): val for name, mod in sys.modules.items()
            if name == "besovsampling" or name.startswith("besovsampling.")
            for attr, val in vars(mod).items() if callable(val)}


def test_tracer_wraps_every_layer_and_reads_real_arguments():
    tracing = load_tracing()
    # the workloads import every layer before the tracer is installed
    originals = {(layer, name): resolve(layer, name)
                 for layer, names in tracing.LAYERS.items() for name in names}
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (layer, name), orig in originals.items():
            wrapped = resolve(layer, name)
            assert wrapped is not orig, f"{layer}.{name} was not wrapped"
            assert wrapped.__wrapped__ is orig
        for full, count in tracing.COUNTERS.items():
            layer, name = full.split(".", 1)
            params = set(inspect.signature(originals[layer, name]).parameters)
            wanted = read_names(count)
            if wanted:
                assert wanted & params, f"{full} reads {wanted}, signature has {params}"
    finally:
        tracer.uninstall()
    for (layer, name), orig in originals.items():
        assert resolve(layer, name) is orig
    after = package_bindings()
    assert all(after[key] is val for key, val in before.items())
