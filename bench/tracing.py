"""Spans and work counters for the traced run, recorded from outside the package.

`Tracer.install` rebinds each public function named in LAYERS, in every
``besovsampling`` module that holds it, to a wrapper that records a span:
name, start, end, parent span and operation id.  Calls from one module into
another (``reconstruct.smooth_lowpass``, ``besov.analyze``,
``cli.full_pipeline``) and calls inside a module go through the rebound name,
so they are seen too.  The two ``apply`` methods and
``GridFunction.interpolate`` are wrapped on their classes.  Nothing in the
package changes on disk; ``uninstall`` puts the originals back.

Work counters are computed from call arguments and results (array sizes,
``nnz()``, ``n_anchors()``, ``len(report.residuals)``, file sizes), so they
repeat exactly from one traced run to the next.  Byte counters named
``*_computed`` are array sizes, not measured memory traffic.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import besovsampling

LAYERS = {
    "grid": ("fourier", "inverse_fourier", "smooth_lowpass", "lp_norm",
             "GridFunction.interpolate"),
    "wavelets": ("build_basis", "analyze", "synthesize"),
    "besov": ("besov_norm_via_analyze", "besov_norm_wavelet", "besov_norm_lp"),
    "geometry": ("random_sequence", "build_geometry", "check_conditions"),
    "inequalities": ("trace", "sampling_ratio", "uncertainty_check",
                     "intB_diagnostic", "heisenberg_product"),
    "reconstruct": ("full_pipeline", "neumann_reconstruct", "build_partition",
                    "PartitionOfUnity.apply", "LowpassMultiplier.apply",
                    "averaging_V", "interp_pl", "bandlimited_split"),
    "zoo": ("make", "bandlimited_field_2d"),
    "cli": ("execute_sweep", "sweep_outputs"),
}


def _fft_work(args, result):
    x = args.get("f", args.get("F"))
    return {"grid.fft_points": x.values.size,
            "grid.fft_bytes_computed": x.values.nbytes + result.values.nbytes}


# (layer.function) -> (bound arguments, result) -> counter increments
COUNTERS = {
    "grid.fourier": _fft_work,
    "grid.inverse_fourier": _fft_work,
    "wavelets.analyze": lambda a, r: {"wavelets.analyze.coeffs": r.nnz()},
    "wavelets.synthesize": lambda a, r: {"wavelets.synthesize.coeffs": a["c"].nnz()},
    "geometry.check_conditions":
        lambda a, r: {"geometry.check_conditions.anchors": a["g"].n_anchors()},
    "inequalities.trace": lambda a, r: {"inequalities.trace.points": len(r.values)},
    "reconstruct.neumann_reconstruct":
        lambda a, r: {"reconstruct.neumann.iters": len(r[1].residuals)},
    "reconstruct.PartitionOfUnity.apply":
        lambda a, r: {"reconstruct.pou.nodes": len(a["self"].nodes)},
    "cli.sweep_outputs": lambda a, r: {
        "cli.bytes_written": os.path.getsize(r[0]) + os.path.getsize(r[1])},
}

COUNTER_UNITS = {
    "grid.fft_points": "count",
    "grid.fft_bytes_computed": "B",
    "wavelets.analyze.coeffs": "count",
    "wavelets.synthesize.coeffs": "count",
    "geometry.check_conditions.anchors": "count",
    "inequalities.trace.points": "count",
    "reconstruct.neumann.iters": "count",
    "reconstruct.pou.nodes": "count",
    "cli.bytes_written": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(COUNTER_UNITS)
    return units


class Tracer:
    """In-memory span recorder.  Spans are lists
    ``[name, start, end, parent_index, op_id]``; the parent index points into
    ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._seen_errors: list[BaseException] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "besovsampling" or n.startswith("besovsampling.")]
        for layer, names in LAYERS.items():
            home = getattr(besovsampling, layer)
            for name in names:
                full = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    self._rebind(cls, meth, self._wrap(full, layer, vars(cls)[meth]))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(full, layer, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, attr, wrapper)

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _rebind(self, obj, attr, new):
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _wrap(self, full: str, layer: str, fn):
        count = COUNTERS.get(full)
        sig = inspect.signature(fn) if count else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [full, perf_counter(), None, stack[-1] if stack else None,
                    self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, at the innermost wrapped call it left
                if not any(e is exc for e in self._seen_errors):
                    self._seen_errors.append(exc)
                    self.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count:
                bound = sig.bind(*args, **kwargs).arguments
                for k, v in count(bound, result).items():
                    self.counters[k] += int(v)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls and self time per function, self time and errors per layer,
        and the work counters.  Self time is a span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _op), c in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - c
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                full = f"{layer}.{name}"
                out[f"{full}.calls"] = calls[full]
                out[f"{full}.self_s"] = self_s[full]
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = sum(self_s[f"{layer}.{n}"] for n in names)
            out[f"{layer}.errors"] = self.errors[layer]
        for name in COUNTER_UNITS:
            out[name] = self.counters[name]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
