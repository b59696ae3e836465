"""Per-layer tracing of qcreg from outside the package.

`Tracer.install` replaces public qcreg functions, in every qcreg module
namespace that holds them, with wrappers that record a span (name, start,
end, parent) or a count. Nothing inside the package changes, and
`uninstall` puts the originals back. Spans stay in memory until the end;
`summarize` turns them into per-op self times (span duration minus the
time its child spans cover) and per-op counts.

Counts: ``<span>.calls`` for every span, integrand nodes, doubling budgets
exhausted, points handed to the catalog MapModel callables, bytes of grid
files read and of JSON reports produced. A public name that no longer
exists is listed in `absent`, and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import os
import sys
import time
from dataclasses import replace

#: (module, public name, span name) of every timed call boundary
SPANS = (
    ("qcreg.cli", "main", "cli.main"),
    ("qcreg.config", "build_config", "config.build_config"),
    ("qcreg.io", "load_sampled_field", "io.load_sampled_field"),
    ("qcreg.io", "load_matrix_field", "io.load_matrix_field"),
    ("qcreg.io", "save_sampled_field", "io.save_sampled_field"),
    ("qcreg.io", "save_matrix_field", "io.save_matrix_field"),
    ("qcreg.plane", "validate_field", "plane.validate_field"),
    ("qcreg.plane", "disk_samples", "plane.disk_samples"),
    ("qcreg.quadrature", "circular_average", "quadrature.circular_average"),
    ("qcreg.bounds", "regularity_report", "bounds.regularity_report"),
    ("qcreg.bounds", "distortion_constant", "bounds.distortion_constant"),
    ("qcreg.bounds", "isoperimetric_constant", "bounds.isoperimetric_constant"),
    ("qcreg.bounds", "mori_consistency", "bounds.mori_consistency"),
    ("qcreg.geometry", "geometry_profile", "geometry.geometry_profile"),
    ("qcreg.geometry", "image_area_jacobian", "geometry.image_area_jacobian"),
    ("qcreg.extremal", "epsilon_weight_integral", "extremal.epsilon_weight_integral"),
    ("qcreg.extremal", "empirical_holder", "extremal.empirical_holder"),
    ("qcreg.extremal", "defect_weight_integral", "extremal.defect_weight_integral"),
    ("qcreg.elliptic", "validate_matrix_field", "elliptic.validate_matrix_field"),
    ("qcreg.elliptic", "comparison_bounds", "elliptic.comparison_bounds"),
    ("qcreg.elliptic", "elliptic_holder_bound", "elliptic.elliptic_holder_bound"),
    ("qcreg.reporting", "run_analysis", "reporting.run_analysis"),
    ("qcreg.reporting", "report_json_bytes", "reporting.report_json_bytes"),
    ("qcreg.reporting", "emit_report", "reporting.emit_report"),
)

#: (module, public name, counter) of calls counted without a span; a span here
#: would move the per-circle time of the suprema out of the bounds layer
COUNTED = (("qcreg.quadrature", "sup_over_circles", "quadrature.sup_over_circles.calls"),)

#: catalog entries get MapModel callables that count the points they are handed
CATALOG = (("qcreg.catalog", "entry_from_spec", "catalog.entry_from_spec"),)

#: the integrand handed to circular_average gets its own span
INTEGRAND_SPAN = "quadrature.integrand"
MAP_CALLABLES = ("value", "partials", "jacobian")

#: metrics recorded by a wrapper besides its own, absent along with it
DERIVED = {
    "quadrature.circular_average": ("quadrature.nodes", "quadrature.budget_exhausted",
                                    INTEGRAND_SPAN),
    "reporting.report_json_bytes": ("reporting.report_bytes",),
    "catalog.entry_from_spec": tuple(f"catalog.{a}.points" for a in MAP_CALLABLES),
}


def _qcreg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qcreg" or name.startswith("qcreg."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self.count(name + ".calls")
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def points(self, name: str, fn):
        def wrapper(z, *args, **kwargs):
            self.count(name, _size(z))
            return fn(z, *args, **kwargs)

        return wrapper

    # -- layer-specific wrappers -----------------------------------------
    def _circular_average(self, fn):
        """Span per average, span per integrand call, nodes and exhausted budgets."""
        params = inspect.signature(fn).parameters
        default_cfg = params["cfg"].default if "cfg" in params else None
        timed_average = self.timed("quadrature.circular_average", fn)

        @functools.wraps(fn)
        def wrapper(integrand, *args, **kwargs):
            timed_integrand = self.timed(INTEGRAND_SPAN, integrand)
            levels = 0

            def counted_integrand(theta):
                nonlocal levels
                levels += 1
                self.count("quadrature.nodes", _size(theta))
                return timed_integrand(theta)

            result = timed_average(counted_integrand, *args, **kwargs)
            cfg = kwargs.get("cfg", args[1] if len(args) > 1 else default_cfg)
            budget = getattr(cfg, "max_doublings", None)
            if budget is not None and levels >= budget + 1:
                self.count("quadrature.budget_exhausted")
            return result

        return wrapper

    def _entry_from_spec(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = fn(*args, **kwargs)
            model = entry.map
            counted = {
                attr: self.points(f"catalog.{attr}.points", getattr(model, attr))
                for attr in MAP_CALLABLES
            }
            return replace(entry, map=replace(model, **counted))

        return wrapper

    def _load_grid(self, name, fn):
        timed_load = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(csv_path, *args, **kwargs):
            for path in (str(csv_path), str(csv_path) + ".json"):
                if os.path.isfile(path):
                    self.count("io.bytes_read", os.path.getsize(path))
            return timed_load(csv_path, *args, **kwargs)

        return wrapper

    def _report_json_bytes(self, fn):
        timed_bytes = self.timed("reporting.report_json_bytes", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed_bytes(*args, **kwargs)
            self.count("reporting.report_bytes", len(out))
            return out

        return wrapper

    # -- installation ----------------------------------------------------
    def _wrapper_for(self, name: str, fn):
        if name == "quadrature.circular_average":
            return self._circular_average(fn)
        if name.startswith("io.load_"):
            return self._load_grid(name, fn)
        if name == "reporting.report_json_bytes":
            return self._report_json_bytes(fn)
        if name == "catalog.entry_from_spec":
            return self._entry_from_spec(fn)
        if name.endswith(".calls"):
            return self.counted(name, fn)
        return self.timed(name, fn)

    def install(self) -> "Tracer":
        """Wrap every traced name; qcreg must already be imported."""
        modules = _qcreg_modules()
        for mod_name, attr, name in SPANS + COUNTED + CATALOG:
            if mod_name not in sys.modules and importlib.util.find_spec(mod_name) is not None:
                continue  # never imported here, so never run: its metrics read 0
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                self.absent += [name, *DERIVED.get(name, ())]
                continue
            wrapper = self._wrapper_for(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, orig))
        return self

    def uninstall(self) -> None:
        for module, key, orig in reversed(self._patched):
            setattr(module, key, orig)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else len(x)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def summarize(dumps, n_ops: int) -> tuple[dict[str, float], set[str]]:
    """Merge tracer dumps into per-op metrics ``<span>.s`` and counters.

    Returns the metrics and the set of traced names that were absent: a
    metric is absent when its name is one of them or starts with one and a dot.
    """
    totals: dict[str, float] = {}
    absent: set[str] = set()
    for dump in dumps:
        for name, secs in self_times(dump["spans"]).items():
            totals[name + ".s"] = totals.get(name + ".s", 0.0) + secs
        for name, n in dump["counts"].items():
            totals[name] = totals.get(name, 0) + n
        absent.update(dump["absent"])
    return {k: v / n_ops for k, v in totals.items()}, absent
