"""In-memory span tracer that wraps stratacalc's public layer functions.

The program itself carries no instrumentation: `Tracer.install` replaces each
function named in `SPANS` (and every other binding of the same function
object inside the stratacalc package, such as `conditions.compose_exact`)
with a wrapper that records one span per call: name, start, end and parent.
Spans live in flat arrays; self time is computed afterwards as a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import re
import sys
import time
import weakref
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _nan_samples(report, args) -> dict[str, float]:
    rows = report.sample_residuals or ()
    return {"conditions.samples_outside_box": float(sum(
        math.isnan(v) for row in rows for v in row))}


_TRIVIAL = re.compile(r"(\d+) directions passed trivially")
_EXCUSED = re.compile(r"(\d+) samples excused at crossings")


def _note_count(pattern, metric):
    def hook(report, args):
        return {metric: float(sum(int(m.group(1)) for note in report.notes
                                  for m in [pattern.search(note)] if m))}
    return hook


@dataclass(frozen=True)
class SpanSpec:
    """One wrapped function: where it is defined and the span it records.

    `hook(result, args)` may return counter increments measured at the same
    boundary as the span.
    """

    module: str
    attr: str                      # "func" or "Class.method"
    span: str
    hook: Callable | None = None


def _newton_iters(trace, args):
    return {"solvers.newton.iters": float(len(trace.iterates) - 1)}


def _pieces_out(curve, args):
    return {"piecewise.compose_exact.pieces_out": float(len(curve.pieces))}


def _sample_none(point, args):
    return {"piecewise.sample_cell_point.none": float(point is None)}


def _vertices(poly, args):
    return {"oracles.vertices": float(poly.n_vertices)}


SPANS: tuple[SpanSpec, ...] = (
    SpanSpec("stratacalc.corpus", "default_corpus", "corpus.build"),
    SpanSpec("stratacalc.corpus", "load_corpus", "corpus.load"),
    SpanSpec("stratacalc.piecewise", "Arrangement.sign_vector", "piecewise.sign_vector"),
    SpanSpec("stratacalc.piecewise", "Arrangement.cell_nonempty", "piecewise.cell_nonempty"),
    SpanSpec("stratacalc.piecewise", "Arrangement.all_nonempty_signs",
             "piecewise.all_nonempty_signs"),
    SpanSpec("stratacalc.piecewise", "PiecewiseFunction.adjacent_full_signs",
             "piecewise.adjacent_full_signs"),
    SpanSpec("stratacalc.piecewise", "PiecewiseFunction.value_difference_exact",
             "piecewise.value_difference_exact"),
    SpanSpec("stratacalc.piecewise", "PiecewiseFunction.directional_derivative",
             "piecewise.directional_derivative"),
    SpanSpec("stratacalc.piecewise", "PiecewiseFunction.clarke_jacobian",
             "piecewise.clarke_jacobian"),
    SpanSpec("stratacalc.piecewise", "PiecewiseFunction.component_clarke",
             "piecewise.component_clarke"),
    SpanSpec("stratacalc.piecewise", "PiecewiseFunction.value", "piecewise.value"),
    SpanSpec("stratacalc.piecewise", "sample_cell_point", "piecewise.sample_cell_point",
             _sample_none),
    SpanSpec("stratacalc.piecewise", "compose_exact", "piecewise.compose_exact",
             _pieces_out),
    SpanSpec("stratacalc.piecewise", "validate_continuity",
             "piecewise.validate_continuity"),
    SpanSpec("stratacalc.oracles", "GeneralizedDerivative.__call__", "oracles.call",
             _vertices),
    SpanSpec("stratacalc.oracles", "check_assumption", "oracles.check_assumption"),
    SpanSpec("stratacalc.geometry", "hausdorff", "geometry.hausdorff"),
    SpanSpec("stratacalc.geometry", "min_norm_point", "geometry.min_norm_point"),
    SpanSpec("stratacalc.geometry", "project", "geometry.project"),
    SpanSpec("stratacalc.geometry", "linear_range_over_polytope",
             "geometry.linear_range_over_polytope"),
    SpanSpec("stratacalc.geometry", "linear_image", "geometry.linear_image"),
    SpanSpec("stratacalc.conditions", "check_semismooth_I", "conditions.cond1",
             _nan_samples),
    SpanSpec("stratacalc.conditions", "check_semismooth_II", "conditions.cond2",
             _nan_samples),
    SpanSpec("stratacalc.conditions", "check_conservative", "conditions.cond3",
             _note_count(_EXCUSED, "conditions.cond3.excused")),
    SpanSpec("stratacalc.conditions", "check_stratified_derivative", "conditions.cond4"),
    SpanSpec("stratacalc.conditions", "check_stratified_subdifferential",
             "conditions.cond5",
             _note_count(_TRIVIAL, "conditions.cond5.trivial_dirs")),
    SpanSpec("stratacalc.solvers", "semismooth_newton", "solvers.semismooth_newton",
             _newton_iters),
    SpanSpec("stratacalc.solvers", "subgradient_descent", "solvers.subgradient_descent"),
    SpanSpec("stratacalc.report", "render_matrix_report", "report.render"),
    SpanSpec("stratacalc.report", "render_check_report", "report.render"),
    SpanSpec("stratacalc.report", "render_newton_trace", "report.render"),
    SpanSpec("stratacalc.report", "render_subgradient_trace", "report.render"),
)

# Re-imported bindings that the layers call through. They must stay the same
# object as the definition, or the span would silently miss those calls.
ALIASES: tuple[tuple[str, str, str], ...] = (
    ("stratacalc.conditions", "compose_exact", "stratacalc.piecewise"),
    ("stratacalc.conditions", "sample_cell_point", "stratacalc.piecewise"),
    ("stratacalc.conditions", "hausdorff", "stratacalc.geometry"),
    ("stratacalc.conditions", "project", "stratacalc.geometry"),
    ("stratacalc.conditions", "linear_range_over_polytope", "stratacalc.geometry"),
    ("stratacalc.oracles", "hausdorff", "stratacalc.geometry"),
    ("stratacalc.oracles", "linear_image", "stratacalc.geometry"),
    ("stratacalc.cli", "default_corpus", "stratacalc.corpus"),
    ("stratacalc.cli", "load_corpus", "stratacalc.corpus"),
    ("stratacalc.cli", "validate_continuity", "stratacalc.piecewise"),
    ("stratacalc.cli", "check_assumption", "stratacalc.oracles"),
    ("stratacalc.cli", "semismooth_newton", "stratacalc.solvers"),
    ("stratacalc.cli", "subgradient_descent", "stratacalc.solvers"),
)

ROOT = -1   # parent index of a span with no enclosing span


def resolve(spec: SpanSpec):
    """(owner, name, function) for a spec; raises LookupError if the
    module, class or function no longer exists."""
    try:
        owner = importlib.import_module(spec.module)
    except ImportError as exc:
        raise LookupError(f"{spec.module}: {exc}") from None
    *path, name = spec.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{spec.module}.{spec.attr}: {part!r} not found")
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(fn):
        raise LookupError(f"{spec.module}.{spec.attr} not found")
    return owner, name, fn


def check_names(specs=SPANS, aliases=ALIASES) -> None:
    """Fail loudly when a layer function was renamed or moved, instead of
    dropping its metrics."""
    problems = []
    for spec in specs:
        try:
            resolve(spec)
        except LookupError as exc:
            problems.append(str(exc))
    for module, name, origin in aliases:
        mod, src = importlib.import_module(module), importlib.import_module(origin)
        if not hasattr(mod, name) or getattr(mod, name) is not getattr(src, name, None):
            problems.append(f"{module}.{name} is no longer {origin}.{name}")
    if problems:
        raise LookupError("traced names do not resolve: " + "; ".join(problems))


class Tracer:
    """Records spans into flat arrays; `clock` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._lp_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(self.clock())
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, increments: dict[str, float]) -> None:
        for key, v in increments.items():
            self.counters[key] = self.counters.get(key, 0.0) + v

    def wrap(self, fn, span: str, hook=None):
        begin, finish, count = self.begin, self.finish, self.count

        def traced(*args, **kwargs):
            idx = begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if hook is not None:
                count(hook(result, args))
            return result
        traced.__wrapped__ = fn
        return traced

    def _lp_hook(self, result, args):
        arr, sign = args[0], args[1]
        seen = self._lp_seen.setdefault(arr, set())
        if sign in seen:
            return {}
        seen.add(sign)
        return {"piecewise.lp_solves": 1.0, "piecewise.lp_nonempty": float(bool(result))}

    # -- installation --------------------------------------------------------

    def install(self, specs=SPANS) -> None:
        """Wrap every spec'd function and every binding of it in the package."""
        check_names(specs)
        wrappers = {}
        for spec in specs:
            owner, name, fn = resolve(spec)
            hook = self._lp_hook if spec.span == "piecewise.cell_nonempty" else spec.hook
            wrapper = self.wrap(fn, spec.span, hook)
            wrappers[id(fn)] = (fn, wrapper)
            self._patch(owner, name, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("stratacalc"):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total inclusive seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        if len(self._stack) != 1:
            raise RuntimeError("summary() called with open spans")
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = names == i
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out
