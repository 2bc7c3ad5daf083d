"""Span and counter recorder for the benchmark's traced run.

`Recorder.install(modules)` replaces every public function of capmodel, at
every module attribute that binds it (the modules import each other's names
with ``from .core import ...``, so wrapping the defining module alone would
miss most calls), with a wrapper that records a span: name, backend
argument, parent span, start, end, and whether it raised.  A few tiny,
very frequent functions and the methods of ``LogScalar`` are counted
instead of spanned.  Spans stay in memory; `summary` turns one pass of them
into the per-layer metrics and `write` dumps them as JSON lines.

A span's self time is its duration minus the durations of its direct
children.  A layer's errors are the spans (or counted calls) that raised out
of the layer into a caller in another layer, or into the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "core", "scalars", "trajectory", "figures", "oracle", "serialize")

#: Called per point many times over; a span each would swamp the trace.
COUNT_ONLY = {"core.checked_rho", "scalars.as_rational"}

#: LogScalar methods counted as ``scalars.LogScalar`` calls, besides public ones.
OPERATORS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__lt__", "__le__", "__gt__",
    "__ge__", "__eq__", "__float__", "__bool__",
}


def _trajectory_points(result) -> dict:
    return {result.params.backend: len(result.points)}


#: Work a trajectory-layer call did, read from its arguments and result.
NOTES = {
    "trajectory.run_trajectory": lambda args, kwargs, result: _trajectory_points(result),
    "trajectory.sweep_range": lambda args, kwargs, result: sum(
        (Counter(_trajectory_points(t)) for t in result), Counter()
    ),
    "trajectory.evaluate_point": lambda args, kwargs, result: {
        (args[0] if args else kwargs["params"]).backend: 1
    },
}


def _hump_scan(signature):
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        last = result if result is not None else bound["n_max"]
        return {"scanned": last - bound["r"]}

    return note


class Recorder:
    def __init__(self):
        self.request = -1
        self.reset()

    def reset(self) -> None:
        # span: [name, layer, backend, parent, start, end, raised, note, request]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.max_bits = 0
        self.exact_fallbacks = 0
        self._in_log_hump = 0

    # -- installing ------------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` wherever they are bound."""
        wrapped: dict = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("capmodel")
                ):
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(value)
                setattr(module, attr, wrapped[value])
            log_scalar = getattr(module, "LogScalar", None)
            if module.__name__ == "capmodel.scalars" and log_scalar is not None:
                self._count_methods(log_scalar)

    def _caller_layer(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def _counted(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if self._caller_layer() != layer:
                    self.errors[layer] += 1
                raise

        return wrapper

    def _count_methods(self, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(value, (classmethod, staticmethod)):
                kind, fn = type(value), value.__func__
            elif isinstance(value, types.FunctionType):
                kind, fn = None, value
            else:
                continue
            counted = self._counted(fn, "scalars.LogScalar", "scalars")
            setattr(cls, attr, kind(counted) if kind else counted)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        if name in COUNT_ONLY:
            return self._counted(fn, name, layer)
        signature = inspect.signature(fn)
        params = list(signature.parameters)
        at = params.index("backend") if "backend" in params else None
        default = signature.parameters["backend"].default if at is not None else None
        note = _hump_scan(signature) if name == "trajectory.find_hump_onset" else NOTES.get(name)
        kernel = layer == "core"
        log_hump = name == "core.hump_condition"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            backend = None
            if at is not None:
                backend = args[at] if len(args) > at else kwargs.get("backend", default)
            if kernel and backend == "exact" and self._in_log_hump:
                self.exact_fallbacks += 1
            stack = self.stack
            span = [name, layer, backend, stack[-1] if stack else -1, 0.0, 0.0, False, None, self.request]
            stack.append(len(self.spans))
            self.spans.append(span)
            deferring = log_hump and backend == "logfloat"
            self._in_log_hump += deferring
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[5] = perf_counter()
                stack.pop()
                self._in_log_hump -= deferring
            if kernel and backend == "exact" and isinstance(result, Fraction):
                bits = max(result.numerator.bit_length(), result.denominator.bit_length())
                self.max_bits = max(self.max_bits, bits)
            if note is not None:
                span[7] = note(args, kwargs, result)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last `reset`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[5] - span[4]
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        backend_calls: Counter = Counter()
        backend_self: defaultdict = defaultdict(float)
        work: Counter = Counter()
        errors = Counter(self.errors)
        for i, (name, layer, backend, parent, start, end, raised, note, _) in enumerate(spans):
            own = end - start - child[i]
            self_s[name] += own
            calls[name] += 1
            caller = spans[parent][1] if parent >= 0 else None
            if raised and caller != layer:
                errors[layer] += 1
            if layer == "core" and backend is not None:
                backend_calls[backend] += 1
                backend_self[backend] += own
            if note is not None and caller != "trajectory":
                work.update(note)
        validated = calls["core.cross_validate"]
        exact_points = work["exact"] + work["scanned"] + validated
        log_points = work["logfloat"] + validated
        metrics = {
            "cli.build_parser.self_s": self_s["cli.build_parser"],
            "cli.parse_config.self_s": self_s["cli.parse_config"],
            "cli.run.self_s": self_s["cli.run"],
            "core.exact.calls": backend_calls["exact"],
            "core.exact.self_s": backend_self["exact"],
            "core.exact.calls_per_point": backend_calls["exact"] / exact_points if exact_points else 0.0,
            "core.exact.max_bits": self.max_bits,
            "core.log.calls": backend_calls["logfloat"],
            "core.log.self_s": backend_self["logfloat"],
            "core.log.calls_per_point": backend_calls["logfloat"] / log_points if log_points else 0.0,
            "core.log.exact_fallbacks": self.exact_fallbacks,
            "core.checked_rho.calls": self.counts["core.checked_rho"],
            "core.cross_validate.calls": validated,
            "core.cross_validate.self_s": self_s["core.cross_validate"],
            "scalars.LogScalar.calls": self.counts["scalars.LogScalar"],
            "trajectory.points": work["exact"] + work["logfloat"],
            "trajectory.run_trajectory.self_s": self_s["trajectory.run_trajectory"],
            "trajectory.evaluate_point.self_s": self_s["trajectory.evaluate_point"],
            "trajectory.find_hump_onset.self_s": self_s["trajectory.find_hump_onset"],
            "trajectory.find_hump_onset.points_scanned": work["scanned"],
            "figures.figure_dataset.self_s": self_s["figures.figure_dataset"],
            "oracle.trials": calls["oracle.sample_recipe_book"],
            "oracle.sample_recipe_book.self_s": self_s["oracle.sample_recipe_book"],
            "oracle.trial_seed.self_s": self_s["oracle.trial_seed"],
            "oracle.validate_expectations.self_s": self_s["oracle.validate_expectations"],
            "serialize.rows.self_s": sum(
                t for n, t in self_s.items()
                if n.startswith("serialize.") and n.endswith(("_rows", "_payload"))
            ),
            "serialize.format_sig12.calls": calls["serialize.format_sig12"],
            "serialize.format_sig12.self_s": self_s["serialize.format_sig12"],
            "serialize.write.self_s": sum(
                t for n, t in self_s.items() if n.startswith("serialize.write")
            ),
        }
        metrics.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
        return metrics

    def write(self, path) -> None:
        """The recorded spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, _, backend, parent, start, end, raised, _, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "request": request, "name": name,
                    "backend": backend, "start": start - origin, "end": end - origin,
                    "raised": raised,
                }) + "\n")
