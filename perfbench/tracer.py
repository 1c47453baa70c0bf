"""In-memory span tracer for the benchmark.

`instrument` replaces the public functions of the given program modules with
wrappers that record one span per call. Calls made inside a module, such as
`lhn_fit -> collect_pool_features` or `train -> train_arrays`, look the name up
in the module namespace at call time, so they are traced too. The program's
files are not touched; the original functions are put back on exit.

A span holds its name, start, end, the index of its parent span and, for a
few functions, counts of the work it did (windows, rows, components). Spans
stay in memory until the benchmark writes them out at the end.
"""
from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one thread, nesting them by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, counter=None):
        if counter is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(index)

            return traced

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.spans[index].counts = counter(bound.arguments, result)
            return result

        return counted


def _rows(arguments, recordings) -> dict:
    return {"rows": sum(rec.samples.shape[0] for rec in recordings)}


def _windows(arguments, result) -> dict:
    return {"windows": len(arguments["dataset"])}


def _window_epochs(arguments, result) -> dict:
    return {"window_epochs": arguments["x"].shape[0] * arguments["hyper"].epochs}


def _components(arguments, model) -> dict:
    return {"requested": arguments["components"], "kept": model.components}


# Work counted at the boundary of these functions, keyed by span name.
COUNTERS = {
    "ingest.load_csv": _rows,
    "convnet.train_arrays": _window_epochs,
    "convnet.predict_dataset": _windows,
    "lhn.collect_pool_features": _windows,
    "lhn.lhn_predict_dataset": _windows,
    "pls.nipals_fit": _components,
}


def public_functions(module):
    """Names of the functions a module defines itself and does not mark private."""
    return [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


@contextmanager
def instrument(tracer: Tracer, modules, only=None):
    """Trace the public functions of `modules` (or just the span names in `only`)."""
    saved = []
    try:
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in public_functions(module):
                span_name = f"{short}.{name}"
                if only is not None and span_name not in only:
                    continue
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, tracer.wrap(original, span_name, COUNTERS.get(span_name)))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's top-level ancestor (parents precede children)."""
    out = []
    for i, span in enumerate(spans):
        out.append(i if span.parent < 0 else out[span.parent])
    return out


def summarize(spans: list[Span], selfs: list[float], keep) -> dict[str, dict]:
    """Per-name call count, total and self seconds over the spans `keep` accepts."""
    table: dict[str, dict] = {}
    for i, span in enumerate(spans):
        if not keep(i):
            continue
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[i]
    return table
