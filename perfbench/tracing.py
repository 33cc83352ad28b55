"""Span tracing of entwined's layers from outside the package.

``install`` wraps every public function of the traced modules in every
``entwined`` namespace that holds it, including the modules that imported it
by name (``from .density import accumulate``), so calls are seen whichever
module makes them.  Spans stay in memory as (name, start, end, parent,
thread) and are written out once the run ends.  Nothing under ``src/`` is
changed; the wrappers exist only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("paths", "density", "propagator", "ring", "chessboard", "cli")

# Self time of every traced function lands in exactly one bucket, looked up
# by span name first and by "<layer>.*" second, so the buckets add up to the
# traced run time.
BUCKETS = {
    "paths.right_envelope": "paths.envelope_s",
    "paths.*": "paths.build_s",
    "density.field_for_segments": "density.field_s",
    "density.accumulate": "density.accumulate_s",
    "density.accumulate_profile": "density.profile_s",
    "density.export_field": "density.export_s",
    "density.*": "density.fit_s",
    "propagator.*": "propagator.self_s",
    "ring.run_ring": "ring.run_ring_s",
    "ring.*": "ring.metrics_s",
    "chessboard.enumerate_corner_histogram": "chessboard.enumerate_s",
    "chessboard.kernel_corner_sum": "chessboard.corner_sum_s",
    "chessboard.kernel_transfer_matrix": "chessboard.transfer_s",
    "chessboard.kernel_transfer_matrix[exact]": "chessboard.transfer_exact_s",
    "chessboard.kernel_phase_series": "chessboard.phase_series_s",
    "cli.*": "cli.overhead_s",
}

SELF_METRICS = tuple(dict.fromkeys(BUCKETS.values()))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    thread: int


def _exact_variant(arguments: dict) -> str:
    return "[exact]" if arguments.get("exact") else ""


# functions whose span name depends on an argument
_VARIANTS = {"chessboard.kernel_transfer_matrix": _exact_variant}


class Tracer:
    """Collects spans from wrapped functions; ``hooks`` see arguments and results.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost span open on the main thread, which is the
    library call that started the worker pool.
    """

    def __init__(self, hooks: dict):
        self.hooks = hooks
        self._spans: list[list] = []
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident

    def wrap(self, fn, name: str):
        hook = self.hooks.get(name)
        variant = _VARIANTS.get(name)
        signature = inspect.signature(fn) if (hook or variant) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span_name = name + variant(arguments) if variant else name
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and thread != self._main else None
            span = [span_name, time.perf_counter(), None, parent, thread]
            self._spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(arguments, result)
            return result

        return traced

    def spans(self) -> list[Span]:
        index = {id(s): i for i, s in enumerate(self._spans)}
        return [Span(s[0], s[1], s[2], -1 if s[3] is None else index[id(s[3])], s[4])
                for s in self._spans]


def install(tracer: Tracer) -> None:
    """Replace each public function of the traced layers in every entwined
    namespace holding it."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"entwined.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{name}")
    for module_name, module in list(sys.modules.items()):
        if module_name != "entwined" and not module_name.startswith("entwined."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def bucket_of(name: str) -> str:
    if name in BUCKETS:
        return BUCKETS[name]
    return BUCKETS[name.split(".", 1)[0] + ".*"]


def bucket_self_times(spans: list[Span]) -> dict[str, float]:
    out = dict.fromkeys(SELF_METRICS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        out[bucket_of(span.name)] += own
    return out


def inclusive_time(spans: list[Span], name: str) -> float:
    """Summed duration of the outermost spans called ``name``."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def ray_times(spans: list[Span]) -> list[tuple[int, float]]:
    """(thread, seconds) per ray written under ``propagator.write_region``.

    A ray is the run of write_region's child spans on one thread from a
    ``write_ray`` span to the last span before that thread's next
    ``write_ray``; the per-ray helpers between them are not public.
    """
    out = []
    for i, region in enumerate(spans):
        if region.name != "propagator.write_region":
            continue
        per_thread = defaultdict(list)
        for s in spans:
            if s.parent == i:
                per_thread[s.thread].append(s)
        for thread, kids in per_thread.items():
            kids.sort(key=lambda s: s.start)
            start = end = None
            for s in kids:
                if s.name == "propagator.write_ray":
                    if start is not None:
                        out.append((thread, end - start))
                    start = s.start
                if start is not None:
                    end = s.end
            if start is not None:
                out.append((thread, end - start))
    return out
