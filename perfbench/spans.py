"""Traced run: spans around the calls into each layer of the program.

The tracer replaces public functions at the module attributes through which
the program calls them (for example ``doubleslit.kernels.mode_sum``, which
``farfield`` reaches as ``kernels.mode_sum``, or ``enumerate_modes`` as
imported into ``farfield`` and ``quadrature``). Each call records a span
(name, start, end, parent, request) in memory; ``layer_metrics`` derives
self times and counts from them.

With ``memory=True`` the tracer records tracemalloc peaks instead, for the
layers that report one. That pass is separate, because tracemalloc slows
every allocation and would distort the times. It samples: in each request,
tracemalloc runs only inside the first call of each such function (and the
calls nested in it). The pure-Python oracle runs about ten times slower
under it, so the surface oracle is left out: the quadrature peak is that of
the first sine-Fourier oracle call, and a traced oracle-check run stays
near 90 s instead of 120-130 s.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Optional

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 at the top
    request: int
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds inside the span
    peak_mb: float = 0.0  # tracemalloc peak above the entry level
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _kept(args, kwargs, result) -> dict:
    return {"kept": len(result)}


def _cells(args, kwargs, result) -> dict:
    w, q = args[0], args[3]
    return {"cells": len(w) * len(q)}


def _text_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _evaluations(args, kwargs, result) -> dict:
    return {"evaluations": result.evaluations}


# (module, attribute, span name, counter). Each row is a call site the
# program goes through; enumerate_modes and parse_config are imported by
# name into their callers, so they are wrapped there.
PATCH_POINTS = (
    ("cli", "run", "cli.run", None),
    ("cli", "parse_config", "config.parse", None),
    ("figures", "parse_config", "config.parse", None),
    ("farfield", "enumerate_modes", "modes.enumerate", _kept),
    ("quadrature", "enumerate_modes", "modes.enumerate", _kept),
    ("farfield", "scan", "farfield.scan", None),
    ("kernels", "mode_sum", "kernels.mode_sum", _cells),
    ("analysis", "missing_orders", "analysis.missing_orders", None),
    ("analysis", "report_text", "analysis.report_text", None),
    ("analysis", "report_rows", "analysis.report_rows", None),
    ("output", "scan_csv", "output.csv", _text_bytes),
    ("output", "write_csv", "output.csv", None),
    ("output", "scan_svg", "output.svg", _text_bytes),
    ("output", "write_plot", "output.svg", None),
    ("quadrature", "oracle_sine_fourier", "quadrature.sine_oracle", None),
    ("quadrature", "oracle_surface_amplitude", "quadrature.surface_oracle", None),
    ("quadrature", "integrate_1d", "quadrature.integrate", _evaluations),
)


# Layers whose tracemalloc peak is reported; the memory pass records only these.
MEMORY_PREFIXES = ("kernels.", "farfield.", "output.", "quadrature.")
MEMORY_SKIPPED = ("quadrature.surface_oracle",)


class Tracer:
    """Records spans while installed (``with Tracer() as t:``); leaving the
    block restores the program.

    Calls made while ``request`` is -1 (the benchmark's own checks) pass
    through unrecorded.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._carried: list[int] = []  # per open span: tracemalloc peak seen before a child reset it
        self._entry: list[int] = []  # per open span: traced bytes at entry
        self._sampled: set = set()  # (request, span name) already measured
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, counter in PATCH_POINTS:
            module = importlib.import_module(f"doubleslit.{module_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            owner = False
            if self.memory:
                if not name.startswith(MEMORY_PREFIXES) or name in MEMORY_SKIPPED:
                    return fn(*args, **kwargs)
                if not tracemalloc.is_tracing():
                    if (self.request, name) in self._sampled:
                        return fn(*args, **kwargs)
                    tracemalloc.start()
                    owner = True
                self._sampled.add((self.request, name))
                self._enter_memory()
            parent = self._stack[-1] if self._stack else -1
            span = Span(name=name, start=0.0, parent=parent, request=self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                if self.memory:
                    span.peak_mb = self._exit_memory()
                    if owner:
                        tracemalloc.stop()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    # tracemalloc keeps one global peak. Before a span resets it, the peak
    # reached so far is carried into the enclosing span, so that each span's
    # peak covers its whole interval, its children included.
    def _enter_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._carried:
            self._carried[-1] = max(self._carried[-1], peak)
        self._carried.append(0)
        self._entry.append(current)
        tracemalloc.reset_peak()

    def _exit_memory(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        peak = max(peak, self._carried.pop())
        return (peak - self._entry.pop()) / MB

    def dump(self) -> list:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
                "cpu": s.cpu,
                "peak_mb": s.peak_mb,
                **s.counts,
            }
            for s in self.spans
        ]


# The per-layer metrics, with their units, in the order they are reported.
LAYER_METRICS = {
    "config.parse_s": "s",
    "modes.enumerate_s": "s",
    "modes.enumerate_calls": "count",
    "modes.kept": "count",
    "farfield.scan_self_s": "s",
    "kernels.mode_sum_s": "s",
    "kernels.mode_sum_calls": "count",
    "kernels.cells": "count",
    "kernels.cpu_per_wall": "ratio",
    "analysis.missing_orders_s": "s",
    "analysis.report_s": "s",
    "analysis.report_rows_calls": "count",
    "output.csv_s": "s",
    "output.svg_s": "s",
    "output.bytes": "B",
    "quadrature.sine_oracle_s": "s",
    "quadrature.surface_oracle_s": "s",
    "quadrature.integrate_calls": "count",
    "quadrature.evaluations": "count",
    "cli.self_s": "s",
    "kernels.peak_mb": "MB",
    "farfield.peak_mb": "MB",
    "output.peak_mb": "MB",
    "quadrature.peak_mb": "MB",
}


def _outermost(spans: list, prefix: str) -> list:
    """Spans whose name starts with prefix and whose parent's does not."""
    return [
        s
        for s in spans
        if s.name.startswith(prefix)
        and (s.parent < 0 or not spans[s.parent].name.startswith(prefix))
    ]


def _self_seconds(spans: list, name: str) -> float:
    child_time: dict = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    return sum(s.seconds - child_time.get(i, 0.0) for i, s in enumerate(spans) if s.name == name)


def layer_metrics(timed: list, requests: int, memory: list) -> dict:
    """Per-request layer values from the timed spans; peaks from the memory pass.

    Times and counts are totals divided by the traced request count; peaks
    are the largest single span's peak in MB.
    """

    def total(name: str, attr: str = "seconds") -> float:
        return sum(s.seconds if attr == "seconds" else s.counts.get(attr, 0) for s in timed if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in timed if s.name == name)

    def inclusive(prefix: str) -> float:
        return sum(s.seconds for s in _outermost(timed, prefix))

    def peak(prefix: str) -> float:
        return max((s.peak_mb for s in _outermost(memory, prefix)), default=0.0)

    kernel = [s for s in timed if s.name == "kernels.mode_sum"]
    kernel_wall = sum(s.seconds for s in kernel)
    totals = {
        "config.parse_s": inclusive("config.parse"),
        "modes.enumerate_s": total("modes.enumerate"),
        "modes.enumerate_calls": calls("modes.enumerate"),
        "modes.kept": total("modes.enumerate", "kept"),
        "farfield.scan_self_s": _self_seconds(timed, "farfield.scan"),
        "kernels.mode_sum_s": kernel_wall,
        "kernels.mode_sum_calls": len(kernel),
        "kernels.cells": total("kernels.mode_sum", "cells"),
        "analysis.missing_orders_s": total("analysis.missing_orders"),
        "analysis.report_s": inclusive("analysis.report"),
        "analysis.report_rows_calls": calls("analysis.report_rows"),
        "output.csv_s": inclusive("output.csv"),
        "output.svg_s": inclusive("output.svg"),
        "output.bytes": total("output.csv", "bytes") + total("output.svg", "bytes"),
        "quadrature.sine_oracle_s": total("quadrature.sine_oracle"),
        "quadrature.surface_oracle_s": total("quadrature.surface_oracle"),
        "quadrature.integrate_calls": calls("quadrature.integrate"),
        "quadrature.evaluations": total("quadrature.integrate", "evaluations"),
        "cli.self_s": _self_seconds(timed, "cli.run"),
    }
    out = {name: value / requests for name, value in totals.items()}
    out["kernels.cpu_per_wall"] = (
        sum(s.cpu for s in kernel) / kernel_wall if kernel_wall > 0 else 0.0
    )
    out["kernels.peak_mb"] = peak("kernels.mode_sum")
    out["farfield.peak_mb"] = peak("farfield.scan")
    out["output.peak_mb"] = peak("output.")
    out["quadrature.peak_mb"] = peak("quadrature.")
    return {name: out[name] for name in LAYER_METRICS}
