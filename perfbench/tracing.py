"""Per-layer spans for countfact, recorded from outside the package.

``Instrumentation(recorder)`` replaces each public function listed in
FUNCTIONS, and the ``apply`` method of each operator class in APPLY_CLASSES,
with a wrapper that records a span, in every loaded countfact module that
holds a reference to it; leaving the ``with`` block restores the originals.
A name a later version of countfact no longer has is skipped, and the
metrics of its layer read 0.

A span holds its name, start and end (CLOCK_MONOTONIC ns), the span that
was open when it started, the thread CPU time it used
(``time.thread_time_ns``) and a few attributes such as the size n.  Spans
opened on a worker thread with nothing open on that thread take as parent
the innermost span open on the thread that created the recorder, so the
sweep's pool points hang under ``cli.sweep_rows``.

Self time is a span's duration minus the union of its children's
intervals (children on pool threads overlap).  Waiting is wall time minus
thread CPU time: time spent runnable but not running, for the GIL or a core.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: int
    cpu: int
    thread: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """Spans of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tables: dict[int, object] = {}  # coefficient tables built, by identity
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        outer = stack or self._root_stack
        span = Span(id=next(self._ids), parent=outer[-1].id if outer else None,
                    name=name, start=now_ns(), cpu=-time.thread_time_ns(),
                    thread=threading.get_ident(), attrs=attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu += time.thread_time_ns()
        span.end = now_ns()
        self._stack().pop()


def _size(args) -> dict:
    return {"n": args[0]}


def _method_size(args) -> dict:
    return {"method": args[0], "n": args[1]}


def _spectrum_size(args) -> dict:
    return {"n": args[0].m // 2}


def _config(args) -> dict:
    cfg = args[0]
    return {"method": cfg.factorization.method, "n": cfg.factorization.n,
            "trials": cfg.trials}


def _no_attrs(args) -> dict:
    return {}


def _record_table(recorder: Recorder, span: Span, args, result) -> None:
    recorder.tables[id(result)] = result


def _record_file_size(recorder: Recorder, span: Span, args, result) -> None:
    try:
        span.attrs["bytes"] = os.path.getsize(args[0])
    except OSError:
        span.attrs["bytes"] = 0


# (span name, module, function, attributes from the arguments, hook on the result)
FUNCTIONS = (
    ("sequences.coefficient_table", "countfact.sequences", "coefficient_table",
     _size, _record_table),
    ("factorizations.nsr_row_norms_sq", "countfact.factorizations", "nsr_row_norms_sq",
     _size, None),
    ("factorizations.factorize", "countfact.factorizations", "factorize",
     _method_size, None),
    ("structmat.circulant", "countfact.structmat", "circulant_extension_spectrum",
     _size, None),
    ("structmat.circulant", "countfact.structmat", "circulant_sqrt", _spectrum_size, None),
    ("structmat.circulant", "countfact.structmat", "circulant_first_column",
     _spectrum_size, None),
    ("metrics.error_report", "countfact.metrics", "error_report", _method_size, None),
    ("bounds.bound_report", "countfact.bounds", "bound_report", _size, None),
    ("mechanism.estimate_errors", "countfact.mechanism", "estimate_errors", _config, None),
    ("cli.sweep_rows", "countfact.cli", "sweep_rows", _no_attrs, None),
    ("cli.write", "countfact.cli", "write_sweep_csv", _no_attrs, _record_file_size),
    ("cli.write", "countfact.cli", "write_sweep_svg", _no_attrs, _record_file_size),
)

# Operators whose ``apply`` is traced as span "structmat.apply" with attribute cls.
APPLY_CLASSES = (
    ("countfact.structmat", "LowerTriangularToeplitz"),
    ("countfact.factorizations", "NsrLeft"),
    ("countfact.factorizations", "CirculantSlice"),
)

# Memoized layers; every round starts with them empty, as a cold CLI run does.
CACHED = (
    ("countfact.sequences", "coefficient_table"),
    ("countfact.factorizations", "nsr_row_norms_sq"),
)


def clear_caches() -> None:
    for module, name in CACHED:
        fn = getattr(importlib.import_module(module), name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _wrap(recorder, fn, name, attrs, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, attrs(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if hook is not None:
            hook(recorder, span, args, result)
        return result

    return wrapper


def _apply_attrs(args) -> dict:
    return {"cls": type(args[0]).__name__, "n": args[0].n}


class Instrumentation:
    """Context manager that installs the span wrappers for one recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Instrumentation":
        modules = [m for key, m in list(sys.modules.items())
                   if key == "countfact" or key.startswith("countfact.")]
        for name, module, attr, attrs, hook in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = _wrap(self.recorder, original, name, attrs, hook)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)
        for module, cls_name in APPLY_CLASSES:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if cls is not None and "apply" in vars(cls):
                self._patch(cls, "apply", _wrap(self.recorder, vars(cls)["apply"],
                                                "structmat.apply", _apply_attrs, None))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _covered(span: Span, children: list[Span]) -> int:
    """Length of the union of the children's intervals inside the span."""
    total = 0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _growth(spans: list[Span], self_cpu: dict[int, int]) -> float:
    """Measured exponent: log(self time ratio) / log(size ratio) at the two
    largest sizes; 0 when the layer ran at fewer than two sizes.

    Self time here is thread CPU time, so that the sweep pool's interleaving,
    which stretches the wall time of concurrent points, does not bend it.
    """
    by_n: dict[int, int] = defaultdict(int)
    for span in spans:
        by_n[span.attrs["n"]] += self_cpu[span.id]
    sizes = sorted(by_n)
    if len(sizes) < 2:
        return 0.0
    lo, hi = sizes[-2], sizes[-1]
    if by_n[lo] <= 0 or by_n[hi] <= 0:
        return 0.0
    return math.log(by_n[hi] / by_n[lo]) / math.log(hi / lo)


def layer_metrics(recorder: Recorder, round_wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced round whose invocations ran under
    ``cli.main`` spans; times in ms."""
    spans = recorder.spans
    children: dict[int, list[Span]] = defaultdict(list)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)
    self_ns = {s.id: s.duration - _covered(s, children[s.id]) for s in spans}
    self_cpu = {s.id: s.cpu - sum(c.cpu for c in children[s.id] if c.thread == s.thread)
                for s in spans}

    def self_ms(items) -> float:
        return sum(self_ns[s.id] for s in items) / 1e6

    m: dict[str, float] = {}
    tables = recorder.tables.values()
    m["sequences.coefficient_table.self_ms"] = self_ms(named["sequences.coefficient_table"])
    m["sequences.coefficient_table.misses"] = len(recorder.tables)
    m["sequences.coefficient_table.bytes"] = sum(
        getattr(value, "nbytes", 0) for table in tables for value in vars(table).values())
    m["sequences.coefficient_table.growth"] = _growth(
        named["sequences.coefficient_table"], self_cpu)
    m["factorizations.nsr_row_norms_sq.self_ms"] = self_ms(
        named["factorizations.nsr_row_norms_sq"])
    m["factorizations.nsr_row_norms_sq.growth"] = _growth(
        named["factorizations.nsr_row_norms_sq"], self_cpu)
    m["factorizations.factorize.self_ms"] = self_ms(named["factorizations.factorize"])
    m["structmat.circulant.self_ms"] = self_ms(named["structmat.circulant"])
    m["structmat.circulant.growth"] = _growth(named["structmat.circulant"], self_cpu)
    m["metrics.error_report.self_ms"] = self_ms(named["metrics.error_report"])
    m["bounds.bound_report.self_ms"] = self_ms(named["bounds.bound_report"])
    m["bounds.bound_report.growth"] = _growth(named["bounds.bound_report"], self_cpu)

    applies = named["structmat.apply"]
    m["structmat.apply.self_ms"] = self_ms(applies)
    m["structmat.apply.calls"] = len(applies)
    for _, cls in APPLY_CLASSES:
        of_cls = [s for s in applies if s.attrs["cls"] == cls]
        m[f"structmat.apply.{cls}.self_ms"] = self_ms(of_cls)
        m[f"structmat.apply.{cls}.calls"] = len(of_cls)

    estimates = named["mechanism.estimate_errors"]
    trials = sum(s.attrs["trials"] for s in estimates)
    m["mechanism.trial_ms"] = (sum(s.duration for s in estimates) / 1e6 / trials
                               if trials else 0.0)
    m["mechanism.estimate_errors.self_ms"] = self_ms(estimates)

    sweeps = named["cli.sweep_rows"]
    points = [c for s in sweeps for c in children[s.id]]
    sweep_wall = sum(s.duration for s in sweeps)
    m["cli.sweep_rows.wait_ms"] = sum(c.duration - c.cpu for c in points) / 1e6
    m["cli.sweep_rows.parallel_ratio"] = (sum(c.cpu for c in points) / sweep_wall
                                          if sweep_wall else 0.0)
    m["cli.write.self_ms"] = self_ms(named["cli.write"])
    m["cli.write.bytes"] = sum(s.attrs.get("bytes", 0) for s in named["cli.write"])

    for label in {s.attrs["label"] for s in named["cli.main"]}:
        m[f"cli.main.{label}_ms"] = sum(
            s.duration for s in named["cli.main"] if s.attrs["label"] == label) / 1e6
    attributed = sum(_covered(s, children[s.id]) for s in named["cli.main"])
    m["trace.wall_ms"] = round_wall_ns / 1e6
    m["trace.unattributed_ms"] = (round_wall_ns - attributed) / 1e6
    return m
