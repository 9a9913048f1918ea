"""Span tracing around the public functions of the solver layers.

The benchmark measures end-to-end numbers with the library untouched. For
the per-layer numbers it swaps every public function of the layer modules
(and ``scipy.optimize.linprog`` where the conic kernels call it) for a
recording wrapper, in every module namespace that holds a reference, and
puts the originals back afterwards. Nothing inside the package changes.

A span records its request id, its own id, its parent's id, the layer
name, start and end times and a few counters read off the call's public
arguments and return value. Spans stay in memory until the run ends. A
layer's self time is its span's duration minus the durations of its
direct children, so the self times of a request add up to its root span;
:func:`span_errors` checks the nesting and compares that sum with the
request's wall time measured outside the tracer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYER_MODULES = ("conic", "maxcut", "geometry", "oracle", "dual", "primal")
ROOT = "bench.request"
LINPROG = "conic.linprog"


@dataclass
class Span:
    rid: int
    sid: int
    parent: int  # -1 for a request's root span
    name: str
    start: float
    end: float = 0.0
    stats: dict = field(default_factory=dict)


def _sdp_stats(args, kwargs, out, stats):
    warm = kwargs.get("warm", args[3] if len(args) > 3 else None)
    stats["iters"] = out.iterations
    stats["polished"] = int(out.polished)
    if warm is not None:
        stats["warm_calls"] = 1
        stats["warm_hits"] = int(out.iterations == 0)


# Counters read off public return values and arguments, per layer.
_STATS = {
    "conic.solve_min_sum_norms": lambda a, k, out, s: s.update(
        iters=out.iterations, blocks=out.blocks.shape[0]
    ),
    "conic.ellipsoid_maximize": lambda a, k, out, s: s.update(iters=out[1]["iterations"]),
    "conic.box_lsq_batch": lambda a, k, out, s: s.update(rows=out[0].shape[0]),
    "maxcut.sdp_relaxation": _sdp_stats,
    "maxcut.realize_pattern": lambda a, k, out, s: s.update(lp=int(out.method == "lp")),
    "oracle.enumerate_patterns": lambda a, k, out, s: s.update(patterns=len(out)),
}


class Tracer:
    """Collects spans for the requests run inside :meth:`request`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._rid = -1

    def request(self, rid: int):
        return _RequestScope(self, rid)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(self._rid, len(self.spans), parent, name, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        stats_of = _STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside a request: checks and set-up
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                span.stats["raised"] = 1
                span.stats["raised." + type(exc).__name__] = 1
                raise
            self._close(span)
            if stats_of is not None:
                stats_of(args, kwargs, out, span.stats)
            return out

        return traced

    def wrap_linprog(self, fn):
        """linprog gets a span only when a conic kernel calls it."""
        traced = self.wrap(LINPROG, fn)

        @functools.wraps(fn)
        def linprog(*args, **kwargs):
            if self._stack and self._stack[-1].name.startswith("conic."):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return linprog

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out


class _RequestScope:
    def __init__(self, tracer: Tracer, rid: int):
        self.tracer = tracer
        self.rid = rid

    def __enter__(self):
        self.tracer._rid = self.rid
        self.span = self.tracer._open(ROOT)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


class Patched:
    """Context manager installing ``tracer``'s wrappers, then restoring.

    Every module of the package is scanned, so a function imported by name
    into another module (``from .conic import solve_min_sum_norms``) is
    replaced there too, and intra-module calls go through the wrapper
    because they look the global up at call time.
    """

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        import scipy.optimize

        wrappers = {}
        for short in LAYER_MODULES:
            mod = getattr(self.package, short)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.tracer.wrap(f"{short}.{name}", fn)
        namespaces = [self.package] + [
            getattr(self.package, m) for m in dir(self.package)
            if inspect.ismodule(getattr(self.package, m))
            and getattr(self.package, m).__name__.startswith(self.package.__name__ + ".")
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._set(ns, attr, wrappers[id(value)])
        self._set(scipy.optimize, "linprog", self.tracer.wrap_linprog(scipy.optimize.linprog))
        return self

    def _set(self, ns, attr, value):
        self._saved.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()
        return False


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-layer sums: calls, self time and every recorded counter."""
    selfs = tracer.self_times()
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, selfs):
        t = totals[span.name]
        t["calls"] += 1
        t["self_s"] += own
        for key, val in span.stats.items():
            t[key] += val
    return {name: dict(vals) for name, vals in totals.items()}


def span_errors(tracer: Tracer, outside: dict[int, float], abs_tol: float = 5e-3,
                rel_tol: float = 0.01) -> list[str]:
    """Everything wrong with the recorded spans, one message each.

    Every span must be closed, lie inside its parent's interval and carry
    its parent's request id. The self times of a request add up to its root
    span by construction; that sum must also match ``outside[rid]``, the
    request's wall time measured by the caller inside the root span, to
    within ``abs_tol`` plus ``rel_tol`` of it.
    """
    errors = []
    total: dict[int, float] = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        total[span.rid] += own
        if span.end < span.start:
            errors.append(f"span {span.sid} ({span.name}) not closed")
        if span.parent >= 0:
            up = tracer.spans[span.parent]
            if up.rid != span.rid or span.start < up.start or span.end > up.end:
                errors.append(f"span {span.sid} ({span.name}) outside its parent {up.sid} ({up.name})")
    for rid, wall in outside.items():
        gap = total.get(rid, 0.0) - wall
        if not 0.0 <= gap <= abs_tol + rel_tol * wall:
            errors.append(f"request {rid}: self times sum to {total.get(rid, 0.0):.6f} s, wall time {wall:.6f} s")
    return errors
