"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces a name that one sktlab module looks up in another (a
module global such as `sktlab.iteration._reaction_raw`, or a class attribute
such as `sktlab.iteration._HelmholtzSolver.solve`) with a wrapper that times
each call. Nothing inside the package changes. Spans are not kept one by
one: each (name, parent name) pair aggregates a call count, a raised-call
count, total and self time, and, where asked, a log-spaced histogram of
durations, so a run with millions of calls fits in a few kilobytes.

A name that cannot be resolved (because the package no longer has it) is
recorded as absent instead of being wrapped, so metrics built only from it
are reported missing rather than zero.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

_BUCKETS_PER_E = 100  # histogram resolution: buckets are 1% wide


class Tracer:
    def __init__(self):
        self.spans = {}  # (name, parent) -> [calls, raised, total_s, self_s, {bucket: n}]
        self.counters = {}
        self.absent = []
        self.present = set()
        self._stack = []  # open spans: [name, time covered by child spans]
        self._restore = []

    def wrap(self, name: str, owner: str, attr: str, count=None, hist=False) -> None:
        """Time every call made through `owner.attr` as span `name`.

        `owner` is a dotted module path, optionally followed by a class name
        inside it. `count(counters, args, kwargs, result)` may add work
        counts after each call that returned; `hist` keeps a histogram of
        call durations for percentiles.
        """
        target = _resolve(owner)
        fn = getattr(target, attr, None) if target is not None else None
        if fn is None:
            self.absent.append(f"{owner}.{attr}")
            return
        self.present.add(name)
        setattr(target, attr, self._wrapper(name, fn, count, hist))
        self._restore.append((target, attr, fn))

    def unwrap_all(self) -> None:
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    def add_span(self, name: str, duration: float) -> None:
        """Record a root-level span timed by the caller."""
        self.present.add(name)
        self.spans[(name, None)] = [1, 0, duration, duration, {}]

    def _agg(self, name, parent):
        agg = self.spans.get((name, parent))
        if agg is None:
            agg = self.spans[(name, parent)] = [0, 0, 0.0, 0.0, {}]
        return agg

    def _wrapper(self, name, fn, count, hist):
        stack = self._stack
        counters = self.counters
        by_parent = {}  # parent -> aggregate, a cache over self.spans
        agg_for = self._agg
        log, floor = math.log, math.floor

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                duration = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                agg = agg_for(name, parent and parent[0])
                agg[0] += 1
                agg[1] += 1
                agg[2] += duration
                agg[3] += duration - frame[1]
                raise
            duration = perf_counter() - start
            stack.pop()
            key = parent and parent[0]
            agg = by_parent.get(key)
            if agg is None:
                agg = by_parent[key] = agg_for(name, key)
            agg[0] += 1
            agg[2] += duration
            if parent is not None:
                parent[1] += duration
            agg[3] += duration - frame[1]
            if hist and duration > 0.0:
                bucket = floor(log(duration) * _BUCKETS_PER_E)
                h = agg[4]
                h[bucket] = h.get(bucket, 0) + 1
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- queries, summed over parents -------------------------------------

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.spans.items() if n == name)

    def raised(self, name: str) -> int:
        return sum(a[1] for (n, _), a in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[3] for (n, _), a in self.spans.items() if n == name)

    def root_total_s(self) -> float:
        """Time covered by spans that have no traced parent."""
        return sum(a[2] for (_, p), a in self.spans.items() if p is None)

    def all_self_s(self) -> float:
        return sum(a[3] for a in self.spans.values())

    def percentile_us(self, name: str, q: float) -> float:
        """Duration at quantile q (0..1) of span `name`, to 1% resolution."""
        hist: dict = {}
        for (n, _), agg in self.spans.items():
            if n == name:
                for b, k in agg[4].items():
                    hist[b] = hist.get(b, 0) + k
        total = sum(hist.values())
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for b in sorted(hist):
            seen += hist[b]
            if seen >= rank:
                return math.exp((b + 0.5) / _BUCKETS_PER_E) * 1e6
        return math.exp((max(hist) + 0.5) / _BUCKETS_PER_E) * 1e6

    def edges(self) -> list:
        """(name, parent, calls, total_s, self_s) per aggregated pair."""
        return [
            (n, p, a[0], a[2], a[3])
            for (n, p), a in sorted(self.spans.items(), key=lambda kv: -kv[1][3])
        ]


def _resolve(owner: str):
    """Import `owner` as a module, or as a module plus one attribute."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        pass
    module, _, attr = owner.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None
