"""Spans and counters recorded around calls into heavytrim's modules.

The tracer wraps public functions and methods from outside the package, so
the program itself is unchanged.  A span has a name, a start, an end and the
index of its parent span; spans are kept in memory and written out once.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": self.clock(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "error": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, *, after=None, materialize=False):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``after(result, *args)`` runs outside the span, so what it measures
        is not charged to the wrapped layer.  ``materialize`` drains a
        returned iterator inside the span, so a generator's work is timed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
            if after is not None:
                after(result, *args)
            return iter(result) if materialize else result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(lo, s["start"]), min(hi, s["end"]))
                  for lo, hi in children.get(i, []) if hi > s["start"] and lo < s["end"]]
        out.append((s["end"] - s["start"]) - covered(inside))
    return out


def descendants(spans: list[dict], root: int) -> list[int]:
    """Indices of the root span and every span below it."""
    below = {root}
    for i, s in enumerate(spans):
        if s["parent"] in below:
            below.add(i)
    return sorted(below)
