"""Percentiles and span arithmetic for the benchmark's metrics."""

from __future__ import annotations

import math
from collections import defaultdict


def percentile(values, p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between the closest
    ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(min_ops: int) -> float:
    """The highest percentile with at least ten of ``min_ops`` ops beyond
    it."""
    if min_ops < 40:
        raise ValueError("a tail percentile needs at least 40 ops")
    return 100.0 * (1.0 - 10.0 / min_ops)


def span_totals(spans) -> dict:
    """Per-name ``calls``, inclusive ``ms`` and ``self_ms`` from spans.

    A span is ``(name, start, end, parent)`` with times in seconds and
    ``parent`` the index of the enclosing span or ``-1``.  Inclusive time
    counts only spans with no enclosing span of the same name, so a
    recursive call is not counted twice; self time is a span's duration
    minus the durations of its direct children.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        duration = end - start
        entry["self_ms"] += 1e3 * (duration - child_time[i])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["ms"] += 1e3 * duration
    return dict(totals)
