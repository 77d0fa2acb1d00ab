"""Arithmetic of the serving benchmark: percentiles, rates and self times.

Pure functions over plain numbers and lists, so test_metrics.py can check
them on synthetic inputs without building anything.
"""

import math

# A percentile is reported as a tail figure only when at least this many
# samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile of `values` and the number of samples beyond it.

    The rank is ceil(q * N) (1-based), so for N = 200 the p95 is the 190th
    smallest value and 10 samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1], len(ordered) - rank


def median(values):
    return percentile(values, 0.5)[0]


def latency_s(record):
    """Latency of one request, from when it was due to when its result was ready.

    Closed loops schedule a request at the moment it is submitted; the open
    loop schedules arrivals in advance, so a late generator or a stalled
    queue counts against every request it delays.
    """
    return record["ready"] - record["scheduled"]


def rate_per_s(completed, window_start, window_end):
    """Completed requests per second of the timed window."""
    wall = window_end - window_start
    if wall <= 0:
        raise ValueError("empty timed window")
    return completed / wall


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part its children cover.

    `spans` maps span id -> (parent id, start, end); parent 0 is a root.
    Children are clipped to their parent's interval, so a child that spills
    over never makes a self time negative; the spill shows up as residual
    when the self times of a tree are summed against its root.
    """
    children = {}
    for span_id, (parent, start, end) in spans.items():
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (_, start, end) in spans.items():
        clipped = [(max(start, s), min(end, e)) for s, e in children.get(span_id, [])]
        result[span_id] = (end - start) - union_length(clipped)
    return result

