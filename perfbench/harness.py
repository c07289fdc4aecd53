"""Pure functions that turn the driver's raw measurements into metrics.

Kept apart from run.py so tests/test_harness.py can exercise them without a
build: percentile selection, backlog detection, span self times and the
per-seed reference check.
"""

import bisect
import math

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supports_percentile(n, p):
    """True when n samples leave at least MIN_TAIL_SAMPLES beyond the p-th."""
    return n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9


def tail_percentile(values, p):
    """The p-th percentile, or None when the sample cannot support it."""
    if not supports_percentile(len(values), p):
        return None
    return percentile(values, p)


def windowed_percentiles(samples, start, end, windows, ps):
    """{p: [p-th percentile of each window]} over `windows` equal windows of
    [start, end); `samples` are (time, value) pairs. Every window must hold
    enough samples to support every requested percentile."""
    width = (end - start) / windows
    buckets = [[] for _ in range(windows)]
    for t, v in samples:
        i = int((t - start) // width)
        if 0 <= i < windows:
            buckets[i].append(v)
    out = {p: [] for p in ps}
    for b in buckets:
        for p in ps:
            value = tail_percentile(b, p)
            if value is None:
                raise ValueError("window of %d samples cannot support p%g" % (len(b), p))
            out[p].append(value)
    return out


def backlog_growing(due, done, start, end, points=8, min_growth=8, growth_share=0.02):
    """Whether the queue grows over [start, end).

    Samples the number of outstanding requests at `points` instants spread
    over the window and compares the mean of the last quarter of samples
    with the mean of the first quarter. The backlog grows when the rise
    exceeds max(min_growth, growth_share * requests due in the window); a
    burst that drains within the window does not count.
    """
    if end <= start:
        return False
    due_sorted = sorted(due)
    done_sorted = sorted(done)

    def outstanding(t):
        return bisect.bisect_right(due_sorted, t) - bisect.bisect_right(done_sorted, t)

    step = (end - start) / points
    samples = [outstanding(start + (i + 0.5) * step) for i in range(points)]
    quarter = max(1, points // 4)
    first = sum(samples[:quarter]) / quarter
    last = sum(samples[-quarter:]) / quarter
    window_requests = bisect.bisect_left(due_sorted, end) - bisect.bisect_left(due_sorted, start)
    return last - first > max(min_growth, growth_share * window_requests)


def self_times(names, starts, ends, parents):
    """Per-span self time: duration minus the union of its children's spans."""
    children = [[] for _ in names]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(names)):
        covered = 0
        cursor = starts[i]
        for c in sorted(children[i], key=lambda c: starts[c]):
            lo = max(starts[c], cursor)
            hi = min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def self_time_by_name(spans, scale=1e-9):
    """Sum of self times per span name, in seconds (from nanoseconds)."""
    st = self_times(spans["name"], spans["start_ns"], spans["end_ns"], spans["parent"])
    totals = {}
    for name, t in zip(spans["name"], st):
        totals[name] = totals.get(name, 0.0) + t * scale
    return totals


def check_reference(references, workload, seed, observed):
    """Compare per-seed outputs with the recorded references.

    `references` maps workload -> {"tolerance": {metric: {"rel"|"abs": x}},
    "seeds": {seed: {metric: value}}}. A seed with a recorded entry must
    match it within the tolerance. Any other seed must fall inside the
    range [lo, hi] of all recorded seeds, widened on each side by its own
    width (the sample range understates the spread across seeds) and by the
    tolerance. Returns (mode, failures) where failures lists
    human-readable mismatches.
    """
    entry = references.get(workload)
    if not entry or not entry.get("seeds"):
        return "none", ["no reference recorded for %s" % workload]
    tolerance = entry["tolerance"]
    failures = []

    def allowed(metric, value):
        tol = tolerance[metric]
        return tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(value)

    recorded = entry["seeds"].get(str(seed))
    mode = "seed" if recorded is not None else "envelope"
    for metric in tolerance:
        if metric not in observed:
            failures.append("%s missing from the outputs" % metric)
            continue
        value = observed[metric]
        if recorded is not None:
            ref = recorded[metric]
            if abs(value - ref) > allowed(metric, ref):
                failures.append("%s = %.6g, reference for seed %s is %.6g" % (metric, value, seed, ref))
        else:
            values = [s[metric] for s in entry["seeds"].values()]
            lo, hi = min(values), max(values)
            lo, hi = lo - (hi - lo) - allowed(metric, lo), hi + (hi - lo) + allowed(metric, hi)
            if not lo <= value <= hi:
                failures.append("%s = %.6g outside [%.6g, %.6g] around the recorded seeds" % (metric, value, lo, hi))
    return mode, failures

