"""Order statistics and span self-time for the benchmark's reports."""

import math
import statistics

# Candidate tail percentiles, highest first. A tail percentile is reported
# only when at least MIN_BEYOND samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First, second and third quartile, as statistics.quantiles(n=4) gives them."""
    return statistics.quantiles(xs, n=4)


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    s = sorted(xs)
    k = max(1, math.ceil(p / 100.0 * len(s)))
    return s[k - 1]


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even p90 has too few."""
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            return p
    return None


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. `spans` holds dicts with id, parent, t0, t1;
    returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo = max(c["t0"], end)
            hi = min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out
