"""Statistics of the perfbench benchmark: percentiles, quartiles and span
self time. Pure functions over plain lists; tested by test_stats.py."""

import itertools
import math
import statistics


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) of `values`, interpolating linearly
    between closest ranks (the same rule as numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile outside [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n, want=0.99, beyond=10):
    """The highest quantile up to `want` that leaves at least `beyond` of
    `n` samples above it, so a tail figure is never one or two outliers."""
    if n <= beyond:
        return 0.5
    return max(0.5, min(want, 1.0 - beyond / n))


def tail(values, want=0.99, beyond=10):
    """(quantile, value, sample count) of the tail figure of `values`."""
    q = tail_quantile(len(values), want, beyond)
    return q, percentile(values, q), len(values)


def median(values):
    return percentile(values, 0.5)


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) with quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def covered_ns(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals` (pairs of
    start, end), each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children counted once).

    `spans` is a list of (name, parent_index, qid, start_ns, end_ns);
    returns a list of self times in ns, index-aligned with `spans`."""
    children = [[] for _ in spans]
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        kids = [(spans[k][3], spans[k][4]) for k in children[i]]
        out.append((end - start) - covered_ns(kids, start, end))
    return out


def self_time_table(spans):
    """Per span name: (count, median self ms, total self ms)."""
    by_name = {}
    for span, self_ns in zip(spans, self_times(spans)):
        by_name.setdefault(span[0], []).append(self_ns / 1e6)
    return {name: (len(v), median(v), sum(v)) for name, v in by_name.items()}


def push_lags(push, horizon=4, tol=1e-6):
    """Push lag of a monitor hub over `push` (the serve_mixed trace): for
    each hub revision, which parties' mirrors changed, and how long after
    the feed chunk that took that party's estimate past its slack.

    `push` holds the slack, the hub value h0 and per-party mirrors m0 at the
    start, every party's (t, v) estimate after each chunk, and the hub's
    (t, value) revisions. A revision's change is matched against the
    parties' last `horizon` chunk values (fewest parties first). Returns
    (lags_ms, unattributed revision count)."""
    slack = push["slack"]
    ts = [p["t"] for p in push["parties"]]
    vs = [p["v"] for p in push["parties"]]
    n = len(ts)
    mirror = list(push["m0"])
    hub = push["h0"]
    scanned = [0] * n  # chunks of each party already seen
    base = [-1] * n  # chunk whose value the mirror holds (-1: initial)
    crossed = [None] * n  # time drift first reached the slack, if pending
    lags = []
    unattributed = 0

    def find_crossing(j, start):
        for k in range(start, scanned[j]):
            if abs(vs[j][k] - mirror[j]) >= slack:
                return ts[j][k]
        return None

    for t_rev, value in push["revisions"]:
        for j in range(n):
            while scanned[j] < len(ts[j]) and ts[j][scanned[j]] <= t_rev:
                k = scanned[j]
                scanned[j] += 1
                if crossed[j] is None and abs(vs[j][k] - mirror[j]) >= slack:
                    crossed[j] = ts[j][k]
        delta = value - hub
        hub = value
        if abs(delta) <= tol:
            continue
        options = []
        for j in range(n):
            opts = {mirror[j]: base[j]}
            for k in range(max(0, scanned[j] - horizon), scanned[j]):
                opts.setdefault(vs[j][k], k)
            options.append(sorted(opts.items(), key=lambda kv: kv[1]))
        best = None
        for combo in itertools.product(*options):
            changed = [j for j in range(n) if combo[j][0] != mirror[j]]
            if not changed:
                continue
            moved = sum(combo[j][0] - mirror[j] for j in changed)
            if abs(moved - delta) <= tol * (1.0 + abs(delta)):
                if best is None or len(changed) < len(best[1]):
                    best = (combo, changed)
        if best is None:
            unattributed += 1
            continue
        combo, changed = best
        for j in changed:
            if crossed[j] is not None:
                lags.append(t_rev - crossed[j])
            mirror[j], base[j] = combo[j]
            crossed[j] = find_crossing(j, base[j] + 1)
    return lags, unattributed

