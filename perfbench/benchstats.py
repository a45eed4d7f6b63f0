"""Statistics of the qtda benchmark.

Pure functions over the raw records qtda_perfbench prints: percentiles with
their sample support, medians over completion-order groups, failure
accounting, and span self time.  Kept apart from run.py so
test_benchstats.py can check them on synthetic inputs.
"""

import math
import statistics
from collections import defaultdict

# One-sided 95% normal quantile.
Z95 = 1.6448536269514722


def nearest_rank(values, q):
    """Nearest-rank q-quantile of `values` and the number of samples above it.

    The result is the smallest sample with at least q*n samples at or below
    it, so exactly `beyond` = n - ceil(q*n) samples lie past it.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def latencies_ms(ops, window_ms):
    """Op latencies in ms, a failed op counted as taking the whole window.

    A failed or refused op misses every latency limit; the measurement
    window is longer than any op that completed inside it.
    """
    return [window_ms if op["error"] else op["latency_ns"] / 1e6 for op in ops]


def completion_groups(ops, count):
    """Splits `ops` in completion order (`end_ns`) into `count` consecutive
    groups whose sizes differ by at most one."""
    ordered = sorted(ops, key=lambda op: op["end_ns"])
    count = max(1, min(count, len(ordered)))
    cuts = [len(ordered) * i // count for i in range(count + 1)]
    return [ordered[cuts[i]:cuts[i + 1]] for i in range(count)]


def group_medians(ops, count, q, window_ms):
    """Estimate rate, median and q-quantile latency, each the median over
    `count` completion-order groups of the ops.

    A group's rate is its estimates divided by the time from the previous
    group's last completion (the phase start for the first) to its own.  A
    host stall that covers fewer than half the groups leaves all three
    figures where the other groups put them.  Returns the three medians and
    the fewest samples any group has beyond its quantile.
    """
    rates, p50s, tails, beyond = [], [], [], []
    previous_end = 0.0
    for group in completion_groups(ops, count):
        end = group[-1]["end_ns"]
        seconds = max(end - previous_end, 1.0) / 1e9
        previous_end = end
        rates.append(sum(op["estimates"] for op in group) / seconds)
        latencies = latencies_ms(group, window_ms)
        p50s.append(statistics.median(latencies))
        tail, past = nearest_rank(latencies, q)
        tails.append(tail)
        beyond.append(past)
    return {"est_per_s": statistics.median(rates),
            "p50_ms": statistics.median(p50s),
            "tail_ms": statistics.median(tails),
            "beyond": min(beyond)}


def count_outcomes(ops):
    """Attempted, succeeded and failed ops, with failures by error code."""
    by_code = defaultdict(int)
    for op in ops:
        if op["error"]:
            by_code[op["error"]] += 1
    failed = sum(by_code.values())
    return {"attempted": len(ops), "succeeded": len(ops) - failed,
            "failed": failed, "by_code": dict(sorted(by_code.items()))}


def wilson_upper(failed, attempted, n=None, z=Z95):
    """One-sided upper confidence bound (Wilson score) of failed/attempted.

    Never 0, even with no failures: it states how large the failure share
    can be given `n` tried ops (default: `attempted`).  A fixed `n` keeps
    the bound from moving with throughput when nothing fails.
    """
    p = failed / float(attempted)
    n = float(attempted if n is None else n)
    z2 = z * z
    centre = p + z2 / (2.0 * n)
    margin = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (centre + margin) / (1.0 + z2 / n)


def prefix_mae(ops, limit):
    """Mean |estimate - exact| over the ops at stream positions < `limit`.

    A fixed prefix of the stream makes the figure depend only on the seed,
    not on how many ops a run happened to complete.  Returns the mean and
    the number of estimates it covers.
    """
    errors = estimates = 0.0
    for op in ops:
        if op["index"] < limit and not op["error"]:
            errors += op["abs_error"]
            estimates += op["estimates"]
    return (errors / estimates if estimates else 0.0), int(estimates)


def span_self_times(spans):
    """Self time of each span of one thread's log.

    `spans` holds (name, op, parent, start, end) tuples, parent being an
    index into the same list or -1.  Self time is the span's duration minus
    the part of its interval that its direct children cover (overlapping
    children are counted once, parts outside the parent not at all).
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[2] >= 0:
            children[span[2]].append(index)
    out = []
    for index, (_, _, _, start, end) in enumerate(spans):
        intervals = sorted((max(start, spans[c][3]), min(end, spans[c][4]))
                           for c in children[index])
        covered = 0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def span_totals(logs):
    """Sum of duration and of self time per span name over thread logs."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    for log in logs:
        for span, own in zip(log, span_self_times(log)):
            total[span[0]] += span[4] - span[3]
            self_time[span[0]] += own
    return total, self_time


def tree_self_times(tree, total, span_self):
    """Self time of every node of a layer tree.

    `tree` maps a node to its children and `total` maps every node to its
    total time.  A node timed by benchmark spans starts from its span self
    time (`span_self`, span children already taken out) and loses only its
    children timed some other way; any other node loses all its children's
    totals.  The self times of a tree therefore add up to its root's total.
    """
    out = {}
    for node, node_total in total.items():
        kids = tree.get(node, ())
        if node in span_self:
            out[node] = span_self[node] - sum(
                total.get(kid, 0.0) for kid in kids if kid not in span_self)
        else:
            out[node] = node_total - sum(total.get(kid, 0.0) for kid in kids)
    return out
