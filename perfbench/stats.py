"""Statistics helpers for the benchmark: tail percentiles with their sample
counts, quartile spreads, the pair-win rule and the compare verdict."""

import statistics


def tail_percentile(values, target, min_beyond=10):
    """The highest percentile at most `target` that leaves at least
    `min_beyond` samples above it.

    Returns (value, percentile_used, sample_count). When even the median
    would leave fewer than `min_beyond` samples above it, no tail can be
    reported and the median is returned with percentile 50."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    # Nearest rank r leaves n - r samples beyond; the largest admissible
    # rank is n - min_beyond.
    max_rank = n - min_beyond
    target_rank = -(-n * target // 100)
    rank = min(target_rank, max_rank)
    if rank < -(-n * 50 // 100):
        return statistics.median(values), 50.0, n
    pct = target if rank == target_rank else 100.0 * rank / n
    return sorted(values)[int(rank) - 1], pct, n


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def beats(a, b, better):
    """Whether value `a` is better than `b` (ties are not)."""
    return a < b if better == "lower" else a > b


def pair_wins(parent, change, better):
    """Pairs (in run order) in which the change beats the parent."""
    return sum(1 for p, c in zip(parent, change) if beats(c, p, better))


def pair_win(parent, change, better, share=0.9):
    """The pair-win rule: the change wins at least `share` of all pairs run,
    ties counting for neither side."""
    pairs = min(len(parent), len(change))
    return pairs > 0 and pair_wins(parent, change, better) >= share * pairs


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Classify one (metric, workload) from pairs of runs, `parent[i]` and
    `change[i]` made one after the other: "better", "worse", "within bound"
    or "unresolved".

    * better: the change wins the pair-win rule and the medians differ by
      more than the parent's interquartile distance;
    * worse: the change's median is worse than the parent's by more than
      `bound` (a share of the parent's median);
    * unresolved: the parent's own spread exceeds the bound, so staying
      within it says nothing, unless every change run beats every parent
      run;
    * within bound: otherwise.

    A gain does not count when more statements failed with the change
    (`change_failed`) than with the parent (`parent_failed`): what would be
    "better" is then "unresolved"."""
    v = _verdict(parent, change, better, bound)
    if v == "better" and change_failed > parent_failed:
        return "unresolved"
    return v


def _verdict(parent, change, better, bound):
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent) if len(parent) >= 2 else (mp, mp, mp)
    if pair_win(parent, change, better) and abs(mc - mp) > q3 - q1:
        return "better"
    worse_by = (mc - mp) / mp if better == "lower" else (mp - mc) / mp
    if worse_by > bound:
        return "worse"
    if len(parent) >= 2 and spread(parent) > bound:
        if all(beats(c, p, better) for c in change for p in parent):
            return "better"
        return "unresolved"
    return "within bound"
