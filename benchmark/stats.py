"""Statistics shared by run.py, compare.py and the tests.

Quartiles follow Python's statistics.quantiles(values, n=4) (the default
"exclusive" method), so spreads printed here match a reader's own check.
Percentiles of raw timing samples are nearest-rank, as the driver computes
them.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_TAIL_SAMPLES = 10

# Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) of a list of numbers."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median (0 for a
    zero median with no spread, infinite for a zero median with spread)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def samples_beyond(count, pct):
    """Samples strictly above the nearest-rank pct-th percentile of count."""
    rank = max(1, math.ceil(pct / 100.0 * count))
    return max(0, count - rank)


def tail_ok(count, pct):
    """True when the pct-th percentile of count samples has enough samples
    beyond it to be reported."""
    return samples_beyond(count, pct) >= MIN_TAIL_SAMPLES


def is_better(a, b, better):
    """True when value a reads strictly better than value b."""
    return a < b if better == "lower" else a > b


def pair_wins(parent, change, better):
    """(wins, losses, ties) of the change over paired parent runs. Ties
    count for neither side."""
    if len(parent) != len(change):
        raise ValueError("pairs need equal-length lists")
    wins = sum(1 for p, c in zip(parent, change) if is_better(c, p, better))
    losses = sum(1 for p, c in zip(parent, change) if is_better(p, c, better))
    return wins, losses, len(parent) - wins - losses


def worse_share(parent_median, change_median, better):
    """How much worse the change's median reads, as a share of the parent's
    median (negative when it reads better)."""
    if parent_median == 0:
        if change_median == parent_median:
            return 0.0
        worse = is_better(parent_median, change_median, better)
        return math.inf if worse else -math.inf
    delta = change_median - parent_median
    if better == "higher":
        delta = -delta
    return delta / abs(parent_median)


def verdict(parent, change, better, bound, abs_floor=0.0):
    """Judge paired runs against a regression bound.

    improved   -- the change wins at least WIN_SHARE of all pairs and the
                  medians differ by more than the parent's quartile distance;
    unresolved -- the parent's own spread exceeds the bound, so a change of
                  that size cannot be told from noise (unless every change
                  run reads better than every parent run);
    regressed  -- the change's median is worse than the parent's by more
                  than the bound;
    unchanged  -- otherwise.

    abs_floor widens the bound to at least that absolute difference (used
    for set-up time, where a few milliseconds are noise).
    """
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins, _, _ = pair_wins(parent, change, better)
    if (wins >= WIN_SHARE * len(parent) and is_better(c_med, p_med, better)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    if p_med != 0 and abs_floor > 0:
        bound = max(bound, abs_floor / abs(p_med))
    if spread(parent) > bound:
        if all(is_better(c, p, better) for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    if worse_share(p_med, c_med, better) > bound:
        return "regressed"
    return "unchanged"
