"""Independent reference computations used by several test modules.

These deliberately avoid the library's search code: they re-derive the
same quantities from the cost primitives alone, so the mining tests
compare two separate routes to the same number.  The unpruned
segmentation and the eager greedy cover are the plain searches that the
miner's pruned and lazy ones must reproduce exactly; the segmentation
shares the miner's closed-form prices so that the two compare float for
float (the closed form is checked against the encoder separately).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from cadence.codec import SeqStats, cycle_cost, residual_bits, residual_cost
from cadence.core import UncodablePatternError
from cadence.miner import _cycle_cost_closed, _RunningMedian
from cadence.pattern import Cycle, cycle_cover, fit_cycle


def optimal_segmentation_bits(
    timestamps: Sequence[int],
    event: str,
    stats: SeqStats,
    max_segment: int | None = None,
) -> float:
    """Cheapest encoding of one event's timestamps by contiguous segments.

    Every contiguous run of at least three occurrences may be coded as a
    fitted cycle; every other occurrence is coded as a residual.  All
    segmentations are enumerated via a suffix recursion.
    """
    n = len(timestamps)
    cap = n if max_segment is None else max_segment
    resid = [residual_cost(stats, (t, event)) for t in timestamps]
    best = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        cheapest = resid[i] + best[i + 1]
        for j in range(i + 3, min(i + cap, n) + 1):
            try:
                bits = cycle_cost(fit_cycle(timestamps[i:j], event), stats)
            except UncodablePatternError:
                continue
            cheapest = min(cheapest, bits + best[j])
        best[i] = cheapest
    return best[0]


def cycle_selection_bits(
    cycles: Sequence[Cycle],
    timestamps: Sequence[int],
    event: str,
    stats: SeqStats,
) -> float:
    """Total bits of a cycle list plus residuals over the timestamps."""
    covered: set[int] = set()
    bits = 0.0
    for c in cycles:
        bits += cycle_cost(c, stats)
        covered.update(cycle_cover(c))
    bits += sum(
        residual_cost(stats, (t, event)) for t in timestamps if t not in covered
    )
    return bits


def single_candidate_bits(candidate, all_pairs, stats: SeqStats) -> float:
    """Total bits of one candidate plus residuals for everything else."""
    return candidate.cost + sum(
        residual_cost(stats, o) for o in all_pairs if o not in candidate.cover
    )


def unpruned_segmentation(
    timestamps: Sequence[int], event: str, stats: SeqStats, window: int = 500
) -> list[Cycle]:
    """The windowed segmentation DP with every start priced.

    The same prefix recursion and closed-form prices as
    ``extract_cycles_dp``, with ties to the shortest last segment, but
    without its early stop.
    """
    ts = list(timestamps)
    n = len(ts)
    l_res = residual_cost(stats, (ts[0], event))
    best = [0.0] * (n + 1)
    cut = [0] * (n + 1)
    as_cycle = [False] * (n + 1)
    for j in range(n):
        best[j + 1], cut[j + 1] = best[j] + l_res, j
        med = _RunningMedian()
        for i in range(j - 1, max(0, j - window + 1) - 1, -1):
            med.insert(ts[i + 1] - ts[i])
            m = j - i + 1
            cost = m * l_res
            cyc = float("inf")
            if m >= 3:
                sigma = (ts[j] - ts[i]) - (m - 1) * med.median
                cyc = _cycle_cost_closed(
                    stats, event, m, med.median, med.abs_deviation, sigma, ts[i]
                )
            if best[i] + min(cost, cyc) < best[j + 1]:
                best[j + 1], cut[j + 1] = best[i] + min(cost, cyc), i
                as_cycle[j + 1] = cyc < cost
    cycles = []
    j = n
    while j > 0:
        if as_cycle[j]:
            cycles.append(fit_cycle(ts[cut[j]:j], event))
        j = cut[j]
    return cycles[::-1]


def eager_greedy_cover(pool, stats: SeqStats) -> list:
    """Greedy cover that re-scores every remaining candidate on every pick.

    Picks the candidate minimizing (cost / new occurrences, cost,
    notation) while it beats leaving its new occurrences residual.
    """
    # the first candidate of each notation, as the miner dedupes
    remaining = list({c.notation: c for c in reversed(pool)}.values())
    covered: set = set()
    chosen = []
    while True:
        scored = [
            ((c.cost / len(c.cover - covered), c.cost, c.notation), c)
            for c in remaining
            if c.cover - covered
        ]
        if not scored:
            return chosen
        _, best = min(scored, key=lambda kc: kc[0])
        new = best.cover - covered
        if best.cost >= residual_bits(stats, Counter(e for _, e in new)):
            return chosen
        chosen.append(best)
        covered |= best.cover
        remaining.remove(best)
