"""Mining periodic patterns by code-length minimization.

The pipeline extracts per-event cycles first (an optimal windowed
segmentation pass plus a triple-chaining pass), then grows them in
rounds: same-tree patterns whose starting points are themselves periodic
are nested under an outer cycle, and co-periodic patterns close to each
other are concatenated as siblings.  Every construction is kept only if
it encodes its occurrences in fewer bits than the alternatives, and a
greedy selection assembles the final collection.
"""

from __future__ import annotations

import heapq
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, groupby
from operator import or_, sub
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    DomainError,
    EventSequence,
    UncodablePatternError,
)
from .pattern import (
    Block,
    Pattern,
    build_merge,
    concat_layout,
    corrected_occurrences,
    factor_layout,
    fit_cycle,
    fit_period,
    grow_horizontally,
    grow_vertically,
)
from . import codec
from .codec import CollectionReport, SeqStats

# Components of the pairwise-merge graph up to this many candidates get
# every maximal clique; larger ones fall back to a greedy clique cover.
_CLIQUE_NODE_CAP = 64


# ---------------------------------------------------------------------------
# Configuration and candidates


def _require_int(name: str, value: object, least: int = 1) -> None:
    """Raise :class:`DomainError`, naming the argument, unless ``value``
    is an int (a bool is not) of at least ``least``."""
    if type(value) is not int or value < least:
        raise DomainError(f"{name} must be an int >= {least}, got {value!r}")


@dataclass(frozen=True)
class MiningConfig:
    """Tunable knobs of the miner.

    ``k`` is the per-occurrence retention width: a candidate survives
    pruning while it is among the ``k`` most efficient candidates for at
    least one occurrence it covers.  ``max_rounds`` bounds the rounds of
    nesting and concatenation; 0 stops after cycle extraction (stage S).
    ``threads`` is a deprecated argument and no field: it is checked like
    a width, warned about with :class:`DeprecationWarning` and ignored, so
    ``MiningConfig(threads=2) == MiningConfig()``.  Stage S runs in the
    caller's thread.  The thread pool it ran was bound by the GIL: at seed
    501 on a 2-core x86 machine, in two rounds of 12 alternating pairs in
    one process, ``threads=2`` took 1.20 and 1.21 times as long as
    ``threads=1`` on stream (slower in 12 and 11 of 12); on heartbeats
    and braids the ratio ranged from 0.98 to 1.13.
    """

    k: int = 3
    max_rounds: int = 10
    threads: InitVar[int | None] = None

    def __post_init__(self, threads: int | None) -> None:
        for name, least in (("k", 1), ("max_rounds", 0)):
            _require_int(name, getattr(self, name), least)
        if threads is not None:
            _require_int("threads", threads)
            msg = "MiningConfig's threads argument is deprecated and ignored"
            warnings.warn(msg, DeprecationWarning, stacklevel=3)


def _bits(indices: Iterable[int], size: int) -> int:
    """The int with bit ``i`` set for each of the indices, all below
    ``size``."""
    row = bytearray((size >> 3) + 1)
    for i in indices:
        row[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(row, "little")


class Numbering:
    """One numbering of a log's occurrences, the miner's one handle on
    the log: it keeps the log ``seq`` and its statistics.  Bit ``i`` of
    a cover stands for ``pairs[i]``, the ``i``-th occurrence in ``(t,
    label)`` order, and ``stats``, which must be
    ``SeqStats.from_sequence(seq, t_start, t_end)`` over a window that
    holds the log (:func:`codec.require_own_stats` raises
    :class:`DomainError` otherwise), price every candidate numbered
    here.

    A cover is a Python int over one numbering, so a union is ``|``, a
    size ``int.bit_count()`` and what one cover adds to another ``a &
    ~b``.  :func:`mine` numbers the log it mines, and every candidate
    that :func:`extract_cycles` and growth make carries that numbering:
    it lives as long as they do, and no module keeps it.
    """

    def __init__(self, seq: EventSequence, stats: SeqStats) -> None:
        codec.require_own_stats(seq, stats)
        self.seq = seq
        self.stats = stats
        self.pairs = tuple(sorted((t, e) for e, ts in seq.per_event.items() for t in ts))
        self.index = {o: i for i, o in enumerate(self.pairs)}

    def cover(self, pairs: Iterable[tuple[int, str]]) -> int:
        """The cover of the pairs, each of which must be numbered."""
        index = self.index
        return _bits((index[o] for o in pairs), len(self.pairs))

    def pairs_of(self, cover: int) -> tuple[tuple[int, str], ...]:
        """The pairs of a cover, in order."""
        pairs, digits, out = self.pairs, bin(cover)[:1:-1], []
        i = digits.find("1")
        while i >= 0:
            out.append(pairs[i])
            i = digits.find("1", i + 1)
        return tuple(out)

    def rest(self, cover: int) -> tuple[tuple[int, str], ...]:
        """The pairs the cover does not hold, in order."""
        return self.pairs_of(cover ^ ((1 << len(self.pairs)) - 1))

    @cached_property
    def by_label(self) -> dict[str, int]:
        """The cover of each label's occurrences."""
        rows: dict[str, list[int]] = {}
        for i, (_, e) in enumerate(self.pairs):
            rows.setdefault(e, []).append(i)
        return {e: _bits(row, len(self.pairs)) for e, row in rows.items()}

    def labels(self, cover: int) -> dict[str, int]:
        """How many of the cover's pairs carry each label, for the labels
        it holds."""
        held = ((e, (cover & mask).bit_count()) for e, mask in self.by_label.items())
        return {e: n for e, n in held if n}


@dataclass(frozen=True)
class Candidate:
    """A costed pattern candidate, and the record growth reads of it.

    A candidate is its ``pattern``: the miner tells two candidates apart
    by pattern equality.  ``bits`` is its cover over ``numbering``
    (:class:`Numbering`), the occurrences of the log it was mined from;
    ``numbering.pairs_of(bits)`` lists them, and ``cost`` is its price
    under ``numbering.stats``.  A pattern covers at least one occurrence
    of its log, so a cover that is not a positive int, or holds a bit
    past the numbered occurrences, raises :class:`DomainError`.
    Pruning and selection order candidates by :attr:`rank`, and
    :attr:`notation` is formatted only when read, for reports.

    Growth reads the rest, each part worked out on first read and kept
    while the candidate lives.  ``per`` occurrences fall in each root
    repetition.  ``magnitudes`` are the corrections' ``|E|``, the first
    occurrence's 0, and ``running[r]`` their sum over the first ``r``
    root repetitions, the ones a merge keeps, whose cover :meth:`kept`
    makes once per ``r``.  ``cycle`` is a one-leaf cycle's parameters
    (:func:`codec.cycle_merge_pricer`) and ``slack`` the ``|E|`` summed
    at the root repetitions' boundaries.
    ``terms`` are the root's children's :func:`codec.child_terms` under
    ``numbering.stats`` and ``inner_terms`` its first child's, the parts
    of a factorized merge; both are codable (:func:`codec._placed`).  A
    candidate is the :class:`codec.MergeMember` that
    :func:`codec.merge_pricer` reads.
    """

    pattern: Pattern
    bits: int
    cost: float
    provenance: str
    numbering: Numbering = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.bits) is not int or self.bits <= 0:
            raise DomainError(f"a candidate's cover must be a positive int, got {self.bits!r}")
        if self.bits.bit_length() > len(self.numbering.pairs):
            raise DomainError(
                f"a candidate's cover holds bit {self.bits.bit_length() - 1}, past the"
                f" {len(self.numbering.pairs)} occurrences of its numbering"
            )

    @property
    def efficiency(self) -> float:
        return self.cost / self.bits.bit_count()

    @property
    def tau(self) -> int:
        return self.pattern.tau

    @property
    def rank(self) -> tuple[float, float, int, int]:
        """``(efficiency, cost, tau, bits)``: the key every tie breaks
        on, known before the candidate is built."""
        return self.efficiency, self.cost, self.pattern.tau, self.bits

    @cached_property
    def notation(self) -> str:
        """The pattern's bracket notation, formatted on first read."""
        return str(self.pattern)

    @cached_property
    def per(self) -> int:
        tree = self.pattern.tree
        return tree.count // tree.r

    @cached_property
    def cycle(self) -> codec.Cycle | None:
        """``(event, r, p, tau, offsets)`` of a one-leaf cycle, the
        parameters :func:`codec.cycle_merge_pricer` reads; None for any
        other tree.  A repetition of one occurrence is one leaf."""
        if self.per != 1:
            return None
        tree = self.pattern.tree
        return tree.children[0].event, tree.r, tree.p, self.pattern.tau, self.pattern.offsets

    @cached_property
    def magnitudes(self) -> list[int]:
        return [0, *map(abs, self.pattern.corrections)]

    @cached_property
    def running(self) -> list[int]:
        m, per = self.magnitudes, self.per
        return [0, *accumulate(sum(m[i : i + per]) for i in range(0, len(m), per))]

    @cached_property
    def slack(self) -> int:
        es, per = self.pattern.corrections, self.per
        return sum(abs(es[k * per - 1]) for k in range(1, self.pattern.tree.r))

    @cached_property
    def terms(self) -> tuple:
        return codec.child_terms(self.pattern.tree, self.numbering.stats)

    @cached_property
    def inner_terms(self) -> tuple:
        return codec.child_terms(self.pattern.tree.children[0], self.numbering.stats)

    @cached_property
    def _covers(self) -> dict[int, int]:
        """The covers :meth:`kept` has made, by length."""
        return {}

    def kept(self, r: int) -> int:
        """Cover of the first ``r`` root repetitions, made once per
        ``r``: ``bits`` itself for all of them."""
        if r == self.pattern.tree.r:
            return self.bits
        covers = self._covers
        cover = covers.get(r)
        if cover is None:
            first = corrected_occurrences(self.pattern)[: r * self.per]
            cover = covers[r] = self.numbering.cover(first)
        return cover


def _dedupe(cands: Iterable[Candidate]) -> list[Candidate]:
    """Drop duplicate patterns, keeping first occurrence order."""
    first: dict[Pattern, Candidate] = {}
    for c in cands:
        first.setdefault(c.pattern, c)
    return list(first.values())


def _numbering(cands: Sequence[Candidate], numbering: Numbering | None = None) -> Numbering:
    """The one numbering of the candidates: ``numbering``, or else the
    first candidate's.  Raises :class:`DomainError` when a candidate has
    another, so every public function that reads covers reads them over
    one log."""
    if numbering is None:
        numbering = cands[0].numbering
    if any(c.numbering is not numbering for c in cands):
        raise DomainError("the candidates are numbered over different logs")
    return numbering


# ---------------------------------------------------------------------------
# Stage S: optimal windowed segmentation


def extract_cycles_dp(
    timestamps: Sequence[int],
    event: str,
    stats: SeqStats,
    window: int = 500,
) -> list[tuple[int, ...]]:
    """Cost-optimal segmentation of one event's timestamps into cycles.

    Consecutive runs of at least 3 occurrences may be coded as one fitted
    cycle; everything else stays residual.  The segmentation minimizing
    the total bits is found by dynamic programming over prefixes, with
    segments capped at ``window`` occurrences.  Each segment is priced by
    :func:`codec.cycle_pricer`, the encoder's price of a fitted cycle from
    its parameters, built once for the event.  The period is the upper
    median of the segment's gaps, kept online in two heaps as the scan
    adds a gap per step: a max-heap (negated) of the smaller half and a
    min-heap of the larger, whose top is the median, with each half's
    sum for the gaps' absolute deviation from it.

    The last segment's start ``i`` is scanned leftwards from ``j - 1``,
    and three exact rules skip work.  Start ``a``'s candidate for row
    ``j`` is ``best[a] + min((j - a + 1) * l, price(a..j))``, with ``l``
    the residual price; ``bj`` is the best candidate found so far.

    *Stop rule.*  Extending a segment ``[a..i]`` of three or more
    occurrences to ``[a..j]`` adds at least ``min(m2 * l, 2 * m2 + D -
    Λ)`` bits, where ``m2 = j - i``, ``D`` is the absolute deviation of
    the gaps of ``[i..j]`` (deviations are superadditive over a split of
    the gaps) and ``Λ`` (:func:`codec.placement_bits_bound`) bounds the
    period and offset terms of any cycle inside the log.  With ``best[i
    + 1] <= best[a] + seg(a, i)``, once ``best[i + 1]`` plus that
    increment reaches ``bj``, no start ``a <= i - 2`` can beat it: ``i -
    1`` is still priced and the scan stops.

    *Price floor.*  A cycle of ``k + 1`` occurrences whose gaps deviate
    by ``D`` costs at least ``h + (2 * k + D)``, where ``h`` is its A and
    R bits (:func:`codec.cycle_head_bits`): its period and start bits
    are logarithms of values ``>= 1``.  Float addition is monotone, so
    when ``best[i] + (h + (2 * k + D))`` is not below ``bj``, neither is
    ``best[i]`` plus the price, and the pricer is not called; the
    residual candidate is still compared.

    *Range bound.*  Let ``a0 = cut[j]``, the start of the previous row's
    last segment.  For every start ``a <= i - 1`` in the window
    ``[lo..]``::

        cand(a) >= (best[a] - 2a) + 2j + min(l + (j - i + 1)(l - 2),
                                            h + D + P)

    The residual term holds since ``j - a >= j - i + 1`` and ``l >= 2``.
    The cycle term holds since the deviation of a set of gaps only grows
    as gaps are added, so the gaps of ``[a..j]`` deviate by at least the
    ``D`` of ``[i..j]``; and since inside the window the period and
    start bits are at least ``P`` (:func:`codec.cycle_placement_floor`):
    ``v = span - (t_j - t_a) + 1 >= span - (t_j - t_lo) + 1`` and
    ``p0_max >= p >=`` the least gap.  After 8 steps without a stop, and
    then at steps growing by half while as many starts remain as were
    scanned, the scan prices ``[a0..j]`` exactly as ``U``, from the
    sorted gaps of ``[a0..j]`` (the integer upper median and deviation
    the heaps give).  That fit is carried from row to row.  When
    ``cut[j]`` moves, the gaps are sorted afresh, in ``O(w log w)`` for
    ``w = window``.  While it stays, a row adds the gaps of the rows
    since the fit was last read, each by a bisection and a list insert
    that keep the sums of the lower half and of all the gaps: ``O(log
    w)`` comparisons and a move of at most ``w`` list entries per row,
    amortized.  When the bound's least ``best[a] - 2a`` over the remaining
    starts other than ``a0`` exceeds ``min(U, bj)`` by more than ``1e-6``
    (the margin covers float rounding), none of them can win or tie:
    ``a0`` takes the row if ``U < bj``, as the full scan would, and the
    scan ends.  The least is taken by ``min()`` over slices.

    The stop rule and the range bound hold for cycles inside the window,
    so timestamps outside ``[stats.t_start, stats.t_end]`` raise
    :class:`DomainError`.  The range bound's ``l >= 2`` holds wherever
    it is tried: first at step 8 with ``i - lo >= 8``, so at row ``j >=
    16``, and seventeen distinct timestamps in the window give ``span >=
    16``, so ``l >= log2(17) > 2``.  Each rule skips only starts that
    cannot undercut the kept candidate, and the full scan replaces it
    only when undercut, so ties still go to the shortest last segment.

    Returns the runs of the optimal segmentation that are coded as
    cycles (only those strictly cheaper than leaving their occurrences
    residual), each as the tuple of its indices into ``timestamps``, in
    order.
    """
    _require_int("window", window)
    ts = list(timestamps)
    if ts and not (stats.t_start <= min(ts) and max(ts) <= stats.t_end):
        where = f"the statistics' window [{stats.t_start}, {stats.t_end}]"
        raise DomainError(f"timestamps {min(ts)} to {max(ts)} leave {where}")
    n = len(ts)
    if n < 3:
        return []
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    least_gap = min(gaps)
    if least_gap < 1:
        raise DomainError("timestamps must be strictly increasing")
    l_res = codec.residual_cost(stats, (ts[0], event))
    price = codec.cycle_pricer(stats, event)
    head = codec.cycle_head_bits(stats, event)
    lam = codec.placement_bits_bound(stats)
    heappush, heappushpop = heapq.heappush, heapq.heappushpop
    inf = math.inf
    res = [k * l_res for k in range(min(n, window) + 1)]  # k residuals' price

    # best[j] = optimal bits for the prefix ending at index j-1
    best = [0.0] * (n + 1)
    net = [0.0] * (n + 1)  # best[a] - 2 * a
    cut = [0] * (n + 1)  # start index of the last segment
    as_cycle = [False] * (n + 1)
    # The sorted gaps of [fit_a0..fit_end], carried from row to row, and
    # the sums of its lower half (its first len // 2) and of all of it.
    fit_a0, fit_end, seg, low, total = -1, 0, [], 0, 0
    for j in range(n):
        lo = max(0, j - window + 1)
        bj = best[j] + l_res  # singleton segment [j..j]
        cj, aj = j, False
        small: list[int] = []  # the k // 2 smallest gaps, negated
        large: list[int] = []  # the other k - k // 2; large[0] is the median
        sum_small = sum_large = 0
        t_j = ts[j]
        stop = -1
        test = 8  # the next step that tries the range bound
        a0 = -1  # the previous row's last start, once priced
        for i in range(j - 1, lo - 1, -1):
            x = gaps[i]
            k = j - i  # gaps in the segment [i..j], x included
            if small and x <= -small[0]:
                if k & 1:  # the smaller half is full: its largest moves up
                    y = -heappushpop(small, -x)
                    sum_small += x - y
                    heappush(large, y)
                    sum_large += y
                else:
                    heappush(small, -x)
                    sum_small += x
            elif k & 1:
                heappush(large, x)
                sum_large += x
            else:  # the smaller half is one short: the larger's least moves down
                y = heappushpop(large, x)
                sum_large += x - y
                heappush(small, -y)
                sum_small += y
            p = large[0]
            # (p * h - sum_small) + (sum_large - p * (k - h)) for h = k // 2
            dev = sum_large - sum_small - p if k & 1 else sum_large - sum_small
            cost = res[k + 1]
            b_i = best[i]
            cand_cost = b_i + cost
            cyc_cost = inf
            spread = 2 * k + dev
            if k >= 2 and b_i + (head + spread) < bj:
                t_i = ts[i]
                cyc_cost = price(k + 1, p, t_i, (t_j - t_i) - k * p, dev)
                if cyc_cost < cost:
                    cand_cost = b_i + cyc_cost
            if cand_cost < bj:
                bj = cand_cost
                cj = i
                aj = cyc_cost < cost
            if i == stop:
                break
            as_res, as_cyc = res[k], spread - lam
            if best[i + 1] + (as_res if as_res < as_cyc else as_cyc) - 1e-6 >= bj:
                stop = i - 1
            if k == test and i - lo >= k:
                test += test >> 1
                if a0 < 0:
                    a0 = cut[j]
                    if not lo <= a0 < i:  # out of the window, or already priced
                        test = n
                        continue
                    place = codec.cycle_placement_floor(stats, t_j - ts[lo], least_gap)
                    left = min(net[lo:a0], default=inf)  # the starts before a0
                    # [a0..j] priced from the carried sorted fit of its gaps
                    if a0 != fit_a0:  # cut[j] moved: fit afresh
                        fit_a0, fit_end = a0, j
                        seg = sorted(gaps[a0:j])
                        low = sum(seg[: (j - a0) >> 1])
                        total = sum(seg)
                    for x in gaps[fit_end:j]:
                        pos = bisect_right(seg, x)
                        seg.insert(pos, x)
                        total += x
                        h0 = len(seg) >> 1
                        if pos < h0:  # x joins the lower half
                            low += x - (seg[h0] if len(seg) & 1 else 0)
                        elif not len(seg) & 1:  # the lower half grows by the median
                            low += seg[h0 - 1]
                    fit_end = j
                    k0 = j - a0
                    h0 = k0 >> 1
                    p0 = seg[h0]
                    d0 = (p0 * h0 - low) + ((total - low) - p0 * (k0 - h0))
                    c0 = (k0 + 1) * l_res
                    y0 = price(k0 + 1, p0, ts[a0], (t_j - ts[a0]) - k0 * p0, d0)
                    u_cyc = y0 < c0
                    u_cost = best[a0] + (y0 if u_cyc else c0)
                ref = u_cost if u_cost < bj else bj
                as_res, as_cyc = l_res + (k + 1) * (l_res - 2.0), head + dev + place
                bound = 2 * j + (as_res if as_res < as_cyc else as_cyc) - 1e-6
                rival = min(net[a0 + 1:i], default=inf)
                if (left if left < rival else rival) + bound > ref:
                    if u_cost < bj:
                        bj, cj, aj = u_cost, a0, u_cyc
                    break
        best[j + 1] = bj
        net[j + 1] = bj - 2 * (j + 1)
        cut[j + 1] = cj
        as_cycle[j + 1] = aj

    runs = []
    j = n
    while j > 0:
        i = cut[j]
        if as_cycle[j]:
            runs.append(tuple(range(i, j)))
        j = i
    runs.reverse()
    return runs


# ---------------------------------------------------------------------------
# Stage S: triple chaining


def _chain(
    ts: Sequence[int],
    i: int,
    j: int,
    tolerance: float,
    steady: bool,
    room: Sequence[int],
) -> tuple[tuple[int, ...], bool]:
    """The chain through seed ``(i, j)``, extended both ways, and whether
    every step landed exactly on its predicted time.

    The ``m``-th step on a side goes to the occurrence nearest the
    predicted time, the earlier on a tie: ``m`` seed periods ``ts[j] -
    ts[i]`` beyond the seed (``steady``), or the chain's gap at that end
    repeated.  A step is taken only when ``abs(x) <= tolerance`` holds
    for ``x`` the occurrence's distance from the prediction and for ``x``
    the new gap less the gap next to it, and the occurrence has ``room``
    left; else the side ends.  Each side is its own loop, and each step,
    and the end of each side, is one bisection of ``ts`` made inline.
    """
    bisect, n = bisect_left, len(ts)
    t_i, t_j = ts[i], ts[j]
    period = t_j - t_i
    exact = True
    after: list[int] = []
    lo, t_b, gap, target = j + 1, t_j, period, t_j
    while True:
        target = target + period if steady else t_b + gap
        k = bisect(ts, target, lo)
        if k > lo and (k == n or target - ts[k - 1] <= ts[k] - target):
            k -= 1
        elif k == n:
            break
        t_k = ts[k]
        step = t_k - t_b
        if not (abs(t_k - target) <= tolerance and abs(step - gap) <= tolerance and room[k] > 0):
            break
        after.append(k)
        if t_k != target:
            exact = False
        lo, t_b, gap = k + 1, t_k, step
    before: list[int] = []
    hi, t_b, gap, target = i, t_i, period, t_i
    while True:
        target = target - period if steady else t_b - gap
        k = bisect(ts, target, 0, hi)
        if k > 0 and (k == hi or target - ts[k - 1] <= ts[k] - target):
            k -= 1
        elif k == hi:
            break
        t_k = ts[k]
        step = t_b - t_k
        if not (abs(t_k - target) <= tolerance and abs(step - gap) <= tolerance and room[k] > 0):
            break
        before.append(k)
        if t_k != target:
            exact = False
        hi, t_b, gap = k, t_k, step
    before.reverse()
    return (*before, i, j, *after), exact


def extract_cycles_tri(timestamps: Sequence[int], tolerance: float) -> list[tuple[int, ...]]:
    """Chain near-periodic triples of occurrences.

    Any three occurrences in a row of a chain are a triple whose two
    distances differ by at most ``tolerance``.  A chain is seeded by
    each pair ``(i, j)`` with ``0 < j - i <= G``, where ``G = max(4,
    ceil(600 / n))`` for ``n`` occurrences, so that a small event still
    sees all its pairs.  From its seed it is extended both ways, each
    step to the occurrence nearest the predicted time (:func:`_chain`),
    once at the seed's period and once at the chain's local gap: the
    first rides out a wobbled occurrence, the second follows a drifting
    period.  A seed that is already two consecutive occurrences of an
    earlier chain is skipped, since its chains are found.  Returns every
    chain of three or more occurrences as its sorted tuple of indices
    into ``timestamps``, the chains in sorted order.

    The seeds cover the whole log and a chain runs until the
    occurrences stop fitting, so the chains reach every part of the
    log, not only its start.  The work is linear in ``n``: an occurrence
    joins at most ``4 G`` chains by a step (on a periodic event it joins
    about ``2 G``, one per seed period and kind), and a side stops
    before a full one.  There are at most ``G n`` seeds of two chains
    each, the twins of one seed can coincide but two seeds' chains
    cannot, and every step, and the end of every side, is one
    ``bisect_left`` made inline in :func:`_chain`.  So at most
    ``2 G n`` chains come out, and at most ``2 (4 G n) + 4 G n = 12 G
    n`` lookups are made: ``8 n`` and ``48 n`` once ``n >= 150``.

    A steady walk whose every step lands exactly on its predicted time
    is the local-gap walk from its seed too: the two predict the same
    time at every step, so they take the same steps and stop at the same
    place, and a stop tests ``room`` only beyond the chain's ends.  The
    second walk is skipped then, and makes no lookups, unless the steady
    chain was just added and used up the ``room`` of one of its members
    past the seed; then it runs and may stop there.  On a strictly
    periodic event this skips nearly every second walk.

    A NaN ``tolerance`` raises :class:`DomainError`: every comparison
    with it is false, so no rule could say what it admits.
    """
    if math.isnan(tolerance):
        raise DomainError(f"tolerance must be a number, got {tolerance!r}")
    ts = list(timestamps)
    n = len(ts)
    if n < 3:
        return []
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("timestamps must be strictly increasing")
    if tolerance < 0:
        return []
    reach = max(4, -(-600 // n))
    room = [4 * reach] * n
    linked: set[tuple[int, int]] = set()
    chains: set[tuple[int, ...]] = set()
    for i in range(n - 1):
        for j in range(i + 1, min(n, i + reach + 1)):
            if (i, j) in linked:
                continue
            for steady in (True, False):
                chain, exact = _chain(ts, i, j, tolerance, steady, room)
                added = len(chain) >= 3 and chain not in chains
                if added:
                    chains.add(chain)
                    linked.update(zip(chain, chain[1:]))
                    for k in chain:
                        room[k] -= 1
                if not exact:
                    continue
                if added and any(room[k] <= 0 for k in chain if k != i and k != j):
                    continue  # the local-gap walk may stop at the spent member
                break  # the local-gap walk would retrace this one
    return sorted(chains)


# ---------------------------------------------------------------------------
# Candidate pruning


def _within_k(keys: Sequence, covers: Sequence[int], k: int) -> set[int]:
    """Indices whose key is within the ``k`` smallest for some occurrence
    their cover holds; keys equal to the ``k``-th smallest count too.

    That is, some occurrence of the cover has fewer than ``k`` strictly
    smaller keys: the indices are walked in key order, a group of equal
    keys at a time, counting per occurrence the covers of the groups
    before.  The counts are bit-sliced: ``at_least[j]`` holds the
    occurrences counted more than ``j`` times, a cover adds one to its
    occurrences' counts as a carry rippling up the slices, and it is kept
    when it holds an occurrence outside the last slice.  No count reaches
    the number of covers, so no more slices are kept.
    """
    at_least = [0] * min(k, len(keys))
    keep: set[int] = set()
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for _, group in groupby(order, key=keys.__getitem__):
        group = list(group)
        full = at_least[-1]
        keep.update(i for i in group if covers[i] & ~full)
        for i in group:
            carry = covers[i]
            for j, counted in enumerate(at_least):
                at_least[j] = counted | carry
                carry &= counted
                if not carry:
                    break
    return keep


def filter_candidates(candidates: Sequence[Candidate], k: int) -> list[Candidate]:
    """Keep candidates among the k most efficient for some occurrence.

    Duplicate patterns count once.  For every covered occurrence the
    ``k`` best candidates by :attr:`Candidate.rank`, ``(efficiency,
    cost, tau, bits)``, are retained, and candidates whose rank equals
    the ``k``-th best's too; a candidate survives if it is retained for
    at least one occurrence.  The survivors come in rank order, equal
    ranks in the order given.  The candidates must share one
    :class:`Numbering`, or :class:`DomainError` is raised.
    """
    _require_int("k", k)
    if candidates:
        _numbering(candidates)
    cands = _dedupe(candidates)
    keys = [c.rank for c in cands]
    kept = _within_k(keys, [c.bits for c in cands], k)
    return [cands[i] for i in sorted(kept, key=lambda i: (keys[i], i))]


def _grow(provenance: str, parts) -> Pattern:
    """The pattern a priced candidate's recipe describes: the cycle
    fitted to a stage-S chain's ``(timestamps, event)``, or the growth of
    the member patterns that ``provenance`` names.  A factorized merge's
    members are in :func:`grow_horizontally`'s order, and it is built
    from its layout once."""
    if provenance == "vertical":
        return grow_vertically(parts)
    if provenance == "horizontal":
        return grow_horizontally(parts)
    if provenance == "factorized":
        return build_merge(factor_layout(concat_layout(parts)), parts)
    return fit_cycle(*parts)


def _build_survivors(
    winners: Sequence[tuple[float, int, int, tuple[str, object]]],
    k: int,
    numbering: Numbering,
) -> list[Candidate]:
    """The one build site: candidates priced before they are built,
    given as ``(cost, cover, tau, (provenance, parts))`` with their
    covers over ``numbering``, pruned to width ``k``.

    An entry's cost, cover and start give the rank its candidate will
    have (:attr:`Candidate.rank`).  Only the winners whose rank is
    within the ``k`` smallest for some occurrence they cover are built
    (:func:`_grow`).  Equal entries count once, as the one pattern they
    may build does, and the distinct patterns of one rank are all kept,
    so every candidate that ``filter_candidates(k)`` keeps is among
    them.  Each candidate carries the cost and cover it was priced with;
    the result is ``filter_candidates`` of what was built.
    """
    groups = list(dict.fromkeys(entry[:3] for entry in winners))
    keys = [(cost / cover.bit_count(), cost, tau, cover) for cost, cover, tau in groups]
    kept = {groups[i] for i in _within_k(keys, [g[1] for g in groups], k)}
    out = [
        Candidate(_grow(provenance, parts), cover, cost, provenance, numbering)
        for cost, cover, tau, (provenance, parts) in winners
        if (cost, cover, tau) in kept
    ]
    return filter_candidates(out, k)


# ---------------------------------------------------------------------------
# Combination rounds


def combine_vertically(
    new: Sequence[Candidate], pool: Sequence[Candidate], k: int
) -> list[Candidate]:
    """Nest groups of same-tree candidates with periodic starting points.

    For each distinct tree among the new candidates, in the order they
    first show it, the starting points of all candidates over that tree
    (new and pooled, the cheapest at each start, then the least cover)
    are themselves mined for near-periodic chains; each chain's members
    are nested under an outer cycle.  A pattern transmits each occurrence once, so a chain
    whose members share an occurrence is skipped unpriced.  A nesting is
    priced in closed form from its members' reads (:func:`_nest_cost`)
    by its tree's :func:`codec.nest_pricer`, built once per tree, and
    kept when it is cheaper than the summed cost of the members it
    replaces; no root block is built to price it.  The build site
    (:func:`_build_survivors`) builds those that can survive pruning.
    The candidates must share one :class:`Numbering`, whose statistics
    price them, or :class:`DomainError` is raised.
    """
    _require_int("k", k)
    if not new:
        return []
    cands = [*new, *pool]
    numbering = _numbering(cands)
    by_tree: dict[Block, list[Candidate]] = {}
    for c in cands:
        by_tree.setdefault(c.pattern.tree, []).append(c)

    winners: list[tuple[float, int, int, tuple]] = []
    for tree in dict.fromkeys(c.pattern.tree for c in new):
        by_tau: dict[int, Candidate] = {}
        for c in by_tree[tree]:
            prev = by_tau.get(c.tau)
            if prev is None or (c.cost, c.bits) < (prev.cost, prev.bits):
                by_tau[c.tau] = c
        if len(by_tau) < 3:
            continue
        taus = sorted(by_tau)
        zero = Pattern(tree=tree, tau=taus[0], corrections=(0,) * (tree.count - 1))
        try:
            l_max = codec.pattern_cost(zero, numbering.stats).total
        except UncodablePatternError:
            continue
        nest_price = codec.nest_pricer(numbering.stats, tree)
        for chain in extract_cycles_tri(taus, l_max):
            members = [by_tau[taus[i]] for i in chain]
            cover = reduce(or_, (c.bits for c in members))
            if cover.bit_count() < sum(c.pattern.tree.count for c in members):
                continue  # the members share an occurrence
            cost = _nest_cost(nest_price, members)
            if cost >= codec.add_bits(c.cost for c in members):
                continue
            recipe = ("vertical", [c.pattern for c in members])
            winners.append((cost, cover, members[0].tau, recipe))
    return _build_survivors(winners, k, numbering)


def maximal_cliques(adj: Mapping[int, set[int]], nodes: set[int]) -> list[tuple[int, ...]]:
    """All maximal cliques among ``nodes``, a union of components of a
    small symmetric graph, sorted: Bron–Kerbosch with pivoting.  A graph
    has one set of maximal cliques, so the pivot choice only decides how
    fast they are found."""
    cliques: list[tuple[int, ...]] = []
    if nodes:
        _extend_cliques(adj, set(), set(nodes), set(), cliques)
    cliques.sort()
    return cliques


def _extend_cliques(
    adj: Mapping[int, set[int]], r: set[int], p: set[int], x: set[int], cliques: list
) -> None:
    """Append each maximal clique of ``r`` and nodes of ``p`` that no node
    of ``x`` extends; a closure would hold ``adj`` in a reference cycle."""
    if not p and not x:
        cliques.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
    for v in sorted(p - adj[pivot]):
        _extend_cliques(adj, r | {v}, p & adj[v], x & adj[v], cliques)
        p = p - {v}
        x = x | {v}


def _greedy_clique_cover(adj: Mapping[int, set[int]], nodes: set[int]) -> list[tuple[int, ...]]:
    """Cover an oversized component with disjoint greedy cliques."""
    unused = set(nodes)
    cliques = []
    while unused:
        seed = min(unused, key=lambda v: (-len(adj[v] & unused), v))
        clique = {seed}
        for v in sorted(unused - {seed}):
            if all(v in adj[u] for u in clique):
                clique.add(v)
        cliques.append(tuple(sorted(clique)))
        unused -= clique
    return cliques


def _components(adj: Mapping[int, set[int]], nodes: Iterable[int]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for v in sorted(nodes):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _kept(members: Sequence[Candidate], r: int) -> int:
    """Cover of the members' first ``r`` repetitions: the cover of their
    merge."""
    return reduce(or_, [c.kept(r) for c in members])


def _nest_cost(price: Callable[..., float], members: Sequence[Candidate]) -> float:
    """Price of nesting the members, which share one tree, are numbered
    over one log, list no occurrence twice and are in start order, under
    an outer cycle (:func:`grow_vertically`), from their reads alone,
    by their tree's :func:`codec.nest_pricer` ``price``.

    Root repetition ``k`` is member ``k``, and every occurrence keeps its
    corrected time, so its offset is its member's plus the fitted start
    corrections of the first ``k`` repetitions: those are the only new
    corrections.
    """
    p, starts = fit_period([c.tau for c in members])
    return price(
        len(members),
        p,
        members[0].tau,
        sum(starts),
        members[-1].pattern.offsets,
        sum(c.running[c.pattern.tree.r] for c in members) + sum(map(abs, starts)),
    )


def combine_horizontally(
    new: Sequence[Candidate], pool: Sequence[Candidate], k: int
) -> list[Candidate]:
    """Concatenate co-periodic candidates that start close to each other.

    Pairs (at least one new) whose later start falls within one root
    period of the earlier and whose root periods agree within the later
    member's boundary-correction slack are merged; a merged pair is kept
    when it scores better than the two members side by side.  Groups
    that pass pairwise merging for every pair are merged whole, one per
    maximal clique of the pairwise-success graph.  A merge whose kept
    occurrences would list one twice is never priced, so its members are
    not adjacent; a clique's members are then pairwise disjoint at the
    clique's length.

    Every merge is priced exactly, in closed form, from its members'
    reads, a pair's before it is kept; no root block or layout is
    built to price it.  A merge of one-leaf cycles is priced from the
    cycles' parameters (:func:`codec.cycle_merge_pricer`): its members
    are in start order, so :func:`concat_layout` could not refuse them,
    and its leaves cannot factorize.  Any other merge is priced by
    :func:`codec.merge_pricer`, which refuses it, as
    :func:`concat_layout` would, when a connecting distance is negative;
    a pair whose merge can factorize is priced factorized too, and the
    cheaper form strictly wins.  The build site
    (:func:`_build_survivors`) builds, in their priced form, the merges
    that can survive pruning, and only there is a merge laid out.  The
    result is what building every merge and then pruning gives.  The
    candidates are as in :func:`combine_vertically`.
    """
    _require_int("k", k)
    if not new:
        return []
    merged = [*new, *pool]
    numbering = _numbering(merged)
    new_patterns = {c.pattern for c in new}
    cands = sorted(merged, key=lambda c: (c.tau, c.bits))
    taus = [c.tau for c in cands]
    periods = [c.pattern.tree.p for c in cands]
    lengths = [c.pattern.tree.r for c in cands]
    fresh = [i for i, c in enumerate(cands) if c.pattern in new_patterns]
    is_new = set(fresh)
    cycle_merge_price = codec.cycle_merge_pricer(numbering.stats)
    merge_price = codec.merge_pricer(numbering.stats)

    def price(fs: list[Candidate]) -> tuple | None:
        """The winner entry of merging the members: priced factorized
        when that is strictly cheaper; None, unpriced, when the merge
        would list an occurrence twice.  The merge keeps the members'
        least length."""
        r = min(c.pattern.tree.r for c in fs)
        cover = _kept(fs, r)
        if cover.bit_count() < sum(r * c.per for c in fs):
            return None
        cycles = [c.cycle for c in fs]
        if None not in cycles:
            cost, provenance = cycle_merge_price(cycles), "horizontal"
        else:
            cost, provenance = merge_price(fs), "horizontal"
            if cost == math.inf:
                return None  # a negative connecting distance
            if (alt := merge_price(fs, True)) < cost:
                cost, provenance = alt, "factorized"
        return cost, cover, fs[0].tau, (provenance, [c.pattern for c in fs])

    # Pair merges that beat their members, then clique merges.
    # ``cands`` is sorted by (tau, bits), and grow_horizontally sorts
    # stably by tau alone, so every merge is built in its priced order.
    winners: list[tuple[float, int, int, tuple]] = []
    adj: dict[int, set[int]] = {i: set() for i in range(len(cands))}
    for ia, a in enumerate(cands):
        p_a, r_a = periods[ia], lengths[ia]
        hi = bisect_right(taus, a.tau + p_a)
        if ia in is_new:
            partners: Iterable[int] = range(ia + 1, hi)
        else:
            partners = fresh[bisect_right(fresh, ia) : bisect_left(fresh, hi)]
        for ib in partners:
            r = r_a if r_a < lengths[ib] else lengths[ib]
            b = cands[ib]
            if abs(p_a - periods[ib]) > 2.0 * b.slack / (r * (r - 1)):
                continue
            priced = price([a, b])
            if priced is None:
                continue
            cost, cover, _, _ = priced
            total = cost
            if r_a != lengths[ib]:  # only then are occurrences left out
                left_out = (a.bits | b.bits) & ~cover
                total += codec.residual_bits(numbering.stats, numbering.labels(left_out))
            if total < a.cost + b.cost:
                winners.append(priced)
                adj[ia].add(ib)
                adj[ib].add(ia)

    # ``adj`` is symmetric, so each component holds all its nodes' neighbours.
    for comp in _components(adj, [v for v, ns in adj.items() if ns]):
        if len(comp) <= _CLIQUE_NODE_CAP:
            cliques = maximal_cliques(adj, comp)
        else:
            cliques = _greedy_clique_cover(adj, comp)
        for clique in cliques:
            if len(clique) >= 3 and (priced := price([cands[i] for i in clique])):
                winners.append(priced)
    return _build_survivors(winners, k, numbering)


# ---------------------------------------------------------------------------
# Selection


@dataclass(frozen=True)
class Selection:
    """A chosen pattern collection over the log that ``numbering``
    numbers.  Its :attr:`residuals`, its :attr:`total_bits` and its
    :attr:`report` (:func:`codec.collection_cost`) are derived on first
    read and kept.
    """

    candidates: tuple[Candidate, ...]
    numbering: Numbering = field(repr=False, compare=False)

    @cached_property
    def residuals(self) -> tuple[tuple[int, str], ...]:
        """What the candidates leave uncovered, in ``(t, label)`` order."""
        return self.numbering.rest(reduce(or_, (c.bits for c in self.candidates), 0))

    @cached_property
    def report(self) -> CollectionReport:
        patterns = [c.pattern for c in self.candidates]
        return codec.collection_cost(patterns, self.numbering.seq, self.numbering.stats)

    @cached_property
    def total_bits(self) -> float:
        """The candidates' costs plus the residuals they leave, added as
        :func:`codec.collection_cost` adds them.  A mined candidate's cost
        is its pattern's price bit for bit, so for mined candidates this
        is ``report.total_bits``, read without pricing a pattern."""
        numbering = self.numbering
        held = numbering.labels(reduce(or_, (c.bits for c in self.candidates), 0))
        counts = numbering.stats.counts
        left = {e: n - h for e, n in counts.items() if (h := held.get(e, 0)) < n}
        return codec.collection_bits((c.cost for c in self.candidates), numbering.stats, left)[2]


def greedy_cover(pool: Sequence[Candidate], numbering: Numbering) -> Selection:
    """Pick patterns by bits per newly covered occurrence, from a pool
    numbered by ``numbering``; raises :class:`DomainError` when a
    candidate carries another numbering.

    Repeatedly selects the candidate minimizing ``((cost / gain, cost,
    tau, bits), index)``, where the gain is its count of newly covered
    occurrences and the index its place in ``pool``, as long as it beats
    leaving those occurrences residual; stops at the first rejection.
    Distinct patterns can share a cost, a start and a cover, and the
    index breaks their ties.

    The scan is lazy (Minoux's accelerated greedy): gains only shrink as
    the cover grows, so a heap entry computed earlier is a lower bound
    on the candidate's entry now.  Only the top is re-scored; it is
    picked when its fresh entry still does not exceed the next entry in
    the heap, and dropped at gain 0.  Each entry holds its own index, so
    no two are equal, and costs are positive: the picks are exactly
    those of re-scoring every candidate each time.  A duplicate pattern
    gains nothing once its first copy is picked.
    """
    stats = _numbering(pool, numbering).stats
    heap = [(c.rank, i) for i, c in enumerate(pool)]
    heapq.heapify(heap)
    covered = 0
    chosen: list[Candidate] = []
    while heap:
        _, idx = heapq.heappop(heap)
        best = pool[idx]
        new = best.bits & ~covered
        if not new:
            continue
        entry = ((best.cost / new.bit_count(), best.cost, best.tau, best.bits), idx)
        if heap and heap[0] < entry:
            heapq.heappush(heap, entry)
            continue
        if best.cost < codec.residual_bits(stats, numbering.labels(new)):
            chosen.append(best)
            covered |= best.bits
        else:
            break
    return Selection(tuple(chosen), numbering)


# ---------------------------------------------------------------------------
# Full pipeline


_STAGE_ORDER = ("S", "F", "single")


@dataclass(frozen=True)
class MineResult:
    """Everything the mining run produced: ``stages`` maps each stage
    that competed (``S``, ``F``, ``single``; see :func:`mine`), in tie
    order, to its selection, and ``selection`` is stage ``winner``'s."""

    selection: Selection
    winner: str
    stages: Mapping[str, Selection]
    pool: tuple[Candidate, ...]
    wall_clock_s: Mapping[str, float]

    @property
    def pool_size(self) -> int:
        return len(self.pool)

    def to_dict(self) -> dict:
        return {
            "winner": self.winner,
            "pool_size": self.pool_size,
            "stages": {name: sel.report.to_dict() for name, sel in self.stages.items()},
            "report": self.selection.report.to_dict(),
            "wall_clock_s": dict(self.wall_clock_s),
        }


def _stage_one_event(
    event: str, numbering: Numbering
) -> list[tuple[float, int, int, tuple[str, object]]]:
    """Stage-S winners of one event, as :func:`_build_survivors` entries.

    The ``dp`` then ``tri`` chains, deduplicated by their occurrence
    indices, are priced by the event's :func:`codec.cycle_pricer` from
    their sorted gaps, with no corrections tuple: the period is the
    upper median gap (:func:`fit_period`'s), and the corrections'
    magnitudes sum to the gaps' absolute deviation from it, the chain's
    reach less twice the ``m = (r - 1) // 2`` smallest gaps less ``p (r
    - 1 - 2 m)``: one sort and one C-level sum per chain.  Each chain is
    codable, as its occurrences are the log's (:func:`codec._placed`).
    A chain's cover ORs its occurrences' bits in ``numbering``, made
    once per event.  The cover is the chain, so no two entries share a
    rank (:attr:`Candidate.rank`), and ties between chains break on
    their starts and covers, before any cycle is fitted.
    """
    stats = numbering.stats
    ts = numbering.seq.per_event[event]
    chains = dict.fromkeys(extract_cycles_dp(ts, event, stats), "dp")
    for chain in extract_cycles_tri(ts, codec.extension_margin(stats)):
        chains.setdefault(chain, "tri")
    price = codec.cycle_pricer(stats, event)
    index = numbering.index
    bit = [1 << index[t, event] for t in ts]
    winners = []
    for chain, provenance in chains.items():
        times = [ts[i] for i in chain]
        r, tau = len(times), times[0]
        gaps = sorted(map(sub, times[1:], times))
        m = (r - 1) // 2
        p, reach = gaps[m], times[-1] - tau
        deviation = reach - 2 * sum(gaps[:m]) - p * (r - 1 - 2 * m)
        cost = price(r, p, tau, reach - (r - 1) * p, deviation)
        cover = reduce(or_, map(bit.__getitem__, chain))
        winners.append((cost, cover, tau, (provenance, (times, event))))
    return winners


def extract_cycles(numbering: Numbering, config: MiningConfig | None = None) -> list[Candidate]:
    """Stage one: per-event cycle candidates of the log that
    ``numbering`` numbers, priced under its statistics, pruned to width
    ``config.k``, their covers over ``numbering``.

    A :class:`Numbering` holds only statistics that describe its log, so
    statistics over a window that cuts the log are refused when the
    numbering is built.  Each event is mined on its own
    (:func:`_stage_one_event`), one after another in the caller's thread
    in ``alphabet`` order, and all their winners go to the build site
    (:func:`_build_survivors`) in one call.
    """
    cfg = config or MiningConfig()
    winners = [w for e in numbering.seq.alphabet for w in _stage_one_event(e, numbering)]
    return _build_survivors(winners, cfg.k, numbering)


def mine(seq: EventSequence, config: MiningConfig | None = None) -> MineResult:
    """Run the full pipeline and return the best collection found.

    Three stages compete, and the cheapest wins, ties going to the
    earlier of ``S``, ``F`` and ``single``: a greedy cover of the cycles
    (``S``), a greedy cover of the final pool (``F``) and the cheapest
    single candidate of that pool (``single``).  Greedy selection carries
    no optimality guarantee, and ``S`` and ``single`` each beat ``F`` on
    some logs.  With ``max_rounds`` 0 there is no ``F``, and with an
    empty pool no ``single``.
    """
    cfg = config or MiningConfig()
    clocks: dict[str, float] = {}

    t0 = perf_counter()
    numbering = Numbering(seq, SeqStats.from_sequence(seq))
    initial = extract_cycles(numbering, cfg)
    clocks["extract"] = perf_counter() - t0

    # Each round grows its new candidates against the pool before them,
    # ``final_pool[:old]``.  Round 0's new candidates for both kinds of
    # growth are ``initial``, and a growth whose pattern is in the pool
    # already is not new.
    t0 = perf_counter()
    final_pool = list(initial)
    seen = {c.pattern for c in initial}
    v_in = h_in = initial
    old = 0
    for _ in range(cfg.max_rounds):
        if not v_in and not h_in:
            break
        v_new = combine_vertically(h_in, final_pool[:old], cfg.k)
        h_new = combine_horizontally(v_in, final_pool[:old], cfg.k)
        old = len(final_pool)
        v_in = [c for c in v_new if c.pattern not in seen]
        seen.update(c.pattern for c in v_in)
        h_in = [c for c in h_new if c.pattern not in seen]
        seen.update(c.pattern for c in h_in)
        final_pool += v_in + h_in
    clocks["combine"] = perf_counter() - t0

    t0 = perf_counter()
    stages = {"S": greedy_cover(initial, numbering)}
    if cfg.max_rounds:
        stages["F"] = greedy_cover(final_pool, numbering)
    if final_pool:
        stages["single"] = min(
            (Selection((c,), numbering) for c in final_pool),
            key=lambda sel: (sel.total_bits, sel.candidates[0].rank),
        )

    # Each stage's total is its report's total_bits, and no report is
    # priced here; ties go to the earlier stage.
    winner = min((n for n in _STAGE_ORDER if n in stages), key=lambda n: stages[n].total_bits)
    clocks["select"] = perf_counter() - t0
    clocks["total"] = clocks["extract"] + clocks["combine"] + clocks["select"]

    return MineResult(
        selection=stages[winner],
        winner=winner,
        stages=stages,
        pool=tuple(final_pool),
        wall_clock_s=clocks,
    )
