"""Code lengths for patterns, residuals and pattern collections.

Everything is measured in bits (base-2 logarithms).  A collection of
patterns plus leftover individual occurrences encodes an event sequence;
shorter total code length means a better summary.  The encoder needs a
few statistics of the enclosing sequence (length, time span, per-event
counts), bundled in :class:`SeqStats` so callers can score against an
explicit context.

A pattern's cost has six parts:

* ``A``     the tree layout and its leaf events,
* ``R``     the repetition counts of the interior blocks,
* ``p0``    the root period,
* ``D``     the inter-block distances and interior periods,
* ``tau``   the starting point,
* ``E``     the correction list.

``p0``, ``tau`` and every entry of ``D`` are coded with just enough bits
for the range of values the decoder can still expect at that point, so
their costs depend on the already-transmitted parts.  A pattern whose
parameters fall outside those ranges cannot be transmitted at all and
raises :class:`UncodablePatternError`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import add, sub
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    DomainError,
    EventSequence,
    UncodablePatternError,
    log2,
)
from .pattern import (
    Block,
    Leaf,
    Node,
    Pattern,
    classify_tree,
    corrected_times,
    expand_tree,  # unused here; perfbench's tracer test looks it up on codec
    format_pattern,
    is_simple,
)

_LOG3 = math.log2(3.0)  # one symbol out of three: a bracket, or a leaf


# ---------------------------------------------------------------------------
# Sequence statistics


@dataclass(frozen=True)
class SeqStats:
    """The facts about a sequence that the encoder depends on."""

    length: int
    t_start: int
    t_end: int
    counts: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise DomainError("statistics need at least one occurrence")
        if self.t_end < self.t_start:
            raise DomainError("t_end must be >= t_start")
        if sum(self.counts.values()) != self.length:
            raise DomainError("event counts must sum to the sequence length")
        if any(c < 1 for c in self.counts.values()):
            raise DomainError("event counts must be positive")

    @property
    def span(self) -> int:
        return self.t_end - self.t_start

    @classmethod
    def from_sequence(
        cls,
        seq: EventSequence,
        t_start: int | None = None,
        t_end: int | None = None,
    ) -> "SeqStats":
        """Statistics of a sequence, optionally in a wider time window."""
        start = seq.t_start if t_start is None else t_start
        end = seq.t_end if t_end is None else t_end
        if start > seq.t_start or end < seq.t_end:
            raise DomainError(
                f"the time window [{start}, {end}] must contain all occurrences, "
                f"{seq.t_start} to {seq.t_end}"
            )
        counts = {e: len(ts) for e, ts in seq.per_event.items()}
        return cls(length=len(seq), t_start=start, t_end=end, counts=counts)


# ---------------------------------------------------------------------------
# Residuals and corrections


def residual_cost(stats: SeqStats, occurrence: tuple[int, str]) -> float:
    """Bits to transmit one occurrence on its own.

    A timestamp out of ``span + 1`` possibilities plus the event under
    its empirical frequency.
    """
    _, event = occurrence
    count = stats.counts.get(event)
    if count is None:
        raise DomainError(f"unknown event {event!r}")
    return log2(stats.span + 1) + log2(stats.length / count)


def add_bits(values: Iterable[float]) -> float:
    """The values added left to right from ``0.0``, the one way the
    package adds bits: unlike ``sum()``, which compensates rounding from
    Python 3.12 on, it gives the same float on every supported version."""
    total = 0.0
    for value in values:
        total += value
    return total


def residual_bits(stats: SeqStats, labels: Mapping[str, int]) -> float:
    """Bits to transmit ``labels[e]`` occurrences of each event ``e`` on
    their own.

    A residual's price depends only on its event, so this is one product
    per event, added in sorted event order: the total is the same in
    every process, whatever order the caller's mapping or set was in.
    """
    return add_bits(
        n * residual_cost(stats, (stats.t_start, event))
        for event, n in sorted(labels.items())
    )


def _correction_bits(entries: int, magnitude: int) -> float:
    """Two bits per correction plus the summed magnitudes, added as one
    integer."""
    return float(2 * entries + magnitude)


def corrections_cost(corrections: Sequence[int]) -> float:
    """Bits for a correction list: two bits per entry plus its magnitude."""
    return _correction_bits(len(corrections), sum(abs(e) for e in corrections))


# ---------------------------------------------------------------------------
# Pattern cost


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component bits of one pattern's code."""

    A: float
    R: float
    p0: float
    D: float
    tau: float
    E: float

    @property
    def total(self) -> float:
        return self.A + self.R + self.p0 + self.D + self.tau + self.E

    def to_dict(self) -> dict[str, float]:
        return {
            "A": self.A,
            "R": self.R,
            "p0": self.p0,
            "D": self.D,
            "tau": self.tau,
            "E": self.E,
            "total": self.total,
        }


def _leaf_bits(stats: SeqStats, event: str) -> tuple[float, int]:
    """A leaf's event code and the event's count."""
    count = stats.counts.get(event)
    if count is None:
        raise DomainError(f"unknown event {event!r}")
    return log2(3.0 * stats.length / count), count


Terms = tuple[float, float, int]


def block_terms(r: int, terms: Sequence[Terms]) -> Terms:
    """Layout bits, repetition bits and rarest event count of a block of
    length ``r`` from its children's, in order.  A block costs one
    bracket pair plus its children's layout, and codes its length out of
    its rarest event's count, then adds its children's repetition bits
    in order (a leaf's 0.0 leaves the sum as it is)."""
    rarest = min([count for _, _, count in terms])
    if r > rarest:
        raise UncodablePatternError(
            f"block repeats {r} times but its rarest event "
            f"occurs only {rarest} times"
        )
    layout, repetitions = 0.0, log2(rarest)
    for a, b, _ in terms:
        layout += a
        repetitions += b
    return 2.0 * _LOG3 + layout, repetitions, rarest


def _tree_bits(node: Node, stats: SeqStats) -> Terms:
    """Layout bits, repetition bits and rarest event count of a subtree,
    in one post-order walk (:func:`block_terms`)."""
    if isinstance(node, Leaf):
        bits, count = _leaf_bits(stats, node.event)
        return bits, 0.0, count
    return block_terms(node.r, [_tree_bits(child, stats) for child in node.children])


def child_terms(tree: Block, stats: SeqStats) -> tuple[Terms, ...]:
    """Layout bits, repetition bits and rarest event count of each of a
    block's children, the parts a merge's layout and repetition bits are
    summed from.  Raises :class:`UncodablePatternError` when a child
    block repeats more often than its rarest event occurs."""
    return tuple(_tree_bits(child, stats) for child in tree.children)


def _distance_and_period_bits(block: Block, width: int, interleaved: bool) -> float:
    """Bits for a block's child distances and interior-child periods.

    ``width`` is the time available for one repetition's content.  Each
    inter-block distance takes ``log2(width + 1)`` bits; each interior
    child gets a time-span budget derived from ``width`` and the
    distances, then codes its period and recurses.
    """
    distances = block.distances
    bits = 0.0
    if len(distances) > 1:
        if max(distances) > width:
            raise UncodablePatternError(
                f"inter-block distance {max(distances)} exceeds the width budget {width}"
            )
        step = log2(width + 1)
        for _ in distances[1:]:
            bits += step
    last = len(block.children) - 1
    offset = 0
    for i, child in enumerate(block.children):
        offset += distances[i]
        if isinstance(child, Leaf):
            continue
        if interleaved or i == last:
            tspan = width - offset
        else:
            tspan = distances[i + 1]
        bits += _block_bits(child, tspan, interleaved)
    return bits


def _block_bits(block: Block, tspan: int, interleaved: bool) -> float:
    """Bits for an interior block's period and its own content."""
    if tspan < block.r - 1:
        raise UncodablePatternError(
            f"time span {tspan} cannot hold {block.r} repetitions"
        )
    p_max = tspan // (block.r - 1)
    if block.p > p_max:
        raise UncodablePatternError(
            f"period {block.p} exceeds the largest transmittable value {p_max}"
        )
    bits = log2(p_max)
    if interleaved:
        width = tspan - block.r + 1
    else:
        width = min(block.p, tspan // block.r)
    return bits + _distance_and_period_bits(block, width, interleaved)


def _root_ranges(
    stats: SeqStats, r: int, p: int, tau: int, start_offset: int
) -> tuple[int, int] | None:
    """How many values the root period and the start are coded out of,
    ``(p0_max, v)``, or None when either is out of range.  With ``p >=
    1``, ``p <= p0_max`` implies ``numer >= r - 1`` and ``v >= 1``."""
    numer = stats.span - start_offset
    p0_max = numer // (r - 1)
    v = numer - (r - 1) * p + 1
    if p > p0_max or not stats.t_start <= tau < stats.t_start + v:
        return None
    return p0_max, v


def placement_bits_bound(stats: SeqStats) -> float:
    """Upper bound on the root period's plus the start's bits of any
    pattern inside the window: ``p0_max <= span`` and ``v <= span + 1``."""
    return log2(stats.span) + log2(stats.span + 1)


def cycle_placement_floor(stats: SeqStats, reach: int, least_gap: int) -> float:
    """Lower bound on the root period's plus the start's bits of a fitted
    cycle inside the window whose first and last occurrences lie at most
    ``reach`` apart and whose gaps are all at least ``least_gap >= 1``.

    A fitted cycle's period is the median of its gaps, and inside the
    window ``p0_max = p + (span - (last - first)) // (r - 1) >= p >=
    least_gap`` and ``v = span - (last - first) + 1 >= span - reach + 1``.
    """
    return log2(least_gap) + log2(stats.span - reach + 1)


def _placed(
    root: Block,
    tau: int,
    stats: SeqStats,
    *,
    terms: Sequence[Terms],
    last_offset: Callable[[int], int],
    abs_corrections: int,
) -> tuple[float, float, float, float, float, float]:
    """The one sequence of encoder terms: the bits of a block started at
    ``tau``, in :class:`CostBreakdown`'s order, from :func:`block_cost`'s
    arguments.  The root's layout and repetition bits are its direct
    children's ``terms`` folded by :func:`block_terms`.

    Where one repetition lies is the root's ``placement``.  The root
    period and the start are coded against the last repetition's first
    occurrence, and the distances against where the decoder knows that
    repetition's content ends: its last occurrence, or, when the root
    interleaves, the one with the smallest offset among those whose
    leaf is its parent's right-most child.  :func:`pattern_cost` and
    :func:`block_cost` price through this alone, so they price bit for
    bit alike.  Raises :class:`UncodablePatternError` when a term is out
    of range.

    Theorem: it raises nothing for a root whose corrected occurrences
    are distinct occurrences of the log that ``stats`` counts, all inside
    the window.  Write ``T(i)`` for the corrected time of occurrence ``i``
    of the last repetition, ``tau + (r - 1) p + t_i + last_offset(i)``:

    * R: each of a block's ``r`` repetitions holds its own occurrence of
      the block's rarest event, so ``r`` is at most that event's count.
    * ``p0`` and ``tau``: ``p <= p0_max`` is ``T(0) - tau <= span`` and
      ``tau < t_start + v`` is ``T(0) <= t_end``, as ``tau`` and ``T(0)``
      lie inside the window.
    * The root's width: ``width <= max_width`` follows from ``T(i) <=
      t_end`` for an ``i`` at ``t_i = width`` with ``last_offset(i) >=
      end_offset``.  In order, that is the last occurrence.
      Interleaved, take the last child that ends at the width: a leaf is
      then the last child, as offsets grow along the children, and a
      block's last repetition holds one of its own ``last_right`` at its
      width, by induction; :func:`place` adds both to ``last_right``.
    * Distances: they sum to the last child's offset, at most the width.
    * Inner blocks, by induction in both modes: a child's span ``(r_c -
      1) p_c + w_c`` fits its ``tspan``, the width left after its offset
      or, in order, the distance to the next child, which starts after
      it ends; so ``p_c <= p_max``, and the width passed down is at least
      ``w_c``, as ``p_c >= 1`` and in order ``w_c <= p_c``.

    So every candidate mined from a log, and every merge or nesting of
    them that lists each occurrence once, is codable.
    """
    bits_a, bits_r, _ = block_terms(root.r, terms)
    ranges = _root_ranges(stats, root.r, root.p, tau, last_offset(0))
    if ranges is None:
        raise UncodablePatternError(
            f"root period {root.p} or starting point {tau} out of range"
        )
    bits_p0, bits_tau = log2(ranges[0]), log2(ranges[1])

    width, interleaved, last_right, size = root.placement
    if is_simple(root):
        bits_d = 0.0
    else:
        if interleaved:
            end_offset = min(map(last_offset, last_right))
        else:
            end_offset = last_offset(size - 1)
        max_width = stats.t_end - tau - end_offset - (root.r - 1) * root.p
        if width > max_width:
            raise UncodablePatternError(
                f"repetition width {width} outside [0, {max_width}]"
            )
        bits_d = log2(max_width + 1)
        bits_d += _distance_and_period_bits(root, width, interleaved)

    bits_e = _correction_bits(root.r * size - 1, abs_corrections)
    return bits_a, bits_r, bits_p0, bits_d, bits_tau, bits_e


def block_cost(
    root: Block,
    tau: int,
    stats: SeqStats,
    *,
    terms: Sequence[Terms],
    last_offset: Callable[[int], int],
    abs_corrections: int,
) -> float:
    """Bits to transmit a block started at ``tau`` without solving its
    corrections: the total of :func:`pattern_cost` of the pattern over
    it, bit for bit.

    ``terms`` are the terms of the root's children, in order (its
    :func:`child_terms`, or a child's :func:`block_terms` folded from
    its own children's); ``last_offset(i)`` is the cumulative offset of
    occurrence ``i`` of the last root repetition, and
    ``abs_corrections`` the corrections' summed magnitudes.
    """
    bits_a, bits_r, bits_p0, bits_d, bits_tau, bits_e = _placed(
        root,
        tau,
        stats,
        terms=terms,
        last_offset=last_offset,
        abs_corrections=abs_corrections,
    )
    return bits_a + bits_r + bits_p0 + bits_d + bits_tau + bits_e


def cycle_head_bits(stats: SeqStats, event: str) -> float:
    """A cycle's A and R bits: its layout and leaf, then its repetition
    count.  Every other term of :func:`cycle_pricer`'s price is a
    ``log2`` of a value ``>= 1`` or the corrections' bits, so a cycle of
    ``r`` occurrences whose corrections' magnitudes sum to ``D`` costs
    at least ``head + (2 * (r - 1) + D)``, and adding the same terms in
    the price's order never gives less: float addition is monotone."""
    leaf, count = _leaf_bits(stats, event)
    return 2.0 * _LOG3 + leaf + log2(count)


def cycle_pricer(
    stats: SeqStats, event: str
) -> Callable[[int, int, int, int, int], float]:
    """The price of a fitted cycle of ``event`` from its parameters, as
    a callable ``(r, p, tau, sigma, abs_corrections) -> bits``: the
    cycle's occurrences increase, its corrections sum to ``sigma`` and
    their magnitudes to ``abs_corrections``.  It returns
    ``pattern_cost(cycle, stats).total`` bit for bit, and ``inf``
    exactly when that raises.

    The event's terms are worked out once, so a search that prices many
    segments of one event builds this once and calls it per segment.
    They are the left prefix of :attr:`CostBreakdown.total`'s sum, which
    Python adds left to right, so hoisting them changes no bit.
    """
    head = cycle_head_bits(stats, event)
    count = stats.counts[event]
    span, t_start = stats.span, stats.t_start

    def price(r: int, p: int, tau: int, sigma: int, abs_corrections: int) -> float:
        # _root_ranges with the first occurrence's offset sigma, inline
        numer = span - sigma
        p0_max = numer // (r - 1)
        v = numer - (r - 1) * p + 1
        if p > p0_max or not t_start <= tau < t_start + v or r > count:
            return math.inf
        # p0, D (0.0 for a simple cycle, which adds nothing), tau and E
        return head + log2(p0_max) + log2(v) + float(2 * (r - 1) + abs_corrections)

    return price


Cycle = tuple[str, int, int, int, Sequence[int]]


def cycle_merge_pricer(stats: SeqStats) -> Callable[[Sequence[Cycle]], float]:
    """The price of a horizontal merge of one-leaf cycles from their
    parameters, as a callable ``cycles -> bits``: each cycle is ``(event,
    r, p, tau, offsets)``, ``offsets`` its cumulative offsets
    (:attr:`Pattern.offsets`), and the cycles are in merge order, which
    starts never decrease along.  It returns :func:`block_cost` of the
    merged root that :func:`pattern.concat_layout` lays out, so
    ``pattern_cost`` of the built merge, bit for bit, without building
    the root, its layout or a slot list.

    The root repeats the members' least ``r`` times at the first
    member's period ``p0`` from its start ``tau0``; its children are the
    members' leaves, member ``m`` at ``tau_m - tau0``, so its width is
    ``tau_last - tau0`` and member ``m``'s offset in repetition ``k`` is
    ``offsets_m[k] + k (p_m - p0)``.  The first member keeps its
    corrections, and member ``m >= 1``'s occurrence of repetition ``k``
    follows member ``m - 1``'s, so its correction is the difference of
    their offsets there.  Every leaf is its own child, so only the last
    one is right-most, and the last repetition's content ends at the last
    member's occurrence whether or not the root interleaves.  The floats
    are added one at a time in :func:`_placed`'s order, never by a float
    ``sum()``, so the price is the same float on every Python.

    The merges it prices list each occurrence of their log once, so
    they are codable (:func:`_placed`) and the price has no uncodable
    branch.
    """
    leaves = {e: _leaf_bits(stats, e) for e in stats.counts}
    span, t_end = stats.span, stats.t_end

    def price(cycles: Sequence[Cycle]) -> float:
        r = min([cycle[1] for cycle in cycles])
        last = r - 1
        _, _, p0, tau0, first = cycles[0]
        _, _, p_end, tau_end, end = cycles[-1]
        layout, counts = 0.0, []
        for cycle in cycles:
            bits, count = leaves[cycle[0]]
            layout += bits
            counts.append(count)
        # The first member's own corrections, then each join's, the
        # drift between the two periods added in repetition k.
        abs_corrections = sum(map(abs, map(sub, first[1:r], first[:last])))
        for (_, _, p_a, _, a), (_, _, p_b, _, b) in zip(cycles, cycles[1:]):
            moved = map(sub, b[:r], a[:r])
            if d := p_b - p_a:
                moved = map(add, moved, range(0, r * d, d))
            abs_corrections += sum(map(abs, moved))
        numer = span - first[last]
        max_width = t_end - tau0 - (end[last] + last * (p_end - p0)) - last * p0
        step, distances = log2(tau_end - tau0 + 1), 0.0
        for _ in cycles[1:]:
            distances += step
        bits_d = log2(max_width + 1)
        bits_d += distances
        return (
            (2.0 * _LOG3 + layout)
            + log2(min(counts))
            + log2(numer // last)
            + bits_d
            + log2(numer - last * p0 + 1)
            + float(2 * (r * len(cycles) - 1) + abs_corrections)
        )

    return price


def pattern_cost(p: Pattern, stats: SeqStats) -> CostBreakdown:
    """Bits to transmit a pattern against a sequence's statistics.

    Raises :class:`UncodablePatternError` when the pattern cannot be
    transmitted in that context: a parameter outside its code's range,
    or a corrected occurrence outside the sequence window.
    """
    tree = p.tree
    compiled = tree.compiled
    offsets = p.offsets
    for t, e, off in zip(compiled.times, compiled.events, offsets):
        ct = p.tau + t + off
        if ct < stats.t_start or ct > stats.t_end:
            raise UncodablePatternError(
                f"corrected occurrence ({ct}, {e}) falls outside "
                f"[{stats.t_start}, {stats.t_end}]"
            )
    base = (tree.r - 1) * tree.placement.size
    return CostBreakdown(*_placed(
        tree,
        p.tau,
        stats,
        terms=child_terms(tree, stats),
        last_offset=lambda i: offsets[base + i],
        abs_corrections=sum(map(abs, p.corrections)),
    ))


# ---------------------------------------------------------------------------
# Collections


@dataclass(frozen=True)
class PatternEntry:
    """One pattern's line in a collection report."""

    notation: str
    cost: CostBreakdown
    cover_size: int
    shape_class: str

    def to_dict(self) -> dict:
        return {
            "notation": self.notation,
            "cost": self.cost.to_dict(),
            "cover_size": self.cover_size,
            "shape": self.shape_class,
        }


@dataclass(frozen=True)
class CollectionReport:
    """Code-length report for a pattern collection over a sequence."""

    total_bits: float
    pattern_bits: float
    residual_bits: float
    residual_count: int
    baseline_bits: float
    percent_length: float
    residual_ratio: float
    shape_counts: Mapping[str, int]
    max_cover: int
    patterns: tuple[PatternEntry, ...]

    def to_dict(self) -> dict:
        return {
            "total_bits": self.total_bits,
            "pattern_bits": self.pattern_bits,
            "residual_bits": self.residual_bits,
            "residual_count": self.residual_count,
            "baseline_bits": self.baseline_bits,
            "percent_length": self.percent_length,
            "residual_ratio": self.residual_ratio,
            "shape_counts": dict(self.shape_counts),
            "max_cover": self.max_cover,
            "n_patterns": len(self.patterns),
            "patterns": [entry.to_dict() for entry in self.patterns],
        }


def collection_bits(
    pattern_costs: Iterable[float], stats: SeqStats, residual_labels: Mapping[str, int]
) -> tuple[float, float, float]:
    """The pattern, residual and total bits of a collection whose
    patterns cost ``pattern_costs`` and leave ``residual_labels[e]``
    occurrences of each event ``e`` residual.

    Every caller that totals a collection goes through here, so the
    totals agree bit for bit.
    """
    pattern_bits = add_bits(pattern_costs)
    leftover_bits = residual_bits(stats, residual_labels)
    return pattern_bits, leftover_bits, pattern_bits + leftover_bits


def baseline_cost(stats: SeqStats) -> float:
    """Bits to transmit every occurrence individually."""
    return residual_bits(stats, stats.counts)


def _require_listed_once(
    p: Pattern, times: Sequence[int], events: Sequence[str], distinct: int
) -> None:
    """Raise :class:`DomainError` when the pattern's occurrences, its
    corrected ``times`` and their ``events``, hold only ``distinct``
    distinct pairs: a pattern lists each occurrence once."""
    if distinct < len(times):
        listed = Counter(zip(times, events))
        twice = next(o for o in listed if listed[o] > 1)
        raise DomainError(f"pattern {format_pattern(p)} lists occurrence {twice} more than once")


def _listed_once(p: Pattern) -> set[tuple[int, str]]:
    """The pattern's occurrences; raises :class:`DomainError` when it
    lists one twice."""
    times, events = corrected_times(p), p.tree.compiled.events
    pairs = set(zip(times, events))
    _require_listed_once(p, times, events, len(pairs))
    return pairs


def collection_cost(
    patterns: Sequence[Pattern],
    seq: EventSequence,
    stats: SeqStats | None = None,
) -> CollectionReport:
    """Score a pattern collection plus residuals against a sequence.

    The log is held as one set per event of its own timestamps, and a
    pattern's cover likewise: one root repetition of its tree holds
    ``n = len(events) // r`` occurrences, and column ``j``'s times are
    ``times[j::n]``, all of event ``events[j]``.  Every check and count
    below is then a set operation per event.

    Raises :class:`DomainError` when a pattern covers an occurrence that
    the sequence does not hold, or lists one occurrence twice.
    """
    if stats is None:
        stats = SeqStats.from_sequence(seq)
    logged = {e: set(ts) for e, ts in seq.per_event.items()}
    covered: dict[str, set[int]] = {e: set() for e in logged}
    costs = []
    entries = []
    shape_counts = {"s": 0, "v": 0, "h": 0, "m": 0}
    max_cover = 0
    for pat in patterns:
        tree = pat.tree
        times, events = corrected_times(pat), tree.compiled.events
        n = len(events) // tree.r
        cover: dict[str, set[int]] = {}
        for j in range(n):
            cover.setdefault(events[j], set()).update(times[j::n])
        if not all(e in logged and ts <= logged[e] for e, ts in cover.items()):
            outside = sorted(set(zip(times, events)) - set(seq.pairs))[:3]
            raise DomainError(f"pattern covers occurrences outside the sequence: {outside}")
        size = sum(map(len, cover.values()))
        _require_listed_once(pat, times, events, size)
        breakdown = pattern_cost(pat, stats)
        shape = classify_tree(tree)
        shape_counts[shape.shape_class[0]] += 1
        max_cover = max(max_cover, size)
        costs.append(breakdown.total)
        for e, ts in cover.items():
            covered[e] |= ts
        entries.append(PatternEntry(
            notation=format_pattern(pat),
            cost=breakdown,
            cover_size=size,
            shape_class=shape.shape_class,
        ))
    left = {e: len(ts) - len(covered[e]) for e, ts in logged.items()}
    residuals = {e: k for e, k in left.items() if k}
    pattern_bits, leftover_bits, total = collection_bits(costs, stats, residuals)
    baseline = baseline_cost(stats)
    return CollectionReport(
        total_bits=total,
        pattern_bits=pattern_bits,
        residual_bits=leftover_bits,
        residual_count=sum(residuals.values()),
        baseline_bits=baseline,
        percent_length=(100.0 * total / baseline) if baseline > 0 else 100.0,
        residual_ratio=(leftover_bits / total) if total > 0 else 1.0,
        shape_counts=shape_counts,
        max_cover=max_cover,
        patterns=tuple(entries),
    )


def is_cost_effective(
    p: Pattern,
    stats: SeqStats,
    pairs: Sequence[tuple[int, str]] | None = None,
) -> bool:
    """True when the pattern is cheaper than leaving ``pairs`` (its own
    cover by default) as residuals.

    Raises :class:`DomainError` when the pattern lists an occurrence
    twice, as :func:`collection_cost` does.
    """
    cover = _listed_once(p)
    if pairs is None:
        pairs = cover
    try:
        bits = pattern_cost(p, stats).total
    except UncodablePatternError:
        return False
    return bits < residual_bits(stats, Counter(e for _, e in pairs))


def efficiency(p: Pattern, stats: SeqStats) -> float:
    """Bits per covered occurrence; smaller is better.

    Raises :class:`DomainError` when the pattern lists an occurrence
    twice, as :func:`collection_cost` does.
    """
    return pattern_cost(p, stats).total / len(_listed_once(p))


# ---------------------------------------------------------------------------
# Correction-budget threshold for growing cycles


def w_threshold(stats: SeqStats, event: str, k: int) -> float:
    """Largest correction magnitude at which a k-occurrence cycle of the
    event still beats k residuals.

    A fitted cycle with ``sum(|e|)`` strictly below this value is always
    cost-effective.
    """
    if k < 3:
        raise DomainError(f"threshold needs k >= 3, got {k}")
    count = stats.counts.get(event)
    if count is None:
        raise DomainError(f"unknown event {event!r}")
    q = log2(stats.length / count)
    return (
        (k - 2) * log2(stats.span + 1)
        + (k - 1) * q
        - 3.0 * _LOG3
        - log2(count)
        + log2(k - 1)
        - 2.0 * k
        + 2.0
    )


def extension_margin(stats: SeqStats) -> float:
    """Guaranteed growth of the correction budget per extra occurrence."""
    return log2(stats.span + 1) - 2.0
