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
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .core import (
    DomainError,
    EventSequence,
    UncodablePatternError,
    log2,
)
from .pattern import (
    Block,
    Column,
    Leaf,
    Node,
    Pattern,
    column_events,
    column_offsets,
    column_times,
    corrected_occurrences,
    expand_tree,  # unused here; perfbench's tracer test looks it up on codec
    format_pattern,
    is_simple,
    leaf_columns,
    occurrence_count,
    place_children,
    shape_class,
    tree_height,
    tree_width,
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


def require_own_stats(seq: EventSequence, stats: SeqStats) -> None:
    """Raise :class:`DomainError` unless ``stats`` are
    ``SeqStats.from_sequence(seq, t_start, t_end)`` over their own
    window, which must hold the log: statistics of another log would
    price its patterns and residuals wrongly."""
    if stats != SeqStats.from_sequence(seq, stats.t_start, stats.t_end):
        window = f"[{stats.t_start}, {stats.t_end}]"
        raise DomainError(f"the statistics over {window} describe another log")


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


def _content_bits(
    children: Sequence[Node], distances: Sequence[int], width: int, interleaved: bool
) -> float:
    """Bits for a block's child distances and interior-child periods,
    from its ``children`` at ``distances``.

    ``width`` is the time available for one repetition's content.  Each
    inter-block distance takes ``log2(width + 1)`` bits; each interior
    child gets a time-span budget derived from ``width`` and the
    distances, then codes its period and recurses.
    """
    bits = 0.0
    if len(distances) > 1:
        if max(distances) > width:
            raise UncodablePatternError(
                f"inter-block distance {max(distances)} exceeds the width budget {width}"
            )
        step = log2(width + 1)
        for _ in distances[1:]:
            bits += step
    last = len(children) - 1
    offset = 0
    for i, child in enumerate(children):
        offset += distances[i]
        if isinstance(child, Leaf):
            continue
        if interleaved or i == last:
            tspan = width - offset
        else:
            tspan = distances[i + 1]
        bits += _block_bits(
            child.r, child.p, child.children, child.distances, tspan, interleaved
        )
    return bits


def _block_bits(
    r: int,
    p: int,
    children: Sequence[Node],
    distances: Sequence[int],
    tspan: int,
    interleaved: bool,
) -> float:
    """Bits for an interior block's period and its own content, from its
    parts: a merge's inner block is priced before it is built."""
    if tspan < r - 1:
        raise UncodablePatternError(f"time span {tspan} cannot hold {r} repetitions")
    p_max = tspan // (r - 1)
    if p > p_max:
        raise UncodablePatternError(
            f"period {p} exceeds the largest transmittable value {p_max}"
        )
    bits = log2(p_max)
    if interleaved:
        width = tspan - r + 1
    else:
        width = min(p, tspan // r)
    return bits + _content_bits(children, distances, width, interleaved)


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
    ``tau``, in :class:`CostBreakdown`'s order.  ``terms`` are the terms
    of the root's children, in order (its :func:`child_terms`), folded
    into the root's layout and repetition bits by :func:`block_terms`;
    ``last_offset(i)`` is the cumulative offset of occurrence ``i`` of
    the last root repetition, and ``abs_corrections`` the corrections'
    summed magnitudes.

    Where one repetition lies is the root's ``placement``.  The root
    period and the start are coded against the last repetition's first
    occurrence, and the distances against where the decoder knows that
    repetition's content ends: its last occurrence, or, when the root
    interleaves, the one with the smallest offset among those whose
    leaf is its parent's right-most child.  :func:`pattern_cost` prices
    through this alone, and the pricers below work out the same terms
    from a pattern's parts and add them in this order, so they price bit
    for bit alike.  Raises :class:`UncodablePatternError` when a term is out
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
        bits_d += _content_bits(root.children, root.distances, width, interleaved)

    bits_e = _correction_bits(root.r * size - 1, abs_corrections)
    return bits_a, bits_r, bits_p0, bits_d, bits_tau, bits_e


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
    starts never decrease along.  It returns ``pattern_cost`` of the
    merge built over the root that :func:`pattern.concat_layout` lays
    out, bit for bit, without building the root, its layout or a slot
    list.

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


class MergeMember(Protocol):
    """What :func:`merge_pricer` reads of a member of a merge, a
    ``miner.Candidate``: its pattern; the ``|E|`` of its occurrences in
    traversal order, the first's 0, and their running sums by root
    repetition, ``running[r]`` over the first ``r``; and the
    :func:`child_terms` of its root and, where the root's first child
    is a block, of that child."""

    pattern: Pattern
    magnitudes: Sequence[int]
    running: Sequence[int]
    terms: Sequence[Terms]
    inner_terms: Sequence[Terms]


def _join(a: MergeMember, i: int, b: MergeMember, r: int, reps: int = 1) -> int:
    """How the summed ``|E|`` changes when ``b``'s first occurrence
    follows occurrence ``i`` of ``a``'s in each of the first ``r`` root
    repetitions, or, with ``reps``, in each of the ``reps`` repetitions
    of the two members' inner blocks within them.  Its corrections there
    become the two offsets' difference plus ``k`` times the drift of
    ``b``'s period from ``a``'s in root repetition ``k``, and replace its
    own."""
    pa, pb = a.pattern, b.pattern
    step_a, step_b = pa.tree.placement.size // reps, pb.tree.placement.size // reps
    at = slice(0, r * reps * step_b, step_b)
    moved = map(sub, pb.offsets[at], pa.offsets[i : i + r * reps * step_a : step_a])
    if d := pb.tree.p - pa.tree.p:
        moved = map(add, moved, [k * d for k in range(r) for _ in range(reps)])
    return sum(map(abs, moved)) - sum(b.magnitudes[at])


def merge_pricer(stats: SeqStats) -> Callable[..., float]:
    """The price of a horizontal merge from its members' records, as a
    callable ``(members, factored=False) -> bits``: the members are
    :class:`MergeMember` s in merge order.  It returns ``pattern_cost``
    of the merge built over the root that :func:`pattern.concat_layout`
    lays out, or with ``factored`` over the one
    :func:`pattern.factor_layout` makes of it, bit for bit, without
    building a root, an inner block or a layout.  It returns ``inf``
    exactly when there is no such layout: a negative connecting
    distance, or, with ``factored``, a root whose children are not two
    same-``(r, p)`` blocks.

    The root repeats the members' least ``r`` times at the first
    member's period ``p0`` from its start ``tau0``.  Plain, its children
    are the members' root children, member ``m``'s first one at ``tau_m -
    tau0``, each member's next at the difference of starts less the
    member's distances; factored, its one child is an inner block over
    the two members' inner children, the second's at the difference of
    starts less the first's inner distances.  Either is placed by
    :func:`pattern.place_children`, and its inner blocks' period bits
    are the members' own child blocks', any depth, so they are read off
    those blocks.  Occurrence ``j`` of member ``m``'s repetition ``k``
    keeps its offset plus ``k (p_m - p0)``, and its correction unless it
    follows another member's occurrence (a join, :func:`_join`): each
    member's first occurrence, plain, or the second's first of each
    inner repetition, factored.  The last repetition's content ends at
    the last member's last occurrence, or, when the root interleaves, at
    the least offset of its right-most leaves, each read at its member.
    The floats are added one at a time in :func:`_placed`'s order, never
    by a float ``sum()``.

    The merges growth prices list each occurrence of their log once, so
    they are codable (:func:`_placed`) and the price has no uncodable
    branch.
    """
    span, t_end = stats.span, stats.t_end

    def price(members: Sequence[MergeMember], factored: bool = False) -> float:
        head, end = members[0], members[-1]
        first, r = head.pattern, min([q.pattern.tree.r for q in members])
        last, p0 = r - 1, first.tree.p
        abs_corrections = head.running[r]
        if not factored:
            tree = first.tree
            children, distances, terms = tree.children, tree.distances, [*head.terms]
            for a, b in zip(members, members[1:]):
                pa, pb = a.pattern, b.pattern
                connect = (pb.tau - pa.tau) - sum(pa.tree.distances)
                if connect < 0:
                    return math.inf
                children += pb.tree.children
                distances += (connect, *pb.tree.distances[1:])
                terms += b.terms
                tail = pa.tree.placement.size - occurrence_count(pa.tree.children[-1])
                abs_corrections += b.running[r] + _join(a, tail, b, r)
            width, interleaved, right, size = place_children(p0, children, distances)
            content = _content_bits(children, distances, width, interleaved)
            if interleaved:  # each member's right-most occurrences, in its repetition
                parts, start = [], 0
                for q in members:
                    stop = start + q.pattern.tree.placement.size
                    parts.append((q, [s - start for s in right if start <= s < stop]))
                    start = stop
        else:
            if len(members) != 2:
                return math.inf
            (x, *more), (y, *others) = first.tree.children, end.pattern.tree.children
            if more or others or not isinstance(x, Block) or not isinstance(y, Block):
                return math.inf
            connect = (end.pattern.tau - first.tau) - sum(x.distances)
            if (x.r, x.p) != (y.r, y.p) or connect < 0:
                return math.inf
            children = x.children + y.children
            distances = (*x.distances, connect, *y.distances[1:])
            inner = place_children(x.p, children, distances)
            n, n_x, n_y = inner.size, x.placement.size, y.placement.size
            terms = [block_terms(x.r, [*head.inner_terms, *end.inner_terms])]
            tail = n_x - occurrence_count(x.children[-1])
            abs_corrections += end.running[r] + _join(head, tail, end, r, x.r)
            # place() of a root whose one child is the inner block
            width, size = (x.r - 1) * x.p + inner.width, x.r * n
            interleaved = inner.interleaved or width > p0
            content = _block_bits(x.r, x.p, children, distances, width, interleaved)
            if interleaved:
                rights = inner.last_right
                parts = [
                    (head, [k * n_x + i for k in range(x.r) for i in rights if i < n_x]),
                    (end, [k * n_y + i - n_x for k in range(x.r) for i in rights if i >= n_x]),
                ]

        bits_a, bits_r, _ = block_terms(r, terms)
        numer = span - first.offsets[last * first.tree.placement.size]
        if not interleaved:
            parts = [(end, [end.pattern.tree.placement.size - 1])]
        ends = []
        for q, columns in parts:
            if columns:
                tree, offsets = q.pattern.tree, q.pattern.offsets
                base = last * tree.placement.size
                ends.append(min([offsets[base + j] for j in columns]) + last * (tree.p - p0))
        end_offset = min(ends)
        bits_d = log2(t_end - first.tau - end_offset - last * p0 + 1)
        bits_d += content
        return (
            bits_a
            + bits_r
            + log2(numer // last)
            + bits_d
            + log2(numer - last * p0 + 1)
            + float(2 * (r * size - 1) + abs_corrections)
        )

    return price


def nest_pricer(
    stats: SeqStats, tree: Block
) -> Callable[[int, int, int, int, Sequence[int], int], float]:
    """The price of nesting instances of ``tree`` under an outer cycle
    (:func:`pattern.grow_vertically`) from the nesting's parameters, as a
    callable ``(r, p, tau, sigma, last, abs_corrections) -> bits``: the
    root repeats the tree ``r`` times every ``p`` from ``tau``, ``sigma``
    is its start corrections' sum, ``last`` the last instance's offsets
    (:attr:`Pattern.offsets`) and ``abs_corrections`` the nesting's
    summed ``|E|``.  It returns ``pattern_cost`` of the built nesting,
    bit for bit, without building its root.

    The root's one child is ``tree``, so its layout and repetition bits
    are the tree's plus one bracket pair, and its repetition spans the
    tree, ``(r_t - 1) p_t + w_t``, in every nesting.  The tree's own
    bits within that width then depend only on whether the root
    interleaves, which it does when the tree does or that span exceeds
    ``p``; they are worked out once per tree and mode, on first need.
    Occurrence ``i`` of the last repetition lies at ``sigma + last[i]``,
    and its content ends at the tree's right-most leaves when the root
    interleaves, else at its last occurrence.  Built once per tree, the
    pricer costs each nesting its root's terms and corrections only.
    The nestings growth prices list each occurrence of their log once,
    so they are codable (:func:`_placed`).
    """
    layout, repetitions, count = _tree_bits(tree, stats)
    head = 2.0 * _LOG3 + layout + (log2(count) + repetitions)
    rec = tree.placement
    width, size = (tree.r - 1) * tree.p + rec.width, tree.count
    right = [k * rec.size + i for k in range(tree.r) for i in rec.last_right]
    parts = tree.r, tree.p, tree.children, tree.distances, width
    content: dict[bool, float] = {}
    span, t_end = stats.span, stats.t_end

    def price(
        r: int, p: int, tau: int, sigma: int, last: Sequence[int], abs_corrections: int
    ) -> float:
        interleaved = rec.interleaved or width > p
        if interleaved not in content:
            content[interleaved] = _block_bits(*parts, interleaved)
        end = min([last[i] for i in right]) if interleaved else last[size - 1]
        numer = span - sigma
        bits_d = log2(t_end - tau - (sigma + end) - (r - 1) * p + 1)
        bits_d += content[interleaved]
        return (
            head
            + log2(numer // (r - 1))
            + bits_d
            + log2(numer - (r - 1) * p + 1)
            + float(2 * (r * size - 1) + abs_corrections)
        )

    return price


def pattern_cost(p: Pattern, stats: SeqStats) -> CostBreakdown:
    """Bits to transmit a pattern against a sequence's statistics.

    Raises :class:`UncodablePatternError` when the pattern cannot be
    transmitted in that context: a parameter outside its code's range,
    or a corrected occurrence outside the sequence window.
    """
    columns = leaf_columns(p)
    _require_in_window(p, columns, stats)
    return _breakdown(p, stats, column_offsets(columns, p.tree.count))


def _require_in_window(p: Pattern, columns: Sequence[Column], stats: SeqStats) -> None:
    """Raise :class:`UncodablePatternError`, naming the first in
    traversal order, when a corrected occurrence of the pattern, read
    off its leaf ``columns`` (:func:`pattern.leaf_columns`), falls
    outside the statistics' window."""
    lo, hi = stats.t_start, stats.t_end
    times = column_times(columns, p.tree.count)
    if lo <= min(times) and max(times) <= hi:
        return
    for ct, e in zip(times, column_events(columns, p.tree.count)):
        if ct < lo or ct > hi:
            raise UncodablePatternError(f"corrected occurrence ({ct}, {e}) falls outside [{lo}, {hi}]")


def _breakdown(p: Pattern, stats: SeqStats, offsets: Sequence[int]) -> CostBreakdown:
    """:func:`pattern_cost` of a pattern whose corrected occurrences all
    lie inside the statistics' window, given its cumulative ``offsets``
    in traversal order, of which it reads the last root repetition's."""
    tree = p.tree
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


def _require_listed_once(p: Pattern, distinct: int) -> None:
    """Raise :class:`DomainError` when the pattern's occurrences hold
    only ``distinct`` distinct pairs: a pattern lists each occurrence
    once."""
    if distinct < p.tree.count:
        listed = Counter(corrected_occurrences(p))
        twice = next(o for o in listed if listed[o] > 1)
        raise DomainError(f"pattern {format_pattern(p)} lists occurrence {twice} more than once")


def _listed_once(p: Pattern) -> set[tuple[int, str]]:
    """The pattern's occurrences; raises :class:`DomainError` when it
    lists one twice."""
    pairs = set(corrected_occurrences(p))
    _require_listed_once(p, len(pairs))
    return pairs


def collection_cost(
    patterns: Sequence[Pattern],
    seq: EventSequence,
    stats: SeqStats | None = None,
) -> CollectionReport:
    """Score a pattern collection plus residuals against a sequence.

    The log is held as one set per event of its own timestamps, and a
    pattern's cover likewise, built straight from its leaf columns
    (:func:`pattern.leaf_columns`), each of one event: a column's
    corrected times are its perfect times plus its offsets, one C-level
    pass, and the same columns give the offsets that pricing reads.
    Every check and count below is then a set operation per event, and
    the shape class is read from the tree's width and height
    (:func:`pattern.shape_class`).

    ``stats`` default to the log's own; given, they must describe it
    (:func:`require_own_stats`).  Raises :class:`DomainError` when they
    do not, or when a pattern covers an occurrence that the sequence
    does not hold, or lists one occurrence twice.

    Each pattern is priced as :func:`pattern_cost` prices it, bit for
    bit, but without its scan of the window: the statistics' window
    holds the log, so once every corrected occurrence is shown to be an
    occurrence of the log, each lies inside it.  By :func:`_placed`'s
    theorem the pricing then raises nothing either.
    """
    if stats is None:
        stats = SeqStats.from_sequence(seq)
    else:
        require_own_stats(seq, stats)
    logged = {e: set(ts) for e, ts in seq.per_event.items()}
    covered: dict[str, set[int]] = {e: set() for e in logged}
    costs = []
    entries = []
    shape_counts = {"s": 0, "v": 0, "h": 0, "m": 0}
    max_cover = 0
    for pat in patterns:
        tree = pat.tree
        columns = leaf_columns(pat)
        cover: dict[str, set[int]] = {}
        for event, _, perfect, offsets in columns:
            cover.setdefault(event, set()).update(map(add, perfect, offsets))
        if not all(e in logged and ts <= logged[e] for e, ts in cover.items()):
            # raises first for a negative time, which no log holds
            listed = set(corrected_occurrences(pat))
            outside = sorted(listed - set(seq.pairs))[:3]
            raise DomainError(f"pattern covers occurrences outside the sequence: {outside}")
        size = sum(map(len, cover.values()))
        _require_listed_once(pat, size)
        breakdown = _breakdown(pat, stats, column_offsets(columns, tree.count))
        shape = shape_class(tree_width(tree), tree_height(tree))
        shape_counts[shape[0]] += 1
        max_cover = max(max_cover, size)
        costs.append(breakdown.total)
        for e, ts in cover.items():
            covered[e] |= ts
        entries.append(PatternEntry(
            notation=format_pattern(pat),
            cost=breakdown,
            cover_size=size,
            shape_class=shape,
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
