"""Cycles, pattern trees and occurrence reconstruction.

A *cycle* repeats one event ``r`` times every ``p`` time units, starting
at ``tau``, with signed shift corrections ``E`` that accumulate from one
occurrence to the next.  A *pattern tree* generalizes this to a hierarchy
of cyclic blocks: interior nodes repeat their ordered children ``r`` times
every ``p`` units, and every child after the first carries a non-negative
inter-block distance to its predecessor.  A *pattern* is a tree plus a
starting point and a correction list with one entry per occurrence except
the first, so a cycle is the pattern whose tree is one block over one
leaf (:func:`fit_cycle`).

The module also provides the combination constructors used by the
miner (nesting same-tree patterns under an outer cycle, concatenating
co-periodic patterns as siblings and factorizing a concatenation), the
layout that the last two build from (:class:`MergeLayout`, whose root
is a :class:`Block` whose corrections are solved from the members'),
the one rule for where a repetition of a block lies (:func:`place`,
which places a merge's root before it is built too), and a bit-exact
text notation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import add, sub
from typing import NamedTuple, Sequence, Union

from .core import LABEL, DomainError, InvalidPatternError


# ---------------------------------------------------------------------------
# Tree nodes


@dataclass(frozen=True)
class Leaf:
    """A leaf block: a single event."""

    event: str


@dataclass(frozen=True)
class Block:
    """An interior block: ``r`` repetitions of its children every ``p`` units.

    ``distances[i]`` is the inter-block distance between child ``i-1`` and
    child ``i``; ``distances[0]`` is always 0 (the first child carries no
    distance).
    """

    r: int
    p: int
    children: tuple["Node", ...]
    distances: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise InvalidPatternError(f"block length must be >= 2, got {self.r}")
        if self.p < 1:
            raise InvalidPatternError(f"block period must be >= 1, got {self.p}")
        if not self.children:
            raise InvalidPatternError("block must have at least one child")
        if len(self.distances) != len(self.children):
            raise InvalidPatternError("one distance slot per child expected")
        if self.distances[0] != 0:
            raise InvalidPatternError("first child carries no distance")
        if min(self.distances) < 0:
            raise InvalidPatternError("inter-block distances must be >= 0")

    @cached_property
    def count(self) -> int:
        """The number of occurrences the block generates, worked out once
        on first read."""
        return self.r * sum(occurrence_count(c) for c in self.children)

    @cached_property
    def placement(self) -> "Placement":
        """Where one repetition of the children lies (:func:`place`),
        worked out once, held as long as the block is."""
        return place(self)


Node = Union[Leaf, Block]


def occurrence_count(node: Node) -> int:
    """Total number of event occurrences generated by a (sub)tree."""
    return 1 if isinstance(node, Leaf) else node.count


def tree_width(node: Node) -> int:
    """Number of leaves of the tree."""
    if isinstance(node, Leaf):
        return 1
    return sum(tree_width(c) for c in node.children)


def tree_height(node: Node) -> int:
    """Longest root-to-leaf edge count."""
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_height(c) for c in node.children)


def is_simple(tree: Block) -> bool:
    """True for a width-1, depth-1 tree (a simple cycle rendering)."""
    return len(tree.children) == 1 and isinstance(tree.children[0], Leaf)


# ---------------------------------------------------------------------------
# Fitting cycles


def fit_period(timestamps: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Fit the median period to strictly increasing timestamps.

    Returns ``(p, corrections)`` with ``corrections[k] = diff_k - p``.
    With an even number of inter-occurrence distances the absolute
    deviation is constant anywhere between the two middle values, so the
    upper middle is taken (the larger candidate period).
    """
    if len(timestamps) < 2:
        raise DomainError("need at least 2 timestamps to fit a period")
    diffs = [b - a for a, b in zip(timestamps, timestamps[1:])]
    if any(d <= 0 for d in diffs):
        raise DomainError("timestamps must be strictly increasing")
    ordered = sorted(diffs)
    p = ordered[len(ordered) // 2]
    return p, tuple(d - p for d in diffs)


def fit_cycle(timestamps: Sequence[int], event: str) -> Pattern:
    """Fit a cycle, the one-leaf pattern that repeats ``event``, to
    strictly increasing timestamps of it.

    The period is the median inter-occurrence distance and the
    corrections are the per-step deviations (:func:`fit_period`), so the
    pattern's corrected timestamps are ``timestamps``.
    """
    p, corrections = fit_period(timestamps)
    tree = Block(r=len(timestamps), p=p, children=(Leaf(event),), distances=(0,))
    return Pattern(tree=tree, tau=timestamps[0], corrections=corrections)


# ---------------------------------------------------------------------------
# Patterns


@dataclass(frozen=True)
class Pattern:
    """A pattern: tree, starting point and per-occurrence corrections.

    Two patterns are equal when all three are, and ``str`` renders one
    in the bracket notation (:func:`format_pattern`).
    """

    tree: Block
    tau: int
    corrections: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tree, Block):
            raise InvalidPatternError("pattern root must be an interior block")
        if self.tau < 0:
            raise InvalidPatternError(f"pattern start must be >= 0, got {self.tau}")
        n = occurrence_count(self.tree)
        if len(self.corrections) != n - 1:
            raise InvalidPatternError(
                f"expected {n - 1} corrections for {n} occurrences, "
                f"got {len(self.corrections)}"
            )
        # Hashed once, as it is made: the miner keys its sets by pattern,
        # and a braid's corrections tuple is long.  Set before any cached
        # read, so every pattern's attributes keep one order and share
        # their keys' table.
        object.__setattr__(self, "_hash", hash((self.tree, self.tau, self.corrections)))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Per-occurrence cumulative offsets, computed once per pattern.

        Occurrence ``i`` is shifted by its own correction plus the offset
        of its predecessor (the previous repetition's or the left
        sibling's first occurrence), so the offsets are read off the
        tree's leaf columns (:func:`leaf_columns`): one C-level pass per
        leaf column per block instance.
        """
        return tuple(column_offsets(leaf_columns(self), self.tree.count))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A copy, or one unpickled in a process with other string hashes,
        # is made afresh and hashes itself again.
        return Pattern, (self.tree, self.tau, self.corrections)

    def __str__(self) -> str:
        return format_pattern(self)


def expand_tree(
    tree: Block,
) -> tuple[tuple[tuple[int, str], ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Enumerate a tree's perfect occurrences.

    Returns ``(occs, origins)`` where ``occs`` is the ordered list of
    ``(relative timestamp, event)`` pairs produced by a depth-first,
    left-to-right, repetition-major traversal of the expansion tree, and
    ``origins`` is the parallel list of ``(block path, repetition
    indices)`` identifying each occurrence's leaf.
    """

    occs: list[tuple[int, str]] = []
    origins: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def walk(node: Node, t0: int, path: tuple[int, ...], reps: tuple[int, ...]) -> None:
        if isinstance(node, Leaf):
            occs.append((t0, node.event))
            origins.append((path, reps))
            return
        for k in range(node.r):
            offset = 0
            for i, child in enumerate(node.children):
                offset += node.distances[i]
                walk(child, t0 + k * node.p + offset, path + (i,), reps + (k,))

    walk(tree, 0, (), ())
    return tuple(occs), tuple(origins)


class Placement(NamedTuple):
    """Where one repetition of a block lies, as the encoder reads it:
    its largest perfect time, whether the block interleaves,
    the occurrences of the repetition (by index) whose leaf is its
    parent's right-most child, and how many occurrences it holds."""

    width: int
    interleaved: bool
    last_right: tuple[int, ...]
    size: int


def place(block: Block) -> Placement:
    """The one placement rule: where one repetition of a block's
    children lies, from the children's own records
    (:func:`place_children`).  Callers read :attr:`Block.placement`,
    which places each block once."""
    return place_children(block.p, block.children, block.distances)


def place_children(p: int, children: Sequence[Node], distances: Sequence[int]) -> Placement:
    """Where one repetition of a block of period ``p`` over ``children``
    at ``distances`` lies, without building the block: a merge is
    priced before its root exists.

    A leaf lies at its offset, and a child block spans ``(r - 1) p +
    width`` from its offset, its width read off its own ``placement``.
    The times never decrease exactly when no child interleaves and each
    child ends before the next begins: a child's first time is 0, and
    when it is in order its last time is its largest.  The block
    interleaves when the times decrease somewhere or the repetition is
    wider than ``p``.  A leaf is right-most when it is the last child,
    and a child's right-most leaves are those of every repetition of it.
    """
    right: list[int] = []
    size = offset = end = width = 0
    in_order = True
    last = len(children) - 1
    for c, child in enumerate(children):
        offset += distances[c]
        in_order = in_order and end <= offset
        if isinstance(child, Leaf):
            if c == last:
                right.append(size)
            end, size = offset, size + 1
        else:
            rec = child.placement
            n = rec.size
            right += [size + k * n + i for k in range(child.r) for i in rec.last_right]
            in_order = in_order and not rec.interleaved
            end = offset + (child.r - 1) * child.p + rec.width
            size += child.r * n
        width = max(width, end)
    return Placement(width, not in_order or width > p, tuple(right), size)


Column = tuple[str, slice, range, list[int]]


def leaf_columns(p: Pattern) -> list[Column]:
    """A pattern's leaf columns, one per leaf and instance of the leaf's
    parent block: ``(event, at, perfect, offsets)``.  The slice ``at``
    holds the traversal positions of that leaf's occurrences in the
    instance's repetitions, the range ``perfect`` their perfect times
    started at ``tau``, and ``offsets`` their cumulative offsets, so
    their corrected times are ``map(add, perfect, offsets)``.

    An occurrence's offset is its own correction plus its predecessor's
    offset: the previous repetition's first occurrence for a
    repetition's first one, and the left sibling's first occurrence for
    a later child's.  So a block instance's chain of repetition-firsts
    is one running sum (``accumulate``) over every ``n``-th correction,
    ``n`` the occurrences of a repetition, and each later child's first
    occurrences are its left sibling's plus its own corrections, one
    ``map`` over a slice of them.  A child block recurses with one
    instance per repetition, and a cycle's one column is its
    corrections' running sums.  The cost is one C-level pass per leaf
    column per block instance, not one Python step per occurrence, and
    no per-occurrence record of the tree is built or kept.  The
    arithmetic is on ints, so the values are exact.  Solving
    corrections (:func:`_solve_offsets`) walks the same parts backwards.
    """
    tree, tau = p.tree, p.tau
    if is_simple(tree):
        perfect = range(tau, tau + tree.r * tree.p, tree.p)
        offsets = list(accumulate(p.corrections, initial=0))
        return [(tree.children[0].event, slice(0, tree.r), perfect, offsets)]
    columns: list[Column] = []
    _block_columns(tree, range(1), range(tau, tau + 1), [0], p.corrections, columns)
    return columns


def _parts(node: Block) -> list[tuple[int, int, Union[str, Block]]]:
    """One repetition of a block's children: each child's position and
    perfect time in the repetition, and its leaf's event or the child
    block itself."""
    parts = []
    at = t = 0
    for child, d in zip(node.children, node.distances):
        t += d
        if isinstance(child, Leaf):
            parts.append((at, t, child.event))
            at += 1
        else:
            parts.append((at, t, child))
            at += child.count
    return parts


def _block_columns(
    node: Block,
    starts: range,
    origins: range,
    firsts: Sequence[int],
    es: Sequence[int],
    out: list[Column],
) -> None:
    """Append the leaf columns of the instances of ``node`` whose first
    occurrences lie at the positions ``starts``, at the perfect times
    ``origins`` and with the offsets ``firsts``; occurrence ``i >= 1``
    takes correction ``es[i - 1]``."""
    r, p = node.r, node.p
    n = node.count // r
    span, reach = r * n, r * p
    parts = _parts(node)
    for at, origin, first in zip(starts, origins, firsts):
        end = at + span - 1  # es stop: one past the last repetition
        offsets = list(accumulate(es[at + n - 1 : end : n], initial=first))
        for s, t, child in parts:
            if s:
                offsets = list(map(add, offsets, es[at + s - 1 : end : n]))
            perfect = range(origin + t, origin + t + reach, p)
            if type(child) is str:
                out.append((child, slice(at + s, end + 1, n), perfect, offsets))
            else:
                _block_columns(child, range(at + s, end + 1, n), perfect, offsets, es, out)


def solve_corrections(tree: Block, tau: int, corrected: Sequence[int]) -> tuple[int, ...]:
    """Corrections that make a tree's occurrences hit given timestamps.

    ``corrected`` lists the desired corrected timestamps in traversal
    order.  The system is unitriangular in the corrections, so any target
    with ``corrected[0] == tau`` has exactly one solution.  The perfect
    times are the tree's columns at zero corrections.
    """
    n = tree.count
    if len(corrected) != n:
        raise DomainError(f"expected {n} timestamps, got {len(corrected)}")
    perfect = corrected_times(Pattern(tree, 0, (0,) * (n - 1)))
    targets = [c - tau - t for c, t in zip(corrected, perfect)]
    if targets[0] != 0:
        raise DomainError("first corrected timestamp must equal tau")
    return _solve_offsets(tree, targets)


def _solve_offsets(tree: Block, offsets: Sequence[int]) -> tuple[int, ...]:
    """The corrections whose cumulative offsets are ``offsets``, the
    first 0: :func:`leaf_columns` run backwards over the same parts.
    Each correction is its occurrence's offset less its predecessor's,
    so a block instance's repetition-firsts take the differences of
    every ``n``-th offset and each later child's first occurrences
    their offsets less their left sibling's: one C-level pass per child
    per block instance."""
    es = [0] * (tree.count - 1)
    _block_corrections(tree, range(1), offsets, es)
    return tuple(es)


def _block_corrections(node: Block, starts: range, offsets: Sequence[int], es: list[int]) -> None:
    """Write the corrections of the instances of ``node`` whose first
    occurrences lie at the positions ``starts`` into ``es``, all but
    those first occurrences' own; occurrence ``i >= 1`` takes
    ``es[i - 1]``."""
    n = node.count // node.r
    span = node.r * n
    parts = _parts(node)
    for at in starts:
        end = at + span - 1  # es stop: one past the last repetition
        firsts = offsets[at : end + 1 : n]
        es[at + n - 1 : end : n] = map(sub, firsts[1:], firsts)
        for s, _, child in parts:
            if s:
                left, firsts = firsts, offsets[at + s : end + 1 : n]
                es[at + s - 1 : end : n] = map(sub, firsts, left)
            if type(child) is not str:
                _block_corrections(child, range(at + s, end + 1, n), offsets, es)


def column_offsets(columns: Sequence[Column], size: int) -> list[int]:
    """The columns' offsets in traversal order; ``size`` is the tree's
    occurrence count."""
    if len(columns) == 1:  # a cycle's one column holds every occurrence
        return columns[0][3]
    out = [0] * size
    for _, at, _, offsets in columns:
        out[at] = offsets
    return out


def column_times(columns: Sequence[Column], size: int) -> list[int]:
    """The columns' corrected times in traversal order."""
    out = [0] * size
    for _, at, perfect, offsets in columns:
        out[at] = map(add, perfect, offsets)
    return out


def column_events(columns: Sequence[Column], size: int) -> list[str]:
    """The columns' events in traversal order."""
    out = [""] * size
    for event, at, _, offsets in columns:
        out[at] = repeat(event, len(offsets))
    return out


def _corrected(p: Pattern) -> tuple[list[int], list[Column]]:
    """The corrected times in traversal order and the leaf columns they
    were read off.  Raises :class:`InvalidPatternError`, naming the
    first in traversal order, when a corrected time is negative."""
    columns = leaf_columns(p)
    times = column_times(columns, p.tree.count)
    if min(times) < 0:
        ct = next(t for t in times if t < 0)
        raise InvalidPatternError(f"corrected timestamp {ct} is negative")
    return times, columns


def corrected_times(p: Pattern) -> list[int]:
    """Corrected timestamps in traversal order: each leaf column's
    perfect times plus its offsets (:func:`leaf_columns`), one C-level
    pass per leaf column per block instance."""
    return _corrected(p)[0]


def corrected_occurrences(p: Pattern) -> tuple[tuple[int, str], ...]:
    """Corrected occurrence list in traversal order (may repeat pairs),
    read off the pattern's leaf columns as :func:`corrected_times`."""
    times, columns = _corrected(p)
    return tuple(zip(times, column_events(columns, p.tree.count)))


def pattern_occurrences(p: Pattern) -> tuple[tuple[int, str], ...]:
    """The set of (timestamp, event) pairs covered by a pattern, sorted."""
    return tuple(sorted(set(corrected_occurrences(p))))


# ---------------------------------------------------------------------------
# Shape classification


@dataclass(frozen=True)
class TreeShape:
    """Structural classification of a pattern tree."""

    height: int
    width: int
    interleaved: bool
    overlaps: bool
    shape_class: str


def shape_class(width: int, height: int) -> str:
    """A tree's class from its width and height: ``simple`` (width 1,
    height 1), ``vertical`` (width 1, deeper), ``horizontal`` (wider,
    height 1) or ``mixed``."""
    if width == 1:
        return "simple" if height == 1 else "vertical"
    return "horizontal" if height == 1 else "mixed"


def classify_tree(tree: Block) -> TreeShape:
    """Classify a tree by height, width, interleaving and overlaps.

    A tree is *interleaved* when its perfect occurrence timestamps are
    not non-decreasing (its :attr:`Block.placement` says so), and *has
    overlaps* when two perfect occurrences share a timestamp.  The
    perfect times are the ranges of the tree's leaf columns at start 0
    (:func:`leaf_columns`), whose offsets are all 0 here: one C-level
    pass per leaf column per block instance.  The class is
    :func:`shape_class`'s.
    """
    flat = Pattern(tree=tree, tau=0, corrections=(0,) * (tree.count - 1))
    seen: set[int] = set()
    for _, _, perfect, _ in leaf_columns(flat):
        seen.update(perfect)
    width = tree_width(tree)
    height = tree_height(tree)
    return TreeShape(
        height=height,
        width=width,
        interleaved=tree.placement.interleaved,
        overlaps=len(seen) < tree.count,
        shape_class=shape_class(width, height),
    )


# ---------------------------------------------------------------------------
# Combination constructors


def grow_vertically(instances: Sequence[Pattern]) -> Pattern:
    """Nest same-tree patterns under an outer cycle over their starts.

    The instances must share one tree and have distinct starting points.
    The result repeats that tree ``len(instances)`` times with the period
    fitted to the starting points, and its corrections are solved so that
    repetition ``k`` lands on the ``k``-th instance's corrected
    occurrences: the result covers exactly the union of the instances'
    occurrences.
    """
    if len(instances) < 3:
        raise DomainError("vertical combination needs at least 3 instances")
    inst = sorted(instances, key=lambda q: q.tau)
    tree = inst[0].tree
    if any(q.tree != tree for q in inst):
        raise DomainError("vertical combination requires one identical tree")
    starts = [q.tau for q in inst]
    if len(set(starts)) != len(starts):
        raise DomainError("starting points must be distinct")
    p = fit_period(starts)[0]
    root = Block(r=len(inst), p=p, children=(tree,), distances=(0,))
    # repetition k's perfect times are instance k's shifted by tau_0 + k p - tau_k
    offsets: list[int] = []
    for k, q in enumerate(inst):
        offsets += map(add, q.offsets, repeat(q.tau - starts[0] - k * p))
    return Pattern(tree=root, tau=starts[0], corrections=_solve_offsets(root, offsets))


class MergeLayout(NamedTuple):
    """Where a horizontal merge of member patterns puts their occurrences.

    ``root`` is the merged tree and ``tau`` its start: the pattern's
    tree before its corrections are solved (:func:`build_merge`).
    Occurrence ``s`` of the root's repetition is occurrence ``j`` of
    member ``m``'s root repetition, ``(m, j) = slots[s]``, and the root's
    repetition ``k`` holds the members' repetitions ``k``.  Slot 0 is the
    first member's first occurrence, and the root keeps that member's
    period and start.  Every occurrence keeps its member's perfect time:
    ``tau`` plus its time in the root's repetition is the member's start
    plus its ``times[j]``.  So in repetition ``k`` its offset is the
    member's offset there plus ``k`` times the member's period minus the
    root's, and only the occurrences whose predecessor is not the
    member's own take a new correction: ``(slot, predecessor)`` pairs in
    ``joins``, both as ``(m, j)``.  Where the root's repetition lies is
    its :attr:`Block.placement`.
    """

    root: Block
    tau: int
    slots: tuple[tuple[int, int], ...]
    joins: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def _per(block: Block) -> int:
    """The number of occurrences in one repetition of a block."""
    return block.count // block.r


def _last_child_start(block: Block) -> int:
    """Index, in one repetition, of the first occurrence of the block's
    last child."""
    return _per(block) - occurrence_count(block.children[-1])


def concat_layout(instances: Sequence[Pattern]) -> MergeLayout:
    """Layout of the patterns concatenated as siblings, in the given order.

    The merged root keeps the first instance's period and start and the
    minimum length; its children are the instances' root children, and
    the distance between consecutive instances' contents is the
    difference of their starting points.  Raises
    :class:`InvalidPatternError` when that distance is negative.  Each
    instance's first occurrence follows the first leaf of the previous
    instance's last child.
    """
    first = instances[0]
    children, distances = first.tree.children, first.tree.distances
    slots = [(0, j) for j in range(_per(first.tree))]
    joins = []
    r = first.tree.r
    for m in range(1, len(instances)):
        prev, q = instances[m - 1], instances[m]
        connect = (q.tau - prev.tau) - sum(prev.tree.distances)
        if connect < 0:
            raise InvalidPatternError(
                "instances are too entangled to concatenate "
                f"(negative connecting distance {connect})"
            )
        children += q.tree.children
        distances += (connect,) + q.tree.distances[1:]
        joins.append(((m, 0), (m - 1, _last_child_start(prev.tree))))
        r = min(r, q.tree.r)
        slots += [(m, j) for j in range(_per(q.tree))]
    root = Block(r, first.tree.p, children, distances)
    return MergeLayout(root, first.tau, tuple(slots), tuple(joins))


def factor_layout(layout: MergeLayout) -> MergeLayout | None:
    """The layout with its root's two same-``(r, p)`` interior children
    merged into one inner block; None when the root has no such pair.

    ``[r p]([ra pa](X) [d] [ra pa](Y))`` becomes ``[r p]([ra pa](X [d']
    Y))``, with every occurrence at the same perfect time: each inner
    repetition holds ``X``'s occurrences of that repetition, then
    ``Y``'s, and ``Y``'s first follows the first leaf of ``X``'s last
    child.  None also when ``d'`` would be negative.
    """
    tree = layout.root
    if len(tree.children) != 2:
        return None
    a, b = tree.children
    if not (isinstance(a, Block) and isinstance(b, Block)):
        return None
    connect = tree.distances[1] - sum(a.distances)
    if (a.r, a.p) != (b.r, b.p) or connect < 0:
        return None
    inner = Block(a.r, a.p, a.children + b.children, a.distances + (connect,) + b.distances[1:])
    per_a, per_b = _per(a), _per(b)
    slots = layout.slots
    order: list[tuple[int, int]] = []
    for j in range(a.r):
        order += slots[j * per_a : (j + 1) * per_a]
        order += slots[a.count + j * per_b : a.count + (j + 1) * per_b]
    # Y's first occurrence in each inner repetition follows X's last child
    joins = tuple(
        zip(
            slots[a.count : a.count + a.r * per_b : per_b],
            slots[_last_child_start(a) : a.r * per_a : per_a],
        )
    )
    root = Block(tree.r, tree.p, (inner,), (0,))
    return MergeLayout(root, layout.tau, tuple(order), joins)


def build_merge(layout: MergeLayout, members: Sequence[Pattern]) -> Pattern:
    """The pattern a merge layout over the members describes: its
    corrections solved so that each occurrence lands on its member's
    corrected one.  An occurrence keeps its member's perfect time, so in
    root repetition ``k`` its offset is the member's plus ``k`` times the
    member's period less the root's (:class:`MergeLayout`)."""
    root = layout.root
    member_offsets = [q.offsets for q in members]
    per = [_per(q.tree) for q in members]
    drift = [q.tree.p - root.p for q in members]
    offsets = [
        member_offsets[m][k * per[m] + j] + k * drift[m]
        for k in range(root.r)
        for m, j in layout.slots
    ]
    return Pattern(tree=root, tau=layout.tau, corrections=_solve_offsets(root, offsets))


def grow_horizontally(instances: Sequence[Pattern]) -> Pattern:
    """Concatenate patterns as siblings under a merged root cycle.

    The instances are ordered by starting point, instances with equal
    starts in the order given, and laid out by :func:`concat_layout`.
    The corrections are re-derived so the result covers exactly the
    union of the members' occurrences restricted to the kept
    repetitions.
    """
    if len(instances) < 2:
        raise DomainError("horizontal combination needs at least 2 instances")
    inst = sorted(instances, key=lambda q: q.tau)
    return build_merge(concat_layout(inst), inst)


def factorize(p: Pattern) -> Pattern | None:
    """Merge a root's two same-(r, p) interior children into one inner block.

    ``[r p]([ra pa](X) [d] [ra pa](Y))`` becomes
    ``[r p]([ra pa](X [d'] Y))`` (:func:`factor_layout`), with the
    corrections re-derived so the result covers exactly the occurrences
    of ``p``.  Returns None when the root does not have that shape.
    Which of the two is cheaper depends on the sequence statistics, so
    choosing is left to the caller.
    """
    layout = factor_layout(concat_layout([p]))
    return None if layout is None else build_merge(layout, [p])


# ---------------------------------------------------------------------------
# Text notation

_TOKEN = re.compile(
    r"\s*(?:(?P<open>\[r=(?P<r>[0-9]+)\s+p=(?P<p>[0-9]+)\]\()"
    r"|(?P<dist>\[d=(?P<d>[0-9]+)\])"
    r"|(?P<close>\))"
    rf"|(?P<label>{LABEL.pattern}))"
)


def format_tree(tree: Node) -> str:
    """Render a tree in the bracket notation.

    ``[r=<int> p=<int>](<child> ([d=<int>] <child>)*)`` where a child is
    an event label or a nested bracket term.
    """
    if isinstance(tree, Leaf):
        return tree.event
    parts = []
    for i, child in enumerate(tree.children):
        if i > 0:
            parts.append(f"[d={tree.distances[i]}]")
        parts.append(format_tree(child))
    return f"[r={tree.r} p={tree.p}]({' '.join(parts)})"


def _format_placed(tree: str, tau: int, corrections: Sequence[int]) -> str:
    # one %-format writes the list in about half the time of joining str()s
    es = ("%d," * len(corrections) % tuple(corrections))[:-1]
    return f"{tree} @ tau={tau} E=[{es}]"


def format_pattern(p: Pattern) -> str:
    """Render a full pattern: ``<tree> @ tau=<int> E=[<int>,...]``."""
    return _format_placed(format_tree(p.tree), p.tau, p.corrections)


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> DomainError:
        return DomainError(f"pattern notation: {message} at position {self.pos}")

    def next_token(self) -> re.Match | None:
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m

    def parse_node(self) -> Node:
        m = self.next_token()
        if m is None:
            raise self.error("expected a block or an event label")
        if m.group("label"):
            return Leaf(m.group("label"))
        if not m.group("open"):
            raise self.error("expected a block or an event label")
        r, p = int(m.group("r")), int(m.group("p"))
        children: list[Node] = [self.parse_node()]
        distances: list[int] = [0]
        while True:
            save = self.pos
            m = self.next_token()
            if m is None:
                raise self.error("unterminated block")
            if m.group("close"):
                break
            if m.group("dist"):
                distances.append(int(m.group("d")))
                children.append(self.parse_node())
                continue
            # A bare child without a distance marker is not in the grammar.
            self.pos = save
            raise self.error("expected '[d=<int>]' or ')'")
        try:
            return Block(r=r, p=p, children=tuple(children), distances=tuple(distances))
        except InvalidPatternError as exc:
            raise self.error(str(exc)) from exc


def parse_tree(text: str) -> Block:
    """Parse the bracket notation into a tree."""
    parser = _Parser(text)
    node = parser.parse_node()
    if parser.text[parser.pos :].strip():
        raise parser.error("trailing input")
    if not isinstance(node, Block):
        raise DomainError("pattern notation: the root must be a block")
    return node


_PATTERN_RE = re.compile(
    r"^(?P<tree>.*\))\s*@\s*tau=(?P<tau>[0-9]+)\s*E=\[(?P<es>[-0-9,\s]*)\]\s*$"
)


def parse_pattern(text: str) -> Pattern:
    """Parse the full pattern notation (tree, tau and corrections)."""
    m = _PATTERN_RE.match(text.strip())
    if m is None:
        raise DomainError(f"pattern notation: cannot parse {text!r}")
    tree = parse_tree(m.group("tree"))
    es = m.group("es").strip()
    try:
        corrections = tuple(map(int, es.split(","))) if es else ()
    except ValueError:
        raise DomainError(f"pattern notation: malformed corrections [{es}]") from None
    return Pattern(tree=tree, tau=int(m.group("tau")), corrections=corrections)
