"""Independent reference computations used by several test modules.

These deliberately avoid the library's search code: they re-derive the
same quantities from the cost primitives alone, so the mining tests
compare two separate routes to the same number.  The miner prices a
candidate before it builds it; :func:`make_candidate` builds a pattern
and then prices it through the encoder, and the plain searches below
build every candidate that way.  The unpruned segmentation, the eager
greedy cover, the build-everything stage S, the build-every-nesting
vertical combination and the build-every-merge horizontal combination
are the plain searches that the miner's pruned, lazy and ranked ones
must reproduce exactly.  The segmentation shares the miner's prices:
it prices through ``codec.cycle_pricer``, the per-event kernel the
miner's segmentation and stage S price through, so the two compare
float for float (that price is checked against the
encoder separately).  Its period and absolute deviation come from its
own running median, :class:`_RunningMedian`, where the miner keeps the
two heaps in the scan's locals.  The survivor bound is
the one the build site applies, written out on ``(cost, cover)`` pairs,
and it counts each occurrence's better covers in a counter, where the
miner keeps bit-sliced counts over its occurrence numbering.
The step-by-step cycle reconstruction is the reference that
:func:`~cadence.pattern.fit_cycle`'s fit is checked against.  The
recursive correction walk, the compiled tree with its predecessor per
occurrence, the origins-based end offset and the expansion-based
placement are the tree kernel's references, and the three-walk layout and repetition terms are the
encoder's.  The capped triple chaining is the pass that whole-log
chaining replaced, kept to show where its caps stopped it, and the
two-walk triple chaining walks every seed at its period and then at
the local gap, the pass that skipping a retraced walk must reproduce.
The layout price is the path that ``codec.merge_pricer`` replaced: it
lays a merge out and prices its root block, and the pricer must match
it float for float.
The target-and-solve concatenation and factorization are the builders
that merge layouts replaced: they gather each root repetition's
corrected occurrences in traversal order and solve for the corrections;
the interleaved-corrections nesting is the builder that solving
replaced in vertical growth.  The three-pass loader (parse every line
into a list, map the timestamps, relabel the rare events, then
revalidate through the pairs constructor), that constructor's
sort-by-tuple assembly and the set-based collection pricing are the
ingest and scoring paths that one-pass grouping and C-level expansion
replaced.
"""

from __future__ import annotations

import heapq
import io
import math
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import groupby, repeat
from operator import add, sub
from typing import Iterator, Sequence

from cadence import codec
from cadence.codec import (
    CollectionReport,
    PatternEntry,
    SeqStats,
    baseline_cost,
    pattern_cost,
    residual_bits,
    residual_cost,
)
from cadence.core import (
    LABEL,
    OTHER_LABEL,
    DomainError,
    EmptySequenceError,
    EventSequence,
    IngestOptions,
    InvalidPatternError,
    ParseError,
    UncodablePatternError,
    _label_problem,
)
from cadence.miner import (
    _CLIQUE_NODE_CAP,
    _components,
    _dedupe,
    _greedy_clique_cover,
    extract_cycles_dp,
    extract_cycles_tri,
    Candidate,
    Numbering,
    filter_candidates,
    maximal_cliques,
)
from cadence.pattern import (
    Block,
    Leaf,
    MergeLayout,
    Node,
    Pattern,
    corrected_occurrences,
    expand_tree,
    factorize,
    fit_cycle,
    fit_period,
    format_pattern,
    grow_horizontally,
    grow_vertically,
    classify_tree,
    occurrence_count,
    pattern_occurrences,
    solve_corrections,
)


def cover_pairs(candidate) -> frozenset[tuple[int, str]]:
    """A candidate's cover as the set of its ``(t, event)`` pairs."""
    return frozenset(candidate.numbering.pairs_of(candidate.bits))


def make_candidate(p: Pattern, provenance: str, numbering: Numbering):
    """Build a candidate by pricing a built pattern through the encoder
    against ``numbering.stats``, its cover over ``numbering``; None when
    it cannot be transmitted.  The miner prices before it builds; this is
    the reference it is checked against."""
    try:
        cost = codec.pattern_cost(p, numbering.stats).total
        cover = frozenset(corrected_occurrences(p))
    except (UncodablePatternError, InvalidPatternError, DomainError):
        return None
    if not cover:
        return None
    return Candidate(
        pattern=p,
        bits=numbering.cover(cover),
        cost=cost,
        provenance=provenance,
        numbering=numbering,
    )


def label_counts(pairs) -> Counter:
    """How many of the pairs carry each event."""
    return Counter(e for _, e in pairs)


def within_k_by_counter(
    keys: Sequence, covers: Sequence[frozenset], k: int
) -> set[int]:
    """Indices whose key is within the ``k`` smallest for some occurrence
    their cover holds; keys equal to the ``k``-th smallest count too.

    The reference for the miner's bit-sliced counts: the indices are
    walked in key order, a group of equal keys at a time, with a counter
    per occurrence of the covers of the groups before.
    """
    ahead: Counter = Counter()
    keep: set[int] = set()
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for _, group in groupby(order, key=keys.__getitem__):
        group = list(group)
        keep.update(i for i in group if any(ahead.get(o, 0) < k for o in covers[i]))
        for i in group:
            ahead.update(covers[i])
    return keep


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
                bits = pattern_cost(fit_cycle(timestamps[i:j], event), stats).total
            except UncodablePatternError:
                continue
            cheapest = min(cheapest, bits + best[j])
        best[i] = cheapest
    return best[0]


def cycle_cover(c: Pattern) -> tuple[int, ...]:
    """A cycle's timestamps, rebuilt step by step from its one-leaf
    pattern: ``t_1 = tau`` and ``t_k = t_{k-1} + p + e_{k-1}``.  Raises
    :class:`InvalidPatternError` when the tree is not one block over
    one leaf or the timestamps do not strictly increase."""
    if len(c.tree.children) != 1 or not isinstance(c.tree.children[0], Leaf):
        raise InvalidPatternError("a cycle is one block over one leaf")
    ts = [c.tau]
    for e in c.corrections:
        nxt = ts[-1] + c.tree.p + e
        if nxt <= ts[-1]:
            raise InvalidPatternError(f"corrections break the occurrence order at t={ts[-1]}")
        ts.append(nxt)
    return tuple(ts)


def cycle_selection_bits(
    runs: Sequence[Sequence[int]],
    timestamps: Sequence[int],
    event: str,
    stats: SeqStats,
) -> float:
    """Total bits of the cycles fitted to runs of indices into the
    timestamps plus residuals over the rest."""
    covered: set[int] = set()
    bits = 0.0
    for run in runs:
        c = fit_cycle([timestamps[i] for i in run], event)
        bits += pattern_cost(c, stats).total
        covered.update(cycle_cover(c))
    bits += sum(
        residual_cost(stats, (t, event)) for t in timestamps if t not in covered
    )
    return bits


def single_candidate_bits(candidate, all_pairs, stats: SeqStats) -> float:
    """Total bits of one candidate plus residuals for everything else."""
    cover = cover_pairs(candidate)
    return candidate.cost + sum(
        residual_cost(stats, o) for o in all_pairs if o not in cover
    )


class _RunningMedian:
    """Median and absolute-deviation sum under online insertion.

    Keeps the smaller half in a max-heap and the larger half in a
    min-heap so that the upper middle value (the fitted period
    convention) is always the top of the large half.
    """

    __slots__ = ("lo", "hi", "sum_lo", "sum_hi")

    def __init__(self) -> None:
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.sum_lo = 0
        self.sum_hi = 0

    def insert(self, x: int) -> None:
        if self.lo and x <= -self.lo[0]:
            heapq.heappush(self.lo, -x)
            self.sum_lo += x
        else:
            heapq.heappush(self.hi, x)
            self.sum_hi += x
        total = len(self.lo) + len(self.hi)
        want_lo = total // 2
        if len(self.lo) > want_lo:
            x = -heapq.heappop(self.lo)
            self.sum_lo -= x
            heapq.heappush(self.hi, x)
            self.sum_hi += x
        elif len(self.lo) < want_lo:
            x = heapq.heappop(self.hi)
            self.sum_hi -= x
            heapq.heappush(self.lo, -x)
            self.sum_lo += x

    @property
    def median(self) -> int:
        return self.hi[0]

    @property
    def abs_deviation(self) -> int:
        p = self.hi[0]
        return (p * len(self.lo) - self.sum_lo) + (self.sum_hi - p * len(self.hi))


def unpruned_segmentation(
    timestamps: Sequence[int], event: str, stats: SeqStats, window: int = 500
) -> list[tuple[int, ...]]:
    """The windowed segmentation DP with every start priced.

    The same prefix recursion and prices as ``extract_cycles_dp``, with
    ties to the shortest last segment, but without its early stop, and
    with the period kept by :class:`_RunningMedian`.  Returns the runs
    coded as cycles, as index tuples.
    """
    ts = list(timestamps)
    n = len(ts)
    l_res = residual_cost(stats, (ts[0], event))
    price = codec.cycle_pricer(stats, event)
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
                cyc = price(m, med.median, ts[i], sigma, med.abs_deviation)
            if best[i] + min(cost, cyc) < best[j + 1]:
                best[j + 1], cut[j + 1] = best[i] + min(cost, cyc), i
                as_cycle[j + 1] = cyc < cost
    runs = []
    j = n
    while j > 0:
        if as_cycle[j]:
            runs.append(tuple(range(cut[j], j)))
        j = cut[j]
    return runs[::-1]


def eager_greedy_cover(pool, stats: SeqStats) -> list:
    """Greedy cover that re-scores every remaining candidate on every pick.

    Picks the candidate minimizing ((cost / new occurrences, cost, tau,
    bits), its index in ``pool``) while it beats leaving its new
    occurrences residual.
    """
    covers = [cover_pairs(c) for c in pool]
    remaining = set(range(len(pool)))
    covered: set = set()
    chosen = []
    while True:
        scored = []
        for i in remaining:
            c, new = pool[i], covers[i] - covered
            if new:
                scored.append(((c.cost / len(new), c.cost, c.tau, c.bits), i))
        if not scored:
            return chosen
        _, i = min(scored)
        best, new = pool[i], covers[i] - covered
        if best.cost >= residual_bits(stats, Counter(e for _, e in new)):
            return chosen
        chosen.append(best)
        covered |= covers[i]
        remaining.remove(i)


def build_every_cycle(seq, stats: SeqStats, k: int) -> list:
    """Stage S building a candidate for every cycle, then filtering.

    Each event's ``dp`` then ``tri`` chains are fitted into cycles that
    become candidates through the encoder, the uncodable ones are dropped
    and duplicates keep their first provenance; width-``k`` pruning runs
    once over all events.
    """
    merged = []
    numbering = Numbering(seq, stats)
    for event in seq.alphabet:
        ts = list(seq.per_event[event])
        tagged = [("dp", c) for c in extract_cycles_dp(ts, event, stats)]
        tagged += [
            ("tri", c) for c in extract_cycles_tri(ts, codec.extension_margin(stats))
        ]
        built = [
            make_candidate(fit_cycle([ts[i] for i in c], event), prov, numbering)
            for prov, c in tagged
        ]
        merged += _dedupe(c for c in built if c is not None)
    return filter_candidates(merged, k)


def build_every_nesting(new, pool, k: int) -> list:
    """Vertical combination building every chain's nesting.

    The candidates over each tree of a new candidate, the trees in the
    order the new candidates first show them, the cheapest (then the
    least cover, then the first given) at each start, have their starts
    chained, with the zero-correction instance's price as tolerance.
    Every chain's nesting is built and priced, and kept when it lists
    each occurrence once (:func:`lists_once`), covers its members' union
    and beats their summed cost; width-``k`` pruning runs once at the
    end.  Every candidate is priced against the statistics of the log it
    is numbered over.
    """
    out = []
    for tree in dict.fromkeys(c.pattern.tree for c in new):
        by_tau: dict = {}
        for c in [*new, *pool]:
            prev = by_tau.get(c.tau)
            if c.pattern.tree == tree and (
                prev is None or (c.cost, c.bits) < (prev.cost, prev.bits)
            ):
                by_tau[c.tau] = c
        if len(by_tau) < 3:
            continue
        taus = sorted(by_tau)
        tree = by_tau[taus[0]].pattern.tree
        zero = Pattern(tree=tree, tau=taus[0], corrections=(0,) * (tree.count - 1))
        try:
            l_max = codec.pattern_cost(zero, by_tau[taus[0]].numbering.stats).total
        except (UncodablePatternError, DomainError):
            continue
        for chain in extract_cycles_tri(taus, l_max):
            members = [by_tau[taus[i]] for i in chain]
            try:
                grown = grow_vertically([m.pattern for m in members])
            except (DomainError, InvalidPatternError):
                continue
            cand = make_candidate(grown, "vertical", members[0].numbering)
            if cand is None or not lists_once(cand):
                continue
            if cover_pairs(cand) != frozenset().union(*map(cover_pairs, members)):
                continue
            if cand.cost < codec.add_bits(m.cost for m in members):
                out.append(cand)
    return filter_candidates(out, k)


def survivor_bound(
    entries: Sequence[tuple[float, int, int]], numbering: Numbering, k: int
) -> set[int]:
    """Indices of the ``(cost, cover, tau)`` entries, their covers over
    ``numbering``, whose ``(efficiency, cost, tau, cover)`` is within the
    ``k`` smallest for some occurrence they cover, equal entries counted
    once and ties kept."""
    groups = list(dict.fromkeys(entries))
    covers = [frozenset(numbering.pairs_of(cover)) for _, cover, _ in groups]
    keys = [
        (cost / len(pairs), cost, tau, cover)
        for (cost, cover, tau), pairs in zip(groups, covers)
    ]
    kept = {groups[i] for i in within_k_by_counter(keys, covers, k)}
    return {i for i, entry in enumerate(entries) if entry in kept}


def two_walk_triple_chains(
    timestamps: Sequence[int], tolerance: float
) -> list[tuple[int, ...]]:
    """Whole-log triple chaining that walks every seed twice, the pass
    the miner's skip of a retraced walk must reproduce.

    Every pair ``(i, j)`` with ``0 < j - i <= G`` (``G = max(4,
    ceil(600 / n))``) that is not two consecutive occurrences of an
    earlier chain seeds a walk at the seed's period and then one at the
    chain's local gap, each step to the nearest occurrence of the
    prediction, the earlier on a tie.  A side stops when none lies within
    ``tolerance``, when the new gap strays from the one before by more
    than ``tolerance`` or at an occurrence that already joined ``4 G``
    chains.  Returns the chains of three or more, sorted.
    """
    ts = list(timestamps)
    n = len(ts)
    if n < 3 or tolerance < 0:
        return []
    reach = max(4, -(-600 // n))
    room = [4 * reach] * n

    def nearest(target: int, lo: int, hi: int) -> int:
        near = [k for k in range(lo, hi) if abs(ts[k] - target) <= tolerance]
        return min(near, key=lambda k: (abs(ts[k] - target), k), default=-1)

    def walk(i: int, j: int, steady: bool) -> tuple[int, ...]:
        ends = []
        for sign, a, b in ((1, i, j), (-1, j, i)):
            side: list[int] = []
            anchor = ts[b]
            while True:
                gap = abs(ts[b] - ts[a])
                if steady:
                    target = anchor + sign * (len(side) + 1) * (ts[j] - ts[i])
                else:
                    target = ts[b] + sign * gap
                k = nearest(target, b + 1, n) if sign > 0 else nearest(target, 0, b)
                if k < 0 or room[k] <= 0 or abs(abs(ts[k] - ts[b]) - gap) > tolerance:
                    break
                side.append(k)
                a, b = b, k
            ends.append(side)
        return (*reversed(ends[1]), i, j, *ends[0])

    linked: set[tuple[int, int]] = set()
    chains: set[tuple[int, ...]] = set()
    for i in range(n - 1):
        for j in range(i + 1, min(n, i + reach + 1)):
            if (i, j) in linked:
                continue
            for steady in (True, False):
                chain = walk(i, j, steady)
                if len(chain) >= 3 and chain not in chains:
                    chains.add(chain)
                    linked.update(zip(chain, chain[1:]))
                    for k in chain:
                        room[k] -= 1
    return sorted(chains)


def capped_triple_chains(
    timestamps: Sequence[int],
    tolerance: float,
    event: str = "",
    max_pairs: int = 100_000,
    max_chains: int = 2_000,
) -> list[Pattern]:
    """Triple chaining under global caps, the pass whole-log chaining
    replaced.

    Every admissible triple of the first ``max_pairs`` pairs, taken by
    increasing index gap, is collected; the triples are then chained in
    index order, forks kept, until ``max_chains`` chains exist, and each
    maximal chain is fitted into a cycle.  On a dense event the chain cap
    is reached within the first occurrences, so no chain reaches the
    rest of the log.
    """
    ts = list(timestamps)
    n = len(ts)
    if n < 3 or tolerance < 0:
        return []
    triples: list[tuple[int, int, int]] = []
    budget = max_pairs
    for gap in range(1, n - 1):
        for i in range(0, n - 1 - gap):
            if budget <= 0:
                break
            budget -= 1
            j = i + gap
            target = 2 * ts[j] - ts[i]
            k0 = bisect_left(ts, target - tolerance, j + 1)
            k1 = bisect_right(ts, target + tolerance, j + 1)
            triples.extend((i, j, k) for k in range(k0, k1))
    triples.sort()

    chains: list[tuple[int, ...]] = []
    by_last: dict[tuple[int, int], list[int]] = {}
    absorbed: set[int] = set()
    for i, j, k in triples:
        if len(chains) >= max_chains:
            break
        for pid in list(by_last.get((i, j), ())) or [None]:
            if len(chains) >= max_chains:
                break
            if pid is None:
                chains.append((i, j, k))
            else:
                chains.append(chains[pid] + (k,))
                absorbed.add(pid)
            by_last.setdefault((j, k), []).append(len(chains) - 1)
    kept = sorted({c for cid, c in enumerate(chains) if cid not in absorbed})
    out = [fit_cycle([ts[i] for i in idxs], event) for idxs in kept]
    out.sort(key=lambda c: (c.tau, c.tree.r, c.tree.p))
    return out


def walk_corrections(tree: Block, values: Sequence[int], solve: bool) -> list[int]:
    """The recursive correction walk and its inverse.

    With ``solve=False``, ``values`` are per-occurrence corrections
    (first entry 0) and the cumulative offsets are returned.  With
    ``solve=True``, ``values`` are target cumulative offsets and the
    per-occurrence corrections achieving them are returned.

    The offset of an occurrence is its own correction plus the
    corrections of the left siblings' left-most leaf descendants, of the
    previous repetitions' left-most leaves, and recursively of the
    enclosing blocks' contributors.
    """
    n = len(expand_tree(tree)[0])
    if len(values) != n:
        raise DomainError(f"expected {n} values, got {len(values)}")
    out = [0] * n
    corr = values if not solve else out
    idx = 0

    def walk(node, context: int) -> int:
        nonlocal idx
        if isinstance(node, Leaf):
            i = idx
            idx += 1
            if solve:
                out[i] = values[i] - context
            else:
                out[i] = values[i] + context
            return i
        first_of_block = -1
        rep_acc = 0
        for _ in range(node.r):
            first_of_rep = -1
            sib_acc = 0
            for child in node.children:
                fi = walk(child, context + rep_acc + sib_acc)
                if first_of_rep < 0:
                    first_of_rep = fi
                sib_acc += corr[fi]
            if first_of_block < 0:
                first_of_block = first_of_rep
            rep_acc += corr[first_of_rep]
        return first_of_block

    walk(tree, 0)
    return out


@dataclass(frozen=True)
class CompiledTree:
    """A tree compiled into flat arrays, in traversal order.

    ``times[i]`` and ``events[i]`` are perfect occurrence ``i`` (as in
    :func:`expand_tree`).  Its cumulative offset is its own correction
    plus the offset of ``pred[i]``, the first leaf of the nearest earlier
    sibling or repetition up the enclosing blocks (``pred[0] == -1``).
    A record holds three tuples of one entry per occurrence.  This is
    the per-occurrence record that the leaf-column kernel replaced, both
    ways: reading offsets and solving corrections.
    """

    times: tuple[int, ...]
    events: tuple[str, ...]
    pred: tuple[int, ...]


def compile_tree(tree: Block) -> CompiledTree:
    """Compile a tree into flat arrays: one repetition of its children,
    replicated ``r`` times, every ``p``.

    A leaf is one occurrence and a child block is its compiled tree,
    shifted to its distance.  Repetition ``k``'s first occurrence takes
    repetition ``k - 1``'s first as its predecessor.
    """
    times: list[int] = []
    events: list[str] = []
    pred: list[int] = []
    offset, first = 0, -1
    for c, child in enumerate(tree.children):
        offset += tree.distances[c]
        base = len(times)
        pred.append(first)
        if isinstance(child, Leaf):
            times.append(offset)
            events.append(child.event)
        else:
            sub = compile_tree(child)
            times += [offset + t for t in sub.times]
            events += sub.events
            pred += [base + q for q in sub.pred[1:]]
        first = base
    n = len(times)
    within = pred[1:]
    for k in range(1, tree.r):
        pred.append((k - 1) * n)
        pred += [k * n + q for q in within]
    return CompiledTree(
        times=tuple([k * tree.p + t for k in range(tree.r) for t in times]),
        events=tuple(events) * tree.r,
        pred=tuple(pred),
    )


def _right_most(tree: Block, path: tuple[int, ...]) -> bool:
    """Whether the leaf at a block path is its parent's last child."""
    node = tree
    for c in path[:-1]:
        node = node.children[c]
    return path[-1] == len(node.children) - 1


def end_offset_by_origins(tree: Block, offsets: Sequence[int]) -> int:
    """The offset that pins where the last repetition's content ends.

    The last occurrence's offset when the perfect timestamps never
    decrease; otherwise the smallest offset among the last root
    repetition's occurrences whose leaf is its parent's right-most
    child, found from each occurrence's block path.
    """
    occs, origins = expand_tree(tree)
    ts = [t for t, _ in occs]
    n = len(offsets)
    if all(a <= b for a, b in zip(ts, ts[1:])):
        return offsets[n - 1]
    return min(
        offsets[i]
        for i in range((tree.r - 1) * (n // tree.r), n)
        if _right_most(tree, origins[i][0])
    )


def placement_by_expansion(tree: Block) -> tuple[int, bool, tuple[int, ...], int]:
    """Where one repetition of a built root lies, read off its perfect
    occurrences: the largest time of one repetition, whether the whole
    tree's times are unsorted, the repetition's occurrences whose leaf
    is its parent's right-most child (by block path), and how many
    occurrences a repetition holds."""
    occs, origins = expand_tree(tree)
    ts = [t for t, _ in occs]
    n = len(ts) // tree.r
    right = tuple(i for i in range(n) if _right_most(tree, origins[i][0]))
    return max(ts[:n]), ts != sorted(ts), right, n


def boundary_correction_sum(p: Pattern) -> int:
    """Sum of |correction| at the root repetition boundaries."""
    per = occurrence_count(p.tree) // p.tree.r
    return sum(abs(p.corrections[k * per - 1]) for k in range(1, p.tree.r))


def slack_pairs(new, pool) -> Iterator[tuple[int, int, list]]:
    """Every pair that horizontal combination tries to merge.

    Walks each candidate's τ window (later starts within one root period),
    skips pairs with no new member and yields ``(ia, ib, cands)`` for the
    pairs whose root periods agree within the later member's
    boundary-correction slack.
    """
    new_patterns = {c.pattern for c in new}
    cands = sorted([*new, *pool], key=lambda c: (c.tau, c.bits))
    taus = [c.tau for c in cands]
    is_new = [c.pattern in new_patterns for c in cands]
    boundary = [boundary_correction_sum(c.pattern) for c in cands]
    for ia, a in enumerate(cands):
        hi = bisect_right(taus, a.tau + a.pattern.tree.p)
        for ib in range(ia + 1, hi):
            if not (is_new[ia] or is_new[ib]):
                continue
            b = cands[ib]
            r = min(a.pattern.tree.r, b.pattern.tree.r)
            slack = 2.0 * boundary[ib] / (r * (r - 1))
            if abs(a.pattern.tree.p - b.pattern.tree.p) > slack:
                continue
            yield ia, ib, cands


def lists_once(cand) -> bool:
    """Whether a built candidate lists each of its occurrences once: a
    pattern transmits an occurrence once, so one that lists it twice is
    never a candidate."""
    listed = corrected_occurrences(cand.pattern)
    return len(set(listed)) == len(listed)


def cheapest_merge(members):
    """The members' concatenation built, or its factorized form built when
    that is strictly cheaper; None when neither can be transmitted or the
    one built lists an occurrence twice."""
    try:
        plain = grow_horizontally([m.pattern for m in members])
    except (DomainError, InvalidPatternError):
        return None
    numbering = members[0].numbering
    best = make_candidate(plain, "horizontal", numbering)
    factored = factorize(plain)
    if factored is not None:
        alt = make_candidate(factored, "factorized", numbering)
        if alt is not None and (best is None or alt.cost < best.cost):
            best = alt
    return best if best is not None and lists_once(best) else None


def build_every_merge(new, pool, k: int) -> list:
    """Horizontal combination building every admissible pair merge.

    Each pair from :func:`slack_pairs` is built and priced, kept when it
    lists each occurrence once (:func:`lists_once`) and beats its
    members, and every maximal clique of the kept pairs is merged whole
    under the same rule; width-``k`` pruning runs once at the end.
    Every candidate is priced against the statistics of the log it is
    numbered over.
    """
    out = []
    adj: dict[int, set[int]] = {}
    cands: list = []
    for ia, ib, cands in slack_pairs(new, pool):
        a, b = cands[ia], cands[ib]
        cand = cheapest_merge([a, b])
        if cand is None:
            continue
        left_out = (cover_pairs(a) | cover_pairs(b)) - cover_pairs(cand)
        residual = residual_bits(a.numbering.stats, label_counts(left_out))
        if cand.cost + residual < a.cost + b.cost:
            out.append(cand)
            adj.setdefault(ia, set()).add(ib)
            adj.setdefault(ib, set()).add(ia)
    for comp in _components(adj, adj):
        if len(comp) <= _CLIQUE_NODE_CAP:
            cliques = maximal_cliques(adj, comp)
        else:
            cliques = _greedy_clique_cover(adj, comp)
        for clique in cliques:
            if len(clique) >= 3:
                cand = cheapest_merge([cands[i] for i in clique])
                if cand is not None:
                    out.append(cand)
    return filter_candidates(out, k)


def layout_cost(layout: MergeLayout, members: Sequence, factored: bool) -> float:
    """Price of the merge that ``layout`` describes over the members,
    candidates numbered over one log (``miner.Candidate``, read as
    ``codec.MergeMember`` s), through the merge's root block: the layout
    path that ``codec.merge_pricer`` replaced, kept as its reference.

    The root's terms are :func:`codec._placed`'s, from its children's
    terms: the members' ``terms``, or, for a ``factored`` layout, the
    members' ``inner_terms`` folded into its one inner block's
    (:func:`codec.block_terms`).  Each occurrence's offset is its
    member's, shifted by the drift of the member's period from the
    root's (:class:`MergeLayout`).  An occurrence keeps its member's
    correction unless it is a join, so the members' ``|E|`` totals are
    summed, and each join's column is replaced by its corrections
    against its new predecessor, repetition by repetition.  The encoder
    reads the offsets of the last repetition's occurrences one by one
    (``last_offset``), only those it needs.
    """
    root = layout.root
    r, last = root.r, root.r - 1
    terms: list = []
    offs, pers, ps = [], [], []
    abs_corrections = 0
    for q in members:
        terms += q.inner_terms if factored else q.terms
        abs_corrections += q.running[r]
        offs.append(q.pattern.offsets)
        pers.append(q.per)
        ps.append(q.pattern.tree.p)
    # Join (m, j) after (n, i) takes, in repetition k, the correction
    # offset(m, j) - offset(n, i) + k d, d the drift between the two.
    ends, starts, drifts, dropped = [], [], [], []
    for (m, j), (n, i) in layout.joins:
        ends += offs[m][j : j + r * pers[m] : pers[m]]
        starts += offs[n][i : i + r * pers[n] : pers[n]]
        if d := ps[m] - ps[n]:
            drifts += range(0, r * d, d)
        else:
            drifts += repeat(0, r)
        dropped += members[m].magnitudes[j : r * pers[m] : pers[m]]
    abs_corrections += sum(map(abs, map(add, map(sub, ends, starts), drifts)))
    abs_corrections -= sum(dropped)

    def last_offset(s: int) -> int:
        m, j = layout.slots[s]
        return offs[m][last * pers[m] + j] + last * (ps[m] - root.p)

    if factored:
        terms = [codec.block_terms(root.children[0].r, terms)]
    bits_a, bits_r, bits_p0, bits_d, bits_tau, bits_e = codec._placed(
        root,
        layout.tau,
        members[0].numbering.stats,
        terms=terms,
        last_offset=last_offset,
        abs_corrections=abs_corrections,
    )
    return bits_a + bits_r + bits_p0 + bits_d + bits_tau + bits_e


def layout_and_repetition_bits(tree: Block, stats: SeqStats) -> tuple[float, float]:
    """The encoder's ``A`` and ``R`` terms by three separate walks.

    ``A``: each block costs one bracket pair, each leaf its event code.
    ``R``: each block's repetition count out of the occurrences its
    rarest event allows, the rarest event found by collecting the
    subtree's events anew at every block.  Raises ``DomainError`` for an
    unknown event and ``UncodablePatternError`` when a block repeats
    more often than its rarest event occurs.
    """

    def layout(node) -> float:
        if isinstance(node, Leaf):
            count = stats.counts.get(node.event)
            if count is None:
                raise DomainError(f"unknown event {node.event!r}")
            return math.log2(3.0 * stats.length / count)
        return 2.0 * math.log2(3.0) + sum(layout(c) for c in node.children)

    def events(node) -> frozenset:
        if isinstance(node, Leaf):
            return frozenset((node.event,))
        return frozenset().union(*(events(c) for c in node.children))

    def repetitions(node: Block) -> float:
        rho = min(stats.counts[e] for e in events(node))
        if node.r > rho:
            raise UncodablePatternError(f"block repeats {node.r} times, rarest {rho}")
        bits = math.log2(rho)
        for child in node.children:
            if isinstance(child, Block):
                bits += repetitions(child)
        return bits

    return layout(tree), repetitions(tree)


def _kept_corrected(p: Pattern, keep_reps: int) -> list[list[tuple[int, str]]]:
    """Corrected occurrences grouped by root repetition, truncated."""
    per_rep = occurrence_count(p.tree) // p.tree.r
    corrected = corrected_occurrences(p)
    return [
        list(corrected[k * per_rep : (k + 1) * per_rep]) for k in range(keep_reps)
    ]


def target_grow_horizontally(instances: Sequence[Pattern]) -> Pattern:
    """Concatenation as siblings under a merged root cycle, built from
    per-repetition targets.

    The instances are ordered by starting point (equal starts as given); the
    merged root keeps the earliest period and start and the minimum
    length, and the distance between consecutive instances' contents is
    the difference of their starting points.  The targets are, per root
    repetition, each member's corrected occurrences of that repetition,
    in member order.
    """
    if len(instances) < 2:
        raise DomainError("horizontal combination needs at least 2 instances")
    inst = sorted(instances, key=lambda q: q.tau)
    r_n = min(q.tree.r for q in inst)
    children: list[Node] = []
    distances: list[int] = []
    for i, q in enumerate(inst):
        if i == 0:
            connect = 0
        else:
            prev_intra = sum(inst[i - 1].tree.distances)
            connect = (q.tau - inst[i - 1].tau) - prev_intra
            if connect < 0:
                raise InvalidPatternError(
                    "instances are too entangled to concatenate "
                    f"(negative connecting distance {connect})"
                )
        children.extend(q.tree.children)
        distances.extend((connect,) + q.tree.distances[1:])
    tree = Block(
        r=r_n, p=inst[0].tree.p, children=tuple(children), distances=tuple(distances)
    )
    member_reps = [_kept_corrected(q, r_n) for q in inst]
    targets = [t for k in range(r_n) for reps in member_reps for t, _ in reps[k]]
    corrections = solve_corrections(tree, inst[0].tau, targets)
    return Pattern(tree=tree, tau=inst[0].tau, corrections=corrections)


def target_factorize(p: Pattern) -> Pattern | None:
    """A root's two same-``(r, p)`` interior children merged into one
    inner block, built from targets: per root repetition, the inner
    repetitions alternate the first child's occurrences and the
    second's.  None when the root has no such pair or the join is
    negative."""
    tree = p.tree
    if len(tree.children) != 2:
        return None
    a, b = tree.children
    if not (isinstance(a, Block) and isinstance(b, Block)):
        return None
    if a.r != b.r or a.p != b.p:
        return None
    connect = tree.distances[1] - sum(a.distances)
    if connect < 0:
        return None
    inner = Block(
        r=a.r,
        p=a.p,
        children=a.children + b.children,
        distances=a.distances + (connect,) + b.distances[1:],
    )
    factored = Block(r=tree.r, p=tree.p, children=(inner,), distances=(0,))
    n_a = occurrence_count(a)
    n_b = occurrence_count(b)
    per_rep = n_a + n_b
    per_rep_a = n_a // a.r
    per_rep_b = n_b // b.r
    corrected = corrected_occurrences(p)
    targets: list[int] = []
    for k in range(tree.r):
        occ_a = corrected[k * per_rep : k * per_rep + n_a]
        occ_b = corrected[k * per_rep + n_a : (k + 1) * per_rep]
        for j in range(a.r):
            targets.extend(t for t, _ in occ_a[j * per_rep_a : (j + 1) * per_rep_a])
            targets.extend(t for t, _ in occ_b[j * per_rep_b : (j + 1) * per_rep_b])
    corrections = solve_corrections(factored, p.tau, targets)
    return Pattern(tree=factored, tau=p.tau, corrections=corrections)


def interleaved_grow_vertically(instances: Sequence[Pattern]) -> Pattern:
    """Same-tree patterns nested under an outer cycle over their starts,
    built by interleaving the instances' correction lists with the
    corrections of the period fitted to the starts.  Assumes the
    instances share one tree and have distinct starts."""
    inst = sorted(instances, key=lambda q: q.tau)
    p, boundaries = fit_period([q.tau for q in inst])
    corrections = list(inst[0].corrections)
    for q, boundary in zip(inst[1:], boundaries):
        corrections.append(boundary)
        corrections.extend(q.corrections)
    tree = Block(r=len(inst), p=p, children=(inst[0].tree,), distances=(0,))
    return Pattern(tree=tree, tau=inst[0].tau, corrections=tuple(corrections))


def pairs_sequence(pairs) -> tuple[EventSequence, tuple[tuple[int, str], ...]]:
    """``EventSequence.from_pairs`` as a set of seen pairs, a list in
    input order and a sort by ``(t, event id)`` tuples: the sequence,
    built from its per-event timestamps, and the sorted pairs, which the
    sequence's derived :attr:`~cadence.core.EventSequence.pairs` must
    equal."""
    seen: set[tuple[int, str]] = set()
    ordered: list[tuple[int, str]] = []
    ids: dict[str, int] = {}
    collapsed = 0
    for item in pairs:
        try:
            t, e = item
        except (TypeError, ValueError):
            t = e = None
        if type(t) is not int or not isinstance(e, str):
            raise DomainError(f"pair {item!r}: need an int timestamp and a str label")
        if t < 0:
            raise DomainError(f"negative timestamp: {t}")
        if (t, e) in seen:
            collapsed += 1
            continue
        seen.add((t, e))
        ordered.append((t, e))
        if e not in ids:
            if not LABEL.fullmatch(e):
                raise DomainError(_label_problem(e))
            ids[e] = len(ids)
    if not ordered:
        raise EmptySequenceError("sequence contains no occurrences")
    ordered.sort(key=lambda p: (p[0], ids[p[1]]))
    per_event: dict[str, list[int]] = {}
    for t, e in ordered:
        per_event.setdefault(e, []).append(t)
    seq = EventSequence(
        alphabet=tuple(sorted(ids, key=ids.__getitem__)),
        per_event={e: tuple(ts) for e, ts in per_event.items()},
        duplicates_collapsed=collapsed,
        _ids=ids,
    )
    return seq, tuple(ordered)


def _parse_line(line: str, number: int, labels: set[str]) -> tuple[int, str]:
    tab = "\t" in line
    parts = line.split("\t" if tab else ",")
    if len(parts) != 2:
        raise ParseError(f"expected 'timestamp{'<TAB>' if tab else ','}label', got {line!r}", number)
    raw_t, label = parts[0].strip(), parts[1].strip()
    if not label:
        raise ParseError("empty event label", number)
    try:
        t = int(raw_t)
    except ValueError:
        raise ParseError(f"timestamp {raw_t!r} is not an integer", number) from None
    if t < 0:
        raise DomainError(f"line {number}: negative timestamp {t}")
    if label not in labels:
        if not LABEL.fullmatch(label):
            raise ParseError(_label_problem(label), number)
        labels.add(label)
    return t, label


def three_pass_load(
    source, opts: IngestOptions | None = None
) -> tuple[EventSequence, tuple[tuple[int, str], ...]]:
    """``load_sequence`` in three passes: parse every line into a list,
    map its timestamps and relabel its rare events, then build through
    :func:`pairs_sequence`, which returns the sequence and its sorted
    pairs.  Its timestamps are read by ``int``, so it also takes ``1_0``
    and non-ASCII digits, which the loader rejects."""
    if opts is None:
        opts = IngestOptions()
    stream = io.StringIO(source) if isinstance(source, str) else source
    raw: list[tuple[int, str]] = []
    labels: set[str] = set()
    for number, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        raw.append(_parse_line(stripped, number, labels))
    if not raw:
        raise EmptySequenceError("input contains no event lines")
    if opts.succession_mode:
        pairs = [(rank, e) for rank, (_, e) in enumerate(raw)]
    else:
        pairs = [(t // opts.granularity, e) for t, e in raw]
    if opts.aggregation_threshold is not None:
        counts = Counter(e for _, e in pairs)
        pairs = [
            (t, e if counts[e] >= opts.aggregation_threshold else OTHER_LABEL)
            for t, e in pairs
        ]
    return pairs_sequence(pairs)


def set_collection_cost(patterns, seq, stats: SeqStats | None = None) -> CollectionReport:
    """``collection_cost`` over sets of pairs: each cover is the sorted
    ``pattern_occurrences``, checked by a set difference and against the
    length of the occurrence list, and the residuals are the log's pairs
    less the union of the covers.  Given ``stats`` must be the log's own
    over their window."""
    if stats is None:
        stats = SeqStats.from_sequence(seq)
    elif stats != SeqStats.from_sequence(seq, stats.t_start, stats.t_end):
        raise DomainError(f"the statistics over [{stats.t_start}, {stats.t_end}] describe another log")
    all_pairs = set(seq.pairs)
    covered: set[tuple[int, str]] = set()
    pattern_bits = 0.0
    entries = []
    shape_counts = {"s": 0, "v": 0, "h": 0, "m": 0}
    max_cover = 0
    for pat in patterns:
        cover = set(pattern_occurrences(pat))
        outside = cover - all_pairs
        if outside:
            raise DomainError(
                f"pattern covers occurrences outside the sequence: "
                f"{sorted(outside)[:3]}"
            )
        listed = corrected_occurrences(pat)
        if len(cover) < len(listed):
            twice = next(o for o in listed if listed.count(o) > 1)
            raise DomainError(
                f"pattern {format_pattern(pat)} lists occurrence {twice} more than once"
            )
        breakdown = pattern_cost(pat, stats)
        shape = classify_tree(pat.tree)
        shape_counts[shape.shape_class[0]] += 1
        max_cover = max(max_cover, len(cover))
        pattern_bits += breakdown.total
        covered |= cover
        entries.append(PatternEntry(
            notation=format_pattern(pat),
            cost=breakdown,
            cover_size=len(cover),
            shape_class=shape.shape_class,
        ))
    residuals = all_pairs - covered
    leftover_bits = residual_bits(stats, Counter(e for _, e in residuals))
    total = pattern_bits + leftover_bits
    baseline = baseline_cost(stats)
    return CollectionReport(
        total_bits=total,
        pattern_bits=pattern_bits,
        residual_bits=leftover_bits,
        residual_count=len(residuals),
        baseline_bits=baseline,
        percent_length=(100.0 * total / baseline) if baseline > 0 else 100.0,
        residual_ratio=(leftover_bits / total) if total > 0 else 1.0,
        shape_counts=shape_counts,
        max_cover=max_cover,
        patterns=tuple(entries),
    )
