"""Cycles, pattern trees, corrections, combination and notation."""

from __future__ import annotations

import dataclasses
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cadence.core import (
    DomainError,
    InvalidPatternError,
)
import cadence
from cadence import synth
from cadence.codec import SeqStats, pattern_cost
from cadence.pattern import (
    Block,
    Leaf,
    Pattern,
    _solve_offsets,
    build_merge,
    classify_tree,
    concat_layout,
    corrected_occurrences,
    corrected_times,
    expand_tree,
    factor_layout,
    factorize,
    fit_cycle,
    fit_period,
    format_pattern,
    format_tree,
    grow_horizontally,
    grow_vertically,
    is_simple,
    leaf_columns,
    occurrence_count,
    parse_pattern,
    parse_tree,
    pattern_occurrences,
    place,
    solve_corrections,
    tree_height,
    tree_width,
)

from _oracles import (
    compile_tree,
    cycle_cover,
    end_offset_by_origins,
    interleaved_grow_vertically,
    placement_by_expansion,
    target_factorize,
    target_grow_horizontally,
    walk_corrections,
)
from conftest import DOZEN_A_PAIRS, TRIAD_PAIRS, block_records, cycle, random_tree

# Reference trees and their full expansions, spelled out by hand from
# the traversal rule: per repetition of a block, all children (and their
# repetitions) are emitted before the next repetition starts.
QUAD = "[r=4 p=2](a)"
TRIPLE = "[r=3 p=13](a)"
NEST = "[r=3 p=13]([r=4 p=2](a))"
FLIPPED_NEST = "[r=4 p=2]([r=3 p=13](a))"
BRAID = "[r=3 p=13](b [d=3] a [d=1] c)"
TIGHT_BRAID = "[r=5 p=4](b [d=3] a [d=1] c)"
RUN_BRAID = "[r=3 p=10](b [d=3] [r=4 p=1](a) [d=1] c)"
DOUBLE_RUN = "[r=2 p=33]([r=3 p=10](b [d=3] [r=4 p=1](a) [d=5] c))"

EXPANSIONS = {
    QUAD: [(0, "a"), (2, "a"), (4, "a"), (6, "a")],
    TRIPLE: [(0, "a"), (13, "a"), (26, "a")],
    NEST: [(t, "a") for t in (0, 2, 4, 6, 13, 15, 17, 19, 26, 28, 30, 32)],
    FLIPPED_NEST: [(t, "a") for t in (0, 13, 26, 2, 15, 28, 4, 17, 30, 6, 19, 32)],
    BRAID: [
        (0, "b"), (3, "a"), (4, "c"),
        (13, "b"), (16, "a"), (17, "c"),
        (26, "b"), (29, "a"), (30, "c"),
    ],
    TIGHT_BRAID: [
        (0, "b"), (3, "a"), (4, "c"),
        (4, "b"), (7, "a"), (8, "c"),
        (8, "b"), (11, "a"), (12, "c"),
        (12, "b"), (15, "a"), (16, "c"),
        (16, "b"), (19, "a"), (20, "c"),
    ],
    RUN_BRAID: [
        (0, "b"), (3, "a"), (4, "a"), (5, "a"), (6, "a"), (4, "c"),
        (10, "b"), (13, "a"), (14, "a"), (15, "a"), (16, "a"), (14, "c"),
        (20, "b"), (23, "a"), (24, "a"), (25, "a"), (26, "a"), (24, "c"),
    ],
    DOUBLE_RUN: [
        (0, "b"), (3, "a"), (4, "a"), (5, "a"), (6, "a"), (8, "c"),
        (10, "b"), (13, "a"), (14, "a"), (15, "a"), (16, "a"), (18, "c"),
        (20, "b"), (23, "a"), (24, "a"), (25, "a"), (26, "a"), (28, "c"),
        (33, "b"), (36, "a"), (37, "a"), (38, "a"), (39, "a"), (41, "c"),
        (43, "b"), (46, "a"), (47, "a"), (48, "a"), (49, "a"), (51, "c"),
        (53, "b"), (56, "a"), (57, "a"), (58, "a"), (59, "a"), (61, "c"),
    ],
}

NEST_PATTERN = f"{NEST} @ tau=2 E=[1,0,-1,-2,0,3,-1,0,1,1,-1]"
FLIPPED_PATTERN = f"{FLIPPED_NEST} @ tau=2 E=[-2,0,1,-3,1,0,0,-1,-1,0,-1]"
BRAID_PATTERN = f"{BRAID} @ tau=2 E=[0,1,-2,2,2,0,1,0]"


class TestCycle:
    def test_validation(self):
        with pytest.raises(InvalidPatternError):
            cycle("a", r=1, p=5, tau=0, corrections=())
        with pytest.raises(InvalidPatternError):
            cycle("a", r=3, p=0, tau=0, corrections=(0, 0))
        with pytest.raises(InvalidPatternError):
            cycle("a", r=3, p=5, tau=-1, corrections=(0, 0))
        with pytest.raises(InvalidPatternError):
            cycle("a", r=3, p=5, tau=0, corrections=(0,))

    def test_sigma_and_span(self):
        # the last occurrence lies (r - 1) p + sum(E) after the first
        c = cycle("a", r=4, p=2, tau=2, corrections=(1, 0, -1))
        times = [t for t, _ in pattern_occurrences(c)]
        assert sum(c.corrections) == 0
        assert times[-1] - times[0] == 6 == (c.tree.r - 1) * c.tree.p + sum(c.corrections)


class TestCycleCover:
    def test_quad_burst(self):
        c = parse_pattern("[r=4 p=2](a) @ tau=2 E=[1,0,-1]")
        assert cycle_cover(c) == (2, 5, 7, 8)
        assert [t for t, _ in corrected_occurrences(c)] == [2, 5, 7, 8]

    def test_perfect(self):
        c = parse_pattern("[r=3 p=7](a) @ tau=0 E=[0,0]")
        assert cycle_cover(c) == (0, 7, 14)
        assert [t for t, _ in corrected_occurrences(c)] == [0, 7, 14]


    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(2, 12),
        p=st.integers(1, 30),
        tau=st.integers(40, 90),
        event=st.sampled_from(["a", "b"]),
        data=st.data(),
    )
    def test_a_cycle_is_read_without_compiling_its_tree(self, r, p, tau, event, data):
        # Its perfect times are k * p and its events r copies of its leaf.
        corrections = data.draw(st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1))
        c = cycle(event, r=r, p=p, tau=tau, corrections=corrections)
        reference = compile_tree(c.tree)
        times = [tau + t + off for t, off in zip(reference.times, c.offsets)]
        assert corrected_times(c) == times
        assert corrected_occurrences(c) == tuple(zip(times, reference.events))
        assert block_records(c.tree) <= {"count", "placement"}


class TestFit:
    def test_fit_cycle_quad_burst(self):
        c = fit_cycle((2, 5, 7, 8), "a")
        assert (c.tree.p, c.tau, c.corrections) == (2, 2, (1, 0, -1))

    def test_fit_cycle_perfect(self):
        c = fit_cycle((0, 7, 14, 21), "a")
        assert (c.tree.p, c.corrections) == (7, (0, 0, 0))

    def test_fit_cycle_sparse_triple(self):
        c = fit_cycle((2, 13, 26), "a")
        assert (c.tree.p, c.tau, c.corrections) == (13, 2, (-2, 0))

    def test_fit_cycle_is_one_block_over_one_leaf(self):
        c = fit_cycle((2, 13, 26), "a")
        assert c == cycle("a", r=3, p=13, tau=2, corrections=(-2, 0))
        assert is_simple(c.tree)
        assert format_pattern(c) == "[r=3 p=13](a) @ tau=2 E=[-2,0]"
        assert parse_pattern(format_pattern(c)) == c

    def test_even_diff_count_takes_upper_middle(self):
        # diffs (1, 5): both medians give |E| = 4; the larger one wins
        assert fit_period((0, 1, 6)) == (5, (-4, 0))

    def test_too_short(self):
        with pytest.raises(DomainError):
            fit_period((3,))

    def test_not_increasing(self):
        with pytest.raises(DomainError):
            fit_period((3, 3, 5))

    @given(
        st.lists(st.integers(0, 500), min_size=2, max_size=20, unique=True)
    )
    def test_fit_cycle_reconstructs_input(self, raw):
        ts = tuple(sorted(raw))
        assert cycle_cover(fit_cycle(ts, "a")) == ts


class TestExpandTree:
    @pytest.mark.parametrize("notation", sorted(EXPANSIONS))
    def test_reference_expansions(self, notation):
        occs, origins = expand_tree(parse_tree(notation))
        assert list(occs) == EXPANSIONS[notation]
        assert len(origins) == len(occs)

    def test_origins_paths_and_repetitions(self):
        _, origins = expand_tree(parse_tree(BRAID))
        # first repetition: children 0..2, then the same for repetition 1
        assert origins[0] == ((0,), (0,))
        assert origins[1] == ((1,), (0,))
        assert origins[2] == ((2,), (0,))
        assert origins[3] == ((0,), (1,))

    def test_origins_nested_runs(self):
        _, origins = expand_tree(parse_tree(RUN_BRAID))
        # occurrences 1..4 are the four repetitions of the inner a-block
        assert origins[1] == ((1, 0), (0, 0))
        assert origins[4] == ((1, 0), (0, 3))
        assert origins[5] == ((2,), (0,))

    def test_node_measures(self):
        tree = parse_tree(RUN_BRAID)
        assert occurrence_count(tree) == 18
        assert tree_width(tree) == 3
        assert tree_height(tree) == 2
        assert not is_simple(tree)
        assert is_simple(parse_tree(QUAD))


class TestCorrections:
    def test_nested_pattern_rebuilds_dozen_log(self):
        p = parse_pattern(NEST_PATTERN)
        assert pattern_occurrences(p) == DOZEN_A_PAIRS

    def test_flipped_nest_rebuilds_dozen_log(self):
        # same cover, but the occurrences are emitted out of time order
        p = parse_pattern(FLIPPED_PATTERN)
        corrected = corrected_occurrences(p)
        assert sorted(t for t, _ in corrected) != [t for t, _ in corrected]
        assert pattern_occurrences(p) == DOZEN_A_PAIRS

    def test_braid_pattern_rebuilds_triad_log(self):
        p = parse_pattern(BRAID_PATTERN)
        assert pattern_occurrences(p) == TRIAD_PAIRS

    def test_first_occurrence_offset_is_zero(self):
        p = parse_pattern(NEST_PATTERN)
        assert p.offsets[0] == 0

    def test_zero_corrections_shift_perfect_expansion(self):
        tree = parse_tree(BRAID)
        p = Pattern(tree=tree, tau=5, corrections=(0,) * 8)
        occs, _ = expand_tree(tree)
        assert corrected_occurrences(p) == tuple((t + 5, e) for t, e in occs)

    def test_solve_inverts_accumulate_on_reference_patterns(self):
        for text in (NEST_PATTERN, FLIPPED_PATTERN, BRAID_PATTERN):
            p = parse_pattern(text)
            ts = [t for t, _ in corrected_occurrences(p)]
            assert solve_corrections(p.tree, p.tau, ts) == p.corrections

    def test_solve_rejects_mismatched_start(self):
        tree = parse_tree(QUAD)
        with pytest.raises(DomainError):
            solve_corrections(tree, 2, [3, 4, 6, 8])

    def test_solve_rejects_wrong_length(self):
        tree = parse_tree(QUAD)
        with pytest.raises(DomainError):
            solve_corrections(tree, 2, [2, 4, 6])

    def test_solving_walks_the_leaf_columns_backwards(self):
        # On random trees of height <= 5, interleaved roots and blocks
        # beside sibling blocks among them: solving inverts the offsets
        # that the compiled reference's predecessors give, solving a
        # pattern's corrected times returns its corrections, both errors
        # keep their messages, and a planted tree's span is its largest
        # perfect time.
        rng = random.Random(4141)
        seen = Counter()
        for _ in range(1500):
            tree = random_tree(rng, depth=rng.randint(1, 5), leaves=rng.randint(1, 5))
            n = tree.count
            reference = compile_tree(tree)
            corrections = tuple(rng.randint(-3, 3) for _ in range(n - 1))
            offsets = [0] * n
            for i in range(1, n):
                offsets[i] = corrections[i - 1] + offsets[reference.pred[i]]
            assert _solve_offsets(tree, offsets) == corrections

            p = Pattern(tree=tree, tau=3 * n + rng.randint(0, 6), corrections=corrections)
            assert list(p.offsets) == offsets
            times = corrected_times(p)
            assert solve_corrections(tree, p.tau, times) == corrections
            with pytest.raises(DomainError, match=f"^expected {n} timestamps, got {n - 1}$"):
                solve_corrections(tree, p.tau, times[1:])
            with pytest.raises(DomainError, match="^first corrected timestamp must equal tau$"):
                solve_corrections(tree, p.tau + 1, times)
            assert synth._pattern_span(tree) == max(reference.times)

            seen["interleaved root"] += tree.placement.interleaved
            seen["height 4 or 5"] += tree_height(tree) >= 4
            seen["split block"] += _split_block(tree)
        assert min(seen.values()) > 50, seen

    def test_negative_corrected_timestamp_rejected(self):
        p = Pattern(tree=parse_tree(QUAD), tau=0, corrections=(-5, 0, 0))
        with pytest.raises(InvalidPatternError):
            corrected_occurrences(p)

    def test_first_negative_timestamp_is_named(self):
        # traversal order, not the most negative: -1 comes before -4
        p = Pattern(tree=parse_tree("[r=4 p=1](a)"), tau=0, corrections=(-2, 0, -5))
        with pytest.raises(InvalidPatternError, match="corrected timestamp -1 is negative"):
            corrected_occurrences(p)

    def test_pattern_occurrences_sorted_and_unique(self):
        p = parse_pattern(FLIPPED_PATTERN)
        occs = pattern_occurrences(p)
        assert list(occs) == sorted(set(occs))


class TestClassify:
    @pytest.mark.parametrize(
        "notation, shape_class, interleaved, overlaps",
        [
            (QUAD, "simple", False, False),
            (NEST, "vertical", False, False),
            (FLIPPED_NEST, "vertical", True, False),
            (BRAID, "horizontal", False, False),
            (TIGHT_BRAID, "horizontal", False, True),
            (RUN_BRAID, "mixed", True, True),
        ],
    )
    def test_shapes(self, notation, shape_class, interleaved, overlaps):
        shape = classify_tree(parse_tree(notation))
        assert shape.shape_class == shape_class
        assert shape.interleaved == interleaved
        assert shape.overlaps == overlaps

    def test_dimensions(self):
        shape = classify_tree(parse_tree(RUN_BRAID))
        assert (shape.height, shape.width) == (2, 3)


class TestGrowVertically:
    def test_three_bursts_nest_exactly(self):
        instances = [
            parse_pattern(f"{QUAD} @ tau=2 E=[1,0,-1]"),
            parse_pattern(f"{QUAD} @ tau=13 E=[0,3,-1]"),
            parse_pattern(f"{QUAD} @ tau=26 E=[1,1,-1]"),
        ]
        grown = grow_vertically(instances)
        assert format_pattern(grown) == NEST_PATTERN
        union = sorted(set().union(*(pattern_occurrences(q) for q in instances)))
        assert pattern_occurrences(grown) == tuple(union)

    def test_perfect_copies_get_zero_corrections(self):
        tree = parse_tree(QUAD)
        instances = [
            Pattern(tree=tree, tau=t, corrections=(0, 0, 0)) for t in (0, 10, 20)
        ]
        grown = grow_vertically(instances)
        assert format_pattern(grown) == (
            "[r=3 p=10]([r=4 p=2](a)) @ tau=0 E=[0,0,0,0,0,0,0,0,0,0,0]"
        )

    def test_needs_three_instances(self):
        tree = parse_tree(QUAD)
        instances = [
            Pattern(tree=tree, tau=t, corrections=(0, 0, 0)) for t in (0, 10)
        ]
        with pytest.raises(DomainError):
            grow_vertically(instances)

    def test_needs_identical_trees(self):
        instances = [
            Pattern(tree=parse_tree(QUAD), tau=0, corrections=(0, 0, 0)),
            Pattern(tree=parse_tree(TRIPLE), tau=10, corrections=(0, 0)),
            Pattern(tree=parse_tree(QUAD), tau=20, corrections=(0, 0, 0)),
        ]
        with pytest.raises(DomainError):
            grow_vertically(instances)

    def test_needs_distinct_starts(self):
        tree = parse_tree(QUAD)
        instances = [
            Pattern(tree=tree, tau=t, corrections=(0, 0, 0)) for t in (0, 0, 20)
        ]
        with pytest.raises(DomainError):
            grow_vertically(instances)


class TestGrowHorizontally:
    def test_three_tracks_braid(self):
        instances = [
            parse_pattern("[r=3 p=13](b) @ tau=2 E=[-2,0]"),
            parse_pattern("[r=3 p=13](a) @ tau=5 E=[0,-1]"),
            parse_pattern("[r=3 p=13](c) @ tau=7 E=[1,-3]"),
        ]
        grown = grow_horizontally(instances)
        assert format_pattern(grown) == (
            "[r=3 p=13](b [d=3] a [d=2] c) @ tau=2 E=[0,0,-2,2,1,0,1,-1]"
        )
        assert pattern_occurrences(grown) == TRIAD_PAIRS

    def test_aligned_perfect_tracks(self):
        instances = [
            Pattern(tree=parse_tree("[r=3 p=10](x)"), tau=0, corrections=(0, 0)),
            Pattern(tree=parse_tree("[r=3 p=10](y)"), tau=4, corrections=(0, 0)),
        ]
        grown = grow_horizontally(instances)
        assert format_pattern(grown) == (
            "[r=3 p=10](x [d=4] y) @ tau=0 E=[0,0,0,0,0]"
        )
        assert factorize(grown) is None

    def test_longer_member_truncated_to_shortest(self):
        instances = [
            Pattern(tree=parse_tree("[r=4 p=10](x)"), tau=0, corrections=(0, 0, 0)),
            Pattern(tree=parse_tree("[r=3 p=10](y)"), tau=4, corrections=(0, 0)),
        ]
        grown = grow_horizontally(instances)
        assert grown.tree.r == 3
        expected = sorted(
            [(t, "x") for t in (0, 10, 20)] + [(t, "y") for t in (4, 14, 24)]
        )
        assert pattern_occurrences(grown) == tuple(expected)

    def test_entangled_members_rejected(self):
        instances = [
            Pattern(
                tree=parse_tree("[r=2 p=30](x [d=5] y)"),
                tau=0,
                corrections=(0, 0, 0),
            ),
            Pattern(tree=parse_tree("[r=2 p=30](z)"), tau=3, corrections=(0,)),
        ]
        with pytest.raises(InvalidPatternError):
            grow_horizontally(instances)

    def test_needs_two_instances(self):
        with pytest.raises(DomainError):
            grow_horizontally(
                [Pattern(tree=parse_tree(QUAD), tau=0, corrections=(0, 0, 0))]
            )

    def test_factorization_considered_with_statistics(self):
        tree = parse_tree("[r=2 p=50]([r=3 p=5](a))")
        instances = [
            Pattern(tree=tree, tau=0, corrections=(0,) * 5),
            Pattern(tree=tree, tau=20, corrections=(0,) * 5),
        ]
        plain = grow_horizontally(instances)
        assert len(plain.tree.children) == 2

        cover = sorted(set().union(*(pattern_occurrences(q) for q in instances)))
        stats = SeqStats(
            length=len(cover),
            t_start=0,
            t_end=cover[-1][0] + 10,
            counts={"a": len(cover)},
        )
        factored = factorize(plain)
        assert format_tree(factored.tree) == "[r=2 p=50]([r=3 p=5](a [d=20] a))"
        assert pattern_occurrences(factored) == tuple(cover)
        assert (
            pattern_cost(factored, stats).total
            <= pattern_cost(plain, stats).total + 1e-9
        )


def closes_with_a_leaf(tree: Block) -> bool:
    """Whether a child block of the root ends with a leaf."""
    return any(
        isinstance(c, Block) and isinstance(c.children[-1], Leaf) for c in tree.children
    )


def random_pattern(rng: random.Random, tree: Block, lo: int, hi: int) -> Pattern:
    """A pattern over the tree with corrections in -1..1, started in
    ``lo..hi`` past a margin that keeps every corrected time positive."""
    n = occurrence_count(tree)
    corrections = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n - 1))
    return Pattern(tree=tree, tau=n + rng.randint(lo, hi), corrections=corrections)


class TestMergeLayouts:
    # The constructors built from a merge layout equal the target-and-solve
    # builders they replaced, on random draws of every kind of merge.
    def test_merge_order_keeps_equal_starts_in_the_given_order(self):
        # grow_horizontally orders its members by start alone, and members
        # with equal starts keep the order they are given in: its merge is
        # the one laid out in that stable order, and reversing a tie can
        # give another merge.
        rng = random.Random(45)
        seen: Counter = Counter()
        for draw in range(800):
            members = []
            for _ in range(2 + draw % 3):
                tree = random_tree(rng, depth=2, leaves=2)
                corrections = [rng.choice((-1, 0, 0, 1)) for _ in range(tree.count - 1)]
                tau = 60 + rng.choice((0, 0, 0, 5, rng.randint(1, 20)))
                members.append(Pattern(tree=tree, tau=tau, corrections=tuple(corrections)))
            rng.shuffle(members)
            ordered = sorted(members, key=lambda q: q.tau)
            try:
                want = build_merge(concat_layout(ordered), ordered)
            except InvalidPatternError:
                with pytest.raises(InvalidPatternError):
                    grow_horizontally(members)
                seen["negative distance"] += 1
                continue
            assert grow_horizontally(members) == want
            seen["merged"] += 1
            if len({q.tau for q in members}) == len(members):
                seen["untied"] += 1
                continue
            seen["tied"] += 1
            try:
                seen["the tie's order decides"] += grow_horizontally(members[::-1]) != want
            except InvalidPatternError:
                seen["reversed, negative distance"] += 1
        for kind in ("negative distance", "tied", "the tie's order decides", "untied"):
            assert seen[kind] >= 50, seen

    def test_concatenation_equals_the_target_builder(self):
        rng = random.Random(41)
        seen: Counter = Counter()
        for draw in range(1500):
            members = [
                random_pattern(rng, random_tree(rng, depth=3, leaves=3), 0, 30)
                for _ in range(2 + draw % 3)
            ]
            try:
                want = target_grow_horizontally(members)
            except InvalidPatternError as exc:
                with pytest.raises(InvalidPatternError, match=re.escape(str(exc))):
                    grow_horizontally(members)
                seen["negative join"] += 1
                continue
            got = grow_horizontally(members)
            assert got == want
            seen["built"] += 1
            seen["unequal r"] += len({q.tree.r for q in members}) > 1
            seen["interleaved"] += got.tree.placement.interleaved
            seen["leaf closes"] += closes_with_a_leaf(got.tree)
        assert seen["built"] >= 1000, seen
        for kind in ("negative join", "unequal r", "interleaved", "leaf closes"):
            assert seen[kind] >= 100, seen

    def test_factorization_equals_the_target_builder(self):
        # Concatenations of two roots that each hold one block, the
        # blocks of one (r, p) in most draws.
        rng = random.Random(42)
        seen: Counter = Counter()
        for _ in range(1500):
            shapes = [(rng.randint(2, 3), rng.randint(2, 6))] * 2
            if rng.random() < 0.1:
                shapes[1] = (shapes[0][0], shapes[0][1] + 1)
            members = []
            for r, p in shapes:
                inner = random_tree(rng, depth=2, leaves=3)
                inner = dataclasses.replace(inner, r=r, p=p)
                r_root = rng.randint(2, 4)
                tree = Block(r=r_root, p=30, children=(inner,), distances=(0,))
                members.append(random_pattern(rng, tree, 0, 15))
            grown = grow_horizontally(members)
            got, want = factorize(grown), target_factorize(grown)
            assert got == want
            if got is None:
                seen["negative join" if shapes[0] == shapes[1] else "other shape"] += 1
                continue
            seen["built"] += 1
            seen["unequal r"] += members[0].tree.r != members[1].tree.r
            seen["interleaved"] += got.tree.placement.interleaved
            seen["leaf closes"] += closes_with_a_leaf(grown.tree)
        assert seen["built"] >= 1000, seen
        for kind in ("negative join", "other shape", "unequal r", "interleaved"):
            assert seen[kind] >= 50, seen
        assert seen["leaf closes"] >= 50, seen

    def test_layouts_place_and_join_as_the_built_root_compiles(self):
        # place() reads a root's repetition off its children's records;
        # the root's perfect expansion gives the same width,
        # interleaving, right-most leaves and size, for concatenations
        # of 2 to 4 members, their factorized forms (an inner block
        # child) and nestings of a member's tree.  The pattern a layout
        # builds keeps the layout's root, and a layout's joins are the
        # root's predecessors that are not the member's own.
        rng = random.Random(44)
        seen: Counter = Counter()

        def check(root, kind):
            placement = place(root)
            assert placement == root.placement == placement_by_expansion(root)
            seen[kind] += 1
            seen[kind, "interleaved"] += placement.interleaved

        def check_layout(layout, members, kind):
            root = layout.root
            check(root, kind)
            assert build_merge(layout, members).tree is root
            pred = compile_tree(root).pred[: root.placement.size]
            own = [compile_tree(q.tree).pred for q in members]
            joins = set()
            for s, t in enumerate(pred[1:], 1):
                (m, j), (n, i) = layout.slots[s], layout.slots[t]
                if (n, i) != (m, own[m][j]):
                    joins.add(((m, j), (n, i)))
            assert set(layout.joins) == joins

        for draw in range(1500):
            members = [
                random_pattern(rng, random_tree(rng, depth=3, leaves=3), 0, 30)
                for _ in range(2 + draw % 3)
            ]
            members.sort(key=lambda q: (q.tau, format_tree(q.tree)))
            try:
                layout = concat_layout(members)
            except InvalidPatternError:
                continue
            check_layout(layout, members, "concatenated")
            shape = rng.randint(2, 3), rng.randint(2, 6)
            pair = []
            for _ in range(2):
                inner = dataclasses.replace(random_tree(rng, depth=2, leaves=3), r=shape[0], p=shape[1])
                tree = Block(r=rng.randint(2, 4), p=30, children=(inner,), distances=(0,))
                pair.append(random_pattern(rng, tree, 0, 15))
            pair.sort(key=lambda q: (q.tau, format_tree(q.tree)))
            if (factored := factor_layout(concat_layout(pair))) is not None:
                check_layout(factored, pair, "factorized")
            tree = members[0].tree
            check(Block(rng.randint(2, 4), rng.randint(1, 40), (tree,), (0,)), "nested")
        for kind in ("concatenated", "factorized"):
            assert seen[kind] >= 900, seen
            assert seen[kind, "interleaved"] >= 100, seen
            assert seen[kind] - seen[kind, "interleaved"] >= 10, seen
        assert seen["nested", "interleaved"] >= 100, seen

    def test_nesting_equals_the_interleaved_corrections(self):
        # Solving a nesting's corrections against its members' corrected
        # occurrences gives the corrections interleaved with the fitted
        # start corrections, which grow_vertically used to assemble.
        rng = random.Random(43)
        seen: Counter = Counter()
        for _ in range(1000):
            tree = random_tree(rng, depth=3, leaves=3)
            period = rng.randint(1, 40)
            members = [
                random_pattern(rng, tree, i * period, i * period + 3)
                for i in range(rng.randint(3, 6))
            ]
            if len({q.tau for q in members}) < len(members):
                continue
            rng.shuffle(members)
            got = grow_vertically(members)
            assert got == interleaved_grow_vertically(members)
            seen["built"] += 1
            seen["interleaved"] += got.tree.placement.interleaved
            seen["nested"] += any(isinstance(c, Block) for c in tree.children)
        assert seen["built"] >= 900, seen
        for kind in ("interleaved", "nested"):
            assert seen[kind] >= 100, seen


# ---------------------------------------------------------------------------
# Property tests over randomly generated trees


@st.composite
def small_trees(draw, depth=2):
    r = draw(st.integers(2, 3))
    p = draw(st.integers(1, 40))
    if depth > 0 and draw(st.booleans()):
        n_children = draw(st.integers(1, 2))
        children = tuple(draw(small_trees(depth=depth - 1)) for _ in range(n_children))
    else:
        n_children = draw(st.integers(1, 3))
        children = tuple(
            Leaf(draw(st.sampled_from("abc"))) for _ in range(n_children)
        )
    distances = (0,) + tuple(
        draw(st.integers(0, 6)) for _ in range(n_children - 1)
    )
    return Block(r=r, p=p, children=children, distances=distances)


@st.composite
def small_patterns(draw):
    tree = draw(small_trees())
    n = occurrence_count(tree)
    corrections = tuple(
        draw(st.integers(-2, 2)) for _ in range(n - 1)
    )
    # a start beyond any possible cumulative offset keeps every corrected
    # timestamp non-negative (offsets are sums of subsets of corrections)
    tau = draw(st.integers(2 * n, 2 * n + 100))
    return Pattern(tree=tree, tau=tau, corrections=corrections)


@settings(max_examples=60)
@given(small_trees())
def test_tree_notation_round_trips(tree):
    assert parse_tree(format_tree(tree)) == tree


@settings(max_examples=60)
@given(small_patterns())
def test_pattern_notation_round_trips(p):
    assert parse_pattern(format_pattern(p)) == p


@settings(max_examples=60)
@given(small_patterns())
def test_solve_inverts_accumulate(p):
    ts = [t for t, _ in corrected_occurrences(p)]
    assert solve_corrections(p.tree, p.tau, ts) == p.corrections


@settings(max_examples=60)
@given(small_trees(), st.integers(0, 50))
def test_offsets_of_zero_corrections_are_zero(tree, tau):
    n = occurrence_count(tree)
    p = Pattern(tree=tree, tau=tau, corrections=(0,) * (n - 1))
    assert p.offsets == (0,) * n


class TestCompiledKernel:
    # Offsets, their inverse and the interleaved end offset against the
    # recursive walk and the origins-based rule, on 2,000 random trees
    # of height <= 3, at most 3 leaves and root lengths 2 to 4.
    def test_matches_the_recursive_walk_and_the_origins_rule(self):
        rng = random.Random(2024)
        interleaved = 0
        for _ in range(2000):
            tree = random_tree(rng, depth=3, leaves=3)
            n = occurrence_count(tree)
            compiled = compile_tree(tree)
            occs, _ = expand_tree(tree)
            assert tuple(zip(compiled.times, compiled.events)) == occs
            ts = [t for t, _ in occs]
            assert tree.placement.interleaved == (ts != sorted(ts))
            interleaved += tree.placement.interleaved

            corrections = tuple(rng.randint(-3, 3) for _ in range(n - 1))
            p = Pattern(tree=tree, tau=10 * n, corrections=corrections)
            offsets = p.offsets
            assert list(offsets) == walk_corrections(tree, (0,) + corrections, False)
            # the encoder's end of the last repetition's content
            rep = tree.placement
            last = offsets[(tree.r - 1) * rep.size :]
            end = min(last[i] for i in rep.last_right) if rep.interleaved else last[-1]
            assert end == end_offset_by_origins(tree, offsets)

            corrected = [t for t, _ in corrected_occurrences(p)]
            assert solve_corrections(tree, p.tau, corrected) == corrections
            targets = [c - p.tau - t for c, t in zip(corrected, ts)]
            assert walk_corrections(tree, targets, True)[1:] == list(corrections)
        assert interleaved > 200

    def test_first_occurrence_is_the_only_root_of_the_predecessors(self):
        compiled = compile_tree(parse_tree(DOUBLE_RUN))
        assert compiled.pred[0] == -1
        assert all(0 <= q < i for i, q in enumerate(compiled.pred) if i)

    def test_last_right_holds_the_last_repetition_right_most_leaves(self):
        def last_right(text):
            tree = parse_tree(text)
            rep = place(tree)
            return tuple((tree.r - 1) * rep.size + i for i in rep.last_right)

        # FLIPPED_NEST's only leaf is its parent's right-most child: the
        # last root repetition is occurrences 9..11.
        assert last_right(FLIPPED_NEST) == (9, 10, 11)
        # In RUN_BRAID's last repetition (12..17) every a is its inner
        # block's only child and c closes the root's children; b does not.
        assert last_right(RUN_BRAID) == (13, 14, 15, 16, 17)


def _split_block(node) -> bool:
    """Whether some child block has a sibling, so that the block's
    instances are not contiguous in traversal order."""
    if isinstance(node, Leaf):
        return False
    beside = len(node.children) > 1 and any(isinstance(c, Block) for c in node.children)
    return beside or any(_split_block(c) for c in node.children)


class TestLeafColumns:
    # The leaf-column kernel against the recursive walk on random trees
    # of height <= 4: offsets, corrected times and their events, the
    # first negative corrected time, and classify_tree's overlaps and
    # interleaving, read off perfect columns.  Roots interleave, and
    # blocks beside sibling blocks have instances that are not
    # contiguous in traversal order.
    def test_matches_the_recursive_walk(self):
        rng = random.Random(4040)
        seen = Counter()
        for _ in range(1500):
            tree = random_tree(rng, depth=4, leaves=4)
            n = tree.count
            corrections = tuple(rng.randint(-4, 4) for _ in range(n - 1))
            p = Pattern(tree=tree, tau=rng.randint(0, 6), corrections=corrections)
            occs, _ = expand_tree(tree)
            offsets = walk_corrections(tree, (0,) + corrections, False)
            times = [p.tau + t + off for (t, _), off in zip(occs, offsets)]
            assert list(p.offsets) == offsets

            columns = leaf_columns(p)
            at_all = sorted(i for _, at, _, _ in columns for i in range(n)[at])
            assert at_all == list(range(n))
            for event, at, perfect, column in columns:
                assert {occs[i][1] for i in range(n)[at]} == {event}
                assert list(perfect) == [p.tau + t for t, _ in occs[at]]
                assert column == offsets[at]
            if min(times) < 0:
                first = next(t for t in times if t < 0)
                message = f"^corrected timestamp {first} is negative$"
                with pytest.raises(InvalidPatternError, match=message):
                    corrected_times(p)
                with pytest.raises(InvalidPatternError, match=message):
                    corrected_occurrences(p)
                seen["negative"] += 1
            else:
                assert corrected_times(p) == times
                assert corrected_occurrences(p) == tuple(zip(times, [e for _, e in occs]))

            perfect = [t for t, _ in occs]
            shape = classify_tree(tree)
            assert shape.overlaps == (len(set(perfect)) < n)
            assert shape.interleaved == (perfect != sorted(perfect))
            seen["interleaved root"] += shape.interleaved
            seen["height 4"] += tree_height(tree) == 4
            seen["split block"] += _split_block(tree)
            assert block_records(tree) <= {"count", "placement"}
        assert min(seen.values()) > 50, seen


class TestNotation:
    @pytest.mark.parametrize("notation", sorted(EXPANSIONS))
    def test_reference_trees_round_trip(self, notation):
        assert format_tree(parse_tree(notation)) == notation

    def test_pattern_round_trip(self):
        assert format_pattern(parse_pattern(BRAID_PATTERN)) == BRAID_PATTERN
        assert str(parse_pattern(BRAID_PATTERN)) == BRAID_PATTERN

    def test_a_pattern_pickled_under_another_hash_seed_hashes_afresh(self, tmp_path):
        # A pattern keeps its hash, which follows the process's string
        # hash seed; one unpickled in another process must equal and hash
        # like the same pattern made there.
        src = str(Path(cadence.__file__).resolve().parents[1])
        saved = tmp_path / "pattern.pickle"
        script = (
            "import pickle, sys\n"
            "from cadence import parse_pattern\n"
            f"p = parse_pattern({BRAID_PATTERN!r})\n"
            f"path = {str(saved)!r}\n"
            "if sys.argv[1] == 'save':\n"
            "    open(path, 'wb').write(pickle.dumps(p))\n"
            "else:\n"
            "    q = pickle.loads(open(path, 'rb').read())\n"
            "    print(q == p, q in {p}, len({p, q}))\n"
        )
        outputs = []
        for hash_seed, step in (("1", "save"), ("2", "load")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            done = subprocess.run(
                [sys.executable, "-c", script, step],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            outputs.append(done.stdout)
        assert outputs == ["", "True True 1\n"]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a",  # root must be a block
            "[r=4 p=2](a",  # unterminated
            "[r=4 p=2](a) extra",  # trailing input
            "[r=1 p=2](a)",  # block length too small
            "[r=4 p=0](a)",  # period too small
            "[r=4 p=2](a b)",  # missing distance marker
            "[r=4 p=2](a) @ tau=x E=[]",  # malformed start
            "[r=3 p=2](a) @ tau=0 E=[1,,2]",  # malformed corrections
            "[r=3 p=2](a) @ tau=0 E=[-,1]",
            "[r=3 p=2](a) @ tau=0 E=[1 2]",
            "[r=3 p=2](a) @ tau=0 E=[1-2,0]",
            # digits are ASCII: int() would read the Arabic-Indic three as 3
            "[r=\u0663 p=5](a) @ tau=0 E=[0,0]",
            "[r=3 p=5](a) @ tau=\u0663 E=[0,0]",
            "[r=3 p=\uff15](a)",
            "[r=2 p=9](a [d=\u0661] b)",
        ],
    )
    def test_bad_notation_rejected(self, text):
        with pytest.raises(DomainError):
            parse_pattern(text) if "@" in text else parse_tree(text)


class TestBlockRecords:
    # count and placement are worked out on first read and are no part
    # of a block's identity.
    def test_equal_trees_compare_and_hash_alike_read_or_not(self):
        assert [f.name for f in dataclasses.fields(Block)] == ["r", "p", "children", "distances"]
        rng = random.Random(45)
        for _ in range(200):
            text = format_tree(random_tree(rng, depth=3, leaves=3))
            read, fresh = parse_tree(text), parse_tree(text)
            read.count, read.placement
            assert read == fresh and hash(read) == hash(fresh)
            assert {read: 1}[fresh] == 1
            assert fresh.count == read.count

    def test_replace_counts_the_new_block(self):
        rng = random.Random(46)
        for _ in range(200):
            tree = random_tree(rng, depth=3, leaves=3)
            before = tree.count
            r = rng.randint(2, 9)
            grown = dataclasses.replace(tree, r=r)
            assert grown.count == r * before // tree.r
            assert grown.count == len(expand_tree(grown)[0])
            assert tree.count == before


class TestBlockValidation:
    def test_first_distance_must_be_zero(self):
        with pytest.raises(InvalidPatternError):
            Block(r=2, p=5, children=(Leaf("a"), Leaf("b")), distances=(1, 2))

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidPatternError):
            Block(r=2, p=5, children=(Leaf("a"), Leaf("b")), distances=(0, -1))

    def test_distance_slots_must_match_children(self):
        with pytest.raises(InvalidPatternError):
            Block(r=2, p=5, children=(Leaf("a"),), distances=(0, 0))

    def test_pattern_root_must_be_block(self):
        with pytest.raises(InvalidPatternError):
            Pattern(tree=Leaf("a"), tau=0, corrections=())

    def test_pattern_corrections_length_checked(self):
        with pytest.raises(InvalidPatternError):
            Pattern(tree=parse_tree(QUAD), tau=0, corrections=(0, 0))
