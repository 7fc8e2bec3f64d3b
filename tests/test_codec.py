"""Cost model: residuals, pattern codes, collections, thresholds."""

from __future__ import annotations

import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from cadence.codec import (
    CostBreakdown,
    SeqStats,
    _placed,
    add_bits,
    baseline_cost,
    child_terms,
    collection_cost,
    corrections_cost,
    efficiency,
    extension_margin,
    is_cost_effective,
    pattern_cost,
    residual_bits,
    residual_cost,
    w_threshold,
)
from cadence.core import (
    CadenceError,
    DomainError,
    EventSequence,
    UncodablePatternError,
    load_sequence,
)
from cadence.pattern import (
    Leaf,
    Pattern,
    classify_tree,
    corrected_occurrences,
    corrected_times,
    fit_cycle,
    format_tree,
    is_simple,
    parse_pattern,
    parse_tree,
)

from cadence.miner import MiningConfig, mine
from cadence.synth import PlantSpec, generate

from _oracles import (
    compile_tree,
    end_offset_by_origins,
    layout_and_repetition_bits,
    set_collection_cost,
)
from conftest import (
    BIT_TOL,
    REFERENCE_COLLECTIONS,
    REFERENCE_ROWS,
    approx_bits,
    block_records,
    cycle,
    random_tree,
)


class TestSeqStats:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeqStats(length=0, t_start=0, t_end=10, counts={})
        with pytest.raises(DomainError):
            SeqStats(length=2, t_start=5, t_end=4, counts={"a": 2})
        with pytest.raises(DomainError):
            SeqStats(length=3, t_start=0, t_end=10, counts={"a": 2})
        with pytest.raises(DomainError):
            SeqStats(length=2, t_start=0, t_end=10, counts={"a": 2, "b": 0})

    def test_span(self):
        assert SeqStats(length=1, t_start=3, t_end=9, counts={"a": 1}).span == 6

    def test_from_sequence_defaults_to_own_window(self, triad_seq):
        st_ = SeqStats.from_sequence(triad_seq)
        assert (st_.t_start, st_.t_end) == (2, 31)
        assert st_.counts == {"a": 3, "b": 3, "c": 3}

    def test_from_sequence_accepts_wider_window(self, triad_seq):
        st_ = SeqStats.from_sequence(triad_seq, t_start=0, t_end=34)
        assert st_.span == 34

    def test_from_sequence_rejects_narrow_window(self, triad_seq):
        with pytest.raises(DomainError):
            SeqStats.from_sequence(triad_seq, t_start=3, t_end=34)
        with pytest.raises(DomainError):
            SeqStats.from_sequence(triad_seq, t_start=0, t_end=30)


class TestResidualCost:
    def test_single_event_log(self, dozen_a_stats):
        # 35 possible timestamps, one event label
        assert residual_cost(dozen_a_stats, (7, "a")) == approx_bits(5.129)

    def test_three_event_log(self, triad_stats):
        # log2(35) + log2(9/3)
        assert residual_cost(triad_stats, (7, "c")) == approx_bits(6.714)

    def test_degenerate_window_is_free(self):
        stats = SeqStats(length=1, t_start=4, t_end=4, counts={"a": 1})
        assert residual_cost(stats, (4, "a")) == 0.0

    def test_unknown_event(self, dozen_a_stats):
        with pytest.raises(DomainError):
            residual_cost(dozen_a_stats, (7, "zz"))


class TestResidualBits:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_per_occurrence_sum(self, seed):
        rng = random.Random(seed)
        labels = "abcdefg"[: rng.randint(1, 7)]
        counts = {e: rng.randint(1, 50) for e in labels}
        stats = SeqStats(
            length=sum(counts.values()),
            t_start=rng.randint(0, 10),
            t_end=rng.randint(10, 5000),
            counts=counts,
        )
        pairs = [
            (rng.randint(stats.t_start, stats.t_end), rng.choice(labels))
            for _ in range(rng.randint(0, 200))
        ]
        per_occurrence = sum(residual_cost(stats, o) for o in pairs)
        assert residual_bits(stats, Counter(e for _, e in pairs)) == pytest.approx(
            per_occurrence, abs=1e-9
        )

    def test_empty_mix_is_free(self, triad_stats):
        assert residual_bits(triad_stats, {}) == 0.0

    def test_empty_mix_is_a_float(self, triad_stats):
        # reports write it to JSON, where an int 0 would read as 0, not 0.0
        assert type(residual_bits(triad_stats, {})) is float

    def test_events_are_added_in_sorted_order(self):
        stats = SeqStats(length=60, t_start=0, t_end=997, counts={"c": 7, "a": 41, "b": 12})
        labels = {"c": 5, "b": 9, "a": 3}
        total = 0.0
        for event in ("a", "b", "c"):
            total += labels[event] * residual_cost(stats, (0, event))
        assert residual_bits(stats, labels) == total

    def test_baseline_is_every_occurrence_residual(self, triad_seq, triad_stats):
        per_occurrence = sum(residual_cost(triad_stats, o) for o in triad_seq.pairs)
        assert baseline_cost(triad_stats) == pytest.approx(per_occurrence, abs=1e-9)

    def test_unknown_event(self, triad_stats):
        with pytest.raises(DomainError):
            residual_bits(triad_stats, {"a": 1, "zz": 2})


class TestAddBits:
    def test_adds_left_to_right_without_compensation(self):
        # sum() from Python 3.12 on keeps the 1.0 that 1e16 absorbs
        assert add_bits([1e16, 1.0, -1e16]) == 0.0
        assert add_bits([1.0, 1e16, -1e16]) == 0.0
        assert add_bits([1e16, -1e16, 1.0]) == 1.0

    def test_nothing_adds_to_a_float_zero(self):
        assert type(add_bits([])) is float and add_bits(iter(())) == 0.0


class TestCorrectionsCost:
    def test_examples(self):
        assert corrections_cost((1, 0, -1)) == 8.0
        assert corrections_cost(()) == 0.0
        assert corrections_cost((-4, 2, 3)) == 15.0


class TestReferenceRows:
    @pytest.mark.parametrize(
        "context, notation, components, total",
        REFERENCE_ROWS,
        ids=[row[1] for row in REFERENCE_ROWS],
    )
    def test_components_and_total(
        self, stats_by_context, context, notation, components, total
    ):
        breakdown = pattern_cost(parse_pattern(notation), stats_by_context[context])
        got = breakdown.to_dict()
        for field, expected in components.items():
            assert got[field] == approx_bits(expected), field
        assert breakdown.total == approx_bits(total)

    def test_to_dict_keys(self, dozen_a_stats):
        breakdown = pattern_cost(
            parse_pattern(REFERENCE_ROWS[0][1]), dozen_a_stats
        )
        assert set(breakdown.to_dict()) == {"A", "R", "p0", "D", "tau", "E", "total"}

    def test_total_sums_fields(self, dozen_a_stats):
        b = pattern_cost(parse_pattern(REFERENCE_ROWS[0][1]), dozen_a_stats)
        assert b.total == pytest.approx(b.A + b.R + b.p0 + b.D + b.tau + b.E)


class TestReferenceCollections:
    @pytest.mark.parametrize(
        "name, context, row_indices, total",
        REFERENCE_COLLECTIONS,
        ids=[c[0] for c in REFERENCE_COLLECTIONS],
    )
    def test_totals(
        self,
        stats_by_context,
        dozen_a_seq,
        triad_seq,
        name,
        context,
        row_indices,
        total,
    ):
        seq = dozen_a_seq if context == "a12" else triad_seq
        patterns = [parse_pattern(REFERENCE_ROWS[i][1]) for i in row_indices]
        report = collection_cost(patterns, seq, stats_by_context[context])
        assert report.residual_count == 0
        assert report.pattern_bits == approx_bits(total)
        assert report.total_bits == approx_bits(total)
        row_sum = sum(REFERENCE_ROWS[i][3] for i in row_indices)
        assert report.pattern_bits == pytest.approx(row_sum, abs=BIT_TOL * len(row_indices))


class TestCycleCost:
    def test_burst_cycle(self, dozen_a_stats):
        cost = pattern_cost(fit_cycle((2, 5, 7, 8), "a"), dozen_a_stats)
        assert cost.total == approx_bits(24.657)

    def test_sparse_cycle(self, dozen_a_stats):
        cost = pattern_cost(fit_cycle((2, 13, 26), "a"), dozen_a_stats)
        assert cost.total == approx_bits(21.969)


def placed(tree, stats, last_offset=lambda i: 0):
    """The encoder's terms of a built tree started at 0, with no
    corrections."""
    return CostBreakdown(*_placed(
        tree,
        0,
        stats,
        terms=child_terms(tree, stats),
        last_offset=last_offset,
        abs_corrections=0,
    ))


class TestTreeTerms:
    # The layout and repetition terms come from one post-order walk; the
    # three-walk reference gives the same floats and rejects the same
    # trees.  A huge window keeps every other term codable.
    def test_one_walk_equals_three(self):
        rng = random.Random(13)
        seen: Counter = Counter()
        for _ in range(3000):
            tree = random_tree(rng, depth=rng.randint(1, 4), leaves=rng.randint(1, 7))
            top = rng.choice((4, 60, 10**4))
            counts = {e: rng.randint(1, top) for e in "abc"}
            stats = SeqStats(
                length=sum(counts.values()), t_start=0, t_end=10**7, counts=counts
            )
            try:
                want = layout_and_repetition_bits(tree, stats)
            except UncodablePatternError:
                with pytest.raises(UncodablePatternError):
                    placed(tree, stats)
                seen["r above the rarest count"] += 1
                continue
            got = placed(tree, stats)
            assert (got.A, got.R) == want
            seen["priced"] += 1
        assert seen["priced"] >= 2000 and seen["r above the rarest count"] >= 100, seen


class TestContentEnd:
    # A non-simple tree's width is coded out of what is left of the
    # window after where the decoder knows the last repetition's content
    # ends.  A window that ends exactly the width after that end (found
    # from the block paths) prices the tree; one tick less does not.
    def test_width_bound_follows_the_origins_rule(self):
        rng = random.Random(31)
        seen: Counter = Counter()
        counts = {e: 10**4 for e in "abc"}
        for _ in range(2000):
            tree = random_tree(rng, depth=3, leaves=3)
            if is_simple(tree):
                continue
            n = tree.count
            corrections = tuple(rng.randint(-3, 3) for _ in range(n - 1))
            offsets = Pattern(tree=tree, tau=0, corrections=corrections).offsets
            base = n - n // tree.r
            width = max(compile_tree(tree).times[: n - base])
            end = end_offset_by_origins(tree, offsets)
            if end + width <= offsets[base]:
                continue  # the start's range binds first
            t_end = end + (tree.r - 1) * tree.p + width

            def placed_by(t_end):
                stats = SeqStats(length=3 * 10**4, t_start=0, t_end=t_end, counts=counts)
                return placed(tree, stats, lambda i: offsets[base + i])

            assert placed_by(t_end).D >= 0.0
            with pytest.raises(UncodablePatternError, match="repetition width"):
                placed_by(t_end - 1)
            seen["priced"] += 1
            seen["ends before the last occurrence"] += end != offsets[-1]
        assert seen["priced"] >= 1200, seen
        assert seen["ends before the last occurrence"] >= 600, seen


class TestCodability:
    # The theorem on codec._placed: a pattern whose corrected occurrences
    # are distinct occurrences of the log that the statistics count, all
    # inside the window, is codable.  Each draw's log is its occurrences
    # plus a few others, priced over its own window and a widened one.
    def test_patterns_inside_their_log_are_codable(self):
        rng = random.Random(41)
        seen: Counter = Counter()
        for _ in range(4000):
            tree = random_tree(rng, depth=rng.randint(1, 3), leaves=rng.randint(1, 4))
            corrections = tuple(rng.randint(-3, 3) for _ in range(tree.count - 1))
            p = Pattern(tree=tree, tau=rng.randint(0, 20), corrections=corrections)
            compiled = compile_tree(tree)
            times = [p.tau + t + off for t, off in zip(compiled.times, p.offsets)]
            occurrences = set(zip(times, compiled.events))
            if min(times) < 0 or len(occurrences) < len(times):
                seen["not in a log"] += 1
                continue
            extras = [(rng.randint(0, max(times) + 9), rng.choice("abcd")) for _ in range(3)]
            seq = EventSequence.from_pairs(occurrences.union(extras[: rng.randint(0, 3)]))
            wide = SeqStats.from_sequence(
                seq, max(0, seq.t_start - rng.randint(1, 5)), seq.t_end + rng.randint(1, 40)
            )
            for stats in (SeqStats.from_sequence(seq), wide):
                pattern_cost(p, stats)
            seen["priced"] += 1
            seen["interleaved"] += tree.placement.interleaved
            seen["nested"] += not all(isinstance(c, Leaf) for c in tree.children)
        assert seen["priced"] >= 1500, seen
        assert seen["interleaved"] >= 300 and seen["nested"] >= 300, seen


class TestBaseline:
    def test_single_event_log(self, dozen_a_stats):
        assert baseline_cost(dozen_a_stats) == approx_bits(61.551)

    def test_three_event_log(self, triad_stats):
        assert baseline_cost(triad_stats) == approx_bits(60.430)


class TestCollectionCost:
    def test_empty_collection_is_all_residual(self, triad_seq, triad_stats):
        report = collection_cost([], triad_seq, triad_stats)
        assert report.residual_count == 9
        assert report.total_bits == pytest.approx(report.baseline_bits, abs=1e-9)
        assert report.percent_length == pytest.approx(100.0, abs=1e-9)
        assert report.residual_ratio == 1.0
        assert report.patterns == ()

    def test_one_occurrence_log_reads_100_percent(self):
        # One occurrence costs 0 bits as a residual, so the baseline is 0.
        seq = EventSequence.from_pairs([(5, "a")])
        report = collection_cost([], seq)
        assert report.baseline_bits == 0.0
        assert report.total_bits == 0.0
        assert report.percent_length == 100.0

    def test_braid_covers_everything(self, triad_seq, triad_stats):
        braid = parse_pattern(REFERENCE_ROWS[12][1])
        report = collection_cost([braid], triad_seq, triad_stats)
        assert report.residual_count == 0
        assert report.residual_bits == 0.0
        assert type(report.residual_bits) is float
        assert type(report.to_dict()["residual_bits"]) is float
        assert report.percent_length == pytest.approx(88.6, abs=0.05)
        assert report.shape_counts == {"s": 0, "v": 0, "h": 1, "m": 0}
        assert report.max_cover == 9
        assert report.patterns[0].cover_size == 9

    def test_cycles_accepted_directly(self, dozen_a_seq, dozen_a_stats):
        c = fit_cycle((2, 5, 7, 8), "a")
        report = collection_cost([c], dozen_a_seq, dozen_a_stats)
        assert report.residual_count == 8
        assert report.pattern_bits == approx_bits(24.657)

    def test_partial_cover_prices_leftovers(self, dozen_a_seq, dozen_a_stats):
        c = fit_cycle((2, 5, 7, 8), "a")
        report = collection_cost([c], dozen_a_seq, dozen_a_stats)
        per_residual = residual_cost(dozen_a_stats, (13, "a"))
        assert report.residual_bits == pytest.approx(8 * per_residual)
        assert 0.0 < report.residual_ratio < 1.0

    def test_pattern_outside_sequence_rejected(self, dozen_a_seq, dozen_a_stats):
        stray = parse_pattern("[r=4 p=2](a) @ tau=0 E=[0,0,0]")
        with pytest.raises(DomainError):
            collection_cost([stray], dozen_a_seq, dozen_a_stats)

    def test_occurrence_listed_twice_rejected(self):
        # the nested cycle lists 0 and 10 twice each: four occurrences
        # listed and priced, two covered
        seq = EventSequence.from_pairs([(t, "a") for t in (0, 10, 20, 30)])
        notation = "[r=2 p=10]([r=2 p=10](a)) @ tau=0 E=[0,-10,0]"
        message = f"pattern {notation} lists occurrence (0, 'a') more than once"
        with pytest.raises(DomainError, match=re.escape(message)):
            collection_cost([parse_pattern(notation)], seq)
        same_report([parse_pattern(notation)], seq)

    def test_unknown_event_is_outside_before_it_is_listed_twice(self):
        seq = EventSequence.from_pairs([(t, "a") for t in (0, 10, 20, 30)])
        twice = parse_pattern("[r=2 p=10]([r=2 p=10](z)) @ tau=0 E=[0,-10,0]")
        with pytest.raises(DomainError, match="outside the sequence"):
            collection_cost([twice], seq)
        same_report([twice], seq)

    def test_statistics_must_describe_the_log(self):
        # Another log's statistics would price the same cycle in other
        # bits without an error; a log's own, over a wider window, price it.
        seq = EventSequence.from_pairs((t, "a") for t in (0, 5, 10, 15))
        beats = [parse_pattern("[r=4 p=5](a) @ tau=0 E=[0,0,0]")]
        larger = SeqStats.from_sequence(EventSequence.from_pairs([*seq.pairs, (3, "b"), (12, "b")]))
        with pytest.raises(DomainError, match=r"^the statistics over \[0, 15\] describe another log"):
            collection_cost(beats, seq, larger)
        same_report(beats, seq, larger)
        wide = SeqStats.from_sequence(seq, 0, 40)
        assert collection_cost(beats, seq, wide).pattern_bits == pattern_cost(beats[0], wide).total
        same_report(beats, seq, wide)

    def test_to_dict_counts_patterns(self, triad_seq, triad_stats):
        braid = parse_pattern(REFERENCE_ROWS[12][1])
        payload = collection_cost([braid], triad_seq, triad_stats).to_dict()
        assert payload["n_patterns"] == 1
        assert payload["patterns"][0]["shape"] == "horizontal"


def same_report(patterns, seq, stats=None) -> None:
    """collection_cost returns the set-based reference's report, or
    raises its error with the same message."""
    try:
        expected = set_collection_cost(patterns, seq, stats)
    except CadenceError as exc:
        with pytest.raises(type(exc)) as caught:
            collection_cost(patterns, seq, stats)
        assert str(caught.value) == str(exc)
        return
    assert collection_cost(patterns, seq, stats) == expected


class TestCollectionCostMatchesSetReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mined_selections_and_pools(self, seed):
        spec = PlantSpec(
            basis="a d=2 b d=1 c", depth=2, outer_length=(3, 5), n_patterns=2,
            shift_level=1, shift_density=0.2, additive_density=0.1, seed=seed,
        )
        seq = generate(spec).perturbed
        result = mine(seq, MiningConfig())
        for selection in result.stages.values():
            same_report([c.pattern for c in selection.candidates], seq)
        # the pool's covers overlap
        same_report([c.pattern for c in result.pool], seq)

    def test_overlapping_hand_collection(self, triad_seq, triad_stats):
        braid = parse_pattern(REFERENCE_ROWS[12][1])
        bs = fit_cycle([t for t, e in triad_seq.pairs if e == "b"], "b")
        same_report([braid, bs, braid], triad_seq, triad_stats)
        same_report([bs], triad_seq)

    def test_cycle_item(self, dozen_a_seq, dozen_a_stats):
        same_report([fit_cycle((2, 5, 7, 8), "a")], dozen_a_seq, dozen_a_stats)

    def test_pattern_outside_the_window(self, dozen_a_seq):
        # the window's first tick lies after the pattern's first
        # occurrence: the pattern cannot be coded, and the window cuts
        # the log, so its statistics do not describe the log
        narrow = SeqStats(
            length=len(dozen_a_seq), t_start=3, t_end=34,
            counts={"a": len(dozen_a_seq)},
        )
        cycle = fit_cycle((2, 5, 7, 8), "a")
        with pytest.raises(UncodablePatternError, match=r"\(2, a\) falls outside \[3, 34\]"):
            pattern_cost(cycle, narrow)
        with pytest.raises(DomainError, match=r"^the time window \[3, 34\] must contain"):
            collection_cost([cycle], dozen_a_seq, narrow)
        same_report([cycle], dozen_a_seq, narrow)

    @pytest.mark.parametrize(
        "notation",
        ["[r=4 p=2](a) @ tau=0 E=[0,0,0]", "[r=2 p=3](b) @ tau=2 E=[0]"],
    )
    def test_cover_outside_the_log(self, dozen_a_seq, dozen_a_stats, notation):
        with pytest.raises(DomainError, match="outside the sequence"):
            collection_cost([parse_pattern(notation)], dozen_a_seq, dozen_a_stats)
        same_report([parse_pattern(notation)], dozen_a_seq, dozen_a_stats)


# Trees whose root repetition holds one event in several columns, so a
# correction can make two columns hit one tick, and trees with an event
# (z) that no drawn log holds.
_COLUMN_TREES = tuple(map(parse_tree, [
    "[r=3 p=9](a [d=1] a)",
    "[r=2 p=30]([r=3 p=4](a) [d=2] a)",
    "[r=2 p=12](a [d=1] b [d=1] a)",
    "[r=3 p=6]([r=2 p=1](a) [d=0] b)",
    "[r=2 p=5](a [d=1] z)",
    "[r=4 p=3](b)",
]))


def _column_pattern(tree, tau: int, corrections) -> Pattern:
    n = tree.count
    return Pattern(tree=tree, tau=tau, corrections=tuple((list(corrections) + [0] * n)[: n - 1]))


@st.composite
def _column_collections(draw):
    """One to three patterns over the column trees or random trees, with
    small corrections (two columns often hit one tick), and a log of
    their occurrences with some dropped (covers outside the log) and
    noise added; events outside ``abc`` are never logged."""
    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        tree = draw(st.one_of(
            st.sampled_from(_COLUMN_TREES),
            st.integers(0, 10**6).map(lambda seed: random_tree(random.Random(seed), 2, 4)),
        ))
        corrections = draw(st.lists(st.sampled_from([0, 0, 0, -1, 1, -2, 2]), max_size=40))
        patterns.append(_column_pattern(tree, draw(st.integers(8, 40)), corrections))
    pairs = draw(st.lists(st.tuples(st.integers(0, 160), st.sampled_from("abc")), min_size=1))
    for pat in patterns:
        compiled = compile_tree(pat.tree)
        whole = draw(st.integers(0, 3))  # 0: drop about one occurrence in four
        for t, off, e in zip(compiled.times, pat.offsets, compiled.events):
            if pat.tau + t + off >= 0 and e in "abc" and (whole or draw(st.integers(0, 3))):
                pairs.append((pat.tau + t + off, e))
    return patterns, EventSequence.from_pairs(pairs)


def _column_case(notation: str, *extra: tuple[int, str], drop: int = -1):
    """The pattern and a log of its occurrences (less the ``drop``-th)
    plus ``extra``."""
    pat = parse_pattern(notation)
    occurrences = [
        (t, e) for t, e in zip(corrected_times(pat), compile_tree(pat.tree).events) if e != "z"
    ]
    if drop >= 0:
        del occurrences[drop]
    return [pat], EventSequence.from_pairs(occurrences + list(extra))


class TestColumnPricing:
    """collection_cost builds a cover by event from the pattern's leaf
    columns (``pattern.leaf_columns``), each of one event; the set
    reference builds it from the pairs."""

    @settings(max_examples=300, deadline=None)
    @given(case=_column_collections())
    @example(case=_column_case("[r=3 p=9](a [d=1] a) @ tau=5 E=[0,1,0,0,0]", (0, "b")))
    @example(case=_column_case("[r=3 p=9](a [d=1] a) @ tau=5 E=[-1,1,0,0,0]", (0, "b")))
    @example(case=_column_case("[r=2 p=30]([r=3 p=4](a) [d=2] a) @ tau=3 E=[0,0,-2,0,0,0,0]"))
    @example(case=_column_case("[r=2 p=30]([r=3 p=4](a) [d=2] a) @ tau=3 E=[0,0,0,0,0,0,1]"))
    @example(case=_column_case("[r=2 p=5](a [d=1] z) @ tau=2 E=[0,0,0]", (0, "b")))
    @example(case=_column_case("[r=3 p=9](a [d=1] a) @ tau=5 E=[0,0,0,0,0]", drop=4))
    def test_matches_the_set_reference(self, case):
        patterns, seq = case
        same_report(patterns, seq)

    def test_scoring_builds_no_pair_tuple(self):
        truth = generate(PlantSpec(
            basis="a d=2 b d=1 c", depth=2, outer_length=(3, 5), n_patterns=2,
            shift_level=1, shift_density=0.2, additive_density=0.1, seed=4,
        ))
        seq = load_sequence(truth.perturbed.to_text())
        report = collection_cost(truth.patterns, seq)
        assert report.residual_count < len(seq)
        assert "pairs" not in vars(seq)

    def test_scoring_and_pricing_compile_no_tree(self):
        # Covers, window checks and prices are read off leaf columns, and
        # the shape class off width and height: no block keeps a record
        # of one entry per occurrence.
        notations = [
            "[r=4 p=90]([r=3 p=10](a [d=2] b [d=3] c)) @ tau=5 E=[{}]".format(
                ",".join(["0", "1", "-1"] * 11 + ["0", "1"])
            ),
            "[r=3 p=40]([r=2 p=3](a) [d=9] [r=2 p=4](b)) @ tau=400 E=[{}]".format(
                ",".join(["1", "0", "-1"] * 3 + ["0", "0"])
            ),
            "[r=5 p=7](c) @ tau=700 E=[1,-1,0,2]",
        ]
        seq = EventSequence.from_pairs(
            pair for text in notations for pair in corrected_occurrences(parse_pattern(text))
        )
        patterns = [parse_pattern(text) for text in notations]
        report = collection_cost(patterns, seq)
        stats = SeqStats.from_sequence(seq)
        costs = [pattern_cost(pat, stats) for pat in patterns]
        assert [entry.cost for entry in report.patterns] == costs
        assert report.residual_count == 0
        shapes = [classify_tree(pat.tree).shape_class for pat in patterns]
        assert [entry.shape_class for entry in report.patterns] == shapes
        assert shapes == ["mixed", "mixed", "simple"]
        for pat in patterns:
            assert block_records(pat.tree) <= {"count", "placement"}, format_tree(pat.tree)


class TestCostEffectiveness:
    def test_burst_cycle_alone_is_not_worth_it(self, dozen_a_stats):
        # 24.657 bits vs 4 residuals at 5.129 bits each
        c = fit_cycle((2, 5, 7, 8), "a")
        assert not is_cost_effective(c, dozen_a_stats)

    def test_nested_pattern_is_worth_it(self, dozen_a_stats):
        nested = parse_pattern(REFERENCE_ROWS[7][1])
        assert is_cost_effective(nested, dozen_a_stats)

    def test_braid_is_worth_it(self, triad_stats):
        braid = parse_pattern(REFERENCE_ROWS[12][1])
        assert is_cost_effective(braid, triad_stats)

    def test_explicit_pairs_argument(self, triad_stats):
        braid = parse_pattern(REFERENCE_ROWS[12][1])
        one_pair = [(2, "b")]
        # 53.5 bits cannot beat a single 6.7-bit residual
        assert not is_cost_effective(braid, triad_stats, pairs=one_pair)

    def test_uncodable_is_never_cost_effective(self, triad_stats):
        c = cycle("b", r=5, p=2, tau=0, corrections=(0, 0, 0, 0))
        assert not is_cost_effective(c, triad_stats)

    @pytest.mark.parametrize(
        "score",
        [
            efficiency,
            is_cost_effective,
            lambda p, stats: is_cost_effective(p, stats, pairs=[(0, "a")]),
        ],
        ids=["efficiency", "is_cost_effective", "is_cost_effective-pairs"],
    )
    def test_occurrence_listed_twice_rejected(self, score):
        # the message collection_cost gives for the same pattern
        seq = EventSequence.from_pairs([(t, "a") for t in (0, 10, 20, 30)])
        notation = "[r=2 p=10]([r=2 p=10](a)) @ tau=0 E=[0,-10,0]"
        message = f"pattern {notation} lists occurrence (0, 'a') more than once"
        with pytest.raises(DomainError, match=re.escape(message)):
            score(parse_pattern(notation), SeqStats.from_sequence(seq))

    def test_efficiency_is_bits_per_covered_occurrence(self, dozen_a_stats):
        c = fit_cycle((2, 5, 7, 8), "a")
        assert efficiency(c, dozen_a_stats) == approx_bits(6.164)


class TestUncodable:
    def test_repetitions_exceed_event_count(self, triad_stats):
        c = cycle("b", r=4, p=2, tau=0, corrections=(0, 0, 0))
        with pytest.raises(UncodablePatternError):
            pattern_cost(c, triad_stats)

    def test_period_exceeds_budget(self, dozen_a_stats):
        c = cycle("a", r=3, p=20, tau=0, corrections=(0, 0))
        with pytest.raises(UncodablePatternError):
            pattern_cost(c, dozen_a_stats)

    def test_start_exceeds_budget(self, dozen_a_stats):
        # the span is exhausted by the repetitions; only tau=0 fits
        fits = cycle("a", r=3, p=17, tau=0, corrections=(0, 0))
        assert pattern_cost(fits, dozen_a_stats).total > 0
        with pytest.raises(UncodablePatternError):
            pattern_cost(cycle("a", r=3, p=17, tau=1, corrections=(0, 0)), dozen_a_stats)

    def test_occurrence_past_window_end(self, dozen_a_stats):
        p = Pattern(tree=parse_tree("[r=4 p=2](a)"), tau=30, corrections=(0, 0, 0))
        with pytest.raises(UncodablePatternError):
            pattern_cost(p, dozen_a_stats)

    def test_first_occurrence_outside_is_named(self, dozen_a_stats):
        # traversal order: 36 lies outside [0, 34] before -19 does
        p = Pattern(tree=parse_tree("[r=3 p=18](a)"), tau=0, corrections=(18, -73))
        with pytest.raises(UncodablePatternError, match=r"\(36, a\) falls outside"):
            pattern_cost(p, dozen_a_stats)


class TestThreshold:
    def test_needs_at_least_three_occurrences(self, dozen_a_stats):
        with pytest.raises(DomainError):
            w_threshold(dozen_a_stats, "a", 2)

    def test_unknown_event(self, dozen_a_stats):
        with pytest.raises(DomainError):
            w_threshold(dozen_a_stats, "zz", 3)

    def test_margin_value(self, dozen_a_stats):
        assert extension_margin(dozen_a_stats) == approx_bits(3.129)

    def test_threshold_grows_by_more_than_the_margin(self, dozen_a_stats, triad_stats):
        for stats in (dozen_a_stats, triad_stats):
            margin = extension_margin(stats)
            event = next(iter(stats.counts))
            for k in range(3, 11):
                delta = w_threshold(stats, event, k + 1) - w_threshold(stats, event, k)
                assert delta > margin - 1e-9

    def test_small_corrections_guarantee_cost_effectiveness(self):
        stats = SeqStats(length=5, t_start=0, t_end=1000, counts={"a": 5})
        cycle = fit_cycle((0, 200, 401, 600, 799), "a")
        assert sum(abs(e) for e in cycle.corrections) < w_threshold(stats, "a", 5)
        assert is_cost_effective(cycle, stats)

    def test_large_corrections_can_lose(self):
        seq = EventSequence.from_pairs([(0, "a"), (40, "a"), (45, "a")])
        stats = SeqStats.from_sequence(seq)
        cycle = fit_cycle((0, 40, 45), "a")
        assert sum(abs(e) for e in cycle.corrections) >= w_threshold(stats, "a", 3)
        assert not is_cost_effective(cycle, stats)


class TestMemoization:
    def test_different_windows_are_distinct(self, dozen_a_seq):
        p = parse_pattern(REFERENCE_ROWS[0][1])
        narrow = SeqStats.from_sequence(dozen_a_seq)
        wide = SeqStats.from_sequence(dozen_a_seq, t_start=0, t_end=34)
        assert pattern_cost(p, narrow).total != pattern_cost(p, wide).total


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 80), min_size=3, max_size=10, unique=True),
    st.integers(0, 50),
)
def test_costs_are_translation_invariant(raw, shift):
    ts = sorted(raw)
    base_stats = SeqStats(length=len(ts), t_start=0, t_end=100, counts={"a": len(ts)})
    moved_stats = SeqStats(
        length=len(ts), t_start=shift, t_end=100 + shift, counts={"a": len(ts)}
    )
    base = pattern_cost(fit_cycle(ts, "a"), base_stats)
    moved = pattern_cost(fit_cycle([t + shift for t in ts], "a"), moved_stats)
    assert moved.total == pytest.approx(base.total, abs=1e-9)


@settings(max_examples=40)
@given(st.lists(st.integers(-6, 6), min_size=0, max_size=12))
def test_corrections_cost_closed_form(es):
    assert corrections_cost(es) == 2 * len(es) + sum(abs(e) for e in es)


def test_log_identities():
    # spot-check the code-length convention: a choice among n values
    # costs log2(n) bits
    assert math.isclose(math.log2(35), 5.1293, abs_tol=5e-4)
