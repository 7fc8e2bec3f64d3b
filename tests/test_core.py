"""Ingestion, sequence model, and summary statistics."""

from __future__ import annotations

import io
import re

import pytest
from hypothesis import given, strategies as st

from cadence.core import (
    DomainError,
    EmptySequenceError,
    EventSequence,
    IngestOptions,
    OTHER_LABEL,
    ParseError,
    load_sequence,
    stats,
)

from conftest import MIXED_PAIRS


class TestLoadSequence:
    def test_tab_separated(self):
        seq = load_sequence("2\ta\n5\tb\n")
        assert seq.pairs == ((2, "a"), (5, "b"))

    def test_comma_separated(self):
        seq = load_sequence("2,a\n5,b\n")
        assert seq.pairs == ((2, "a"), (5, "b"))

    def test_auto_detects_either_separator(self):
        assert load_sequence("2\ta\n").pairs == load_sequence("2,a\n").pairs

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\n2\ta\n\n# trailing\n5\ta\n"
        seq = load_sequence(text)
        assert seq.pairs == ((2, "a"), (5, "a"))

    def test_stream_input(self):
        seq = load_sequence(io.StringIO("4\tx\n9\ty\n"))
        assert seq.pairs == ((4, "x"), (9, "y"))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            load_sequence("1\ta\nnot-a-line\n")
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "line, hint",
        [
            # Each line's separator is detected from the line itself.
            pytest.param(line, hint, id=f"auto-{line}-{hint}")
            for line, hint in [("5\ta\tb", "'timestamp<TAB>label'"), ("5;a", "'timestamp,label'")]
        ],
    )
    def test_parse_error_names_the_separator_in_effect(self, line, hint):
        with pytest.raises(ParseError, match=f"expected {hint}"):
            load_sequence(line + "\n")

    def test_non_integer_timestamp(self):
        with pytest.raises(ParseError) as exc:
            load_sequence("1\ta\n2.5\tb\n")
        assert exc.value.line_number == 2

    def test_missing_label(self):
        with pytest.raises(ParseError):
            load_sequence("1\t\n")

    @pytest.mark.parametrize(
        "text, line_number",
        [
            pytest.param(f"1\ta\n2\t{label}\n", 2, id=label)
            for label in ["user login", "a(b)", "x[1]", "a#b"]
        ]
        + [
            # Blank and comment lines count towards the reported number.
            pytest.param("1\ta\n# note\n\n2\tbad label\n", 4, id="after skipped lines"),
            # The first bad line is reported, whatever its fault.
            pytest.param(
                "1\ta\n# note\n2\tbad label\n3\ta\nx\ta\n", 3, id="before a bad timestamp"
            ),
        ],
    )
    def test_label_the_notation_cannot_carry(self, text, line_number):
        with pytest.raises(ParseError, match="event label") as exc:
            load_sequence(text)
        assert exc.value.line_number == line_number

    @pytest.mark.parametrize("label", ["disk.full", "x-1", "a:b", "é"])
    def test_labels_the_notation_carries(self, label):
        assert load_sequence(f"1\t{label}\n").pairs == ((1, label),)

    def test_negative_timestamp_is_domain_error(self):
        with pytest.raises(DomainError):
            load_sequence("-3\ta\n")

    def test_empty_input(self):
        with pytest.raises(EmptySequenceError):
            load_sequence("# only a comment\n\n")

    def test_granularity_floors_timestamps(self):
        seq = load_sequence("10\ta\n19\ta\n20\ta\n", IngestOptions(granularity=10))
        assert seq.per_event["a"] == (1, 2)
        assert seq.duplicates_collapsed == 1

    def test_succession_mode_uses_input_ranks(self):
        seq = load_sequence(
            "50\tb\n10\ta\n99\tb\n", IngestOptions(succession_mode=True)
        )
        assert seq.pairs == ((0, "b"), (1, "a"), (2, "b"))

    def test_aggregation_relabels_rare_events(self):
        text = "1\ta\n2\ta\n3\ta\n4\tx\n5\ty\n"
        seq = load_sequence(text, IngestOptions(aggregation_threshold=2))
        assert seq.per_event["a"] == (1, 2, 3)
        assert seq.per_event[OTHER_LABEL] == (4, 5)
        assert "x" not in seq.per_event

    def test_mixed_log_round_trips_through_text(self, mixed_seq):
        assert load_sequence(mixed_seq.to_text()).pairs == mixed_seq.pairs


class TestEventSequence:
    def test_pairs_sorted_by_time_then_first_appearance(self):
        seq = EventSequence.from_pairs([(7, "b"), (7, "a"), (2, "b")])
        # b appeared first in the input, so it sorts before a at t=7
        assert seq.pairs == ((2, "b"), (7, "b"), (7, "a"))
        assert seq.alphabet == ("b", "a")
        assert seq.event_id("b") == 0

    def test_exact_duplicates_collapse(self):
        seq = EventSequence.from_pairs([(3, "a"), (3, "a"), (3, "b")])
        assert seq.pairs == ((3, "a"), (3, "b"))
        assert seq.duplicates_collapsed == 1

    def test_per_event_projections_strictly_increase(self, mixed_seq):
        for ts in mixed_seq.per_event.values():
            assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_time_bounds(self, mixed_seq):
        assert mixed_seq.t_start == 2
        assert mixed_seq.t_end == 54
        assert mixed_seq.span == 52

    def test_count(self, mixed_seq):
        assert mixed_seq.count("a") == 7
        assert mixed_seq.count("missing") == 0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(DomainError):
            EventSequence.from_pairs([(-1, "a")])

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            EventSequence.from_pairs([])

    @pytest.mark.parametrize("label", ["disk full", "a(b)", "x[1]", "a#b"])
    def test_label_the_notation_cannot_carry(self, label):
        # The library entry point checks labels as load_sequence does, so
        # every mined notation re-parses.
        with pytest.raises(DomainError, match=re.escape(repr(label))):
            EventSequence.from_pairs([(1, "a"), (2, label), (3, label)])

    @pytest.mark.parametrize(
        "pair",
        [(3.0, "b"), (True, "a"), (1, 5), ("4", "a"), (2, ["a"]), (1, "a", 2), (1,), 1],
        ids=[
            "float time", "bool time", "int label", "str time", "list label",
            "triple", "single", "not a pair",
        ],
    )
    def test_pair_of_the_wrong_type(self, pair):
        # A float or bool timestamp would be mined into a start that the
        # notation cannot parse, a non-str label has no notation, and an
        # item that is not a pair has neither.
        with pytest.raises(DomainError, match=re.escape(repr(pair))):
            EventSequence.from_pairs([(2, "a"), (15, "a"), (28, "a"), pair])


class TestStats:
    def test_mixed_log_summary(self, mixed_seq):
        summary = stats(mixed_seq)
        assert summary.length == 13
        assert summary.span == 52
        assert summary.alphabet_size == 3
        assert summary.counts == {"a": 7, "b": 2, "c": 4}
        assert summary.median_count == 4.0
        assert summary.max_count == 7

    def test_even_alphabet_median_averages_middle_pair(self):
        seq = EventSequence.from_pairs([(1, "a"), (2, "a"), (3, "a"), (4, "b")])
        assert stats(seq).median_count == 2.0


class TestIngestOptions:
    def test_zero_granularity_rejected(self):
        with pytest.raises(DomainError):
            IngestOptions(granularity=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"granularity": 1.5},
            {"granularity": True},
            {"granularity": "2"},
            {"succession_mode": "no"},
            {"succession_mode": 1},
            {"aggregation_threshold": "2"},
            {"aggregation_threshold": 0},
            {"aggregation_threshold": 2.0},
            {"aggregation_threshold": True},
        ],
    )
    def test_value_it_cannot_run_with_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(DomainError, match=field):
            IngestOptions(**kwargs)


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.sampled_from("abcde")),
        min_size=1,
        max_size=60,
    )
)
def test_text_round_trip_preserves_occurrences(raw_pairs):
    seq = EventSequence.from_pairs(raw_pairs)
    again = load_sequence(seq.to_text())
    # ordering within a shared timestamp follows first appearance, which
    # serialization does not pin down; the occurrence set is what counts
    assert set(again.pairs) == set(seq.pairs)
    assert again.per_event == seq.per_event
    if len({t for t, _ in seq.pairs}) == len(seq.pairs):
        assert again.pairs == seq.pairs


def test_mixed_log_matches_fixture_constant(mixed_seq):
    assert mixed_seq.pairs == MIXED_PAIRS
