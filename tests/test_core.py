"""Ingestion, sequence model, and summary statistics.

The loader and the pairs constructor are checked against the three-pass
loader and the sort-by-tuple constructor they replaced
(``_oracles.three_pass_load`` and ``_oracles.pairs_sequence``): on the
same text or pairs both build equal sequences, the derived pairs equal
the reference's own sorted pairs, or both raise the same error for the
same first faulty line or item.
"""

from __future__ import annotations

import io
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cadence.core import (
    CadenceError,
    DomainError,
    EmptySequenceError,
    EventSequence,
    IngestOptions,
    OTHER_LABEL,
    ParseError,
    load_sequence,
)
from cadence.codec import SeqStats

from _oracles import pairs_sequence, three_pass_load
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

    @pytest.mark.parametrize("raw", ["1_0", "\u0663", "1\u0663", "+\u0663", "\uff15", "0x5", "5e2", "--5"])
    def test_timestamp_is_a_sign_and_ascii_digits(self, raw):
        # int() would read 1_0 as 10 and the Arabic-Indic three as 3
        with pytest.raises(ParseError, match=re.escape(repr(raw))) as exc:
            load_sequence(f"1\ta\n{raw}\tb\n")
        assert exc.value.line_number == 2

    def test_byte_order_mark_in_text_is_a_parse_error(self):
        # the CLI opens files with utf-8-sig; text handed in stays strict
        with pytest.raises(ParseError, match=re.escape("timestamp '\\ufeff0'")) as exc:
            load_sequence("\ufeff0\ta\n")
        assert exc.value.line_number == 1

    def test_signed_timestamps(self):
        assert load_sequence("+5,a\n-0,b\n007,c\n").pairs == ((0, "b"), (5, "a"), (7, "c"))
        with pytest.raises(DomainError, match="line 2: negative timestamp -5"):
            load_sequence("1,a\n-5,b\n")

    def test_duplicates_collapse_after_granularity(self):
        seq = load_sequence("10\ta\n19\ta\n10\ta\n", IngestOptions(granularity=10))
        assert seq.pairs == ((1, "a"),)
        assert seq.duplicates_collapsed == 2

    def test_aggregation_when_the_first_label_is_rare(self):
        text = "9\tz\n1\ta\n2\ta\n3\ty\n4\t__other__\n5\t__other__\n"
        seq = load_sequence(text, IngestOptions(aggregation_threshold=2))
        # OTHER_LABEL takes the place of z, the first label mapped to it
        assert seq.alphabet == (OTHER_LABEL, "a")
        assert seq.per_event == {"a": (1, 2), OTHER_LABEL: (3, 4, 5, 9)}
        assert list(seq.per_event) == ["a", OTHER_LABEL]
        expected, pairs = three_pass_load(text, IngestOptions(aggregation_threshold=2))
        assert seq == expected
        assert seq.pairs == pairs

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

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.integers(0, 30), min_size=1, max_size=20),
        b=st.lists(st.integers(0, 30), min_size=1, max_size=20),
        granularity=st.integers(1, 4),
    )
    def test_unsorted_and_repeated_times_sort_and_collapse(self, a, b, granularity):
        # Each label keeps tuple(sorted(set(ts))) of its times, whether
        # the pairs repeat them or the granularity makes them meet.
        def want(times):
            per_event = {e: tuple(sorted(set(ts))) for e, ts in times.items()}
            collapsed = sum(map(len, times.values())) - sum(map(len, per_event.values()))
            return dict(sorted(per_event.items(), key=lambda item: item[1][0])), collapsed

        seq = EventSequence.from_pairs([(t, "a") for t in a] + [(t, "b") for t in b])
        assert (dict(seq.per_event), seq.duplicates_collapsed) == want({"a": a, "b": b})
        assert list(seq.per_event) == list(want({"a": a, "b": b})[0])

        text = "".join(f"{t}\ta\n" for t in a) + "".join(f"{t}\tb\n" for t in b)
        seq = load_sequence(text, IngestOptions(granularity=granularity))
        floored = {e: [t // granularity for t in ts] for e, ts in (("a", a), ("b", b))}
        assert (dict(seq.per_event), seq.duplicates_collapsed) == want(floored)
        assert list(seq.per_event) == list(want(floored)[0])

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
        # a log's statistics are the encoder's SeqStats
        summary = SeqStats.from_sequence(mixed_seq)
        assert summary.length == len(mixed_seq) == 13
        assert (summary.t_start, summary.t_end, summary.span) == (2, 54, 52)
        assert summary.counts == {"a": 7, "b": 2, "c": 4}
        assert list(summary.counts) == list(mixed_seq.per_event)


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


def same_outcome(build, reference) -> None:
    """``build`` returns the sequence that ``reference`` returns with its
    sorted pairs (per_event in the same order, every label under the
    same id, and the derived pairs equal to the reference's), or both
    raise the same error type with the same message."""
    try:
        expected, pairs = reference()
    except CadenceError as exc:
        with pytest.raises(type(exc)) as caught:
            build()
        assert str(caught.value) == str(exc)
        assert type(caught.value) is type(exc)
        return
    got = build()
    assert got.pairs == expected.pairs
    assert got.pairs == pairs
    assert got.alphabet == expected.alphabet
    assert list(got.per_event.items()) == list(expected.per_event.items())
    assert got.duplicates_collapsed == expected.duplicates_collapsed
    assert [got.event_id(e) for e in got.alphabet] == [expected.event_id(e) for e in expected.alphabet]
    assert got == expected


_PAD = st.sampled_from(["", " ", "  ", "\u00a0"])
_LABELS = ["a", "b", "c", "\u00e9v", "x.y", OTHER_LABEL]
# int() also takes 1_0 and non-ASCII digits, which the loader rejects
# (TestLoadSequence.test_timestamp_is_a_sign_and_ascii_digits), so the
# generated timestamps hold neither.
_TIMESTAMP = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 40).map(lambda t: f"+{t}"),
    st.integers(0, 9).map(lambda t: f"00{t}"),
    st.just("-0"),
)
_GOOD_LINE = st.builds(
    lambda pad1, t, sep, pad2, label, pad3: f"{pad1}{t}{pad2}{sep}{pad2}{label}{pad3}",
    _PAD, _TIMESTAMP, st.sampled_from(["\t", ","]), _PAD, st.sampled_from(_LABELS), _PAD,
)
# A canonical line: plain digits, one tab, no padding.  Once its label
# is known it takes the loader's fast branch.
_BARE_LINE = st.builds(
    lambda t, label: f"{t}\t{label}", st.integers(0, 40), st.sampled_from(_LABELS)
)
_SKIPPED_LINE = st.sampled_from(["", "   ", "# a comment", "  #x\t1", "#"])
_FAULTY_LINE = st.sampled_from([
    "5\ta\tb", "5;a", "5,a,b", "5\t", "5,", "x,a", "2.5\ta", ",a", "+-1,a",
    "-3\ta", "-12,b", "5,a[b", "5\ta b", "5,a(", "5\t#a", "7\t\u00e9 v",
])


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.one_of(
            _GOOD_LINE, _GOOD_LINE, _BARE_LINE, _BARE_LINE, _BARE_LINE, _SKIPPED_LINE, _FAULTY_LINE
        ),
        max_size=30,
    ),
    ending=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    stream=st.booleans(),
    granularity=st.integers(1, 4),
    succession=st.booleans(),
    threshold=st.one_of(st.none(), st.integers(1, 4)),
)
@example(
    lines=["3\tz", "1\ta", "2\ta"], ending="\n", final=True, stream=False,
    granularity=1, succession=False, threshold=2,
)
def test_loader_matches_the_three_pass_loader(
    lines, ending, final, stream, granularity, succession, threshold
):
    text = ending.join(lines) + (ending if final else "")
    opts = IngestOptions(
        granularity=granularity, succession_mode=succession, aggregation_threshold=threshold
    )

    def source():
        return io.StringIO(text) if stream else text

    same_outcome(
        lambda: load_sequence(source(), opts), lambda: three_pass_load(source(), opts)
    )


@pytest.mark.parametrize(
    "text, stream",
    [
        pytest.param("05\ta\n1\ta\n05\ta\n007\ta\n", False, id="leading zeros of a known label"),
        pytest.param("1\ta\n5\t\ta\n", False, id="a second tab before the label"),
        pytest.param("1\ta\n5\ta\t\n2\ta\n", False, id="a tab after the label"),
        pytest.param("1\ta\n5\ta b\n", False, id="a space inside the label"),
        pytest.param("1\ta\n5\ta \n2\ta\n", False, id="a space after the label"),
        pytest.param("1\ta\r\n2\ta\r\n2\tb\r\n", True, id="a CRLF stream"),
        pytest.param("1\ta\r\n2\ta\r\n3\ta b\r\n", True, id="a CRLF stream's bad label"),
        pytest.param("1\ta\r\n2\ta\r\n", False, id="CRLF text"),
        pytest.param("3\ta\n4\ta\n5\ta", True, id="a stream's last line without a newline"),
    ],
)
def test_lines_near_the_fast_branch_match_the_three_pass_loader(text, stream):
    # Each line but the first looks almost canonical; only a canonical
    # line of a known label may skip the general checks.
    def source():
        return io.StringIO(text) if stream else text

    for opts in (IngestOptions(), IngestOptions(granularity=2, succession_mode=True)):
        same_outcome(lambda: load_sequence(source(), opts), lambda: three_pass_load(source(), opts))


def test_a_non_ascii_digit_after_a_known_label_is_a_parse_error():
    # "\u0665" is a digit to str.isdigit and int(), but not ASCII; the
    # three-pass loader's int() reads it, so the error is spelled out.
    with pytest.raises(ParseError) as exc:
        load_sequence("1\ta\n\u0665\ta\n")
    assert str(exc.value) == "line 2: timestamp '\u0665' is not an integer"


_ITEM = st.one_of(
    st.tuples(st.integers(0, 30), st.sampled_from(_LABELS)),
    st.tuples(st.integers(0, 30), st.sampled_from(_LABELS)),
    st.tuples(st.integers(-3, -1), st.sampled_from(_LABELS)),
    st.tuples(st.integers(0, 30), st.sampled_from(["a b", "[x", "#"])),
    st.sampled_from([(True, "a"), (1.0, "a"), (1, 2), (1,), (1, "a", 2), None, "1a"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ITEM, max_size=30))
def test_pairs_constructor_matches_the_tuple_sorting_one(items):
    same_outcome(lambda: EventSequence.from_pairs(iter(items)), lambda: pairs_sequence(iter(items)))
