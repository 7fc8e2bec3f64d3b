"""Event-sequence data model and ingestion.

A sequence is an ordered list of ``(timestamp, event)`` pairs over integer
time units, with each event occurring at most once per time step.  The
loader understands a line-oriented text format (``t<TAB>label`` or
``t,label``, ``#`` comments) and exposes the per-event projections and
global extent that the cost model and the miner consume.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import lt
from typing import Iterable, Mapping, TextIO


# An event label: any run of characters other than whitespace, the
# notation's brackets and parentheses, and ``#``, which starts a comment.
LABEL = re.compile(r"[^\s\[\]()#]+")

_TIMESTAMP = re.compile(r"[+-]?[0-9]+")  # int() alone also takes 1_0 and non-ASCII digits


class CadenceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CadenceError):
    """A line of input text could not be parsed.

    Attributes
    ----------
    line_number : int
        1-based number of the offending line.
    """

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DomainError(CadenceError):
    """An argument violates a documented precondition."""


class EmptySequenceError(CadenceError):
    """The input contained no event occurrences."""


class InvalidPatternError(CadenceError):
    """A pattern violates a structural invariant (e.g. negative timestamps)."""


class UncodablePatternError(CadenceError):
    """A pattern cannot be encoded against the given sequence statistics.

    Raised when a budget term of the code-length computation underflows
    (a floor or log argument drops below 1), signalling the miner to
    discard the candidate.
    """


OTHER_LABEL = "__other__"


@dataclass(frozen=True)
class IngestOptions:
    """Options controlling :func:`load_sequence`.

    Parameters
    ----------
    granularity : int
        Positive divisor applied to timestamps (floor division).
    succession_mode : bool
        If true, timestamps are discarded and each pair receives its
        0-based rank in the original input order.
    aggregation_threshold : int or None
        When set, events occurring fewer than this many times are
        relabeled to a designated "other" label.
    """

    granularity: int = 1
    succession_mode: bool = False
    aggregation_threshold: int | None = None

    def __post_init__(self) -> None:
        if not _is_count(self.granularity):
            raise DomainError(f"granularity must be an int >= 1, got {self.granularity!r}")
        if type(self.succession_mode) is not bool:
            raise DomainError(f"succession_mode must be a bool, got {self.succession_mode!r}")
        if self.aggregation_threshold is not None and not _is_count(self.aggregation_threshold):
            raise DomainError(
                "aggregation_threshold must be None or an int >= 1, "
                f"got {self.aggregation_threshold!r}"
            )


def _is_count(value: object) -> bool:
    """Whether ``value`` is an ``int`` of at least 1 (a ``bool`` is not)."""
    return type(value) is int and value >= 1


@dataclass(frozen=True)
class EventSequence:
    """An immutable timestamped event sequence.

    A sequence is kept as each label's timestamps; the ``(t, label)``
    pairs are derived from them on first read (:attr:`pairs`), so a
    caller that never reads them never builds them.

    Attributes
    ----------
    alphabet : tuple of str
        Event labels in first-appearance order; the index of a label is
        its dense event id.
    per_event : mapping of str to tuple of int
        Strictly increasing timestamp list per event label, the labels
        in the order of their first occurrences (ties by event id).
    duplicates_collapsed : int
        Number of exact ``(t, e)`` duplicates dropped during ingestion.
    """

    alphabet: tuple[str, ...]
    per_event: Mapping[str, tuple[int, ...]]
    duplicates_collapsed: int = 0
    _ids: Mapping[str, int] = field(repr=False, default_factory=dict)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, str]]) -> "EventSequence":
        """Build a sequence from raw pairs, collapsing exact duplicates.

        Raises a :class:`DomainError` naming the first item that is not a
        pair of an ``int`` timestamp (a ``bool`` is not) and a ``str``
        label, and the first label that the pattern notation cannot carry
        (:data:`LABEL`); each distinct label is checked once.
        """
        times: dict[str, list[int]] = {}
        for item in pairs:
            try:
                t, e = item
            except (TypeError, ValueError):
                t = e = None
            if type(t) is not int or not isinstance(e, str):
                raise DomainError(f"pair {item!r}: need an int timestamp and a str label")
            if t < 0:
                raise DomainError(f"negative timestamp: {t}")
            ts = times.get(e)
            if ts is None:
                if not LABEL.fullmatch(e):
                    raise DomainError(_label_problem(e))
                times[e] = ts = []
            ts.append(t)
        if not times:
            raise EmptySequenceError("sequence contains no occurrences")
        return EventSequence._assemble(times)

    @staticmethod
    def _assemble(times: dict[str, list[int]]) -> "EventSequence":
        """A sequence from each label's timestamps, labels in first-seen
        order: each list sorted in place and deduped, and the labels
        ordered by their first timestamps."""
        alphabet = tuple(times)
        per_label = [_sorted_distinct(ts) for ts in times.values()]
        return EventSequence(
            alphabet=alphabet,
            # labels in the order of their first occurrences, ties by id
            per_event=dict(sorted(zip(alphabet, per_label), key=lambda item: item[1][0])),
            duplicates_collapsed=sum(map(len, times.values())) - sum(map(len, per_label)),
            _ids={e: i for i, e in enumerate(alphabet)},
        )

    @cached_property
    def pairs(self) -> tuple[tuple[int, str], ...]:
        """All occurrences, sorted by ``(t, event id)``: the sorted ints
        ``t * m + id`` over ``m`` labels, built on first read and kept."""
        alphabet, per_event = self.alphabet, self.per_event
        m = len(alphabet)
        keys = sorted([t * m + i for i, e in enumerate(alphabet) for t in per_event[e]])
        return tuple([(k // m, alphabet[k % m]) for k in keys])

    def event_id(self, label: str) -> int:
        return self._ids[label]

    def __len__(self) -> int:
        return sum(map(len, self.per_event.values()))

    @property
    def t_start(self) -> int:
        # per_event runs in the order of the labels' first occurrences
        return next(iter(self.per_event.values()))[0]

    @property
    def t_end(self) -> int:
        return max(ts[-1] for ts in self.per_event.values())

    @property
    def span(self) -> int:
        return self.t_end - self.t_start

    def count(self, label: str) -> int:
        return len(self.per_event.get(label, ()))

    def to_text(self) -> str:
        """Serialize in the input format (tab separated, sorted)."""
        return "".join(f"{t}\t{e}\n" for t, e in self.pairs)


def _sorted_distinct(ts: list[int]) -> tuple[int, ...]:
    """``tuple(sorted(set(ts)))``, sorting ``ts`` in place: once sorted,
    a list that repeats no time is that tuple already, and only one that
    does builds the set."""
    ts.sort()
    if all(map(lt, ts, islice(ts, 1, None))):
        return tuple(ts)
    return tuple(sorted(set(ts)))


def _label_problem(label: str) -> str:
    return f"event label {label!r} holds whitespace, a bracket, a parenthesis or '#'"


def load_sequence(
    source: str | TextIO, opts: IngestOptions | None = None
) -> EventSequence:
    """Load an event sequence from line-oriented text.

    Parameters
    ----------
    source : str or text stream
        Text with one ``timestamp<TAB>label`` or ``timestamp,label`` pair
        per line; a line that holds a tab is tab-separated, and a
        timestamp is an optional sign and ASCII digits.  Empty lines and
        lines starting with ``#`` are ignored.  Duplicates collapse after
        the granularity is applied, as in :meth:`EventSequence.from_pairs`.
        A stream's lines are read with their trailing ``"\\n"`` removed.
    opts : IngestOptions, optional
        Ingestion options; defaults to granularity 1, no succession mode.

    Returns
    -------
    EventSequence

    Raises
    ------
    ParseError
        On the first malformed line (reported with its line number),
        including a timestamp outside the grammar and a label that the
        pattern notation cannot carry (:data:`LABEL`).
    DomainError
        On a negative timestamp.
    EmptySequenceError
        When no occurrences remain after parsing.

    Notes
    -----
    One loop reads every line.  A canonical line, ``digits<TAB>label``
    with ASCII digits and a label already seen, takes a fast branch that
    appends its time without the general checks; every other line runs
    them.  The branch is exact: a known label passed :data:`LABEL` when
    it was first seen, so it holds no whitespace and no tab, and the
    digits hold neither.  Such a line thus has no padding and no second
    tab, and stripping it, splitting it at its tab and stripping both
    parts give the same timestamp and label; they pass every check, and
    a run of digits is never negative.  A line of a label not yet seen,
    a signed or padded timestamp, a comma line and a line that ends in
    ``"\\r"`` go through the general checks, so every error keeps its
    text and line number.
    """
    if opts is None:
        opts = IngestOptions()
    if isinstance(source, str):
        lines = source.split("\n")
    else:
        lines = (line.removesuffix("\n") for line in source)
    times: dict[str, list[int]] = {}
    rank = 0
    succession, granularity = opts.succession_mode, opts.granularity
    for number, line in enumerate(lines, start=1):
        raw_t, tab, label = line.partition("\t")
        ts = times.get(label) if tab else None
        if ts is not None and raw_t.isdigit() and raw_t.isascii():
            # a canonical line of a known label: see the docstring
            ts.append(rank if succession else int(raw_t) // granularity)
            rank += 1
            continue
        line = line.strip()
        if not line or line[0] == "#":
            continue
        tab = "\t" in line
        sep = "\t" if tab else ","
        raw_t, found, label = line.partition(sep)
        if not found or sep in label:
            raise ParseError(f"expected 'timestamp{'<TAB>' if tab else ','}label', got {line!r}", number)
        raw_t, label = raw_t.strip(), label.strip()
        if not label:
            raise ParseError("empty event label", number)
        if not (raw_t.isdigit() and raw_t.isascii() or _TIMESTAMP.fullmatch(raw_t)):
            raise ParseError(f"timestamp {raw_t!r} is not an integer", number)
        t = int(raw_t)
        if t < 0:
            raise DomainError(f"line {number}: negative timestamp {t}")
        ts = times.get(label)
        if ts is None:
            if not LABEL.fullmatch(label):
                raise ParseError(_label_problem(label), number)
            times[label] = ts = []
        ts.append(rank if succession else t // granularity)
        rank += 1
    if not times:
        raise EmptySequenceError("input contains no event lines")

    threshold = opts.aggregation_threshold
    if threshold is not None:
        # a rare label's occurrences join OTHER_LABEL's, which takes the
        # place of the first label that maps to it
        merged: dict[str, list[int]] = {}
        for e, ts in times.items():
            merged.setdefault(e if len(ts) >= threshold else OTHER_LABEL, []).extend(ts)
        times = merged
    return EventSequence._assemble(times)


# Base-2 logarithm used throughout the cost model.
log2 = math.log2
