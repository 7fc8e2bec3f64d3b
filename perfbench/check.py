"""Output check and recovery score for one log.

A report is reduced to a plain :class:`Summary` first, so that the check
can be tested on hand-corrupted summaries.  Covers are decoded by the
benchmark's own notation reader (``gen.cover_of``), and the baseline is
recomputed from its definition, independently of the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import cadence

from gen import Log, cover_of

TOL = 1e-6


@dataclass(frozen=True)
class Summary:
    """What the program reported for one log."""

    notations: tuple[str, ...]
    bits: tuple[float, ...]
    cover_sizes: tuple[int, ...]
    total_bits: float
    baseline_bits: float
    percent_length: float


def summarize(report) -> Summary:
    """Reduce a ``cadence`` collection report to a :class:`Summary`."""
    entries = report.patterns
    return Summary(
        notations=tuple(e.notation for e in entries),
        bits=tuple(e.cost.total for e in entries),
        cover_sizes=tuple(e.cover_size for e in entries),
        total_bits=report.total_bits,
        baseline_bits=report.baseline_bits,
        percent_length=report.percent_length,
    )


def baseline_bits(log: Log) -> float:
    """Bits to send every occurrence on its own: a timestamp out of
    ``span + 1`` values plus the label at its empirical frequency."""
    times = [t for t, _ in log.pairs]
    n = len(log.pairs)
    counts: dict[str, int] = {}
    for _, e in log.pairs:
        counts[e] = counts.get(e, 0) + 1
    bits = n * math.log2(max(times) - min(times) + 1)
    return bits + sum(c * math.log2(n / c) for c in counts.values())


def decode(summary: Summary) -> list[frozenset | None]:
    """Each reported pattern's cover, by the benchmark's own reader;
    None where the notation does not parse."""
    covers = []
    for notation in summary.notations:
        try:
            covers.append(cover_of(notation))
        except ValueError:
            covers.append(None)
    return covers


def check(log: Log, seq, summary: Summary, covers: list[frozenset | None]) -> list[str]:
    """Problems with a summary of ``seq`` (the program's parse of
    ``log``) whose patterns cover ``covers``; empty when the output is
    correct."""
    problems: list[str] = []
    if len(seq) != log.occurrences:
        problems.append(f"parsed {len(seq)} occurrences, the log has {log.occurrences}")
    stats = cadence.SeqStats.from_sequence(seq)
    patterns = []
    for notation, bits, size, cover in zip(summary.notations, summary.bits, summary.cover_sizes, covers):
        try:
            pattern = cadence.parse_pattern(notation)
            again = cadence.pattern_cost(pattern, stats).total
        except cadence.CadenceError as exc:
            problems.append(f"{notation!r} does not re-parse or re-price: {exc}")
            continue
        if cover is None:
            problems.append(f"{notation!r} is not valid notation")
            continue
        patterns.append(pattern)
        if abs(again - bits) > TOL:
            problems.append(f"{notation!r} re-prices to {again}, reported {bits}")
        if len(cover) != size:
            problems.append(f"{notation!r} covers {len(cover)} occurrences, reported {size}")
        if not cover <= log.pairs:
            problems.append(f"{notation!r} covers occurrences outside the log")
    if len(patterns) == len(summary.notations):
        try:
            total = cadence.collection_cost(patterns, seq, stats).total_bits
        except cadence.CadenceError as exc:
            problems.append(f"the collection does not re-price: {exc}")
        else:
            if abs(total - summary.total_bits) > TOL:
                problems.append(f"the collection re-prices to {total}, reported {summary.total_bits}")
    baseline = baseline_bits(log)
    if abs(baseline - summary.baseline_bits) > TOL:
        problems.append(f"baseline is {baseline}, reported {summary.baseline_bits}")
    if summary.total_bits > baseline + TOL:
        problems.append(f"total {summary.total_bits} exceeds the baseline {baseline}")
    return problems


def recovery(log: Log, covers: list[frozenset | None]) -> list[float]:
    """For each planted pattern, the best Jaccard similarity between its
    occurrences and one reported cover (1.0: recovered exactly)."""
    owners: dict[tuple[int, str], list[int]] = {}
    for k, cover in enumerate(covers):
        for pair in cover or ():
            owners.setdefault(pair, []).append(k)
    scores = []
    for plant in log.plants:
        shared: dict[int, int] = {}
        for pair in plant.cover:
            for k in owners.get(pair, ()):
                shared[k] = shared.get(k, 0) + 1
        scores.append(max(
            (n / (len(plant.cover) + len(covers[k]) - n) for k, n in shared.items()),
            default=0.0,
        ))
    return scores
