"""Command-line interface.

Four subcommands: ``mine`` runs the full pipeline on an event log,
``score`` prices a pattern collection against a log, ``stats`` prints a
log's summary, and ``synth-eval`` measures recovery of planted patterns
on synthetic data.  Results print as plain tables; ``--out`` writes the
same data as JSON.

Exit codes: 0 on success, 1 on usage errors, 2 on parse or domain
errors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from typing import Iterator, Sequence, TextIO

from .core import (
    CadenceError,
    DomainError,
    EventSequence,
    IngestOptions,
    InvalidPatternError,
    load_sequence,
)
from .codec import SeqStats, collection_cost, pattern_cost
from .miner import MiningConfig, mine
from .pattern import parse_pattern
from .synth import generate, parse_plant_spec, evaluate


@contextmanager
def _text(path: str) -> Iterator[TextIO]:
    """The file opened as UTF-8 text: every input file's one way in.

    ``utf-8-sig`` drops the leading byte-order mark that some editors
    write.  A byte that is not UTF-8 raises :class:`DomainError` naming
    the file and the byte's offset in it.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # a text stream decodes in chunks: exc.start counts from the chunk's start
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    exc = whole
            raise DomainError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None


def _load(path: str, opts: IngestOptions | None = None) -> EventSequence:
    with _text(path) as fh:
        return load_sequence(fh, opts or IngestOptions())


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_report_table(report) -> None:
    print(f"{'bits':>10}  {'cover':>5}  {'shape':<10}  notation")
    for entry in report.patterns:
        print(
            f"{entry.cost.total:>10.3f}  {entry.cover_size:>5}  "
            f"{entry.shape_class:<10}  {entry.notation}"
        )
    print(
        f"residual: {report.residual_count} occurrences, "
        f"{report.residual_bits:.3f} bits"
    )
    print(
        f"total: {report.total_bits:.3f} bits "
        f"({report.percent_length:.1f}% of baseline {report.baseline_bits:.3f})"
    )


def _cmd_mine(args: argparse.Namespace) -> int:
    opts = IngestOptions(
        granularity=args.granularity, succession_mode=args.succession
    )
    t0 = perf_counter()
    seq = _load(args.file, opts)
    ingest_s = perf_counter() - t0
    config = MiningConfig(
        k=args.k,
        max_rounds=args.max_rounds,
    )
    result = mine(seq, config)

    # Re-score every reported pattern from its own notation; the numbers
    # in the report must be reproducible from the printed text alone.
    # Pricing is a pure function of the pattern and the log's statistics,
    # and notations round-trip, so the two totals must be identical.
    stats = SeqStats.from_sequence(seq)
    for entry in result.selection.report.patterns:
        again = pattern_cost(parse_pattern(entry.notation), stats).total
        if again != entry.cost.total:
            raise CadenceError(
                f"internal error: re-scoring {entry.notation!r} gave "
                f"{again}, expected {entry.cost.total}"
            )

    print(
        f"{args.file}: {len(seq)} occurrences, "
        f"{len(seq.alphabet)} events, span {seq.span}"
    )
    print()
    header = (
        f"{'stage':<7} {'bits':>10} {'%L':>6} {'L:R':>5} {'pats':>4} "
        f"{'s':>3} {'v':>3} {'h':>3} {'m':>3} {'c+':>4}"
    )
    print(header)
    for name, sel in result.stages.items():
        rep = sel.report
        sc = rep.shape_counts
        print(
            f"{name:<7} {rep.total_bits:>10.3f} {rep.percent_length:>6.1f} "
            f"{rep.residual_ratio:>5.2f} {len(rep.patterns):>4} "
            f"{sc['s']:>3} {sc['v']:>3} {sc['h']:>3} {sc['m']:>3} "
            f"{rep.max_cover:>4}"
        )
    print()
    print(f"winner: {result.winner}")
    print()
    _print_report_table(result.selection.report)

    if args.out:
        payload = {
            "source": args.file,
            "granularity": args.granularity,
            "succession": args.succession,
            "config": {
                "k": config.k,
                "max_rounds": config.max_rounds,
            },
            "sequence": {
                "length": len(seq),
                "alphabet_size": len(seq.alphabet),
                "span": seq.span,
            },
            "result": result.to_dict(),
            "wall_clock_s": {"ingest": ingest_s},
        }
        _write_json(args.out, payload)
    return 0


def _read_patterns(path: str):
    patterns = []
    with _text(path) as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    patterns.append(parse_pattern(line))
                except (DomainError, InvalidPatternError) as exc:
                    raise DomainError(f"{path}: line {number}: {exc}") from None
    return patterns


def _cmd_score(args: argparse.Namespace) -> int:
    seq = _load(args.file)
    patterns = _read_patterns(args.patterns)
    stats = SeqStats.from_sequence(seq, t_start=args.t_start, t_end=args.t_end)
    report = collection_cost(patterns, seq, stats)
    print(
        f"{'A':>8} {'R':>8} {'p0':>8} {'D':>8} {'tau':>8} {'E':>8} "
        f"{'total':>10}  notation"
    )
    for entry in report.patterns:
        c = entry.cost
        print(
            f"{c.A:>8.3f} {c.R:>8.3f} {c.p0:>8.3f} {c.D:>8.3f} "
            f"{c.tau:>8.3f} {c.E:>8.3f} {c.total:>10.3f}  {entry.notation}"
        )
    print()
    _print_report_table(report)
    if args.out:
        _write_json(
            args.out,
            {
                "source": args.file,
                "patterns_file": args.patterns,
                "report": report.to_dict(),
            },
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = SeqStats.from_sequence(_load(args.file))
    counts = stats.counts
    median_count = float(statistics.median(counts.values()))
    max_count = max(counts.values())
    print(f"occurrences:   {stats.length}")
    print(f"time range:    [{stats.t_start}, {stats.t_end}] (span {stats.span})")
    print(f"events:        {len(counts)}")
    print(f"median count:  {median_count}")
    print(f"max count:     {max_count}")
    print("counts:")
    for label in sorted(counts):
        print(f"  {label:<16} {counts[label]}")
    if args.out:
        _write_json(
            args.out,
            {
                "source": args.file,
                "length": stats.length,
                "t_start": stats.t_start,
                "t_end": stats.t_end,
                "span": stats.span,
                "alphabet_size": len(counts),
                "median_count": median_count,
                "max_count": max_count,
                "counts": dict(counts),
            },
        )
    return 0


def _cmd_synth_eval(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {args.trials}")
    with _text(args.spec) as fh:
        base = parse_plant_spec(fh.read())
    trials = []
    print(
        f"{'trial':>5} {'seed':>6} {'events':>7} {'exact':>6} "
        f"{'%L found':>9} {'%L planted':>11} {'diff':>8}"
    )
    for i in range(args.trials):
        spec = replace(base, seed=base.seed + i)
        truth = generate(spec)
        result = mine(truth.perturbed, MiningConfig())
        report = evaluate(
            [c.pattern for c in result.selection.candidates], truth
        )
        trials.append((spec.seed, len(truth.perturbed), report))
        print(
            f"{i:>5} {spec.seed:>6} {len(truth.perturbed):>7} "
            f"{'yes' if report.exact_recovery else 'no':>6} "
            f"{report.percent_length_found:>9.2f} "
            f"{report.percent_length_planted:>11.2f} "
            f"{report.diff:>8.2f}"
        )
    n = len(trials)
    recovered = sum(1 for _, _, r in trials if r.exact_recovery)
    diffs = sorted(r.diff for _, _, r in trials)
    mean_diff = sum(diffs) / n
    print()
    print(f"exact recovery: {recovered}/{n}")
    print(
        f"diff: mean {mean_diff:.3f}, min {diffs[0]:.3f}, "
        f"median {statistics.median(diffs):.3f}, max {diffs[-1]:.3f}"
    )
    if args.out:
        _write_json(
            args.out,
            {
                "spec_file": args.spec,
                "trials": [
                    {"seed": seed, "events": events, **report.to_dict()}
                    for seed, events, report in trials
                ],
                "exact_recovery_rate": recovered / n,
                "mean_diff": mean_diff,
            },
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cadence",
        description="Mine nested periodic patterns from timestamped event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine a log for periodic patterns")
    p_mine.add_argument("file", help="event log (timestamp<TAB>label or t,label)")
    p_mine.add_argument(
        "--granularity", type=int, default=1, metavar="N",
        help="divide timestamps by N before mining (default 1)",
    )
    p_mine.add_argument(
        "--succession", action="store_true",
        help="replace timestamps by 0-based input ranks",
    )
    defaults = MiningConfig()
    p_mine.add_argument("--k", type=int, default=defaults.k, metavar="N",
                        help="per-occurrence retention width (default %(default)s)")
    p_mine.add_argument("--max-rounds", type=int, default=defaults.max_rounds, metavar="N",
                        help="maximum combination rounds; 0 stops after "
                        "cycle extraction (default %(default)s)")
    p_mine.add_argument("--out", metavar="FILE", help="write a JSON report")
    p_mine.set_defaults(func=_cmd_mine)

    p_score = sub.add_parser("score", help="price a pattern collection")
    p_score.add_argument("file", help="event log")
    p_score.add_argument(
        "--patterns", required=True, metavar="FILE",
        help="pattern notation, one per line",
    )
    p_score.add_argument(
        "--t-start", type=int, default=None, metavar="T",
        help="score in a window starting at T instead of the first occurrence",
    )
    p_score.add_argument(
        "--t-end", type=int, default=None, metavar="T",
        help="score in a window ending at T instead of the last occurrence",
    )
    p_score.add_argument("--out", metavar="FILE", help="write a JSON report")
    p_score.set_defaults(func=_cmd_score)

    p_stats = sub.add_parser("stats", help="print a log's summary")
    p_stats.add_argument("file", help="event log")
    p_stats.add_argument("--out", metavar="FILE", help="write a JSON report")
    p_stats.set_defaults(func=_cmd_stats)

    p_synth = sub.add_parser(
        "synth-eval", help="measure recovery of planted patterns"
    )
    p_synth.add_argument(
        "--spec", required=True, metavar="FILE",
        help="plant specification (key=value lines)",
    )
    p_synth.add_argument("--trials", type=int, default=20, metavar="N",
                         help="number of seeded trials (default 20)")
    p_synth.add_argument("--out", metavar="FILE", help="write a JSON report")
    p_synth.set_defaults(func=_cmd_synth_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for both --help (code 0) and usage
        # errors (mapped to 1 by _Parser).
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CadenceError as exc:
        print(f"cadence: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cadence: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
