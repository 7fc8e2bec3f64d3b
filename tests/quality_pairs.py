"""Mine every benchmark log of a few seeds in one or two checkouts and
compare the quality each reaches: %L, recovery, exact plants and
winning stages, beside the %L of the planted collections.

    python3 tests/quality_pairs.py PARENT_DIR [CHANGE_DIR] [--seeds 501-510]
        [--workload W] [--fall X]

For each mining workload of ``perfbench/gen.py`` (or the one
``--workload`` names) and each seed, every log of one benchmark run
(``BENCHMARK.json``'s ``run_seconds``) is parsed and mined once with the
default configuration, in a fresh interpreter per checkout that puts
the checkout's own ``src/`` and ``perfbench/`` first on its path.  A
log's %L is its winning selection's ``percent_length``, and its
recovery scores are ``perfbench/check.py``'s, read from the reported
notations as ``perfbench/run.py`` reads them: a seed's %L is the mean
over its logs and its recovery the mean over its plants.  A log's
planted %L is that of its planted notations, parsed and priced by
``collection_cost`` as the ``score`` workload prices them, and a seed's
is the mean over its logs.  Every metric is deterministic, so one
``mine()`` per log is enough.

Per workload and checkout the script prints the median over the seeds
of %L, of planted %L and of recovery, and, summed over the seeds, the
plants recovered exactly and how many logs each stage won.  With two
checkouts it then prints every log whose %L or recovery moved, the
largest %L move first, and two verdict lines: whether the change's %L
median falls below the parent's by at least ``--fall`` points (0.25 by
default), and whether the medians hold, %L not rising and recovery not
falling.  With one checkout it prints that checkout's baselines only.
Seeds are given as in ``tests/output_hashes.py``: each a seed or an
inclusive range ``A-B``.

The script needs nothing outside the standard library.  It imports
each checkout's generator and checker and never changes them, and it
imports no checkout's program into its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Side:
    """One checkout's quality on one workload, over its seeds."""

    percent_length: float  # median over the seeds of each seed's mean %L
    planted: float  # the same median of the planted collections' %L
    recovery: float  # median over the seeds of each seed's mean recovery
    exact: int  # plants recovered exactly
    plants: int
    winners: dict[str, int]  # logs each stage won
    logs: int


@dataclass(frozen=True)
class Move:
    """One log whose %L or recovery differs between the checkouts."""

    seed: int
    log: int
    percent_length: tuple[float, float]  # parent, change
    recovery: tuple[float, float]  # mean over the log's plants


def _mean(scores: list[float]) -> float:
    """The mean of the scores, 0 for none (a log or seed with no plant)."""
    return statistics.fmean(scores) if scores else 0.0


def summarize(records: list[dict]) -> Side:
    """The medians and counts of one checkout's per-log records, each
    ``{"seed", "log", "percent_length", "planted", "recovery",
    "winner"}`` with ``planted`` the %L of the log's planted collection
    and ``recovery`` the log's per-plant scores."""
    if not records:
        raise ValueError("need at least one log")
    by_seed: dict[int, list[dict]] = {}
    for r in records:
        by_seed.setdefault(r["seed"], []).append(r)
    scores = [s for r in records for s in r["recovery"]]

    def median_of_means(key: str) -> float:
        return statistics.median(statistics.fmean(r[key] for r in rs) for rs in by_seed.values())

    return Side(
        percent_length=median_of_means("percent_length"),
        planted=median_of_means("planted"),
        recovery=statistics.median(
            _mean([s for r in rs for s in r["recovery"]]) for rs in by_seed.values()
        ),
        exact=sum(s == 1.0 for s in scores),
        plants=len(scores),
        winners=dict(sorted(Counter(r["winner"] for r in records).items())),
        logs=len(records),
    )


def moves(parent: list[dict], change: list[dict]) -> list[Move]:
    """The logs whose %L or mean recovery differs, the largest %L move
    first (then in seed and log order).  Both sides must hold the same
    logs."""
    before = {(r["seed"], r["log"]): r for r in parent}
    after = {(r["seed"], r["log"]): r for r in change}
    if before.keys() != after.keys():
        raise ValueError("the two checkouts mined different logs")
    out = []
    for key in sorted(before):
        a, b = before[key], after[key]
        pl = (a["percent_length"], b["percent_length"])
        rec = (_mean(a["recovery"]), _mean(b["recovery"]))
        if pl[0] != pl[1] or rec[0] != rec[1]:
            out.append(Move(*key, pl, rec))
    out.sort(key=lambda m: -abs(m.percent_length[1] - m.percent_length[0]))
    return out


def verdicts(parent: Side, change: Side, fall: float) -> tuple[bool, bool]:
    """Whether the change's %L median falls by at least ``fall`` points,
    and whether its medians hold: %L does not rise and recovery does not
    fall."""
    falls = parent.percent_length - change.percent_length >= fall
    hold = change.percent_length <= parent.percent_length and change.recovery >= parent.recovery
    return falls, hold


def seeds(specs: list[str]) -> list[int]:
    """The seeds the specs name, each a seed or a range ``A-B``."""
    out = []
    for spec in specs:
        first, _, last = spec.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def mine_logs(checkout: Path, workload: str, seed_list: list[int], seconds: float) -> None:
    """Print one JSON record per log that ``checkout`` mines."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import cadence
    import check
    import gen

    for seed in seed_list:
        for i, log in enumerate(gen.logs(workload, seed, seconds)):
            seq = cadence.load_sequence(log.text)
            result = cadence.mine(seq)
            summary = check.summarize(result.selection.report)
            planted = [cadence.parse_pattern(line) for line in log.notations.splitlines()]
            record = {
                "seed": seed,
                "log": i,
                "percent_length": summary.percent_length,
                "planted": cadence.collection_cost(planted, seq).percent_length,
                "recovery": check.recovery(log, check.decode(summary)),
                "winner": result.winner,
            }
            print(json.dumps(record), flush=True)


def run_side(checkout: Path, workload: str, seed_list: list[int], seconds: float) -> list[dict]:
    """The per-log records of ``checkout``, mined in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), str(checkout), "--mine",
        "--workload", workload, "--seeds", *map(str, seed_list), "--seconds", str(seconds),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"quality_pairs: {checkout}: mining {workload} exited {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def describe(name: str, side: Side) -> str:
    winners = ", ".join(f"{stage} {n}" for stage, n in side.winners.items())
    return (
        f"  {name}: %L median {side.percent_length:.3f}, planted %L median {side.planted:.3f}, "
        f"recovery median {side.recovery:.3f}, "
        f"exact plants {side.exact} of {side.plants}, winners {winners}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="DIR")
    parser.add_argument("--seeds", nargs="+", default=["501-510"])
    parser.add_argument("--workload", help="one mining workload; all of them by default")
    parser.add_argument("--fall", type=float, default=0.25, help="%%L points the median must fall")
    parser.add_argument("--seconds", type=float, help="seconds of one benchmark run")
    parser.add_argument("--mine", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    seed_list = seeds(args.seeds)
    last = args.checkouts[-1]
    if args.seconds is None:
        bench = json.loads((last / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = bench["run_seconds"]
    if args.mine:
        mine_logs(last, args.workload, seed_list, args.seconds)
        return 0

    sys.path.insert(0, str(last / "perfbench"))
    import gen

    mining = [w for w, spec in gen.WORKLOADS.items() if spec.mode == "mine"]
    if args.workload is not None and args.workload not in mining:
        parser.error(f"--workload must be one of {', '.join(mining)}")
    names = ("parent", "change") if len(args.checkouts) == 2 else ("baseline",)
    for workload in [args.workload] if args.workload else mining:
        runs = [run_side(c, workload, seed_list, args.seconds) for c in args.checkouts]
        sides = [summarize(records) for records in runs]
        print(f"{workload}: seeds {', '.join(args.seeds)}, {sides[0].logs} logs")
        for name, side in zip(names, sides):
            print(describe(name, side))
        if len(runs) < 2:
            continue
        moved = moves(*runs)
        print(f"  moved: {len(moved)} of {sides[0].logs} logs")
        for m in moved:
            (pa, pb), (ra, rb) = m.percent_length, m.recovery
            print(
                f"    seed {m.seed} log {m.log}: %L {pa:.3f} -> {pb:.3f} ({pb - pa:+.3f}), "
                f"recovery {ra:.3f} -> {rb:.3f}"
            )
        falls, hold = (("no", "yes")[v] for v in verdicts(*sides, args.fall))
        delta = sides[1].percent_length - sides[0].percent_length
        print(f"  verdict: %L median falls by at least {args.fall:g}: {falls} ({delta:+.3f})")
        print(f"  verdict: medians hold (%L does not rise, recovery does not fall): {hold}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
