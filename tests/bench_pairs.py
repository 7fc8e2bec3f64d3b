"""Run the benchmark on two checkouts in alternating pairs and say, per
end-to-end metric, whether the second one's gain holds.

    python3 tests/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N [--trace]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, from that checkout's own directory:
the parent first in even pairs, the change first in odd ones.  ``T`` is
``--seconds``, by default ``BENCHMARK.json``'s ``run_seconds`` in
CHANGE_DIR, whose ``end_to_end`` list also names the metrics and which
way each is better.  For each metric the script prints each side's
median and quartiles over its runs, the change's median over the
parent's, and how many pairs the change won (a tie counts for
neither).  Then it prints whether the gain rule holds: the change wins
at least nine tenths of the pairs, and its median beats the parent's by
more than the distance between the parent's quartiles.  Quartiles are
``statistics.quantiles``' default (exclusive) cut points.  Last it
prints a no-regression verdict against the metric's ``bound``, read as
a fraction of the parent's median: ``regressed`` when the change's
median is worse by more than the bound, else ``unresolved`` when the
parent's quartiles lie further apart than the bound and not every
change run beats every parent run, else ``within bound``.  Each side's
failed and attempted logs are summed over its runs.

With ``--trace`` the runs are ``--trace 1`` runs, alternating the same
way, and the script prints each side's median of every per-layer
metric that ``BENCHMARK.json`` lists instead.  Per-layer seconds are
raw wall time, so only medians of alternating runs can show a layer
moving.  For each ``.calls`` count it says whether every run of both
sides read the same value: calls are deterministic, and a pure speed
change keeps them.

The script needs nothing outside the standard library and imports
neither checkout's program.  Exit status: 0 when every run checked its
outputs, 1 otherwise; a run that prints no metrics stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Summary:
    """One metric over the runs of both sides, pair ``i`` being
    ``parent[i]`` and ``change[i]``."""

    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    pairs: int
    gain: bool
    verdict: str  # "regressed", "unresolved" or "within bound"


def summarize(parent: list[float], change: list[float], better: str, bound: float = 0.0) -> Summary:
    """Each side's quartiles, the pairs the change won, whether its gain
    holds and its no-regression verdict under ``bound`` (a fraction of
    the parent's median, 0 by default), for a metric whose ``better``
    is ``"higher"`` or ``"lower"``.  Each side needs two runs or more,
    one per pair."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need one run per side in each of two or more pairs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p, c = (tuple(statistics.quantiles(side, n=4)) for side in (parent, change))
    gain = 10 * wins >= 9 * len(parent) and sign * (c[1] - p[1]) > p[2] - p[0]
    allowed = bound * abs(p[1])
    if sign * (c[1] - p[1]) < -allowed:
        verdict = "regressed"
    elif p[2] - p[0] > allowed and min(sign * y for y in change) <= max(sign * x for x in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return Summary(p, c, wins, len(parent), gain, verdict)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric over the traced runs of both sides."""

    parent: float  # median
    change: float
    same: bool | None  # a count's runs all read one value; None for other metrics


def summarize_layer(name: str, parent: list[float], change: list[float]) -> Layer:
    """Each side's median of the per-layer metric ``name`` and, for a
    ``.calls`` count, whether every run of both sides read one value."""
    if not parent or not change:
        raise ValueError("need at least one run per side")
    same = len(set(parent) | set(change)) == 1 if name.endswith(".calls") else None
    return Layer(statistics.median(parent), statistics.median(change), same)


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if args.trace else "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else {}
    if not result.get("metrics"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pairs: {checkout}: run.py exited {done.returncode} with no metrics")
    return result


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.4g}"


def print_layers(metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                  for side, results in runs.items()}
        missing = [side for side, results in runs.items() if len(values[side]) < len(results)]
        if missing:
            print(f"{name}: missing from a run of {' and '.join(missing)}")
            continue
        s = summarize_layer(name, values["parent"], values["change"])
        ratio = s.change / s.parent if s.parent else float("nan")
        line = f"{name} ({metric['unit']}): parent {fmt(s.parent)}, change {fmt(s.change)}, ratio {ratio:.3f}"
        if s.same is not None:
            line += ", same in every run" if s.same else (
                f", differs: parent {sorted(set(values['parent']))}, change {sorted(set(values['change']))}"
            )
        print(line)


def print_end_to_end(metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results] for side, results in runs.items()}
        s = summarize(values["parent"], values["change"], metric["better"], metric["bound"])
        ratio = s.change[1] / s.parent[1] if s.parent[1] else float("nan")
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {fmt(s.parent[1])} [{fmt(s.parent[0])}, {fmt(s.parent[2])}], "
            f"change {fmt(s.change[1])} [{fmt(s.change[0])}, {fmt(s.change[2])}], "
            f"ratio {ratio:.3f}, change better in {s.wins} of {s.pairs}, "
            f"gain {'holds' if s.gain else 'does not hold'}, "
            f"{s.verdict} (bound {metric['bound']:g})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true", help="compare per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {failed} of {attempted} logs failed over {len(results)} runs")
    if args.trace:
        print_layers(bench["per_layer"], runs)
    else:
        print_end_to_end(bench["end_to_end"], runs)
    return 0 if all(r["correct"] for results in runs.values() for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
