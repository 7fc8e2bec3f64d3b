"""Benchmark for the cadence library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Feeds generated logs (``gen.py``) to cadence one at a time, the way a
``cadence mine`` or ``cadence score`` user does: one closed-loop client,
the next log sent when the previous one returns.  Every output is
checked (``check.py``).  Each log prints one JSON line; the last line is
the result, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with times in reference
seconds: wall seconds corrected for a shared machine's drifting CPU
speed (``speed.py``).  ``--trace 1`` first runs the same command untraced in a
fresh interpreter, then runs the same logs with spans around cadence's
public functions (``spans.py``) and reports the per-layer metrics,
including the tracing overhead.  Spans are written to
``perfbench/out/``.

The program is imported from ``src/`` next to this directory.  Exit
status: 0 when every output checks, 1 when one does not, 2 when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(trace: bool):
    """Everything a run needs before its first log: the program, the
    benchmark's modules, the mining configuration and, when tracing,
    the installed tracer."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import cadence

    import check  # noqa: F401  (imported here so set-up time covers it)
    import gen  # noqa: F401
    import speed  # noqa: F401

    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    config = cadence.MiningConfig(threads=threads or 1)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    return cadence, config, tracer


def measure_setup(args, probe) -> float:
    """Median reference time of fresh interpreters that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    intervals = []
    probe.start()
    try:
        for _ in range(SETUP_PROBES):
            t0 = probe.mark(start=True)
            # No timeout: with one, subprocess polls the child every 50 ms.
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            intervals.append((t0, probe.mark(start=False)))
    finally:
        probe.stop()
    return statistics.median(probe.reference_time(*interval) for interval in intervals)


def send(cadence, config, mode: str, log):
    """What a user does with one log: parse it, then mine it or price
    its planted collection.  Returns the sequence, the mining result
    (None in ``score``) and the report."""
    seq = cadence.load_sequence(log.text)
    if mode == "mine":
        result = cadence.mine(seq, config)
        return seq, result, result.selection.report
    patterns = [cadence.parse_pattern(line) for line in log.notations.splitlines()]
    return seq, None, cadence.collection_cost(patterns, seq)


def run_logs(args, cadence, config, tracer, probe):
    """Send every log of the run, check each output and return per-log
    records."""
    import check
    import gen

    mode = gen.WORKLOADS[args.workload].mode
    records = []
    if probe:
        probe.start()
    try:
        for i, log in enumerate(gen.logs(args.workload, args.seed, args.seconds)):
            if tracer:
                tracer.new_log()
                tracer.enabled = True
            t0 = probe.mark(start=True) if probe else perf_counter()
            try:
                seq, result, report = send(cadence, config, mode, log)
            except Exception:
                traceback.print_exc()
                report = None
            t1 = probe.mark(start=False) if probe else perf_counter()
            if tracer:
                tracer.enabled = False
            record = {"log": i, **log.dims(), "s": t1 - t0, "interval": (t0, t1)}
            if report is None:
                record["problems"] = ["raised"]
            else:
                summary = check.summarize(report)
                covers = check.decode(summary)
                scores = check.recovery(log, covers)
                record.update(
                    percent_length=summary.percent_length,
                    exact=sum(s == 1.0 for s in scores),
                    problems=check.check(log, seq, summary, covers),
                    recovery=scores,
                    result=result,
                )
            for problem in record["problems"]:
                print(f"log {i}: {problem}", file=sys.stderr)
            records.append(record)
    finally:
        if probe:
            probe.stop()
    for record in records:
        interval = record.pop("interval")
        if probe:
            record["ref_s"] = probe.reference_time(*interval)
        print(json.dumps({k: v for k, v in record.items() if k not in ("result", "recovery")}))
    return records


def end_to_end(records, setup_s: float) -> dict:
    times = [r["ref_s"] for r in records]
    scores = [s for r in records for s in r["recovery"]]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "setup_s": (setup_s, "s"),
        "occ_per_s": (sum(r["occurrences"] for r in records) / sum(times), "occ/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_p90_s": (p90, "s"),
        "percent_length": (statistics.fmean(r["percent_length"] for r in records), "%"),
        "recovery_jaccard": (statistics.fmean(scores), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(records, tracer, overhead_s: float) -> dict:
    times = tracer.span_times()
    counts = tracer.counts()

    def by_name(name: str, col: int) -> float:
        return sum(row[col] for (n, _), row in times.items() if n == name)

    def by_parent(name: str, parent: str, col: int) -> float:
        row = times.get((name, parent))
        return row[col] if row else 0

    results = [r["result"] for r in records if r.get("result") is not None]
    clocks = [getattr(res, "wall_clock_s", {}) for res in results]
    stage = {k: sum(c.get(k, 0.0) for c in clocks) for k in ("extract", "combine", "select")}
    pool = sum(len(res.pool) for res in results)
    selected = sum(len(res.selection.candidates) for res in results)
    load_s = by_name("core.load_sequence", 1)
    lines = sum(r["occurrences"] for r in records)
    cost_calls = by_name("codec.pattern_cost", 0)
    tri = "miner.extract_cycles_tri"
    return {
        "core.load_sequence.s": (load_s, "s"),
        "core.load_sequence.lines_per_s": (lines / load_s if load_s else 0.0, "lines/s"),
        "miner.mine.s": (by_name("miner.mine", 1), "s"),
        "miner.extract.s": (stage["extract"], "s"),
        "miner.combine.s": (stage["combine"], "s"),
        "miner.select.s": (stage["select"], "s"),
        "miner.extract_cycles_dp.calls": (by_name("miner.extract_cycles_dp", 0), "count"),
        "miner.extract_cycles_dp.self_s": (by_name("miner.extract_cycles_dp", 2), "s"),
        "miner.extract_cycles_tri.in_extract.calls": (by_parent(tri, "miner.extract_cycles", 0), "count"),
        "miner.extract_cycles_tri.in_extract.self_s": (by_parent(tri, "miner.extract_cycles", 2), "s"),
        "miner.extract_cycles_tri.in_combine_vertically.calls": (by_parent(tri, "miner.combine_vertically", 0), "count"),
        "miner.extract_cycles_tri.in_combine_vertically.self_s": (by_parent(tri, "miner.combine_vertically", 2), "s"),
        "miner.combine_vertically.calls": (by_name("miner.combine_vertically", 0), "count"),
        "miner.combine_vertically.self_s": (by_name("miner.combine_vertically", 2), "s"),
        "miner.combine_horizontally.calls": (by_name("miner.combine_horizontally", 0), "count"),
        "miner.combine_horizontally.self_s": (by_name("miner.combine_horizontally", 2), "s"),
        "miner.filter_candidates.self_s": (by_name("miner.filter_candidates", 2), "s"),
        "miner.greedy_cover.calls": (by_name("miner.greedy_cover", 0), "count"),
        "miner.greedy_cover.self_s": (by_name("miner.greedy_cover", 2), "s"),
        "miner.single_scan.s": (stage["select"] - by_name("miner.greedy_cover", 1), "s"),
        "miner.pool_size": (pool, "count"),
        "miner.candidates_out": (tracer.candidates_out, "count"),
        "miner.useful_ratio": (selected / pool if pool else 0.0, "ratio"),
        "codec.pattern_cost.calls": (cost_calls, "count"),
        "codec.pattern_cost.self_s": (by_name("codec.pattern_cost", 2), "s"),
        "codec.pattern_cost.repeat_ratio": (tracer.cost_repeats / cost_calls if cost_calls else 0.0, "ratio"),
        "codec.residual_cost.calls": (counts["codec.residual_cost"], "count"),
        "codec.collection_cost.self_s": (by_name("codec.collection_cost", 2), "s"),
        "pattern.grow_horizontally.calls": (by_name("pattern.grow_horizontally", 0), "count"),
        "pattern.grow_horizontally.self_s": (by_name("pattern.grow_horizontally", 2), "s"),
        "pattern.grow_vertically.calls": (by_name("pattern.grow_vertically", 0), "count"),
        "pattern.grow_vertically.self_s": (by_name("pattern.grow_vertically", 2), "s"),
        "pattern.expand_tree.calls": (counts["pattern.expand_tree"], "count"),
        "pattern.fit_cycle.calls": (counts["pattern.fit_cycle"], "count"),
        "pattern.parse_pattern.s": (by_name("pattern.parse_pattern", 1), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def untraced_wall(args) -> float:
    """Run the same logs untraced in a fresh interpreter and return the
    total wall time of its timed calls."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"run.py: the untraced run failed with status {proc.returncode}")
    # The per-log lines carry each timed call's duration.
    return sum(json.loads(line)["s"] for line in lines[:-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cadence" / "__init__.py").is_file():
        print(f"run.py: no cadence package under {SRC}", file=sys.stderr)
        return 2
    cadence, config, tracer = setup(bool(args.trace))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    import speed

    probe = None
    if tracer:
        base_wall = untraced_wall(args)
    else:
        probe = speed.Probe()
        setup_s = measure_setup(args, probe)
    records = run_logs(args, cadence, config, tracer, probe)
    failed = sum(1 for r in records if r["problems"])
    ok = [r for r in records if not r["problems"]]
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
        metrics = per_layer(ok, tracer, sum(r["s"] for r in records) - base_wall) if ok else {}
    else:
        metrics = end_to_end(ok, setup_s) if ok else {}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
