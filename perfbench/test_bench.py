"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cadence  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- generator -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_logs(workload):
    first = next(gen.logs(workload, 7, 1))
    again = next(gen.logs(workload, 7, 1))
    other = next(gen.logs(workload, 8, 1))
    assert first.text == again.text and first.notations == again.notations
    assert first.text != other.text


@pytest.mark.parametrize("workload", ["stream", "heartbeats", "braids"])
def test_planted_notation_means_the_planted_occurrences(workload):
    logs = gen.logs(workload, 3, 1)
    for log in [next(logs) for _ in range(3 if workload == "stream" else 1)]:
        assert log.text.count("\n") == log.occurrences
        for plant in log.plants:
            pattern = cadence.parse_pattern(plant.notation)
            assert frozenset(cadence.pattern_occurrences(pattern)) == plant.cover
            assert gen.cover_of(plant.notation) == plant.cover
            assert plant.cover <= log.pairs


def test_notation_reader_round_trips():
    tree = (3, 40, ((4, 5, ("a", "b"), (0, 2)),), (0,))
    text = gen.format_pattern(tree, 7, [0] * 22 + [1])
    assert gen.parse_pattern(text) == (tree, 7, [0] * 22 + [1])
    with pytest.raises(ValueError):
        gen.parse_pattern(text.replace("E=[", "E=[0,"))


# -- output check ---------------------------------------------------------------


@pytest.fixture(scope="module")
def mined():
    log = next(log for log in gen.logs("stream", 5, 1) if len(log.plants) > 1)
    seq = cadence.load_sequence(log.text)
    result = cadence.mine(seq, cadence.MiningConfig())
    return log, seq, check.summarize(result.selection.report)


def verdict(log, seq, summary):
    return check.check(log, seq, summary, check.decode(summary))


def test_check_accepts_the_program_output(mined):
    log, seq, summary = mined
    assert summary.notations
    assert verdict(log, seq, summary) == []
    assert all(0.0 < s <= 1.0 for s in check.recovery(log, check.decode(summary)))


def test_recovery_is_one_exactly_for_the_planted_covers(mined):
    log, _, _ = mined
    assert check.recovery(log, [p.cover for p in log.plants]) == [1.0] * len(log.plants)
    assert check.recovery(log, [log.plants[0].cover])[1:] == [0.0] * (len(log.plants) - 1)


def test_check_rejects_a_corrupted_notation(mined):
    log, seq, summary = mined
    bad = summary.notations[0].replace(" @ tau=", " @ tau=1", 1)
    notations = (bad,) + summary.notations[1:]
    assert verdict(log, seq, dataclasses.replace(summary, notations=notations))


def test_check_rejects_a_corrupted_total(mined):
    log, seq, summary = mined
    corrupted = dataclasses.replace(summary, total_bits=summary.total_bits - 0.5)
    assert verdict(log, seq, corrupted)


def test_check_rejects_a_total_above_the_baseline(mined):
    log, seq, summary = mined
    corrupted = dataclasses.replace(summary, total_bits=summary.baseline_bits + 1.0)
    assert any("exceeds the baseline" in p for p in verdict(log, seq, corrupted))


# -- speed probe ----------------------------------------------------------------


def test_reference_time_divides_by_the_slowdown_during_the_call():
    p = speed.Probe()
    p.times = [float(t) for t in range(20)]
    p.costs = [speed.NOMINAL] * 10 + [2 * speed.NOMINAL] * 10
    inside = 10 * 2 * speed.NOMINAL
    assert p.reference_time(9.5, 19.5) == pytest.approx((10.0 - inside) / 2)
    # Few samples inside: the latest eight up to the end rate the call.
    assert p.reference_time(17.5, 18.5) == pytest.approx((1.0 - 2 * speed.NOMINAL) / 2)
    assert p.reference_time(9.5, 10.5) == pytest.approx((1.0 - 2 * speed.NOMINAL) / (9 / 8))
    # Stolen time is taken off first, at the share stolen over the window.
    p.marks = [(16.5, [0.0, 3.0]), (17.5, [0.5, 3.0]), (18.5, [1.0, 3.5])]
    assert p.stolen_share(17.5, 18.5) == pytest.approx(0.5)
    assert p.reference_time(17.5, 18.5) == pytest.approx((0.5 - 2 * speed.NOMINAL) / 2)


def test_stolen_time_is_the_largest_per_cpu_increase():
    assert speed.stolen([1.0, 5.0], [1.5, 5.1]) == pytest.approx(0.5)
    assert speed.stolen([], []) == 0.0
    assert all(s >= 0 for s in speed.steal())


def test_probe_samples_while_running():
    p = speed.Probe()
    p.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    finally:
        p.stop()
    assert len(p.times) == len(p.costs) >= 3
    assert all(c > 0 for c in p.costs)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ("outer", -1, 0.0, 10.0),
        ("inner", 0, 1.0, 4.0),
        ("inner", 0, 3.0, 5.0),  # overlaps the first child, as on a worker thread
        ("leaf", 1, 2.0, 3.0),
    ]
    times = tracer.span_times()
    assert times[("outer", "")] == [1, 10.0, 6.0]
    assert times[("inner", "outer")] == [2, 5.0, 4.0]
    assert times[("leaf", "inner")] == [1, 1.0, 1.0]


def test_install_wraps_every_name_a_caller_looks_up():
    original = cadence.pattern.grow_horizontally
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert cadence.miner.grow_horizontally is not original
        assert cadence.pattern.grow_horizontally is cadence.miner.grow_horizontally
        assert cadence.codec.expand_tree is cadence.pattern.expand_tree
        tracer.enabled = True
        seq = cadence.load_sequence(next(gen.logs("stream", 2, 1)).text)
        cadence.mine(seq, cadence.MiningConfig())
        tracer.enabled = False
    finally:
        uninstall()
    assert cadence.miner.grow_horizontally is original
    names = {name for name, _ in tracer.span_times()}
    assert {"core.load_sequence", "miner.mine", "miner.extract_cycles", "codec.pattern_cost"} <= names
    assert tracer.counts()["codec.residual_cost"] > 0


# -- the command ----------------------------------------------------------------


@pytest.fixture(scope="module")
def traced():
    return result_of(run("--workload", "stream", "--seed", "4", "--seconds", "1", "--trace", "1"))


def test_untraced_run_prints_every_end_to_end_metric():
    result = result_of(run("--workload", "stream", "--seed", "4", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["attempted"] >= 100 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected


def test_traced_counts_repeat_exactly(traced):
    again = result_of(run("--workload", "stream", "--seed", "4", "--seconds", "1", "--trace", "1"))
    exact = [k for k in traced["metrics"] if k.endswith(".calls")]
    exact += ["miner.pool_size", "miner.candidates_out", "miner.useful_ratio"]
    assert {k: traced["metrics"][k] for k in exact} == {k: again["metrics"][k] for k in exact}


def test_stage_times_account_for_mining(traced):
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    stages = m["miner.extract.s"] + m["miner.combine.s"] + m["miner.select.s"]
    assert stages == pytest.approx(m["miner.mine.s"], rel=0.05)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
