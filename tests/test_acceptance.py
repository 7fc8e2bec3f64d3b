"""Acceptance gate: nine criteria checked end to end, one test each.

Every test records its verdict through the ``acceptance`` fixture before
asserting, so the terminal summary always prints one PASS/FAIL line per
criterion (see ``pytest_terminal_summary`` in conftest).  Each criterion
also carries a wall-clock budget; blowing the budget fails the
criterion even when the numbers are right.

The criteria, in order:

1.  reference-costs: the hand-verified cost tables reproduce to within
    0.005 bits, per field and in total.
2.  reconstruction: patterns rebuild the exact logs they were fitted
    to, and tree expansion matches the hand-expanded references.
3.  segmentation-optimality: the cycle-extraction dynamic program
    matches an exhaustive segmentation oracle on short lists.
4.  period-optimality: no integer period beats the fitted median
    period on correction cost.
5.  greedy-guarantee: the selected collection never loses to any
    single pooled candidate plus residuals, and never loses to the
    baseline.
6.  planted-recovery: noise-free single-cycle plants are recovered
    exactly in at least 80% of trials.
7.  threshold-soundness: a fitted cycle whose absolute corrections sum
    below the closed-form threshold is always cost-effective, and the
    threshold grows by more than the extension margin per repetition.
8.  scale-smoke: a five-figure event log with twenty planted patterns
    mines end to end inside a minute with a clear compression win.
9.  compression-floor: three small planted logs mine to a %L no higher
    than the value each was pinned at, plus a small margin.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from cadence.codec import (
    SeqStats,
    baseline_cost,
    collection_cost,
    corrections_cost,
    is_cost_effective,
    pattern_cost,
    w_threshold,
)
from cadence.core import EventSequence
from cadence.miner import MiningConfig, extract_cycles_dp, mine
from cadence.pattern import (
    corrected_occurrences,
    expand_tree,
    fit_cycle,
    fit_period,
    parse_pattern,
    parse_tree,
)
from cadence.synth import PlantSpec, evaluate, generate

from conftest import (
    BIT_TOL,
    DOZEN_A_PAIRS,
    REFERENCE_COLLECTIONS,
    REFERENCE_ROWS,
    TRIAD_PAIRS,
)
from test_pattern import BRAID_PATTERN, EXPANSIONS, NEST_PATTERN
from _oracles import (
    cycle_selection_bits,
    optimal_segmentation_bits,
    single_candidate_bits,
)


def test_reference_costs(acceptance, stats_by_context, dozen_a_seq, triad_seq):
    t0 = perf_counter()
    failures = []

    for context, notation, fields, total in REFERENCE_ROWS:
        cost = pattern_cost(parse_pattern(notation), stats_by_context[context])
        for field, want in fields.items():
            got = getattr(cost, field)
            if abs(got - want) > BIT_TOL:
                failures.append(f"{notation} {field}: {got:.3f} != {want:.3f}")
        if abs(cost.total - total) > BIT_TOL:
            failures.append(f"{notation} total: {cost.total:.3f} != {total:.3f}")

    seq_by_context = {"a12": dozen_a_seq, "abc9": triad_seq}
    for name, context, rows, total in REFERENCE_COLLECTIONS:
        patterns = [parse_pattern(REFERENCE_ROWS[i][1]) for i in rows]
        report = collection_cost(
            patterns, seq_by_context[context], stats_by_context[context]
        )
        if report.residual_count != 0:
            failures.append(f"{name}: unexpected residuals")
        if abs(report.total_bits - total) > BIT_TOL:
            failures.append(f"{name}: {report.total_bits:.3f} != {total:.3f}")

    for context, want in (("a12", 61.551), ("abc9", 60.430)):
        got = baseline_cost(stats_by_context[context])
        if abs(got - want) > BIT_TOL:
            failures.append(f"baseline {context}: {got:.3f} != {want:.3f}")

    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 1.0
    detail = (
        f"13 rows, 6 collections, 2 baselines within {BIT_TOL} bits "
        f"in {elapsed:.2f}s"
        if not failures
        else "; ".join(failures[:3])
    )
    acceptance("reference-costs", ok, detail)
    assert not failures, failures
    assert elapsed < 1.0


def test_reconstruction(acceptance):
    t0 = perf_counter()
    failures = []

    rebuilt = tuple(sorted(corrected_occurrences(parse_pattern(NEST_PATTERN))))
    if rebuilt != DOZEN_A_PAIRS:
        failures.append("nested pattern does not rebuild the dozen-a log")
    rebuilt = tuple(sorted(corrected_occurrences(parse_pattern(BRAID_PATTERN))))
    if rebuilt != TRIAD_PAIRS:
        failures.append("braid pattern does not rebuild the triad log")

    for notation, expected in EXPANSIONS.items():
        occs, _ = expand_tree(parse_tree(notation))
        if list(occs) != list(expected):
            failures.append(f"expansion mismatch for {notation}")

    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 1.0
    detail = (
        f"2 logs rebuilt, {len(EXPANSIONS)} expansions matched in {elapsed:.2f}s"
        if not failures
        else "; ".join(failures[:3])
    )
    acceptance("reconstruction", ok, detail)
    assert not failures, failures
    assert elapsed < 1.0


def test_segmentation_optimality(acceptance):
    t0 = perf_counter()
    worst = 0.0
    trials = 200
    for trial in range(trials):
        rng = random.Random(trial)
        n = rng.randint(3, 12)
        span = rng.randint(n, 120)
        ts = tuple(sorted(rng.sample(range(span + 1), n)))
        length = n + rng.randint(0, 10)
        counts = {"a": n}
        if length > n:
            counts["z"] = length - n
        stats = SeqStats(length=length, t_start=0, t_end=span, counts=counts)
        cycles = extract_cycles_dp(ts, "a", stats)
        got = cycle_selection_bits(cycles, ts, "a", stats)
        want = optimal_segmentation_bits(ts, "a", stats)
        worst = max(worst, abs(got - want))

    elapsed = perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    detail = f"{trials} lists, worst gap {worst:.2e} bits in {elapsed:.2f}s"
    acceptance("segmentation-optimality", ok, detail)
    assert worst <= 1e-9, detail
    assert elapsed < 30.0


def test_period_optimality(acceptance):
    t0 = perf_counter()
    violations = []
    trials = 200
    for trial in range(trials):
        rng = random.Random(1000 + trial)
        n = rng.randint(3, 10)
        span = rng.randint(n, 100)
        ts = tuple(sorted(rng.sample(range(span + 1), n)))
        p_fit, e_fit = fit_period(ts)
        fit_bits = corrections_cost(e_fit)
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        for p in range(1, 102):
            e = tuple(g - p for g in gaps)
            if corrections_cost(e) < fit_bits:
                violations.append(f"{ts}: period {p} beats fitted {p_fit}")

    elapsed = perf_counter() - t0
    ok = not violations and elapsed < 10.0
    detail = (
        f"{trials} lists x 101 periods, fitted median never beaten "
        f"in {elapsed:.2f}s"
        if not violations
        else "; ".join(violations[:3])
    )
    acceptance("period-optimality", ok, detail)
    assert not violations, violations
    assert elapsed < 10.0


def test_greedy_guarantee(acceptance):
    t0 = perf_counter()
    violations = []
    trials = 100
    checked = 0
    for trial in range(trials):
        rng = random.Random(trial)
        spec = PlantSpec(
            basis=rng.choice(["a", "a d=1 b", "a d=2 b d=1 c"]),
            depth=rng.choice([1, 2]),
            inner_period=(4, 9),
            outer_length=(4, 9),
            outer_period=(30, 90),
            additive_density=rng.choice([0.0, 0.1, 0.2]),
            shift_level=2,
            shift_density=rng.choice([0.0, 0.1]),
            seed=trial,
            n_patterns=rng.randint(1, 3),
            overlay=False,
        )
        truth = generate(spec)
        seq = truth.perturbed
        result = mine(seq)
        report = result.selection.report
        if report.percent_length > 100.0 + 1e-9:
            violations.append(f"trial {trial}: %L {report.percent_length:.2f}")
        stats = SeqStats.from_sequence(seq)
        for cand in result.pool:
            checked += 1
            alt = single_candidate_bits(cand, seq.pairs, stats)
            if report.total_bits > alt + 1e-6:
                violations.append(
                    f"trial {trial}: {cand.notation} alone costs {alt:.3f} "
                    f"< selected {report.total_bits:.3f}"
                )

    elapsed = perf_counter() - t0
    ok = not violations and elapsed < 120.0
    detail = (
        f"{trials} syntheses, {checked} single-candidate alternatives, "
        f"selection never beaten in {elapsed:.1f}s"
        if not violations
        else "; ".join(violations[:3])
    )
    acceptance("greedy-guarantee", ok, detail)
    assert not violations, violations
    assert elapsed < 120.0


def test_planted_recovery(acceptance):
    t0 = perf_counter()
    trials = 50
    exact = 0
    for trial in range(trials):
        spec = PlantSpec(
            basis="a",
            depth=1,
            inner_period=(3, 12),
            outer_length=(5, 14),
            seed=trial,
            n_patterns=1,
        )
        truth = generate(spec)
        result = mine(truth.perturbed)
        report = evaluate(
            [c.pattern for c in result.selection.candidates], truth
        )
        exact += report.exact_recovery

    elapsed = perf_counter() - t0
    ok = exact >= math.ceil(0.8 * trials) and elapsed < 120.0
    detail = f"exact recovery {exact}/{trials} in {elapsed:.1f}s"
    acceptance("planted-recovery", ok, detail)
    assert exact >= math.ceil(0.8 * trials), detail
    assert elapsed < 120.0


def test_threshold_soundness(acceptance):
    t0 = perf_counter()
    trials = 500
    premise_held = 0
    ce_violations = []
    margin_violations = []
    rng = random.Random(99)
    for trial in range(trials):
        span = rng.randint(60, 5000)
        k = rng.randint(3, 10)
        cnt = rng.randint(k, 3 * k)
        length = cnt + rng.randint(0, 50)
        counts = {"a": cnt}
        if length > cnt:
            counts["z"] = length - cnt
        stats = SeqStats(length=length, t_start=0, t_end=span, counts=counts)
        p = max(1, span // (k + 1))
        jitter = rng.choice([0, 1, 2, 5, span // 10])
        ts = [rng.randint(0, jitter)]
        for _ in range(k - 1):
            ts.append(ts[-1] + max(1, p + rng.randint(-jitter, jitter)))
        if ts[-1] > span:
            continue
        cycle = fit_cycle(tuple(ts), "a")
        deviation = sum(abs(e) for e in cycle.corrections)
        threshold = w_threshold(stats, "a", k)
        if deviation < threshold:
            premise_held += 1
            if not is_cost_effective(cycle, stats):
                ce_violations.append(
                    f"{ts}: deviation {deviation} < threshold "
                    f"{threshold:.3f} yet not cost-effective"
                )
        growth = w_threshold(stats, "a", k + 1) - threshold
        if not growth > math.log2(span + 1) - 2:
            margin_violations.append(f"k={k} span={span}: growth {growth:.3f}")

    elapsed = perf_counter() - t0
    ok = (
        premise_held >= 50
        and not ce_violations
        and not margin_violations
        and elapsed < 10.0
    )
    detail = (
        f"{trials} cycles, premise held {premise_held}x with no "
        f"cost-effectiveness or margin violation in {elapsed:.2f}s"
        if not (ce_violations or margin_violations)
        else "; ".join((ce_violations + margin_violations)[:3])
    )
    acceptance("threshold-soundness", ok, detail)
    assert not ce_violations, ce_violations
    assert not margin_violations, margin_violations
    assert premise_held >= 50, detail
    assert elapsed < 10.0


def test_scale_smoke(acceptance):
    spec = PlantSpec(
        basis="a d=1 b d=2 c",
        depth=2,
        inner_period=(4, 6),
        outer_length=(12, 16),
        outer_period=(120, 240),
        additive_density=0.05,
        seed=0,
        n_patterns=20,
        overlay=False,
    )
    truth = generate(spec)
    seq = truth.perturbed
    assert len(seq) >= 10_000
    assert len(truth.patterns) == 20

    t0 = perf_counter()
    result = mine(seq, MiningConfig())
    elapsed = perf_counter() - t0
    percent = result.selection.report.percent_length

    ok = elapsed < 60.0 and percent < 90.0
    detail = (
        f"{len(seq)} occurrences, 20 plants: %L {percent:.1f} "
        f"via {result.winner} in {elapsed:.1f}s"
    )
    acceptance("scale-smoke", ok, detail)
    assert percent < 90.0, detail
    assert elapsed < 60.0, detail


# (name, log, planted collection, mined %L when the floor was set).  A
# change that mines one of them to a lower %L lowers its value here.
FLOOR_MARGIN = 0.25  # points of %L


def _floor_logs():
    braid = generate(PlantSpec(
        basis="a d=2 b d=3 c",
        depth=2,
        outer_length=(4, 6),
        shift_level=1,
        shift_density=0.2,
        seed=2,
    ))
    # a burst of three in a cycle of six; the last burst's last occurrence
    # is one tick late, so two occurrences lie equally near its predicted
    # time
    burst = parse_pattern(
        "[r=6 p=17]([r=3 p=1](s0)) @ tau=25 E=[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]"
    )
    noisy = generate(PlantSpec(
        basis="a",
        outer_length=(20, 30),
        inner_period=(4, 9),
        shift_level=2,
        shift_density=0.3,
        additive_density=0.2,
        seed=1,
    ))
    burst_log = EventSequence.from_pairs(corrected_occurrences(burst))
    return (
        ("nested braid with wobble", braid.perturbed, braid.patterns, 44.73),
        ("burst in a cycle, last occurrence +1", burst_log, (burst,), 63.56),
        ("wobbled cycle, 20% spurious", noisy.perturbed, noisy.patterns, 62.31),
    )


def test_compression_floor(acceptance):
    t0 = perf_counter()
    failures = []
    gaps = []
    for name, seq, planted, pinned in _floor_logs():
        mined = mine(seq).selection.report.percent_length
        gap = mined - collection_cost(list(planted), seq).percent_length
        gaps.append(f"{gap:+.2f}")
        if mined > pinned + FLOOR_MARGIN:
            failures.append(
                f"{name}: %L {mined:.3f} above {pinned} + {FLOOR_MARGIN}, "
                f"{gap:+.3f} points against its plant"
            )
    elapsed = perf_counter() - t0

    ok = not failures and elapsed < 5.0
    detail = (
        f"3 logs at most {FLOOR_MARGIN} points of %L above their pins, "
        f"mined - planted %L {' / '.join(gaps)} in {elapsed:.2f}s"
        if not failures
        else "; ".join(failures)
    )
    acceptance("compression-floor", ok, detail)
    assert not failures, failures
    assert elapsed < 5.0, detail
