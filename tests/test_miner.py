"""Cycle extraction, candidate filtering, combination, and the pipeline."""

from __future__ import annotations

import dataclasses
import gc
import importlib
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cadence
from cadence import codec, miner, pattern as pattern_module
from cadence.codec import (
    SeqStats,
    collection_cost,
    extension_margin,
    pattern_cost,
)
from cadence.core import (
    DomainError,
    EventSequence,
    InvalidPatternError,
    UncodablePatternError,
)
from cadence.miner import (
    Candidate,
    MiningConfig,
    Numbering,
    Selection,
    combine_horizontally,
    combine_vertically,
    extract_cycles,
    extract_cycles_dp,
    extract_cycles_tri,
    filter_candidates,
    greedy_cover,
    maximal_cliques,
    mine,
)
from cadence.pattern import (
    Block,
    Leaf,
    Pattern,
    concat_layout,
    corrected_occurrences,
    factor_layout,
    factorize,
    fit_cycle,
    format_pattern,
    grow_horizontally,
    grow_vertically,
    is_simple,
    occurrence_count,
    parse_pattern,
    parse_tree,
    pattern_occurrences,
    place,
)
from cadence.synth import PlantSpec, generate

from _oracles import (
    boundary_correction_sum,
    build_every_cycle,
    build_every_merge,
    build_every_nesting,
    capped_triple_chains,
    cover_pairs,
    cycle_cover,
    cycle_selection_bits,
    eager_greedy_cover,
    layout_cost,
    lists_once,
    make_candidate,
    optimal_segmentation_bits,
    single_candidate_bits,
    slack_pairs,
    survivor_bound,
    two_walk_triple_chains,
    unpruned_segmentation,
    within_k_by_counter,
)
from conftest import approx_bits, block_records, cycle, random_tree
from test_bench_names import small_braid_log

STAGES = ("S", "F", "single")
# What growth reads of a candidate, each worked out on first read.
CANDIDATE_READS = ("per", "cycle", "magnitudes", "running", "slack", "terms", "inner_terms")
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def own_stats(seq: EventSequence) -> SeqStats:
    return SeqStats.from_sequence(seq)


def numbered(seq: EventSequence, stats: SeqStats | None = None) -> Numbering:
    """A numbering of the log, priced by its own statistics or ``stats``."""
    return Numbering(seq, stats or own_stats(seq))


class TestExtractCyclesDp:
    def test_perfect_progression_becomes_one_cycle(self):
        ts = [0, 7, 14, 21, 28]
        stats = SeqStats(length=5, t_start=0, t_end=28, counts={"a": 5})
        runs = extract_cycles_dp(ts, "a", stats)
        assert runs == [(0, 1, 2, 3, 4)]
        assert fit_cycle([ts[i] for i in runs[0]], "a") == cycle(
            "a", r=5, p=7, tau=0, corrections=(0, 0, 0, 0)
        )

    def test_two_pairs_stay_residual(self):
        stats = SeqStats(length=4, t_start=0, t_end=51, counts={"a": 4})
        assert extract_cycles_dp([0, 1, 50, 51], "a", stats) == []

    def test_too_few_occurrences(self):
        stats = SeqStats(length=2, t_start=0, t_end=9, counts={"a": 2})
        assert extract_cycles_dp([4, 9], "a", stats) == []

    def test_rejects_unsorted_input(self):
        stats = SeqStats(length=3, t_start=0, t_end=9, counts={"a": 3})
        with pytest.raises(DomainError):
            extract_cycles_dp([3, 3, 9], "a", stats)

    @pytest.mark.parametrize(
        "ts",
        [
            (2, 5, 7, 8, 13, 15, 20, 21, 26, 29, 32, 33),
            (0, 2, 4, 6, 13, 15, 17, 19, 26, 28, 30, 32),
            (0, 1, 2, 30, 40, 50, 60, 95),
            (5, 6, 8, 11, 15, 20, 26, 33, 41, 50),
        ],
    )
    def test_matches_exhaustive_segmentation(self, ts):
        stats = SeqStats(
            length=len(ts), t_start=0, t_end=max(ts) + 2, counts={"a": len(ts)}
        )
        cycles = extract_cycles_dp(list(ts), "a", stats)
        got = cycle_selection_bits(cycles, ts, "a", stats)
        want = optimal_segmentation_bits(ts, "a", stats)
        assert got == pytest.approx(want, abs=1e-9)

    def test_window_caps_segment_length(self):
        ts = [0, 7, 14, 21, 28]
        stats = SeqStats(length=5, t_start=0, t_end=28, counts={"a": 5})
        cycles = extract_cycles_dp(ts, "a", stats, window=3)
        assert all(len(run) <= 3 for run in cycles)
        got = cycle_selection_bits(cycles, ts, "a", stats)
        want = optimal_segmentation_bits(ts, "a", stats, max_segment=3)
        assert got == pytest.approx(want, abs=1e-9)

    def test_closed_form_matches_reference_encoder(self):
        # Every segment's price from its parameters equals the built
        # cycle's, and the DP's choice is optimal under the encoder's
        # prices.  Offset windows and other labels exercise every term.
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 18)
            ts = sorted(rng.sample(range(10, 400), n))
            other = rng.randint(0, 20)
            counts = {"a": n, "b": other} if other else {"a": n}
            stats = SeqStats(
                length=n + other,
                t_start=ts[0] - rng.randint(0, 10),
                t_end=ts[-1] + rng.randint(0, 10),
                counts=counts,
            )
            price = codec.cycle_pricer(stats, "a")
            for i in range(n):
                for j in range(i + 3, n + 1):
                    c = fit_cycle(ts[i:j], "a")
                    abs_dev = sum(abs(e) for e in c.corrections)
                    try:
                        encoded = pattern_cost(c, stats).total
                    except UncodablePatternError:
                        encoded = float("inf")
                    assert price(c.tree.r, c.tree.p, c.tau, sum(c.corrections), abs_dev) == encoded
            cycles = extract_cycles_dp(ts, "a", stats)
            got = cycle_selection_bits(cycles, ts, "a", stats)
            want = optimal_segmentation_bits(ts, "a", stats)
            assert got == pytest.approx(want, abs=1e-9)


def braid_like(rng: random.Random, blocks: int, noise: int) -> list[int]:
    """One event of a nested log: short wobbly runs far apart, plus noise."""
    ts: set[int] = set()
    t = rng.randint(1, 30)
    for _ in range(blocks):
        p = rng.randint(3, 9)
        r = rng.randint(3, 12)
        ts.update(t + k * p + rng.choice((-1, 0, 0, 1)) for k in range(r))
        t += r * p + rng.randint(40, 250)
    ts.update(rng.randint(1, t) for _ in range(noise))
    return sorted(ts)


def heartbeat_like(rng: random.Random, runs: int, noise: int) -> list[int]:
    """One event of a heartbeat log: long wobbly cycles of 40 to 80
    beats, each with its own period jittered at every beat, plus noise."""
    ts: set[int] = set()
    t = rng.randint(1, 30)
    for _ in range(runs):
        p = rng.randint(5, 20)
        for _ in range(rng.randint(40, 80)):
            ts.add(t)
            t += p + rng.randint(-2, 2)
        t += rng.randint(0, 200)
    ts.update(rng.randint(1, t) for _ in range(noise))
    return sorted(ts)


def wobbly_cycle(rng: random.Random, beats: int, wobble: float, noise: int = 0) -> list[int]:
    """One event that is a single long cycle: ``beats`` beats at one
    period, each one tick early or late with probability ``wobble``,
    plus ``noise`` spurious occurrences among them."""
    p, t = rng.randint(5, 20), rng.randint(1, 30)
    ts = {t + k * p + (rng.choice((-1, 1)) if rng.random() < wobble else 0) for k in range(beats)}
    ts.update(rng.randint(1, t + beats * p) for _ in range(noise))
    return sorted(ts)


def two_cycles(rng: random.Random, wobble: float) -> list[int]:
    """Two single long cycles of different periods, 40 to 80 beats
    each, back to back, each beat one tick early or late with
    probability ``wobble``."""
    ts, t = [], rng.randint(1, 30)
    for p in rng.sample(range(5, 21), 2):
        for _ in range(rng.randint(40, 80)):
            ts.append(t + (rng.choice((-1, 1)) if rng.random() < wobble else 0))
            t += p
    return ts


# Short runs far apart, where the stop rule cuts most scans; long wobbly
# runs, where it cuts few; single long wobbly cycles, where it cuts none
# and the range bound ends the scans; and two such cycles back to back,
# where the last segment's start moves mid-event and the range bound's
# carried fit is made afresh (the second window of each case is shorter
# than the event).
SEGMENTATION_INPUTS = [
    *(
        pytest.param(
            lambda rng: braid_like(
                rng, blocks=rng.randint(8, 25), noise=rng.randint(0, 30)
            ),
            seed,
            id=str(seed),
        )
        for seed in range(8)
    ),
    *(
        pytest.param(
            lambda rng: heartbeat_like(
                rng, runs=rng.randint(2, 4), noise=rng.randint(0, 30)
            ),
            seed,
            id=f"heartbeats-{seed}",
        )
        for seed in range(4)
    ),
    *(
        pytest.param(
            lambda rng: wobbly_cycle(
                rng,
                beats=rng.randint(80, 200),
                wobble=rng.uniform(0.1, 0.3),
                noise=rng.choice((0, rng.randint(1, 20))),
            ),
            seed,
            id=f"one-cycle-{seed}",
        )
        for seed in range(12)
    ),
    *(
        pytest.param(
            lambda rng: two_cycles(rng, wobble=rng.uniform(0.1, 0.3)),
            seed,
            id=f"two-cycles-{seed}",
        )
        for seed in range(20)
    ),
]


@pytest.fixture
def segment_prices(monkeypatch) -> list[int]:
    """A one-item list counting the segments priced while the test runs:
    the calls to every ``codec.cycle_pricer`` built meanwhile."""
    calls = [0]
    build = codec.cycle_pricer

    def counting_pricer(*args):
        price = build(*args)

        def counting(*segment):
            calls[0] += 1
            return price(*segment)

        return counting

    monkeypatch.setattr(codec, "cycle_pricer", counting_pricer)
    return calls


class TestDpStopRule:
    @pytest.mark.parametrize("shape, seed", SEGMENTATION_INPUTS)
    def test_same_cycles_as_the_unpruned_search(self, shape, seed):
        rng = random.Random(seed)
        ts = shape(rng)
        n = len(ts)
        other = rng.randint(0, 3 * n)
        counts = {"a": n, "b": other} if other else {"a": n}
        # the stats window is as wide as the log or wider
        stats = SeqStats(
            length=n + other,
            t_start=ts[0] - rng.choice((0, rng.randint(1, 300))),
            t_end=ts[-1] + rng.choice((0, rng.randint(1, 3000))),
            counts=counts,
        )
        for window in (500, rng.randint(5, n // 2)):
            got = extract_cycles_dp(ts, "a", stats, window=window)
            assert got == unpruned_segmentation(ts, "a", stats, window)
        assert got

    def test_timestamps_outside_the_stats_window(self):
        # The stop rule and the range bound price every cycle inside the
        # window, so timestamps before or after it are refused, and the
        # message names the window and the timestamps outside it.
        ts = braid_like(random.Random(11), blocks=12, noise=10)
        stats = SeqStats(
            length=len(ts), t_start=ts[3], t_end=ts[-4], counts={"a": len(ts)}
        )
        for lo, hi in ((ts[3], ts[-4]), (ts[3], ts[-1]), (ts[0], ts[-4])):
            stats = dataclasses.replace(stats, t_start=lo, t_end=hi)
            with pytest.raises(DomainError) as raised:
                extract_cycles_dp(ts, "a", stats)
            assert str(raised.value) == (
                f"timestamps {ts[0]} to {ts[-1]} leave the statistics' window [{lo}, {hi}]"
            )

    def test_residual_price_below_two_bits(self):
        # A residual under two bits needs a window narrower than the
        # timestamps (or three occurrences), and such statistics describe
        # another log: the segmentation refuses the window, and the
        # log's numbering, which stage S reads, refuses the counts even
        # over a window that holds the log.
        ts = wobbly_cycle(random.Random(5), beats=120, wobble=0.2)
        stats = SeqStats(length=1, t_start=ts[0], t_end=ts[0] + 1, counts={"a": 1})
        assert codec.residual_cost(stats, (ts[0], "a")) < 2
        for window in (500, 30):
            with pytest.raises(DomainError, match=r"^timestamps \d+ to \d+ leave"):
                extract_cycles_dp(ts, "a", stats, window=window)
        seq = EventSequence.from_pairs((t, "a") for t in ts)
        wide = dataclasses.replace(stats, t_end=ts[-1])
        with pytest.raises(DomainError) as raised:
            extract_cycles(numbered(seq, wide))
        assert str(raised.value) == (
            f"the statistics over [{ts[0]}, {ts[-1]}] describe another log"
        )

    @pytest.mark.parametrize("n", [8, 40])
    def test_price_floor_is_tight(self, n):
        # Consecutive occurrences that fill the window: the whole run's
        # period and start are each coded out of one value, so its price
        # is the floor itself.  The runner-up, the run less its last
        # occurrence plus a residual, costs only l - 1 bits more.
        ts = list(range(100, 100 + n))
        stats = SeqStats(length=n, t_start=100, t_end=100 + n - 1, counts={"a": n})
        head = codec.cycle_head_bits(stats, "a")
        assert codec.cycle_pricer(stats, "a")(n, 1, 100, 0, 0) == head + 2 * (n - 1)
        cycles = extract_cycles_dp(ts, "a", stats)
        assert cycles == [tuple(range(n))] == unpruned_segmentation(ts, "a", stats)

    @pytest.mark.parametrize("window", [10, 20, 30])
    def test_tie_between_two_starts(self, window):
        # A perfect cycle one beat shorter than two windows splits into
        # runs of window and window - 1 beats, in either order, at the
        # same price bit for bit: the last row's starts window and
        # window - 1 tie, and the shorter last segment wins.
        n = 2 * window - 1
        ts = [5 + 7 * k for k in range(n)]
        stats = SeqStats(length=n, t_start=0, t_end=ts[-1] + 5, counts={"a": n})
        l_res = codec.residual_cost(stats, (0, "a"))
        price = codec.cycle_pricer(stats, "a")
        w, w1 = (price(r, 7, 5, 0, 0) for r in (window, window - 1))
        assert w + w1 == w1 + w < (2 * window - 1) * l_res
        cycles = extract_cycles_dp(ts, "a", stats, window=window)
        assert cycles == [tuple(range(window)), tuple(range(window, n))]
        assert cycles == unpruned_segmentation(ts, "a", stats, window)

    def test_nested_event_prices_few_segments(self, segment_prices):
        ts = braid_like(random.Random(3), blocks=160, noise=0)
        ts = ts[:1000]
        stats = SeqStats(
            length=len(ts), t_start=0, t_end=ts[-1], counts={"a": len(ts)}
        )
        window = 500
        cycles = extract_cycles_dp(ts, "a", stats, window=window)
        assert len(ts) == 1000 and len(cycles) > 50
        assert 0 < segment_prices[0] < 0.1 * len(ts) * window

    def test_heartbeat_prices_few_segments(self, segment_prices):
        # One wobbly cycle: the prefix stop cannot fire, since every
        # bound over the earlier starts includes the winning start 0.
        # The price floor and the range bound must still skip the rest.
        ts = wobbly_cycle(random.Random(1), beats=80, wobble=0.1)
        stats = SeqStats(length=len(ts), t_start=0, t_end=ts[-1], counts={"a": len(ts)})
        cycles = extract_cycles_dp(ts, "a", stats)
        assert cycles == [tuple(range(80))]
        assert 0 < segment_prices[0] < 0.1 * len(ts) ** 2 / 2


def chained_times(ts, tolerance):
    """The timestamps of each chain ``extract_cycles_tri`` finds."""
    return [tuple(ts[i] for i in chain) for chain in extract_cycles_tri(ts, tolerance)]


class TestExtractCyclesTri:
    def test_burst_chains_and_keeps_the_gapped_triple(self):
        covers = chained_times((2, 5, 7, 8), tolerance=3.129)
        assert covers == [(2, 5, 7, 8), (2, 5, 8)]

    def test_perfect_triple_at_zero_tolerance(self):
        assert extract_cycles_tri((0, 10, 20), tolerance=0.0) == [(0, 1, 2)]

    def test_irregular_gaps_give_nothing(self):
        assert extract_cycles_tri((0, 3, 20), tolerance=3.129) == []

    def test_triples_may_skip_occurrences(self):
        assert chained_times((0, 10, 19, 30), tolerance=1.0) == [(0, 10, 19)]

    def test_short_input(self):
        assert extract_cycles_tri((5, 9), tolerance=10.0) == []

    def test_chains_reach_the_last_block(self):
        # Four blocks of 30 occurrences 3 ticks apart, 300 ticks between
        # block starts, at a tolerance above the period, as on braids.
        # The capped pass spends its chain budget inside the first
        # block; chaining over the whole log finds every block whole.
        ts = [300 * b + 3 * i for b in range(4) for i in range(30)]
        blocks = [tuple(range(300 * b, 300 * b + 90, 3)) for b in range(4)]
        capped = {cycle_cover(c) for c in capped_triple_chains(ts, 12.0, "a")}
        assert capped and max(cover[0] for cover in capped) < 300
        covers = set(chained_times(ts, 12.0))
        assert all(block in covers for block in blocks)

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_work_is_linear_in_the_occurrences(self, monkeypatch, n):
        """Bursts of four occurrences 2 ticks apart every 40 ticks, a
        third of them one tick late, at tolerance 12: above the burst's
        period, so several occurrences fit most predictions.  With
        ``G = 4`` (``n >= 150``) the docstring bounds the cycles by
        ``c n`` with ``c = 8`` and the lookups with ``c = 48``."""
        rng = random.Random(n)
        ts = [40 * (i // 4) + 2 * (i % 4) + rng.choice((0, 0, 1)) for i in range(n)]
        lookups = []
        original = miner.bisect_left

        def counting(*args):
            lookups.append(args[1])
            return original(*args)

        monkeypatch.setattr(miner, "bisect_left", counting)
        cycles = extract_cycles_tri(ts, 12.0)
        assert 0 < len(cycles) <= 8 * n
        assert n < len(lookups) <= 48 * n

    @pytest.mark.parametrize("steady", [True, False])
    def test_the_earlier_occurrence_wins_an_exact_tie(self, steady):
        # Both walks predict 20 after the seed (0, 10), and 19 and 21
        # lie a tick either side of it: the step goes to 19.
        room = [1, 1, 1, 1]
        assert miner._chain([0, 10, 19, 21], 0, 1, 2.0, steady, room) == ((0, 1, 2), False)

    def test_nan_tolerance_is_refused(self):
        # Every comparison with NaN is false, so a NaN tolerance would
        # accept or refuse every step depending on how a test is written.
        for ts in ([0, 10, 20, 30], [0, 10]):
            with pytest.raises(DomainError) as raised:
                extract_cycles_tri(ts, math.nan)
            assert str(raised.value) == "tolerance must be a number, got nan"


def wobbled(rng: random.Random, n: int) -> list[int]:
    """A periodic event, some occurrences a tick early or late."""
    p = rng.randint(1, 25)
    return sorted({p * (k + 1) + rng.choice((-1, 0, 0, 0, 1)) for k in range(n)})


def bursty(rng: random.Random, n: int) -> list[int]:
    """Bursts of two to five occurrences a few ticks apart."""
    ts: set[int] = set()
    t = rng.randint(0, 20)
    while len(ts) < n:
        gap = rng.randint(1, 3)
        ts.update(t + gap * k + rng.choice((0, 0, 1)) for k in range(rng.randint(2, 5)))
        t += rng.randint(20, 60)
    return sorted(ts)[:n]


def scattered(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(20 * n + 10), n))


class TestTriSkipsRetracedWalks:
    """``extract_cycles_tri`` skips the local-gap walk that an exact
    steady walk proves to be a retrace; its chains are the two-walk
    pass's."""

    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.sampled_from([wobbled, bursty, scattered]),
        n=st.integers(0, 160),
        tolerance=st.sampled_from([0.0, -1.0, 1.0, 3.129, 12.0, 40.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_chains_as_walking_twice(self, shape, n, tolerance, seed):
        ts = shape(random.Random(seed), n)
        assert extract_cycles_tri(ts, tolerance) == two_walk_triple_chains(ts, tolerance)

    def test_a_spent_member_makes_the_second_walk_run(self, monkeypatch):
        # Bursts of four 2 ticks apart every 40 ticks, every seventh
        # occurrence a tick late.  The exact steady chain (88, 89, 90, 91)
        # uses up the room of a member past its seed, so the local-gap
        # walk from (88, 89) runs and stops there.
        ts = [40 * (k // 4) + 2 * (k % 4) + (k % 7 == 3) for k in range(150)]
        walks = []
        chain = miner._chain

        def recording(ts, i, j, tolerance, steady, room):
            out = chain(ts, i, j, tolerance, steady, room)
            walks.append((i, j, steady, out))
            return out

        monkeypatch.setattr(miner, "_chain", recording)
        got = extract_cycles_tri(ts, 3.0)
        assert got == two_walk_triple_chains(ts, 3.0)
        assert (88, 89, True, ((88, 89, 90, 91), True)) in walks
        assert (88, 89, False, ((88, 89), True)) in walks

    def test_exact_walks_skip_the_second_walk(self, monkeypatch):
        # On a strictly periodic event every steady walk is exact, so
        # no local-gap walk runs.
        walks = []
        chain = miner._chain

        def recording(*args):
            walks.append(args[4])
            return chain(*args)

        monkeypatch.setattr(miner, "_chain", recording)
        ts = list(range(0, 7 * 200, 7))
        assert extract_cycles_tri(ts, 3.0) == two_walk_triple_chains(ts, 3.0)
        assert walks and all(walks)


# Every stub covers some of the first twelve ticks of a.
STUBBED = numbered(EventSequence.from_pairs((t, "a") for t in range(12)))


def _stub_candidate(cover, cost, name):
    """A candidate of the given cover and cost, whose pattern is the
    two-beat cycle of the label ``name`` at tau 0: stubs of one name are
    one pattern."""
    return Candidate(
        pattern=Pattern(Block(2, 1, (Leaf(name),), (0,)), 0, (0,)),
        bits=STUBBED.cover(cover),
        cost=cost,
        provenance="test",
        numbering=STUBBED,
    )


def _name(stub) -> str:
    return stub.pattern.tree.children[0].event


def _top_k_oracle(candidates, k):
    """Direct evaluation of the per-occurrence top-k retention rule: a
    candidate is kept for an occurrence it covers when fewer than ``k``
    of the candidates covering it have a smaller (efficiency, cost,
    tau, cover)."""
    covers = [cover_pairs(c) for c in candidates]
    keys = [(c.efficiency, c.cost, c.tau, c.bits) for c in candidates]
    keep = set()
    for o in set().union(*covers):
        held = [key for key, cover in zip(keys, covers) if o in cover]
        for c, key, cover in zip(candidates, keys, covers):
            if o in cover and sum(other < key for other in held) < k:
                keep.add(_name(c))
    return keep


class TestFilterCandidates:
    def test_identical_covers_keep_the_cheaper(self):
        cover = [(0, "a"), (5, "a")]
        a = _stub_candidate(cover, 10.0, "A")
        b = _stub_candidate(cover, 12.0, "B")
        assert [_name(c) for c in filter_candidates([a, b], 1)] == ["A"]

    def test_disjoint_covers_keep_both(self):
        a = _stub_candidate([(0, "a")], 50.0, "A")
        b = _stub_candidate([(9, "a")], 1.0, "B")
        kept = {_name(c) for c in filter_candidates([a, b], 1)}
        assert kept == {"A", "B"}

    def test_nested_covers_match_rule_oracle(self):
        inner = [(0, "a"), (1, "a")]
        middle = inner + [(2, "a"), (3, "a")]
        outer = middle + [(4, "a"), (5, "a")]
        cands = [
            _stub_candidate(inner, 3.0, "inner"),
            _stub_candidate(middle, 7.0, "middle"),
            _stub_candidate(outer, 20.0, "outer"),
        ]
        kept = {_name(c) for c in filter_candidates(cands, 2)}
        assert kept == _top_k_oracle(cands, 2)

    def test_random_pools_match_rule_oracle(self):
        # Two covers and two costs recur, so distinct stubs tie on the
        # whole key too: equal keys are kept together.
        rng = random.Random(13)
        universe = [(t, "a") for t in range(12)]
        ties = 0
        for trial in range(40):
            cands = []
            for i in range(rng.randint(1, 8)):
                cover = rng.choice(
                    (universe[:1], universe[:2], rng.sample(universe, rng.randint(1, 6)))
                )
                cost = rng.choice((2.0, 4.0, rng.randint(1, 40) * 1.0))
                cands.append(_stub_candidate(cover, cost, f"c{trial}-{i}"))
            keys = [c.rank for c in cands]
            ties += len(keys) - len(set(keys))
            for k in (1, 2, 3):
                kept = {_name(c) for c in filter_candidates(cands, k)}
                assert kept == _top_k_oracle(cands, k)
        assert ties > 10, ties

    def test_survivors_sorted_by_efficiency(self):
        a = _stub_candidate([(0, "a")], 8.0, "A")
        b = _stub_candidate([(1, "a"), (2, "a")], 6.0, "B")
        got = filter_candidates([a, b], 1)
        assert [_name(c) for c in got] == ["B", "A"]

    def test_equal_keys_keep_the_given_order(self):
        # Distinct patterns of one cost, start and cover tie on the whole
        # key; both survive, in the order given.
        a = _stub_candidate([(0, "a")], 8.0, "A")
        b = _stub_candidate([(0, "a")], 8.0, "B")
        assert [_name(c) for c in filter_candidates([a, b], 1)] == ["A", "B"]
        assert [_name(c) for c in filter_candidates([b, a], 1)] == ["B", "A"]

    def test_duplicate_notations_collapse(self):
        a = _stub_candidate([(0, "a")], 8.0, "same")
        b = _stub_candidate([(0, "a")], 8.0, "same")
        assert len(filter_candidates([a, b], 3)) == 1

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            filter_candidates([], 0)


class TestCandidateCover:
    # A candidate with no occurrence would divide by zero in
    # filter_candidates, be skipped by greedy_cover and add its cost to
    # Selection.total_bits; none of them can be given one.
    @pytest.mark.parametrize(
        "entry",
        [
            lambda c: filter_candidates([c], 1),
            lambda c: greedy_cover([c], STUBBED),
            lambda c: Selection((c,), STUBBED).total_bits,
        ],
        ids=["filter_candidates", "greedy_cover", "total_bits"],
    )
    @pytest.mark.parametrize("bits", [0, -2, True, 1.0, None])
    def test_a_cover_that_is_not_a_positive_int_is_refused(self, entry, bits):
        good = _stub_candidate([(0, "a")], 8.0, "A")
        with pytest.raises(DomainError) as raised:
            entry(dataclasses.replace(good, bits=bits))
        assert str(raised.value) == f"a candidate's cover must be a positive int, got {bits!r}"
        assert entry(good)

    @pytest.mark.parametrize("bits", [0b10000, 0b11111, 1 << 64])
    def test_a_cover_past_its_numbering_is_refused(self, bits):
        # Bit 4 of a 4-occurrence log's cover names no occurrence: the
        # selection's residuals would index past the log, its total
        # would price every occurrence as residual, and greedy_cover
        # would pick nothing.
        four = numbered(EventSequence.from_pairs((t, "a") for t in range(4)))
        beats = parse_pattern("[r=4 p=1](a) @ tau=0 E=[0,0,0]")
        good = Candidate(beats, 0b1111, 5.0, "test", four)
        with pytest.raises(DomainError) as raised:
            dataclasses.replace(good, bits=bits)
        past = f"bit {bits.bit_length() - 1}, past the 4 occurrences of its numbering"
        assert str(raised.value) == f"a candidate's cover holds {past}"
        assert Selection((good,), four).residuals == ()
        assert greedy_cover([good], four).candidates == (good,)


class TestWithinK:
    # The bit-sliced counts keep what a counter per occurrence keeps.
    def test_same_as_counting_per_occurrence(self):
        rng = random.Random(23)
        ties = 0
        for _ in range(400):
            universe = rng.randint(1, 30)
            covers = [
                frozenset(rng.sample(range(universe), rng.randint(0, min(universe, 8))))
                for _ in range(rng.randint(0, 20))
            ]
            keys = [rng.randint(0, 5) for _ in covers]  # groups of equal keys
            ties += len(keys) - len(set(keys))
            bits = [sum(1 << o for o in cover) for cover in covers]
            for k in (1, 2, 3, 4, 10**6):
                want = within_k_by_counter(keys, covers, k)
                assert miner._within_k(keys, bits, k) == want
        assert ties > 1000


class TestCombineVertically:
    def _burst_candidates(self, dozen_a_seq):
        patterns = [
            parse_pattern("[r=4 p=2](a) @ tau=2 E=[1,0,-1]"),
            parse_pattern("[r=4 p=2](a) @ tau=13 E=[0,3,-1]"),
            parse_pattern("[r=4 p=2](a) @ tau=26 E=[1,1,-1]"),
        ]
        numbering = numbered(dozen_a_seq)
        return [make_candidate(p, "dp", numbering) for p in patterns]

    def test_three_bursts_nest(self, dozen_a_seq):
        members = self._burst_candidates(dozen_a_seq)
        out = combine_vertically(members, [], k=3)
        nested = [c for c in out if c.pattern.tree.r == 3]
        assert nested, "expected a nested candidate"
        best = nested[0]
        assert best.notation == (
            "[r=3 p=13]([r=4 p=2](a)) @ tau=2 E=[1,0,-1,-2,0,3,-1,0,1,1,-1]"
        )
        assert cover_pairs(best) == frozenset().union(*map(cover_pairs, members))
        assert best.cost < sum(m.cost for m in members)
        assert best.provenance == "vertical"

    def test_members_may_come_from_the_pool(self, dozen_a_seq):
        members = self._burst_candidates(dozen_a_seq)
        out = combine_vertically(members[:1], members[1:], k=3)
        assert any(c.pattern.tree.r == 3 for c in out)

    def test_two_instances_are_not_enough(self, dozen_a_seq):
        members = self._burst_candidates(dozen_a_seq)[:2]
        assert combine_vertically(members, [], k=3) == []

    def test_irregular_starts_make_no_chain(self):
        seq = EventSequence.from_pairs(
            [(t, "a") for t in (0, 2, 4, 6, 50, 52, 54, 56, 61, 63, 65, 67)]
        )
        numbering = numbered(seq)
        members = [
            make_candidate(
                parse_pattern(f"[r=4 p=2](a) @ tau={t} E=[0,0,0]"), "dp", numbering
            )
            for t in (0, 50, 61)
        ]
        # start deviations |11 - 50| far exceed one zero-correction
        # instance cost, so no triple is admissible
        assert combine_vertically(members, [], k=3) == []


class TestCombineHorizontally:
    def _track_candidates(self, triad_seq):
        cycles = [
            fit_cycle((2, 13, 26), "b"),
            fit_cycle((5, 18, 30), "a"),
            fit_cycle((7, 21, 31), "c"),
        ]
        numbering = numbered(triad_seq)
        return [make_candidate(c, "tri", numbering) for c in cycles]

    def test_three_tracks_merge_into_one_braid(self, triad_seq):
        members = self._track_candidates(triad_seq)
        out = combine_horizontally(members, [], k=3)
        full = [c for c in out if c.bits.bit_count() == 9]
        assert full, "expected a candidate covering all nine occurrences"
        braid = full[0]
        assert cover_pairs(braid) == frozenset(triad_seq.pairs)
        assert braid.cost < sum(m.cost for m in members)
        assert braid.provenance in ("horizontal", "factorized")

    def test_pairwise_merges_also_emitted(self, triad_seq):
        members = self._track_candidates(triad_seq)
        out = combine_horizontally(members, [], k=3)
        sizes = {c.bits.bit_count() for c in out}
        assert 6 in sizes

    def test_requires_a_new_member(self, triad_seq):
        members = self._track_candidates(triad_seq)
        assert combine_horizontally([], members, k=3) == []

    def test_far_apart_starts_are_not_paired(self):
        seq = EventSequence.from_pairs(
            [(t, "x") for t in (0, 10, 20)] + [(t, "y") for t in (100, 110, 120)]
        )
        numbering = numbered(seq)
        members = [
            make_candidate(fit_cycle((0, 10, 20), "x"), "tri", numbering),
            make_candidate(fit_cycle((100, 110, 120), "y"), "tri", numbering),
        ]
        assert combine_horizontally(members, [], k=3) == []

    def test_period_mismatch_blocks_the_pair(self):
        seq = EventSequence.from_pairs(
            [(t, "x") for t in (0, 10, 20)] + [(t, "y") for t in (3, 20, 37)]
        )
        numbering = numbered(seq)
        members = [
            make_candidate(fit_cycle((0, 10, 20), "x"), "tri", numbering),
            make_candidate(fit_cycle((3, 20, 37), "y"), "tri", numbering),
        ]
        # periods 10 vs 17 with zero slack in the later member
        assert combine_horizontally(members, [], k=3) == []

    def test_cheaper_factorized_merge_replaces_the_plain_one(self):
        patterns = [
            parse_pattern(f"[r=2 p=50]([r=3 p=5](a)) @ tau={tau} E=[0,0,0,0,0]")
            for tau in (0, 20)
        ]
        seq = EventSequence.from_pairs(
            [pair for p in patterns for pair in pattern_occurrences(p)]
        )
        numbering = numbered(seq)
        members = [make_candidate(p, "test", numbering) for p in patterns]
        out = combine_horizontally(members, [], k=3)
        assert [(c.provenance, c.notation) for c in out] == [
            (
                "factorized",
                "[r=2 p=50]([r=3 p=5](a [d=20] a)) @ tau=0 E=[0,0,0,0,0,0,0,0,0,0,0]",
            )
        ]
        assert out[0].cost == approx_bits(63.675)


class TestOneLogPerGrowth:
    # A numbering carries the statistics of the log it numbers, and
    # growth prices every candidate with them, so it refuses candidates
    # numbered over another log.
    @staticmethod
    def logs():
        x = [(t, "x") for t in (0, 10, 20)]
        y = [(t, "y") for t in (2, 12, 22)]
        z = [(t, "z") for t in (3, 13, 23)]
        return EventSequence.from_pairs(x + y), EventSequence.from_pairs(x + y + z)

    def test_numbering_keeps_the_statistics_of_its_log(self):
        log_a, log_b = self.logs()
        stats = SeqStats.from_sequence(log_a, 0, 30)
        assert Numbering(log_a, stats).stats is stats
        with pytest.raises(DomainError) as raised:
            Numbering(log_a, dataclasses.replace(own_stats(log_b), t_start=0, t_end=30))
        assert str(raised.value) == "the statistics over [0, 30] describe another log"
        with pytest.raises(DomainError, match=r"^the time window \[1, 30\] must contain"):
            Numbering(log_a, dataclasses.replace(stats, t_start=1))

    def test_numbering_builds_its_own_order(self):
        # b is seen first, so the log's (t, event id) order puts b before
        # a at t = 3, where the numbering's (t, label) order puts a first
        seq = EventSequence.from_pairs([(3, "b"), (1, "b"), (3, "a"), (5, "a")])
        numbering = Numbering(seq, own_stats(seq))
        assert "pairs" not in vars(seq)
        assert numbering.pairs == ((1, "b"), (3, "a"), (3, "b"), (5, "a"))
        assert numbering.pairs == tuple(sorted(seq.pairs))

    def test_mining_builds_no_pair_tuple(self):
        seq = braid_log(4)
        result = mine(seq)
        assert result.selection.candidates
        assert result.selection.report.percent_length < 100.0
        assert "pairs" not in vars(seq)

    @pytest.mark.parametrize("grow", [combine_vertically, combine_horizontally])
    def test_growth_refuses_a_candidate_numbered_over_another_log(self, grow):
        log_a, log_b = self.logs()
        over_a, over_b = numbered(log_a), numbered(log_b)
        x_a = make_candidate(fit_cycle((0, 10, 20), "x"), "tri", over_a)
        y_a = make_candidate(fit_cycle((2, 12, 22), "y"), "tri", over_a)
        y_b = make_candidate(fit_cycle((2, 12, 22), "y"), "tri", over_b)
        if grow is combine_horizontally:
            assert [c.notation for c in grow([x_a], [y_a], 3)] == [
                "[r=3 p=10](x [d=2] y) @ tau=0 E=[0,0,0,0,0]"
            ]
        for new, pool in (([x_a], [y_b]), ([y_b], [x_a]), ([x_a, y_b], [])):
            with pytest.raises(DomainError) as raised:
                grow(new, pool, 3)
            assert str(raised.value) == "the candidates are numbered over different logs"


class TestGreedyCover:
    def test_braid_alone_is_selected(self, triad_seq, triad_stats):
        numbering = numbered(triad_seq, triad_stats)
        braid = make_candidate(
            parse_pattern("[r=3 p=13](b [d=3] a [d=1] c) @ tau=2 E=[0,1,-2,2,2,0,1,0]"),
            "test",
            numbering,
        )
        selection = greedy_cover([braid], numbering)
        assert [c.notation for c in selection.candidates] == [braid.notation]
        assert selection.residuals == ()
        assert selection.total_bits == approx_bits(53.538)

    def test_redundant_subset_candidate_is_skipped(self, triad_seq, triad_stats):
        numbering = numbered(triad_seq, triad_stats)
        braid = make_candidate(
            parse_pattern("[r=3 p=13](b [d=3] a [d=1] c) @ tau=2 E=[0,1,-2,2,2,0,1,0]"),
            "test",
            numbering,
        )
        sub = make_candidate(fit_cycle((2, 13, 26), "b"), "test", numbering)
        selection = greedy_cover([braid, sub], numbering)
        assert [c.notation for c in selection.candidates] == [braid.notation]

    def test_empty_pool_leaves_everything_residual(self, triad_seq, triad_stats):
        selection = greedy_cover([], numbered(triad_seq, triad_stats))
        assert selection.candidates == ()
        assert set(selection.residuals) == set(triad_seq.pairs)
        assert selection.total_bits == pytest.approx(
            selection.report.baseline_bits, abs=1e-9
        )

    def test_not_cost_effective_candidate_rejected(self, dozen_a_seq, dozen_a_stats):
        # one 4-occurrence burst costs more than its four residuals
        numbering = numbered(dozen_a_seq, dozen_a_stats)
        burst = make_candidate(fit_cycle((2, 5, 7, 8), "a"), "test", numbering)
        selection = greedy_cover([burst], numbering)
        assert selection.candidates == ()


def planted_log(seed: int) -> EventSequence:
    """A planted log of two-event patterns with displaced and spurious
    occurrences."""
    spec = PlantSpec(
        basis="a d=3 b",
        outer_length=(4, 6),
        n_patterns=2,
        shift_level=1,
        shift_density=0.2,
        additive_density=0.1,
        seed=seed,
    )
    return generate(spec).perturbed


class TestOneLogPerSelection:
    # Selection and pruning read covers, as growth does, so they refuse
    # candidates numbered over another log: a selection whose covers
    # count one log and whose prices read another's statistics would
    # total neither.
    def test_greedy_cover_refuses_another_numbering(self):
        seq = planted_log(3)
        cands = extract_cycles(numbered(seq))
        assert greedy_cover(cands, cands[0].numbering).candidates
        wide = numbered(seq, SeqStats.from_sequence(seq, seq.t_start, seq.t_end + 500))
        with pytest.raises(DomainError) as raised:
            greedy_cover(cands, wide)
        assert str(raised.value) == "the candidates are numbered over different logs"

    def test_filter_candidates_refuses_mixed_numberings(self):
        seq = planted_log(3)
        own, again = extract_cycles(numbered(seq)), extract_cycles(numbered(seq))
        assert filter_candidates(own, 3) == own
        other = extract_cycles(numbered(planted_log(4)))
        for cands in (own + again[:1], again[:1] + own, own + other):
            with pytest.raises(DomainError) as raised:
                filter_candidates(cands, 3)
            assert str(raised.value) == "the candidates are numbered over different logs"
        assert filter_candidates([], 3) == []


def random_pool(rng: random.Random, numbering: Numbering):
    """Cycles over random runs of the log that ``numbering`` numbers,
    repriced so ratios tie often."""
    pool = []
    seq = numbering.seq
    for _ in range(rng.randint(5, 40)):
        event = rng.choice(sorted(seq.per_event))
        ts = seq.per_event[event]
        i = rng.randrange(len(ts) - 3)
        run = ts[i : i + rng.randint(3, min(12, len(ts) - i))]
        cand = make_candidate(fit_cycle(run, event), "test", numbering)
        if cand is None:
            continue
        # per-occurrence prices around the residual price (10.5-11.2
        # bits here), so some picks are rejected
        cost = rng.choice((2.0, 4.0, 8.0, 10.0, 12.0, 16.0)) * cand.bits.bit_count()
        pool.append(dataclasses.replace(cand, cost=cost))
    return pool


class TestLazyGreedy:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_picks_as_the_eager_greedy(self, seed):
        rng = random.Random(seed)
        seq = EventSequence.from_pairs(
            (rng.randint(0, 600), rng.choice("abc")) for _ in range(150)
        )
        numbering = numbered(seq)
        stats = numbering.stats
        pool = random_pool(rng, numbering)
        pool += rng.sample(pool, len(pool) // 4)  # duplicate notations
        rng.shuffle(pool)
        got = greedy_cover(pool, numbering)
        want = eager_greedy_cover(pool, stats)
        assert [c.notation for c in got.candidates] == [c.notation for c in want]
        # the costs are set by hand, so the priced total is the report's
        assert got.report.total_bits == collection_cost(
            [c.pattern for c in want], seq, stats
        ).total_bits

    def test_rejected_first_pick_selects_nothing(self):
        rng = random.Random(5)
        seq = EventSequence.from_pairs(
            (rng.randint(0, 600), rng.choice("abc")) for _ in range(150)
        )
        numbering = numbered(seq)
        pool = [
            dataclasses.replace(c, cost=50.0 * c.bits.bit_count())
            for c in random_pool(rng, numbering)
        ]
        assert pool
        assert greedy_cover(pool, numbering).candidates == ()
        assert eager_greedy_cover(pool, numbering.stats) == []

    def test_equal_ratios_break_by_cost_then_start(self):
        seq = EventSequence.from_pairs((t, "a") for t in range(0, 61, 3))
        stats, numbering = own_stats(seq), numbered(seq)

        def priced(ts, cost):
            cand = make_candidate(fit_cycle(ts, "a"), "test", numbering)
            return dataclasses.replace(cand, cost=cost)

        a = priced((30, 33, 36, 39, 42, 45), 18.0)  # 3 bits each
        b = priced((3, 6, 9), 7.0)  # inside z: gain 0 once it is picked
        y = priced((48, 51, 54, 57), 8.0)  # 2 bits each
        z = priced((0, 3, 6, 9), 8.0)  # 2 bits each, and starts first
        pool = [a, b, y, z]
        assert greedy_cover(pool, numbering).candidates == (z, y, a)
        assert eager_greedy_cover(pool, stats) == [z, y, a]

    def test_equal_keys_break_by_place_in_the_pool(self):
        # Distinct patterns of one cost, start and cover tie on the whole
        # key: the earlier in the pool is picked, and the other gains
        # nothing after it.
        seq = EventSequence.from_pairs((t, e) for t in range(0, 12, 3) for e in "ab")
        stats, numbering = own_stats(seq), numbered(seq)
        a_then_b = parse_pattern("[r=4 p=3](a [d=0] b) @ tau=0 E=[0,0,0,0,0,0,0]")
        b_then_a = parse_pattern("[r=4 p=3](b [d=0] a) @ tau=0 E=[0,0,0,0,0,0,0]")
        first, second = (make_candidate(p, "test", numbering) for p in (a_then_b, b_then_a))
        first, second = (dataclasses.replace(c, cost=8.0) for c in (first, second))
        assert first.rank == second.rank and first != second
        for pool in ([first, second], [second, first]):
            assert greedy_cover(pool, numbering).candidates == (pool[0],)
            assert eager_greedy_cover(pool, stats) == [pool[0]]


class TestMaximalCliques:
    def test_triangle_with_pendant(self):
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
        cliques = {frozenset(c) for c in maximal_cliques(adj, set(adj))}
        assert cliques == {frozenset({0, 1, 2}), frozenset({2, 3})}

    def test_disconnected_pairs(self):
        adj = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        cliques = {frozenset(c) for c in maximal_cliques(adj, set(adj))}
        assert cliques == {frozenset({0, 1}), frozenset({2, 3})}


class TestMiningConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": -1},
            {"max_rounds": -1},
            {"threads": 0},
            {"k": 2.5},
            {"k": "3"},
            {"k": True},
            {"max_rounds": 2.5},
            {"max_rounds": False},
            {"threads": 2.0},
            {"threads": True},
        ],
    )
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(DomainError, match=field):
            MiningConfig(**kwargs)

    def test_threads_is_a_deprecated_argument(self):
        # Stage S runs in the caller's thread: ``threads`` is checked and
        # warned about, then dropped, so it is no field and changes nothing.
        with pytest.warns(DeprecationWarning, match="threads") as caught:
            config = MiningConfig(threads=2)
        assert caught[0].filename == __file__  # the warning names the caller
        assert config == MiningConfig()
        assert "threads" not in {f.name for f in dataclasses.fields(MiningConfig)}


class TestWidthArguments:
    # A width is an int >= 1, a bool is not one, and it is checked before
    # any work: here the inputs would end the call early or raise first.
    class Untouched:
        def __iter__(self):
            raise AssertionError("read before the width was checked")

    BAD = [0, -1, True, False, 2.5, 2.0, "3", None]
    STATS = SeqStats(length=1, t_start=0, t_end=0, counts={"a": 1})

    @pytest.mark.parametrize("k", BAD)
    def test_filter_candidates_rejects_k(self, k):
        with pytest.raises(DomainError, match=r"^k must be an int >= 1"):
            filter_candidates(self.Untouched(), k)

    @pytest.mark.parametrize("grow", [combine_vertically, combine_horizontally])
    @pytest.mark.parametrize("k", BAD)
    def test_combine_rejects_k(self, grow, k):
        with pytest.raises(DomainError, match=r"^k must be an int >= 1"):
            grow([], self.Untouched(), k)

    @pytest.mark.parametrize("window", BAD)
    def test_extract_cycles_dp_rejects_window(self, window):
        with pytest.raises(DomainError, match=r"^window must be an int >= 1"):
            extract_cycles_dp([0], "a", self.STATS, window=window)

    def test_least_width_is_accepted(self):
        assert filter_candidates([], 1) == []
        assert combine_vertically([], [], 1) == []
        assert combine_horizontally([], [], 1) == []
        stats = SeqStats(length=5, t_start=0, t_end=28, counts={"a": 5})
        assert extract_cycles_dp([0, 7, 14, 21, 28], "a", stats, window=1) == []


class TestClosedFormTermOrder:
    # Summing the corrections term as 2.0*(m-1) + abs_dev, after the
    # other terms, gives 107.29404631327151 here; the encoder adds them
    # as one integer and gives 107.2940463132715.
    def test_equals_the_encoder_bit_for_bit(self):
        stats = SeqStats(length=4, t_start=210, t_end=309, counts={"a": 3, "b": 1})
        c = fit_cycle([213, 305, 309], "a")
        abs_dev = sum(abs(e) for e in c.corrections)
        args = (c.tree.r, c.tree.p, c.tau, sum(c.corrections), abs_dev)
        kernel = codec.cycle_pricer(stats, "a")(*args)
        assert kernel == pattern_cost(c, stats).total == 107.2940463132715

    def test_more_repetitions_than_occurrences_are_uncodable(self):
        stats = SeqStats(length=4, t_start=0, t_end=40, counts={"a": 2, "b": 2})
        c = fit_cycle([0, 10, 20], "a")
        with pytest.raises(UncodablePatternError):
            pattern_cost(c, stats)
        assert codec.cycle_pricer(stats, "a")(3, 10, 0, 0, 0) == float("inf")

    def test_kernel_is_inf_exactly_when_the_encoder_raises(self):
        # Windows that cut the log on either side and event counts below
        # the cycle's length reach every uncodable branch; the kernel and
        # the built cycle's encoder price agree on every segment,
        # codable or not.
        rng = random.Random(13)
        branches: Counter = Counter()
        for _ in range(200):
            n = rng.randint(3, 12)
            ts = sorted(rng.sample(range(10, 300), n))
            count = rng.randint(1, n)
            t_start = ts[0] + rng.randint(-10, 20)
            stats = SeqStats(
                length=count + 5,
                t_start=t_start,
                t_end=max(t_start, ts[-1] + rng.randint(-40, 10)),
                counts={"a": count, "b": 5},
            )
            price = codec.cycle_pricer(stats, "a")
            for i in range(n):
                for j in range(i + 3, n + 1):
                    c = fit_cycle(ts[i:j], "a")
                    r, p, sigma = c.tree.r, c.tree.p, sum(c.corrections)
                    args = (r, p, c.tau, sigma, sum(map(abs, c.corrections)))
                    try:
                        encoded = pattern_cost(c, stats).total
                    except UncodablePatternError:
                        encoded = float("inf")
                    assert price(*args) == encoded
                    numer = stats.span - sigma
                    branches["codable"] += encoded < float("inf")
                    branches["r > count"] += r > count
                    branches["p > p0_max"] += p > numer // (r - 1)
                    branches["tau before t_start"] += c.tau < stats.t_start
                    branches["tau past the start range"] += (
                        c.tau > stats.t_start + numer - (r - 1) * p
                    )
        assert len(branches) == 5 and min(branches.values()) > 0, branches


def wobbly_log(rng: random.Random, events: str, n_noise: int) -> list[tuple[int, str]]:
    """A few wobbly tracks per event, one perfect track, and noise."""
    pairs: set[tuple[int, str]] = set()
    for e in events:
        for _ in range(rng.randint(1, 3)):
            t, p = rng.randint(0, 200), rng.randint(4, 15)
            for _ in range(rng.randint(4, 14)):
                pairs.add((t, e))
                t += p + rng.choice((-1, 0, 0, 0, 1))
    # an even-length perfect track: its two gap-2 chains tie on (cost / r, cost)
    pairs.update((500 + 6 * i, events[0]) for i in range(8))
    pairs.update((rng.randint(0, 600), rng.choice(events)) for _ in range(n_noise))
    return sorted(pairs)


class TestStageSRanking:
    # Ranking the cycles by their closed-form price and building only the
    # survivors gives the same candidates as building every cycle.
    @staticmethod
    def same(got, want):
        assert [(c.notation, c.provenance, c.cost) for c in got] == [
            (c.notation, c.provenance, c.cost) for c in want
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_same_candidates_as_building_every_cycle(self, seed):
        rng = random.Random(seed)
        seq = EventSequence.from_pairs(wobbly_log(rng, "abc", rng.randint(0, 25)))
        stats = own_stats(seq)
        for k in (1, 2, 3):
            self.same(
                extract_cycles(numbered(seq, stats), MiningConfig(k=k)),
                build_every_cycle(seq, stats, k),
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_same_candidates_when_the_window_cuts_the_log(self, seed):
        # Stats narrower than the log describe another log: stage S
        # refuses them, naming the window.  The same draws widening the
        # window instead give valid stats, and the same candidates as
        # building every cycle.
        rng = random.Random(100 + seed)
        seq = EventSequence.from_pairs(wobbly_log(rng, "ab", 10))
        full = own_stats(seq)
        d_start, d_end = rng.randint(5, 40), rng.randint(5, 40)
        cut = dataclasses.replace(
            full, t_start=full.t_start + d_start, t_end=full.t_end - d_end
        )
        window = rf"^the time window \[{cut.t_start}, {cut.t_end}\] must contain"
        with pytest.raises(DomainError, match=window):
            extract_cycles(numbered(seq, cut), MiningConfig(k=3))
        wide = SeqStats.from_sequence(
            seq, max(0, full.t_start - d_start), full.t_end + d_end
        )
        self.same(
            extract_cycles(numbered(seq, wide), MiningConfig(k=3)),
            build_every_cycle(seq, wide, 3),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_each_chain_is_priced_as_its_fitted_cycle(self, seed):
        # Stage S prices every chain from its sorted gaps, before any
        # cycle is fitted or built, survivor or not, and gives its start
        # and cover, which break every tie on (efficiency, cost): no two
        # chains share a rank.
        rng = random.Random(seed)
        seq = EventSequence.from_pairs(wobbly_log(rng, "abc", rng.randint(0, 25)))
        numbering = numbered(seq)
        tied = 0
        for e in seq.alphabet:
            winners = miner._stage_one_event(e, numbering)
            for cost, cover, tau, (_, (times, event)) in winners:
                cycle = fit_cycle(times, event)
                assert cost == pattern_cost(cycle, numbering.stats).total
                assert tau == cycle.tau
                assert cover == numbering.cover(corrected_occurrences(cycle))
            ranks = [
                (cost / cover.bit_count(), cost, tau, cover) for cost, cover, tau, _ in winners
            ]
            assert len(set(ranks)) == len(ranks)
            tied += len(ranks) - len({rank[:2] for rank in ranks})
        assert tied > 0

    def test_logs_hold_duplicates_and_ties(self):
        # The seeded logs above exercise dp/tri duplicate chains and
        # candidates tied on (cost / r, cost) that start and cover order.
        dupes = ties = 0
        for seed in range(12):
            rng = random.Random(seed)
            seq = EventSequence.from_pairs(wobbly_log(rng, "abc", rng.randint(0, 25)))
            stats = own_stats(seq)
            for e in seq.alphabet:
                ts = list(seq.per_event[e])
                dp = set(extract_cycles_dp(ts, e, stats))
                tri = extract_cycles_tri(ts, extension_margin(stats))
                dupes += sum(c in dp for c in tri)
            keys = [(c.efficiency, c.cost) for c in build_every_cycle(seq, stats, 3)]
            ties += len(keys) - len(set(keys))
        assert dupes > 0 and ties > 0

    def test_one_build_site_call_per_log(self, monkeypatch):
        # Every event's winners reach the build site together, so it and
        # its pruning run once per log, however many events it holds.
        calls = Counter()
        for name in ("_build_survivors", "filter_candidates"):
            original = getattr(miner, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(miner, name, counting)
        seq = EventSequence.from_pairs(wobbly_log(random.Random(5), "abcd", 20))
        assert len(seq.alphabet) == 4
        out = extract_cycles(numbered(seq), MiningConfig(k=3))
        assert {c.pattern.tree.children[0].event for c in out} == set("abcd")
        assert calls == {"_build_survivors": 1, "filter_candidates": 1}

    def test_builds_only_the_survivors(self, monkeypatch):
        built = []
        original = miner._grow

        def counting(provenance, parts):
            built.append(provenance)
            return original(provenance, parts)

        monkeypatch.setattr(miner, "_grow", counting)
        rng = random.Random(5)
        seq = EventSequence.from_pairs(wobbly_log(rng, "abc", 20))
        out = extract_cycles(numbered(seq), MiningConfig(k=3))
        assert len(built) == len(out)


def heartbeat_log(rng: random.Random, beats: int, span: int) -> list[tuple[int, str]]:
    """Independent wobbly heartbeats, the first two starting together,
    plus a spurious label."""
    pairs: set[tuple[int, str]] = set()
    first = rng.randint(0, 6)
    for i in range(beats):
        p = rng.randint(9, 12)
        t = first if i < 2 else rng.randint(0, p)
        while t < span:
            pairs.add((t, f"h{i}"))
            t += p + rng.choice((-1, 0, 0, 0, 1))
    pairs.update((rng.randint(0, span), "x") for _ in range(span // 25))
    return sorted(pairs)


def coperiodic_log(
    rng: random.Random, events: str, n_noise: int
) -> list[tuple[int, str]]:
    """One wobbly track per event, all of period 10 and starting within
    one period of each other, and noise: a small stream log whose tracks
    all merge, so its pools hold cliques."""
    pairs: set[tuple[int, str]] = set()
    for e in events:
        t = rng.randint(0, 9)
        for _ in range(rng.randint(8, 14)):
            pairs.add((t, e))
            t += 10 + rng.choice((-1, 0, 0, 0, 1))
    pairs.update((rng.randint(0, 150), rng.choice(events)) for _ in range(n_noise))
    return sorted(pairs)


def burst_pair_log() -> EventSequence:
    """Six bursts, 50 ticks apart, of four a's two ticks apart, each a
    followed by a b: the two events' nestings merge, and the merge
    factorizes.  Their cycles share no occurrence."""
    return EventSequence.from_pairs(
        (50 * k + 2 * j + d, e)
        for k in range(6)
        for j in range(4)
        for d, e in ((0, "a"), (1, "b"))
    )


def braid_log(seed: int) -> EventSequence:
    spec = PlantSpec(
        basis="a d=2 b d=1 c",
        depth=2,
        outer_length=(3, 5),
        n_patterns=2,
        shift_level=1,
        shift_density=0.2,
        additive_density=0.1,
        seed=seed,
    )
    return generate(spec).perturbed


VERSION_DIGEST = Path(__file__).resolve().with_name("version_digest.py")


@pytest.fixture(scope="module")
def this_digest() -> str:
    """What ``version_digest.py`` prints under the running interpreter."""
    import version_digest

    return version_digest.digest()


def shaped_log(shape: str, seed: int) -> EventSequence:
    rng = random.Random(seed)
    if shape == "heartbeats":
        return EventSequence.from_pairs(heartbeat_log(rng, 6, 600))
    if shape == "stream":
        return EventSequence.from_pairs(wobbly_log(rng, "abc", rng.randint(0, 25)))
    return braid_log(seed)


def loggable(pattern: Pattern) -> bool:
    """Whether every occurrence of the pattern lies at time 0 or later,
    where a log can hold it."""
    try:
        corrected_occurrences(pattern)
    except InvalidPatternError:
        return False
    return True


def pattern_log(patterns) -> EventSequence:
    """The log that the patterns' occurrences make."""
    return EventSequence.from_pairs(o for p in patterns for o in corrected_occurrences(p))


def widened(seq: EventSequence, lo: int, hi: int) -> Numbering:
    """A numbering of the log, priced by its own statistics over the
    window ``[lo, hi]`` widened to hold it."""
    stats = SeqStats.from_sequence(seq, min(lo, seq.t_start), max(hi, seq.t_end))
    return Numbering(seq, stats)


def refuses(seq: EventSequence, lo: int, hi: int) -> bool:
    """Whether the log leaves the window ``[lo, hi]``, after checking
    that a numbering then refuses the log's counts over that window,
    naming it."""
    if lo <= seq.t_start and seq.t_end <= hi:
        return False
    cut = dataclasses.replace(own_stats(seq), t_start=lo, t_end=hi)
    with pytest.raises(DomainError, match=rf"^the time window \[{lo}, {hi}\] must contain"):
        Numbering(seq, cut)
    return True


def priced_over(patterns, numbering: Numbering) -> list:
    """The candidates of the patterns that can be transmitted in the log
    ``numbering`` numbers, in order."""
    cands = (make_candidate(p, "test", numbering) for p in patterns)
    return [c for c in cands if c is not None]


def random_member(rng: random.Random):
    """A pattern over a random tree (sometimes one nested block, so that
    pairs can factorize), near period 10 and start 0..15; None when the
    draw is invalid or reaches before time 0."""
    if rng.random() < 0.3:
        inner = Block(r=3, p=3, children=(Leaf(rng.choice("abc")),), distances=(0,))
        tree = Block(r=rng.randint(2, 3), p=10, children=(inner,), distances=(0,))
    else:
        tree = random_tree(rng, depth=2, leaves=3)
        tree = dataclasses.replace(tree, p=rng.choice((10, 10, 11)))
    n = occurrence_count(tree)
    corrections = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n - 1))
    try:
        pattern = Pattern(tree=tree, tau=rng.randint(0, 15), corrections=corrections)
    except InvalidPatternError:
        return None
    return pattern if loggable(pattern) else None


def factorizable_pair(rng: random.Random):
    """Two patterns, in merge order, whose roots each hold one block of
    the same ``(r, p)`` over random children: their merge may factorize.
    None when a draw is invalid."""
    r, p = rng.randint(2, 3), rng.randint(2, 6)
    members = []
    for _ in range(2):
        inner = random_tree(rng, depth=2, leaves=3)
        inner = Block(r=r, p=p, children=inner.children, distances=inner.distances)
        tree = Block(
            r=rng.randint(2, 4),
            p=rng.randint(14, 16),
            children=(inner,),
            distances=(0,),
        )
        corrections = tuple(
            rng.choice((-1, 0, 0, 1)) for _ in range(occurrence_count(tree) - 1)
        )
        try:
            pattern = Pattern(
                tree=tree, tau=rng.randint(5, 20), corrections=corrections
            )
        except InvalidPatternError:
            return None
        members.append(pattern)
    if not all(map(loggable, members)):
        return None
    return sorted(members, key=lambda p: p.tau)


def random_merge_pool(rng: random.Random) -> tuple[list, EventSequence, tuple[int, int]]:
    """Candidates over random trees, numbered over the log that their
    occurrences make; that log; and a window ``[lo, hi]`` drawn to cut
    it, to which the log's own statistics are widened where it is
    wider."""
    patterns = [p for p in (random_member(rng) for _ in range(14)) if p is not None]
    lo, hi = rng.randint(0, 4), rng.randint(40, 60)
    seq = pattern_log(patterns)
    return priced_over(patterns, widened(seq, lo, hi)), seq, (lo, hi)


def laid_out_merges(a: Pattern, b: Pattern) -> list:
    """Each form of the merge of ``a`` then ``b`` as ``(layout, built
    pattern, factored)``: the plain one, then the factorized one when it
    exists; none when the two cannot be concatenated."""
    try:
        layout = concat_layout([a, b])
    except InvalidPatternError:
        return []
    merged = grow_horizontally([a, b])
    forms = [(layout, merged, False)]
    if (factored := factor_layout(layout)) is not None:
        forms.append((factored, factorize(merged), True))
    return forms


def record_price(layout, members, factored: bool):
    """``(cost, cover)`` of a merge priced from its member candidates'
    reads through its layout (:func:`_oracles.layout_cost`)."""
    return layout_cost(layout, members, factored), miner._kept(members, layout.root.r)


def in_slack_gate(a: Pattern, b: Pattern) -> bool:
    """Whether the root periods of ``a`` and the later ``b`` agree within
    ``b``'s boundary-correction slack, as horizontal growth requires."""
    r = min(a.tree.r, b.tree.r)
    return abs(a.tree.p - b.tree.p) <= 2.0 * boundary_correction_sum(b) / (r * (r - 1))


def pair_kinds(calls) -> Counter:
    """What the slack-passing pairs of recorded ``(new, pool)`` calls
    are: merges that fail, are uncodable, leave occurrences out,
    interleave, start together, may factorize or join two one-leaf
    cycles; and how many triples of cycles pass pairwise, the cliques
    that a merge of cycles can be priced for."""
    kinds: Counter = Counter()
    for new, pool in calls:
        kinds["empty new"] += not new
        cycle_pairs: dict[int, set[int]] = {}
        for ia, ib, cands in slack_pairs(new, pool):
            a, b = cands[ia], cands[ib]
            if is_simple(a.pattern.tree) and is_simple(b.pattern.tree):
                kinds["cycle merge"] += 1
                kinds["cycle clique"] += len(cycle_pairs.get(ia, set()) & cycle_pairs.get(ib, set()))
                cycle_pairs.setdefault(ib, set()).add(ia)
            try:
                merged = grow_horizontally([a.pattern, b.pattern])
            except InvalidPatternError:
                kinds["negative distance"] += 1
                continue
            cand = make_candidate(merged, "test", a.numbering)
            if cand is None:
                kinds["uncodable"] += 1
                continue
            kinds["left out"] += bool((a.bits | b.bits) & ~cand.bits)
            kinds["interleaved"] += place(merged.tree).interleaved
            kinds["equal tau"] += a.tau == b.tau and a.pattern.tree != b.pattern.tree
            kinds["factorizable"] += factorize(merged) is not None
    return kinds


class TestHorizontalPricing:
    # Pricing each pair merge from its members and building only those
    # that can survive pruning gives what building every merge gives.
    @staticmethod
    def same(got, want):
        assert [(c.notation, c.provenance, c.cost) for c in got] == [
            (c.notation, c.provenance, c.cost) for c in want
        ]

    @staticmethod
    def recorded_calls(monkeypatch, seq) -> list:
        calls = []
        original = miner.combine_horizontally

        def recording(new, pool, k):
            calls.append((list(new), list(pool)))
            return original(new, pool, k)

        monkeypatch.setattr(miner, "combine_horizontally", recording)
        mine(seq)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("shape", ["heartbeats", "stream", "braids"])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_candidates_as_building_every_merge(self, monkeypatch, shape, seed):
        calls = self.recorded_calls(monkeypatch, shaped_log(shape, seed))
        for new, pool in calls:
            for k in (1, 2, 3):
                self.same(
                    combine_horizontally(new, pool, k),
                    build_every_merge(new, pool, k),
                )

    def test_mined_logs_hold_every_kind_of_pair(self, monkeypatch):
        calls = self.recorded_calls(monkeypatch, burst_pair_log())
        for shape in ("heartbeats", "stream", "braids"):
            for seed in range(3):
                calls += self.recorded_calls(monkeypatch, shaped_log(shape, seed))
        kinds = pair_kinds(calls)
        for kind in (
            "empty new",
            "left out",
            "interleaved",
            "equal tau",
            "factorizable",
            "cycle merge",
            "cycle clique",
        ):
            assert kinds[kind] > 0, (kind, kinds)

    def test_same_candidates_on_random_pools(self):
        # Random trees reach the pairs that mining the small logs above
        # does not, such as negative connecting distances.  Each draw's
        # log is made of its members' occurrences; statistics over the
        # window drawn to cut it are refused.
        rng = random.Random(31)
        calls, refused = [], 0
        for _ in range(40):
            cands, seq, (lo, hi) = random_merge_pool(rng)
            refused += refuses(seq, lo, hi)
            new, pool = cands[:5], cands[5:]
            calls.append((new, pool))
            for k in (1, 2, 3):
                self.same(
                    combine_horizontally(new, pool, k),
                    build_every_merge(new, pool, k),
                )
            assert combine_horizontally([], cands, 3) == []
        assert refused > 0
        kinds = pair_kinds(calls)
        for kind in (
            "negative distance",
            "left out",
            "interleaved",
            "equal tau",
            "factorizable",
        ):
            assert kinds[kind] > 0, (kind, kinds)
        # A merge that lists occurrences of its log once is codable, as
        # the theorem on codec._placed proves.
        assert kinds["uncodable"] == 0, kinds
        # Every pair's merge is priced from its members' reads, plain
        # and factorized.
        priced = 0
        for new, pool in calls:
            for ia, ib, cands in slack_pairs(new, pool):
                a, b = cands[ia], cands[ib]
                for layout, merged, factored in laid_out_merges(a.pattern, b.pattern):
                    want = make_candidate(merged, "test", a.numbering)
                    assert record_price(layout, [a, b], factored) == (want.cost, want.bits)
                    priced += 1
        assert priced > 0

    def test_closed_form_equals_the_built_merge(self):
        # The price and cover of the concatenation's layout, read off 2, 3
        # or 4 members, equal those of the merge built and priced by the
        # encoder, float for float, in the log of the members'
        # occurrences.
        rng = random.Random(7)
        seen: Counter = Counter()
        for draw in range(8100):
            n = 2 + draw % 3
            hi = rng.randint(60, 160)
            patterns = []
            for _ in range(n):
                tree = random_tree(rng, depth=3, leaves=3)
                count = occurrence_count(tree)
                corrections = tuple(rng.randint(-2, 2) for _ in range(count - 1))
                patterns.append(
                    Pattern(tree=tree, tau=rng.randint(5, 40), corrections=corrections)
                )
            if not all(map(loggable, patterns)):
                continue
            numbering = widened(pattern_log(patterns), 0, hi)
            members = priced_over(patterns, numbering)
            if len(members) < n:
                continue
            members.sort(key=lambda c: c.tau)
            try:
                layout = concat_layout([c.pattern for c in members])
            except InvalidPatternError:
                with pytest.raises(InvalidPatternError):
                    grow_horizontally([c.pattern for c in members])
                seen[n, "negative distance"] += 1
                continue
            merged = grow_horizontally([c.pattern for c in members])
            want = make_candidate(merged, "test", numbering)
            if want is None:
                with pytest.raises(UncodablePatternError):
                    record_price(layout, members, False)
                continue
            cost, cover = record_price(layout, members, False)
            assert cost == want.cost
            assert cover == want.bits
            tree = want.pattern.tree
            seen[n, "priced"] += 1
            seen[n, "interleaved"] += place(tree).interleaved
            seen[n, "nested"] += any(isinstance(c, Block) for c in tree.children)
            seen[n, "unequal r"] += len({c.pattern.tree.r for c in members}) > 1
        for n in (2, 3, 4):
            assert seen[n, "priced"] >= 1000, seen
            for kind in ("negative distance", "interleaved", "nested", "unequal r"):
                assert seen[n, kind] >= 100, seen

    def test_factored_closed_form_equals_the_built_merge(self):
        # The price and cover of the factorized layout of a pair's merge,
        # read off the two members, equal those of the factorized merge
        # built and priced by the encoder, float for float, in the log of
        # the members' occurrences.
        rng = random.Random(3)
        seen: Counter = Counter()
        for _ in range(2500):
            hi = rng.randint(60, 140)
            pair = factorizable_pair(rng)
            if pair is None:
                continue
            numbering = widened(pattern_log(pair), 0, hi)
            members = priced_over(pair, numbering)
            if len(members) < 2:
                continue
            a, b = members
            layout = factor_layout(concat_layout([a.pattern, b.pattern]))
            factored = factorize(grow_horizontally([a.pattern, b.pattern]))
            if factored is None:
                assert layout is None
                seen["negative join"] += 1
                continue
            try:
                want = pattern_cost(factored, numbering.stats).total
            except UncodablePatternError:
                with pytest.raises(UncodablePatternError):
                    record_price(layout, members, True)
                seen["uncodable"] += 1
                continue
            got = record_price(layout, members, True)
            assert got[0] == want
            assert got[1] == numbering.cover(pattern_occurrences(factored))
            inner = a.pattern.tree.children[0]
            seen["priced"] += 1
            seen["interleaved"] += place(factored.tree).interleaved
            seen["in order"] += not place(factored.tree).interleaved
            seen["unequal r"] += a.pattern.tree.r != b.pattern.tree.r
            seen["leaf closes"] += isinstance(inner.children[-1], Leaf)
        assert seen["priced"] >= 1000 and seen["uncodable"] == 0, seen
        for kind in (
            "negative join",
            "interleaved",
            "in order",
            "unequal r",
            "leaf closes",
        ):
            assert seen[kind] >= 50, seen

    def test_cycle_merge_pricer_equals_the_general_path(self):
        # A merge of 2, 3 or 4 one-leaf cycles priced from their
        # parameters equals its layout's price and the encoder's price of
        # the built merge, float for float, in the log of the members'
        # occurrences with its window widened on either side.  Every draw
        # is codable, as the theorem on codec._placed proves.
        rng = random.Random(29)
        seen: Counter = Counter()
        for draw in range(3000):
            n = 2 + draw % 3
            p, start = rng.randint(4, 30), rng.randint(5, 25)
            patterns = []
            for _ in range(n):
                r = rng.randint(2, 9)
                corrections = [rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(r - 1)]
                period = p + rng.choice((-1, 0, 0, 0, 1))
                patterns.append(cycle(rng.choice("abc"), r, period, start, corrections))
                start += rng.choice((0, rng.randint(1, p), rng.randint(p, 2 * p)))
            patterns.sort(key=lambda q: q.tau)
            seq = pattern_log(patterns)
            if len(seq) < sum(q.tree.r for q in patterns):
                seen["shares an occurrence"] += 1
                continue
            below = rng.choice((0, rng.randint(1, 5)))
            above = rng.choice((0, rng.randint(1, 40)))
            numbering = widened(seq, seq.t_start - below, seq.t_end + above)
            members = [make_candidate(q, "test", numbering) for q in patterns]
            cycles = [(q.tree.children[0].event, q.tree.r, q.tree.p, q.tau, q.offsets) for q in patterns]
            assert [q.cycle for q in members] == cycles
            got = codec.cycle_merge_pricer(numbering.stats)(cycles)
            via_layout = layout_cost(concat_layout(patterns), members, False)
            assert got == via_layout
            merged = grow_horizontally(patterns)
            assert got == pattern_cost(merged, numbering.stats).total
            periods = {q.tree.p for q in patterns}
            seen["priced"] += 1
            seen["wobbled"] += any(q.corrections for q in patterns)
            seen["unequal r"] += len({q.tree.r for q in patterns}) > 1
            seen["equal tau"] += len({q.tau for q in patterns}) < n
            seen["drift in the gate"] += len(periods) > 1 and all(
                in_slack_gate(a, b) for i, a in enumerate(patterns) for b in patterns[i + 1 :]
            )
            seen["interleaved clique"] += n > 2 and place(merged.tree).interleaved
            seen["widened below"] += below > 0
            seen["widened above"] += above > 0
        for kind in (
            "wobbled",
            "unequal r",
            "equal tau",
            "drift in the gate",
            "interleaved clique",
            "widened below",
            "widened above",
        ):
            assert seen[kind] >= 100, seen

    def test_merge_pricer_equals_the_layout_path(self):
        # A merge of 2, 3 or 4 members over random trees of depth <= 3,
        # or of a pair whose roots each hold one block of the same (r, p),
        # priced by codec.merge_pricer from the member candidates, plain
        # and factorized, equals the price through its layout
        # (_oracles.layout_cost) and the encoder's price of the built
        # merge, float for float, in the log of the members' occurrences
        # with its window widened on either side.  It is inf exactly when
        # there is no such layout.  The draws whose members or merge the
        # encoder refuses are left out: they list an occurrence twice,
        # which growth never prices.
        rng = random.Random(53)
        seen: Counter = Counter()
        for draw in range(3600):
            if draw % 3 == 2:
                patterns = factorizable_pair(rng)
                if patterns is None:
                    continue
            else:
                patterns = []
                for _ in range(rng.choice((2, 3, 4))):
                    tree = random_tree(rng, depth=3, leaves=3)
                    corrections = tuple(rng.randint(-2, 2) for _ in range(tree.count - 1))
                    patterns.append(Pattern(tree=tree, tau=rng.randint(5, 40), corrections=corrections))
                if not all(map(loggable, patterns)):
                    continue
            patterns.sort(key=lambda q: q.tau)
            seq = pattern_log(patterns)
            below = rng.choice((0, rng.randint(1, 5)))
            above = rng.choice((0, rng.randint(1, 40)))
            numbering = widened(seq, seq.t_start - below, seq.t_end + above)
            members = priced_over(patterns, numbering)
            if len(members) < len(patterns):
                seen["uncodable"] += 1
                continue
            price = codec.merge_pricer(numbering.stats)
            try:
                layout = concat_layout(patterns)
            except InvalidPatternError:
                assert price(members) == price(members, True) == math.inf
                seen["negative distance"] += 1
                continue
            merged = grow_horizontally(patterns)
            forms = [(layout, merged, False)]
            if (factored := factor_layout(layout)) is None:
                assert price(members, True) == math.inf
            else:
                forms.append((factored, factorize(merged), True))
            for laid, built, form in forms:
                try:
                    want = pattern_cost(built, numbering.stats).total
                except UncodablePatternError:
                    seen["uncodable"] += 1
                    continue
                got = price(members, form)
                assert got == layout_cost(laid, members, form) == want
                seen["factorized" if form else "plain"] += 1
                seen["interleaved"] += built.tree.placement.interleaved
            seen["3 or more members"] += len(patterns) >= 3
            seen["unequal r"] += len({q.tree.r for q in patterns}) > 1
            seen["depth 2 or more"] += any(
                isinstance(c, Block) for q in patterns for c in q.tree.children
            )
            seen["widened below"] += below > 0
            seen["widened above"] += above > 0
        for kind in (
            "plain",
            "factorized",
            "negative distance",
            "3 or more members",
            "unequal r",
            "interleaved",
            "depth 2 or more",
            "widened below",
            "widened above",
        ):
            assert seen[kind] >= 50, seen
        assert seen["plain"] + seen["factorized"] >= 3000, seen

    def test_no_merge_is_laid_out_only_to_be_priced(self, monkeypatch):
        # Mining lays a merge out once per merge it builds, a plain one
        # by grow_horizontally and a factorized one by _grow, and never
        # to price one.
        laid_out, built = Counter(), Counter()
        lay_out, grow = pattern_module.concat_layout, miner._grow

        def laying_out(instances):
            laid_out["concat_layout"] += 1
            return lay_out(instances)

        def growing(provenance, parts):
            built[provenance] += 1
            return grow(provenance, parts)

        monkeypatch.setattr(pattern_module, "concat_layout", laying_out)
        monkeypatch.setattr(miner, "concat_layout", laying_out)
        monkeypatch.setattr(miner, "_grow", growing)
        mine(small_braid_log())
        assert built["horizontal"] > 0 and built["vertical"] > 0, built
        assert laid_out["concat_layout"] == built["horizontal"] + built["factorized"]

    def test_cycle_merges_are_laid_out_only_where_survivors_are_built(self, monkeypatch):
        # A merge of one-leaf cycles is priced in closed form, so only
        # _grow lays one out: for a survivor, built by grow_horizontally.
        lay_out, grow = pattern_module.concat_layout, miner._grow
        depth, inside, outside = Counter(), Counter(), []

        def laying_out(instances):
            if all(is_simple(q.tree) for q in instances):
                if depth["grow"]:
                    inside[len(instances)] += 1
                else:
                    outside.append([format_pattern(q) for q in instances])
            return lay_out(instances)

        def growing(provenance, parts):
            depth["grow"] += 1
            try:
                return grow(provenance, parts)
            finally:
                depth["grow"] -= 1

        monkeypatch.setattr(pattern_module, "concat_layout", laying_out)
        monkeypatch.setattr(miner, "concat_layout", laying_out)
        monkeypatch.setattr(miner, "_grow", growing)
        for shape in ("stream", "braids"):
            for seed in range(3):
                mine(shaped_log(shape, seed))
        assert outside == []
        assert inside[2] > 0 and max(inside) > 2, inside

    def test_merges_are_built_only_at_the_build_site(self, monkeypatch):
        # The build site builds each merge that can survive pruning once,
        # in its priced form, and nothing builds a pair to price it,
        # although the mined logs and the random pools hold factorizable
        # pairs, and in the pools factorizing wins some.  A plain merge
        # is built by grow_horizontally, a factorized one from its layout
        # by build_merge, not through the plain merge.
        calls = self.recorded_calls(monkeypatch, shaped_log("braids", 0))
        calls += self.recorded_calls(monkeypatch, burst_pair_log())
        assert pair_kinds(calls)["factorizable"] > 0
        rng = random.Random(31)
        for _ in range(40):
            cands, _, _ = random_merge_pool(rng)
            calls.append((cands[:5], cands[5:]))
        built, survivors, merges = [], [], []
        grow, site = miner._grow, miner._build_survivors
        concatenate, from_layout = miner.grow_horizontally, miner.build_merge

        def building(provenance, parts):
            built.append(provenance)
            return grow(provenance, parts)

        def surviving(winners, k, numbering):
            entries = [entry[:3] for entry in winners]
            survivors.append(len(survivor_bound(entries, numbering, k)))
            return site(winners, k, numbering)

        def concatenating(instances):
            merges.append(len(instances))
            return concatenate(instances)

        def laying_out(layout, members):
            merges.append(len(members))
            return from_layout(layout, members)

        monkeypatch.setattr(miner, "_grow", building)
        monkeypatch.setattr(miner, "_build_survivors", surviving)
        monkeypatch.setattr(miner, "grow_horizontally", concatenating)
        monkeypatch.setattr(miner, "build_merge", laying_out)
        for new, pool in calls:
            combine_horizontally(new, pool, 3)
        assert len(built) == sum(survivors) == len(merges)
        assert "factorized" in built and "horizontal" in built

    def test_survivor_bound_counts_equal_merges_once_and_keeps_ties(self, monkeypatch):
        numbering = numbered(EventSequence.from_pairs((t, "a") for t in range(3)))
        x, y, z = 1, 2, 4  # the covers of the three pairs alone
        stand_in = parse_pattern("[r=2 p=1](a) @ tau=0 E=[0]")
        built = set()

        def building(provenance, parts):
            built.add(parts)
            return stand_in

        def survivors(entries, k, taus=None):
            built.clear()
            taus = taus or [0] * len(entries)
            miner._build_survivors(
                [
                    (cost, cover, tau, ("test", i))
                    for i, ((cost, cover), tau) in enumerate(zip(entries, taus))
                ],
                k,
                numbering,
            )
            return built

        monkeypatch.setattr(miner, "_grow", building)
        # Two merges of equal cost, cover and start are one pattern or
        # several, so all are built; counted once, they leave room for
        # the runner-up at k = 2.
        same = [(2.0, x), (2.0, x), (3.0, x)]
        assert survivors(same, 2) == {0, 1, 2}
        # Equal (efficiency, cost) at x: the cover breaks the tie, as
        # filter_candidates would, and only x | y stays at k = 1 ...
        tied = [(4.0, x | y), (4.0, x | z), (1.0, y), (1.0, z)]
        assert survivors(tied, 1) == {0, 2, 3}
        # ... after the start, which comes first.
        assert survivors(tied, 1, [1, 0, 0, 0]) == {1, 2, 3}

    def test_builds_fewer_merges_than_pairs_it_tries(self, monkeypatch):
        # Building every pair that passes the slack test calls
        # grow_horizontally at least once per such pair.
        seq = shaped_log("heartbeats", 0)
        calls = self.recorded_calls(monkeypatch, seq)
        tried = sum(1 for new, pool in calls for _ in slack_pairs(new, pool))
        built = []
        original = miner.grow_horizontally

        def counting(instances):
            built.append(len(instances))
            return original(instances)

        monkeypatch.setattr(miner, "grow_horizontally", counting)
        mine(seq)
        assert 0 < len(built) < tried

    def test_oversized_component_takes_a_greedy_clique_cover(self, monkeypatch):
        # Seventy one-event cycles four ticks apart, period 40: each merges
        # with the ten that start within its period, so the merge graph is
        # one band-shaped component, larger than the cap and no clique.
        n = 70
        cycles = [cycle(f"e{i}", 4, 40, 4 * i, (0, 0, 0)) for i in range(n)]
        seq = pattern_log(cycles)
        numbering = Numbering(seq, SeqStats.from_sequence(seq, 0, 4000))
        cands = [make_candidate(c, "test", numbering) for c in cycles]
        covers = []
        original = miner._greedy_clique_cover

        def recording(adj, nodes):
            out = original(adj, nodes)
            covers.append((adj, set(nodes), out))
            return out

        monkeypatch.setattr(miner, "_greedy_clique_cover", recording)
        for k in (1, 2, 3):
            self.same(
                combine_horizontally(cands, [], k),
                build_every_merge(cands, [], k),
            )
        assert len(covers) == 3
        for adj, nodes, groups in covers:
            assert len(nodes) > miner._CLIQUE_NODE_CAP
            assert len(groups) > 1
            for group in groups:
                assert all(v in adj[u] for u in group for v in group if v != u)
            assert sum(len(g) for g in groups) == len(nodes)
            assert set().union(*groups) == nodes

    @pytest.mark.parametrize("shape", ["heartbeats", "stream"])
    def test_builds_fewer_clique_merges_than_cliques(self, monkeypatch, shape):
        # Building every clique merge builds once per clique of three or
        # more members.  The seeds give logs whose pools hold cliques,
        # some of which cannot survive pruning.  No wobbly stream log of
        # seeds 0-599 holds one that cannot, so the stream log's tracks
        # share their period.
        cliques, built = [], []
        original = miner._grow

        def recording(find):
            def found(*args):
                out = find(*args)
                cliques.extend(c for c in out if len(c) >= 3)
                return out

            return found

        def counting(provenance, parts):
            if provenance in ("horizontal", "factorized") and len(parts) >= 3:
                built.append(len(parts))
            return original(provenance, parts)

        for name in ("maximal_cliques", "_greedy_clique_cover"):
            monkeypatch.setattr(miner, name, recording(getattr(miner, name)))
        monkeypatch.setattr(miner, "_grow", counting)
        if shape == "heartbeats":
            seq = shaped_log(shape, 31)
        else:
            rng = random.Random(25)
            pairs = coperiodic_log(rng, "abcd", rng.randint(0, 10))
            seq = EventSequence.from_pairs(pairs)
        mine(seq)
        assert 0 < len(built) < len(cliques)


def random_nesting(rng: random.Random):
    """Three to six patterns over one random tree, in start order with
    starts near a common period; None when a draw is invalid or reaches
    before time 0."""
    tree = random_tree(rng, depth=3, leaves=3)
    period = rng.randint(4, 40)
    tau = rng.randint(0, 20)
    members = []
    for i in range(rng.randint(3, 6)):
        corrections = tuple(
            rng.randint(-2, 2) for _ in range(occurrence_count(tree) - 1)
        )
        start = tau + i * period + rng.randint(-2, 2)
        if members and start <= members[-1].tau:
            return None
        try:
            pattern = Pattern(tree=tree, tau=start, corrections=corrections)
        except InvalidPatternError:
            return None
        if not loggable(pattern):
            return None
        members.append(pattern)
    return members


def nesting_pools(rng: random.Random, draws: int) -> list:
    """``(new, pool)`` calls over random nestable groups and strays, each
    numbered over the log that their occurrences make, in a window as
    wide as a drawn one or wider."""
    calls = []
    for _ in range(draws):
        patterns = []
        for _ in range(rng.randint(1, 3)):
            group = random_nesting(rng)
            if group is not None:
                patterns += group + rng.sample(group, 1)
        if not patterns:
            continue
        rng.shuffle(patterns)
        cands = priced_over(patterns, widened(pattern_log(patterns), 0, rng.randint(120, 400)))
        if not cands:
            continue
        cut = rng.randint(1, len(cands))
        calls.append((cands[:cut], cands[cut:]))
    return calls


# Seeds whose shaped logs grow vertically as well as horizontally.
NESTING_SEEDS = {"heartbeats": 3, "stream": 3, "braids": 6}


class TestNestPricing:
    # Pricing each chain's nesting from its members and building only
    # those that can survive pruning gives what building every nesting
    # gives.
    @staticmethod
    def same(got, want):
        assert [(c.notation, c.provenance, c.cost) for c in got] == [
            (c.notation, c.provenance, c.cost) for c in want
        ]

    @staticmethod
    def recorded_calls(monkeypatch, seq) -> list:
        calls = []
        original = miner.combine_vertically

        def recording(new, pool, k):
            calls.append((list(new), list(pool)))
            return original(new, pool, k)

        monkeypatch.setattr(miner, "combine_vertically", recording)
        mine(seq)
        monkeypatch.undo()
        return calls

    def test_closed_form_equals_the_built_nesting(self):
        # The price of a nesting read off its members equals that of the
        # nesting built and priced by the encoder, float for float, and
        # raises exactly when the encoder does, in the log of the
        # members' occurrences.  Statistics over the window drawn to cut
        # that log are refused.
        rng = random.Random(11)
        seen: Counter = Counter()
        for _ in range(2500):
            patterns = random_nesting(rng)
            if patterns is None:
                continue
            lo, hi = rng.randint(0, 6), rng.randint(80, 400)
            seq = pattern_log(patterns)
            seen["refused"] += refuses(seq, lo, hi)
            numbering = widened(seq, lo, hi)
            members = priced_over(patterns, numbering)
            if len(members) < len(patterns):
                continue
            tree = patterns[0].tree
            nested = grow_vertically(patterns)
            try:
                want = pattern_cost(nested, numbering.stats).total
            except UncodablePatternError:
                with pytest.raises(UncodablePatternError):
                    miner._nest_cost(codec.nest_pricer(numbering.stats, tree), members)
                continue
            assert miner._nest_cost(codec.nest_pricer(numbering.stats, tree), members) == want
            seen["priced"] += 1
            seen["interleaved"] += nested.tree.placement.interleaved
            seen["nested"] += any(isinstance(c, Block) for c in tree.children)
        assert seen["priced"] >= 1000, seen
        for kind in ("interleaved", "nested", "refused"):
            assert seen[kind] >= 50, seen

    @pytest.mark.parametrize("shape", ["heartbeats", "stream", "braids"])
    def test_same_candidates_as_building_every_nesting(self, monkeypatch, shape):
        calls = self.recorded_calls(monkeypatch, shaped_log(shape, NESTING_SEEDS[shape]))
        assert any(combine_vertically(*call, 3) for call in calls)
        for new, pool in calls:
            for k in (1, 2, 3):
                self.same(
                    combine_vertically(new, pool, k),
                    build_every_nesting(new, pool, k),
                )

    def test_same_candidates_on_random_pools(self):
        # Random trees reach what the mined logs do not: interleaved and
        # deeper trees, and up to three groups and their strays in one log.
        found = 0
        for new, pool in nesting_pools(random.Random(17), 60):
            for k in (1, 2, 3):
                want = build_every_nesting(new, pool, k)
                self.same(combine_vertically(new, pool, k), want)
                found += len(want)
        assert found >= 50

    def test_builds_only_the_survivors(self, monkeypatch):
        # The nestings built are those the survivor bound keeps, fewer
        # than the chains found.
        calls = self.recorded_calls(monkeypatch, shaped_log("braids", 6))
        calls += nesting_pools(random.Random(17), 60)
        built, survivors, chained = [], [], []
        grow, site = miner._grow, miner._build_survivors
        chain = miner.extract_cycles_tri

        def building(provenance, parts):
            built.append(provenance)
            return grow(provenance, parts)

        def surviving(winners, k, numbering):
            entries = [entry[:3] for entry in winners]
            survivors.append(len(survivor_bound(entries, numbering, k)))
            return site(winners, k, numbering)

        def chaining(*args):
            out = chain(*args)
            chained.append(len(out))
            return out

        monkeypatch.setattr(miner, "_grow", building)
        monkeypatch.setattr(miner, "_build_survivors", surviving)
        monkeypatch.setattr(miner, "extract_cycles_tri", chaining)
        for new, pool in calls:
            combine_vertically(new, pool, 3)
        assert built == ["vertical"] * sum(survivors)
        assert 0 < len(built) < sum(chained), (len(built), sum(chained))


class TestBuildSite:
    @pytest.mark.parametrize("shape", ["heartbeats", "stream", "braids"])
    def test_pool_carries_the_price_it_was_kept_with(self, shape):
        # Nothing re-prices a built candidate, so every pooled one must
        # carry its encoder price and cover.
        seq = shaped_log(shape, NESTING_SEEDS[shape])
        stats = own_stats(seq)
        pool = mine(seq).pool
        assert {"vertical", "horizontal"} <= {c.provenance for c in pool}
        for c in pool:
            assert c.cost == pattern_cost(c.pattern, stats).total, c.notation
            assert cover_pairs(c) == frozenset(corrected_occurrences(c.pattern)), c.notation

    @pytest.mark.parametrize("shape", ["heartbeats", "stream", "braids"])
    def test_pool_notation_names_the_built_pattern(self, shape):
        # Stage S names a chain before _grow builds its cycle, and the
        # other stages name the merge they built.
        pool = mine(shaped_log(shape, NESTING_SEEDS[shape])).pool
        assert {"dp", "tri"} & {c.provenance for c in pool}
        for c in pool:
            assert c.notation == format_pattern(c.pattern), c.provenance


class TestRecords:
    # Pricing reads each candidate's own record, made once per
    # candidate, and builds no root block for a merge or nesting, so
    # none has its corrections solved before the build site grows the
    # candidates that survive.
    def test_priced_roots_are_never_solved(self, monkeypatch):
        depth = Counter()
        priced, solved, solved_outside, built = [], [], [], Counter()
        make_block = Block.__post_init__
        solve = pattern_module._solve_offsets

        def making(block):
            make_block(block)
            if depth["combine"] and not depth["grow"]:
                priced.append(block)

        def solving(tree, offsets):
            solved.append(tree)
            if not depth["grow"]:
                solved_outside.append(tree)
            return solve(tree, offsets)

        def nested(name, fn):
            def call(*args, **kwargs):
                depth[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[name] -= 1

            return call

        def growing(provenance, parts):
            built[provenance] += 1
            return grow(provenance, parts)

        grow = miner._grow
        seq = shaped_log("braids", NESTING_SEEDS["braids"])  # planting solves too
        monkeypatch.setattr(Block, "__post_init__", making)
        monkeypatch.setattr(pattern_module, "_solve_offsets", solving)
        for name in ("combine_horizontally", "combine_vertically"):
            monkeypatch.setattr(miner, name, nested("combine", getattr(miner, name)))
        monkeypatch.setattr(miner, "_grow", nested("grow", growing))
        mine(seq)
        assert priced == [] and solved
        assert solved_outside == []
        assert built["vertical"] > 0 and built["horizontal"] > 0, built

    def test_record_reads_equal_their_definitions(self):
        # A candidate reads its |E| totals off running sums and makes
        # each kept cover once per length.
        rng = random.Random(37)
        read = Counter()
        for _ in range(20):
            cands, _, _ = random_merge_pool(rng)
            for c in cands:
                magnitudes = [0, *map(abs, c.pattern.corrections)]
                occurrences = corrected_occurrences(c.pattern)
                for r in range(1, c.pattern.tree.r + 1):
                    assert c.running[r] == sum(magnitudes[: r * c.per])
                    cover = c.kept(r)
                    assert cover == c.numbering.cover(occurrences[: r * c.per])
                    assert c.kept(r) is cover
                    read["cycle" if c.per == 1 else "wider tree"] += 1
        assert read["cycle"] >= 100 and read["wider tree"] >= 100, read

    @pytest.mark.parametrize("shape", ["heartbeats", "stream", "braids"])
    def test_each_read_is_made_once_per_mine(self, monkeypatch, shape):
        # However many rounds and growths read a candidate, each of its
        # reads is worked out at most once, and a kept cover is made only
        # on a miss, once per length.
        made: Counter = Counter()
        for name in CANDIDATE_READS:

            def counting(c, read=vars(Candidate)[name].func, name=name):
                made[name, c.notation] += 1
                return read(c)

            prop = cached_property(counting)
            prop.__set_name__(Candidate, name)
            monkeypatch.setattr(Candidate, name, prop)
        misses, hits, covers = Counter(), Counter(), Counter()
        keep, cover = Candidate.kept, Numbering.cover

        def covering(numbering, pairs):
            covers["made"] += 1
            return cover(numbering, pairs)

        def keeping(c, r):
            before = covers["made"]
            out = keep(c, r)
            (misses if covers["made"] > before else hits)[c.notation, r] += 1
            return out

        monkeypatch.setattr(Numbering, "cover", covering)
        monkeypatch.setattr(Candidate, "kept", keeping)
        seq = shaped_log(shape, NESTING_SEEDS[shape])
        for _ in range(2):
            for counts in (made, misses, hits):
                counts.clear()
            mine(seq)
            assert made and set(made.values()) == {1}, made.most_common(3)
            if shape == "braids":  # it prices factorized merges too: every read
                assert {name for name, _ in made} == set(CANDIDATE_READS), made
            assert misses and set(misses.values()) == {1}, misses.most_common(3)
            assert hits


class TestExtractCyclesStage:
    def test_triad_log_yields_the_two_steady_tracks(self, triad_seq):
        cands = extract_cycles(numbered(triad_seq), MiningConfig(k=3))
        events = {next(iter(c.pattern.tree.children)).event for c in cands}
        assert events == {"a", "b"}
        assert all(c.provenance in ("dp", "tri") for c in cands)

    def test_width_comes_from_the_config(self, monkeypatch):
        # Benchmark log 0 of heartbeats seed 501: the retention width is
        # the config's, and no other argument carries it.
        monkeypatch.syspath_prepend(str(BENCH))
        gen = importlib.import_module("gen")
        seq = cadence.load_sequence(next(gen.logs("heartbeats", 501, 20)).text)
        numbering = numbered(seq)
        assert len(extract_cycles(numbering, MiningConfig(k=5))) == 87
        assert len(extract_cycles(numbering, MiningConfig(k=3))) == 45
        assert len(extract_cycles(numbering)) == 45

    def test_threading_does_not_change_the_result(self, mixed_seq):
        with pytest.warns(DeprecationWarning, match="threads"):
            serial = extract_cycles(numbered(mixed_seq), config=MiningConfig(k=3, threads=1))
        with pytest.warns(DeprecationWarning, match="threads"):
            threaded = extract_cycles(numbered(mixed_seq), config=MiningConfig(k=3, threads=3))
        assert [c.notation for c in serial] == [c.notation for c in threaded]


class TestMine:
    @pytest.mark.parametrize("shape", ["braids", "stream"])
    def test_mining_formats_no_notation(self, monkeypatch, shape):
        # A candidate is its pattern and ties break on its rank, so mining
        # formats nothing; reading a candidate's notation, or a report,
        # formats it then.
        calls: Counter = Counter()
        for name in ("format_tree", "_format_placed"):

            def counting(*args, _name=name, _format=getattr(pattern_module, name)):
                calls[_name] += 1
                return _format(*args)

            monkeypatch.setattr(pattern_module, name, counting)
        result = mine(shaped_log(shape, NESTING_SEEDS[shape]))
        assert result.pool and calls == {}
        assert result.pool[-1].notation.startswith("[r=")
        assert calls["_format_placed"] == 1 and calls["format_tree"] > 0
        calls.clear()
        report = result.selection.report
        assert calls["_format_placed"] == len(report.patterns) > 0

    def test_dozen_log_beats_hand_collections(self, dozen_a_seq):
        result = mine(dozen_a_seq)
        assert result.selection.total_bits <= 61.551 + 0.005
        assert result.selection.total_bits < 76.681
        assert any(c.bits.bit_count() == 12 for c in result.pool)
        assert result.winner in STAGES

    def test_long_perfect_progression(self):
        seq = EventSequence.from_pairs([(7 * i, "a") for i in range(20)])
        result = mine(seq)
        assert len(result.selection.candidates) == 1
        chosen = result.selection.candidates[0]
        assert chosen.notation == (
            "[r=20 p=7](a) @ tau=0 E=[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]"
        )
        assert result.selection.residuals == ()
        assert result.selection.report.percent_length < 50.0

    def test_one_occurrence_log(self):
        result = mine(EventSequence.from_pairs([(5, "a")]))
        assert result.selection.candidates == ()
        assert result.selection.residuals == ((5, "a"),)
        assert result.selection.report.percent_length == 100.0

    def test_pure_noise_stays_residual(self):
        rng = random.Random(3)
        pairs = [(rng.randint(0, 500), f"e{i}") for i in range(12)]
        seq = EventSequence.from_pairs(pairs)
        result = mine(seq)
        assert result.selection.candidates == ()
        assert result.selection.report.percent_length == pytest.approx(
            100.0, abs=1e-9
        )

    def test_triad_log_merges_the_two_steady_tracks(self, triad_seq):
        result = mine(triad_seq)
        assert result.winner == "F"
        merged = result.selection.candidates[0]
        cover = cover_pairs(merged)
        assert len(cover) == 6
        assert {e for _, e in cover} == {"a", "b"}
        # the drifting c track stays residual
        assert {e for _, e in result.selection.residuals} == {"c"}

    def test_deterministic_reruns(self, triad_seq):
        d1 = mine(triad_seq).to_dict()
        d2 = mine(triad_seq).to_dict()
        d1.pop("wall_clock_s")
        d2.pop("wall_clock_s")
        assert d1 == d2

    def test_threads_do_not_change_the_outcome(self, mixed_seq):
        with pytest.warns(DeprecationWarning, match="threads"):
            d1 = mine(mixed_seq, MiningConfig(threads=1)).to_dict()
        with pytest.warns(DeprecationWarning, match="threads"):
            d2 = mine(mixed_seq, MiningConfig(threads=3)).to_dict()
        d1.pop("wall_clock_s")
        d2.pop("wall_clock_s")
        assert d1 == d2

    def test_mining_starts_no_thread(self, mixed_seq, monkeypatch):
        # Stage S's events run one after another in the caller's thread,
        # whatever the deprecated ``threads`` argument asks for.
        def refuse(thread):
            raise AssertionError(f"mining started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        with pytest.warns(DeprecationWarning, match="threads"):
            threaded = mine(mixed_seq, MiningConfig(threads=3)).to_dict()
        serial = mine(mixed_seq, MiningConfig()).to_dict()
        threaded.pop("wall_clock_s")
        serial.pop("wall_clock_s")
        assert threaded == serial

    def test_winner_is_earliest_cheapest_stage(self, triad_seq):
        result = mine(triad_seq)
        expected = "S"
        for name in STAGES:
            if name not in result.stages:
                continue
            if result.stages[name].total_bits < result.stages[expected].total_bits:
                expected = name
        assert result.winner == expected
        assert result.selection.total_bits == result.stages[result.winner].total_bits

    def test_selection_never_worse_than_any_single_candidate(self, dozen_a_seq):
        result = mine(dozen_a_seq)
        stats = own_stats(dozen_a_seq)
        pairs = set(dozen_a_seq.pairs)
        for c in result.pool:
            alt = single_candidate_bits(c, pairs, stats)
            assert result.selection.total_bits <= alt + 1e-6

    @pytest.mark.parametrize("log", ["dozen_a", "triad", "mixed", "planted"])
    def test_single_stage_picks_the_cheapest_candidate(self, log, request):
        if log == "planted":
            spec = PlantSpec(
                basis="a d=2 b d=1 c",
                outer_length=(4, 6),
                n_patterns=2,
                additive_density=0.2,
                shift_level=1,
                shift_density=0.2,
                seed=7,
            )
            seq = generate(spec).perturbed
        else:
            seq = request.getfixturevalue(f"{log}_seq")
        result = mine(seq)
        stats = own_stats(seq)
        pairs = set(seq.pairs)
        bits = {c.notation: single_candidate_bits(c, pairs, stats) for c in result.pool}
        cheapest = min(bits.values())
        tied = sorted(nt for nt, b in bits.items() if b <= cheapest + 1e-9)
        (chosen,) = result.stages["single"].candidates
        assert chosen.notation == tied[0]

    def test_totals_do_not_depend_on_the_hash_seed(self):
        # Set iteration order follows the per-process string hash seed;
        # no total may depend on it.  Candidates are told apart by their
        # patterns, whose hashes follow the seed too, so on a log whose
        # candidates tie often nothing mined may depend on it: there the
        # whole result and the pool's notations and costs are compared.
        # Three blocks of four labels' perfect tracks, a and b at the same
        # ticks and c and d two ticks later: many candidates share
        # (efficiency, cost), and merges in either label order tie on the
        # whole rank, so equal starts order them.
        ties = [
            (start + o + 6 * i, e)
            for start in (0, 100, 200)
            for o, e in ((0, "a"), (0, "b"), (2, "c"), (2, "d"))
            for i in range(8)
        ]
        ranks = [c.rank for c in mine(EventSequence.from_pairs(ties)).pool]
        assert len(ranks) - len({rank[:2] for rank in ranks}) > 50
        assert len(ranks) > len(set(ranks))
        script = (
            "import json, random\n"
            "from cadence import EventSequence, collection_cost, mine\n"
            "rng = random.Random(0)\n"
            "seq = EventSequence.from_pairs(\n"
            "    [(rng.randint(0, 5000), rng.choice('abcdefg')) for _ in range(400)]\n"
            ")\n"
            "print(repr(collection_cost([], seq).total_bits))\n"
            "print(repr(mine(seq).selection.total_bits))\n"
            f"result = mine(EventSequence.from_pairs({ties!r}))\n"
            "out = result.to_dict()\n"
            "del out['wall_clock_s']\n"
            "print(json.dumps(out, sort_keys=True))\n"
            "print([(c.notation, repr(c.cost)) for c in result.pool])\n"
        )
        src = str(Path(cadence.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs

    def test_outputs_match_the_pinned_digest(self, this_digest):
        # Mined outputs are bit-identical from change to change; one that
        # moves them on purpose updates this pin and says so in CHANGES.md.
        assert this_digest == "f24d24914aa6225d14724c1457882876394b4ee29c97dff987d03c8b7e59c826"

    @pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
    def test_totals_do_not_depend_on_the_python_version(self, python, this_digest):
        # sum() compensates float rounding from Python 3.12 on; the
        # package adds bits one way (codec.add_bits), so every version
        # mines and totals alike.
        if shutil.which(python) is None:
            pytest.skip(f"{python} is not on PATH")
        # a pyenv shim runs the version PYENV_VERSION names; anything else
        # ignores it
        env = dict(os.environ, PYENV_VERSION=python.removeprefix("python"))
        done = subprocess.run(
            [python, str(VERSION_DIGEST)], env=env, capture_output=True, text=True, timeout=120
        )
        if done.returncode == 127:  # a launcher that finds no such interpreter
            pytest.skip(f"{python} is not installed: {done.stderr.strip()}")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == this_digest

    def test_cycles_only_skips_combination_stages(self, triad_seq):
        result = mine(triad_seq, MiningConfig(max_rounds=0))
        assert list(result.stages) == ["S", "single"]
        assert result.winner in ("S", "single")

    def test_residuals_in_time_then_label_order(self):
        # b is seen first, so the log orders (5, b) before (5, a); the
        # residuals are in (t, label) order all the same, with a
        # selection and without one.
        noise = [(t, e) for t in (5, 17, 33) for e in "ba"]
        seq = EventSequence.from_pairs([(10 * i, "b") for i in range(8)] + noise)
        assert list(seq.pairs) != sorted(seq.pairs)
        result = mine(seq)
        assert result.selection.candidates
        nothing = greedy_cover([], numbered(seq))
        for selection in [*result.stages.values(), nothing]:
            covered = set().union(*map(cover_pairs, selection.candidates))
            assert selection.residuals == tuple(sorted(set(seq.pairs) - covered))
        assert result.selection.residuals[:2] == ((5, "a"), (5, "b"))

    def test_no_pooled_candidate_lists_an_occurrence_twice(self):
        # Stage-S cycles of this log share occurrences; a merge or nesting
        # of two that share one would list it twice, and is never pooled.
        seq = shaped_log("stream", 0)
        initial = extract_cycles(numbered(seq))
        assert any(a.bits & b.bits for a in initial for b in initial if a is not b)
        result = mine(seq)
        assert {"vertical", "horizontal"} & {c.provenance for c in result.pool}
        assert all(lists_once(c) for c in result.pool)

    def test_every_stage_beats_or_matches_the_baseline(self, dozen_a_seq):
        result = mine(dozen_a_seq)
        assert set(result.stages) == {"S", "F", "single"}
        for selection in result.stages.values():
            assert selection.report.percent_length <= 100.0 + 1e-9

    @pytest.mark.parametrize(
        "config, stages",
        [(MiningConfig(), ["S", "F", "single"]), (MiningConfig(max_rounds=0), ["S", "single"])],
    )
    def test_selection_runs_one_greedy_cover_per_stage(self, triad_seq, monkeypatch, config, stages):
        # S covers the cycles and F the final pool; no other cover runs.
        pools = []
        cover = miner.greedy_cover

        def counting(pool, numbering):
            pools.append([c.notation for c in pool])
            return cover(pool, numbering)

        monkeypatch.setattr(miner, "greedy_cover", counting)
        result = mine(triad_seq, config)
        assert list(result.stages) == stages
        assert len(pools) == len(stages) - 1
        assert sorted(pools[-1]) == sorted(c.notation for c in result.pool)

    @pytest.mark.parametrize(
        "shape, seed",
        [("heartbeats", 3), ("stream", 0), ("stream", 3), ("braids", 6), ("planted", 2)],
    )
    def test_winner_is_picked_by_the_report_totals(self, shape, seed):
        # mine() reads each stage's total_bits, added from its candidates'
        # costs without pricing a report; every such total is the stage
        # report's total_bits, bit for bit, and the winner holds the least.
        seq = planted_log(seed) if shape == "planted" else shaped_log(shape, seed)
        result = mine(seq)
        for selection in result.stages.values():
            assert "total_bits" in vars(selection) and "report" not in vars(selection)
            assert selection.total_bits == selection.report.total_bits
        totals = [selection.total_bits for selection in result.stages.values()]
        assert result.selection.total_bits == min(totals)
        assert len(result.stages) == 3 and result.selection.candidates

    def test_residuals_are_derived_only_when_read(self):
        result = mine(shaped_log("stream", 3))
        assert all("residuals" not in vars(s) for s in result.stages.values())
        selection = result.selection
        assert selection.residuals is selection.residuals
        assert "residuals" in vars(selection)

    def test_reports_are_priced_only_when_read(self, monkeypatch):
        calls = []
        price = codec.collection_cost

        def counting(*args):
            calls.append(args)
            return price(*args)

        monkeypatch.setattr(codec, "collection_cost", counting)
        result = mine(shaped_log("stream", 3))
        assert calls == []
        report = result.selection.report
        assert len(calls) == 1 and result.selection.report is report
        assert report is result.stages[result.winner].report
        result.to_dict()
        assert len(calls) == len(result.stages)


class TestMemory:
    def test_serving_many_logs_keeps_memory_flat(self):
        # Pricing keeps no state between logs: what a log's trees worked
        # out goes with them.
        sizes = []
        tracemalloc.start()
        try:
            for seed in range(8):
                spec = PlantSpec(
                    basis="a d=3 b",
                    outer_length=(4, 6),
                    n_patterns=2,
                    shift_level=1,
                    shift_density=0.2,
                    additive_density=0.1,
                    seed=seed,
                )
                mine(generate(spec).perturbed)
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert sizes[7] - sizes[1] < 64 * 1024, sizes

    def test_pool_blocks_hold_only_count_and_placement(self):
        # A block works out its occurrence count and its placement, both
        # of a size set by its children, and keeps no record with one
        # entry per occurrence.
        result = mine(braid_log(0))
        held = set()
        for c in result.pool:
            held |= block_records(c.pattern.tree)
        assert held == {"count", "placement"}, held

    def test_a_result_holds_little_per_pool_candidate(self):
        # A candidate keeps what growth read of it as long as it lives, so
        # a result holds that too: 1,552 to 1,564 bytes per pool candidate
        # on this braid log under CPython 3.11, alone or after the rest of
        # this module (1,781 while each built tree kept a compiled record
        # of one entry per occurrence), bounded here at 1,720.  Measured
        # in a bare interpreter, it fell from 1,297 to 1,126 bytes when
        # candidates stopped keeping their tree's notation as a key.
        # Dropping the result frees every candidate and its reads.
        seq = braid_log(0)
        result = mine(seq)
        assert any("slack" in vars(c) for c in result.pool)
        refs = [weakref.ref(c) for c in result.pool]
        del result
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = mine(seq)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
            pool = len(result.pool)
            del result
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / pool < 1720, (held, pool)
        assert left < 4096, left

    def test_mining_leaves_no_reference_cycles(self):
        # Reference counting alone frees what one call allocates: no
        # closure or record holds itself, or a growth's graph, in a cycle.
        seq = braid_log(0)
        gc.collect()
        gc.disable()
        try:
            mine(seq)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_dropped_results_release_their_trees(self):
        # No module-wide cache keeps a tree once its result is gone, its
        # placement worked out or not.  Nor its occurrence numbering,
        # which only its candidates hold.
        result = mine(EventSequence.from_pairs(heartbeat_log(random.Random(5), 4, 200)))
        tree = max(result.pool, key=lambda c: c.bits.bit_count()).pattern.tree
        tree.placement
        assert block_records(tree) == {"count", "placement"}
        assert {id(c.numbering) for c in result.pool} == {id(result.pool[0].numbering)}
        refs = [weakref.ref(tree), weakref.ref(result.pool[0].numbering)]
        del result, tree
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
