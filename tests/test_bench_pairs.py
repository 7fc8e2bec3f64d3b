"""The pairs runner's summaries (``bench_pairs.py``) on fixed numbers."""

from __future__ import annotations

import pytest

from bench_pairs import summarize, summarize_layer

PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]


def test_a_clear_gain_holds():
    s = summarize(PARENT, [v + 10 for v in PARENT], "higher")
    assert (s.wins, s.pairs, s.gain) == (10, 10, True)
    assert s.parent == pytest.approx((97.75, 100.0, 102.25))
    assert s.change == pytest.approx((107.75, 110.0, 112.25))


def test_lower_is_better_counts_falls():
    s = summarize(PARENT, [v - 10 for v in PARENT], "lower")
    assert (s.wins, s.gain) == (10, True)
    assert summarize(PARENT, [v - 10 for v in PARENT], "higher").wins == 0


def test_nine_of_ten_is_enough_and_a_tie_wins_nothing():
    change = [v + 10 for v in PARENT]
    change[3] = PARENT[3]
    s = summarize(PARENT, change, "higher")
    assert (s.wins, s.gain) == (9, True)
    change[4] = PARENT[4] - 1
    s = summarize(PARENT, change, "higher")
    assert (s.wins, s.gain) == (8, False)


def test_a_shift_inside_the_parents_spread_is_no_gain():
    # The parent's quartiles lie 4.5 apart: every pair won by 4 is no gain.
    s = summarize(PARENT, [v + 4 for v in PARENT], "higher")
    assert (s.wins, s.gain) == (10, False)
    assert summarize(PARENT, [v + 4.6 for v in PARENT], "higher").gain


@pytest.mark.parametrize(
    "parent, change, better",
    [([1.0, 2.0], [1.0], "higher"), ([1.0], [2.0], "higher"), ([1.0, 2.0], [3.0, 4.0], "up")],
)
def test_bad_input_is_refused(parent, change, better):
    with pytest.raises(ValueError):
        summarize(parent, change, better)


def test_a_layer_reads_each_sides_median():
    s = summarize_layer("codec.collection_cost.self_s", [0.3, 0.1, 0.2], [0.25, 0.05, 0.15, 0.35])
    assert (s.parent, s.change, s.same) == (0.2, 0.2, None)


def test_a_count_says_whether_every_run_reads_one_value():
    assert summarize_layer("miner.greedy_cover.calls", [7, 7, 7], [7, 7, 7]).same is True
    assert summarize_layer("codec.pattern_cost.calls", [280, 280, 280], [0, 0, 0]).same is False
    # a count that differs between two runs of one side differs too
    assert summarize_layer("pattern.fit_cycle.calls", [5, 6], [5, 5]).same is False
    # only a name ending in .calls is a count
    assert summarize_layer("pattern.fit_cycle.calls_s", [5, 6], [5, 5]).same is None


def test_a_layer_needs_a_run_per_side():
    with pytest.raises(ValueError):
        summarize_layer("miner.mine.s", [], [1.0])


def test_a_median_worse_by_more_than_the_bound_regressed():
    # The bound is a fraction of the parent's median, 100 here.
    assert summarize(PARENT, [v - 26 for v in PARENT], "higher", 0.25).verdict == "regressed"
    assert summarize(PARENT, [v + 26 for v in PARENT], "lower", 0.25).verdict == "regressed"
    assert summarize(PARENT, [v - 24 for v in PARENT], "higher", 0.25).verdict == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # The parent's quartiles lie 4.5 apart, more than 0.04 of its median.
    assert summarize(PARENT, PARENT, "higher", 0.04).verdict == "unresolved"
    assert summarize(PARENT, PARENT, "higher", 0.05).verdict == "within bound"
    # unless every change run beats every parent run
    assert summarize(PARENT, [v + 9 for v in PARENT], "higher", 0.04).verdict == "within bound"
    assert summarize(PARENT, [v + 7 for v in PARENT], "higher", 0.04).verdict == "unresolved"
    assert summarize(PARENT, [v - 9 for v in PARENT], "lower", 0.04).verdict == "within bound"


def test_a_worse_median_within_the_bound_passes_and_a_regression_wins_over_spread():
    s = summarize(PARENT, [v - 3 for v in PARENT], "higher", 0.25)
    assert (s.gain, s.verdict) == (False, "within bound")
    assert summarize(PARENT, [v - 5 for v in PARENT], "higher", 0.04).verdict == "regressed"


def test_identical_runs_are_within_any_bound():
    same = [48.37] * 10
    assert summarize(same, same, "lower", 0.0).verdict == "within bound"
    assert summarize(same, [48.38] * 10, "lower", 0.15).verdict == "within bound"
    assert summarize(same, [48.38] * 10, "lower").verdict == "regressed"
