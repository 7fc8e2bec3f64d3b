"""The quality comparison's summaries (``quality_pairs.py``) on fixed
numbers."""

from __future__ import annotations

import pytest

from quality_pairs import Move, Side, describe, moves, seeds, summarize, verdicts


def record(seed, log, percent_length, planted, recovery, winner="F"):
    return {
        "seed": seed,
        "log": log,
        "percent_length": percent_length,
        "planted": planted,
        "recovery": recovery,
        "winner": winner,
    }


# Three seeds of two logs each: seed means 21, 30 and 45 %L, 18, 24 and
# 40 planted %L, and 0.75, 0.5 and 1.0 recovery over each seed's plants.
PARENT = [
    record(501, 0, 20.0, 17.0, [1.0, 0.5]),
    record(501, 1, 22.0, 19.0, [1.0, 0.5], "S"),
    record(502, 0, 30.0, 25.0, [0.5]),
    record(502, 1, 30.0, 23.0, [0.5, 0.5, 0.5]),
    record(503, 0, 40.0, 35.0, [1.0]),
    record(503, 1, 50.0, 45.0, [], "single"),
]


def test_a_side_reads_medians_over_seeds_and_counts_over_logs():
    side = summarize(PARENT)
    assert side == Side(
        percent_length=30.0,
        planted=24.0,
        recovery=0.75,
        exact=3,
        plants=9,
        winners={"F": 4, "S": 1, "single": 1},
        logs=6,
    )


def test_one_seed_is_its_own_median():
    side = summarize(PARENT[:2])
    assert (side.percent_length, side.planted, side.recovery) == (21.0, 18.0, 0.75)
    assert (side.exact, side.plants) == (2, 4)


def test_a_side_prints_its_planted_median_beside_its_own():
    assert describe("parent", summarize(PARENT)) == (
        "  parent: %L median 30.000, planted %L median 24.000, recovery median 0.750, "
        "exact plants 3 of 9, winners F 4, S 1, single 1"
    )


def test_the_same_records_move_nothing_and_hold():
    assert moves(PARENT, PARENT) == []
    assert verdicts(summarize(PARENT), summarize(PARENT), 0.25) == (False, True)


def test_moves_come_largest_first_and_name_recovery_moves_too():
    change = [dict(r) for r in PARENT]
    change[0]["percent_length"] = 19.0  # -1
    change[3]["percent_length"] = 33.0  # +3
    change[4]["recovery"] = [0.5]  # %L unchanged
    assert moves(PARENT, change) == [
        Move(502, 1, (30.0, 33.0), (0.5, 0.5)),
        Move(501, 0, (20.0, 19.0), (0.75, 0.75)),
        Move(503, 0, (40.0, 40.0), (1.0, 0.5)),
    ]


def test_a_fall_of_the_median_is_measured_in_points():
    change = [dict(r, percent_length=r["percent_length"] - 0.3) for r in PARENT]
    assert summarize(change).percent_length == pytest.approx(29.7)
    assert verdicts(summarize(PARENT), summarize(change), 0.25) == (True, True)
    assert verdicts(summarize(PARENT), summarize(change), 0.5) == (False, True)


def test_a_rise_or_a_recovery_loss_does_not_hold():
    worse = [dict(r, percent_length=r["percent_length"] + 0.01) for r in PARENT]
    assert verdicts(summarize(PARENT), summarize(worse), 0.25) == (False, False)
    lost = [dict(r, recovery=[s * 0.9 for s in r["recovery"]]) for r in PARENT]
    assert verdicts(summarize(PARENT), summarize(lost), 0.25) == (False, False)


def test_seeds_take_ranges():
    assert seeds(["501-503", "507"]) == [501, 502, 503, 507]


def test_bad_input_is_refused():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        moves(PARENT, PARENT[:-1])
