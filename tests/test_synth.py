"""Tests for synthetic sequence generation and ground-truth evaluation."""

import math

import pytest

from cadence.core import DomainError
from cadence.pattern import corrected_occurrences, occurrence_count
from cadence.synth import (
    PlantSpec,
    evaluate,
    format_plant_spec,
    generate,
    parse_basis,
    parse_plant_spec,
)


def _single_plant(seed=0, **overrides):
    kwargs = dict(
        basis="a",
        depth=1,
        inner_period=(7, 7),
        outer_length=(20, 20),
        shift_density=0.0,
        additive_density=0.0,
        seed=seed,
        n_patterns=1,
    )
    kwargs.update(overrides)
    return PlantSpec(**kwargs)


class TestParseBasis:
    def test_single_label(self):
        assert parse_basis("a") == (("a", 0),)

    def test_two_labels_with_distance(self):
        assert parse_basis("a d=4 b") == (("a", 0), ("b", 4))

    def test_three_labels(self):
        assert parse_basis("a d=1 b d=2 c") == (("a", 0), ("b", 1), ("c", 2))

    def test_surrounding_whitespace_is_ignored(self):
        assert parse_basis("  alarm d=3 reboot  ") == (("alarm", 0), ("reboot", 3))

    @pytest.mark.parametrize(
        "text",
        ["", "d=4 b", "a d= b", "a b", "a d=4", "a, b"],
    )
    def test_malformed_basis_is_rejected(self, text):
        with pytest.raises(DomainError):
            parse_basis(text)


class TestPlantSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"basis": "d=1 a"},
            {"depth": 0},
            {"depth": 4},
            {"inner_period": (0, 5)},
            {"inner_period": (5, 3)},
            {"outer_length": (1, 4)},
            {"outer_period": (10, 2)},
            {"shift_level": -1},
            {"shift_density": 1.5},
            {"additive_density": -0.1},
            {"shift_density": 0.5, "shift_level": 0},
            {"n_patterns": 0},
            {"n_patterns": 51},
        ],
    )
    def test_bad_fields_are_rejected(self, kwargs):
        with pytest.raises(DomainError):
            PlantSpec(**kwargs)

    def test_defaults_are_valid(self):
        spec = PlantSpec()
        assert spec.basis == "a"
        assert spec.n_patterns == 1


class TestPlantSpecText:
    def test_format_then_parse_round_trips(self):
        spec = PlantSpec(
            basis="a d=2 b",
            depth=2,
            inner_period=(5, 9),
            outer_length=(4, 6),
            outer_period=(40, 80),
            shift_level=2,
            shift_density=0.1,
            additive_density=0.05,
            interleaving=True,
            seed=17,
            n_patterns=3,
            overlay=False,
        )
        assert parse_plant_spec(format_plant_spec(spec)) == spec

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# plant config\n\nbasis=a\nseed=5  # fixed\n"
        spec = parse_plant_spec(text)
        assert spec.seed == 5

    @pytest.mark.parametrize(
        "text",
        [
            "basis",
            "inner_period=5",
            "inner_period=5,6,7",
            "interleaving=maybe",
            "window=10",
        ],
    )
    def test_malformed_lines_are_rejected(self, text):
        with pytest.raises(DomainError):
            parse_plant_spec(text)

    @pytest.mark.parametrize(
        "line", ["depth=x", "seed=1.5", "inner_period=5,x", "shift_density=abc"]
    )
    def test_malformed_numbers_name_their_line_and_key(self, line):
        key = line.split("=")[0]
        with pytest.raises(DomainError, match=f"^line 2: {key} "):
            parse_plant_spec(f"basis=a\n{line}\n")

    def test_basis_takes_any_label_the_notation_carries(self):
        assert parse_basis("disk.full d=2 x-1") == (("disk.full", 0), ("x-1", 2))


class TestGenerate:
    def test_clean_plant_is_an_arithmetic_progression(self):
        truth = generate(_single_plant())
        (p,) = truth.patterns
        assert p.tree.r == 20
        assert p.tree.p == 7
        assert p.corrections == (0,) * 19
        expected = [(p.tau + 7 * i, "a") for i in range(20)]
        assert list(truth.clean.pairs) == expected
        assert truth.perturbed.pairs == truth.clean.pairs

    def test_clean_sequence_is_the_union_of_planted_covers(self):
        truth = generate(_single_plant(n_patterns=3, seed=4))
        union = set()
        for p in truth.patterns:
            union.update(corrected_occurrences(p))
        assert set(truth.clean.pairs) == union

    def test_patterns_are_sorted_by_start(self):
        truth = generate(_single_plant(n_patterns=3, seed=4))
        starts = [p.tau for p in truth.patterns]
        assert starts == sorted(starts)
        assert len(truth.patterns) == 3

    def test_no_overlay_separates_the_plants_in_time(self):
        truth = generate(_single_plant(n_patterns=3, seed=4, overlay=False))
        ends = []
        for p in truth.patterns:
            cover = corrected_occurrences(p)
            if ends:
                assert min(t for t, _ in cover) > ends[-1]
            ends.append(max(t for t, _ in cover))

    def test_additive_noise_adds_the_exact_count(self):
        spec = _single_plant(additive_density=0.1, seed=2)
        truth = generate(spec)
        assert len(truth.clean.pairs) == 20
        expected_extra = math.ceil(0.1 * 20)
        assert len(truth.perturbed.pairs) == 20 + expected_extra
        extras = set(truth.perturbed.pairs) - set(truth.clean.pairs)
        assert len(extras) == expected_extra
        assert all(e == "a" for _, e in extras)
        lo, hi = truth.clean.t_start, truth.clean.t_end
        assert all(lo <= t <= hi for t, _ in extras)

    def test_shift_noise_moves_the_exact_count(self):
        spec = _single_plant(shift_level=2, shift_density=0.25, seed=3)
        truth = generate(spec)
        (p,) = truth.patterns
        perfect = [p.tau + 7 * i for i in range(20)]
        actual = [t for t, _ in corrected_occurrences(p)]
        moved = sum(1 for a, b in zip(perfect, actual) if a != b)
        assert moved == math.ceil(0.25 * 19)
        assert all(abs(a - b) <= 2 for a, b in zip(perfect, actual))
        assert actual[0] == p.tau

    def test_same_seed_reproduces_the_same_truth(self):
        spec = _single_plant(
            n_patterns=4, additive_density=0.2, shift_level=1, shift_density=0.1, seed=9
        )
        first = generate(spec)
        second = generate(spec)
        assert first.patterns == second.patterns
        assert first.clean.pairs == second.clean.pairs
        assert first.perturbed.pairs == second.perturbed.pairs

    def test_different_seeds_give_different_plants(self):
        a = generate(_single_plant(seed=0))
        b = generate(_single_plant(seed=1))
        assert a.clean.pairs != b.clean.pairs

    def test_multi_event_basis_emits_every_label(self):
        spec = PlantSpec(
            basis="a d=1 b d=2 c",
            depth=2,
            inner_period=(5, 9),
            outer_length=(3, 5),
            outer_period=(40, 80),
            seed=6,
        )
        truth = generate(spec)
        assert set(e for _, e in truth.clean.pairs) == {"a", "b", "c"}

    def test_non_interleaved_plants_keep_event_order(self):
        spec = PlantSpec(
            basis="a d=1 b d=2 c",
            depth=2,
            inner_period=(3, 4),
            outer_length=(3, 5),
            outer_period=(10, 20),
            interleaving=False,
            seed=8,
            n_patterns=2,
        )
        truth = generate(spec)
        for p in truth.patterns:
            per_event: dict = {}
            for t, e in corrected_occurrences(p):
                per_event.setdefault(e, []).append(t)
            for times in per_event.values():
                assert all(x < y for x, y in zip(times, times[1:]))

    def test_spurious_occurrences_never_duplicate_existing_pairs(self):
        spec = _single_plant(additive_density=0.5, seed=11)
        truth = generate(spec)
        assert len(set(truth.perturbed.pairs)) == len(truth.perturbed.pairs)


class TestEvaluate:
    def test_perfect_recovery(self):
        truth = generate(_single_plant(n_patterns=2, seed=5))
        report = evaluate(list(truth.patterns), truth)
        assert report.exact_recovery is True
        assert report.diff == pytest.approx(0.0)
        assert report.percent_length_found == pytest.approx(
            report.percent_length_planted
        )

    def test_missing_pattern_is_not_exact_and_costs_more(self):
        truth = generate(_single_plant(n_patterns=2, seed=5))
        report = evaluate([truth.patterns[0]], truth)
        assert report.exact_recovery is False
        assert report.percent_length_found > report.percent_length_planted
        assert report.diff == pytest.approx(
            report.percent_length_found - report.percent_length_planted
        )

    def test_planted_description_beats_the_baseline(self):
        truth = generate(_single_plant(seed=5))
        report = evaluate(list(truth.patterns), truth)
        assert report.percent_length_planted < 100.0

    def test_report_to_dict_round_trips_the_fields(self):
        truth = generate(_single_plant(seed=5))
        report = evaluate(list(truth.patterns), truth)
        d = report.to_dict()
        assert d["exact_recovery"] is True
        assert d["diff"] == report.diff
        assert set(d) == {
            "exact_recovery",
            "percent_length_found",
            "percent_length_planted",
            "diff",
        }


class TestDisplacementBudget:
    def test_displacement_preserves_occurrence_count(self):
        spec = _single_plant(shift_level=2, shift_density=0.3, seed=13)
        truth = generate(spec)
        (p,) = truth.patterns
        assert occurrence_count(p.tree) == 20
        assert len(truth.clean.pairs) == 20
