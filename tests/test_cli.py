"""End-to-end tests for the command-line interface.

Each test drives ``cadence.cli.main`` with an argv list and asserts on
the exit code, captured output, and any JSON report written by
``--out``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cadence
from cadence.cli import build_parser, main
from cadence.synth import PlantSpec, generate
from conftest import MIXED_PAIRS, TRIAD_PAIRS

BRAID_NOTATION = "[r=3 p=13](b [d=3] a [d=1] c) @ tau=2 E=[0,1,-2,2,2,0,1,0]"


def write_log(path, pairs):
    path.write_text("".join(f"{t}\t{e}\n" for t, e in pairs), encoding="utf-8")
    return str(path)


@pytest.fixture
def mixed_log(tmp_path):
    return write_log(tmp_path / "mixed.tsv", MIXED_PAIRS)


@pytest.fixture
def triad_log(tmp_path):
    return write_log(tmp_path / "triad.tsv", TRIAD_PAIRS)


class TestStats:
    def test_summary_lines(self, mixed_log, capsys):
        assert main(["stats", mixed_log]) == 0
        out = capsys.readouterr().out
        assert "occurrences:   13" in out
        assert "time range:    [2, 54] (span 52)" in out
        assert "events:        3" in out
        assert "median count:  4" in out
        assert "max count:     7" in out

    def test_counts_are_listed_per_event(self, mixed_log, capsys):
        main(["stats", mixed_log])
        out = capsys.readouterr().out
        lines = [line.split() for line in out.splitlines() if line.startswith("  ")]
        assert lines == [["a", "7"], ["b", "2"], ["c", "4"]]

    def test_json_report(self, mixed_log, tmp_path, capsys):
        out_file = tmp_path / "stats.json"
        assert main(["stats", mixed_log, "--out", str(out_file)]) == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert payload["length"] == 13
        assert payload["span"] == 52
        assert payload["counts"] == {"a": 7, "b": 2, "c": 4}
        assert payload["source"] == mixed_log

    def test_even_alphabet_median_averages_middle_pair(self, tmp_path, capsys):
        log = write_log(tmp_path / "even.tsv", [(1, "a"), (2, "a"), (3, "a"), (4, "b")])
        out_file = tmp_path / "stats.json"
        assert main(["stats", log, "--out", str(out_file)]) == 0
        assert "median count:  2.0" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        summary = [payload[key] for key in ("alphabet_size", "median_count", "max_count")]
        assert summary == [2, 2.0, 3]


class TestScore:
    def test_braid_collection_in_an_explicit_window(
        self, triad_log, tmp_path, capsys
    ):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(
            "# one braid covering all nine occurrences\n"
            f"{BRAID_NOTATION}\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "score",
                triad_log,
                "--patterns",
                str(patterns),
                "--t-start",
                "0",
                "--t-end",
                "34",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "53.538" in out
        assert "12.680" in out
        assert "residual: 0 occurrences" in out
        assert "(88.6% of baseline 60.428)" in out

    def test_json_report_carries_the_full_breakdown(
        self, triad_log, tmp_path, capsys
    ):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(BRAID_NOTATION + "\n", encoding="utf-8")
        out_file = tmp_path / "score.json"
        rc = main(
            [
                "score",
                triad_log,
                "--patterns",
                str(patterns),
                "--t-start",
                "0",
                "--t-end",
                "34",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        report = payload["report"]
        assert report["total_bits"] == pytest.approx(53.538, abs=0.005)
        assert report["baseline_bits"] == pytest.approx(60.430, abs=0.005)
        assert report["residual_count"] == 0
        assert report["n_patterns"] == 1
        entry = report["patterns"][0]
        assert entry["notation"] == BRAID_NOTATION
        assert entry["cost"]["D"] == pytest.approx(7.644, abs=0.005)

    def test_files_with_a_byte_order_mark(self, tmp_path, capsys):
        log = tmp_path / "bom.tsv"
        log.write_text("".join(f"{t}\t{e}\n" for t, e in TRIAD_PAIRS), encoding="utf-8-sig")
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(BRAID_NOTATION + "\n", encoding="utf-8-sig")
        assert log.read_bytes().startswith(b"\xef\xbb\xbf")
        window = ["--t-start", "0", "--t-end", "34"]
        assert main(["score", str(log), "--patterns", str(patterns), *window]) == 0
        out = capsys.readouterr().out
        assert "residual: 0 occurrences" in out
        assert "(88.6% of baseline 60.428)" in out

    def test_occurrence_listed_twice_is_a_domain_error(self, tmp_path, capsys):
        log = write_log(tmp_path / "four.tsv", [(t, "a") for t in (0, 10, 20, 30)])
        notation = "[r=2 p=10]([r=2 p=10](a)) @ tau=0 E=[0,-10,0]"
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(notation + "\n", encoding="utf-8")
        rc = main(["score", log, "--patterns", str(patterns)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            f"cadence: pattern {notation} lists occurrence (0, 'a') more than once\n"
        )

    def test_unscorable_window_is_a_domain_error(
        self, triad_log, tmp_path, capsys
    ):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(BRAID_NOTATION + "\n", encoding="utf-8")
        rc = main(
            [
                "score",
                triad_log,
                "--patterns",
                str(patterns),
                "--t-start",
                "0",
                "--t-end",
                "20",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cadence:")


class TestInputEncoding:
    # Every input file is read as UTF-8 with an optional byte-order mark;
    # a byte that is not UTF-8 is a domain error naming the file and the
    # byte's offset in it.
    def test_spec_with_a_byte_order_mark(self, tmp_path, capsys):
        spec = tmp_path / "plant.cfg"
        spec.write_text(TestSynthEval.SPEC_TEXT, encoding="utf-8-sig")
        assert spec.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["synth-eval", "--spec", str(spec), "--trials", "1"]) == 0
        assert "exact recovery: 1/1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["stats", "mine"])
    def test_log_that_is_not_utf8(self, command, tmp_path, capsys):
        # The bad byte lies past the first chunk a text stream decodes.
        head = "".join(f"{t}\ta\n" for t in range(2000)).encode()
        log = tmp_path / "latin1.tsv"
        log.write_bytes(head + b"2000\tcaf\xe9\n")
        assert len(head) > 8192
        assert main([command, str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cadence: {log}: byte {len(head) + 8}: not UTF-8 (invalid continuation byte)\n"
        )

    def test_pattern_file_that_is_not_utf8(self, triad_log, tmp_path, capsys):
        patterns = tmp_path / "patterns.txt"
        patterns.write_bytes(BRAID_NOTATION.encode() + b"\n# \xff\n")
        rc = main(["score", triad_log, "--patterns", str(patterns)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"cadence: {patterns}: byte {len(BRAID_NOTATION) + 3}: "
            "not UTF-8 (invalid start byte)\n"
        )

    def test_spec_that_is_not_utf8(self, tmp_path, capsys):
        spec = tmp_path / "plant.cfg"
        spec.write_bytes(b"\xef\xbb\xbfbasis=a\n\xff\n")
        rc = main(["synth-eval", "--spec", str(spec), "--trials", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"cadence: {spec}: byte 11: not UTF-8 (invalid start byte)\n"


class TestOneOccurrenceLog:
    # A one-line log has a baseline of 0 bits, which reads as 100%.
    def test_mine(self, tmp_path, capsys):
        log = write_log(tmp_path / "one.tsv", [(5, "a")])
        assert main(["mine", log]) == 0
        assert "residual: 1 occurrences" in capsys.readouterr().out

    def test_score(self, tmp_path, capsys):
        log = write_log(tmp_path / "one.tsv", [(5, "a")])
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("# no patterns\n", encoding="utf-8")
        out_file = tmp_path / "score.json"
        rc = main(["score", log, "--patterns", str(patterns), "--out", str(out_file)])
        assert rc == 0
        capsys.readouterr()
        report = json.loads(out_file.read_text())["report"]
        assert report["baseline_bits"] == 0.0
        assert report["percent_length"] == 100.0


def stage_rows(out: str) -> list[str]:
    """The stage names of ``mine``'s stage table, in printed order: the
    rows after its ``stage`` header, up to the first blank line."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("stage ")) + 1
    rows = []
    for line in lines[start:]:
        if not line:
            break
        rows.append(line.split()[0])
    return rows


class TestMine:
    def test_triad_log_prints_stages_and_winner(self, triad_log, capsys):
        assert main(["mine", triad_log]) == 0
        out = capsys.readouterr().out
        assert f"{triad_log}: 9 occurrences, 3 events, span 29" in out
        assert stage_rows(out) == ["S", "F", "single"]
        assert "winner: F" in out
        assert "56.384" in out
        assert "residual: 3 occurrences" in out

    def test_cycles_only_stops_after_extraction(self, triad_log, capsys):
        assert main(["mine", triad_log, "--max-rounds", "0"]) == 0
        out = capsys.readouterr().out
        assert stage_rows(out) == ["S", "single"]
        assert "winner:" in out

    def test_json_report_is_deterministic(self, triad_log, tmp_path, capsys):
        payloads = []
        for name in ("one.json", "two.json"):
            out_file = tmp_path / name
            assert main(["mine", triad_log, "--out", str(out_file)]) == 0
            payload = json.loads(out_file.read_text())
            payload.pop("wall_clock_s")
            payload["result"].pop("wall_clock_s")
            payloads.append(payload)
        capsys.readouterr()
        assert payloads[0] == payloads[1]

    def test_granularity_rescales_time(self, tmp_path, capsys):
        scaled = write_log(
            tmp_path / "scaled.tsv", [(t * 10, e) for t, e in MIXED_PAIRS]
        )
        assert main(["mine", scaled, "--granularity", "10"]) == 0
        out = capsys.readouterr().out
        assert "span 52" in out

    def test_succession_replaces_time_by_rank(self, mixed_log, capsys):
        assert main(["mine", mixed_log, "--succession"]) == 0
        out = capsys.readouterr().out
        assert "span 12" in out

    def test_braid_log_re_scores_exactly(self, tmp_path, capsys):
        # mine re-prices every selected notation and requires the same
        # total, bit for bit, or it fails with an internal error.
        spec = PlantSpec(
            basis="a d=2 b d=1 c",
            depth=2,
            outer_length=(3, 5),
            n_patterns=2,
            shift_level=1,
            shift_density=0.2,
            additive_density=0.1,
            seed=11,
        )
        log = write_log(tmp_path / "braid.tsv", generate(spec).perturbed.pairs)
        assert main(["mine", log]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "winner:" in captured.out

    @pytest.mark.parametrize("label", ["disk.full", "x-1", "a:b", "é"])
    def test_labels_round_trip_through_the_notation(self, label, tmp_path, capsys):
        # mine re-parses and re-prices every selected notation, so a label
        # the notation cannot carry would fail here.
        pairs = [(t, label) for t in range(0, 100, 10)] + [(3, "z"), (47, "z")]
        log = write_log(tmp_path / "labels.tsv", sorted(pairs))
        assert main(["mine", log]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"({label})" in captured.out


class TestSynthEval:
    SPEC_TEXT = (
        "basis=a\n"
        "depth=1\n"
        "inner_period=7,7\n"
        "outer_length=8,8\n"
        "seed=3\n"
        "n_patterns=1\n"
    )

    # Two trials whose diffs differ (14.35 and 29.70 bits): the median of
    # two values is their mean, as ``cadence stats`` takes it.
    UNEVEN_SPEC_TEXT = (
        "basis=a d=2 b d=1 c\n"
        "depth=2\n"
        "outer_length=3,4\n"
        "seed=3\n"
        "n_patterns=1\n"
        "shift_level=1\n"
        "shift_density=0.2\n"
        "additive_density=0.1\n"
    )

    def test_two_trials_print_a_summary(self, tmp_path, capsys):
        spec = tmp_path / "plant.cfg"
        for text, uneven in ((self.SPEC_TEXT, False), (self.UNEVEN_SPEC_TEXT, True)):
            spec.write_text(text, encoding="utf-8")
            rc = main(["synth-eval", "--spec", str(spec), "--trials", "2"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "exact recovery:" in out
            (line,) = [row for row in out.splitlines() if row.startswith("diff: mean")]
            words = line.replace(",", "").split()
            figures = dict(zip(words[1::2], words[2::2]))
            assert figures["median"] == figures["mean"]
            assert (float(figures["min"]) < float(figures["max"])) == uneven

    def test_json_report_lists_every_trial(self, tmp_path, capsys):
        spec = tmp_path / "plant.cfg"
        spec.write_text(self.SPEC_TEXT, encoding="utf-8")
        out_file = tmp_path / "eval.json"
        rc = main(
            [
                "synth-eval",
                "--spec",
                str(spec),
                "--trials",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert len(payload["trials"]) == 2
        assert payload["trials"][0]["seed"] == 3
        assert payload["trials"][1]["seed"] == 4
        assert 0.0 <= payload["exact_recovery_rate"] <= 1.0

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fewer_than_one_trial_is_a_domain_error(self, tmp_path, capsys, trials):
        spec = tmp_path / "plant.cfg"
        spec.write_text(self.SPEC_TEXT, encoding="utf-8")
        rc = main(["synth-eval", "--spec", str(spec), "--trials", trials])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"cadence: --trials must be >= 1, got {trials}\n"
        assert captured.out == ""

    def test_bad_spec_is_a_domain_error(self, tmp_path, capsys):
        spec = tmp_path / "plant.cfg"
        spec.write_text("depth=9\n", encoding="utf-8")
        rc = main(["synth-eval", "--spec", str(spec), "--trials", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cadence:")

    @pytest.mark.parametrize(
        "line", ["depth=x", "seed=1.5", "inner_period=5,x", "shift_density=abc"]
    )
    def test_malformed_number_names_its_line_and_key(self, line, tmp_path, capsys):
        spec = tmp_path / "plant.cfg"
        spec.write_text(f"basis=a\n{line}\n", encoding="utf-8")
        rc = main(["synth-eval", "--spec", str(spec), "--trials", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        key = line.split("=")[0]
        assert captured.err.startswith(f"cadence: line 2: {key} ")
        assert "Traceback" not in captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "cadence: error:" in err
        assert "'frobnicate'" in err

    def test_bad_option_value_is_a_usage_error(self, capsys):
        assert main(["mine", "log.txt", "--k", "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cadence mine")
        assert "cadence mine: error:" in err
        assert "--k" in err

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "mine" in out
        assert "score" in out

    def test_missing_file_reports_an_os_error(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nope.tsv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cadence:")

    def test_malformed_log_reports_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("5\ta\nnonsense\n", encoding="utf-8")
        rc = main(["stats", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cadence:" in err
        assert "2" in err

    def test_malformed_pattern_file_is_a_domain_error(
        self, triad_log, tmp_path, capsys
    ):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("[r=0 p=2](a) @ tau=0 E=[]\n", encoding="utf-8")
        rc = main(["score", triad_log, "--patterns", str(patterns)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cadence:")

    @pytest.mark.parametrize(
        "bad",
        [
            "[r=3 p=13](b [d=3] a",
            "[r=2 p=3](a) @ tau=0 E=[]",
            "[r=3 p=2](a) @ tau=0 E=[1,,2]",
        ],
    )
    def test_unparsable_pattern_names_its_line(self, bad, triad_log, tmp_path, capsys):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(f"# braid\n{BRAID_NOTATION}\n{bad}\n", encoding="utf-8")
        rc = main(["score", triad_log, "--patterns", str(patterns)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"cadence: {patterns}: line 3: ")

    @pytest.mark.parametrize("argv", [["--help"], ["stats", "nope.tsv"], ["nonsense"]])
    def test_python_m_cadence_exits_as_main_does(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / a) if a.endswith(".tsv") else a for a in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(cadence.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "cadence", *argv], env=env, capture_output=True
        )
        assert run.returncode == main(argv)
        capsys.readouterr()


class TestParser:
    def test_prog_name(self):
        assert build_parser().prog == "cadence"

    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine", "x.tsv"])
        assert args.k == 3
        assert args.max_rounds == 10
        assert args.granularity == 1

    def test_mine_defaults_are_the_configs(self, capsys):
        # The parser restates no miner setting: its defaults, and the
        # defaults its help prints, are MiningConfig's.
        config = cadence.MiningConfig()
        args = build_parser().parse_args(["mine", "x.tsv"])
        assert (args.k, args.max_rounds) == (config.k, config.max_rounds)
        assert main(["mine", "--help"]) == 0
        usage = " ".join(capsys.readouterr().out.split())
        assert f"width (default {config.k})" in usage
        assert f"cycle extraction (default {config.max_rounds})" in usage
