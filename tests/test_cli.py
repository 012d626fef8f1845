"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import EXPERIMENTS
from repro.scenarios import build


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_accepts_known_experiments(self):
        args = build_parser().parse_args(["run", "fig7", "--scale", "test"])
        assert args.experiment == "fig7"
        assert args.scale == "test"

    def test_run_command_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_all_defaults_to_default_scale(self):
        args = build_parser().parse_args(["run-all"])
        assert args.scale == "default"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.scenario == "baseline"
        assert args.scale == "test"
        assert args.days == 1
        assert args.day is None

    def test_query_requires_exactly_one_selector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--address", "::1", "--asn", "64500"])

    def test_query_parses_each_selector(self):
        args = build_parser().parse_args(["query", "--prefix", "2001:db8::/32"])
        assert args.prefix == "2001:db8::/32"
        args = build_parser().parse_args(["query", "--asn", "64500", "--scale", "tiny"])
        assert args.asn == 64500
        assert args.scale == "tiny"

    @pytest.mark.parametrize(
        "flag",
        [
            ["--workers", "2"],
            ["--shard-by", "rows"],
            ["--chunk-rows", "1000"],
            ["--storage", "memmap"],
        ],
    )
    def test_removed_policy_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig1", "--scale", "test", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err



class TestExecution:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(EXPERIMENTS)

    def test_run_table3_at_test_scale(self, capsys):
        # table3 is the only experiment that needs no expensive pipeline state.
        assert main(["run", "table3", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "2001:0db8:0407:8000" in out

    def test_serve_publishes_consecutive_generations(self, capsys):
        assert main(["serve", "--scale", "tiny", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "generation 1: day 25" in out
        assert "generation 2: day 26" in out
        assert "published generations: [1, 2]" in out

    def test_query_point_miss_reports_every_protocol(self, capsys):
        assert main(["query", "--scale", "tiny", "--address", "2001:db8::1"]) == 0
        out = capsys.readouterr().out
        assert "in hitlist: False" in out
        assert "responsive on tcp443: False" in out

    def test_query_reference_prints_the_default_answer(self, capsys):
        # An aliased hitlist address: its answer (membership, sources, first
        # seen, never scanned) is engine-independent by construction.
        daily = build("service", "baseline", scale="tiny").run_day(25)
        address = next(a for a in daily.hitlist.addresses if daily.apd_result.is_aliased(a))
        argv = ["query", "--scale", "tiny", "--address", address.compressed]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--reference"]) == 0
        assert capsys.readouterr().out == default
        assert "in hitlist: True" in default
        assert "aliased: True" in default
