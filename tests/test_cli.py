"""CLI tests (``python -m repro ...``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import ADVERSARIES, build_parser, main
from repro.sim.faults import FaultSpec
from repro.sim.fuzz import ARTIFACT_FORMAT, ARTIFACT_SCHEMA_VERSION, FuzzCase


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "1", "2", "3", "4"])
        assert args.command == "run"
        assert args.inputs == [1, 2, 3, 4]
        assert args.adversary == "passive"

    def test_run_negative_inputs(self):
        args = build_parser().parse_args(["run", "-5", "3", "-1", "0"])
        assert args.inputs == [-5, 3, -1, 0]

    def test_sweep_ells_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--ells", "128,256", "--n", "4"]
        )
        assert args.ells == [128, 256]

    def test_compare_protocols_parsing(self):
        args = build_parser().parse_args(
            ["compare", "--protocols", "pi_z,high_cost_ca"]
        )
        assert args.protocols == ["pi_z", "high_cost_ca"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "1", "--adversary", "nope"])

    def test_all_adversaries_constructible(self):
        for name, cls in ADVERSARIES.items():
            adversary = cls(seed=1)
            assert adversary.describe()


class TestCommands:
    def test_run_command(self, capsys):
        code = main(["run", "10", "20", "30", "40", "--kappa", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agreed output" in out
        assert "honest bits sent" in out

    def test_run_with_adversary_and_channels(self, capsys):
        code = main(
            ["run", "-5", "-6", "-7", "-8", "--adversary", "outlier",
             "--kappa", "64", "--channels"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-channel breakdown" in out
        assert "OutlierAdversary" in out

    def test_run_output_in_honest_range(self, capsys):
        main(["run", "100", "101", "102", "103", "--kappa", "64"])
        out = capsys.readouterr().out
        line = next(
            ln for ln in out.splitlines() if "agreed output" in ln
        )
        value = int(line.split(":")[1].strip())
        assert 100 <= value <= 103

    def test_sweep_command(self, capsys):
        code = main(
            ["sweep", "--protocol", "high_cost_ca", "--n", "4",
             "--ells", "64,128"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "high_cost_ca" in out
        assert "marginal cost" in out

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--n", "4", "--ells", "128,512",
             "--protocols", "pi_z,high_cost_ca"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "paper's prediction" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(["report", "--scale", "quick", "--output", str(target)])
        assert code == 0
        text = target.read_text()
        assert "T5" in text and "F1" in text


class TestAuthenticatedSetting:
    def test_run_authenticated_minority(self, capsys):
        from repro.cli import main

        code = main([
            "run", "10", "20", "30", "40", "50",
            "--setting", "authenticated", "--kappa", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if "agreed output" in ln)
        value = int(line.split(":")[1].strip())
        assert 10 <= value <= 50

    def test_plain_default_threshold_differs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "1", "2", "3"])
        assert args.setting == "plain"


class TestReplayErrors:
    def test_truncated_artifact_is_a_friendly_exit_2(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"format": "repro-fuzz/1", "case": {"pro')
        code = main(["replay", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "cannot load artifact" in err

    def test_corrupt_artifact_is_a_friendly_exit_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text('{"format": "not-a-fuzz-artifact"}\n')
        code = main(["replay", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err

    def test_invalid_fault_spec_is_a_friendly_exit_2(self, tmp_path, capsys):
        """A case that does not build is refused at load, not replayed."""
        faults = FaultSpec(gst=4, partitions=((2, 6, (0,)),)).to_dict()
        faults["partitions"] = [[6, 2, [0]]]  # heals before it starts
        case = FuzzCase("pi_z", 4, 1, 32, 64, "spread", ("passive",),
                        FaultSpec(), seed=0).to_dict()
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps({
            "format": ARTIFACT_FORMAT,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "case": {**case, "faults": faults},
            "violation": {"kind": "agreement", "message": "recorded"},
        }))
        code = main(["replay", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load artifact {path}" in err
        assert "partition (6, 2, (0,))" in err

    def test_missing_artifact_is_exit_2(self, capsys):
        code = main(["replay", "/no/such/artifact.json"])
        assert code == 2
        assert "no such artifact" in capsys.readouterr().err


class TestBombFlags:
    def test_fuzz_bombs_flag_parses(self):
        args = build_parser().parse_args(["fuzz", "--runs", "3", "--bombs"])
        assert args.bombs is True

    def test_search_bombs_flag_parses(self):
        args = build_parser().parse_args(["search", "--bombs"])
        assert args.bombs is True

    def test_bomb_campaign_runs_clean(self, capsys):
        code = main(["fuzz", "--runs", "2", "--seed", "0", "--bombs",
                     "--quiet"])
        assert code == 0
        assert "bomb plane" in capsys.readouterr().out


@pytest.mark.usefixtures("plain_unraisablehook")
class TestCaseTimeout:
    def test_default_worker_count_honours_the_case_timeout(self, capsys):
        """``--workers 1`` is the default and ``--case-timeout``'s help
        promises a recorded failure: every over-budget case is a counted
        engine incident, none a protocol verdict."""
        code = main(["fuzz", "--runs", "3", "--seed", "0", "--case-timeout",
                     "0.0005", "--no-shrink", "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "3 case timeout(s)" in out
        assert "HonestPartyError" not in out
