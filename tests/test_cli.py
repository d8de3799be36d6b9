"""CLI tests (``python -m repro ...``)."""

from __future__ import annotations

import contextlib
import json
import pathlib

import pytest

from repro.analysis import grid_record, measure
from repro.cli import build_parser, main
from repro.sim.adversary import ADVERSARY_CATALOG
from repro.sim.faults import FaultSpec
from repro.sim.sizing import WIRE_SCHEMA
from repro.sim.fuzz import (
    ARTIFACT_FORMAT,
    ARTIFACT_SCHEMA_VERSION,
    FuzzCase,
    fuzz,
    validate_artifact,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENT = ROOT / "benchmarks" / "BENCH_experiments.json"


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
        for name, build in ADVERSARY_CATALOG.items():
            adversary = build(1)
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

    @pytest.mark.parametrize("name", sorted(ADVERSARY_CATALOG))
    def test_run_takes_every_catalog_adversary(self, name, capsys):
        code = main(["run", "10", "20", "30", "40", "50", "60", "70",
                     "--kappa", "64", "--adversary", name])
        assert code == 0
        out = capsys.readouterr().out
        assert ADVERSARY_CATALOG[name](0).describe() in out

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

    def test_compare_unknown_protocol_is_a_friendly_exit_2(self, capsys):
        code = main(
            ["compare", "--n", "4", "--ells", "128",
             "--protocols", "pi_z,bogus,nope"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown protocols: ['bogus', 'nope']\n"
        assert captured.out == ""  # nothing ran before the check

    def test_sweep_saves_values_past_the_decimal_limit(self, tmp_path, capsys):
        """ell = 16384 and 65536 are the paper's regime and past CPython's
        4300-digit int->str limit: ``--bench-json`` writes them (in hex)
        and they read back to the same ints."""
        document = tmp_path / "bench.json"
        code = main([
            "sweep", "--protocol", "pi_z", "--ns", "4",
            "--ells", "16384,65536", "--bench-json", str(document),
        ])
        assert code == 0
        measured = [
            measure("pi_z", 4, None, ell, seed=0, spread="clustered")
            for ell in (16384, 65536)
        ]
        assert measured[1].output.bit_length() > 4300 * 4
        grid = json.loads(document.read_text())["grid"]
        assert grid == [grid_record(m) for m in measured]
        assert [int(row["output"], 0) for row in grid] == [
            m.output for m in measured
        ]

    def test_report_to_file(self, tmp_path, monkeypatch):
        """Redirecting stdout is how the report lands in a file; with no
        argument it reads the committed document from the checkout."""
        monkeypatch.chdir(ROOT)
        target = tmp_path / "report.txt"
        with open(target, "w") as handle, contextlib.redirect_stdout(handle):
            code = main(["report"])
        assert code == 0
        text = target.read_text()
        assert "[T5]" in text and "[F1]" in text


def _printed_tables(out: str) -> dict[str, dict[str, dict[str, str]]]:
    """``repro report``'s tables read back: id -> case -> column -> cell."""
    tables = {}
    for block in out.strip().split("\n\n")[1:]:
        title, header, _rule, *lines = block.splitlines()
        columns = [cell.strip() for cell in header.split("|")]
        rows = tables[title.strip("[]")] = {}
        for line in lines:
            cells = dict(zip(columns, (c.strip() for c in line.split(" | "))))
            rows[cells["case"]] = cells
    return tables


class TestReport:
    def test_renders_every_row_of_the_committed_document(self, capsys):
        """Every section in id order, every case, and each printed bits
        and rounds value equal to the document's: the report cannot drift
        from ``benchmarks/``."""
        document = json.loads(DOCUMENT.read_text())
        sections = {k: v for k, v in document.items() if k != "schema"}
        assert main(["report", str(DOCUMENT)]) == 0
        printed = _printed_tables(capsys.readouterr().out)
        assert list(printed) == sorted(sections)
        assert len(printed) == 14
        assert sum(map(len, printed.values())) == 140
        for experiment, records in sections.items():
            rows = printed[experiment]
            assert sorted(rows) == sorted(records), experiment
            for case, record in records.items():
                cells = rows[case]
                assert int(cells["bits"].replace(",", "")) == record["bits"]
                assert (
                    int(cells["rounds"].replace(",", "")) == record["rounds"]
                )

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        ('{"schema": "repro.bench_experiments/v1", "T1": ', "Expecting"),
        ('{"schema": "repro-sweep/1"}', "schema 'repro-sweep/1', expected"),
        ('{"schema": "repro.bench_experiments/v1", "T1": {"case": {}}}',
         "'protocol'"),
    ], ids=["missing", "invalid-json", "other-schema", "malformed-record"])
    def test_unreadable_document_is_a_friendly_exit_2(
        self, tmp_path, capsys, content, reason
    ):
        path = tmp_path / "experiments.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot read experiment document {path}: " in captured.err
        assert reason in captured.err
        assert "Traceback" not in captured.err


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

    def test_unknown_spread_is_a_friendly_exit_2(self, tmp_path, capsys):
        """A spread outside the campaign's three would replay as uniform
        inputs: the artifact is refused at load instead."""
        case = FuzzCase("pi_z", 4, 1, 32, 64, "spread", ("passive",),
                        FaultSpec(), seed=0).to_dict()
        artifact = {
            "format": ARTIFACT_FORMAT,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "case": {**case, "spread": 8},
            "violation": {"kind": "agreement", "message": "recorded"},
        }
        with pytest.raises(ValueError, match="spread 8"):
            validate_artifact(artifact)
        path = tmp_path / "spread.json"
        path.write_text(json.dumps(artifact))
        code = main(["replay", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load artifact {path}" in err
        assert "spread 8" in err

    @pytest.mark.parametrize("section, key", [
        (None, "inputs"), (None, "violation"), ("case", "n"),
    ])
    def test_a_missing_key_is_a_friendly_exit_2(
        self, section, key, tmp_path, capsys
    ):
        """An artifact without a key the writer always emits is refused
        at load, naming the key; it never reaches the replay (where it
        ended in a KeyError, or read as an unknown protocol)."""
        path = self._artifact(tmp_path, "complete.json")
        artifact = json.loads(path.read_text())
        del (artifact if section is None else artifact[section])[key]
        path.write_text(json.dumps(artifact))
        with pytest.raises(ValueError, match=repr(key)):
            validate_artifact(artifact)
        code = main(["replay", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load artifact {path}" in err
        assert repr(key) in err

    def test_missing_artifact_is_exit_2(self, capsys):
        code = main(["replay", "/no/such/artifact.json"])
        assert code == 2
        assert "no such artifact" in capsys.readouterr().err

    def _artifact(self, tmp_path, name, **faults):
        """A complete artifact of a clean case (it cannot reproduce)."""
        case = FuzzCase("pi_z", 4, 1, 32, 64, "spread", ("passive",),
                        FaultSpec(drop=0.25, seed=3), seed=0).to_dict()
        path = tmp_path / name
        path.write_text(json.dumps({
            "format": ARTIFACT_FORMAT,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "case": {**case, "faults": {**case["faults"], **faults}},
            "violation": {"kind": "agreement", "message": "recorded"},
            "inputs": [WIRE_SCHEMA[int].dump(v) for v in (1, 2, 3, 4)],
            "initial_corruptions": [3],
            "adapt_schedule": [],
            "crash_schedule": [],
            "script": [],
            "shrunk": False,
            "original_script_size": 0,
        }))
        return path

    def test_a_null_link_scope_replays_unchanged(self, tmp_path, capsys):
        """Artifacts written while specs had a per-link scope carry
        ``"links": null``: they replay as if the key were absent."""
        verdicts = []
        for name, faults in (("bare.json", {}), ("null.json", {"links": None})):
            path = self._artifact(tmp_path, name, **faults)
            code = main(["replay", str(path)])
            out = capsys.readouterr().out.replace(str(path), "PATH")
            verdicts.append((code, out))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == 1 and "warning" not in verdicts[0][1]
        assert "DID NOT REPRODUCE" in verdicts[0][1]

    def test_a_link_scope_is_a_friendly_exit_2(self, tmp_path, capsys):
        path = self._artifact(tmp_path, "scoped.json", links=[[3, 0]])
        code = main(["replay", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load artifact {path}" in err
        assert "per-link fault scope" in err


class TestArgumentErrors:
    """Parameters the protocols refuse end in ``error: ...`` and exit 2,
    never a traceback."""

    @pytest.mark.parametrize("argv, reason", [
        (["--t", "2"], "t < n/3"),
        (["--kappa", "7"], "multiple of 8"),
    ])
    def test_run(self, argv, reason, capsys):
        assert main(["run", "1", "2", "3", "4", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and reason in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_sweep(self, capsys):
        code = main(["sweep", "--ns", "4", "--ells", "8", "--t", "2",
                     "--workers", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: grid point n=4 ell=8: protocol requires t < n/3, "
            "got n=4, t=2\n"
        )

    def test_fuzz_negative_runs(self, capsys):
        assert main(["fuzz", "--runs", "-1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: runs must be >= 0, got -1\n"
        assert captured.out == ""


class TestBombFlags:
    def test_fuzz_bombs_flag_parses(self):
        args = build_parser().parse_args(["fuzz", "--runs", "3", "--bombs"])
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


class TestFuzzOutput:
    def test_lists_every_case_before_the_summary(self, capsys):
        """Without ``--quiet``, one ``[i/N] <case>`` line per sampled
        case, in index order, then the report's summary."""
        report = fuzz(runs=3, seed=0, shrink=False)
        code = main(["fuzz", "--runs", "3", "--seed", "0", "--no-shrink"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "".join(
            f"[{index + 1}/3] {case.describe()}\n"
            for index, case in enumerate(report.cases)
        ) + report.summary() + "\n"
