"""Chaos driver: payload codec, case sampling, campaign, shrinking,
repro artifacts, and the weakened-protocol canary."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.add_last import add_last_bit
from repro.core.bitstrings import BitString
from repro.core.find_prefix import find_prefix
from repro.crypto.merkle import MerkleWitness
from repro.errors import ReproError
from repro.perf import counters as perf_counters
from repro.sim.fuzz import (
    ARTIFACT_FORMAT,
    ARTIFACT_SCHEMA_VERSION,
    NETWORK_COUNTERS,
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    ProtocolSpec,
    case_inputs,
    decode_payload,
    encode_payload,
    failure_to_artifact,
    fuzz,
    load_artifact,
    replay_artifact,
    replay_counters,
    run_case,
    sample_case,
    sample_case_at,
    standard_registry,
    validate_artifact,
    _build_adversary,
    _build_inputs,
    _execute,
)
from repro.sim.invariants import paper_bit_budget, paper_round_budget


# ---------------------------------------------------------------------------
# payload codec
# ---------------------------------------------------------------------------


class TestPayloadCodec:
    @pytest.mark.parametrize("payload", [
        None,
        True,
        False,
        0,
        -17,
        1 << 200,            # beyond JSON float precision
        b"",
        b"\x00\xff",
        "text",
        (1, "a", None),
        [1, [2, (3,)]],
        frozenset({3, 1, 2}),
        {"k": 1, "nested": (True, b"x")},
        BitString(0b1011, 4),
        (BitString(1, 1), frozenset({0})),
        Fraction(-3, 7),
        ("SHARE", b"s", MerkleWitness(5, (b"\x01" * 8, b"\x02" * 8))),
        # beyond CPython's 4300-digit str(int) limit (an id pytest
        # does not have to print)
        pytest.param(1 << 20000, id="int-20001-bits"),
    ])
    def test_round_trip(self, payload):
        data = encode_payload(payload)
        json.dumps(data)  # must be pure JSON
        assert decode_payload(data) == payload

    def test_bool_int_distinction_survives(self):
        assert decode_payload(encode_payload(True)) is True
        assert decode_payload(encode_payload(1)) == 1
        assert decode_payload(encode_payload(1)) is not True

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            encode_payload(object())


# ---------------------------------------------------------------------------
# registry and sampling
# ---------------------------------------------------------------------------


class TestRegistryAndSampling:
    def test_standard_registry_protocols(self):
        registry = standard_registry()
        assert set(registry) >= {
            "pi_z", "pi_n", "fixed_length_ca", "fixed_length_ca_blocks",
            "high_cost_ca", "broadcast_ca", "naive_broadcast_ca",
        }

    def test_sampling_is_deterministic(self):
        registry = standard_registry()
        a = sample_case(random.Random(5), registry)
        b = sample_case(random.Random(5), registry)
        assert a == b

    def test_sampled_case_is_well_formed(self):
        registry = standard_registry()
        rng = random.Random(1)
        for _ in range(20):
            case = sample_case(rng, registry)
            assert case.protocol in registry
            assert 1 <= case.t <= (case.n - 1) // 3 or case.t == 1
            assert 3 * case.t < case.n
            assert case.ell > 0

    def test_blocks_ell_is_multiple_of_n_squared(self):
        registry = standard_registry()
        spec = registry["fixed_length_ca_blocks"]
        for n in (4, 5, 6, 7):
            ell = spec.ell_for(n, 8)
            assert ell > 0 and ell % (n * n) == 0

    def test_case_dict_round_trip(self):
        case = sample_case(random.Random(2), standard_registry())
        assert FuzzCase.from_dict(case.to_dict()) == case

    def test_case_inputs_spreads(self):
        case = sample_case(random.Random(3), standard_registry())
        for spread in ("spread", "clustered", "identical"):
            variant = FuzzCase(**{**case.to_dict(),
                                  "faults": case.faults,
                                  "adversaries": case.adversaries,
                                  "spread": spread})
            values = case_inputs(variant)
            assert len(values) == case.n
            assert all(0 <= v < (1 << case.ell) for v in values)
            if spread == "identical":
                assert len(set(values)) == 1


# ---------------------------------------------------------------------------
# clean campaign (no false positives)
# ---------------------------------------------------------------------------


class TestCleanCampaign:
    def test_small_campaign_is_clean(self):
        report = fuzz(runs=10, seed=0)
        assert report.clean, report.summary()
        assert len(report.cases) == 10
        assert "0 failure(s)" in report.summary()

    def test_campaign_is_deterministic(self):
        a = fuzz(runs=5, seed=7)
        b = fuzz(runs=5, seed=7)
        assert a.cases == b.cases

    def test_protocol_filter(self):
        report = fuzz(runs=4, seed=0, protocols=["pi_z"])
        assert {case.protocol for case in report.cases} == {"pi_z"}
        with pytest.raises(ValueError):
            fuzz(runs=1, seed=0, protocols=["nope"])


# ---------------------------------------------------------------------------
# the canary: a deliberately weakened GetOutput must be caught,
# shrunk, archived, and deterministically replayable.
# ---------------------------------------------------------------------------


def weak_fixed_length_ca(ctx, v_in, ell):
    """FixedLengthCA with a broken phase 3: instead of running
    ``GetOutput``'s witness announcement + BA, every party just takes
    ``MAX_l(PREFIX*)`` locally -- which is not always in the honest hull."""
    result = yield from find_prefix(
        ctx, v_in, ell, unit_bits=1, channel="wflca/fp"
    )
    if result.prefix.length == ell:
        return result.v
    prefix = yield from add_last_bit(
        ctx, result.prefix, result.v, ell, channel="wflca/al"
    )
    return prefix.max_fill(ell)


def canary_registry():
    return {
        "weak_flca": ProtocolSpec(
            name="weak_flca",
            build=lambda ell: (
                lambda ctx, v: weak_fixed_length_ca(ctx, v, ell)
            ),
            bit_budget=paper_bit_budget,
            round_budget=paper_round_budget,
        )
    }


class TestCanary:
    def test_weakened_get_output_is_caught_and_replayable(self, tmp_path):
        registry = canary_registry()
        report = fuzz(
            runs=12, seed=1, registry=registry,
            artifact_dir=str(tmp_path),
        )
        assert not report.clean, "canary protocol escaped the monitors"
        kinds = {failure.kind for failure in report.failures}
        assert "ConvexValidityMonitor" in kinds

        convex = next(
            f for f in report.failures
            if f.kind == "ConvexValidityMonitor"
        )
        # delta debugging actually reduced the byzantine script.
        assert convex.shrunk
        assert len(convex.script) < convex.original_script_size

        # the archived artifact replays to the same violation, twice.
        assert report.artifacts
        artifact = load_artifact(report.artifacts[0])
        assert artifact["format"] == ARTIFACT_FORMAT
        first = replay_artifact(artifact, registry=registry)
        second = replay_artifact(artifact, registry=registry)
        assert first.violated and first.matches(artifact)
        assert (first.kind, first.message) == (second.kind, second.message)

    def test_cli_replay_reproduces(self, tmp_path, monkeypatch, capsys):
        registry = canary_registry()
        report = fuzz(
            runs=12, seed=1, registry=registry,
            artifact_dir=str(tmp_path),
        )
        assert report.artifacts
        monkeypatch.setattr(
            "repro.sim.fuzz.standard_registry", lambda: registry
        )
        assert main(["replay", report.artifacts[0]]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out

    def test_run_case_returns_failure_for_weak_protocol(self):
        registry = canary_registry()
        rng = random.Random(repr(("fuzz", 1)))
        failures = 0
        for _ in range(12):
            case = sample_case(rng, registry)
            if run_case(case, registry) is not None:
                failures += 1
        assert failures > 0


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_cli_replay_unknown_protocol_is_graceful(
        self, tmp_path, capsys
    ):
        registry = canary_registry()
        report = fuzz(
            runs=12, seed=1, registry=registry,
            artifact_dir=str(tmp_path),
        )
        assert report.artifacts
        # default registry does not know weak_flca -> graceful exit 2.
        assert main(["replay", report.artifacts[0]]) == 2
        assert "not in the standard registry" in capsys.readouterr().out

    def test_a_script_holding_witnesses_survives_the_round_trip(self):
        # 31 of the first 80 default cases record a forged (share,
        # witness); this is the first of them.  The case runs clean, so
        # the failure is what it *would* archive: its recorded script.
        case = sample_case_at(0, 4, standard_registry())
        spec = standard_registry()[case.protocol]
        inputs = _build_inputs(case, spec)
        adversary = _build_adversary(case)
        _execute(case, spec, inputs, adversary)
        failure = FuzzFailure(
            case=case, kind="AgreementMonitor", message="as if",
            inputs=inputs,
            initial_corruptions=set(adversary.initial_corruptions),
            script=dict(adversary.script),
            adapt_schedule=list(adversary.adapt_schedule),
        )
        witnesses = [
            payload for payload in failure.script.values()
            if type(payload) is tuple
            and any(type(part) is MerkleWitness for part in payload)
        ]
        assert failure.case.protocol == "fixed_length_ca_blocks"
        assert (len(failure.script), len(witnesses)) == (1180, 2)
        artifact = json.loads(json.dumps(failure_to_artifact(failure)))
        assert {
            (r, s, d): decode_payload(payload)
            for r, s, d, payload in artifact["script"]
        } == failure.script
        assert not replay_artifact(artifact).violated

    def test_inputs_past_the_decimal_limit_survive_the_round_trip(self):
        # 16,384-bit inputs have 4,933 decimal digits: the artifact
        # carries them in hex and the replay runs under the full monitor
        # stack, which has to reach a verdict without repr()ing them.
        inputs = [(1 << 16383) + i for i in range(4)]
        case = dataclasses.replace(
            sample_case_at(0, 0, standard_registry()),
            protocol="fixed_length_ca", n=4, t=1, ell=16384,
        )
        failure = FuzzFailure(
            case=case, kind="AgreementMonitor", message="as if",
            inputs=inputs, initial_corruptions=set(), script={},
            adapt_schedule=[],
        )
        artifact = json.loads(json.dumps(failure_to_artifact(failure)))
        assert [int(v, 16) for v in artifact["inputs"]] == inputs
        assert not replay_artifact(artifact).violated


# ---------------------------------------------------------------------------
# artifact schema versioning + recorded counters (satellites)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def canary_artifact(tmp_path_factory):
    """One archived canary failure, shared by the schema/counter tests."""
    registry = canary_registry()
    report = fuzz(
        runs=12, seed=1, registry=registry,
        artifact_dir=str(tmp_path_factory.mktemp("artifacts")),
    )
    assert report.artifacts
    return report.artifacts[0], registry


def rewrite(tmp_path, artifact, name="edited.json"):
    path = tmp_path / name
    path.write_text(json.dumps(artifact))
    return str(path)


class TestSchemaVersion:
    def test_artifacts_are_stamped(self, canary_artifact):
        path, _ = canary_artifact
        artifact = json.loads(open(path).read())
        assert artifact["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert validate_artifact(artifact) == []

    def test_pre_versioned_artifact_fails_loudly(
        self, canary_artifact, tmp_path
    ):
        """Corpus files from before the stamp replay with silently
        defaulted fault axes; loading them must be an error, not a
        guess."""
        path, _ = canary_artifact
        artifact = json.loads(open(path).read())
        del artifact["schema_version"]
        with pytest.raises(ValueError, match="re-generate"):
            load_artifact(rewrite(tmp_path, artifact))

    def test_future_schema_rejected(self, canary_artifact, tmp_path):
        path, _ = canary_artifact
        artifact = json.loads(open(path).read())
        artifact["schema_version"] = ARTIFACT_SCHEMA_VERSION + 7
        with pytest.raises(ValueError, match="schema_version"):
            load_artifact(rewrite(tmp_path, artifact))

    def test_unknown_keys_warn_but_load(self, canary_artifact, tmp_path):
        path, _ = canary_artifact
        artifact = json.loads(open(path).read())
        artifact["x_note"] = "annotated by a newer writer"
        artifact["case"]["x_extra"] = 1
        artifact["case"]["faults"]["x_axis"] = 0.5
        edited = rewrite(tmp_path, artifact)
        with pytest.warns(UserWarning, match="unknown"):
            loaded = load_artifact(edited)
        assert loaded["x_note"] == "annotated by a newer writer"
        with pytest.warns(UserWarning):
            messages = validate_artifact(loaded)
        assert len(messages) == 3  # artifact, case, and faults sections

    def test_cli_replay_surfaces_warnings(
        self, canary_artifact, tmp_path, monkeypatch, capsys
    ):
        path, registry = canary_artifact
        artifact = json.loads(open(path).read())
        artifact["x_note"] = "???"
        edited = rewrite(tmp_path, artifact)
        monkeypatch.setattr(
            "repro.sim.fuzz.standard_registry", lambda: registry
        )
        assert main(["replay", edited]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "x_note" in out


class TestRecordedCounters:
    def test_artifact_embeds_deterministic_counters(self, canary_artifact):
        path, registry = canary_artifact
        artifact = json.loads(open(path).read())
        block = artifact["counters"]
        # only counters the replay actually touched appear; the network
        # pair is unconditional for any protocol that ran.
        assert "net_rounds" in NETWORK_COUNTERS
        assert block["net_rounds"] > 0
        assert block["net_messages"] > 0
        # the recorded block is exactly one fresh replay's block:
        assert replay_counters(artifact, registry) == block
        assert replay_counters(artifact, registry) == block  # and stable

    def test_cli_verify_counters_reproduces(
        self, canary_artifact, monkeypatch, capsys
    ):
        path, registry = canary_artifact
        monkeypatch.setattr(
            "repro.sim.fuzz.standard_registry", lambda: registry
        )
        assert main(["replay", path, "--verify-counters"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "verified" in out

    def test_cli_verify_counters_detects_drift(
        self, canary_artifact, tmp_path, monkeypatch, capsys
    ):
        path, registry = canary_artifact
        artifact = json.loads(open(path).read())
        artifact["counters"]["net_messages"] += 5
        edited = rewrite(tmp_path, artifact)
        monkeypatch.setattr(
            "repro.sim.fuzz.standard_registry", lambda: registry
        )
        assert main(["replay", edited, "--verify-counters"]) == 1
        out = capsys.readouterr().out
        assert "net_messages" in out

    def test_cli_verify_counters_requires_recorded_block(
        self, canary_artifact, tmp_path, monkeypatch, capsys
    ):
        path, registry = canary_artifact
        artifact = json.loads(open(path).read())
        del artifact["counters"]
        edited = rewrite(tmp_path, artifact)
        monkeypatch.setattr(
            "repro.sim.fuzz.standard_registry", lambda: registry
        )
        assert main(["replay", edited, "--verify-counters"]) == 2
        assert "none recorded" in capsys.readouterr().out

    def test_campaign_summary_surfaces_retries(self):
        report = FuzzReport(runs=4, seed=0, retries=2)
        assert "2 retried case(s)" in report.summary()


# ---------------------------------------------------------------------------
# crash-plane campaigns
# ---------------------------------------------------------------------------


class TestCrashCampaign:
    def test_crash_sampling_widens_the_fault_space(self):
        registry = standard_registry()
        rng = random.Random(17)
        cases = [sample_case(rng, registry, crash=True) for _ in range(30)]
        assert any(c.faults.has_link_faults for c in cases)
        assert any(c.faults.has_crashes for c in cases)
        for case in cases:
            for party, down, up in case.faults.crashes:
                assert 0 <= party < case.n
                assert 1 <= down < up

    def test_crash_false_sampling_is_unchanged(self):
        """Adding the crash axes must not perturb crash=False campaigns:
        the extra draws are gated behind the flag."""
        registry = standard_registry()
        baseline = sample_case(random.Random(5), registry)
        again = sample_case(random.Random(5), registry, crash=False)
        assert baseline == again
        assert baseline.faults.crashes == ()
        assert not baseline.faults.has_link_faults

    def test_crash_campaign_is_clean_and_deterministic(self):
        a = fuzz(runs=6, seed=7, crash=True)
        b = fuzz(runs=6, seed=7, crash=True)
        assert a.clean, [f.case for f in a.failures]
        assert a.crash
        assert [c.to_dict() for c in a.cases] == [c.to_dict() for c in b.cases]
        assert a.summary() == b.summary()

    def test_crash_campaign_parallel_matches_serial(self):
        serial = fuzz(runs=6, seed=7, crash=True, workers=1)
        fanned = fuzz(runs=6, seed=7, crash=True, workers=3)
        assert [c.to_dict() for c in serial.cases] == [
            c.to_dict() for c in fanned.cases
        ]
        assert len(serial.failures) == len(fanned.failures)


# ---------------------------------------------------------------------------
# CLI fuzz
# ---------------------------------------------------------------------------


class TestCliFuzz:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--runs", "3", "--seed", "0", "--quiet"]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_crash_flag_runs_clean(self, capsys):
        assert main([
            "fuzz", "--runs", "3", "--seed", "7", "--crash", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "crash plane" in out


# ---------------------------------------------------------------------------
# campaign goldens: every observable of every case, pinned across refactors
# ---------------------------------------------------------------------------


def campaign_digest(seeds: int, cases: int, **planes) -> str:
    """sha256 over everything a campaign case lets an observer see.

    Outputs, every stats field (with the insertion order of the
    per-party ledger), channel trace, the full round trace, the crash
    and quarantine logs, the recorded adversary script and the
    deterministic counter block.  A delivery-path refactor that is not
    byte-identical moves this digest.
    """
    registry = standard_registry()
    hasher = hashlib.sha256()
    for seed in range(seeds):
        for index in range(cases):
            case = sample_case_at(seed, index, registry, **planes)
            spec = registry[case.protocol]
            adversary = _build_adversary(case)
            with perf_counters.capture() as captured:
                try:
                    result = _execute(
                        case, spec, _build_inputs(case, spec), adversary
                    )
                except ReproError as error:
                    observed = (type(error).__name__, str(error))
                else:
                    stats = result.stats
                    observed = (
                        result.outputs,
                        stats.summary_dict(),
                        stats.honest_messages,
                        stats.retrans_messages,
                        stats.ack_messages,
                        dict(stats.bits_by_channel),
                        list(stats.bits_by_party.items()),
                        result.channel_trace,
                        repr(result.trace),
                        result.crash_log,
                        result.quarantine_log,
                        result.recoveries,
                        result.fallback and result.fallback.to_dict(),
                    )
            block = {name: captured.get(name) for name in NETWORK_COUNTERS}
            hasher.update(
                repr((seed, index, observed, adversary.script, block)).encode()
            )
    return hasher.hexdigest()


class TestCampaignGolden:
    def test_crash_bombs_campaign_is_pinned(self):
        assert campaign_digest(10, 8, crash=True, bombs=True) == (
            "f386d6de60da45861453c6f6756a0d15aa5470519ac5495eed5b760599f5263f"
        )

    def test_crash_partition_bombs_campaign_is_pinned(self):
        assert campaign_digest(
            4, 8, crash=True, partition=True, bombs=True
        ) == "58267c4d3b66ef458fd87ec6ca7867e5ba7038eefce0b8a9e119b43d856416d9"
