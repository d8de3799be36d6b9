"""Partial-synchrony resilience plane: the link schedule, PBFT-style
timeout escalation, the supervisor's failover ladder (optimal CA ->
escalated retry -> HighCostCA -> async AA), the liveness envelope, and
the partition/GST fuzz campaign with shrinking repro artifacts."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro import convex_agreement
from repro.cli import main
from repro.core.fixed_length import fixed_length_ca
from repro.errors import (
    ConfigurationError,
    ProtocolViolation,
    SimulationError,
)
from repro.sim import (
    BEACON_BITS,
    BitBudgetMonitor,
    FallbackRecord,
    FaultSpec,
    LinkSchedule,
    LivenessMonitor,
    LossyTransport,
    TimeoutEscalation,
    run_protocol,
    run_with_escalation,
)
from repro.sim.fuzz import (
    FuzzCase,
    fuzz,
    load_artifact,
    replay_artifact,
    sample_case,
    sample_case_at,
    standard_registry,
)

KAPPA = 64
INPUTS7 = [3, 5, 7, 11, 13, 17, 19]


def flca_factory(ell=8):
    return lambda ctx, v: fixed_length_ca(ctx, v, ell)


# ---------------------------------------------------------------------------
# escalation policy and transport construction
# ---------------------------------------------------------------------------


class TestTimeoutEscalation:
    def test_defaults_are_valid(self):
        policy = TimeoutEscalation()
        assert policy.max_attempts >= 2
        assert policy.growth >= 2

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"growth": 1},
        {"budget_cap": 0},
        {"beacon_slots": -1},
        {"max_attempts": True},
        {"growth": 2.5},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TimeoutEscalation(**kwargs)

    def test_budget_grows_exponentially_up_to_cap(self):
        policy = TimeoutEscalation(growth=2, budget_cap=100)
        assert policy.next_budget(16) == 32
        assert policy.next_budget(64) == 100
        # a budget already above the cap never shrinks.
        assert policy.next_budget(200) == 200


#: windows no door may accept, as ``LinkSchedule`` keywords.
BAD_SCHEDULES = {
    "partition-reversed": {"partitions": ((10, 5, (0,)),)},
    "partition-negative-start": {"partitions": ((-1, 5, (0,)),)},
    "partition-no-members": {"partitions": ((0, 5, ()),)},
    "partition-negative-member": {"partitions": ((0, 5, (-1,)),)},
    "gst-negative": {"gst": -1},
    "gst-bool": {"gst": True},
    "pre-gst-drop-without-gst": {"pre_gst_drop": 0.5},
    "pre-gst-drop-certain": {"gst": 10, "pre_gst_drop": 1.0},
    "churn-zero-length": {"churn": ((5, 5, 0.3),)},
    "churn-certain-drop": {"churn": ((0, 10, 1.0),)},
}


class TestTransportConstruction:
    @pytest.mark.parametrize(
        "axes", BAD_SCHEDULES.values(), ids=BAD_SCHEDULES
    )
    def test_bad_window_rejected_at_every_door(self, axes):
        """One validator: the schedule, the transport constructor and
        the fault spec refuse the same windows."""
        with pytest.raises(ConfigurationError):
            LinkSchedule(**axes)
        with pytest.raises(ConfigurationError):
            LossyTransport.partial_sync(**axes)
        spec_axes = dict(axes)
        if "churn" in spec_axes:
            spec_axes["link_churn"] = spec_axes.pop("churn")
        with pytest.raises(ValueError):
            FaultSpec(**spec_axes)

    def test_partition_window_validation(self):
        # healing, never-healing and back-to-back windows are fine.
        schedule = LinkSchedule(
            partitions=((0, 5, (0,)), (5, -1, [1, 2])),
        )
        assert schedule.partitions == (
            (0, 5, frozenset({0})), (5, -1, frozenset({1, 2})),
        )
        assert schedule.severed_at(4) == (frozenset({0}),)
        assert schedule.severed_at(5) == (frozenset({1, 2}),)

    def test_gst_validation(self):
        schedule = LinkSchedule(gst=10, pre_gst_drop=0.5)
        assert (schedule.loss_at(9), schedule.loss_at(10)) == (0.5, 0.0)
        assert LinkSchedule(gst=0).loss_at(0) == 0.0

    def test_churn_window_validation(self):
        schedule = LinkSchedule(churn=((5, 6, 0.3), (0, 10, 0.2)))
        assert [schedule.loss_at(at) for at in (4, 5, 6, 10)] == [
            0.2, 0.3, 0.2, 0.0,
        ]

    def test_escalation_armed_by_default(self):
        transport = LossyTransport.partial_sync(gst=10)
        assert isinstance(transport.escalation, TimeoutEscalation)
        assert transport.slot_budget == 64 and transport.links is None
        # a plain transport keeps the classic die-on-first-timeout.
        assert LossyTransport(schedule=transport.schedule).escalation is None

    def test_ready_schedule_and_fields_do_not_mix(self):
        schedule = LinkSchedule(gst=10)
        assert LossyTransport.partial_sync(schedule).schedule is schedule
        with pytest.raises(ConfigurationError, match="not both"):
            LossyTransport.partial_sync(schedule, gst=10)

    def test_lossy_type_validation(self):
        with pytest.raises(ConfigurationError):
            LossyTransport(slot_budget="many")
        with pytest.raises(ConfigurationError):
            LossyTransport(max_backoff=2.5)
        with pytest.raises(ConfigurationError):
            LossyTransport(slot_budget=True)
        with pytest.raises(ConfigurationError):
            LossyTransport(escalation=42)

    def test_backoff_exponent_is_capped_before_exponentiation(self):
        transport = LossyTransport(max_backoff=16)
        # attempt counts far beyond the cap return the cap directly --
        # the old code built a 2**300 intermediate first.
        assert transport._backoff(300) == 16
        assert transport._backoff(4) == 16
        assert transport._backoff(2) == 4

    def test_stabilization_time(self):
        assert LinkSchedule().stabilization_time == 0
        assert LinkSchedule(gst=100).stabilization_time == 100
        assert LinkSchedule(
            gst=100, partitions=((0, 250, (0,)),)
        ).stabilization_time == 250
        assert LinkSchedule(
            gst=100, churn=((0, 300, 0.3),)
        ).stabilization_time == 300
        assert LinkSchedule(
            gst=100, partitions=((0, -1, (0,)),)
        ).stabilization_time is None
        # the transport answers with its schedule's, or 0 without one.
        assert LossyTransport.partial_sync(gst=50).stabilization_time == 50
        assert LossyTransport().stabilization_time == 0

    def test_describe_names_the_axes(self):
        transport = LossyTransport.partial_sync(
            gst=10, pre_gst_drop=0.3, partitions=((0, 5, (1,)),), drop=0.1,
        )
        text = transport.describe()
        assert "gst=10" in text and "partitions=1" in text
        assert "drop=0.1" in text


class TestFromSpec:
    def test_spec_with_partial_sync_builds_psync_transport(self):
        spec = FaultSpec(gst=100, pre_gst_drop=0.3, seed=9)
        transport = LossyTransport.from_spec(spec)
        assert transport.schedule == spec.schedule
        assert transport.schedule.gst == 100
        assert isinstance(transport.escalation, TimeoutEscalation)
        assert transport.seed != spec.seed

    def test_partition_only_spec_builds_psync_transport(self):
        spec = FaultSpec(partitions=((0, 50, (1, 2)),))
        transport = LossyTransport.from_spec(spec)
        assert transport.schedule == spec.schedule
        assert transport.stabilization_time == 50

    def test_link_only_spec_still_builds_plain_lossy(self):
        spec = FaultSpec(link_drop=0.2)
        transport = LossyTransport.from_spec(spec)
        assert spec.schedule is None and transport.schedule is None
        assert transport.escalation is None
        assert LossyTransport.from_spec(FaultSpec()) is None


# ---------------------------------------------------------------------------
# fault-spec axes
# ---------------------------------------------------------------------------


class TestFaultSpecAxes:
    def test_partial_sync_round_trips_through_json(self):
        spec = FaultSpec(
            gst=120, pre_gst_drop=0.3,
            partitions=((0, 200, (0, 2)), (50, -1, (1,))),
            link_churn=((10, 90, 0.6),),
            link_drop=0.05, seed=3,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        again = FaultSpec.from_dict(data)
        assert again == spec
        assert again.has_partial_sync
        assert not again.heals  # one window never heals

    def test_axis_predicates(self):
        assert not FaultSpec().has_partial_sync
        assert FaultSpec(gst=0).has_partial_sync
        assert FaultSpec(partitions=((0, 9, (1,)),)).heals
        assert not FaultSpec(gst=5).is_noop

    def test_validation(self):
        """The spec's windows are the schedule's (table above); the error
        stays the plain ``ValueError`` the artifact loaders catch."""
        with pytest.raises(ValueError) as caught:
            FaultSpec(partitions=((5, 2, (0,)),))
        assert not isinstance(caught.value, ConfigurationError)
        assert "partition" in str(caught.value)


# ---------------------------------------------------------------------------
# canary (a): a healing partition costs overhead, never bytes
# ---------------------------------------------------------------------------


class TestHealingPartition:
    def test_outputs_and_honest_bits_byte_identical(self):
        baseline = run_protocol(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
        )
        transport = LossyTransport.partial_sync(
            partitions=((0, 400, (0,)),), seed=5,
        )
        resilient = run_with_escalation(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
            transport=transport,
        )
        # the escalated retries resolved the partition inside the
        # primary: no rung was descended...
        assert resilient.fallback is None
        # ...and the logical execution is byte-identical.
        assert resilient.outputs == baseline.outputs
        assert resilient.stats.honest_bits == baseline.stats.honest_bits
        assert resilient.stats.rounds == baseline.stats.rounds
        # the waiting shows up only in the overhead fields.
        stats = resilient.stats
        assert stats.resync_attempts > 0
        assert stats.escalated_rounds > 0
        assert stats.beacon_messages > 0
        assert stats.beacon_bits == stats.beacon_messages * BEACON_BITS
        assert stats.resilience_overhead_bits == (
            stats.retrans_bits + stats.ack_bits + stats.beacon_bits
        )
        assert transport.total_resyncs == stats.resync_attempts
        assert transport.clock >= 400  # waited past the heal

    def test_pre_gst_loss_with_liveness_monitor(self):
        transport = LossyTransport.partial_sync(gst=200, pre_gst_drop=0.6, seed=8)
        baseline = run_protocol(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
        )
        result = run_protocol(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
            transport=transport,
            monitors=[LivenessMonitor(500, transport)],
        )
        assert result.outputs == baseline.outputs
        assert result.stats.honest_bits == baseline.stats.honest_bits

    def test_api_accepts_the_transport(self):
        plain = convex_agreement(INPUTS7, t=2, kappa=KAPPA)
        resilient = convex_agreement(
            INPUTS7, t=2, kappa=KAPPA,
            transport=LossyTransport.partial_sync(gst=80, pre_gst_drop=0.3, seed=2),
        )
        assert resilient.value == plain.value
        assert resilient.stats.honest_bits == plain.stats.honest_bits


# ---------------------------------------------------------------------------
# canary (b): a never-healing partition descends the full ladder
# ---------------------------------------------------------------------------


def _never_healing(seed=5, members=(0, 1)):
    return LossyTransport.partial_sync(
        partitions=((0, -1, tuple(members)),), seed=seed,
        slot_budget=16, escalation=TimeoutEscalation(max_attempts=3),
    )


class TestFailoverLadder:
    def test_never_healing_partition_lands_on_async_aa(self):
        inputs = [3, 5, 7, 9, 11, 13, 15]
        result = run_with_escalation(
            flca_factory(), inputs, n=7, t=1, kappa=KAPPA,
            transport=_never_healing(), epsilon=1,
        )
        record = result.fallback
        assert isinstance(record, FallbackRecord)
        assert record.rung == "async_aa"
        assert record.epsilon == str(Fraction(1))
        assert record.trigger == "SimulationError"
        assert "asynchronous AA" in record.describe()
        # every rung tried at most once, in ladder order.
        rungs = [entry.split(":")[0] for entry in record.history]
        assert rungs[0] == "primary"
        for rung in ("primary", "high_cost_ca", "async_aa"):
            assert rungs.count(rung) == 1
        assert (
            rungs.index("primary")
            < rungs.index("high_cost_ca")
            < rungs.index("async_aa")
        )
        # the HighCostCA rung ran over the SAME broken transport -- it
        # must have failed, not been skipped.
        hc_entry = next(e for e in record.history if e.startswith("high_cost_ca"))
        assert "decided" not in hc_entry
        # outputs: epsilon-agreement inside the honest hull.
        values = [result.outputs[p] for p in result.honest_parties]
        assert max(values) - min(values) <= 1
        assert min(inputs) <= min(values)
        assert max(values) <= max(inputs)
        # the primary's escalation effort is preserved on the record.
        assert record.resyncs > 0
        assert record.primary_stats is not None
        assert record.primary_stats.resync_attempts == record.resyncs

    def test_exhausted_ladder_raises_budgeted_simulation_error(self):
        # n=4, t=1: async AA needs 5t < n, so the last rung is skipped
        # and the ladder ends in the recorded, budgeted failure.
        with pytest.raises(SimulationError, match="escalation ladder exhausted") as exc:
            run_with_escalation(
                flca_factory(), [1, 2, 3, 4], n=4, t=1, kappa=KAPPA,
                transport=_never_healing(members=(0,)), epsilon=1,
            )
        message = str(exc.value)
        assert "primary:" in message
        assert "high_cost_ca:" in message
        assert "async_aa: skipped" in message

    def test_without_epsilon_the_ladder_ends_after_high_cost_ca(self):
        # n=7, t=1 could run the async rung (5t < n), but the caller
        # accepted no epsilon: exact agreement or the budgeted failure.
        with pytest.raises(SimulationError, match="escalation ladder exhausted") as exc:
            run_with_escalation(
                flca_factory(), [3, 5, 7, 9, 11, 13, 15], n=7, t=1,
                kappa=KAPPA, transport=_never_healing(),
            )
        message = str(exc.value)
        assert "high_cost_ca: SimulationError" in message
        assert "async_aa: not entered" in message
        assert "decided" not in message
        assert exc.value.stats.resync_attempts > 0

    def test_monitor_violation_stays_fatal_when_excluded(self):
        with pytest.raises(ProtocolViolation):
            run_with_escalation(
                flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
                monitors=[BitBudgetMonitor(total=1)],
                escalate_on=(SimulationError,),
            )

    def test_monitor_violation_degrades_by_default(self):
        result = run_with_escalation(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
            monitors=[BitBudgetMonitor(total=1)],
        )
        result.assert_convex_valid(INPUTS7)
        assert result.fallback.rung == "high_cost_ca"
        assert "high_cost_ca: decided" in result.fallback.history

    def test_clean_run_has_no_fallback(self):
        result = run_with_escalation(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
        )
        assert result.fallback is None
        result.assert_convex_valid(INPUTS7)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_escalation(
                flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA, epsilon=0,
            )


class TestFallbackRecordSerialization:
    def _record(self):
        result = run_with_escalation(
            flca_factory(), [3, 5, 7, 9, 11, 13, 15], n=7, t=1,
            kappa=KAPPA, transport=_never_healing(), epsilon=1,
        )
        return result.fallback

    def test_round_trips_through_json(self):
        record = self._record()
        data = json.loads(json.dumps(record.to_dict()))
        again = FallbackRecord.from_dict(data)
        assert again.trigger == record.trigger
        assert again.rung == record.rung
        assert again.history == record.history
        assert again.epsilon == record.epsilon
        assert again.resyncs == record.resyncs
        assert again.offset == record.offset
        assert (
            again.primary_stats.resync_attempts
            == record.primary_stats.resync_attempts
        )
        assert (
            again.primary_stats.beacon_bits
            == record.primary_stats.beacon_bits
        )

    def test_missing_optional_fields_default(self):
        record = FallbackRecord.from_dict({
            "trigger": "SimulationError", "detail": "x",
            "monitor": None, "offset": 0,
        })
        assert record.rung == "high_cost_ca"
        assert record.history == ()
        assert record.primary_stats is None


# ---------------------------------------------------------------------------
# liveness envelope
# ---------------------------------------------------------------------------


class TestLivenessMonitor:
    def test_envelope_must_be_positive(self):
        with pytest.raises(ValueError):
            LivenessMonitor(0)

    def test_counts_from_stabilization(self):
        # horizon 0 (plain lossy transport): behaves like a round budget.
        monitor = LivenessMonitor(2, LossyTransport())
        monitor.on_round(SimpleNamespace(round_index=1), None)
        with pytest.raises(ProtocolViolation):
            monitor.on_round(SimpleNamespace(round_index=2), None)

    def test_pre_stabilization_rounds_are_discounted(self):
        transport = LossyTransport.partial_sync(gst=1_000_000)
        monitor = LivenessMonitor(2, transport)
        # the clock never reaches the horizon: every round is pre-GST.
        for round_index in range(10):
            monitor.on_round(SimpleNamespace(round_index=round_index), None)

    def test_silent_on_never_stabilizing_network(self):
        transport = LossyTransport.partial_sync(partitions=((0, -1, (0,)),))
        monitor = LivenessMonitor(1, transport)
        # liveness is not guaranteed without stabilization: no failure.
        monitor.on_round(SimpleNamespace(round_index=500), None)


# ---------------------------------------------------------------------------
# partition-plane fuzzing
# ---------------------------------------------------------------------------


class TestPartitionSampling:
    def test_partition_false_sampling_is_unchanged(self):
        """Adding the partial-sync axes must not perturb existing
        campaigns: the extra draws are gated behind the flag."""
        registry = standard_registry()
        baseline = sample_case(random.Random(5), registry)
        again = sample_case(random.Random(5), registry, partition=False)
        assert baseline == again
        assert not baseline.faults.has_partial_sync
        crash_a = sample_case(random.Random(5), registry, crash=True)
        crash_b = sample_case(
            random.Random(5), registry, crash=True, partition=False
        )
        assert crash_a == crash_b

    def test_partition_sampling_widens_the_fault_space(self):
        registry = standard_registry()
        rng = random.Random(17)
        cases = [
            sample_case(rng, registry, partition=True) for _ in range(30)
        ]
        assert any(c.faults.gst is not None for c in cases)
        assert any(c.faults.partitions for c in cases)
        assert any(c.faults.link_churn for c in cases)
        assert any(not c.faults.heals for c in cases)
        for case in cases:
            for start, heal, members in case.faults.partitions:
                assert start >= 0
                assert heal == -1 or heal > start
                assert members
                assert all(0 <= p < case.n for p in members)

    def test_partition_case_round_trips_through_json(self):
        registry = standard_registry()
        rng = random.Random(23)
        for _ in range(10):
            case = sample_case(rng, registry, partition=True)
            data = json.loads(json.dumps(case.to_dict()))
            assert FuzzCase.from_dict(data) == case

    def test_sample_case_at_is_deterministic(self):
        registry = standard_registry()
        a = sample_case_at(9, 4, registry, partition=True)
        b = sample_case_at(9, 4, registry, partition=True)
        assert a == b


@pytest.fixture(scope="module")
def campaign200(tmp_path_factory):
    """The acceptance sweep, run once and shared across its checks."""
    artifact_dir = tmp_path_factory.mktemp("psync-artifacts")
    report = fuzz(
        runs=200, seed=11, partition=True, artifact_dir=str(artifact_dir),
    )
    return report


class TestPartitionCampaign:
    def test_200_case_campaign_has_no_unhandled_exceptions(self, campaign200):
        """The acceptance sweep: every sampled GST/partition schedule
        ends in a decision, a recorded degradation, or a budgeted
        SimulationError whose shrunk artifact replays -- never an
        unhandled exception or an invariant violation."""
        report = campaign200
        assert report.partition
        assert len(report.cases) == 200
        # the escalation plane actually exercised itself.
        assert report.resyncs > 0
        assert report.escalated_cases > 0
        assert report.degradations.get("async_aa", 0) > 0
        assert "escalation:" in report.summary()
        # no monitor ever fired: the only acceptable failures are the
        # budgeted ladder-exhausted SimulationErrors of never-healing
        # partitions too small for the async rung.
        assert {f.kind for f in report.failures} <= {"SimulationError"}
        for failure in report.failures:
            assert "escalation ladder exhausted" in failure.message
            assert not failure.case.faults.heals
        # every failure shrank and replays from its artifact.
        assert len(report.artifacts) == len(report.failures)
        for failure, path in zip(report.failures, report.artifacts):
            assert failure.shrunk
            artifact = load_artifact(path)
            outcome = replay_artifact(artifact)
            assert outcome.violated and outcome.matches(artifact)

    def test_campaign_is_deterministic(self):
        a = fuzz(runs=8, seed=0, partition=True)
        b = fuzz(runs=8, seed=0, partition=True)
        assert [c.to_dict() for c in a.cases] == [
            c.to_dict() for c in b.cases
        ]
        assert a.summary() == b.summary()
        assert (a.resyncs, a.escalated_cases, a.degradations) == (
            b.resyncs, b.escalated_cases, b.degradations
        )

    def test_parallel_campaign_matches_serial(self):
        serial = fuzz(runs=8, seed=0, partition=True, workers=1)
        fanned = fuzz(runs=8, seed=0, partition=True, workers=3)
        assert serial.summary() == fanned.summary()
        assert serial.resyncs == fanned.resyncs
        assert serial.degradations == fanned.degradations

    def test_shrinking_keeps_the_load_bearing_window(self, campaign200):
        """The 4th ddmin axis removes partition/churn windows that do
        not matter -- but never the one the violation needs."""
        report = campaign200
        assert report.failures
        for failure in report.failures:
            # a ladder-exhausted failure needs its never-healing
            # window; shrinking must keep at least that one.
            assert failure.case.faults.partitions
            assert not failure.case.faults.heals


class TestCliPartition:
    def test_partition_flag_runs_and_reports(self, capsys):
        # seed 0 x 8 runs is clean (asserted deterministic above), so
        # the CLI exits 0 and labels the plane.
        code = main([
            "fuzz", "--runs", "8", "--seed", "0", "--partition", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "partition plane" in out
        assert "escalation:" in out

    def test_allow_budgeted_tolerates_ladder_exhaustion(self, capsys):
        # seed 2 x 20 runs contains budgeted ladder exhaustions and
        # nothing else: fatal by default, tolerated with the flag.
        argv = ["fuzz", "--runs", "20", "--seed", "2", "--partition",
                "--quiet"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "(budgeted)" in out
        assert main(argv + ["--allow-budgeted"]) == 0
        out = capsys.readouterr().out
        assert "tolerated (--allow-budgeted)" in out

    def test_budgeted_predicate_matches_only_ladder_exhaustion(self):
        report = fuzz(runs=20, seed=2, partition=True)
        assert report.failures
        assert not report.unbudgeted_failures
        for failure in report.failures:
            assert failure.budgeted
            assert failure.kind == "SimulationError"

    def test_replay_prints_psync_line(self, campaign200, capsys):
        report = campaign200
        assert report.artifacts
        assert main(["replay", report.artifacts[0]]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "psync" in out
