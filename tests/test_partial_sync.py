"""Partial-synchrony resilience plane: the link schedule, PBFT-style
timeout escalation in the synchronizer, the supervisor's failover
ladder (optimal CA -> HighCostCA, both over the caller's transport), the
liveness envelope, and the partition/GST fuzz campaign whose verdicts
follow the model: a ladder exhausted by a partition that never heals is
tallied, one exhausted on a healing schedule is a failure."""

from __future__ import annotations

import json
import random

import pytest
from test_fuzz import canary_registry

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
    CommunicationStats,
    FaultSpec,
    LinkSchedule,
    LossyTransport,
    TransportTimeout,
    lossy,
    run_protocol,
    run_with_escalation,
)
from repro.sim.fuzz import (
    FuzzCase,
    fuzz,
    run_case_ex,
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
        assert LossyTransport().max_attempts == 1
        assert LossyTransport.partial_sync().max_attempts >= 2
        assert lossy.BUDGET_GROWTH >= 2

    @pytest.mark.parametrize("max_attempts", [0, True, 2.5])
    def test_invalid_max_attempts_rejected(self, max_attempts):
        with pytest.raises(ConfigurationError):
            LossyTransport(max_attempts=max_attempts)

    def test_budget_grows_exponentially_up_to_cap(self):
        """A never-healing partition spends every attempt's whole
        budget and one beacon slot between attempts."""
        for slot_budget, attempts, slots in (
            (16, 3, 16 + 1 + 32 + 1 + 64),
            # the cap is 1 << 15 ...
            (20_000, 2, 20_000 + 1 + (1 << 15)),
            # ... and a budget already above it never shrinks.
            (40_000, 2, 40_000 + 1 + 40_000),
        ):
            transport = LossyTransport.partial_sync(
                partitions=((0, -1, (0,)),), slot_budget=slot_budget,
                max_attempts=attempts,
            )
            with pytest.raises(TransportTimeout, match=(
                f"after {slots} slots across {attempts} attempt"
            )):
                transport.synchronize(
                    0, {(0, 1): 8, (1, 0): 8}, CommunicationStats()
                )
            assert transport.clock == slots


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
        assert transport.max_attempts == 6
        assert transport.slot_budget == 64
        # a plain transport keeps the classic die-on-first-timeout.
        assert LossyTransport(schedule=transport.schedule).max_attempts == 1

    def test_ready_schedule_and_fields_do_not_mix(self):
        schedule = LinkSchedule(gst=10)
        assert LossyTransport.partial_sync(schedule).schedule is schedule
        with pytest.raises(ConfigurationError, match="not both"):
            LossyTransport.partial_sync(schedule, gst=10)

    def test_lossy_type_validation(self):
        with pytest.raises(ConfigurationError):
            LossyTransport(slot_budget="many")
        with pytest.raises(ConfigurationError):
            LossyTransport(slot_budget=True)
        with pytest.raises(ConfigurationError):
            LossyTransport(max_attempts="many")

    def test_backoff_exponent_is_capped_before_exponentiation(self):
        transport = LossyTransport()
        # attempt counts far beyond the cap (16) return it directly --
        # the old code built a 2**300 intermediate first.
        assert transport._backoff(300) == 16
        assert transport._backoff(4) == 16
        assert transport._backoff(2) == 4

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
        assert transport.max_attempts == 6
        assert transport.seed != spec.seed

    def test_partition_only_spec_builds_psync_transport(self):
        spec = FaultSpec(partitions=((0, 50, (1, 2)),))
        transport = LossyTransport.from_spec(spec)
        assert transport.schedule == spec.schedule
        assert transport.schedule.partitions == ((0, 50, frozenset({1, 2})),)

    def test_link_only_spec_still_builds_plain_lossy(self):
        spec = FaultSpec(link_drop=0.2)
        transport = LossyTransport.from_spec(spec)
        assert spec.schedule is None and transport.schedule is None
        assert transport.max_attempts == 1
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

    def test_pre_gst_loss_takes_the_perfect_network_rounds(self):
        """The synchronizer spends slots, never rounds: pre-GST loss
        leaves the logical round count, and so every round budget,
        where the perfect network has it."""
        transport = LossyTransport.partial_sync(gst=200, pre_gst_drop=0.6, seed=8)
        baseline = run_protocol(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
        )
        result = run_protocol(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
            transport=transport,
        )
        assert transport.clock > baseline.stats.rounds
        assert result.stats.rounds == baseline.stats.rounds
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
# canary (b): a never-healing partition exhausts the ladder
# ---------------------------------------------------------------------------


def _never_healing(seed=5, members=(0, 1)):
    return LossyTransport.partial_sync(
        partitions=((0, -1, tuple(members)),), seed=seed,
        slot_budget=16, max_attempts=3,
    )


class TestFailoverLadder:
    def test_never_healing_partition_exhausts_both_rungs(self):
        # n=7, t=1: the ladder is primary -> HighCostCA whatever the
        # resilience, and both ride the same severed links.
        with pytest.raises(
            SimulationError, match="escalation ladder exhausted"
        ) as exc:
            run_with_escalation(
                flca_factory(), [3, 5, 7, 9, 11, 13, 15], n=7, t=1,
                kappa=KAPPA, transport=_never_healing(),
            )
        entries = str(exc.value).split(": ", 1)[1].split(" | ")
        assert [entry.split(":")[0] for entry in entries] == [
            "primary", "transport", "high_cost_ca",
        ]
        assert entries[-1].startswith("high_cost_ca: SimulationError")
        assert "partial-sync(partitions=1)" in entries[0]
        assert exc.value.stats.resync_attempts > 0

    def test_exhausted_ladder_raises_budgeted_simulation_error(self):
        # n=4, t=1 with one party cut off for good: both rungs spend
        # their slot budget on the severed links, and the exhaustion is
        # raised with the primary's effort on the error.
        with pytest.raises(
            SimulationError, match="escalation ladder exhausted"
        ) as exc:
            run_with_escalation(
                flca_factory(), [1, 2, 3, 4], n=4, t=1, kappa=KAPPA,
                transport=_never_healing(members=(0,)),
            )
        message = str(exc.value)
        assert "primary:" in message
        assert "high_cost_ca: SimulationError" in message
        assert "decided" not in message
        assert exc.value.stats.resync_attempts > 0

    def test_without_epsilon_the_ladder_ends_after_high_cost_ca(self):
        # n=7, t=1 meets 5t < n, yet no rung follows HighCostCA: the
        # ladder ends in exact agreement or in the exhaustion.
        with pytest.raises(
            SimulationError, match="escalation ladder exhausted"
        ) as exc:
            run_with_escalation(
                flca_factory(), [3, 5, 7, 9, 11, 13, 15], n=7, t=1,
                kappa=KAPPA, transport=_never_healing(),
            )
        message = str(exc.value)
        assert message.split(" | ")[-1].startswith(
            "high_cost_ca: SimulationError"
        )
        assert "async_aa" not in message
        assert "decided" not in message

    def test_invalid_epsilon_rejected(self):
        # the ladder accepts no epsilon at all: asking for
        # epsilon-agreement is refused at the call.
        with pytest.raises(TypeError, match="epsilon"):
            run_with_escalation(
                flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA, epsilon=1,
            )

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
        assert result.fallback.history[-1] == "high_cost_ca: decided"

    def test_clean_run_has_no_fallback(self):
        result = run_with_escalation(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
        )
        assert result.fallback is None
        result.assert_convex_valid(INPUTS7)


class TestFallbackRecordSerialization:
    def _record(self):
        result = run_with_escalation(
            flca_factory(), INPUTS7, n=7, t=2, kappa=KAPPA,
            monitors=[BitBudgetMonitor(total=1)],
        )
        return result.fallback

    def test_round_trips_through_json(self):
        record = self._record()
        data = record.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert record.trigger == "ProtocolViolation"
        assert data["trigger"] == "ProtocolViolation"
        assert record.primary_stats.honest_bits > 0
        assert data["primary_stats"]["honest_bits"] == (
            record.primary_stats.honest_bits
        )


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


def _partition_case(heal):
    """One partitioned case the ladder cannot finish before ``heal``."""
    return FuzzCase(
        protocol="fixed_length_ca", n=4, t=1, ell=8, kappa=KAPPA,
        spread="spread", adversaries=("passive",),
        faults=FaultSpec(partitions=((0, heal, (0, 1)),), seed=3), seed=3,
    )


class TestPartitionVerdict:
    """The verdict is read off the case: ``FaultSpec.heals``."""

    def test_never_healing_exhaustion_is_a_verdict(self):
        case = _partition_case(heal=-1)
        assert not case.faults.heals
        failure, stats = run_case_ex(case)
        assert failure is None
        assert stats.rung == "exhausted"
        assert stats.resyncs > 0 and stats.bits == 0

    def test_healing_exhaustion_stays_a_failure(self):
        # the same links, healed long after every budget ran out: in the
        # model, so an exhausted ladder is a reported failure.
        case = _partition_case(heal=1_000_000)
        assert case.faults.heals
        failure, stats = run_case_ex(case)
        assert failure.kind == "SimulationError"
        assert "escalation ladder exhausted" in failure.message
        assert stats.rung is None


@pytest.fixture(scope="module")
def campaign100():
    """The seed-11 acceptance sweep, run once and shared."""
    return fuzz(runs=100, seed=11, partition=True)


@pytest.fixture(scope="module")
def canary_campaign(tmp_path_factory):
    """A protocol bug on the partition plane: ``weak_flca`` (GetOutput
    skipped) caught once in 12 cases, shrunk and archived."""
    artifact_dir = tmp_path_factory.mktemp("canary-artifacts")
    return fuzz(
        runs=12, seed=1, registry_builder=canary_registry, partition=True,
        artifact_dir=str(artifact_dir),
    )


class TestPartitionCampaign:
    def test_never_healing_partitions_are_tallied_not_failed(
        self, campaign100
    ):
        """Every sampled GST/partition schedule ends in a decision or,
        on a partition that never heals, in an exhausted ladder -- never
        a failure, and never a decision off the caller's network."""
        report = campaign100
        assert report.partition
        assert len(report.cases) == 100
        assert report.failures == []
        assert report.degradations == {"exhausted": 10}
        assert sum(not case.faults.heals for case in report.cases) >= 10
        # the escalation plane actually exercised itself.
        assert report.resyncs > 0
        assert report.escalated_cases > 0
        assert "degraded -> exhausted: 10" in report.summary()

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

    def test_shrinking_keeps_the_load_bearing_window(self, canary_campaign):
        """The fourth ddmin axis removes partition/churn windows that do
        not matter -- but never the one the violation needs."""
        [failure] = canary_campaign.failures
        assert failure.kind == "ConvexValidityMonitor"
        sampled = canary_campaign.cases[5]
        assert sampled.seed == failure.case.seed

        def windows(case):
            return len(case.faults.partitions) + len(case.faults.link_churn)

        assert (windows(sampled), windows(failure.case)) == (3, 1)


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

    def test_never_healing_partitions_exit_zero(self, capsys):
        # seed 2 x 20 runs holds three never-healing partitions that
        # exhaust the ladder: verdicts, so the campaign is green.
        code = main([
            "fuzz", "--runs", "20", "--seed", "2", "--partition", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 failure(s)" in out and "exhausted: 3" in out

    def test_replay_prints_psync_line(
        self, canary_campaign, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.sim.fuzz.standard_registry", canary_registry
        )
        assert main(["replay", canary_campaign.artifacts[0]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verdict  : REPRODUCED" in lines
        assert "psync    : gst=251 partitions=0 churn=1" in lines
