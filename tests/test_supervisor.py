"""Graceful degradation: the supervisor catches monitor violations and
simulation failures and reruns the inputs through HighCostCA over the
caller's own network, so a supervised call ends with a convex-valid
output whenever that network can carry one -- and the fallback is
recorded, never silent.  (The ladder's rung order on a partition that
never heals is exercised in tests/test_partial_sync.py.)"""

from __future__ import annotations

import importlib

import pytest

from repro import convex_agreement
from repro.core.fixed_length import fixed_length_ca
from repro.errors import ProtocolViolation, SimulationError
from repro.sim import (
    BitBudgetMonitor,
    FallbackRecord,
    LossyTransport,
    RoundBudgetMonitor,
    broadcast_round,
    run_with_escalation,
)

KAPPA = 64
#: the module itself (``repro.core.high_cost_ca`` the attribute is the
#: function): the supervisor imports its rung from here on every call.
high_cost_module = importlib.import_module("repro.core.high_cost_ca")


def flca_factory(ell=8):
    return lambda ctx, v: fixed_length_ca(ctx, v, ell)


class TestCleanRun:
    def test_no_fallback_on_healthy_execution(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_with_escalation(
            flca_factory(), inputs, n=7, t=2, kappa=KAPPA,
        )
        result.assert_convex_valid(inputs)
        assert result.fallback is None


class TestCanary:
    """Force a Pi_lBA+ budget violation; the supervisor must land the
    execution on HighCostCA with Agreement + Convex Validity intact."""

    def test_budget_violation_degrades_to_high_cost_ca(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        # The find-prefix subprotocol of FixedLengthCA runs on channel
        # "flca/fp"; a 1-bit budget is unsatisfiable, so the monitor
        # fires mid-execution.
        monitor = BitBudgetMonitor(per_channel={"flca/fp": 1})
        result = run_with_escalation(
            flca_factory(), inputs, n=7, t=2, kappa=KAPPA,
            monitors=[monitor],
        )
        value = result.assert_convex_valid(inputs)
        assert min(inputs) <= value <= max(inputs)
        record = result.fallback
        assert isinstance(record, FallbackRecord)
        assert record.trigger == "ProtocolViolation"
        assert record.monitor.startswith("BitBudgetMonitor")
        assert record.primary_stats is not None
        assert "HighCostCA" in record.describe()

    def test_unsupervised_violation_still_raises(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        from repro.sim import run_protocol

        with pytest.raises(ProtocolViolation):
            run_protocol(
                flca_factory(), inputs, n=7, t=2, kappa=KAPPA,
                monitors=[BitBudgetMonitor(per_channel={"flca/fp": 1})],
            )


class TestTransportFailure:
    def test_transport_timeout_degrades(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        # A 4-slot budget under drop=0.95 cannot synchronize any round
        # -- of the primary or of HighCostCA, which gets no better
        # network than the caller has: the ladder is exhausted, with
        # both attempts on record.
        transport = LossyTransport(drop=0.95, seed=3, slot_budget=4)
        with pytest.raises(
            SimulationError, match="escalation ladder exhausted"
        ) as caught:
            run_with_escalation(
                flca_factory(), inputs, n=7, t=2, kappa=KAPPA,
                transport=transport,
            )
        primary, high_cost = str(caught.value).split(" | ")
        assert "primary: SimulationError: round 0" in primary
        assert high_cost.startswith("high_cost_ca: SimulationError: round 0")
        assert caught.value.stats.transport_slots == 4
        assert transport.clock == 8  # both rungs spent their budget


def _partitioned(heal):
    return LossyTransport.partial_sync(
        partitions=((0, heal, (0, 1, 2)),), slot_budget=8, max_attempts=2,
    )


class TestDegradeOverTheCallersTransport:
    """``degrade=True`` has no perfect network to fall back onto."""

    INPUTS = [3, 5, 7, 9, 11, 13, 15]

    def test_never_healing_partition_raises_with_its_history(self):
        with pytest.raises(
            SimulationError, match="escalation ladder exhausted"
        ) as caught:
            convex_agreement(
                self.INPUTS, t=2, kappa=KAPPA, degrade=True,
                transport=_partitioned(heal=-1),
            )
        message = str(caught.value)
        assert "primary:" in message and "high_cost_ca:" in message

    def test_degrade_never_returns_an_epsilon_agreement(self):
        # n=7, t=1 satisfies 5t < n, yet the API asked for
        # common_output(): the ladder ends after HighCostCA and raises.
        with pytest.raises(
            SimulationError, match="escalation ladder exhausted"
        ) as caught:
            convex_agreement(
                self.INPUTS, t=1, kappa=KAPPA, degrade=True,
                transport=_partitioned(heal=-1),
            )
        last = str(caught.value).split(" | ")[-1]
        assert last.startswith("high_cost_ca: SimulationError")

    def test_partition_healing_inside_the_rung_is_outwaited(self):
        # the primary exhausts 8 + 1 + 16 slots at clock 25; the heal at
        # slot 30 lands inside the HighCostCA rung, on the same clock.
        outcome = convex_agreement(
            self.INPUTS, t=2, kappa=KAPPA, degrade=True,
            transport=_partitioned(heal=30),
        )
        assert outcome.value == 7
        fallback = outcome.execution.fallback
        assert fallback.history[-1] == "high_cost_ca: decided"
        assert outcome.execution.stats.transport_slots == 20


class TestOffsetEmbedding:
    def test_negative_inputs_are_shifted_and_unshifted(self):
        # PI_Z accepts signed inputs; HighCostCA needs naturals.  The
        # supervisor shifts on the way in and un-shifts the outputs.
        inputs = [-1005, -1004, -1003, -1003, -1002, -1001, -1000]
        outcome = convex_agreement(
            inputs, t=2, kappa=KAPPA, degrade=True,
        )
        assert min(inputs) <= outcome.value <= max(inputs)

    def test_non_integer_inputs_propagate_the_primary_failure(self):
        def broken_factory(ctx, v):
            raise SimulationError("boom")
            yield  # pragma: no cover

        with pytest.raises(SimulationError, match="^boom$"):
            run_with_escalation(
                broken_factory, ["a", "b", "c", "d"], n=4, t=1, kappa=KAPPA,
            )


class TestApiIntegration:
    def test_degrade_flag_records_fallback(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        outcome = convex_agreement(
            inputs, t=2, kappa=KAPPA, degrade=True,
            monitors=[BitBudgetMonitor(total=1)],
        )
        assert min(inputs) <= outcome.value <= max(inputs)
        assert outcome.execution.fallback is not None

    def test_degrade_flag_is_transparent_when_clean(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        plain = convex_agreement(inputs, t=2, kappa=KAPPA)
        supervised = convex_agreement(inputs, t=2, kappa=KAPPA, degrade=True)
        assert supervised.value == plain.value
        assert supervised.execution.fallback is None


class TestFallbackIsJudged:
    """No monitor watches the ``HighCostCA`` rung, so the supervisor
    judges its decision with the monitors' own checks.  The rung is
    replaced by a stub deciding fixed per-party values; party 3 is
    corrupted (the default corruption set), so its input and output are
    outside the hull."""

    INPUTS = [10, 20, 30, 99]

    @staticmethod
    def echo(ctx, v):
        yield broadcast_round(ctx, "echo", v)
        return v

    def degrade_to(self, monkeypatch, outputs):
        def stub(ctx, v, channel):
            yield broadcast_round(ctx, channel, v)
            return outputs[ctx.party_id]

        monkeypatch.setattr(high_cost_module, "high_cost_ca", stub)
        # a 1-bit budget fires in the echo round: every run descends.
        return run_with_escalation(
            self.echo, self.INPUTS, n=4, t=1, kappa=KAPPA,
            monitors=[BitBudgetMonitor(total=1)],
        )

    def test_disagreeing_outputs_fail(self, monkeypatch):
        with pytest.raises(ProtocolViolation) as caught:
            self.degrade_to(monkeypatch, [20, 20, 30, 99])
        assert caught.value.monitor == "AgreementMonitor"

    def test_outputs_outside_the_honest_hull_fail(self, monkeypatch):
        with pytest.raises(ProtocolViolation) as caught:
            self.degrade_to(monkeypatch, [31, 31, 31, 20])
        assert caught.value.monitor == "ConvexValidityMonitor"

    def test_agreement_inside_the_hull_passes(self, monkeypatch):
        for outputs in ([30, 30, 30, 99], [10, 10, 10, 0]):
            result = self.degrade_to(monkeypatch, outputs)
            assert result.fallback is not None
            assert result.common_output() == outputs[0]

    def test_a_primary_result_is_left_to_its_monitors(self, monkeypatch):
        monkeypatch.setattr(high_cost_module, "high_cost_ca", None)
        # the echo primary disagrees, but no monitor is attached: the
        # supervisor returns it as it is.
        result = run_with_escalation(
            self.echo, self.INPUTS, n=4, t=1, kappa=KAPPA,
        )
        assert result.fallback is None
        assert result.outputs == {0: 10, 1: 20, 2: 30}

    def test_degrade_never_returns_a_value_outside_the_hull(
        self, monkeypatch
    ):
        real = high_cost_module.high_cost_ca

        def off_by_far(ctx, v, channel):
            yield from real(ctx, v, channel=channel)
            return 10_000

        monkeypatch.setattr(high_cost_module, "high_cost_ca", off_by_far)
        with pytest.raises(ProtocolViolation) as caught:
            convex_agreement(
                [3, 4, 5, 6], kappa=KAPPA, degrade=True,
                monitors=[RoundBudgetMonitor(1)],
            )
        assert caught.value.monitor == "ConvexValidityMonitor"
