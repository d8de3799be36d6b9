"""Online invariant monitors: unit behaviour and network integration."""

from __future__ import annotations

import pytest

from repro import convex_agreement
from repro.core import protocol_z
from repro.errors import ProtocolViolation, SimulationError
from repro.sim import (
    AgreementMonitor,
    BitBudgetMonitor,
    ConvexValidityMonitor,
    LockstepMonitor,
    RoundBudgetMonitor,
    SynchronousNetwork,
    broadcast_round,
    default_monitors,
    default_round_budget,
    paper_bit_budget,
    paper_round_budget,
    run_protocol,
)

KAPPA = 64


# ---------------------------------------------------------------------------
# toy protocols driving the monitors
# ---------------------------------------------------------------------------


def echo_protocol(ctx, v):
    """One broadcast round; output the own input (convex, agreeing iff
    all inputs agree)."""
    yield from broadcast_round(ctx, "echo", v)
    return v


def constant_protocol(value):
    def proto(ctx, v):
        yield from broadcast_round(ctx, "const", v)
        return value

    return proto


def chatty_protocol(rounds):
    def proto(ctx, v):
        for index in range(rounds):
            yield from broadcast_round(ctx, f"chat/{index}", v)
        return v

    return proto


def run_monitored(factory, inputs, n, t, monitors):
    return run_protocol(
        factory, inputs, n=n, t=t, kappa=KAPPA,
        trace=True, monitors=monitors,
    )


# ---------------------------------------------------------------------------
# budget envelopes
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_bit_budget_positive_and_monotone(self):
        base = paper_bit_budget(4, 1, 64, 64)
        assert base > 0
        assert paper_bit_budget(8, 2, 64, 64) > base
        assert paper_bit_budget(4, 1, 1 << 12, 64) > base
        assert paper_bit_budget(4, 1, 64, 128) > base

    def test_round_budget_positive_and_monotone(self):
        base = paper_round_budget(4, 1, 64)
        assert base > 0
        assert paper_round_budget(7, 2, 64) > base
        assert paper_round_budget(4, 1, 1 << 12) > base

    def test_default_round_budget_floor(self):
        assert default_round_budget(4, 1) >= 10_000
        assert default_round_budget(31, 10) > default_round_budget(4, 1)

    def test_pi_z_fits_inside_the_paper_envelopes(self):
        """The reference implementation must never trip its own budgets."""
        inputs = [100, 120, 140, 103, 115, 131, 127]
        n, t, ell = 7, 2, 8
        result = run_monitored(
            lambda ctx, v: protocol_z(ctx, v), inputs, n, t,
            default_monitors(
                bit_budget=paper_bit_budget(n, t, ell, KAPPA),
                round_budget=paper_round_budget(n, t, ell),
            ),
        )
        result.assert_convex_valid(inputs)


# ---------------------------------------------------------------------------
# individual monitors
# ---------------------------------------------------------------------------


class TestAgreementMonitor:
    def test_catches_disagreement(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(echo_protocol, [1, 2, 3, 4], 4, 0,
                          [AgreementMonitor()])
        assert excinfo.value.monitor == "AgreementMonitor"
        assert "disagree" in str(excinfo.value)

    def test_clean_on_agreement(self):
        result = run_monitored(echo_protocol, [9, 9, 9, 9], 4, 0,
                               [AgreementMonitor()])
        assert result.common_output() == 9


#: 16,384-bit values: 4,933 decimal digits, past CPython's 4300-digit
#: limit on int -> str, so repr() of one raises ValueError.
LONG = [(1 << 16383) + i for i in range(4)]


class TestVerdictsOnLongValues:
    """A monitor that cannot print a value still has to judge it."""

    def test_monitored_run_ends_in_a_value_inside_the_hull(self):
        outcome = convex_agreement(
            LONG, kappa=KAPPA, monitors=[AgreementMonitor()],
        )
        assert min(LONG) <= outcome.value <= max(LONG)

    def test_disagreement_is_a_violation_not_a_value_error(self):
        with pytest.raises(ProtocolViolation, match="disagree") as excinfo:
            run_monitored(echo_protocol, [LONG[0]] * 3 + [LONG[1]], 4, 0,
                          [AgreementMonitor()])
        # bounded, and it shows the end where the two values differ.
        message = str(excinfo.value)
        assert len(message) < 1_000
        assert "0000'" in message and "0001'" in message

    def test_hull_escape_is_a_violation_not_a_value_error(self):
        with pytest.raises(ProtocolViolation, match="outside the honest"):
            run_monitored(constant_protocol(LONG[3] + 1), LONG, 4, 0,
                          [ConvexValidityMonitor()])

    def test_result_helpers_report_instead_of_crashing(self):
        split = run_monitored(echo_protocol, LONG, 4, 0, [])
        with pytest.raises(SimulationError, match="disagree"):
            split.common_output()
        agreed = run_monitored(constant_protocol(LONG[3] + 1), LONG, 4, 0, [])
        with pytest.raises(ProtocolViolation, match="outside honest hull"):
            agreed.assert_convex_valid(LONG)


class TestConvexValidityMonitor:
    def test_catches_output_outside_hull(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(constant_protocol(1_000), [1, 2, 3, 4], 4, 0,
                          [ConvexValidityMonitor()])
        assert excinfo.value.monitor == "ConvexValidityMonitor"
        assert "outside the honest hull" in str(excinfo.value)

    def test_clean_inside_hull(self):
        run_monitored(constant_protocol(2), [1, 2, 3, 4], 4, 0,
                      [ConvexValidityMonitor()])

    def test_explicit_hull_overrides_captured(self):
        with pytest.raises(ProtocolViolation):
            run_monitored(
                constant_protocol(2), [1, 2, 3, 4], 4, 0,
                [ConvexValidityMonitor(honest_inputs=[10, 20])],
            )

    def test_non_integer_inputs_are_skipped(self):
        """A protocol over non-integer inputs has no hull to check."""

        def proto(ctx, v):
            yield from broadcast_round(ctx, "s", v)
            return v

        run_monitored(proto, ["a", "a", "a", "a"], 4, 0,
                      [ConvexValidityMonitor()])

    def test_violation_carries_trace(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(constant_protocol(-5), [1, 2, 3, 4], 4, 0,
                          [ConvexValidityMonitor()])
        assert excinfo.value.trace is not None
        assert len(excinfo.value.trace) >= 1


class TestLockstepMonitor:
    def test_catches_diverging_channels(self):
        def skewed(ctx, v):
            channel = "left" if ctx.party_id % 2 == 0 else "right"
            yield from broadcast_round(ctx, channel, v)
            return v

        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(skewed, [1, 1, 1, 1], 4, 0, [LockstepMonitor()])
        assert excinfo.value.monitor == "LockstepMonitor"
        assert excinfo.value.record is not None
        assert set(excinfo.value.record.honest_channels) == {"left", "right"}


class TestBitBudgetMonitor:
    def test_requires_a_budget(self):
        with pytest.raises(ValueError):
            BitBudgetMonitor()

    def test_total_budget_fires(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(chatty_protocol(4), [1, 1, 1, 1], 4, 0,
                          [BitBudgetMonitor(total=8)])
        assert "exceeded the budget" in str(excinfo.value)
        assert excinfo.value.record is not None

    def test_per_channel_prefix_budget(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(
                chatty_protocol(4), [1, 1, 1, 1], 4, 0,
                [BitBudgetMonitor(per_channel={"chat/2": 1})],
            )
        assert "chat/2" in str(excinfo.value)

    def test_generous_budget_is_clean(self):
        run_monitored(chatty_protocol(4), [1, 1, 1, 1], 4, 0,
                      [BitBudgetMonitor(total=1 << 20)])


class TestRoundBudgetMonitor:
    def test_requires_positive_limit(self):
        with pytest.raises(ValueError):
            RoundBudgetMonitor(0)

    def test_fires_on_excess_rounds(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_monitored(chatty_protocol(5), [1, 1, 1, 1], 4, 0,
                          [RoundBudgetMonitor(limit=2)])
        assert excinfo.value.monitor == "RoundBudgetMonitor(limit=2)"

    def test_exact_limit_is_clean(self):
        run_monitored(chatty_protocol(3), [1, 1, 1, 1], 4, 0,
                      [RoundBudgetMonitor(limit=3)])


class TestDefaultMonitors:
    def test_composition(self):
        stack = default_monitors(bit_budget=1 << 20, round_budget=100)
        names = [type(m).__name__ for m in stack]
        assert names == [
            "LockstepMonitor",
            "AgreementMonitor",
            "ConvexValidityMonitor",
            "CrashBudgetMonitor",
            "BitBudgetMonitor",
            "RoundBudgetMonitor",
        ]

    def test_budgetless_stack(self):
        stack = default_monitors()
        assert len(stack) == 4

    def test_full_stack_on_pi_z(self):
        inputs = [5, 6, 7, 8]
        result = run_monitored(
            lambda ctx, v: protocol_z(ctx, v), inputs, 4, 1,
            default_monitors(
                bit_budget=paper_bit_budget(4, 1, 4, KAPPA),
                round_budget=paper_round_budget(4, 1, 4),
            ),
        )
        result.assert_convex_valid(inputs)


# ---------------------------------------------------------------------------
# ExecutionResult.assert_convex_valid
# ---------------------------------------------------------------------------


class TestAssertConvexValid:
    def test_returns_common_output(self):
        inputs = [3, 4, 5, 6]
        result = run_protocol(
            lambda ctx, v: protocol_z(ctx, v), inputs, 4, 1, kappa=KAPPA
        )
        value = result.assert_convex_valid(inputs)
        assert value == result.common_output()

    def test_accepts_dict_inputs(self):
        inputs = {0: 3, 1: 4, 2: 5, 3: 6}
        result = run_protocol(
            lambda ctx, v: protocol_z(ctx, v), inputs, 4, 1, kappa=KAPPA
        )
        result.assert_convex_valid(inputs)

    def test_raises_tagged_violation(self):
        result = run_protocol(
            lambda ctx, v: protocol_z(ctx, v), [3, 4, 5, 6], 4, 1,
            kappa=KAPPA,
        )
        with pytest.raises(ProtocolViolation) as excinfo:
            result.assert_convex_valid([100, 200, 300, 400])
        assert excinfo.value.monitor == "assert_convex_valid"


# ---------------------------------------------------------------------------
# graceful degradation: partial state on non-termination
# ---------------------------------------------------------------------------


class TestGracefulDegradation:
    def test_round_limit_error_carries_partial_state(self):
        from repro.errors import SimulationError

        def forever(ctx, v):
            while True:
                yield from broadcast_round(ctx, "spin", v)

        network = SynchronousNetwork(
            forever, [1, 1, 1, 1], n=4, t=0, kappa=KAPPA,
            max_rounds=5, trace=True,
        )
        with pytest.raises(SimulationError) as excinfo:
            network.run()
        error = excinfo.value
        assert error.trace is not None and len(error.trace) == 5
        assert error.stats is not None and error.stats.rounds == 5
        assert error.outputs == {}


# ---------------------------------------------------------------------------
# envelope margins: the search engine's fitness signal (satellite)
# ---------------------------------------------------------------------------


class TestEnvelopeMargins:
    def test_arithmetic_and_outlier_predicates(self):
        from repro.sim.invariants import EnvelopeMargins

        inside = EnvelopeMargins(
            bits_used=600, bit_budget=1000, rounds_used=5, round_budget=20
        )
        assert inside.bit_margin == 400
        assert inside.round_margin == 15
        assert inside.bit_fraction == pytest.approx(0.6)
        assert inside.round_fraction == pytest.approx(0.25)
        assert inside.nonnegative

        outlier = EnvelopeMargins(
            bits_used=1200, bit_budget=1000, rounds_used=5, round_budget=20
        )
        assert outlier.bit_margin == -200
        assert outlier.bit_fraction > 1.0
        assert not outlier.nonnegative

        degenerate = EnvelopeMargins(
            bits_used=0, bit_budget=0, rounds_used=0, round_budget=0
        )
        assert degenerate.bit_fraction == 0.0
        assert degenerate.nonnegative

    def test_registry_grid_stays_inside_envelopes(self):
        """Every registry protocol, on a small (n, t) x ell grid under a
        passive adversary: both margins non-negative (the budgets are
        sound), and the slack is monotone non-decreasing in ell (the
        envelopes grow at least as fast as the protocols' true cost --
        the property that makes margin *pressure* a useful search
        signal).  Weak monotonicity because ``ell_for`` clamps small
        ells for the block-family protocols."""
        from repro.sim.faults import FaultSpec
        from repro.sim.fuzz import FuzzCase, run_case_ex, standard_registry

        registry = standard_registry()
        for name in sorted(registry):
            spec = registry[name]
            for n, t in ((4, 1), (7, 2)):
                bit_margins, round_margins = [], []
                for ell in (16, 64, 256):
                    case = FuzzCase(
                        protocol=name, n=n, t=t,
                        ell=spec.ell_for(n, ell), kappa=KAPPA, spread=8,
                        adversaries=("passive",), faults=FaultSpec(),
                        seed=11,
                    )
                    failure, stats = run_case_ex(case, registry)
                    assert failure is None, (name, n, t, ell, failure.kind)
                    margins = stats.margins()
                    assert margins.nonnegative, (name, n, t, ell)
                    assert 0.0 < margins.bit_fraction < 1.0
                    bit_margins.append(margins.bit_margin)
                    round_margins.append(margins.round_margin)
                label = (name, n, t)
                assert bit_margins == sorted(bit_margins), label
                assert round_margins == sorted(round_margins), label
