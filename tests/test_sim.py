"""Simulation substrate tests: sizing, metrics, context, scheduler."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.analysis.experiments import make_inputs
from repro.core.bitstrings import BitString
from repro.core.fixed_length import fixed_length_ca
from repro.errors import (
    ConfigurationError,
    HonestPartyError,
    SimulationError,
)
from repro.sim import (
    Adversary,
    Context,
    CrashAdversary,
    Outgoing,
    PassiveAdversary,
    ScriptedAdversary,
    SynchronousNetwork,
    bit_size,
    broadcast_round,
    exchange,
    run_protocol,
)
from repro.sim.adversary import DROP, AdaptiveCorruptionAdversary
from repro.perf import config, counters
from repro.sim.invariants import default_monitors
from repro.sim.metrics import CommunicationStats


class TestSizing:
    def test_none_is_one_bit(self):
        assert bit_size(None) == 1

    def test_bool_is_one_bit(self):
        assert bit_size(True) == 1
        assert bit_size(False) == 1

    def test_int_bit_length(self):
        assert bit_size(0) == 1
        assert bit_size(1) == 1
        assert bit_size(255) == 8
        assert bit_size(256) == 9

    def test_negative_int_adds_sign_bit(self):
        assert bit_size(-255) == 9

    def test_bytes(self):
        assert bit_size(b"abcd") == 32
        assert bit_size(b"") == 0

    def test_str_is_opcode(self):
        assert bit_size("VOTE") == 8

    def test_containers_sum(self):
        assert bit_size(("VOTE", 255)) == 16
        assert bit_size([1, 1, 1]) == 3
        assert bit_size({1: b"ab"}) == 1 + 16

    def test_bitstring_wire_bits(self):
        assert bit_size(BitString(5, 10)) == 10

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            bit_size(object())

    @given(st.integers(min_value=0, max_value=2**64))
    def test_int_size_matches_bit_length(self, v):
        assert bit_size(v) == max(1, v.bit_length())


class TestStats:
    def test_record_send(self):
        stats = CommunicationStats()
        stats.record_send(0, "a/b", 10)
        stats.record_send(1, "a/c", 5)
        assert stats.honest_bits == 15
        assert stats.honest_messages == 2
        assert stats.bits_by_party[0] == 10
        assert stats.bits_for_prefix("a/") == 15
        assert stats.bits_for_prefix("a/b") == 10
        assert stats.bits_for_prefix("z") == 0

    def test_channel_report_sorted(self):
        stats = CommunicationStats()
        stats.record_send(0, "small", 1)
        stats.record_send(0, "big", 100)
        report = stats.channel_report()
        assert report[0][0] == "big"

    def test_rounds(self):
        stats = CommunicationStats()
        stats.record_round()
        stats.record_round()
        assert stats.rounds == 2


class TestContext:
    def test_quorums(self):
        ctx = Context(party_id=0, n=7, t=2)
        assert ctx.quorum == 5
        assert ctx.pre_agreement == 3
        assert list(ctx.all_parties) == list(range(7))

    def test_basic_t_bounds(self):
        with pytest.raises(ConfigurationError):
            Context(party_id=0, n=3, t=3)
        with pytest.raises(ConfigurationError):
            Context(party_id=0, n=3, t=-1)

    def test_resilience_is_per_protocol(self):
        # the context itself allows any t < n; protocols declare their
        # own bounds via require_resilience.
        ctx = Context(party_id=0, n=3, t=1)
        with pytest.raises(ConfigurationError):
            ctx.require_resilience(3)
        ctx.require_resilience(2)  # t < n/2 protocols accept it

        ctx = Context(party_id=0, n=6, t=2)
        with pytest.raises(ConfigurationError):
            ctx.require_resilience(3)

    def test_t_zero_allowed(self):
        assert Context(party_id=0, n=1, t=0).quorum == 1

    def test_party_id_range(self):
        with pytest.raises(ConfigurationError):
            Context(party_id=7, n=7, t=2)
        with pytest.raises(ConfigurationError):
            Context(party_id=-1, n=7, t=2)

    def test_kappa_validation(self):
        with pytest.raises(ConfigurationError):
            Context(party_id=0, n=4, t=1, kappa=12)


def echo_protocol(ctx, v):
    """Broadcast the input, return the sorted list of received values."""
    inbox = yield from broadcast_round(ctx, "echo", v)
    return sorted(
        x for x in inbox.values() if isinstance(x, int)
    )


def two_round_protocol(ctx, v):
    inbox = yield from broadcast_round(ctx, "r1", v)
    total = sum(x for x in inbox.values() if isinstance(x, int))
    inbox = yield from broadcast_round(ctx, "r2", total)
    return max(x for x in inbox.values() if isinstance(x, int))


def straggler_protocol(ctx, v):
    """Party 0 runs six rounds, everyone else one."""
    for round_index in range(6 if ctx.party_id == 0 else 1):
        yield from broadcast_round(ctx, f"r{round_index}", v)
    return v


class TestScheduler:
    def test_all_honest_echo(self):
        result = run_protocol(echo_protocol, [1, 2, 3, 4], 4, 1)
        assert result.common_output() == [1, 2, 3, 4]
        assert result.stats.rounds == 1

    def test_self_messages_not_priced(self):
        result = run_protocol(echo_protocol, [1, 1, 1, 1], 4, 1)
        # 3 honest parties (one corrupted by default PassiveAdversary),
        # each sends 1 bit to 3 *other* parties.
        assert result.stats.honest_bits == 3 * 3 * bit_size(1)

    def test_passive_adversary_equals_honest(self):
        honest = run_protocol(echo_protocol, [5, 6, 7, 8], 4, 1,
                              adversary=PassiveAdversary())
        assert honest.common_output() == [5, 6, 7, 8]

    def test_crash_adversary_drops(self):
        result = run_protocol(echo_protocol, [5, 6, 7, 8], 4, 1,
                              adversary=CrashAdversary(0))
        # corrupted party (index 3) silent: only three values received.
        assert result.common_output() == [5, 6, 7]

    def test_corrupted_outputs_excluded(self):
        result = run_protocol(echo_protocol, [1, 2, 3, 4], 4, 1)
        assert set(result.outputs) == {0, 1, 2}
        assert result.honest_parties == [0, 1, 2]

    def test_channel_trace(self):
        result = run_protocol(two_round_protocol, [1, 2, 3, 4], 4, 1)
        assert result.channel_trace == ["r1", "r2"]

    def test_round_limit(self):
        def forever(ctx, v):
            while True:
                yield from broadcast_round(ctx, "loop", 0)

        with pytest.raises(SimulationError):
            run_protocol(forever, [0] * 4, 4, 1, max_rounds=10)

    def test_disagreement_detected(self):
        def disagree(ctx, v):
            yield from exchange("one", {})
            return ctx.party_id

        result = run_protocol(disagree, [0] * 4, 4, 1)
        with pytest.raises(SimulationError):
            result.common_output()

    def test_lockstep_violation_detected(self):
        def skewed(ctx, v):
            if ctx.party_id == 0:
                yield from exchange("channel_a", {})
            else:
                yield from exchange("channel_b", {})
            return 0

        with pytest.raises(SimulationError):
            run_protocol(skewed, [0] * 4, 4, 1)

    def test_inputs_dict_accepted(self):
        result = run_protocol(echo_protocol, {0: 1, 1: 2, 2: 3, 3: 4}, 4, 1)
        assert result.common_output() == [1, 2, 3, 4]

    def test_inputs_must_cover_parties(self):
        with pytest.raises(ConfigurationError):
            run_protocol(echo_protocol, {0: 1, 2: 3}, 4, 1)

    def test_non_outgoing_yield_rejected(self):
        def bad(ctx, v):
            yield {"not": "outgoing"}

        with pytest.raises(SimulationError):
            run_protocol(bad, [0] * 4, 4, 1)

    def test_messages_to_invalid_dest_dropped(self):
        def stray(ctx, v):
            messages = {dest: 1 for dest in ctx.all_parties}
            messages[99] = 1  # silently dropped, never delivered
            inbox = yield Outgoing(channel="x", messages=messages)
            return sorted(inbox)

        result = run_protocol(stray, [0] * 4, 4, 1)
        assert result.common_output() == [0, 1, 2, 3]

    def test_immediate_return(self):
        def instant(ctx, v):
            return v
            yield  # pragma: no cover - makes it a generator

        result = run_protocol(instant, [7] * 4, 4, 1)
        assert result.common_output() == 7

    def test_corrupting_the_last_running_party_ends_the_execution(self):
        # Parties 1-3 finish after one round; party 0 would run six.
        # Once it is adaptively corrupted no honest party is unfinished.
        adv = AdaptiveCorruptionAdversary(
            schedule=[(0, 0)], inner=PassiveAdversary()
        )
        result = run_protocol(straggler_protocol, [1, 2, 3, 4], 4, 1,
                              adversary=adv)
        assert result.stats.rounds == 2
        assert sorted(result.outputs) == [1, 2, 3]

    def test_a_down_straggler_keeps_the_scheduler_stepping(self):
        # Party 0 is the only unfinished party while it is down (rounds
        # 2-3): the scheduler idles through them, then replays it.
        nobody = AdaptiveCorruptionAdversary(
            schedule=[], inner=PassiveAdversary()
        )
        network = SynchronousNetwork(straggler_protocol, [1, 2, 3, 4], 4, 1,
                                     adversary=nobody, crashes=[(0, 2, 4)])
        steps = 0
        with counters.capture() as ops:
            network.begin()
            while network.step():
                steps += 1
            result = network.finish()
        assert sorted(result.outputs) == [0, 1, 2, 3]
        assert result.crash_log == [("down", 2, 0), ("up", 4, 0)]
        assert result.stats.rounds == 6
        assert steps == 9
        # Only generators actually touched are counted: all four in
        # rounds 0-1, nobody while party 0 is down, party 0 alone after.
        assert ops["sched_resumes"] == 4 + 4 + 5

    def test_run_is_idempotent_once_finished(self):
        network = SynchronousNetwork(echo_protocol, [1, 2, 3, 4], 4, 1)
        first = network.run()
        assert network.run().outputs == first.outputs
        assert network.stats.rounds == 1

    def test_determinism(self):
        def run():
            return run_protocol(
                two_round_protocol, [3, 1, 4, 1], 4, 1,
                adversary=CrashAdversary(1, seed=5),
            )

        a, b = run(), run()
        assert a.outputs == b.outputs
        assert a.stats.honest_bits == b.stats.honest_bits


def _everything(network, drive):
    """All an execution exposes (wall time aside) under ``drive``."""
    config.reset_process_caches()
    with counters.capture() as ops:
        result = drive(network)
    return {
        "outputs": result.outputs,
        "stats": dataclasses.replace(result.stats, wall_s=0.0),
        "channel_trace": result.channel_trace,
        "trace": result.trace,
        "crash_log": result.crash_log,
        "counters": ops,
    }


def _stepped(network):
    network.begin()
    while network.step():
        pass
    return network.finish()


class TestSteppingAPI:
    """``begin(); while step(): ...; finish()`` from outside is ``run()``
    (the perfbench traced run drives executions this way)."""

    PLANES = {
        "fast-path": lambda: {},
        "monitored": lambda: {"monitors": default_monitors(), "trace": True},
        "crash-plane": lambda: {
            "adversary": AdaptiveCorruptionAdversary(
                schedule=[], inner=PassiveAdversary()
            ),
            "crashes": [(0, 2, 4)],
            "trace": True,
        },
    }

    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("backend", config.available_backends())
    def test_outside_driver_equals_run(self, backend, plane):
        inputs = make_inputs(4, 48, seed=2, spread="clustered")

        def network():
            return SynchronousNetwork(
                lambda ctx, v: fixed_length_ca(ctx, v, 48), inputs, 4, 1,
                **self.PLANES[plane](),
            )

        with config.use_backend(backend):
            ran = _everything(network(), SynchronousNetwork.run)
            stepped = _everything(network(), _stepped)
        assert stepped == ran
        assert ran["counters"]["sched_resumes"] > 0
        if plane == "crash-plane":
            assert ran["crash_log"] == [("down", 2, 0), ("up", 4, 0)]

    def test_step_past_the_round_budget_raises_like_run(self):
        def forever(ctx, v):
            while True:
                yield from broadcast_round(ctx, "loop", 0)

        with pytest.raises(SimulationError) as ran:
            SynchronousNetwork(forever, [0] * 4, 4, 1, max_rounds=3).run()
        network = SynchronousNetwork(forever, [0] * 4, 4, 1, max_rounds=3)
        network.begin()
        assert [network.step() for _ in range(3)] == [True] * 3
        with pytest.raises(SimulationError) as stepped:
            network.step()
        assert str(stepped.value) == str(ran.value)
        assert stepped.value.outputs == ran.value.outputs == {}
        assert dataclasses.replace(
            stepped.value.stats, wall_s=0.0
        ) == dataclasses.replace(ran.value.stats, wall_s=0.0)


class TestAdversaryFramework:
    def test_corruption_budget_enforced(self):
        class Greedy(Adversary):
            def select_corruptions(self, n, t):
                return set(range(n))

        with pytest.raises(ConfigurationError):
            SynchronousNetwork(echo_protocol, [0] * 4, 4, 1, adversary=Greedy())

    def test_scripted_adversary_injects(self):
        def handler(view, src, dst, spec):
            return 99

        result = run_protocol(
            echo_protocol, [1, 2, 3, 4], 4, 1,
            adversary=ScriptedAdversary(handler),
        )
        assert result.common_output() == [1, 2, 3, 99]

    def test_scripted_adversary_drop(self):
        result = run_protocol(
            echo_protocol, [1, 2, 3, 4], 4, 1,
            adversary=ScriptedAdversary(lambda *a: DROP),
        )
        assert result.common_output() == [1, 2, 3]

    def test_rushing_adversary_sees_honest_traffic(self):
        seen = {}

        def handler(view, src, dst, spec):
            seen.update(view.honest_outgoing)
            return DROP

        run_protocol(
            echo_protocol, [1, 2, 3, 4], 4, 1,
            adversary=ScriptedAdversary(handler),
        )
        # The adversary observed honest messages of the same round,
        # including honest-to-honest ones.
        assert seen[(0, 1)] == 1

    def test_adaptive_corruption_takes_effect(self):
        # Corrupt party 0 after round 0; its round-1 traffic is then
        # controlled (dropped by the inner CrashAdversary).
        adv = AdaptiveCorruptionAdversary(
            schedule=[(0, 0)], inner=CrashAdversary(0)
        )
        result = run_protocol(two_round_protocol, [1, 2, 3, 4], 4, 1,
                              adversary=adv)
        assert 0 in result.corrupted
        # party 0 was honest in round 1, silent in round 2: the honest
        # parties' r2 view misses its total.
        assert set(result.outputs) == {1, 2, 3}

    def test_adaptive_budget_respected(self):
        adv = AdaptiveCorruptionAdversary(
            schedule=[(0, 0), (0, 1), (0, 2)], inner=CrashAdversary(0)
        )
        result = run_protocol(two_round_protocol, [1, 2, 3, 4], 4, 1,
                              adversary=adv)
        assert len(result.corrupted) <= 1

    def test_view_exposes_corrupted_inputs(self):
        captured = {}

        def handler(view, src, dst, spec):
            captured.update(view.corrupted_inputs)
            return spec if spec is not None else DROP

        run_protocol(
            echo_protocol, [1, 2, 3, 4], 4, 1,
            adversary=ScriptedAdversary(handler),
        )
        assert captured == {3: 4}

    def test_crashing_spec_code_tolerated(self):
        # A corrupted party's spec generator that raises must not kill
        # the simulation.
        def fragile(ctx, v):
            inbox = yield from broadcast_round(ctx, "r", v)
            if ctx.party_id == 3:
                raise RuntimeError("corrupted spec blew up")
            inbox = yield from broadcast_round(ctx, "r2", 1)
            return sorted(x for x in inbox.values() if isinstance(x, int))

        result = run_protocol(fragile, [1, 2, 3, 4], 4, 1)
        assert set(result.outputs) == {0, 1, 2}

    def test_honest_crash_propagates(self):
        def fragile(ctx, v):
            yield from broadcast_round(ctx, "r", v)
            if ctx.party_id == 0:
                raise RuntimeError("honest bug")
            return 0

        # honest crashes surface attributed, with the original
        # exception preserved as the cause (see docs/fault-model.md,
        # plane 6: the no-crash meta-invariant).
        with pytest.raises(HonestPartyError) as excinfo:
            run_protocol(fragile, [0] * 4, 4, 1)
        assert excinfo.value.party == 0
        assert isinstance(excinfo.value.__cause__, RuntimeError)
