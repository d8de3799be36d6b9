"""Fault-injection plane: specs, injectors, composition, record/replay,
determinism, and adaptive-corruption clipping visibility."""

from __future__ import annotations

import random

import pytest

from repro.core import protocol_z
from repro.errors import ConfigurationError
from repro.sim import (
    Adversary,
    ComposedAdversary,
    CrashAdversary,
    EquivocatingAdversary,
    Event,
    FaultInjector,
    FaultSpec,
    PassiveAdversary,
    RecordingAdversary,
    ReplayAdversary,
    SplitVoteAdversary,
    run_protocol,
)
from repro.sim.faults import _garble

KAPPA = 64


def run_pi_z(inputs, n, t, adversary, **kwargs):
    return run_protocol(
        lambda ctx, v: protocol_z(ctx, v), inputs, n=n, t=t,
        kappa=KAPPA, adversary=adversary, **kwargs,
    )


# ---------------------------------------------------------------------------
# FaultSpec
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=1.5)
        with pytest.raises(ValueError):
            FaultSpec(replay=-0.1)

    def test_is_noop(self):
        assert FaultSpec().is_noop
        assert not FaultSpec(drop=0.1).is_noop

    def test_dict_round_trip(self):
        spec = FaultSpec(drop=0.25, garble=0.5, seed=99)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_a_null_link_scope_loads(self):
        """Artifacts written while specs carried a per-link scope hold
        ``"links": null``; they load as the spec without it."""
        spec = FaultSpec(drop=0.25, link_drop=0.1, seed=99)
        assert "links" not in spec.to_dict()
        assert FaultSpec.from_dict({**spec.to_dict(), "links": None}) == spec

    def test_a_link_scope_is_refused(self):
        """Every corrupted link is the adversary's: a scoped spec names
        a fault model the simulator does not have."""
        data = {**FaultSpec(drop=0.25).to_dict(), "links": [[3, 0]]}
        with pytest.raises(ValueError, match="per-link fault scope"):
            FaultSpec.from_dict(data)

    def test_crash_window_validation(self):
        """``FaultSpec`` is the one check on a crash window: a window
        that is reversed or empty, one that starts at round 0 (the crash
        hook fires at round boundaries) and a negative party are
        refused."""
        for window in ((0, 5, 5), (0, 6, 2), (0, 0, 4), (-1, 2, 4)):
            with pytest.raises(ValueError):
                FaultSpec(crashes=(window,))

    def test_crash_party_outside_n_is_refused(self):
        """The spec cannot know ``n``; the adversary that carries it
        refuses a party outside ``0..n-1`` when the run starts."""
        adversary = ComposedAdversary(
            [PassiveAdversary()], faults=FaultSpec(crashes=((7, 2, 4),)),
            initial=set(),
        )
        with pytest.raises(ConfigurationError, match=r"outside 0\.\.6"):
            run_pi_z(list(range(7)), 7, 2, adversary)

    def test_describe(self):
        assert "drop=1.0" in FaultSpec(drop=1.0).describe()
        assert "noop" in FaultSpec().describe()


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_drop_all(self):
        injector = FaultInjector(FaultSpec(drop=1.0))
        assert injector.apply({(3, 0): 7, (3, 1): 8}) == {}

    def test_duplicate_carries_to_next_round(self):
        injector = FaultInjector(FaultSpec(duplicate=1.0))
        first = injector.apply({(3, 0): "x"})
        assert first == {(3, 0): "x"}
        second = injector.apply({})
        assert second == {(3, 0): "x"}
        assert injector.apply({}) == {}

    def test_fresh_payload_overrides_carryover(self):
        injector = FaultInjector(FaultSpec(duplicate=1.0))
        injector.apply({(3, 0): "old"})
        assert injector.apply({(3, 0): "new"}) == {(3, 0): "new"}

    def test_garble_mutates_deterministically(self):
        messages = {(3, 0): 1234}
        a = FaultInjector(FaultSpec(garble=1.0, seed=5)).apply(messages)
        b = FaultInjector(FaultSpec(garble=1.0, seed=5)).apply(messages)
        assert a == b
        assert a[(3, 0)] != 1234

    def test_replay_resends_history(self):
        injector = FaultInjector(FaultSpec(replay=1.0))
        injector.apply({(3, 0): "first"})
        out = injector.apply({(3, 0): "second"})
        assert out == {(3, 0): "first"}


class TestGarble:
    @pytest.mark.parametrize("payload", [
        True, 0, 41, b"", b"abc", "text", (1, 2), [], {"k": 3}, None,
        ((1, "x"), b"y"),
    ])
    def test_total_and_deterministic(self, payload):
        a = _garble(payload, random.Random(7))
        b = _garble(payload, random.Random(7))
        assert a == b

    def test_bool_flips(self):
        assert _garble(True, random.Random(0)) is False


# ---------------------------------------------------------------------------
# ComposedAdversary
# ---------------------------------------------------------------------------


class TestComposedAdversary:
    def test_requires_parts(self):
        with pytest.raises(ValueError):
            ComposedAdversary([])

    def test_corruption_union_clipped_to_budget(self):
        composed = ComposedAdversary(
            [CrashAdversary(), SplitVoteAdversary()]
        )
        assert len(composed.select_corruptions(7, 2)) <= 2

    def test_explicit_initial_set(self):
        composed = ComposedAdversary([CrashAdversary()], initial={1})
        assert composed.select_corruptions(7, 2) == {1}

    def test_describe_mentions_parts_and_faults(self):
        composed = ComposedAdversary(
            [PassiveAdversary(), EquivocatingAdversary()],
            faults=FaultSpec(drop=0.5),
        )
        text = composed.describe()
        assert "PassiveAdversary" in text
        assert "drop=0.5" in text

    def test_ca_survives_composition_with_faults(self):
        inputs = [10, 20, 30, 40, 50, 60, 70]
        composed = ComposedAdversary(
            [EquivocatingAdversary(seed=3), SplitVoteAdversary(seed=4)],
            faults=FaultSpec(drop=0.3, garble=0.3, replay=0.2, seed=9),
            seed=1,
        )
        result = run_pi_z(inputs, 7, 2, composed)
        result.assert_convex_valid(inputs)


# ---------------------------------------------------------------------------
# record / replay
# ---------------------------------------------------------------------------


class TestRecordReplay:
    def test_replay_reproduces_recorded_execution(self):
        inputs = [10, 20, 30, 40, 50, 60, 70]
        recorder = RecordingAdversary(
            ComposedAdversary(
                [EquivocatingAdversary(seed=3)],
                faults=FaultSpec(garble=0.4, drop=0.2, seed=11),
            )
        )
        original = run_pi_z(inputs, 7, 2, recorder, trace=True)
        assert recorder.script, "expected recorded byzantine traffic"

        replayer = ReplayAdversary(
            recorder.script,
            recorder.initial_corruptions,
            recorder.adapt_schedule,
        )
        replayed = run_pi_z(inputs, 7, 2, replayer, trace=True)

        assert replayed.outputs == original.outputs
        assert replayed.stats.honest_bits == original.stats.honest_bits
        assert replayed.stats.rounds == original.stats.rounds
        assert replayed.trace == original.trace

    def test_replay_round_trips_all_three_fault_planes(self):
        """Record a run with garble+duplicate message faults, a crash
        window, and lossy links; replaying the captured script plus
        crash schedule must reproduce it byte-for-byte (satellite)."""
        from repro.sim import LossyTransport

        inputs = [10, 20, 30, 40, 50, 60, 70]
        transport_seed = 21
        recorder = RecordingAdversary(
            ComposedAdversary(
                [EquivocatingAdversary(seed=3)],
                faults=FaultSpec(
                    garble=0.4, duplicate=0.3, seed=11,
                    link_drop=0.2, crashes=((2, 3, 6),),
                ),
                initial={6},  # leave crash-budget room under t = 2
            )
        )
        original = run_pi_z(
            inputs, 7, 2, recorder, trace=True,
            transport=LossyTransport(drop=0.2, seed=transport_seed),
        )
        assert recorder.script, "expected recorded byzantine traffic"
        assert recorder.crash_schedule == [(2, 3, 6)]

        replayer = ReplayAdversary(
            recorder.script,
            recorder.initial_corruptions,
            recorder.adapt_schedule,
            crash_schedule=recorder.crash_schedule,
        )
        replayed = run_pi_z(
            inputs, 7, 2, replayer, trace=True,
            transport=LossyTransport(drop=0.2, seed=transport_seed),
        )

        assert replayed.outputs == original.outputs
        assert replayed.events == original.events
        assert replayed.stats.honest_bits == original.stats.honest_bits
        assert replayed.stats.retrans_bits == original.stats.retrans_bits
        assert replayed.trace == original.trace

    def test_replay_misses_stay_silent(self):
        replayer = ReplayAdversary({}, {3})
        result = run_pi_z([1, 2, 3, 4], 4, 1, replayer)
        result.assert_convex_valid([1, 2, 3, 4])

    def test_describe(self):
        replayer = ReplayAdversary({(0, 3, 1): 5}, {3}, [(2, 1)])
        assert "1 messages" in replayer.describe()


# ---------------------------------------------------------------------------
# determinism regression (satellite)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_bit_identical_runs(self):
        """Identical (protocol, inputs, adversary, seed) must give
        bit-identical traces, stats, and outputs."""
        inputs = [-100, -50, 0, 50, 100, 150, 200]

        def once():
            adversary = ComposedAdversary(
                [EquivocatingAdversary(seed=3), CrashAdversary(2, seed=5)],
                faults=FaultSpec(
                    drop=0.2, duplicate=0.2, garble=0.2, replay=0.2, seed=8
                ),
                seed=2,
            )
            return run_pi_z(inputs, 7, 2, adversary, trace=True)

        a, b = once(), once()
        assert a.outputs == b.outputs
        assert a.corrupted == b.corrupted
        assert a.trace == b.trace
        assert a.stats.honest_bits == b.stats.honest_bits
        assert a.stats.honest_messages == b.stats.honest_messages
        assert a.stats.rounds == b.stats.rounds
        assert dict(a.stats.bits_by_channel) == dict(b.stats.bits_by_channel)
        assert a.events == b.events


# ---------------------------------------------------------------------------
# adaptive-corruption clipping is visible, not silent (satellite)
# ---------------------------------------------------------------------------


class GreedyAdversary(Adversary):
    """Requests more adaptive corruptions than the ``t`` budget allows."""

    def select_corruptions(self, n, t):
        return set()

    def adapt(self, view):
        if view.round_index == 0:
            return {1, 2, 3}
        return set()


class TestClippedCorruptions:
    def test_clipping_warns_and_records(self):
        with pytest.warns(RuntimeWarning, match="clipped"):
            result = run_pi_z(
                [1, 2, 3, 4], 4, 1, GreedyAdversary(), trace=True
            )
        # budget t=1: exactly one request accepted, the rest recorded.
        assert result.corrupted == {1}
        assert result.events == [
            Event("corrupt", 0, 1),
            Event("corrupt_clipped", 0, 2),
            Event("corrupt_clipped", 0, 3),
        ]
        # the granted corruption takes effect from the next round.
        assert [r.corrupted for r in result.trace[:2]] == [set(), {1}]

    def test_within_budget_no_warning(self):
        import warnings

        adversary = ComposedAdversary([CrashAdversary()], initial={3})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_pi_z([1, 2, 3, 4], 4, 1, adversary, trace=True)
        assert not any(e.kind == "corrupt_clipped" for e in result.events)
