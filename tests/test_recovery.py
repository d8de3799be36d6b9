"""Crash-recovery plane: write-ahead logs, parked inboxes, replay,
budget clipping, and the headline canary -- crashing honest parties
mid-FixedLengthCA on a lossy transport, byte-identical across worker
counts."""

from __future__ import annotations

import hashlib
import itertools
import warnings
from fractions import Fraction

import pytest

from repro.core.bitstrings import BitString
from repro.core.fixed_length import fixed_length_ca
from repro.core.high_cost_ca import high_cost_ca
from repro.crypto.merkle import MerkleWitness
from repro.sim import (
    AdaptiveCorruptionAdversary,
    ComposedAdversary,
    EquivocatingAdversary,
    Event,
    FaultSpec,
    LossyTransport,
    PassiveAdversary,
    RecoveryError,
    SynchronousNetwork,
    broadcast_round,
    run_many,
    run_protocol,
)
from repro.sim import recovery
from repro.sim.invariants import default_monitors
from repro.sim.recovery import outbox_digest
from repro.sim.party import Outgoing
from repro.sim.sizing import bit_size

KAPPA = 64


def run_flca(inputs, n, t, ell=8, **kwargs):
    return run_protocol(
        lambda ctx, v: fixed_length_ca(ctx, v, ell), inputs, n=n, t=t,
        kappa=KAPPA, **kwargs,
    )


def restarts(events) -> int:
    """WAL replays: one ``up`` event each."""
    return sum(event.kind == "up" for event in events)


def crashing(windows, inner=None, initial=None):
    """An adversary carrying ``(party, down_round, up_round)`` windows:
    ``inner`` (spec-following by default) plus the spec's crash plane.
    ``initial=set()`` corrupts nobody and leaves the whole ``t`` budget
    to the crashes (the default adversary corrupts ``t`` parties, which
    would clip every one of them)."""
    return ComposedAdversary(
        [inner or PassiveAdversary()],
        faults=FaultSpec(crashes=tuple(windows)),
        initial=initial,
    )


# ---------------------------------------------------------------------------
# WAL primitives
# ---------------------------------------------------------------------------


class TestWal:
    def test_outbox_digest_is_order_insensitive(self):
        a = Outgoing("ch", {0: "x", 1: "y"})
        b = Outgoing("ch", {1: "y", 0: "x"})
        assert outbox_digest(a) == outbox_digest(b)
        assert outbox_digest(None) != outbox_digest(a)

    def test_outbox_digest_is_blind_to_the_pricing_memo(self):
        witness = MerkleWitness(3, (b"\x01" * 8, b"\x02" * 8))
        outbox = Outgoing("ch", {0: ("share", witness), 1: BitString(5, 3)})
        before = outbox_digest(outbox)
        assert bit_size(witness) == witness.wire_bits()
        assert outbox_digest(outbox) == before

    def test_outbox_digest_tells_payloads_apart(self):
        huge = 1 << 20000  # past CPython's 4300-digit str(int) limit
        digests = {
            outbox_digest(Outgoing("ch", {0: payload}))
            for payload in (
                huge, huge + 1, -huge, (huge,), [huge], BitString(huge, 20001),
                1, True, "1", b"1", None, (), Fraction(1, 3), (1, 3),
                frozenset({1, 3}), {1: 3},
            )
        }
        assert len(digests) == 16
        shared = (huge, b"x")
        assert outbox_digest(Outgoing("ch", {0: shared, 1: shared})) == (
            outbox_digest(Outgoing("ch", {0: (huge, b"x"), 1: (huge, b"x")}))
        )


class TestDigestOnReplay:
    """The WAL keeps each round's bundle and digests only on replay."""

    @staticmethod
    def run_spied(monkeypatch, adversary, inputs=(3, 5, 7, 11)):
        digested = []
        original = recovery.outbox_digest

        def counted(outgoing):
            digested.append(outgoing)
            return original(outgoing)

        monkeypatch.setattr(recovery, "outbox_digest", counted)
        network = SynchronousNetwork(
            lambda ctx, v: fixed_length_ca(ctx, v, 8), list(inputs), n=4,
            t=1, kappa=KAPPA, adversary=adversary,
        )
        result = network.run()
        result.assert_convex_valid(list(inputs))
        return digested, network._recovery.wals, result

    def test_a_run_without_crashes_digests_nothing(self, monkeypatch):
        class Logged(PassiveAdversary):
            has_crash_plane = True  # arms the WAL, crashes nobody

            def select_corruptions(self, n, t):
                return set()

        digested, wals, _ = self.run_spied(monkeypatch, Logged())
        assert digested == []
        assert all(len(wals[party]) > 10 for party in range(4))

    def test_a_restart_digests_only_its_logged_rounds(self, monkeypatch):
        digested, wals, result = self.run_spied(
            monkeypatch, crashing([(1, 2, 4)], initial=set())
        )
        assert restarts(result.events) == 1
        # rounds 0 and 1 were logged before the crash: each logged
        # bundle is digested once, beside its replayed twin; the parked
        # rounds 2 and 3 are folded into the WAL undigested.
        logged = [entry.bundle for entry in wals[1][:2]]
        assert len(digested) == 4
        assert all(a is b for a, b in zip(digested[:2], logged))
        assert all(a is not b for a, b in zip(digested[2:], logged))
        assert [e.round_index for e in wals[1][:4]] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# declared crash windows (``FaultSpec.crashes``)
# ---------------------------------------------------------------------------


class TestDeclarativeCrashes:
    def test_single_crash_recovers_with_guarantees(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(inputs, 7, 2,
                          adversary=crashing([(2, 3, 6)], initial=set()))
        result.assert_convex_valid(inputs)
        assert result.events == [Event("down", 3, 2), Event("up", 6, 2)]
        assert result.stats.retrans_bits > 0  # parked re-deliveries

    def test_double_crash_same_party(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(
            inputs, 7, 2,
            adversary=crashing([(2, 2, 5), (2, 8, 11)], initial=set()),
        )
        result.assert_convex_valid(inputs)
        assert restarts(result.events) == 2

    def test_over_budget_crashes_are_clipped_with_warning(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        # The default adversary corrupts t parties, so every crash
        # request exceeds the shared budget and must be clipped.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_flca(
                inputs, 7, 2,
                adversary=crashing([(0, 2, 5), (1, 2, 5), (2, 2, 5)]),
            )
        result.assert_convex_valid(inputs)
        assert any(e.kind == "crash_clipped" for e in result.events)
        assert any("clip" in str(w.message).lower() for w in caught)
        # Down + corrupted never exceeded t in any executed round.
        assert restarts(result.events) <= 2

    def test_back_to_back_windows_are_both_granted(self):
        """A restart due at round 4 frees its share of ``t`` for a crash
        starting at round 4: the windows do not overlap (as
        ``fuzz._max_concurrent_crashes`` already counts them)."""
        inputs = [3, 5, 7, 11]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clip would warn
            result = run_protocol(
                high_cost_ca, inputs, n=4, t=1, trace=True,
                monitors=default_monitors(),
                adversary=crashing([(1, 2, 4), (2, 4, 6)], initial=set()),
            )
        result.assert_convex_valid(inputs)
        assert result.events == [
            Event("down", 2, 1), Event("down", 4, 2),
            Event("up", 4, 1), Event("up", 6, 2),
        ]
        assert [sorted(r.down_parties) for r in result.trace[:7]] == [
            [], [], [1], [1], [2], [2], [],
        ]

    def test_corruption_at_a_restart_boundary_is_granted(self):
        """A restart due at round 4 frees its share of ``t`` for a
        corruption requested at the end of round 3 (effective at round
        4), as it does for a crash starting at round 4."""
        inputs = [3, 5, 7, 11]
        adversary = ComposedAdversary(
            [AdaptiveCorruptionAdversary([(3, 2)])],
            faults=FaultSpec(crashes=((1, 2, 4),)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clip would warn
            result = run_protocol(
                high_cost_ca, inputs, n=4, t=1, adversary=adversary,
            )
        result.assert_convex_valid(inputs)
        assert result.events == [
            Event("down", 2, 1), Event("corrupt", 3, 2), Event("up", 4, 1),
        ]
        assert result.corrupted == frozenset({2})

    def test_crash_schedule_is_deterministic(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        a = run_flca(inputs, 7, 2, trace=True,
                     adversary=crashing([(2, 3, 7)], initial=set()))
        b = run_flca(inputs, 7, 2, trace=True,
                     adversary=crashing([(2, 3, 7)], initial=set()))
        assert a.outputs == b.outputs
        assert a.events == b.events
        assert a.trace == b.trace


# ---------------------------------------------------------------------------
# adversarial crashes
# ---------------------------------------------------------------------------


class TestCrashRestartAdversary:
    """Crash/restart windows carried by a composed adversary, alone and
    beside a byzantine strategy."""

    def test_pure_crash_plane(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        adversary = crashing([(2, 3, 6)], initial=set())
        result = run_flca(inputs, 7, 2, adversary=adversary)
        assert result.corrupted == frozenset()
        result.assert_convex_valid(inputs)
        assert Event("down", 3, 2) in result.events

    def test_composes_with_byzantine_inner(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]

        class OneCorruption(EquivocatingAdversary):
            def select_corruptions(self, n, t):
                return {n - 1}

        adversary = crashing([(2, 3, 6)], inner=OneCorruption(seed=5))
        # One byzantine corruption + one concurrent crash <= t = 2.
        result = run_flca(inputs, 7, 2, adversary=adversary)
        result.assert_convex_valid(inputs)
        assert result.corrupted == frozenset({6})
        assert Event("down", 3, 2) in result.events


# ---------------------------------------------------------------------------
# replay soundness
# ---------------------------------------------------------------------------

_TICKET = itertools.count()


def _nondeterministic_protocol(ctx, v_in):
    """Broadcasts a fresh global counter value -- unrecoverable."""
    for _ in range(6):
        yield broadcast_round(ctx, "bad", v_in + next(_TICKET))
    return v_in


class TestReplayVerification:
    def test_nondeterministic_party_is_refused(self):
        with pytest.raises(RecoveryError):
            run_protocol(
                _nondeterministic_protocol, [1, 2, 3, 4], n=4, t=1,
                kappa=KAPPA, adversary=crashing([(1, 2, 4)], initial=set()),
            )

    def test_long_values_recover(self):
        """ell = 20000: the WAL digest must not convert ints to decimal
        (CPython raises past 4300 digits)."""
        inputs = [2**19999 + i for i in range(4)]
        result = run_protocol(
            high_cost_ca, inputs, n=4, t=1,
            adversary=crashing([(2, 1, 3)], initial=set()),
        )
        assert result.events == [Event("down", 1, 2), Event("up", 3, 2)]
        assert len(result.outputs) == 4
        result.assert_convex_valid(inputs)

    def test_long_values_are_still_verified_on_replay(self):
        """A divergence in the lowest bit of a 20000-bit payload is
        caught when the restarted party replays its WAL."""
        with pytest.raises(RecoveryError):
            run_protocol(
                _nondeterministic_protocol, [1 << 20000] * 4, n=4, t=1,
                kappa=KAPPA, adversary=crashing([(1, 2, 4)], initial=set()),
            )


# ---------------------------------------------------------------------------
# canary: crashes + lossy links, byte-identical across worker counts
# ---------------------------------------------------------------------------

_CANARY_INPUTS = [3, 5, 7, 11, 13, 17, 19]


def crash_lossy_canary(seed: int) -> dict:
    """One canary execution: two honest crashes on a drop-0.25 link.

    Module-level so :func:`run_many` workers resolve it by name.  The
    crash targets are honest (the pure crash plane corrupts nobody), and
    f = 2 <= t = 2.
    """
    result = run_flca(
        _CANARY_INPUTS, 7, 2,
        adversary=crashing([(1, 3, 6), (2, 5, 8)], initial=set()),
        transport=LossyTransport(drop=0.25, delay=0.1, seed=seed),
        trace=True,
    )
    value = result.assert_convex_valid(_CANARY_INPUTS)
    return {
        "value": value,
        "outputs": sorted(result.outputs.items()),
        "honest_bits": result.stats.honest_bits,
        "retrans_bits": result.stats.retrans_bits,
        "ack_bits": result.stats.ack_bits,
        "transport_slots": result.stats.transport_slots,
        "events": result.events,
        "rounds": result.stats.rounds,
        "trace_digest": hashlib.sha256(
            "\n".join(str(sorted(r.to_dict().items())) for r in result.trace)
            .encode()
        ).hexdigest(),
    }


class TestCanary:
    def test_crashes_on_lossy_links_keep_guarantees(self):
        outcome = crash_lossy_canary(seed=0)
        assert restarts(outcome["events"]) == 2
        assert Event("down", 3, 1) in outcome["events"]
        assert Event("down", 5, 2) in outcome["events"]
        assert outcome["retrans_bits"] > 0

    def test_byte_identical_across_worker_counts(self):
        seeds = list(range(6))
        serial = run_many(crash_lossy_canary, seeds, workers=1)
        fanned = run_many(crash_lossy_canary, seeds, workers=4)
        assert all(o.ok for o in serial)
        assert all(o.ok for o in fanned)
        assert [o.value for o in serial] == [o.value for o in fanned]
        # The logical execution never depends on the link schedule seed.
        assert len({tuple(o.value["outputs"]) for o in serial}) == 1
        assert len({o.value["honest_bits"] for o in serial}) == 1
