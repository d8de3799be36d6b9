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
from repro.errors import ConfigurationError
from repro.sim import (
    CrashEvent,
    CrashRestartAdversary,
    EquivocatingAdversary,
    LossyTransport,
    PassiveAdversary,
    RecoveryConfig,
    RecoveryError,
    broadcast_round,
    run_many,
    run_protocol,
)
from repro.sim.recovery import WriteAheadLog, outbox_digest
from repro.sim.party import Outgoing
from repro.sim.sizing import bit_size

KAPPA = 64


def run_flca(inputs, n, t, ell=8, **kwargs):
    return run_protocol(
        lambda ctx, v: fixed_length_ca(ctx, v, ell), inputs, n=n, t=t,
        kappa=KAPPA, **kwargs,
    )


class HonestObserver(PassiveAdversary):
    """Corrupts nobody: leaves the whole ``t`` budget to the crash plane
    (the default adversary corrupts ``t`` parties, which would clip
    every declarative crash)."""

    def select_corruptions(self, n, t):
        return set()


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
        assert bit_size(witness) == witness._wire_bits_memo
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

    def test_checkpoints_chain(self):
        wal = WriteAheadLog(checkpoint_interval=2)
        for r in range(4):
            wal.append(r, {0: r}, f"digest-{r}")
        assert [r for r, _ in wal.checkpoints] == [1, 3]
        # The chain is cumulative: replaying the same digests rebuilds it.
        other = WriteAheadLog(checkpoint_interval=2)
        for r in range(4):
            other.append(r, {0: r}, f"digest-{r}")
        assert wal.checkpoints == other.checkpoints

    def test_crash_event_validation(self):
        with pytest.raises(ConfigurationError):
            CrashEvent(0, down=5, up=5)
        with pytest.raises(ConfigurationError):
            CrashEvent(0, down=-1, up=2)
        with pytest.raises(ConfigurationError):
            CrashRestartAdversary([(1, 0, 3)])


# ---------------------------------------------------------------------------
# declarative crash windows
# ---------------------------------------------------------------------------


class TestDeclarativeCrashes:
    def test_single_crash_recovers_with_guarantees(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(inputs, 7, 2, crashes=[(2, 3, 6)],
                          adversary=HonestObserver())
        result.assert_convex_valid(inputs)
        assert ("down", 3, 2) in result.crash_log
        assert ("up", 6, 2) in result.crash_log
        assert result.recoveries == 1
        assert result.stats.retrans_bits > 0  # parked re-deliveries

    def test_double_crash_same_party(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(inputs, 7, 2, crashes=[(2, 2, 5), (2, 8, 11)],
                          adversary=HonestObserver())
        result.assert_convex_valid(inputs)
        assert result.recoveries == 2

    def test_crash_from_round_zero(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(inputs, 7, 2, crashes=[CrashEvent(1, 0, 4)],
                          adversary=HonestObserver())
        result.assert_convex_valid(inputs)
        assert result.recoveries == 1

    def test_over_budget_crashes_are_clipped_with_warning(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        # The default adversary corrupts t parties, so every crash
        # request exceeds the shared budget and must be clipped.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_flca(
                inputs, 7, 2, crashes=[(0, 2, 5), (1, 2, 5), (2, 2, 5)],
            )
        result.assert_convex_valid(inputs)
        assert result.clipped_crashes
        assert any("clip" in str(w.message).lower() for w in caught)
        # Down + corrupted never exceeded t in any executed round.
        assert result.recoveries <= 2

    def test_crash_schedule_is_deterministic(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        a = run_flca(inputs, 7, 2, crashes=[(2, 3, 7)], trace=True,
                     adversary=HonestObserver())
        b = run_flca(inputs, 7, 2, crashes=[(2, 3, 7)], trace=True,
                     adversary=HonestObserver())
        assert a.outputs == b.outputs
        assert a.crash_log == b.crash_log
        assert a.trace == b.trace

    def test_recovery_config_tunes_checkpoints(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(
            inputs, 7, 2, crashes=[(2, 3, 9)],
            adversary=HonestObserver(),
            recovery=RecoveryConfig(checkpoint_interval=2),
        )
        result.assert_convex_valid(inputs)


# ---------------------------------------------------------------------------
# adversarial crashes
# ---------------------------------------------------------------------------


class TestCrashRestartAdversary:
    def test_pure_crash_plane(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        adversary = CrashRestartAdversary([(2, 3, 6)])
        result = run_flca(inputs, 7, 2, adversary=adversary)
        assert result.corrupted == frozenset()
        result.assert_convex_valid(inputs)
        assert ("down", 3, 2) in result.crash_log

    def test_composes_with_byzantine_inner(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]

        class OneCorruption(EquivocatingAdversary):
            def select_corruptions(self, n, t):
                return {n - 1}

        adversary = CrashRestartAdversary(
            [(2, 3, 6)], inner=OneCorruption(seed=5),
        )
        # One byzantine corruption + one concurrent crash <= t = 2.
        result = run_flca(inputs, 7, 2, adversary=adversary)
        result.assert_convex_valid(inputs)
        assert result.corrupted == frozenset({6})
        assert ("down", 3, 2) in result.crash_log


# ---------------------------------------------------------------------------
# replay soundness
# ---------------------------------------------------------------------------

_TICKET = itertools.count()


def _nondeterministic_protocol(ctx, v_in):
    """Broadcasts a fresh global counter value -- unrecoverable."""
    for _ in range(6):
        yield from broadcast_round(ctx, "bad", v_in + next(_TICKET))
    return v_in


class TestReplayVerification:
    def test_nondeterministic_party_is_refused(self):
        with pytest.raises(RecoveryError):
            run_protocol(
                _nondeterministic_protocol, [1, 2, 3, 4], n=4, t=1,
                kappa=KAPPA, crashes=[(1, 2, 4)],
                adversary=HonestObserver(),
            )

    def test_long_values_recover(self):
        """ell = 20000: the WAL digest must not convert ints to decimal
        (CPython raises past 4300 digits)."""
        inputs = [2**19999 + i for i in range(4)]
        result = run_protocol(
            high_cost_ca, inputs, n=4, t=1,
            adversary=CrashRestartAdversary([(2, 1, 3)]),
        )
        assert result.recoveries == 1
        assert result.crash_log == [("down", 1, 2), ("up", 3, 2)]
        assert len(result.outputs) == 4
        result.assert_convex_valid(inputs)

    def test_long_values_are_still_verified_on_replay(self):
        """A divergence in the lowest bit of a 20000-bit payload is
        caught when the restarted party replays its WAL."""
        with pytest.raises(RecoveryError):
            run_protocol(
                _nondeterministic_protocol, [1 << 20000] * 4, n=4, t=1,
                kappa=KAPPA, crashes=[(1, 2, 4)],
                adversary=HonestObserver(),
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
        adversary=CrashRestartAdversary([(1, 3, 6), (2, 5, 8)]),
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
        "crash_log": result.crash_log,
        "recoveries": result.recoveries,
        "rounds": result.stats.rounds,
        "trace_digest": hashlib.sha256(
            "\n".join(str(sorted(r.to_dict().items())) for r in result.trace)
            .encode()
        ).hexdigest(),
    }


class TestCanary:
    def test_crashes_on_lossy_links_keep_guarantees(self):
        outcome = crash_lossy_canary(seed=0)
        assert outcome["recoveries"] == 2
        assert ("down", 3, 1) in outcome["crash_log"]
        assert ("down", 5, 2) in outcome["crash_log"]
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
