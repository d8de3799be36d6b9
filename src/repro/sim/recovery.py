"""Crash-recovery for honest parties: write-ahead logs and replay.

The paper's parties never fail-and-return; real processes do.  This
module lets a simulated honest party be powered off at an adversarially
chosen round and later rejoin **with its guarantees intact**:

* every live party appends one :class:`WalEntry` per executed round to
  its write-ahead log -- the delivered inbox (the only
  nondeterministic input a party ever consumes) plus the outbox it
  emitted, kept as yielded: nothing is digested while the party runs;
* while a party is down, the round synchronizer keeps the messages
  addressed to it parked (senders retransmit until acknowledged), so
  nothing it missed is lost;
* on restart, :meth:`RecoveryManager.recover` rebuilds the party from
  its protocol factory and *replays*: first the WAL (digesting each
  logged outbox beside the replayed one -- a divergence means the
  protocol is nondeterministic and recovery would be unsound), then the
  parked inboxes of the rounds it missed.  The party lands exactly at
  the current round boundary, in lockstep, with the state it would have
  had as an omission-faulted-but-listening participant.

A party that is down sends nothing, so to every other party it is
indistinguishable from a fail-stopped one; crashed honest parties
therefore count against the same ``t`` fault budget as byzantine
corruptions for as long as they are down (the network clips over-budget
crash requests exactly like over-budget adaptive corruptions).  The
parked-inbox re-deliveries are accounted as retransmitted bits plus one
ack each on :class:`~repro.sim.metrics.CommunicationStats` -- the
resilience cost of the rejoin, kept out of the paper's ``honest_bits``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ReproError
from .lossy import ACK_BITS
from .metrics import CommunicationStats
from .party import Context, Outgoing
from .sizing import bit_size, canonical_text

__all__ = [
    "RecoveryError",
    "RecoveryManager",
    "ReplayedParty",
    "WalEntry",
    "outbox_digest",
]


class RecoveryError(ReproError):
    """WAL replay diverged from the recorded execution.

    Recovery is only sound for deterministic parties: the replayed
    generator must emit byte-identical outboxes for every logged round.
    A digest mismatch means the protocol consulted state outside its
    inbox stream (wall clock, global RNG, ...) and cannot be recovered.
    """


def outbox_digest(outgoing: Outgoing | None) -> str:
    """Stable digest of one round's emitted outbox (``None`` = no yield).

    Blind to the insertion order of ``messages``; a payload object
    shared by several destinations (a broadcast) is formatted once.
    """
    parts: list[str] = []
    if outgoing is not None:
        parts.append(outgoing.channel)
        messages = outgoing.messages
        texts: dict[int, str] = {}
        for dst in sorted(messages):
            payload = messages[dst]
            text = texts.get(id(payload))
            if text is None:
                text = texts[id(payload)] = canonical_text(payload)
            parts.append(f"|{dst}|{text}")
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:32]


@dataclass(frozen=True)
class WalEntry:
    """One durable round record: the inbox consumed, the outbox emitted
    (the bundle the party yielded, which it never changes afterwards)."""

    round_index: int
    inbox: dict[int, Any]
    bundle: Outgoing | None


@dataclass
class _Parked:
    """An inbox buffered for a down party, awaiting its restart."""

    round_index: int
    inbox: dict[int, Any]
    #: honest payload bits that will be re-delivered on recovery.
    redelivery_bits: int
    redelivery_messages: int


@dataclass
class ReplayedParty:
    """Outcome of one WAL replay: a party caught up to the present."""

    generator: Any
    finished: bool
    output: Any
    inbox: dict[int, Any]


class RecoveryManager:
    """Owns the WALs, the parked inboxes, and the replay machinery."""

    def __init__(
        self,
        protocol_factory: Callable[[Context, Any], Any],
        inputs: dict[int, Any],
        n: int,
        t: int,
        kappa: int,
        cache: dict | None = None,
    ) -> None:
        self.protocol_factory = protocol_factory
        self.inputs = dict(inputs)
        self.n = n
        self.t = t
        self.kappa = kappa
        #: the execution's :attr:`Context.cache`, handed to replays.
        self.cache: dict = {} if cache is None else cache
        #: per-party write-ahead logs, append-only.
        self.wals: dict[int, list[WalEntry]] = {party: [] for party in range(n)}
        self.parked: dict[int, list[_Parked]] = {}

    # -- logging (live parties) ----------------------------------------
    def log_round(
        self,
        party: int,
        round_index: int,
        inbox: dict[int, Any],
        outgoing: Outgoing | None,
    ) -> None:
        """WAL-append one executed round for a live party."""
        self.wals[party].append(WalEntry(round_index, dict(inbox), outgoing))

    # -- parking (down parties) ----------------------------------------
    def park(
        self,
        party: int,
        round_index: int,
        inbox: dict[int, Any],
        honest_senders: set[int],
    ) -> None:
        """Buffer a down party's round inbox until its restart.

        The senders keep the payloads in their retransmission buffers
        (the party never acked them); ``honest_senders`` determines
        which payloads will be accounted as retransmitted honest bits
        when the party rejoins and the buffered copies finally land.
        """
        bits = sum(
            bit_size(payload)
            for src, payload in inbox.items()
            if src in honest_senders
        )
        messages = sum(1 for src in inbox if src in honest_senders)
        self.parked.setdefault(party, []).append(
            _Parked(round_index, dict(inbox), bits, messages)
        )

    # -- replay ---------------------------------------------------------
    def recover(
        self, party: int, stats: CommunicationStats | None = None
    ) -> ReplayedParty:
        """Rebuild ``party`` from its WAL + parked inboxes; verify it.

        Returns the replayed party positioned exactly at the current
        round boundary: its next resume emits its first live outbox.
        Accounts the parked re-deliveries on ``stats`` as retransmitted
        bits plus one ack frame per buffered message.
        """
        wal = self.wals[party]
        parked = self.parked.pop(party, [])
        if stats is not None:
            for entry in parked:
                for _ in range(entry.redelivery_messages):
                    stats.record_ack(ACK_BITS)
                if entry.redelivery_messages:
                    stats.retrans_bits += entry.redelivery_bits
                    stats.retrans_messages += entry.redelivery_messages

        ctx = Context(
            party_id=party, n=self.n, t=self.t, kappa=self.kappa,
            cache=self.cache,
        )
        generator = self.protocol_factory(ctx, self.inputs[party])

        # Never empty: the network grants a crash only at the end of a
        # round the party executed, and that round is in its WAL.
        logged = len(wal)
        feed = [entry.inbox for entry in (*wal, *parked)]
        expected = [outbox_digest(entry.bundle) for entry in wal]
        finished = False
        output = None
        try:
            for step in range(len(feed)):
                if step == 0:
                    outgoing = next(generator)
                else:
                    outgoing = generator.send(feed[step - 1])
                if step < logged:
                    if outbox_digest(outgoing) != expected[step]:
                        raise RecoveryError(
                            f"party {party}: replayed outbox of logged "
                            f"round {step} diverged from the WAL "
                            f"(protocol is nondeterministic?)"
                        )
                else:
                    # A parked round is durably received the moment it is
                    # replayed: fold it into the WAL so a *second* crash
                    # replays one contiguous history.
                    parked_entry = parked[step - logged]
                    wal.append(WalEntry(
                        parked_entry.round_index, dict(parked_entry.inbox),
                        outgoing,
                    ))
        except StopIteration as stop:
            finished = True
            output = stop.value

        return ReplayedParty(
            generator=generator,
            finished=finished,
            output=output,
            inbox=dict(feed[-1]),
        )
