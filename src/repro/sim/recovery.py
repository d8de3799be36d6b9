"""Crash-recovery for honest parties: write-ahead logs and replay.

The paper's parties never fail-and-return; real processes do.  This
module lets a simulated honest party be powered off at an adversarially
chosen round and later rejoin **with its guarantees intact**:

* every live party appends one :class:`WalEntry` per executed round to
  its :class:`WriteAheadLog` -- the delivered inbox (the only
  nondeterministic input a party ever consumes) plus a digest of the
  outbox it emitted (of its :func:`~repro.sim.sizing.canonical_text`),
  chained into periodic checkpoints;
* while a party is down, the round synchronizer keeps the messages
  addressed to it parked (senders retransmit until acknowledged), so
  nothing it missed is lost;
* on restart, :meth:`RecoveryManager.recover` rebuilds the party from
  its protocol factory and *replays*: first the WAL (verifying every
  recorded outbox digest and checkpoint -- a divergence means the
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
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError, ReproError
from .adversary import Adversary, RoundView
from .lossy import ACK_BITS
from .metrics import CommunicationStats
from .party import Context, Outgoing
from .sizing import bit_size, canonical_text

__all__ = [
    "CrashEvent",
    "CrashRestartAdversary",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryManager",
    "ReplayedParty",
    "WalEntry",
    "WriteAheadLog",
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
class CrashEvent:
    """One declarative crash: ``party`` is down in rounds [down, up)."""

    party: int
    down: int
    up: int

    def __post_init__(self) -> None:
        if self.down < 0:
            raise ConfigurationError(
                f"crash round {self.down} must be non-negative"
            )
        if self.up <= self.down:
            raise ConfigurationError(
                f"restart round {self.up} must come after crash round "
                f"{self.down}"
            )


@dataclass(frozen=True)
class RecoveryConfig:
    """Durability parameters of the per-party write-ahead logs."""

    #: a chained checkpoint digest is recorded every this many rounds.
    checkpoint_interval: int = 8
    #: verify recorded outbox digests and checkpoints during replay
    #: (cheap; disable only in micro-benchmarks).
    verify_replay: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")


@dataclass(frozen=True)
class WalEntry:
    """One durable round record: the inbox consumed, the outbox emitted."""

    round_index: int
    inbox: dict[int, Any]
    outbox_digest: str


@dataclass
class _Parked:
    """An inbox buffered for a down party, awaiting its restart."""

    round_index: int
    inbox: dict[int, Any]
    #: honest payload bits that will be re-delivered on recovery.
    redelivery_bits: int
    redelivery_messages: int


class WriteAheadLog:
    """Append-only per-party log with chained periodic checkpoints."""

    def __init__(self, checkpoint_interval: int = 8) -> None:
        self.checkpoint_interval = checkpoint_interval
        self.entries: list[WalEntry] = []
        #: ``(round_index, chained_digest)`` snapshots, one per interval.
        self.checkpoints: list[tuple[int, str]] = []
        self._chain = hashlib.sha256(b"repro-wal").hexdigest()[:32]

    def append(
        self, round_index: int, inbox: dict[int, Any], digest: str
    ) -> None:
        """Durably record one executed round (write-ahead: before ack)."""
        self.entries.append(WalEntry(round_index, dict(inbox), digest))
        self._chain = self._extend(self._chain, digest)
        if len(self.entries) % self.checkpoint_interval == 0:
            self.checkpoints.append((round_index, self._chain))

    @staticmethod
    def _extend(chain: str, digest: str) -> str:
        return hashlib.sha256(f"{chain}/{digest}".encode()).hexdigest()[:32]


@dataclass
class ReplayedParty:
    """Outcome of one WAL replay: a party caught up to the present."""

    generator: Any
    started: bool
    finished: bool
    output: Any
    inbox: dict[int, Any]
    rounds_replayed: int


class RecoveryManager:
    """Owns the WALs, the parked inboxes, and the replay machinery."""

    def __init__(
        self,
        protocol_factory: Callable[[Context, Any], Any],
        inputs: dict[int, Any],
        n: int,
        t: int,
        kappa: int,
        config: RecoveryConfig | None = None,
        cache: dict | None = None,
    ) -> None:
        self.protocol_factory = protocol_factory
        self.inputs = dict(inputs)
        self.n = n
        self.t = t
        self.kappa = kappa
        self.config = config or RecoveryConfig()
        #: the execution's :attr:`Context.cache`, handed to replays.
        self.cache: dict = {} if cache is None else cache
        self.wals: dict[int, WriteAheadLog] = {
            party: WriteAheadLog(self.config.checkpoint_interval)
            for party in range(n)
        }
        self.parked: dict[int, list[_Parked]] = {}
        self.recoveries = 0

    # -- logging (live parties) ----------------------------------------
    def log_round(
        self,
        party: int,
        round_index: int,
        inbox: dict[int, Any],
        outgoing: Outgoing | None,
    ) -> None:
        """WAL-append one executed round for a live party."""
        self.wals[party].append(round_index, inbox, outbox_digest(outgoing))

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
        self.recoveries += 1

        ctx = Context(
            party_id=party, n=self.n, t=self.t, kappa=self.kappa,
            cache=self.cache,
        )
        generator = self.protocol_factory(ctx, self.inputs[party])

        feed: list[tuple[dict[int, Any], str | None]] = [
            (entry.inbox, entry.outbox_digest) for entry in wal.entries
        ]
        feed.extend((entry.inbox, None) for entry in parked)
        if not feed:
            # Nothing was ever executed: the party restarts fresh.
            return ReplayedParty(
                generator=generator,
                started=False,
                finished=False,
                output=None,
                inbox={},
                rounds_replayed=0,
            )

        verify = self.config.verify_replay
        chain = hashlib.sha256(b"repro-wal").hexdigest()[:32]
        checkpoints = dict(wal.checkpoints)
        logged = len(wal.entries)
        finished = False
        output = None
        try:
            for step, (_, expected) in enumerate(feed):
                if step == 0:
                    outgoing = next(generator)
                else:
                    outgoing = generator.send(feed[step - 1][0])
                digest = outbox_digest(outgoing)
                if expected is not None:
                    if verify and digest != expected:
                        raise RecoveryError(
                            f"party {party}: replayed outbox of logged "
                            f"round {step} diverged from the WAL "
                            f"(protocol is nondeterministic?)"
                        )
                    chain = WriteAheadLog._extend(chain, digest)
                    round_index = wal.entries[step].round_index
                    if verify and round_index in checkpoints \
                            and checkpoints[round_index] != chain:
                        raise RecoveryError(
                            f"party {party}: checkpoint at round "
                            f"{round_index} does not match the replayed "
                            "chain"
                        )
                else:
                    # A parked round is durably received the moment it is
                    # replayed: fold it into the WAL so a *second* crash
                    # replays one contiguous history.
                    parked_entry = parked[step - logged]
                    wal.append(
                        parked_entry.round_index, parked_entry.inbox, digest
                    )
        except StopIteration as stop:
            finished = True
            output = stop.value

        return ReplayedParty(
            generator=generator,
            started=True,
            finished=finished,
            output=output,
            inbox=dict(feed[-1][0]),
            rounds_replayed=len(feed),
        )


class CrashRestartAdversary(Adversary):
    """Kills up to ``f`` honest parties at chosen rounds; they recover.

    ``schedule`` entries are ``(party, down_round, up_round)``: the
    party is powered off for rounds ``[down_round, up_round)`` and
    replays its WAL at the start of ``up_round``.  Crash decisions ride
    on the adaptive-adversary hook, so ``down_round >= 1``.  Message
    behaviour (and byzantine corruptions, if any) delegate to ``inner``;
    with no inner strategy the adversary corrupts nobody -- it is a pure
    crash/restart fault plane, composable with any byzantine strategy
    through :class:`~repro.sim.faults.ComposedAdversary`.
    """

    has_crash_plane = True

    def __init__(
        self,
        schedule: Sequence[tuple[int, int, int]] | Sequence[CrashEvent],
        inner: Adversary | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.schedule = [
            event if isinstance(event, CrashEvent) else CrashEvent(*event)
            for event in schedule
        ]
        for event in self.schedule:
            if event.down < 1:
                raise ConfigurationError(
                    "adversarial crashes take effect at the next round "
                    f"boundary: down_round must be >= 1, got {event.down}"
                )
        self.inner = inner

    def select_corruptions(self, n: int, t: int) -> set[int]:
        if self.inner is None:
            return set()
        return self.inner.select_corruptions(n, t)

    def adapt(self, view: RoundView) -> set[int]:
        if self.inner is None:
            return set()
        return self.inner.adapt(view)

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        if self.inner is None:
            return {}
        return self.inner.deliver(view)

    def crash_restarts(self, view: RoundView) -> dict[int, int]:
        due = {
            event.party: event.up
            for event in self.schedule
            if event.down == view.round_index + 1
        }
        if self.inner is not None:
            due.update(self.inner.crash_restarts(view))
        return due

    def describe(self) -> str:
        inner = f", inner={self.inner.describe()}" if self.inner else ""
        return f"CrashRestartAdversary({len(self.schedule)} events{inner})"
