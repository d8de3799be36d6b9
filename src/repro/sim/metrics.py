"""Communication and round accounting for simulated executions.

``BITS_l(PI)`` in the paper is the total number of bits sent by *honest*
parties; :class:`CommunicationStats` tracks exactly that, with per-channel
and per-party breakdowns so benchmarks can attribute cost to individual
subprotocols (e.g. how much of a `PI_Z` run was spent inside `PI_lBA+`'s
distributing step versus the underlying `PI_BA` invocations).

When an execution runs over a :class:`~repro.sim.lossy.LossyTransport`,
the synchronizer's overhead -- retransmitted copies, acknowledgement
frames, and the physical transmission slots spent restoring lockstep --
is accounted *separately* from the protocol's own ``honest_bits``, so
the paper's ``BITS_l(PI)`` figure stays comparable across perfect and
lossy links while the resilience overhead remains measurable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["CommunicationStats"]


@dataclass(slots=True)
class CommunicationStats:
    """Mutable accumulator of communication metrics for one execution."""

    honest_bits: int = 0
    honest_messages: int = 0
    rounds: int = 0
    #: wall-clock seconds the simulated execution took (set by the
    #: simulator; excluded from equality so that determinism checks can
    #: compare stats across runs and machines).
    wall_s: float = field(default=0.0, compare=False)
    bits_by_channel: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    bits_by_party: dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    messages_by_channel: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: resilience-layer overhead (lossy transport + crash recovery):
    #: retransmitted honest copies beyond the first transmission, and the
    #: acknowledgement frames of the round synchronizer.  Deliberately
    #: NOT folded into ``honest_bits`` -- the paper's ``BITS_l(PI)``
    #: counts the protocol, not the link layer underneath it.
    retrans_bits: int = 0
    retrans_messages: int = 0
    ack_bits: int = 0
    ack_messages: int = 0
    #: physical transmission slots the round synchronizer simulated on
    #: top of the logical rounds (0 on a perfect network).
    transport_slots: int = 0
    #: partial-synchrony escalation overhead: round-resync beacon frames
    #: exchanged when a slot budget was exhausted and the synchronizer
    #: escalated instead of dying, plus the retry attempts themselves.
    #: Like the retrans/ack fields these never touch ``honest_bits`` --
    #: pre-GST slowness costs overhead, not protocol-level bits.
    beacon_bits: int = 0
    beacon_messages: int = 0
    #: escalated retry attempts performed (one per exhausted budget that
    #: was followed by a resync + retry rather than a hard timeout).
    resync_attempts: int = 0
    #: logical rounds that needed more than one synchronization attempt.
    escalated_rounds: int = 0
    #: hostile-payload quarantine (wire guards, PR 9): byzantine-origin
    #: messages discarded by honest parties for violating the wire
    #: bounds, and the (work-capped) measured size of that traffic.
    #: Never folded into ``honest_bits`` -- rejected traffic is the
    #: adversary's spend, not the protocol's ``BITS_l(PI)``.
    quarantined_messages: int = 0
    rejected_bits: int = 0

    def record_send(self, sender: int, channel: str, bits: int) -> None:
        """Account one honest point-to-point message of ``bits`` bits."""
        self.honest_bits += bits
        self.honest_messages += 1
        self.bits_by_channel[channel] += bits
        self.bits_by_party[sender] += bits
        self.messages_by_channel[channel] += 1

    def record_round_sends(
        self,
        channel: str,
        sender_bits: list[tuple[int, int]],
        messages: int,
        bits: int,
    ) -> None:
        """Account one lockstep round's honest traffic in a single batch.

        Equivalent to ``messages`` individual :meth:`record_send` calls
        on ``channel`` -- lockstep guarantees all honest senders of one
        round share a channel -- but with the per-message attribute
        churn collapsed into one update.  ``sender_bits`` lists
        ``(party, bits)`` per sender **in party order** and only for
        parties that sent at least one priced message, so the key
        insertion order of ``bits_by_party`` matches the per-message
        path exactly (dict equality in determinism suites compares
        content, but goldens serialised from these dicts preserve
        order).
        """
        self.honest_bits += bits
        self.honest_messages += messages
        self.bits_by_channel[channel] += bits
        self.messages_by_channel[channel] += messages
        bits_by_party = self.bits_by_party
        for sender, sent in sender_bits:
            bits_by_party[sender] += sent

    def record_round(self) -> None:
        """Account one simulated round (or async scheduler step)."""
        self.rounds += 1

    def record_ack(self, bits: int) -> None:
        """Account one acknowledgement frame of the round synchronizer."""
        self.ack_bits += bits
        self.ack_messages += 1

    def record_slots(self, slots: int) -> None:
        """Account ``slots`` physical transmission slots for one round."""
        self.transport_slots += slots

    def record_beacons(self, frames: int, bits_per_frame: int) -> None:
        """Account one round-resync beacon exchange (``frames`` frames)."""
        self.beacon_messages += frames
        self.beacon_bits += frames * bits_per_frame

    def record_resync(self, escalated_round: bool = False) -> None:
        """Account one escalated retry of an exhausted slot budget."""
        self.resync_attempts += 1
        if escalated_round:
            self.escalated_rounds += 1

    def record_quarantine(self, bits: int) -> None:
        """Account one quarantined byzantine message of ``bits`` bits.

        ``bits`` is the guard's work-capped measurement (a lower bound
        for payloads whose walk exited early), so ``rejected_bits`` is
        an attribution figure, not an exact wire size.
        """
        self.quarantined_messages += 1
        self.rejected_bits += bits

    @property
    def resilience_overhead_bits(self) -> int:
        """Total link-layer bits spent restoring the lockstep abstraction."""
        return self.retrans_bits + self.ack_bits + self.beacon_bits

    def summary_dict(self) -> dict[str, int]:
        """Deterministic scalar summary of one execution's accounting.

        Used by the campaign journal (:mod:`repro.sim.manifest`) and the
        adversary-search engine: only machine-independent integers, so a
        record's digest is identical on every host and worker count.
        ``wall_s`` is deliberately excluded (machine-local noise).
        """
        return {
            "honest_bits": self.honest_bits,
            "honest_messages": self.honest_messages,
            "rounds": self.rounds,
            "retrans_bits": self.retrans_bits,
            "ack_bits": self.ack_bits,
            "beacon_bits": self.beacon_bits,
            "transport_slots": self.transport_slots,
            "resync_attempts": self.resync_attempts,
            "escalated_rounds": self.escalated_rounds,
            "quarantined_messages": self.quarantined_messages,
            "rejected_bits": self.rejected_bits,
        }

    def channel_report(self) -> list[tuple[str, int, int]]:
        """Return ``(channel, bits, messages)`` rows sorted by bits desc."""
        rows = [
            (channel, bits, self.messages_by_channel[channel])
            for channel, bits in self.bits_by_channel.items()
        ]
        rows.sort(key=lambda row: row[1], reverse=True)
        return rows

    def bits_for_prefix(self, prefix: str) -> int:
        """Total honest bits on channels whose label starts with ``prefix``."""
        return sum(
            bits
            for channel, bits in self.bits_by_channel.items()
            if channel.startswith(prefix)
        )
