"""Lossy links and the round synchronizer that hides them.

The paper's model (Section 2) assumes guaranteed delivery within one
round.  Real links drop, delay, and reorder.  This module closes the
gap with the classic construction: a :class:`LossyTransport` subjects
every honest point-to-point message to a *seeded* drop/delay/reorder
schedule, and a round synchronizer restores the lockstep abstraction on
top of it --

* every payload carries an implicit ``(round, sender)`` sequence tag and
  is acknowledged by the receiver (acks traverse the same lossy link);
* unacknowledged copies are retransmitted with exponential backoff
  (attempt ``k`` waits ``min(2^k, MAX_BACKOFF)`` slots, with the
  exponent capped *before* exponentiation so retransmit storms can
  never build huge intermediate integers);
* a per-round slot budget bounds how long the synchronizer waits; an
  exhausted budget raises :class:`TransportTimeout`, which the network
  surfaces as a :class:`~repro.errors.SimulationError` with partial
  state.

With ``max_attempts > 1``, an exhausted budget does not immediately
die: the parties of the round exchange *round-resync beacons* (tiny
frames announcing "I am still in round r, re-arm your timers"), the
slot budget doubles up to ``BUDGET_CAP`` (PBFT-style timeout
escalation), and the round is re-attempted -- up to ``max_attempts``
attempts in all before :class:`TransportTimeout` finally fires.
Beacon frames and retry attempts are accounted in the ``beacon_*`` /
``resync_attempts`` / ``escalated_rounds`` fields of
:class:`~repro.sim.metrics.CommunicationStats`, never in
``honest_bits``.

Partial synchrony is not another transport: it is a
:class:`~repro.sim.partial_sync.LinkSchedule` the transport is *given*
(``schedule=``).  The synchronizer asks it, per slot with an event, for
the loss rate and the partition sides in force; with no schedule the
rate is ``drop`` and nothing is severed, and no question is asked.
:meth:`LossyTransport.partial_sync` is the one constructor holding the
partial-synchrony defaults (a 64-slot budget, six attempts).

Protocols run **unmodified** on top: the synchronizer guarantees that
the logical inbox of every round is exactly what a perfect network
would have delivered, so executions over a lossy transport are
*byte-identical* to perfect-network executions in their outputs and
protocol-level communication stats.  The price of the resilience shows
up separately -- retransmitted copies, ack frames, and physical slots
are accounted in the ``retrans_*`` / ``ack_*`` / ``transport_slots``
fields of :class:`~repro.sim.metrics.CommunicationStats`, never in the
paper's ``honest_bits``.

Determinism: all coins come from one :class:`random.Random` per round
attempt, seeded by ``H(seed, round)`` (``H(seed, round, attempt)`` for
escalated retries), consumed in sorted link order -- the same schedule
replays on any worker, which is what keeps lossy executions inside the
engine's serial/parallel conformance contract.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterable

from ..errors import ConfigurationError, TransportTimeout
from ..perf import counters
from .metrics import CommunicationStats
from .partial_sync import LinkSchedule

__all__ = [
    "ACK_BITS",
    "BEACON_BITS",
    "LossyTransport",
    "TransportTimeout",
]

#: Size of one acknowledgement frame: a (round, sender) sequence tag
#: plus a few flag bits -- deliberately tiny, like a TCP pure-ACK.
ACK_BITS = 40

#: Size of one round-resync beacon frame: a round tag, the attempt
#: counter, and the re-armed budget -- the PBFT view-change analogue.
BEACON_BITS = 48

#: Simulated slots one resync beacon exchange takes (accounted on
#: ``transport_slots`` and the transport's global clock).
BEACON_SLOTS = 1

#: Cap on the exponential retransmission backoff, in slots.
MAX_BACKOFF = 16

#: Backoff exponents from which ``2^k`` would reach the cap: the power
#: is never computed for them.
_BACKOFF_EXP_CAP = MAX_BACKOFF.bit_length()

#: An escalated retry's slot budget: the exhausted one times
#: ``BUDGET_GROWTH``, capped at ``BUDGET_CAP`` (never shrunk below it).
BUDGET_GROWTH = 2
BUDGET_CAP = 1 << 15


class LossyTransport:
    """Seeded lossy link schedules + ack/retransmit round synchronizer.

    Args:
        drop: per-copy probability a transmitted frame (payload *or*
            ack) is lost; must be ``< 1`` or no round could ever
            complete.
        delay: per-copy probability a surviving payload arrives one
            slot late instead of in its transmission slot.
        reorder: given a delayed copy, probability it is delayed by
            extra jitter slots as well -- copies of different messages
            can then arrive in an order unrelated to their send order.
        seed: deterministic schedule seed.
        slot_budget: maximum physical slots simulated per logical
            round attempt before the synchronizer gives up on the
            attempt.
        links: restrict faults to these ``(src, dst)`` links
            (``None`` = every link); non-listed links still pay ack
            accounting but never drop or delay.
        max_attempts: synchronization attempts per round; each retry
            follows a resync beacon exchange and a grown slot budget.
            ``1`` (the default) raises :class:`TransportTimeout` on the
            first exhausted budget.
        schedule: optional :class:`~repro.sim.partial_sync.LinkSchedule`
            -- GST, partition and churn windows on the global slot
            clock; ``None`` is a network that is lossy from slot 0 and
            never partitioned.
    """

    def __init__(
        self,
        drop: float = 0.0,
        delay: float = 0.0,
        reorder: float = 0.0,
        seed: int = 0,
        slot_budget: int = 256,
        links: frozenset[tuple[int, int]] | None = None,
        max_attempts: int = 1,
        schedule: LinkSchedule | None = None,
    ) -> None:
        for name, rate in (("delay", delay), ("reorder", reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} rate {rate} outside [0, 1]"
                )
        if not 0.0 <= drop < 1.0:
            raise ConfigurationError(
                f"drop rate {drop} outside [0, 1) -- a link that drops "
                "everything can never be synchronized"
            )
        for name, value in (
            ("slot_budget", slot_budget),
            ("max_attempts", max_attempts),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer, "
                    f"got {value!r} ({type(value).__name__})"
                )
            if value < 1:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        self.drop = drop
        self.delay = delay
        self.reorder = reorder
        self.seed = seed
        self.slot_budget = slot_budget
        self.links = links
        self.max_attempts = max_attempts
        self.schedule = schedule
        #: global physical time in slots (monotone across rounds and
        #: attempts); the schedule's windows are keyed on it.
        self._clock = 0
        #: escalated retries performed over the transport's lifetime.
        self.total_resyncs = 0

    # ------------------------------------------------------------------
    @classmethod
    def partial_sync(
        cls,
        schedule: LinkSchedule | None = None,
        *,
        gst: int | None = None,
        pre_gst_drop: float = 0.0,
        partitions: tuple[tuple[int, int, Iterable[int]], ...] = (),
        churn: tuple[tuple[int, int, float], ...] = (),
        slot_budget: int = 64,
        max_attempts: int = 6,
        **link: Any,
    ) -> "LossyTransport":
        """A transport under partial synchrony, with that model's defaults.

        Takes the fields of a
        :class:`~repro.sim.partial_sync.LinkSchedule` as keywords, or --
        what :meth:`from_spec` does -- one already built, never both;
        ``link`` holds the constructor's remaining keywords.  A round
        stalled behind a pre-GST partition has to outwait it, so the
        per-attempt budget is short (64 slots) and a round has six
        attempts: it resyncs with exponentially grown budgets instead
        of dying on the first exhausted one.
        """
        fields = LinkSchedule(gst, pre_gst_drop, partitions, churn)
        if schedule is not None and fields != LinkSchedule():
            raise ConfigurationError(
                "partial_sync takes a LinkSchedule or its fields, not both"
            )
        return cls(
            schedule=fields if schedule is None else schedule,
            slot_budget=slot_budget,
            max_attempts=max_attempts,
            **link,
        )

    @classmethod
    def from_spec(cls, spec: Any) -> "LossyTransport | None":
        """Build a transport from a :class:`~repro.sim.faults.FaultSpec`.

        Returns ``None`` when the spec carries neither link-fault nor
        partial-synchrony axes (GST, partitions, churn); with the
        latter, the :meth:`partial_sync` transport over
        ``spec.schedule``.  The transport seed is derived from (not
        equal to) the spec seed so the link schedule never correlates
        with the byzantine fault injector's stream, and the two
        families draw from distinct labels so adding a GST axis to a
        spec draws an independent schedule.
        """
        rates = {
            "drop": spec.link_drop,
            "delay": spec.link_delay,
            "reorder": spec.link_reorder,
        }
        if spec.schedule is not None:
            return cls.partial_sync(
                spec.schedule,
                seed=_derive("psync-from-spec", spec.seed),
                **rates,
            )
        if not spec.has_link_faults:
            return None
        return cls(
            seed=_derive("lossy-from-spec", spec.seed),
            links=spec.links,
            **rates,
        )

    def describe(self) -> str:
        """The model and its active axes, as failure messages print them.

        ``partial-sync(gst=..., partitions=N, ...)`` with a schedule,
        ``LossyTransport(...)`` without one.  Campaign goldens and
        archived artifacts pin the text.
        """
        scheduled = self.schedule is not None
        active = self.schedule.axes() if scheduled else []
        active += [
            f"{name}={getattr(self, name)}"
            for name in ("drop", "delay", "reorder")
            if getattr(self, name)
        ]
        label = "partial-sync" if scheduled else "LossyTransport"
        return f"{label}({', '.join(active) or 'perfect'})"

    @property
    def clock(self) -> int:
        """Global physical slots elapsed on this transport."""
        return self._clock

    def _backoff(self, attempts: int) -> int:
        # Cap the exponent *before* exponentiation: at attempt 300 the
        # old min(2**300, cap) built a 90-digit integer per retransmit.
        if attempts >= _BACKOFF_EXP_CAP:
            return MAX_BACKOFF
        return min(2 ** attempts, MAX_BACKOFF)

    def _attempt_seed(self, round_index: int, attempt: int) -> int:
        """Schedule seed for one synchronization attempt.

        Attempt 0 keeps the historical ``H(seed, round)`` derivation so
        escalation-free executions replay pre-escalation schedules
        byte-identically; retries draw fresh independent schedules.
        """
        if attempt == 0:
            return _derive("lossy-round", self.seed, round_index)
        return _derive("lossy-resync", self.seed, round_index, attempt)

    # ------------------------------------------------------------------
    def synchronize(
        self,
        round_index: int,
        link_bits: dict[tuple[int, int], int],
        stats: CommunicationStats,
    ) -> int:
        """Simulate one logical round's slots until every payload is acked.

        ``link_bits`` prices the round's honest traffic per ``(src, dst)``
        link: the synchronizer needs what a retransmitted copy costs,
        never the payload.  Loopback links (``src == dst``) stay off the
        wire; they are listed so their party joins resync beacons.
        Returns the number of physical slots simulated and accounts
        every retransmitted copy, ack frame, and resync beacon on
        ``stats``.

        Raises:
            TransportTimeout: the slot budget of the last of
                ``max_attempts`` attempts ran out with payloads still
                unacknowledged.
        """
        #: link -> copies sent so far, in sorted link order.
        pending = {link: 0 for link in sorted(link_bits) if link[0] != link[1]}
        attempts = self.max_attempts
        budget = self.slot_budget
        total_slots = 0
        for attempt in range(attempts):
            slots = self._attempt_round(
                round_index, attempt, pending, link_bits, stats, budget
            )
            total_slots += slots
            stats.record_slots(slots)
            self._clock += slots
            if not pending:
                return total_slots
            if attempt + 1 >= attempts:
                break
            parties = {party for link in link_bits for party in link}
            self._resync(round_index, attempt, parties, stats)
            total_slots += BEACON_SLOTS
            budget = min(budget * BUDGET_GROWTH, max(budget, BUDGET_CAP))

        raise TransportTimeout(
            f"round {round_index}: {len(pending)} payload(s) still "
            f"unacknowledged after {total_slots} slots across "
            f"{attempts} attempt(s) "
            f"(drop={self.drop}, delay={self.delay}, "
            f"transport={self.describe()})"
        )

    def _resync(
        self,
        round_index: int,
        attempt: int,
        parties: set[int],
        stats: CommunicationStats,
    ) -> None:
        """Exchange round-resync beacons and re-arm the synchronizer.

        Every party of the round broadcasts one beacon to each peer --
        the all-to-all "I am still in round r" exchange that lets the
        retry start from a common slot origin.  Overhead lands on the
        beacon fields of ``stats``; the simulated exchange itself costs
        ``BEACON_SLOTS`` physical slots.
        """
        frames = len(parties) * max(0, len(parties) - 1)
        stats.record_beacons(frames, BEACON_BITS)
        stats.record_resync(escalated_round=(attempt == 0))
        stats.record_slots(BEACON_SLOTS)
        self._clock += BEACON_SLOTS
        self.total_resyncs += 1
        counters.bump("transport_resyncs")
        counters.bump("transport_beacons", frames)

    def _attempt_round(
        self,
        round_index: int,
        attempt: int,
        pending: dict[tuple[int, int], int],
        link_bits: dict[tuple[int, int], int],
        stats: CommunicationStats,
        budget: int,
    ) -> int:
        """One bounded synchronization attempt; prunes acked links.

        Returns the slots simulated; links still in ``pending`` (sorted)
        were not acknowledged within ``budget`` slots.  An unacked link
        is due for (re)transmission or in the air awaiting its ack, in
        one slot-keyed table, so the attempt jumps from event slot to
        event slot, in sorted link order, transmissions first.  With no
        loss, no delay and no schedule every copy and ack lands in slot
        0 whatever the coins say, so none are drawn.
        """
        if not pending:
            return 0
        if not (self.drop or self.delay) and self.schedule is None:
            resent = [link for link, sent in pending.items() if sent]
            stats.retrans_bits += sum(link_bits[link] for link in resent)
            stats.retrans_messages += len(resent)
            stats.ack_bits += len(pending) * ACK_BITS
            stats.ack_messages += len(pending)
            pending.clear()
            return 1
        rng = random.Random(self._attempt_seed(round_index, attempt))
        coin = rng.random
        faulty, delay, reorder = self.links, self.delay, self.reorder
        # without a schedule every slot has the same rate and no sides.
        base_drop = drop = self.drop
        sides: tuple[frozenset[int], ...] = ()
        schedule, base_time = self.schedule, self._clock
        if schedule is not None:
            loss_at, severed_at = schedule.loss_at, schedule.severed_at
        #: slot -> (links whose next copy is transmitted then, links
        #: whose payload copy arrives then and awaits its ack).
        events: dict[int, tuple[list, list]] = {0: (list(pending), [])}
        retrans_bits = retrans_messages = acks = 0

        while pending:
            slot = min(events)
            if slot >= budget:
                slot = budget - 1
                break
            sending, landing = events.pop(slot)
            if schedule is not None:
                at = base_time + slot
                drop = max(base_drop, loss_at(at))
                # a copy severed by a partition is lost without a coin.
                sides = severed_at(at)

            # 1. transmissions due this slot (first copies and backoffs).
            # Slot 0's lists are filled in sorted order (``pending``'s,
            # then its own pass); a later one collects several slots'.
            for link in sorted(sending) if slot else sending:
                sent = pending[link] = pending[link] + 1
                if sent > 1:
                    retrans_messages += 1
                    retrans_bits += link_bits[link]
                lossy = faulty is None or link in faulty
                cut = sides and _severed(link, sides)
                if cut or (lossy and coin() < drop):
                    # lost: the sender retransmits after a backoff.
                    resend = slot + self._backoff(sent)
                    events.setdefault(resend, ([], []))[0].append(link)
                elif lossy and delay and coin() < delay:
                    arrival = slot + 1
                    if reorder and coin() < reorder:
                        arrival += rng.randrange(1, 4)
                    events.setdefault(arrival, ([], []))[1].append(link)
                else:
                    landing.append(link)

            # 2. arrivals: the receiver acks; the ack crosses the same link.
            for link in sorted(landing) if slot else landing:
                acks += 1
                lossy = faulty is None or link in faulty
                cut = sides and _severed(link, sides)
                if cut or (lossy and coin() < drop):
                    resend = slot + self._backoff(pending[link])
                    events.setdefault(resend, ([], []))[0].append(link)
                else:
                    del pending[link]
        stats.retrans_bits += retrans_bits
        stats.retrans_messages += retrans_messages
        stats.ack_bits += acks * ACK_BITS
        stats.ack_messages += acks
        return slot + 1


def _severed(link: tuple[int, int], sides: tuple[frozenset[int], ...]) -> bool:
    """Does ``link`` cross the boundary of any partition side?"""
    return any((link[0] in side) != (link[1] in side) for side in sides)


def _derive(label: str, *parts: int) -> int:
    """Deterministic 63-bit sub-seed from a label and integer parts."""
    material = "/".join([label, *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1
