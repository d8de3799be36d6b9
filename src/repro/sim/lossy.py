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
  (attempt ``k`` waits ``min(2^k, max_backoff)`` slots, with the
  exponent capped *before* exponentiation so retransmit storms can
  never build huge intermediate integers);
* a per-round slot budget bounds how long the synchronizer waits; an
  exhausted budget raises :class:`TransportTimeout`, which the network
  surfaces as a :class:`~repro.errors.SimulationError` with partial
  state.

With a :class:`TimeoutEscalation` policy attached, an exhausted budget
does not immediately die: the parties of the round exchange
*round-resync beacons* (tiny frames announcing "I am still in round r,
re-arm your timers"), the slot budget grows exponentially (PBFT-style
timeout escalation), and the round is re-attempted -- up to
``max_attempts`` times before :class:`TransportTimeout` finally fires.
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
partial-synchrony defaults (a 64-slot budget, escalation armed).

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
from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import ConfigurationError, ReproError
from ..perf import counters
from .metrics import CommunicationStats
from .partial_sync import LinkSchedule

__all__ = [
    "ACK_BITS",
    "BEACON_BITS",
    "LossyTransport",
    "TimeoutEscalation",
    "TransportTimeout",
]

#: Size of one acknowledgement frame: a (round, sender) sequence tag
#: plus a few flag bits -- deliberately tiny, like a TCP pure-ACK.
ACK_BITS = 40

#: Size of one round-resync beacon frame: a round tag, the attempt
#: counter, and the re-armed budget -- the PBFT view-change analogue.
BEACON_BITS = 48


class TransportTimeout(ReproError):
    """The synchronizer exhausted its slot budget for one round."""


@dataclass(frozen=True)
class TimeoutEscalation:
    """PBFT-style timeout escalation policy for the round synchronizer.

    On an exhausted slot budget the synchronizer does not die
    immediately: the round's parties exchange resync beacons, the
    budget is multiplied by ``growth`` (capped at ``budget_cap``), and
    the round is re-attempted -- up to ``max_attempts`` total attempts.
    A budget that is exhausted on the last attempt raises
    :class:`TransportTimeout` exactly like the non-escalating path.
    """

    max_attempts: int = 6
    growth: int = 2
    budget_cap: int = 1 << 15
    #: simulated slots one beacon exchange takes (accounted on
    #: ``transport_slots`` and the transport's global clock).
    beacon_slots: int = 1

    def __post_init__(self) -> None:
        for name in ("max_attempts", "growth", "budget_cap", "beacon_slots"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"TimeoutEscalation.{name} must be an integer, "
                    f"got {value!r}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be positive")
        if self.growth < 2:
            raise ConfigurationError(
                "growth must be >= 2 -- a non-growing budget cannot "
                "outwait a slow network"
            )
        if self.budget_cap < 1:
            raise ConfigurationError("budget_cap must be positive")
        if self.beacon_slots < 0:
            raise ConfigurationError("beacon_slots must be >= 0")

    def next_budget(self, budget: int) -> int:
        """The re-armed slot budget after one exhausted attempt."""
        return min(budget * self.growth, max(budget, self.budget_cap))


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
            round (per attempt when escalation is armed) before the
            synchronizer gives up on the attempt.
        max_backoff: cap on the exponential retransmission backoff.
        links: restrict faults to these ``(src, dst)`` links
            (``None`` = every link); non-listed links still pay ack
            accounting but never drop or delay.
        escalation: optional :class:`TimeoutEscalation`; ``None`` keeps
            the classic single-attempt behaviour (an exhausted budget
            raises :class:`TransportTimeout` immediately).
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
        max_backoff: int = 16,
        links: frozenset[tuple[int, int]] | None = None,
        escalation: TimeoutEscalation | None = None,
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
            ("max_backoff", max_backoff),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer number of slots, "
                    f"got {value!r} ({type(value).__name__})"
                )
            if value < 1:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        if escalation is not None and not isinstance(
            escalation, TimeoutEscalation
        ):
            raise ConfigurationError(
                f"escalation must be a TimeoutEscalation or None, "
                f"got {escalation!r}"
            )
        self.drop = drop
        self.delay = delay
        self.reorder = reorder
        self.seed = seed
        self.slot_budget = slot_budget
        self.max_backoff = max_backoff
        self.links = links
        self.escalation = escalation
        self.schedule = schedule
        #: exponent cap: once ``2^attempts`` provably reaches
        #: ``max_backoff`` the power is never computed again.
        self._backoff_exp_cap = max(1, max_backoff.bit_length())
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
        escalation: TimeoutEscalation | None = TimeoutEscalation(),
        **link: Any,
    ) -> "LossyTransport":
        """A transport under partial synchrony, with that model's defaults.

        Takes the fields of a
        :class:`~repro.sim.partial_sync.LinkSchedule` as keywords, or --
        what :meth:`from_spec` does -- one already built, never both;
        ``link`` holds the constructor's remaining keywords.  A round
        stalled behind a pre-GST partition has to outwait it, so the
        per-attempt budget is short (64 slots) and the default
        :class:`TimeoutEscalation` is armed: the round resyncs with
        exponentially grown budgets instead of dying on the first
        exhausted one.
        """
        fields = LinkSchedule(gst, pre_gst_drop, partitions, churn)
        if schedule is not None and fields != LinkSchedule():
            raise ConfigurationError(
                "partial_sync takes a LinkSchedule or its fields, not both"
            )
        return cls(
            schedule=fields if schedule is None else schedule,
            slot_budget=slot_budget,
            escalation=escalation,
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

        Campaign goldens and archived artifacts pin the text, the
        ``PartialSyncTransport`` label of a scheduled transport
        included: it names the model, not a class.
        """
        scheduled = self.schedule is not None
        active = self.schedule.axes() if scheduled else []
        active += [
            f"{name}={getattr(self, name)}"
            for name in ("drop", "delay", "reorder")
            if getattr(self, name)
        ]
        label = "PartialSyncTransport" if scheduled else "LossyTransport"
        return f"{label}({', '.join(active) or 'perfect'})"

    @property
    def clock(self) -> int:
        """Global physical slots elapsed on this transport."""
        return self._clock

    @property
    def stabilization_time(self) -> int | None:
        """First global slot with bounded delivery (``None`` = never).

        Without a schedule the transport is probabilistically bounded
        from slot 0; with one, the schedule says (latest of GST,
        partition heals and churn ends).
        """
        if self.schedule is None:
            return 0
        return self.schedule.stabilization_time

    def _backoff(self, attempts: int) -> int:
        # Cap the exponent *before* exponentiation: at attempt 300 the
        # old min(2**300, cap) built a 90-digit integer per retransmit.
        if attempts >= self._backoff_exp_cap:
            return self.max_backoff
        return min(2 ** attempts, self.max_backoff)

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
        every retransmitted copy, ack frame, and (under escalation)
        resync beacon on ``stats``.

        Raises:
            TransportTimeout: the slot budget (including every escalated
                retry, when an escalation policy is armed) ran out with
                payloads still unacknowledged.
        """
        #: link -> copies sent so far, in sorted link order.
        pending: dict[tuple[int, int], int] = {}
        parties: set[int] = set()
        for link in sorted(link_bits):
            parties.update(link)
            if link[0] != link[1]:
                pending[link] = 0
        if not pending:
            return 0

        attempts = (
            1 if self.escalation is None else self.escalation.max_attempts
        )
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
            self._resync(round_index, attempt, parties, stats)
            total_slots += self.escalation.beacon_slots
            budget = self.escalation.next_budget(budget)

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
        ``beacon_slots`` physical slots.
        """
        frames = len(parties) * max(0, len(parties) - 1)
        stats.record_beacons(frames, BEACON_BITS)
        stats.record_resync(escalated_round=(attempt == 0))
        stats.record_slots(self.escalation.beacon_slots)
        self._clock += self.escalation.beacon_slots
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

        Returns the slots simulated; links still in ``pending`` were not
        acknowledged within ``budget`` slots.  An unacked link sits in
        exactly one slot-keyed table -- due for (re)transmission, or in
        the air awaiting its ack -- so a slot touches only the links
        with an event in it, in sorted order, transmissions first.
        """
        rng = random.Random(self._attempt_seed(round_index, attempt))
        coin = rng.random
        faulty, delay, reorder = self.links, self.delay, self.reorder
        # without a schedule every slot has the same rate and no sides.
        base_drop = drop = self.drop
        sides: tuple[frozenset[int], ...] = ()
        schedule, base_time = self.schedule, self._clock
        if schedule is not None:
            loss_at, severed_at = schedule.loss_at, schedule.severed_at
        #: slot -> links whose next copy is transmitted then.
        due: dict[int, list[tuple[int, int]]] = {0: list(pending)}
        #: slot -> links whose payload copy arrives then (ack pending).
        arrivals: dict[int, list[tuple[int, int]]] = {}
        retrans_bits = retrans_messages = acks = 0
        slots_used = 0

        def back_off(link: tuple[int, int]) -> None:
            # a lost copy or ack: the sender retransmits after a backoff.
            resend = slot + self._backoff(pending[link])
            due.setdefault(resend, []).append(link)

        for slot in range(budget):
            if not pending:
                break
            slots_used = slot + 1
            sending = due.pop(slot, ())
            if not sending and slot not in arrivals:
                continue
            if schedule is not None:
                at = base_time + slot
                drop = max(base_drop, loss_at(at))
                # a copy severed by a partition is lost without a coin.
                sides = severed_at(at)

            # 1. transmissions due this slot (first copies and backoffs).
            for link in sorted(sending):
                pending[link] += 1
                if pending[link] > 1:
                    retrans_messages += 1
                    retrans_bits += link_bits[link]
                lossy = faulty is None or link in faulty
                cut = sides and _severed(link, sides)
                if cut or (lossy and coin() < drop):
                    back_off(link)
                    continue
                arrival = slot
                if lossy and delay and coin() < delay:
                    arrival += 1
                    if reorder and coin() < reorder:
                        arrival += rng.randrange(1, 4)
                arrivals.setdefault(arrival, []).append(link)

            # 2. arrivals: the receiver acks; the ack crosses the same link.
            for link in sorted(arrivals.pop(slot, ())):
                acks += 1
                lossy = faulty is None or link in faulty
                cut = sides and _severed(link, sides)
                if cut or (lossy and coin() < drop):
                    back_off(link)
                else:
                    del pending[link]
        stats.retrans_bits += retrans_bits
        stats.retrans_messages += retrans_messages
        stats.ack_bits += acks * ACK_BITS
        stats.ack_messages += acks
        return slots_used


def _severed(link: tuple[int, int], sides: tuple[frozenset[int], ...]) -> bool:
    """Does ``link`` cross the boundary of any partition side?"""
    return any((link[0] in side) != (link[1] in side) for side in sides)


def _derive(label: str, *parts: int) -> int:
    """Deterministic 63-bit sub-seed from a label and integer parts."""
    material = "/".join([label, *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1
