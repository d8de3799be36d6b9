"""Partial synchrony as a value: GST, healing partitions, link churn.

The paper's model is lockstep synchrony; its conclusions point at the
asynchronous ``t < n/5`` setting as the frontier.  This module covers
the ground between the two with the classic *partial synchrony* model
of Dwork-Lynch-Stockmeyer: there exists a Global Stabilization Time
(GST), unknown to the protocol, before which the adversary schedules
message delays and partitions arbitrarily and after which delivery is
bounded.

:class:`LinkSchedule` is that adversary's schedule and nothing else: a
frozen value a :class:`~repro.sim.lossy.LossyTransport` is *given*
(``schedule=``) and asks three questions of.  Every window is keyed on
the transport's **global slot clock** -- physical slots counted
monotonically across rounds *and* escalation attempts -- never on round
indices, because a round stalled behind a partition does not advance
its round index while it waits:

* before ``gst``, every link additionally loses copies with rate
  ``pre_gst_drop``; after ``gst`` only the transport's own rates apply;
* **partition windows** ``(start, heal, members)`` deterministically
  sever every link crossing the ``members``-vs-rest boundary while the
  window is open (``heal == -1`` never heals);
* **churn windows** ``(start, end, extra_drop)`` raise the loss rate
  of every link inside the window -- link flap/slowdown schedules.

The window rules are written here once; a
:class:`~repro.sim.faults.FaultSpec` and
:meth:`LossyTransport.partial_sync
<repro.sim.lossy.LossyTransport.partial_sync>` both validate by
building this value.

Because the synchronizer still delivers exactly the perfect-network
inboxes (or raises), every execution that stabilizes inside the
escalated budgets is *byte-identical* in outputs and ``honest_bits``
to a perfect-network run -- pre-GST slowness costs only the separately
accounted ``retrans_* / ack_* / beacon_*`` overhead.  A network that
never stabilizes ends in :class:`~repro.sim.lossy.TransportTimeout`,
which the supervisor's escalation ladder
(:func:`~repro.sim.supervisor.run_with_escalation`) catches and
retries as ``HighCostCA`` over the same transport -- which a partition
that never heals fails too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["LinkSchedule"]


@dataclass(frozen=True)
class LinkSchedule:
    """When, on the global slot clock, the links misbehave.

    Args:
        gst: Global Stabilization Time in global slots (``None``
            disables the GST axis).
        pre_gst_drop: additional per-copy loss rate on every link
            before ``gst``.
        partitions: ``(start_slot, heal_slot, members)`` windows; links
            crossing the boundary are severed while open; ``heal_slot``
            of ``-1`` never heals.  ``members`` is stored as a
            frozenset.
        churn: ``(start_slot, end_slot, extra_drop)`` windows raising
            the loss rate inside the window.

    Raises:
        ConfigurationError: a window is reversed, empty, negative or
            names a negative party; a rate is outside ``[0, 1)``;
            ``pre_gst_drop`` is set without a ``gst``.
    """

    gst: int | None = None
    pre_gst_drop: float = 0.0
    partitions: tuple[tuple[int, int, frozenset[int]], ...] = ()
    churn: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        gst = self.gst
        if gst is not None:
            if isinstance(gst, bool) or not isinstance(gst, int):
                raise ConfigurationError(
                    f"gst must be an integer slot count, got {gst!r}"
                )
            if gst < 0:
                raise ConfigurationError(f"gst must be >= 0, got {gst}")
        if not 0.0 <= self.pre_gst_drop < 1.0:
            raise ConfigurationError(
                f"pre_gst_drop rate {self.pre_gst_drop} outside [0, 1)"
            )
        if self.pre_gst_drop and gst is None:
            raise ConfigurationError(
                "pre_gst_drop needs a gst -- without a stabilization "
                "time the extra loss would never end"
            )
        for window in self.partitions:
            start, heal, members = window
            if start < 0 or (heal != -1 and heal <= start):
                raise ConfigurationError(
                    f"partition {window}: need 0 <= start_slot < "
                    "heal_slot (or heal_slot == -1 for never)"
                )
            if not members or any(party < 0 for party in members):
                raise ConfigurationError(
                    f"partition {window}: members must be a non-empty "
                    "set of parties >= 0"
                )
        for window in self.churn:
            start, end, extra = window
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"churn {window}: need 0 <= start_slot < end_slot"
                )
            if not 0.0 <= extra < 1.0:
                raise ConfigurationError(
                    f"churn {window}: extra_drop {extra} outside [0, 1)"
                )
        object.__setattr__(
            self,
            "partitions",
            tuple(
                (start, heal, frozenset(members))
                for start, heal, members in self.partitions
            ),
        )

    def loss_at(self, at: int) -> float:
        """The schedule's per-copy loss rate at global slot ``at``.

        ``0.0`` outside every window; the transport applies the larger
        of this and its own ``drop``.
        """
        rate = 0.0
        if self.gst is not None and at < self.gst:
            rate = self.pre_gst_drop
        for start, end, extra in self.churn:
            if start <= at < end and extra > rate:
                rate = extra
        return rate

    def severed_at(self, at: int) -> tuple[frozenset[int], ...]:
        """Partition sides in force at global slot ``at``.

        A link whose endpoints fall on different sides of any returned
        member set is deterministically severed for that slot.
        """
        return tuple(
            members
            for start, heal, members in self.partitions
            if at >= start and (heal == -1 or at < heal)
        )

    def axes(self) -> list[str]:
        """The active axes as ``name=value`` labels, for ``describe``."""
        active = []
        if self.gst is not None:
            active.append(f"gst={self.gst}")
            if self.pre_gst_drop:
                active.append(f"pre_gst_drop={self.pre_gst_drop}")
        if self.partitions:
            active.append(f"partitions={len(self.partitions)}")
        if self.churn:
            active.append(f"churn={len(self.churn)}")
        return active
