"""Partial-synchrony transport: GST, healing partitions, link churn.

The paper's model is lockstep synchrony; its conclusions point at the
asynchronous ``t < n/5`` setting as the frontier.  This module covers
the ground between the two with the classic *partial synchrony* model
of Dwork-Lynch-Stockmeyer: there exists a Global Stabilization Time
(GST), unknown to the protocol, before which the adversary schedules
message delays and partitions arbitrarily and after which delivery is
bounded.

:class:`PartialSyncTransport` realises the model as a subclass of the
lossy-link plane:

* a **global slot clock** (inherited from
  :class:`~repro.sim.lossy.LossyTransport`) counts physical slots
  monotonically across rounds *and* escalation attempts -- GST,
  partition windows, and churn windows are keyed on this clock, never
  on round indices, because a round stalled behind a partition does
  not advance its round index while it waits;
* before ``gst``, every link additionally loses copies with rate
  ``pre_gst_drop``; after ``gst`` only the baseline rates apply;
* **partition windows** ``(start, heal, members)`` deterministically
  sever every link crossing the ``members``-vs-rest boundary while the
  window is open (``heal == -1`` never heals);
* **churn windows** ``(start, end, extra_drop)`` raise the loss rate
  of every link inside the window -- link flap/slowdown schedules;
* the PBFT-style :class:`~repro.sim.lossy.TimeoutEscalation` policy is
  armed by default, so a round stalled behind a pre-GST partition
  resyncs with exponentially grown budgets instead of dying on the
  first exhausted budget.

Because the synchronizer still delivers exactly the perfect-network
inboxes (or raises), every execution that stabilizes inside the
escalated budgets is *byte-identical* in outputs and ``honest_bits``
to a perfect-network run -- pre-GST slowness costs only the separately
accounted ``retrans_* / ack_* / beacon_*`` overhead.  A network that
never stabilizes ends in :class:`~repro.sim.lossy.TransportTimeout`,
which the supervisor's escalation ladder
(:func:`~repro.sim.supervisor.run_with_escalation`) catches and
degrades through ``HighCostCA`` down to asynchronous approximate
agreement.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from .lossy import LossyTransport, TimeoutEscalation, _derive

__all__ = ["PartialSyncTransport", "stabilization_time_of"]


def stabilization_time_of(
    gst: int | None,
    partitions: tuple[tuple[int, int, tuple[int, ...]], ...],
    churn: tuple[tuple[int, int, float], ...],
) -> int | None:
    """First global slot after which the network behaves; ``None`` = never.

    The model's GST is the latest of: the declared ``gst``, the heal
    slot of every partition, and the end of every churn window.  A
    partition with ``heal == -1`` never heals, so the network never
    stabilizes and liveness is not guaranteed (only the failover
    ladder is).
    """
    latest = gst or 0
    for _, heal, _ in partitions:
        if heal == -1:
            return None
        latest = max(latest, heal)
    for _, end, _ in churn:
        latest = max(latest, end)
    return latest


class PartialSyncTransport(LossyTransport):
    """GST-style lossy transport with partitions, churn, and escalation.

    Args:
        gst: Global Stabilization Time in global slots (``None``
            disables the GST axis).
        pre_gst_drop: additional per-copy loss rate on every link
            before ``gst``.
        partitions: ``(start_slot, heal_slot, members)`` windows; links
            crossing the boundary are severed while open; ``heal_slot``
            of ``-1`` never heals.
        churn: ``(start_slot, end_slot, extra_drop)`` windows raising
            the loss rate inside the window.
        escalation: timeout-escalation policy; defaults to an armed
            :class:`TimeoutEscalation` (pass one explicitly to tune,
            or build a plain :class:`LossyTransport` for the classic
            die-on-first-timeout behaviour).

    Remaining arguments match :class:`LossyTransport`.  Partial
    synchrony is a whole-network condition, so the per-link ``links``
    restriction is not available here.
    """

    def __init__(
        self,
        gst: int | None = None,
        pre_gst_drop: float = 0.0,
        partitions: tuple[tuple[int, int, tuple[int, ...]], ...] = (),
        churn: tuple[tuple[int, int, float], ...] = (),
        drop: float = 0.0,
        delay: float = 0.0,
        reorder: float = 0.0,
        seed: int = 0,
        slot_budget: int = 64,
        max_backoff: int = 16,
        escalation: TimeoutEscalation | None = None,
    ) -> None:
        super().__init__(
            drop=drop,
            delay=delay,
            reorder=reorder,
            seed=seed,
            slot_budget=slot_budget,
            max_backoff=max_backoff,
            links=None,
            escalation=(
                TimeoutEscalation() if escalation is None else escalation
            ),
        )
        if gst is not None:
            if isinstance(gst, bool) or not isinstance(gst, int):
                raise ConfigurationError(
                    f"gst must be an integer slot count, got {gst!r}"
                )
            if gst < 0:
                raise ConfigurationError(f"gst must be >= 0, got {gst}")
        if not 0.0 <= pre_gst_drop < 1.0:
            raise ConfigurationError(
                f"pre_gst_drop rate {pre_gst_drop} outside [0, 1)"
            )
        if pre_gst_drop and gst is None:
            raise ConfigurationError(
                "pre_gst_drop needs a gst -- without a stabilization "
                "time the extra loss would never end"
            )
        normalized: list[tuple[int, int, frozenset[int]]] = []
        for window in partitions:
            start, heal, members = window
            if start < 0 or (heal != -1 and heal <= start):
                raise ConfigurationError(
                    f"partition {window}: need 0 <= start_slot < "
                    "heal_slot (or heal_slot == -1 for never)"
                )
            if not members:
                raise ConfigurationError(
                    f"partition {window}: members must be non-empty"
                )
            normalized.append((start, heal, frozenset(members)))
        for window in churn:
            start, end, extra = window
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"churn {window}: need 0 <= start_slot < end_slot"
                )
            if not 0.0 <= extra < 1.0:
                raise ConfigurationError(
                    f"churn {window}: extra_drop {extra} outside [0, 1)"
                )
        self.gst = gst
        self.pre_gst_drop = pre_gst_drop
        self.partitions = tuple(normalized)
        self.churn = tuple(
            (start, end, extra) for start, end, extra in churn
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Any) -> "PartialSyncTransport | None":
        """Build from a :class:`~repro.sim.faults.FaultSpec`.

        Returns ``None`` when the spec has neither partial-synchrony
        nor link-fault axes.  The seed derivation is distinct from the
        plain lossy one so adding a GST axis to a spec draws an
        independent schedule family.
        """
        if not (
            getattr(spec, "has_partial_sync", False)
            or getattr(spec, "has_link_faults", False)
        ):
            return None
        return cls(
            gst=spec.gst,
            pre_gst_drop=spec.pre_gst_drop,
            partitions=spec.partitions,
            churn=spec.link_churn,
            drop=spec.link_drop,
            delay=spec.link_delay,
            reorder=spec.link_reorder,
            seed=_derive("psync-from-spec", spec.seed),
        )

    def describe(self) -> str:
        axes = []
        if self.gst is not None:
            axes.append(f"gst={self.gst}")
            if self.pre_gst_drop:
                axes.append(f"pre_gst_drop={self.pre_gst_drop}")
        if self.partitions:
            axes.append(f"partitions={len(self.partitions)}")
        if self.churn:
            axes.append(f"churn={len(self.churn)}")
        for name in ("drop", "delay", "reorder"):
            value = getattr(self, name)
            if value:
                axes.append(f"{name}={value}")
        return f"PartialSyncTransport({', '.join(axes) or 'perfect'})"

    # ------------------------------------------------------------------
    @property
    def stabilization_time(self) -> int | None:
        """First slot from which delivery is bounded; ``None`` = never."""
        return stabilization_time_of(self.gst, self.partitions, self.churn)

    def stabilized(self, at: int | None = None) -> bool:
        """Has the network stabilized by global slot ``at`` (now)?"""
        if at is None:
            at = self._clock
        horizon = self.stabilization_time
        return horizon is not None and at >= horizon

    # -- synchronizer hooks --------------------------------------------
    def _severed_at(self, at: int) -> tuple[frozenset[int], ...]:
        return tuple(
            members
            for start, heal, members in self.partitions
            if at >= start and (heal == -1 or at < heal)
        )

    def _drop_at(self, at: int) -> float:
        rate = self.drop
        if self.gst is not None and at < self.gst:
            rate = max(rate, self.pre_gst_drop)
        for start, end, extra in self.churn:
            if start <= at < end:
                rate = max(rate, extra)
        return rate
