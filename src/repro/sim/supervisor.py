"""Graceful degradation: one supervised escalation ladder.

The online invariant monitors (:mod:`repro.sim.invariants`) turn the
paper's guarantees into hard faults: a detected ``PI_lBA+`` bit-budget
overrun or broken invariant raises
:class:`~repro.errors.ProtocolViolation` and the execution dies.  For a
chaos harness that is the right default -- but a *deployment* wants the
next-best thing: detect that the communication-optimal path has gone
wrong and still end with a convex-valid output.

:func:`run_with_escalation` is the supervisor.  It runs a primary
execution; if that dies with a :class:`~repro.errors.ProtocolViolation`
(a monitor fired, or the network's own lockstep verdict) or a
:class:`~repro.errors.SimulationError` (round-budget exhaustion,
transport timeout), it descends one rung::

    optimal CA  ->  HighCostCA
    (primary)       (over the caller's transport)

A transport built with ``max_attempts > 1`` retries an exhausted round
inside whichever rung is running (resync beacons, then a grown slot
budget); that is the transport's synchronizer at work, not a rung, and
a round that exhausts every attempt is the rung's
:class:`~repro.sim.lossy.TransportTimeout`.

``HighCostCA`` (Appendix A.4) is the self-contained ``O(l n^3)``-bit
workhorse whose guarantees rest on nothing but ``t < n/3``.  Its rung
runs over the **same transport** as the primary: the supervisor has no
perfect network to offer that the caller does not have, so a network
that is actually broken (a partition that never heals) fails this rung
too.  Each rung is tried at most once, the traversal is recorded in
order on ``FallbackRecord.history``, and a ladder that runs out of
rungs raises a :class:`~repro.errors.SimulationError` carrying the
whole history -- never an unhandled exception, never a value computed
on a network that does not exist.

``HighCostCA`` operates on natural numbers; the supervisor embeds
arbitrary integer inputs by shifting them into N (the harness knows all
inputs) and un-shifting the agreed output, which preserves the convex
hull exactly.  No monitor watches the fallback, so the supervisor runs
the monitors' checks (``assert_convex_valid``) on its decision.

The fallback rung keeps the primary's corruption set but replaces the
adversary's *strategy* with spec-following corrupted parties: byzantine
strategies are protocol-shaped (they inspect channels and payloads of
the protocol they were written against) and cannot be meaningfully
re-driven against a different protocol.  ``HighCostCA``'s guarantees
hold against arbitrary byzantine behaviour regardless, so this choice
affects realism of the simulated attack, not soundness of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import ProtocolViolation, SimulationError
from .adversary import Adversary, PassiveAdversary
from .invariants import InvariantMonitor
from .metrics import CommunicationStats
from .network import ExecutionResult, ProtocolFactory, SynchronousNetwork

__all__ = ["FallbackRecord", "run_with_escalation"]

#: channel prefix of the ``HighCostCA`` rung's traffic.
FALLBACK_CHANNEL = "fallback/hc"

#: scalar CommunicationStats fields a serialized record carries.
_STATS_FIELDS = (
    "honest_bits", "honest_messages", "rounds",
    "retrans_bits", "retrans_messages", "ack_bits", "ack_messages",
    "transport_slots", "beacon_bits", "beacon_messages",
    "resync_attempts", "escalated_rounds",
    "quarantined_messages", "rejected_bits",
)


@dataclass(frozen=True)
class FallbackRecord:
    """Why and how an execution degraded off the optimal path."""

    #: exception class name of the primary failure.
    trigger: str
    #: human-readable description of the primary failure.
    detail: str
    #: monitor name when a :class:`ProtocolViolation` fired, else ``None``.
    monitor: str | None
    #: the shift applied to embed the inputs into N (output was
    #: un-shifted by the same amount).
    offset: int
    #: communication stats of the aborted primary execution.
    primary_stats: CommunicationStats | None = None
    #: the escalation traversal in order, one entry per rung tried.
    history: tuple[str, ...] = ()
    #: transport-level escalated retries the primary performed before
    #: failing (mirrors ``primary_stats.resync_attempts``).
    resyncs: int = 0

    def describe(self) -> str:
        via = f" via {self.monitor}" if self.monitor else ""
        return (
            f"degraded to HighCostCA after {self.trigger}{via}: {self.detail}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation of the record."""
        return {
            "trigger": self.trigger,
            "detail": self.detail,
            "monitor": self.monitor,
            "offset": self.offset,
            "history": list(self.history),
            "resyncs": self.resyncs,
            "primary_stats": (
                None
                if self.primary_stats is None
                else {
                    name: getattr(self.primary_stats, name)
                    for name in _STATS_FIELDS
                }
            ),
        }


class _StaticCorruptions(PassiveAdversary):
    """Spec-following corrupted parties with a pinned corruption set."""

    def __init__(self, corrupted: frozenset[int]) -> None:
        super().__init__()
        self._corrupted = set(corrupted)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(self._corrupted)


def _failed(rung: str, failure: Exception) -> str:
    """One history entry: ``rung`` ended in ``failure``."""
    # first line only, truncated: messages carry whole transport dumps.
    line = (str(failure).splitlines() or [""])[0]
    if len(line) > 200:
        line = line[:197] + "..."
    return f"{rung}: {type(failure).__name__}: {line}"


def run_with_escalation(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    n: int,
    t: int,
    adversary: Adversary | None = None,
    monitors: Sequence[InvariantMonitor] = (),
    escalate_on: tuple[type, ...] = (ProtocolViolation, SimulationError),
    **network: Any,
) -> ExecutionResult:
    """Run the primary protocol; on failure descend the ladder to a decision.

    Rungs, each tried at most once and recorded in order on
    ``FallbackRecord.history``:

    1. **primary** -- the optimal protocol with the full resilience
       stack.  A transport with ``max_attempts > 1`` retries a stalled
       round itself, so a network that stabilizes late still yields a
       clean, byte-identical result with ``fallback is None`` and the
       retry cost visible only in the ``beacon_* / resync_*`` stats
       fields.
    2. **high_cost_ca** -- on :class:`ProtocolViolation` or
       :class:`SimulationError`, rerun the (shifted) inputs through
       ``HighCostCA`` over the **same transport**, whose clock keeps
       running: a genuinely broken network fails this rung too, which
       is the point -- only an actually-usable network lets the ladder
       stop here.

    A ladder that exhausts both rungs raises a
    :class:`~repro.errors.SimulationError` carrying the full history
    and the primary's stats; no network schedule produces an unhandled
    exception.  Configuration errors and harness bugs propagate -- only
    detected protocol misbehaviour degrades.

    Non-integer inputs cannot ride the fallback rung, so the primary
    failure propagates unchanged for them.

    A ``HighCostCA`` decision outside Agreement or Convex Validity
    raises their tagged :class:`ProtocolViolation`, not an exhausted ladder.

    ``adversary`` and ``monitors`` are the primary rung's; every other
    keyword (``kappa``, ``max_rounds``, ``trace``, ``transport``,
    ``guards``: :class:`~repro.sim.network.SynchronousNetwork`'s
    options) goes to every rung alike, so the fallback shares the
    caller's transport (and its clock), guards and caps.

    ``escalate_on`` restricts which primary failures enter the ladder
    (default: both).  The chaos plane passes ``(SimulationError,)`` so
    a fired invariant monitor stays a reported protocol bug instead of
    being silently degraded away.
    """
    if isinstance(inputs, list):
        inputs = dict(enumerate(inputs))

    primary = SynchronousNetwork(
        protocol_factory, inputs, n, t, adversary=adversary,
        monitors=monitors, **network,
    )
    try:
        return primary.run()
    except (ProtocolViolation, SimulationError) as failure:
        if not isinstance(failure, escalate_on):
            raise
        primary_failure = failure
    if any(
        not isinstance(v, int) or isinstance(v, bool) for v in inputs.values()
    ):
        # HighCostCA needs integers: nothing below can run.
        raise primary_failure
    offset = max(0, -min(inputs.values()))  # shift into N
    shifted = {party: value + offset for party, value in inputs.items()}
    resyncs = primary.stats.resync_attempts
    history = [_failed("primary", primary_failure)]
    if resyncs:
        history.append(
            f"transport: {resyncs} escalated retr"
            f"{'y' if resyncs == 1 else 'ies'} before the failure"
        )

    # -- HighCostCA over the caller's (possibly broken) transport --
    from ..core.high_cost_ca import high_cost_ca

    try:
        result = SynchronousNetwork(
            lambda ctx, v: high_cost_ca(ctx, v, channel=FALLBACK_CHANNEL),
            shifted, n, t,
            adversary=_StaticCorruptions(frozenset(primary.corrupted)),
            **network,
        ).run()
    except (ProtocolViolation, SimulationError) as hc_failure:
        history.append(_failed("high_cost_ca", hc_failure))
        raise SimulationError(
            "escalation ladder exhausted: " + " | ".join(history),
            stats=primary.stats,
        ) from primary_failure
    history.append("high_cost_ca: decided")
    result.outputs = {
        party: value - offset for party, value in result.outputs.items()
    }
    result.assert_convex_valid(inputs)
    result.fallback = FallbackRecord(
        trigger=type(primary_failure).__name__,
        detail=str(primary_failure),
        monitor=getattr(primary_failure, "monitor", None),
        offset=offset,
        primary_stats=primary.stats,
        history=tuple(history),
        resyncs=resyncs,
    )
    return result
