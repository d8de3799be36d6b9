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
(a monitor fired) or a :class:`~repro.errors.SimulationError` (lockstep
break, round-budget exhaustion, transport timeout), it descends::

    optimal CA  ->  budget-escalated retry  ->  HighCostCA  ->  async AA
    (primary)       (inside the transport's     (the caller's    (t < n/5,
                     TimeoutEscalation)         transport)       only with
                                                                 epsilon=)

``HighCostCA`` (Appendix A.4) is the self-contained ``O(l n^3)``-bit
workhorse whose guarantees rest on nothing but ``t < n/3``.  Its rung
runs over the **same transport** as the primary: the supervisor has no
perfect network to offer that the caller does not have, so a network
that is actually broken (a never-healing partition) fails this rung
too.  Asynchronous Approximate Agreement needs no synchrony at all,
but its outputs agree only up to ``epsilon`` -- a weaker contract the
ladder enters only when the caller names the ``epsilon`` it accepts.
Each rung is tried at most once, the traversal is recorded in order on
``FallbackRecord.history``, and a ladder that runs out of rungs raises
a budgeted :class:`~repro.errors.SimulationError` carrying the whole
history -- never an unhandled exception, never a value computed on a
network that does not exist.

``HighCostCA`` operates on natural numbers; the supervisor embeds
arbitrary integer inputs by shifting them into N (the harness knows all
inputs) and un-shifting the agreed output, which preserves the convex
hull exactly.

The lower rungs keep the primary's corruption set but replace the
adversary's *strategy* with spec-following corrupted parties: byzantine
strategies are protocol-shaped (they inspect channels and payloads of
the protocol they were written against) and cannot be meaningfully
re-driven against a different protocol.  ``HighCostCA``'s guarantees
hold against arbitrary byzantine behaviour regardless, so this choice
affects realism of the simulated attack, not soundness of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from ..errors import ConfigurationError, ProtocolViolation, SimulationError
from .adversary import Adversary, PassiveAdversary
from .invariants import InvariantMonitor
from .lossy import LossyTransport
from .metrics import CommunicationStats
from .network import ExecutionResult, ProtocolFactory, SynchronousNetwork
from .recovery import CrashEvent, RecoveryConfig
from .wire import WireLimits

__all__ = ["FallbackRecord", "run_with_escalation"]

#: channel prefix of the ``HighCostCA`` rung's traffic.
FALLBACK_CHANNEL = "fallback/hc"

#: scalar CommunicationStats fields serialized into fallback artifacts.
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
    #: the ladder rung that produced the returned outputs:
    #: ``"high_cost_ca"`` or ``"async_aa"``.
    rung: str = "high_cost_ca"
    #: the escalation traversal in order, one entry per rung tried.
    history: tuple[str, ...] = ()
    #: eps of the async AA rung (stringified Fraction), else ``None`` --
    #: the returned outputs then agree only up to ``epsilon``.
    epsilon: str | None = None
    #: transport-level escalated retries the primary performed before
    #: failing (mirrors ``primary_stats.resync_attempts``).
    resyncs: int = 0

    def describe(self) -> str:
        via = f" via {self.monitor}" if self.monitor else ""
        target = (
            "asynchronous AA" if self.rung == "async_aa" else "HighCostCA"
        )
        return f"degraded to {target} after {self.trigger}{via}: {self.detail}"

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by repro artifacts)."""
        return {
            "trigger": self.trigger,
            "detail": self.detail,
            "monitor": self.monitor,
            "offset": self.offset,
            "rung": self.rung,
            "history": list(self.history),
            "epsilon": self.epsilon,
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

    @classmethod
    def from_dict(cls, data: dict) -> "FallbackRecord":
        stats_data = data.get("primary_stats")
        stats = None
        if stats_data is not None:
            stats = CommunicationStats()
            for name in _STATS_FIELDS:
                setattr(stats, name, stats_data.get(name, 0))
        return cls(
            trigger=data["trigger"],
            detail=data["detail"],
            monitor=data.get("monitor"),
            offset=data.get("offset", 0),
            primary_stats=stats,
            rung=data.get("rung", "high_cost_ca"),
            history=tuple(data.get("history", ())),
            epsilon=data.get("epsilon"),
            resyncs=data.get("resyncs", 0),
        )


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
    kappa: int = 128,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
    trace: bool = False,
    monitors: Sequence[InvariantMonitor] = (),
    transport: LossyTransport | None = None,
    crashes: Sequence[CrashEvent | tuple[int, int, int]] | None = None,
    recovery: RecoveryConfig | bool | None = None,
    guards: WireLimits | bool | None = None,
    epsilon: Fraction | int | None = None,
    escalate_on: tuple[type, ...] = (ProtocolViolation, SimulationError),
) -> ExecutionResult:
    """Run the primary protocol; on failure descend the ladder to a decision.

    Rungs, each tried at most once and recorded in order on
    ``FallbackRecord.history``:

    1. **primary** -- the optimal protocol with the full resilience
       stack.  Budget-escalated retries happen *inside* the transport's
       :class:`~repro.sim.lossy.TimeoutEscalation`, so a network that
       stabilizes late still yields a clean, byte-identical result with
       ``fallback is None`` and the retry cost visible only in the
       ``beacon_* / resync_*`` stats fields.
    2. **high_cost_ca** -- on :class:`ProtocolViolation` or
       :class:`SimulationError`, rerun the (shifted) inputs through
       ``HighCostCA`` over the **same transport**, whose clock keeps
       running: a genuinely broken network fails this rung too, which
       is the point -- only an actually-usable network lets the ladder
       stop here.
    3. **async_aa** -- only when ``epsilon`` is given: asynchronous
       Approximate Agreement with the primary's corruption set pinned.
       Needs ``5 * |corrupted| < n``; outputs agree only up to
       ``epsilon`` (recorded stringified on the fallback record).
       Liveness needs no synchrony assumption.  ``epsilon=None`` means
       the caller requires exact agreement and the ladder ends after
       ``HighCostCA``.

    A ladder that exhausts every rung raises a
    :class:`~repro.errors.SimulationError` carrying the full history --
    the budgeted, replayable failure the chaos plane expects; no
    network schedule produces an unhandled exception.  Configuration
    errors and harness bugs propagate -- only detected protocol
    misbehaviour degrades.

    Non-integer inputs cannot ride the lower rungs, so the primary
    failure propagates unchanged for them.

    ``escalate_on`` restricts which primary failures enter the ladder
    (default: both).  The chaos plane passes ``(SimulationError,)`` so
    a fired invariant monitor stays a reported protocol bug instead of
    being silently degraded away.
    """
    if isinstance(inputs, list):
        inputs = dict(enumerate(inputs))
    if epsilon is not None and (
        not isinstance(epsilon, (int, Fraction)) or epsilon <= 0
    ):
        raise ConfigurationError(
            f"epsilon must be a positive number or None, got {epsilon!r}"
        )

    def network(
        factory: ProtocolFactory, values: dict[int, Any], **stages: Any
    ) -> SynchronousNetwork:
        # every synchronous rung shares the caller's network: same
        # transport (and its clock), same guards, same caps.
        return SynchronousNetwork(
            protocol_factory=factory, inputs=values, n=n, t=t, kappa=kappa,
            max_rounds=max_rounds, trace=trace, transport=transport,
            guards=guards, **stages,
        )

    primary = network(
        protocol_factory, inputs, adversary=adversary, monitors=monitors,
        crashes=crashes, recovery=recovery,
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
        # HighCostCA and AA need integers: nothing below can run.
        raise primary_failure
    offset = max(0, -min(inputs.values()))  # shift into N
    shifted = {party: value + offset for party, value in inputs.items()}
    corrupted = frozenset(primary.corrupted)
    resyncs = primary.stats.resync_attempts
    history = [_failed("primary", primary_failure)]
    if resyncs:
        history.append(
            f"transport: {resyncs} escalated retr"
            f"{'y' if resyncs == 1 else 'ies'} before the failure"
        )

    def decided(rung: str, result: ExecutionResult) -> ExecutionResult:
        result.outputs = {
            party: value - offset for party, value in result.outputs.items()
        }
        result.fallback = FallbackRecord(
            trigger=type(primary_failure).__name__,
            detail=str(primary_failure),
            monitor=getattr(primary_failure, "monitor", None),
            offset=offset,
            primary_stats=primary.stats,
            rung=rung,
            history=tuple(history),
            epsilon=None if rung != "async_aa" else str(Fraction(epsilon)),
            resyncs=resyncs,
        )
        return result

    # -- rung 2: HighCostCA over the caller's (possibly broken) transport
    from ..core.high_cost_ca import high_cost_ca

    try:
        result = network(
            lambda ctx, v: high_cost_ca(ctx, v, channel=FALLBACK_CHANNEL),
            shifted,
            adversary=_StaticCorruptions(corrupted),
        ).run()
    except (ProtocolViolation, SimulationError) as hc_failure:
        history.append(_failed("high_cost_ca", hc_failure))
    else:
        history.append("high_cost_ca: decided")
        return decided("high_cost_ca", result)

    # -- rung 3: asynchronous AA, if the caller accepts eps-agreement --
    if epsilon is None:
        history.append("async_aa: not entered (no epsilon accepted)")
    elif 5 * len(corrupted) >= n:
        history.append(
            f"async_aa: skipped (needs 5t < n, t={len(corrupted)}, n={n})"
        )
    else:
        from ..asynchrony.aa import AsyncApproximateAgreement
        from ..asynchrony.network import AsyncNetwork

        bound = max(1, max(shifted.values()))
        try:
            async_result = AsyncNetwork(
                party_factory=lambda ctx: AsyncApproximateAgreement(
                    ctx, shifted[ctx.party_id], epsilon, bound
                ),
                n=n,
                t=len(corrupted),
                kappa=kappa,
                adversary=_PinnedAsyncCorruptions(corrupted),
                guards=guards,
            ).run()
        except (ProtocolViolation, SimulationError) as aa_failure:
            history.append(_failed("async_aa", aa_failure))
        else:
            history.append(f"async_aa: decided (eps={epsilon})")
            return decided(
                "async_aa",
                ExecutionResult(
                    n=n,
                    t=t,
                    outputs=async_result.outputs,
                    corrupted=corrupted,
                    stats=async_result.stats,
                ),
            )
    raise SimulationError(
        "escalation ladder exhausted: " + " | ".join(history),
        stats=primary.stats,
    ) from primary_failure


class _PinnedAsyncCorruptions:
    """Silent async adversary with a pinned corruption set.

    The async twin of :class:`_StaticCorruptions`: byzantine parties
    exist (they count against the ``t < n/5`` bound and never help) but
    inject nothing.
    """

    budget = 0

    def __init__(self, corrupted: frozenset[int]) -> None:
        self._corrupted = set(corrupted)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(self._corrupted)

    def inject(self, step, corrupted, n, observed):
        return []
