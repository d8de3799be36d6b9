"""High-level public API for running Convex Agreement.

Most users want one call::

    from repro import convex_agreement

    result = convex_agreement([-1005, -1004, -1003, -1003, 99999], t=1)
    result.value          # agreed output, inside the honest inputs' range
    result.stats.honest_bits
    result.stats.rounds

The API simulates the paper's final protocol ``PI_Z`` over the
synchronous network substrate under a pluggable byzantine adversary, and
returns both the agreed value and the full execution metrics.  For
embedding a CA instance inside a larger simulated protocol, use the raw
generator :func:`repro.core.protocol_z.protocol_z` with ``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..ba.phase_king import phase_king
from ..errors import ConfigurationError
from ..sim.adversary import Adversary
from ..sim.metrics import CommunicationStats
from ..sim.network import ExecutionResult
from ..sim.party import Proto
from ..sim.runner import run_protocol
from ..sim.supervisor import run_with_escalation
from .protocol_z import protocol_z

__all__ = ["ConvexAgreementOutcome", "convex_agreement", "default_threshold"]


def default_threshold(n: int) -> int:
    """The maximum ``t`` with ``t < n/3``."""
    return (n - 1) // 3


@dataclass(frozen=True)
class ConvexAgreementOutcome:
    """Result of one simulated Convex Agreement execution."""

    value: int
    execution: ExecutionResult

    @property
    def stats(self) -> CommunicationStats:
        """Communication statistics of the execution."""
        return self.execution.stats

    @property
    def outputs(self) -> dict[int, int]:
        """Per-honest-party outputs (all equal by Agreement)."""
        return self.execution.outputs

    @property
    def corrupted(self) -> frozenset[int]:
        """The parties the adversary controlled."""
        return self.execution.corrupted


def convex_agreement(
    inputs: list[int] | dict[int, int],
    t: int | None = None,
    kappa: int = 128,
    adversary: Adversary | None = None,
    ba: Callable[..., Proto[Any]] = phase_king,
    max_rounds: int = 200_000,
    monitors: Any = (),
    degrade: bool = False,
    transport: Any = None,
) -> ConvexAgreementOutcome:
    """Run ``PI_Z`` on integer inputs and return the agreed value.

    Args:
        inputs: one integer per party (list, or dict keyed by party id).
            Length determines ``n``.
        t: corruption bound; defaults to the optimal ``floor((n-1)/3)``.
        kappa: security parameter for hashing/accumulation, in bits.
        adversary: byzantine strategy controlling up to ``t`` parties;
            defaults to spec-following corrupted parties.
        ba: the assumed ``PI_BA`` building block (generator function
            ``ba(ctx, value, domain, channel)``).
        max_rounds: safety cap for the simulator.
        monitors: online invariant monitors
            (:mod:`repro.sim.invariants`) evaluated during the run.
        degrade: supervise the execution
            (:func:`repro.sim.run_with_escalation`) and, if a monitor
            fires or the simulation dies, fall back to the
            self-contained ``HighCostCA`` path **over the same
            transport**; the fallback is recorded on
            ``outcome.execution.fallback``.  The returned value is
            always an exact agreement inside the honest hull: the
            call never settles for the ladder's epsilon-agreement
            rung, and when the transport cannot carry ``HighCostCA``
            either it raises :class:`~repro.errors.SimulationError`
            ("escalation ladder exhausted", with the history of both
            attempts) rather than return a value no network produced.
        transport: optional :class:`repro.sim.LossyTransport` (plain,
            or ``LossyTransport.partial_sync(...)`` for GST /
            partitions / churn) the simulated rounds synchronize over
            instead of the perfect network.

    Returns:
        A :class:`ConvexAgreementOutcome`; its ``value`` is the common
        honest output, guaranteed to lie in the convex hull of the honest
        parties' inputs whenever the adversary corrupts at most ``t``
        parties.
    """
    if isinstance(inputs, dict):
        n = len(inputs)
        if set(inputs) != set(range(n)):
            raise ConfigurationError(
                f"inputs must cover parties 0..{n - 1}, got {sorted(inputs)}"
            )
        values = [inputs[i] for i in range(n)]
    else:
        values = list(inputs)
        n = len(values)
    if n == 0:
        raise ConfigurationError("need at least one party")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        raise ConfigurationError("all inputs must be integers")
    if t is None:
        t = default_threshold(n)

    # degrade passes no epsilon: the contract is common_output(), so
    # the ladder ends after HighCostCA.
    run = run_with_escalation if degrade else run_protocol
    execution = run(
        lambda ctx, v: protocol_z(ctx, v, ba=ba),
        values,
        n=n,
        t=t,
        kappa=kappa,
        adversary=adversary,
        max_rounds=max_rounds,
        monitors=monitors,
        transport=transport,
    )
    return ConvexAgreementOutcome(
        value=execution.common_output(), execution=execution
    )
