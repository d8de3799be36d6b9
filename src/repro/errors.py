"""Exception hierarchy for the repro package.

Simulation-level failures carry as much of the execution state as the
simulator had at the moment of failure (the partial trace, the
communication stats, any outputs already produced), so non-terminating
or invariant-violating runs can be diagnosed -- and minimised by the
fuzz harness -- without re-running under a debugger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sim.metrics import CommunicationStats
    from .sim.trace import RoundRecord


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A protocol or simulation was configured with invalid parameters."""


class SimulationError(ReproError):
    """The simulator reached an invalid state (e.g. round-limit exceeded).

    Attributes:
        trace: the partial per-round trace up to the failure (``None``
            when the execution ran without tracing).
        stats: the communication stats accumulated before the failure.
        outputs: outputs of the parties that had already terminated.
    """

    def __init__(
        self,
        message: str,
        *,
        trace: "list[RoundRecord] | None" = None,
        stats: "CommunicationStats | None" = None,
        outputs: dict[int, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.trace = trace
        self.stats = stats
        self.outputs = outputs


class ProtocolViolation(ReproError):
    """An honest-party invariant was violated during execution.

    This should never fire when the adversary respects the ``t < n/3``
    corruption bound; it indicates either a bug or an over-powered adversary.

    Attributes:
        monitor: name of the :class:`~repro.sim.invariants.InvariantMonitor`
            that detected the violation (``None`` for ad-hoc raises).
        record: the :class:`~repro.sim.trace.RoundRecord` of the offending
            round, when the violation was detected online.
        trace: the partial trace up to (and including) the violation.
    """

    def __init__(
        self,
        message: str,
        *,
        monitor: str | None = None,
        record: "RoundRecord | None" = None,
        trace: "list[RoundRecord] | None" = None,
    ) -> None:
        super().__init__(message)
        self.monitor = monitor
        self.record = record
        self.trace = trace


class HonestPartyError(ReproError):
    """An honest party's protocol code raised on its inbox.

    The paper's model forbids byzantine input from crashing honest
    parties: honest code must validate-and-discard, never raise.  The
    simulator therefore wraps any exception escaping an honest party's
    generator in this error, attributing it to the party, the round,
    and a bounded digest of the offending inbox -- so fuzz reports can
    distinguish a genuine input-validation bug (this error) from
    harness bugs, invariant violations, and budget exhaustion.

    Deliberately a *direct* :class:`ReproError` subclass: the
    degradation supervisor catches only ``(ProtocolViolation,
    SimulationError)``, so a crashed honest party is never silently
    "healed" by falling back to another protocol.

    Attributes:
        party: id of the honest party whose code raised.
        round_index: lockstep round in which the generator was resumed.
        inbox_digest: bounded, ``repr``-free digest of the inbox the
            party was consuming (``None`` when unavailable).
    """

    def __init__(
        self,
        message: str,
        *,
        party: int,
        round_index: int,
        inbox_digest: str | None = None,
    ) -> None:
        super().__init__(message)
        self.party = party
        self.round_index = round_index
        self.inbox_digest = inbox_digest


class TransportTimeout(ReproError):
    """The lossy transport's synchronizer exhausted its slot budget for
    one round (:mod:`repro.sim.lossy`); the network re-raises it as a
    :class:`SimulationError` carrying the partial execution."""


class CodingError(ReproError):
    """Reed-Solomon encoding/decoding failed (bad share set, bad framing)."""
