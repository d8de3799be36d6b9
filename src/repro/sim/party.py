"""Party-side execution model: protocols as generators.

A protocol is written as a Python generator function taking a
:class:`Context` plus its inputs.  Each synchronous round of the paper's
model is one ``yield`` of an :class:`Outgoing` bundle:

* the protocol *yields* the messages it wants to send this round
  (``{destination_id: payload}``), and
* the ``yield`` expression *evaluates to* the party's inbox for the round
  (``{sender_id: payload}``), once the simulator has delivered everything
  (honest traffic plus whatever the adversary injected).

Subprotocols compose with ``yield from``, and their return value is the
subprotocol output -- exactly the structure of the paper's pseudocode,
where e.g. ``FixedLengthCA`` "joins" ``FindPrefix`` and then uses its
return values.

The ``channel`` label attached to each round is pure metadata: it names
the (sub)protocol step for communication accounting and gives scripted
adversaries a hook to target specific steps.  Honest parties never trust
it for correctness (the model's synchrony already keeps honest parties in
lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, TypeVar

from ..errors import ConfigurationError

__all__ = ["Outgoing", "Context", "Proto", "exchange", "broadcast_round"]

T = TypeVar("T")

#: A protocol body: yields per-round outgoing bundles, receives inboxes,
#: returns its output.
Proto = Generator["Outgoing", dict[int, Any], T]


@dataclass(slots=True)
class Outgoing:
    """One party's outgoing traffic for one synchronous round.

    ``slots=True``: one ``Outgoing`` is allocated per party per round.
    A broadcast (:meth:`to_all`) holds one ``payload`` for parties
    ``0..n-1`` (``n`` is 0 on every other bundle) and builds its
    ``messages`` on first read, then keeps it: only the stages that
    read links (adversary view, transport link table, WAL digest,
    ``run_parallel``) build it; the deliver stage reads ``payload``.
    """

    channel: str
    messages: dict[int, Any] = field(default_factory=dict)
    payload = None
    n = 0

    @staticmethod
    def to_all(channel: str, payload: Any, n: int) -> "Outgoing":
        """A broadcast of ``payload`` to parties ``0..n-1``."""
        return _Broadcast(channel, payload, n)


class _Broadcast(Outgoing):
    """:meth:`Outgoing.to_all`'s bundle; ``messages`` is built once."""

    __slots__ = ("payload", "n", "_view")

    def __init__(self, channel: str, payload: Any, n: int) -> None:
        self.channel, self.payload, self.n = channel, payload, n
        self._view = None

    @property
    def messages(self) -> dict[int, Any]:  # type: ignore[override]
        if self._view is None:
            self._view = dict.fromkeys(range(self.n), self.payload)
        return self._view

    def __reduce__(self):  # copy / pickle rebuild, not the view
        return _Broadcast, (self.channel, self.payload, self.n)


@dataclass(frozen=True, slots=True)
class Context:
    """Immutable per-party view of the protocol parameters.

    Attributes:
        party_id: This party's index in ``0..n-1``.  (The paper's
            ``P_1..P_n`` maps to indices ``0..n-1``.)
        n: Total number of parties.
        t: Maximum number of corruptions tolerated; ``t < n/3``.
        kappa: Security parameter -- output length of ``H_kappa`` in bits.
        cache: Execution-scoped memo space for pure recomputations
            (RS encodings with their Merkle forests, accepted Merkle
            paths, decode verdicts).  The network creates one dict per
            execution and hands it to all ``n`` contexts, replayed
            parties included, so what one party computed the others
            reuse; a context built on its own gets a fresh dict.
            Entries never cross executions or worker processes.
            Excluded from equality and repr.
    """

    party_id: int
    n: int
    t: int
    kappa: int = 128
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if not 0 <= self.t < self.n:
            raise ConfigurationError(
                f"need 0 <= t < n, got n={self.n}, t={self.t}"
            )
        if not 0 <= self.party_id < self.n:
            raise ConfigurationError(
                f"party_id {self.party_id} out of range for n={self.n}"
            )
        if self.kappa < 8 or self.kappa % 8:
            raise ConfigurationError(
                f"kappa must be a positive multiple of 8, got {self.kappa}"
            )

    def require_resilience(self, denominator: int) -> None:
        """Assert this protocol's resilience bound ``t < n/denominator``.

        Resilience is a *protocol* property, not a network property: the
        paper's CA stack needs ``t < n/3`` (optimal, Section 2) while the
        authenticated-setting protocols of the open-problems section
        tolerate ``t < n/2``.  Each protocol entry point declares its own
        bound.
        """
        if denominator * self.t >= self.n:
            raise ConfigurationError(
                f"protocol requires t < n/{denominator}, "
                f"got n={self.n}, t={self.t}"
            )

    @property
    def all_parties(self) -> range:
        """All party ids, ``0..n-1``."""
        return range(self.n)

    @property
    def quorum(self) -> int:
        """``n - t``: the size of an honest-majority quorum."""
        return self.n - self.t

    @property
    def pre_agreement(self) -> int:
        """``n - 2t``: the Bounded Pre-Agreement threshold of the paper."""
        return self.n - 2 * self.t


def exchange(
    channel: str, messages: dict[int, Any]
) -> Proto[dict[int, Any]]:
    """Run one round: send ``messages`` and return the received inbox."""
    inbox = yield Outgoing(channel=channel, messages=dict(messages))
    return inbox


def broadcast_round(
    ctx: Context, channel: str, payload: Any
) -> Proto[dict[int, Any]]:
    """Send ``payload`` to all n parties (self included) for one round."""
    inbox = yield Outgoing.to_all(channel, payload, ctx.n)
    return inbox
