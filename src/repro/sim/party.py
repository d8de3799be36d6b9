"""Party-side execution model: protocols as generators.

A protocol is written as a Python generator function taking a
:class:`Context` plus its inputs.  Each synchronous round of the paper's
model is one ``yield`` of an :class:`Outgoing` bundle:

* the protocol *yields* the messages it wants to send this round, built
  by :func:`broadcast_round` (one payload to all) or :func:`exchange`
  (``{destination_id: payload}``), and
* the ``yield`` expression *evaluates to* the party's inbox for the round
  (``{sender_id: payload}``), once the simulator has delivered everything
  (honest traffic plus whatever the adversary injected).  An inbox is
  read, never written: in a round where every party received the same
  dict, all of them are handed one read-only :class:`SharedInbox`.

``yield`` is a round, ``yield from`` a sub-protocol::

    inbox = yield broadcast_round(ctx, "tag/exch", est)   # one round
    z = yield from phase_king(ctx, v, domain)             # a sub-protocol

:func:`broadcast_round` and :func:`exchange` are plain functions that
return the bundle, so ``yield from`` on them is a ``TypeError`` at the
party's first round.  A sub-protocol's return value is its output --
exactly the structure of the paper's pseudocode, where e.g.
``FixedLengthCA`` "joins" ``FindPrefix`` and then uses its return
values.

The ``channel`` label attached to each round is pure metadata: it names
the (sub)protocol step for communication accounting and gives scripted
adversaries a hook to target specific steps.  Honest parties never trust
it for correctness (the model's synchrony already keeps honest parties in
lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, TypeVar

from ..errors import ConfigurationError
from ..perf.config import caches_enabled

__all__ = [
    "Outgoing",
    "Context",
    "Proto",
    "SharedInbox",
    "parse_once",
    "exchange",
    "broadcast_round",
]

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
    read links (adversary view, transport link table, WAL digest)
    build it; the deliver stage reads ``payload``.
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


class SharedInbox(dict):
    """The one inbox every party is handed in an all-broadcast round.

    When every party of a round receives the same ``{sender: payload}``
    dict (every bundle a broadcast, nothing inserted per destination),
    the network builds one ``SharedInbox`` and gives that same object to
    all ``n`` parties.  Reads are plain ``dict`` reads; every mutator
    raises ``TypeError``, so no party can change what another reads.
    ``memo`` holds what :func:`parse_once` computed from it; the object
    is new every round, so a kept inbox still holds its own round.
    Pickling and copying rebuild it from its items with an empty memo.
    """

    __slots__ = ("memo",)

    def __init__(self, items: Any) -> None:
        dict.__init__(self, items)
        self.memo: dict = {}

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("an inbox is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return SharedInbox, (dict(self),)


def parse_once(
    inbox: dict[int, Any],
    parse: Callable[..., T],
    reads: Any,
    *shared: Any,
) -> T:
    """``parse(inbox, reads, *shared)``, computed once per shared inbox.

    ``parse`` is a module-level function, pure in its arguments, so it
    names what is computed; ``reads`` is what it reads besides the
    inbox: a :class:`~repro.ba.domains.Domain` (keyed by its name, which
    fixes what it accepts) or an agreed root ``z*`` (keyed by itself when
    of exact type ``bytes``).  ``shared`` is passed through unkeyed and
    may only carry what every party of the execution holds alike (its
    ``n``, ``kappa``, ``cache``).  On a :class:`SharedInbox` the first
    party to ask runs ``parse`` and the others get the remembered
    result, keyed by ``parse`` and ``reads`` -- never by party -- so
    ``parse`` returns an immutable result.  Any other inbox, a ``reads``
    that is a ``bytes`` subclass, or the caches switched off
    (:func:`repro.perf.config.caches`), is parsed by its own party.
    """
    if type(inbox) is SharedInbox and caches_enabled():
        if type(reads) is bytes:
            key = (parse, reads)
        elif isinstance(reads, bytes):
            return parse(inbox, reads, *shared)
        else:
            key = (parse, reads.name)
        memo = inbox.memo
        if key in memo:
            return memo[key]
        result = memo[key] = parse(inbox, reads, *shared)
        return result
    return parse(inbox, reads, *shared)


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
            Excluded from equality and repr.  (What one round's shared
            inbox parses to lives on that :class:`SharedInbox`, not
            here: see :func:`parse_once`.)
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


def exchange(channel: str, messages: dict[int, Any]) -> Outgoing:
    """One round's bundle: ``messages``, ``{destination: payload}``."""
    return Outgoing(channel=channel, messages=dict(messages))


def broadcast_round(ctx: Context, channel: str, payload: Any) -> Outgoing:
    """One round's bundle: ``payload`` to all n parties, self included."""
    return _Broadcast(channel, payload, ctx.n)
