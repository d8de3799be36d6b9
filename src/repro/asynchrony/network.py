"""Event-driven asynchronous network simulator.

The paper's conclusions expect its techniques "can be easily extended
to the asynchronous setting for a lower number of corruptions
t < n/5".  The :mod:`repro.asynchrony` subpackage builds the
asynchronous side of that story: this module provides the substrate --
an event-driven message scheduler where the *adversary controls
delivery order* -- on which Bracha's reliable broadcast and the
asynchronous Approximate Agreement of Dolev et al. run.  (Deterministic
asynchronous *exact* agreement -- hence CA -- is impossible by FLP [22];
AA is precisely the relaxation the literature uses to circumvent it,
see Section 1.1.)

Model:

* no rounds; messages sit in a pending pool until the scheduler (an
  adversary-controlled policy) picks one to deliver;
* honest-to-anyone messages are *eventually* delivered: the scheduler
  must always pick some pending message, and byzantine injections are
  budget-limited, so no honest message can be starved forever;
* byzantine parties do not run code; the adversary injects arbitrary
  messages attributed to them between deliveries;
* honest parties are reactive objects: ``start()`` once, then
  ``on_message(src, payload)`` per delivery; they may keep processing
  after deciding (required for liveness of e.g. reliable broadcast).

Communication accounting matches the synchronous simulator: every
honest-sent payload is priced by :func:`repro.sim.sizing.bit_size`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigurationError, SimulationError
from ..sim.metrics import CommunicationStats
from ..sim.network import ExecutionResult
from ..sim.party import Context
from ..sim.sizing import bit_size

__all__ = [
    "AsyncParty",
    "AsyncNetwork",
    "Scheduler",
    "FifoScheduler",
    "RandomScheduler",
    "TargetedDelayScheduler",
    "AsyncAdversary",
    "default_delivery_budget",
]


def default_delivery_budget(n: int, t: int) -> int:
    """Delivery cap derived from the protocol-family complexity.

    Asynchronous AA needs ``O(log(range/eps))`` iterations of ``n`` RBC
    instances, each ``O(n^2)`` messages; the range factor is unknown to
    the network, so the budget keeps a generous floor and scales the
    quadratic part with ``n`` and ``t``.  The point is to turn a
    non-terminating execution into a diagnosable
    :class:`~repro.errors.SimulationError` (with partial outputs
    attached), not to ration legitimate runs.
    """
    return max(500_000, 2_000 * n * n * (t + 2))


class AsyncParty:
    """Base class for honest asynchronous protocol logic.

    Subclasses receive an :class:`_PartyAPI` as ``self.api`` providing
    ``send(dst, payload)``, ``broadcast(payload)`` and
    ``decide(output)``.  ``decide`` records the output without stopping
    message processing (asynchronous protocols must keep helping their
    peers after deciding).
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.api: "_PartyAPI" = None  # injected by the network

    def start(self) -> None:
        """Called once before any delivery."""

    def on_message(self, src: int, payload: Any) -> None:
        """Called for every delivered message."""
        raise NotImplementedError


@dataclass(eq=False, slots=True)
class _Pending:
    """One queued message.  Equality is identity: the pool may hold
    equal messages, and removing the chosen one compares no payloads."""

    src: int
    dst: int
    payload: Any


class Scheduler:
    """Delivery policy: picks which pending message is delivered next.

    ``pending`` is the network's pool itself: every undelivered message
    to an honest party, in send order (index 0 was sent first).  It is
    never empty; ``choose`` returns one of its elements and must not
    modify it.
    """

    def choose(self, pending: list[_Pending]) -> _Pending:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class FifoScheduler(Scheduler):
    """Deliver in send order (the friendliest schedule)."""

    def choose(self, pending: list[_Pending]) -> _Pending:
        return pending[0]


class RandomScheduler(Scheduler):
    """Uniformly random pending message (a chaotic but fair schedule)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(self, pending: list[_Pending]) -> _Pending:
        return self.rng.choice(pending)


class TargetedDelayScheduler(Scheduler):
    """Starve a set of victim parties as long as legally possible.

    Messages to/from victims are delivered only when nothing else is
    pending -- the classic "slow network partition" attack that async
    protocols must survive.
    """

    def __init__(self, victims: set[int], seed: int = 0) -> None:
        self.victims = set(victims)
        self.rng = random.Random(seed)

    def choose(self, pending: list[_Pending]) -> _Pending:
        preferred = [
            m
            for m in pending
            if m.src not in self.victims and m.dst not in self.victims
        ]
        pool = preferred or pending
        return self.rng.choice(pool)

    def describe(self) -> str:
        return f"TargetedDelayScheduler(victims={sorted(self.victims)})"


class AsyncAdversary:
    """Byzantine message injection for corrupted parties.

    ``inject`` is called between deliveries and returns up to
    ``budget`` remaining ``(src, dst, payload)`` triples with corrupted
    ``src``.  The total injection budget bounds the adversary (without
    a bound it could starve honest messages forever, violating eventual
    delivery).
    """

    def __init__(self, budget: int = 10_000, seed: int = 0) -> None:
        self.budget = budget
        self.rng = random.Random(seed)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(range(n - t, n))

    def inject(
        self,
        step: int,
        corrupted: set[int],
        n: int,
        observed: list[tuple[int, int, Any]],
    ) -> list[tuple[int, int, Any]]:
        """Messages to add this step (honest traffic so far is visible)."""
        return []


class GarbageAsyncAdversary(AsyncAdversary):
    """Sprays random garbage early in the execution."""

    _MAKERS = (
        lambda rng: rng.getrandbits(32),
        lambda rng: ("ECHO", rng.getrandbits(8)),
        lambda rng: ("READY", None),
        lambda rng: None,
        lambda rng: [1, "x"],
    )

    def inject(self, step, corrupted, n, observed):
        if step > 200 or not corrupted:
            return []
        out = []
        for src in corrupted:
            dst = self.rng.randrange(n)
            maker = self.rng.choice(self._MAKERS)
            out.append((src, dst, maker(self.rng)))
        return out


class _PartyAPI:
    """Capability object handed to each honest party."""

    def __init__(self, network: "AsyncNetwork", party_id: int) -> None:
        self._network = network
        self._party_id = party_id

    def send(self, dst: int, payload: Any) -> None:
        """Queue one message to ``dst`` (priced immediately)."""
        self._network._enqueue(self._party_id, dst, payload, honest=True)

    def broadcast(self, payload: Any) -> None:
        """Queue ``payload`` to every party."""
        for dst in range(self._network.n):
            self.send(dst, payload)

    def decide(self, output: Any) -> None:
        """Record this party's output (processing continues)."""
        self._network._decide(self._party_id, output)


class AsyncNetwork:
    """Drives one asynchronous execution to quiescence.

    ``run()`` returns an :class:`~repro.sim.network.ExecutionResult`
    whose ``stats.rounds`` counts deliveries (one per scheduler step);
    its ``channel_trace`` and ``events`` stay empty.
    """

    def __init__(
        self,
        party_factory: Callable[[Context], AsyncParty],
        n: int,
        t: int,
        kappa: int = 128,
        scheduler: Scheduler | None = None,
        adversary: AsyncAdversary | None = None,
    ) -> None:
        self.n = n
        self.t = t
        self.kappa = kappa
        self.scheduler = scheduler or FifoScheduler()
        self.adversary = adversary or AsyncAdversary()

        self.corrupted = set(self.adversary.select_corruptions(n, t))
        if len(self.corrupted) > t:
            raise ConfigurationError("adversary over-corrupted")
        if any(not 0 <= p < n for p in self.corrupted):
            raise ConfigurationError("corruption set out of range")

        self.stats = CommunicationStats()
        #: deliverable messages (honest destination), in send order.
        self._pending: list[_Pending] = []
        self._outputs: dict[int, Any] = {}
        self._observed: list[tuple[int, int, Any]] = []
        self._injection_budget = self.adversary.budget

        self._parties: dict[int, AsyncParty] = {}
        for party in range(n):
            if party in self.corrupted:
                continue
            ctx = Context(party_id=party, n=n, t=t, kappa=kappa)
            instance = party_factory(ctx)
            instance.api = _PartyAPI(self, party)
            self._parties[party] = instance

    # -- internals used by _PartyAPI -----------------------------------
    def _enqueue(
        self, src: int, dst: int, payload: Any, honest: bool
    ) -> None:
        if not 0 <= dst < self.n:
            return
        if honest:
            self.stats.record_send(src, "async", bit_size(payload))
            self._observed.append((src, dst, payload))
        # a corrupted destination is priced and observed, never delivered.
        if dst not in self.corrupted:
            self._pending.append(_Pending(src, dst, payload))

    def _decide(self, party: int, output: Any) -> None:
        self._outputs.setdefault(party, output)

    # -- execution -------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute until all honest parties decided and quiescent."""
        for party in self._parties.values():
            party.start()

        budget = default_delivery_budget(self.n, self.t)
        step = 0
        while True:
            if self._all_decided() and not self._pending:
                break
            # byzantine injection (budget-bounded).
            if self._injection_budget > 0:
                injected = self.adversary.inject(
                    step, set(self.corrupted), self.n, self._observed
                )
                for src, dst, payload in injected[: self._injection_budget]:
                    if src in self.corrupted:
                        self._enqueue(src, dst, payload, honest=False)
                        self._injection_budget -= 1
            step += 1

            if not self._pending:
                if self._all_decided():
                    break
                undecided = sorted(
                    p for p in self._parties if p not in self._outputs
                )
                raise SimulationError(
                    "asynchronous deadlock: honest parties "
                    f"{undecided} undecided but no pending messages "
                    f"after {self.stats.rounds} deliveries",
                    stats=self.stats,
                    outputs=dict(self._outputs),
                )
            if self.stats.rounds == budget:
                raise SimulationError(
                    f"delivery budget {budget:,} exceeded "
                    f"(n={self.n}, t={self.t}, "
                    f"scheduler={self.scheduler.describe()}): "
                    "likely non-termination",
                    stats=self.stats,
                    outputs=dict(self._outputs),
                )
            message = self.scheduler.choose(self._pending)
            self._pending.remove(message)
            self._parties[message.dst].on_message(message.src, message.payload)
            self.stats.record_round()  # one delivery

        return ExecutionResult(
            n=self.n,
            t=self.t,
            outputs=dict(self._outputs),
            corrupted=frozenset(self.corrupted),
            stats=self.stats,
        )

    def _all_decided(self) -> bool:
        return all(party in self._outputs for party in self._parties)
