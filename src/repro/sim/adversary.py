"""Adversary framework for the synchronous byzantine model.

The paper assumes an adaptive, rushing adversary that can corrupt up to
``t < n/3`` parties and make them deviate arbitrarily.  The simulator gives
the adversary exactly that power:

* **Rushing** -- each round the adversary observes *all* honest outgoing
  messages (including those addressed to honest parties) before choosing
  the corrupted parties' messages.
* **Arbitrary deviation** -- the adversary returns any payloads on behalf
  of corrupted parties; the simulator imposes no structure on them.
* **Full knowledge of corrupted state** -- the simulator keeps driving a
  corrupted party's honest code ("the spec"), and exposes what that party
  *would* have sent honestly.  Strategies can drop, mutate, equivocate,
  or replace that traffic, which makes targeted protocol attacks easy to
  script.
* **Adaptive corruption** -- at any round boundary the adversary may
  corrupt additional (so far honest) parties, up to ``t`` in total.

Concrete strategies used throughout the test suite and the adversarial
benchmarks live at the bottom of this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ADVERSARY_CATALOG",
    "DROP",
    "RoundView",
    "Adversary",
    "PassiveAdversary",
    "CrashAdversary",
    "RandomGarbageAdversary",
    "EquivocatingAdversary",
    "OutlierAdversary",
    "SplitVoteAdversary",
    "ScriptedAdversary",
    "AdaptiveCorruptionAdversary",
    "KingTargetingAdversary",
    "PrefixPoisonAdversary",
    "WitnessSuppressionAdversary",
    "standard_adversary_suite",
]


class _Drop:
    """Sentinel: scripted handlers return this to suppress a message."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DROP"


DROP = _Drop()


@dataclass
class RoundView:
    """Everything the (rushing) adversary sees before sending in a round."""

    round_index: int
    n: int
    t: int
    kappa: int
    corrupted: frozenset[int]
    #: the honest parties' channel label this round (they are in
    #: lockstep); in a round no honest party yields (all finished or
    #: down), the label of the lowest-id corrupted party that did.
    channel: str
    #: ``(src, dst) -> payload`` for every honest message of this round:
    #: the rushing adversary reads them before it sends.
    honest_outgoing: dict[tuple[int, int], Any]
    #: ``(src, dst) -> payload`` the corrupted parties' spec code would send.
    spec_outgoing: dict[tuple[int, int], Any]


class Adversary:
    """Base adversary: corrupts the last ``t`` parties and follows the spec.

    Subclasses override :meth:`deliver` (whole-round control) or the finer
    :meth:`mutate` hook (per-message control relative to the honest spec).
    """

    #: True when the strategy may crash/restart honest parties -- the
    #: network only builds the write-ahead-log recovery plane (and pays
    #: its logging overhead) when an execution can actually need it.
    has_crash_plane: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    # -- corruption ------------------------------------------------------
    def select_corruptions(self, n: int, t: int) -> set[int]:
        """Initial corruption set; defaults to the ``t`` highest indices.

        (Party 0 is then honest, so the first phase-king of king-based
        subprotocols is honest by default; strategies that want to corrupt
        kings override this or use :class:`AdaptiveCorruptionAdversary`.)
        """
        return set(range(n - t, n))

    def adapt(self, view: RoundView) -> set[int]:
        """Extra parties to corrupt starting next round (adaptive)."""
        return set()

    # -- crash plane ------------------------------------------------------
    def crash_restarts(self, view: RoundView) -> dict[int, int]:
        """Honest parties to power off starting next round.

        Returns ``{party: restart_round}``: each party is down from
        ``view.round_index + 1`` until the start of ``restart_round``,
        at which point it deterministically replays its write-ahead log
        (:mod:`repro.sim.recovery`) and rejoins in lockstep.  Crashed
        honest parties count against the same ``t`` fault budget as
        byzantine corruptions while they are down; over-budget requests
        are clipped deterministically and recorded.
        """
        return {}

    # -- message control --------------------------------------------------
    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        """Return the corrupted parties' messages for this round."""
        out: dict[tuple[int, int], Any] = {}
        for (src, dst), payload in view.spec_outgoing.items():
            mutated = self.mutate(view, src, dst, payload)
            if mutated is not DROP:
                out[(src, dst)] = mutated
        return out

    def mutate(
        self, view: RoundView, src: int, dst: int, payload: Any
    ) -> Any:
        """Transform one spec message; return ``DROP`` to suppress it."""
        return payload

    def describe(self) -> str:
        return type(self).__name__


class PassiveAdversary(Adversary):
    """Corrupted parties follow the protocol exactly (sanity baseline)."""


class CrashAdversary(Adversary):
    """Corrupted parties fail-stop: silent from ``crash_round`` onwards."""

    def __init__(self, crash_round: int = 0, seed: int = 0) -> None:
        super().__init__(seed)
        self.crash_round = crash_round

    def mutate(self, view, src, dst, payload):
        if view.round_index >= self.crash_round:
            return DROP
        return payload

    def describe(self) -> str:
        return f"CrashAdversary(round>={self.crash_round})"


def _deep_garbage(rng: random.Random) -> Any:
    """A 1-tuple chain nested past any honest schema (built iteratively)."""
    value: Any = rng.getrandbits(8)
    for _ in range(40 + rng.randrange(64)):
        value = (value,)
    return value


class RandomGarbageAdversary(Adversary):
    """Sends structurally random payloads to every party every round.

    Exercises the honest parties' input validation: nothing an honest party
    does may crash or mis-account because of malformed byzantine bytes.

    Two seed-stable profiles select the payload generators:

    * ``"classic"`` (default) -- the original small, well-shaped makers.
      The maker tuple and its length are frozen: ``rng.choice`` consumes
      a length-dependent number of RNG draws, so any change here would
      silently reseed every pinned-seed test and campaign.
    * ``"bomb"`` -- the classic makers plus large blobs (1-128 KiB) and
      deep 1-tuple nests, for executions armed with wire guards.
    """

    _GARBAGE_MAKERS: tuple[Callable[[random.Random], Any], ...] = (
        lambda rng: rng.getrandbits(64),
        lambda rng: -rng.getrandbits(16),
        lambda rng: bytes(rng.getrandbits(8) for _ in range(rng.randrange(9))),
        lambda rng: ("VOTE", rng.getrandbits(8)),
        lambda rng: ("PROPOSE", None, ("nested", [1, 2])),
        lambda rng: None,
        lambda rng: "junk",
        lambda rng: [rng.getrandbits(4) for _ in range(rng.randrange(4))],
        lambda rng: {"k": rng.getrandbits(4)},
    )

    _BOMB_MAKERS: tuple[Callable[[random.Random], Any], ...] = (
        _GARBAGE_MAKERS
        + (
            lambda rng: bytes([rng.getrandbits(8)])
            * (1 << (10 + rng.randrange(8))),
            _deep_garbage,
        )
    )

    _PROFILES = {"classic": "_GARBAGE_MAKERS", "bomb": "_BOMB_MAKERS"}

    def __init__(self, seed: int = 0, profile: str = "classic") -> None:
        super().__init__(seed)
        if profile not in self._PROFILES:
            raise ValueError(
                f"unknown garbage profile {profile!r}, "
                f"expected one of {sorted(self._PROFILES)}"
            )
        self.profile = profile
        self._makers = getattr(self, self._PROFILES[profile])

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for src in view.corrupted:
            for dst in range(view.n):
                maker = self.rng.choice(self._makers)
                out[(src, dst)] = maker(self.rng)
        return out

    def describe(self) -> str:
        if self.profile == "classic":
            return "RandomGarbageAdversary"
        return f"RandomGarbageAdversary(profile={self.profile})"


class EquivocatingAdversary(Adversary):
    """Sends destination-dependent variants of the spec messages.

    Integers are shifted by a destination-dependent offset; everything else
    alternates between the spec payload and ``None``.  Targets every vote
    counting / quorum step at once.
    """

    def mutate(self, view, src, dst, payload):
        if isinstance(payload, bool):
            return payload if dst % 2 == 0 else (not payload)
        if isinstance(payload, int):
            return payload + (dst % 3) - 1
        if dst % 2 == 1:
            return None
        return payload


class OutlierAdversary(Adversary):
    """Replaces every integer the spec would send with an extreme value.

    The canonical convex-validity attack from the paper's introduction: the
    sensors read about -10 degrees and the byzantine sensors shout +100.
    Honest outputs must stay inside the honest range regardless.
    """

    def __init__(
        self, low: int = 0, high: int = 2**64, seed: int = 0
    ) -> None:
        super().__init__(seed)
        self.low = low
        self.high = high

    def mutate(self, view, src, dst, payload):
        if isinstance(payload, bool):
            return True
        if isinstance(payload, int):
            return self.high if (src + dst) % 2 == 0 else self.low
        return payload

    def describe(self) -> str:
        return f"OutlierAdversary(low={self.low}, high={self.high})"


class SplitVoteAdversary(Adversary):
    """Tells the low half of the parties one thing and the high half another.

    Designed against threshold steps (``PI_BA+`` votes, phase-king counts,
    ``GetOutput``'s majority bit): the adversary consistently pushes two
    different candidate values to two halves of the honest parties.
    """

    def __init__(self, alt_value: Any = 0, seed: int = 0) -> None:
        super().__init__(seed)
        self.alt_value = alt_value

    def mutate(self, view, src, dst, payload):
        if dst < view.n // 2:
            return payload
        if isinstance(payload, bool):
            return not payload
        if isinstance(payload, int):
            return self.alt_value
        if isinstance(payload, tuple) and payload and payload[0] == "VOTE":
            return ("VOTE", self.alt_value)
        return self.alt_value

    def describe(self) -> str:
        return f"SplitVoteAdversary(alt={self.alt_value!r})"


class ScriptedAdversary(Adversary):
    """Fully scriptable adversary for targeted attacks in tests.

    ``handler(view, src, dst, spec_payload)`` is called for every corrupted
    (src, dst) pair each round -- including pairs the spec would not send
    on (``spec_payload=None`` then) -- and returns the payload to deliver,
    or ``DROP`` to send nothing.
    """

    def __init__(
        self,
        handler: Callable[[RoundView, int, int, Any], Any],
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.handler = handler

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for src in view.corrupted:
            for dst in range(view.n):
                spec = view.spec_outgoing.get((src, dst))
                payload = self.handler(view, src, dst, spec)
                if payload is not DROP:
                    out[(src, dst)] = payload
        return out


@dataclass
class _CorruptionPlan:
    round_index: int
    party: int


class AdaptiveCorruptionAdversary(Adversary):
    """Corrupts a scheduled sequence of parties at round boundaries.

    Wraps an inner adversary that decides message behaviour; this class only
    adds the adaptive-corruption schedule (e.g. "corrupt the phase king just
    before its phase").
    """

    def __init__(
        self,
        schedule: list[tuple[int, int]],
        inner: Adversary | None = None,
        initial: set[int] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.schedule = [_CorruptionPlan(r, p) for r, p in schedule]
        self.inner = inner or CrashAdversary()
        self.initial = set(initial or ())

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(self.initial)

    def adapt(self, view: RoundView) -> set[int]:
        due = {
            plan.party
            for plan in self.schedule
            if plan.round_index <= view.round_index
            and plan.party not in view.corrupted
        }
        budget = view.t - len(view.corrupted)
        return set(sorted(due)[:budget])

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        return self.inner.deliver(view)

    def describe(self) -> str:
        return f"AdaptiveCorruptionAdversary({len(self.schedule)} planned)"


class KingTargetingAdversary(Adversary):
    """Corrupts the kings of the first ``t`` phases and makes them lie.

    King-based subprotocols (Phase-King ``PI_BA``, ``HighCostCA``) only
    need ONE honest king phase; this strategy burns the entire
    corruption budget on early kings, sending destination-dependent
    king values -- the strongest structural attack on that family.
    """

    def __init__(self, lie: Any = 2**40, seed: int = 0) -> None:
        super().__init__(seed)
        self.lie = lie

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(range(t))

    def mutate(self, view: RoundView, src: int, dst: int, payload: Any):
        if view.channel.endswith("/king"):
            # equivocate: half the parties get the lie, half get spec
            return self.lie if dst % 2 == 0 else payload
        return payload

    def describe(self) -> str:
        return f"KingTargetingAdversary(lie={self.lie!r})"


class PrefixPoisonAdversary(Adversary):
    """Targets ``FindPrefix``: pushes fabricated segments and votes into
    every ``PI_lBA+`` iteration, trying to smuggle a non-honest prefix
    past Intrusion Tolerance (it must fail) or force spurious bottoms
    past Bounded Pre-Agreement (also must fail)."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        channel = view.channel
        fake = bytes([self.rng.getrandbits(8)]) * (view.kappa // 8)
        for src in view.corrupted:
            for dst in range(view.n):
                if channel.endswith("/input"):
                    out[(src, dst)] = fake
                elif channel.endswith("/vote"):
                    out[(src, dst)] = ("VOTE", fake)
                elif "/dist/" in channel:
                    out[(src, dst)] = (dst, fake, None)
                else:
                    spec = view.spec_outgoing.get((src, dst))
                    if spec is not None:
                        out[(src, dst)] = spec
        return out


class WitnessSuppressionAdversary(Adversary):
    """Targets ``GetOutput``: stays silent in announcement rounds and
    floods the opposite bit, trying to flip the witnesses' majority."""

    def __init__(self, flood_bit: int = 1, seed: int = 0) -> None:
        super().__init__(seed)
        self.flood_bit = flood_bit

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for src in view.corrupted:
            for dst in range(view.n):
                if view.channel.endswith("/announce"):
                    out[(src, dst)] = self.flood_bit
                else:
                    spec = view.spec_outgoing.get((src, dst))
                    if spec is not None:
                        out[(src, dst)] = spec
        return out

    def describe(self) -> str:
        return f"WitnessSuppressionAdversary(bit={self.flood_bit})"


#: name -> factory(seed): the one catalog of strategies.  Fuzz
#: campaigns compose its keys (sampled in sorted order), ``repro run
#: --adversary`` takes them, and :func:`standard_adversary_suite` builds
#: all of them in this order.
ADVERSARY_CATALOG: dict[str, Callable[[int], Adversary]] = {
    "passive": lambda seed: PassiveAdversary(seed),
    "crash0": lambda seed: CrashAdversary(0, seed),
    "crash3": lambda seed: CrashAdversary(3, seed),
    "garbage": lambda seed: RandomGarbageAdversary(seed),
    "equivocate": lambda seed: EquivocatingAdversary(seed),
    "outlier": lambda seed: OutlierAdversary(seed=seed),
    "splitvote": lambda seed: SplitVoteAdversary(alt_value=1, seed=seed),
    "king": lambda seed: KingTargetingAdversary(seed=seed),
    "prefixpoison": lambda seed: PrefixPoisonAdversary(seed=seed),
    "witness": lambda seed: WitnessSuppressionAdversary(seed=seed),
}


def standard_adversary_suite(seed: int = 0) -> list[Adversary]:
    """The adversary battery used by integration tests and benchmarks."""
    return [build(seed) for build in ADVERSARY_CATALOG.values()]
