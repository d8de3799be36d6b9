"""Composable fault-injection plane for the synchronous simulator.

Hand-writing a full :class:`~repro.sim.adversary.Adversary` subclass is
the wrong granularity for chaos testing: most protocol-breaking
scenarios are a *combination* of an existing strategy (equivocate,
split votes, target the king) with link-level faults (drop, duplicate,
garble, replay).  This module provides:

* :class:`FaultSpec` -- a declarative, JSON-serialisable description of
  message faults on every corrupted link, seeded deterministically;
* :class:`FaultInjector` -- the stateful applier of a spec (replay
  buffers, next-round duplicates);
* :class:`ComposedAdversary` -- stacks any number of existing
  strategies and pipes their combined byzantine traffic through a
  fault injector;
* :class:`RecordingAdversary` -- wraps any adversary and records the
  *actually delivered* byzantine messages plus the adaptive-corruption
  schedule, yielding a replayable script;
* :class:`ReplayAdversary` -- a :class:`ScriptedAdversary` built from
  such a script: byte-identical re-execution of a recorded attack,
  independent of the strategies that originally produced it.

Byzantine message faults act only on messages attributed to corrupted
parties: the model's authenticated channels mean the adversary (and
hence the fault plane, which is part of the adversary's power) can never
forge honest traffic.  Two further fault planes ride on the same spec:

* link faults (``link_drop`` / ``link_delay`` / ``link_reorder``, and
  the partial-synchrony windows ``gst`` / ``partitions`` /
  ``link_churn``) hit *honest* links too, but only below the round
  abstraction -- they are realised by a
  :class:`~repro.sim.lossy.LossyTransport` whose synchronizer restores
  lockstep, so they cost overhead, not safety;
* crash faults (``crashes``) power honest parties off for chosen round
  windows; the parties recover via
  :class:`~repro.sim.recovery.RecoveryManager` WAL replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..errors import ConfigurationError
from .adversary import DROP, Adversary, RoundView, ScriptedAdversary
from .partial_sync import LinkSchedule

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "ComposedAdversary",
    "RecordingAdversary",
    "ReplayAdversary",
]


def _garble(payload: Any, rng: random.Random, depth: int = 0) -> Any:
    """Structurally mutate a payload (stays within wire-sizable types).

    Recursion is capped: honest-shaped payloads nest a handful of
    levels, so the cap never fires on them (and the RNG stream of every
    pinned-seed campaign is untouched), but a payload-bomb nest fed
    through the garble fault degrades to junk bytes instead of blowing
    the stack.
    """
    if depth >= 8:
        return bytes([rng.getrandbits(8) for _ in range(4)])
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        choice = rng.randrange(3)
        if choice == 0:
            return payload ^ (1 << rng.randrange(max(1, payload.bit_length() + 1)))
        if choice == 1:
            return -payload - 1
        return rng.getrandbits(16)
    if isinstance(payload, bytes):
        if not payload:
            return bytes([rng.getrandbits(8)])
        data = bytearray(payload)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if isinstance(payload, str):
        return "garbled"
    if isinstance(payload, tuple):
        if not payload:
            return (0,)
        items = list(payload)
        index = rng.randrange(len(items))
        items[index] = _garble(items[index], rng, depth + 1)
        return tuple(items)
    if isinstance(payload, list):
        return [_garble(item, rng, depth + 1) for item in payload]
    if isinstance(payload, dict):
        return {
            key: _garble(value, rng, depth + 1)
            for key, value in payload.items()
        }
    if payload is None:
        return rng.getrandbits(8)
    # unknown structured object (BitString, witnesses, ...): replace with
    # junk bytes of a similar footprint.
    return bytes([rng.getrandbits(8) for _ in range(4)])


@dataclass(frozen=True)
class FaultSpec:
    """Declarative per-message fault probabilities on corrupted links.

    Each field is the probability of the fault firing on a message of
    any corrupted link (each is the adversary's: no per-link scope).
    Faults compose in a fixed order -- replay, garble, duplicate, drop
    -- and draw from one deterministic stream seeded by ``seed``, so a
    spec plus a corruption schedule is a reproducible experiment.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    garble: float = 0.0
    replay: float = 0.0
    seed: int = 0
    #: link-fault plane (honest links, handled by ``LossyTransport``).
    link_drop: float = 0.0
    link_delay: float = 0.0
    link_reorder: float = 0.0
    #: crash plane: ``(party, down_round, up_round)`` windows, realised
    #: through :class:`ComposedAdversary`'s ``crash_restarts`` hook
    #: (down_round >= 1): the only way a declared crash reaches an
    #: execution.  A party outside ``0..n-1`` is refused by
    #: ``ComposedAdversary.select_corruptions``, where ``n`` is known.
    crashes: tuple[tuple[int, int, int], ...] = ()
    #: partial-synchrony plane (the fields of
    #: :class:`~repro.sim.partial_sync.LinkSchedule`, which
    #: :attr:`schedule` builds and ``LossyTransport.from_spec`` hands to
    #: the transport).  All windows are keyed in *global transport
    #: slots* -- the monotone physical clock the synchronizer advances
    #: across rounds and escalation attempts -- never in round indices,
    #: because a partitioned round does not advance its round index
    #: while it waits for the network to heal.
    #:
    #: ``gst``: the Global Stabilization Time; before it the adversary
    #: schedules delays (``pre_gst_drop``), after it only the baseline
    #: ``link_*`` rates apply.  ``None`` disables the GST axis.
    gst: int | None = None
    #: additional drop rate applied to every link before ``gst``.
    pre_gst_drop: float = 0.0
    #: partition windows ``(start_slot, heal_slot, members)``: links
    #: crossing the ``members``-vs-rest boundary are deterministically
    #: severed while ``start_slot <= clock < heal_slot``.  A
    #: ``heal_slot`` of ``-1`` never heals.
    partitions: tuple[tuple[int, int, tuple[int, ...]], ...] = ()
    #: churn windows ``(start_slot, end_slot, extra_drop)``: the link
    #: drop rate is raised to at least ``extra_drop`` inside the window
    #: (link slowdown/flap schedules).
    link_churn: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "drop", "duplicate", "garble", "replay",
            "link_delay", "link_reorder",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")
        if not 0.0 <= self.link_drop < 1.0:
            raise ValueError(
                f"link_drop rate {self.link_drop} outside [0, 1) -- a "
                "link dropping everything can never be synchronized"
            )
        for event in self.crashes:
            party, down, up = event
            if down < 1:
                raise ValueError(
                    f"crash {event}: down_round must be >= 1 (crashes "
                    "fire at round boundaries via the adaptive hook)"
                )
            if up <= down:
                raise ValueError(
                    f"crash {event}: up_round must exceed down_round"
                )
            if party < 0:
                raise ValueError(f"crash {event}: party must be >= 0")
        try:
            self.schedule
        except ConfigurationError as error:
            # artifact loaders (cli.py) catch ValueError from a spec.
            raise ValueError(str(error)) from None

    @cached_property
    def schedule(self) -> LinkSchedule | None:
        """The partial-synchrony axes as the value a transport is given.

        ``None`` without them.  Building it is also how the spec
        validates its windows: the rules live in
        :class:`~repro.sim.partial_sync.LinkSchedule` alone.
        """
        schedule = LinkSchedule(
            self.gst, self.pre_gst_drop, self.partitions, self.link_churn
        )
        return schedule if self.has_partial_sync else None

    @property
    def is_noop(self) -> bool:
        """True when no fault (on any plane) can ever fire."""
        return not (
            self.drop or self.duplicate or self.garble or self.replay
            or self.has_link_faults or self.has_crashes
            or self.has_partial_sync
        )

    @property
    def has_message_faults(self) -> bool:
        """True when the byzantine message-fault axes are active."""
        return bool(self.drop or self.duplicate or self.garble or self.replay)

    @property
    def has_link_faults(self) -> bool:
        """True when the spec carries honest-link fault axes."""
        return bool(self.link_drop or self.link_delay or self.link_reorder)

    @property
    def has_crashes(self) -> bool:
        """True when the spec schedules crash/restart windows."""
        return bool(self.crashes)

    @property
    def has_partial_sync(self) -> bool:
        """True when the spec carries partial-synchrony axes."""
        return bool(
            self.gst is not None or self.partitions or self.link_churn
        )

    @property
    def heals(self) -> bool:
        """True when every scheduled partition eventually heals."""
        return all(heal != -1 for _, heal, _ in self.partitions)

    def describe(self) -> str:
        active = [
            f"{name}={getattr(self, name)}"
            for name in (
                "drop", "duplicate", "garble", "replay",
                "link_drop", "link_delay", "link_reorder",
            )
            if getattr(self, name)
        ]
        if self.crashes:
            active.append(f"crashes={len(self.crashes)}")
        if self.gst is not None:
            active.append(f"gst={self.gst}")
            if self.pre_gst_drop:
                active.append(f"pre_gst_drop={self.pre_gst_drop}")
        if self.partitions:
            healing = sum(1 for _, heal, _ in self.partitions if heal != -1)
            active.append(
                f"partitions={len(self.partitions)}"
                f"({healing} healing)"
            )
        if self.link_churn:
            active.append(f"churn={len(self.link_churn)}")
        return f"FaultSpec({', '.join(active) or 'noop'})"

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by repro artifacts)."""
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "garble": self.garble,
            "replay": self.replay,
            "seed": self.seed,
            "link_drop": self.link_drop,
            "link_delay": self.link_delay,
            "link_reorder": self.link_reorder,
            "crashes": [list(event) for event in self.crashes],
            "gst": self.gst,
            "pre_gst_drop": self.pre_gst_drop,
            "partitions": [
                [start, heal, list(members)]
                for start, heal, members in self.partitions
            ],
            "link_churn": [list(window) for window in self.link_churn],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if data.get("links") is not None:  # earlier writers: null
            raise ValueError(
                f"per-link fault scope {data['links']!r}: faults act on "
                "every corrupted link"
            )
        return cls(
            drop=data.get("drop", 0.0),
            duplicate=data.get("duplicate", 0.0),
            garble=data.get("garble", 0.0),
            replay=data.get("replay", 0.0),
            seed=data.get("seed", 0),
            link_drop=data.get("link_drop", 0.0),
            link_delay=data.get("link_delay", 0.0),
            link_reorder=data.get("link_reorder", 0.0),
            crashes=tuple(
                tuple(event) for event in data.get("crashes", ())
            ),
            gst=data.get("gst"),
            pre_gst_drop=data.get("pre_gst_drop", 0.0),
            partitions=tuple(
                (start, heal, tuple(members))
                for start, heal, members in data.get("partitions", ())
            ),
            link_churn=tuple(
                (start, end, extra)
                for start, end, extra in data.get("link_churn", ())
            ),
        )


class FaultInjector:
    """Stateful applier of a :class:`FaultSpec` to byzantine traffic."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        #: per-link history of payloads, feeding the replay fault.
        self._history: dict[tuple[int, int], list[Any]] = {}
        #: messages duplicated into the *next* round (an inbox holds one
        #: payload per sender, so a same-round duplicate is a no-op).
        self._carryover: dict[tuple[int, int], Any] = {}

    def apply(
        self, messages: dict[tuple[int, int], Any]
    ) -> dict[tuple[int, int], Any]:
        """Transform one round of byzantine messages in place-order."""
        out: dict[tuple[int, int], Any] = {}
        # deliver last round's duplicates first (a fresh payload on the
        # same link overrides them, mirroring inbox semantics).
        for link, payload in self._carryover.items():
            out[link] = payload
        self._carryover = {}

        spec = self.spec
        rng = self.rng
        for link in sorted(messages):
            payload = messages[link]
            history = self._history.setdefault(link, [])
            if spec.replay and history and rng.random() < spec.replay:
                payload = history[rng.randrange(len(history))]
            if spec.garble and rng.random() < spec.garble:
                payload = _garble(payload, rng)
            if spec.duplicate and rng.random() < spec.duplicate:
                self._carryover[link] = payload
            history.append(payload)
            if len(history) > 16:
                del history[0]
            if spec.drop and rng.random() < spec.drop:
                continue
            out[link] = payload
        return out


class ComposedAdversary(Adversary):
    """Stacks existing strategies and overlays link faults.

    * Corruptions: the union of each part's ``select_corruptions``,
      clipped deterministically (sorted order) to the ``t`` budget, or
      an explicit ``initial`` set.
    * Messages: each part's ``deliver`` runs on the same round view in
      order; later parts override earlier ones per ``(src, dst)`` link.
      The merged traffic then passes through the fault injector.
    * Adaptive corruptions: the union of the parts' ``adapt`` sets
      (the network clips to budget and records any clipping).
    * Crashes: the union of the parts' ``crash_restarts`` requests plus
      the spec's declarative ``crashes`` windows (the network clips to
      the shared ``t`` budget and records any clipping); a window naming
      a party outside ``0..n-1`` is a :class:`ConfigurationError` from
      :meth:`select_corruptions`.
    """

    def __init__(
        self,
        parts: list[Adversary],
        faults: FaultSpec | None = None,
        initial: set[int] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if not parts:
            raise ValueError("ComposedAdversary needs at least one part")
        self.parts = list(parts)
        self.faults = faults
        self.initial = None if initial is None else set(initial)
        self._injector = (
            None if faults is None or not faults.has_message_faults
            else FaultInjector(faults)
        )
        self.has_crash_plane = any(
            part.has_crash_plane for part in parts
        ) or bool(faults is not None and faults.has_crashes)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        # where the spec's crash windows first meet n.
        for party, down, up in self.faults.crashes if self.faults else ():
            if party >= n:
                raise ConfigurationError(
                    f"crash {(party, down, up)} names party {party}, "
                    f"outside 0..{n - 1}"
                )
        if self.initial is not None:
            return set(self.initial)
        union: set[int] = set()
        for part in self.parts:
            union |= part.select_corruptions(n, t)
        return set(sorted(union)[:t])

    def adapt(self, view: RoundView) -> set[int]:
        requested: set[int] = set()
        for part in self.parts:
            requested |= part.adapt(view)
        return requested

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        merged: dict[tuple[int, int], Any] = {}
        for part in self.parts:
            merged.update(part.deliver(view))
        if self._injector is not None:
            merged = self._injector.apply(merged)
        return merged

    def crash_restarts(self, view: RoundView) -> dict[int, int]:
        due: dict[int, int] = {}
        if self.faults is not None:
            for party, down, up in self.faults.crashes:
                if down == view.round_index + 1:
                    due[party] = up
        for part in self.parts:
            due.update(part.crash_restarts(view))
        return due

    def describe(self) -> str:
        inner = "+".join(part.describe() for part in self.parts)
        if self.faults is not None and not self.faults.is_noop:
            inner += f" % {self.faults.describe()}"
        return f"Composed[{inner}]"


class RecordingAdversary(Adversary):
    """Wraps an adversary and records its observable behaviour.

    After a run, ``script`` holds every delivered byzantine message
    keyed by ``(round, src, dst)``, ``adapt_schedule`` the adaptive
    corruption requests, and ``initial_corruptions`` the starting set --
    together enough to rebuild the execution exactly with
    :class:`ReplayAdversary`, with no reference to the original
    strategies or fault specs.
    """

    def __init__(self, inner: Adversary) -> None:
        super().__init__(getattr(inner, "seed", 0))
        self.inner = inner
        self.script: dict[tuple[int, int, int], Any] = {}
        self.adapt_schedule: list[tuple[int, int]] = []
        self.initial_corruptions: set[int] = set()
        #: ``(party, down_round, up_round)`` crash requests observed.
        self.crash_schedule: list[tuple[int, int, int]] = []
        self.has_crash_plane = inner.has_crash_plane

    def select_corruptions(self, n: int, t: int) -> set[int]:
        self.initial_corruptions = set(self.inner.select_corruptions(n, t))
        return set(self.initial_corruptions)

    def adapt(self, view: RoundView) -> set[int]:
        requested = self.inner.adapt(view)
        for party in sorted(requested):
            entry = (view.round_index, party)
            if entry not in self.adapt_schedule:
                self.adapt_schedule.append(entry)
        return requested

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        messages = self.inner.deliver(view)
        for (src, dst), payload in messages.items():
            self.script[(view.round_index, src, dst)] = payload
        return dict(messages)

    def crash_restarts(self, view: RoundView) -> dict[int, int]:
        due = self.inner.crash_restarts(view)
        for party in sorted(due):
            entry = (party, view.round_index + 1, due[party])
            if entry not in self.crash_schedule:
                self.crash_schedule.append(entry)
        return dict(due)

    def describe(self) -> str:
        return f"Recording[{self.inner.describe()}]"


class ReplayAdversary(ScriptedAdversary):
    """Replays a recorded byzantine script byte-for-byte.

    The handler looks up ``(round, src, dst)`` in the script and stays
    silent on misses, so deleting entries from the script (as the
    shrinker does) weakens the adversary monotonically.
    """

    def __init__(
        self,
        script: dict[tuple[int, int, int], Any],
        initial_corruptions: set[int],
        adapt_schedule: list[tuple[int, int]] | None = None,
        seed: int = 0,
        crash_schedule: list[tuple[int, int, int]] | None = None,
    ) -> None:
        self.script = dict(script)
        self.initial_corruptions = set(initial_corruptions)
        self.adapt_schedule = list(adapt_schedule or [])
        self.crash_schedule = list(crash_schedule or [])
        super().__init__(self._lookup, seed=seed)
        self.has_crash_plane = bool(self.crash_schedule)

    def _lookup(self, view: RoundView, src: int, dst: int, spec: Any) -> Any:
        return self.script.get((view.round_index, src, dst), DROP)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(self.initial_corruptions)

    def adapt(self, view: RoundView) -> set[int]:
        return {
            party
            for round_index, party in self.adapt_schedule
            if round_index == view.round_index
            and party not in view.corrupted
        }

    def crash_restarts(self, view: RoundView) -> dict[int, int]:
        return {
            party: up
            for party, down, up in self.crash_schedule
            if down == view.round_index + 1
        }

    def describe(self) -> str:
        return (
            f"ReplayAdversary({len(self.script)} messages, "
            f"{len(self.adapt_schedule)} adaptive, "
            f"{len(self.crash_schedule)} crashes)"
        )
