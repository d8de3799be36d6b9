"""Payload-bomb adversaries: hostile traffic for the wire-guard plane.

Four families of byzantine input, each attacking a different layer of
the honest receive path:

* :class:`OversizeBlobAdversary` -- mebibyte-scale byte blobs that a
  naive receiver would copy, hash, or size at full cost.  Defeated by
  the per-message bit bound ("oversize").
* :class:`DeepNestAdversary` -- containers nested far past any honest
  schema; every recursive consumer (``bit_size``, ``repr``, a JSON
  codec, the garbler) is a stack-overflow target.  Defeated by the
  depth cap ("depth").
* :class:`TypeConfusionAdversary` -- near-schema payloads holding
  values the wire schema carries but does not price (floats, sets) in
  positions where honest messages carry ints or tuples.  Defeated by
  the closed type table ("type").
* :class:`NearValidMutantAdversary` -- the hard family: it takes the
  corrupted parties' *spec* messages and applies minimal semantic
  damage (one flipped byte inside a hash/witness field, one element
  truncated off a share vector).  These conform to every wire bound and
  *reach honest code*, which must reject them at the protocol layer
  without raising -- exactly the no-crash meta-invariant the fuzz plane
  enforces via :class:`~repro.errors.HonestPartyError`.

All four are deterministic in their seed, compose through
:class:`~repro.sim.faults.ComposedAdversary` like every catalog
adversary, and are sampled by ``repro fuzz --bombs`` / mutated by the
search engine via :data:`BOMB_CATALOG`.  The catalog is deliberately
separate from ``fuzz.ADVERSARY_CATALOG``: sampling draws from the
sorted catalog keys, so growing the base catalog would silently reseed
every pinned campaign.  So would growing :data:`BOMB_CATALOG`: the
string bomb (a ``str`` far past ``sizing.OPCODE_MAX_CHARS``) stays a
direct canary in ``tests/test_bombs.py`` until ROADMAP item 9
re-baselines the bombs goldens and perfbench's digest.

Campaign defaults keep payloads modest (tens of KiB, depth 64) so
recorded scripts and JSON artifacts stay tractable (the recursive
artifact codec refuses nesting past ``sizing.CODEC_MAX_DEPTH``, 256);
the 64 MiB / depth-1000 extremes live in the direct canary tests,
where no recording or artifact encoding is in the loop.
"""

from __future__ import annotations

import random
from typing import Any

from .adversary import Adversary, RandomGarbageAdversary, RoundView

__all__ = [
    "BOMB_CATALOG",
    "DeepNestAdversary",
    "NearValidMutantAdversary",
    "OversizeBlobAdversary",
    "TypeConfusionAdversary",
    "deep_nest",
]

#: campaign-scale blob: far over every derived per-message bound, far
#: under anything that would bloat a recorded script.
DEFAULT_BLOB_BYTES = 16 * 1024
#: campaign-scale nesting: double the default wire depth cap, a quarter
#: of what the artifact codec accepts (``sizing.CODEC_MAX_DEPTH``).
DEFAULT_NEST_DEPTH = 64


def deep_nest(depth: int, leaf: Any = 0) -> Any:
    """Build a ``depth``-deep chain of 1-tuples around ``leaf``.

    Iterative, so building a depth-100000 bomb costs no stack; only
    recursive *consumers* of the result are endangered -- which is the
    point.
    """
    value = leaf
    for _ in range(depth):
        value = (value,)
    return value


class OversizeBlobAdversary(Adversary):
    """Firehoses one large byte blob from every corrupted party.

    The blob is built once (deterministically from the seed) and the
    same object is reused for every link and round, so even the 64 MiB
    canary configuration costs one allocation.
    """

    def __init__(self, seed: int = 0, blob_bytes: int = DEFAULT_BLOB_BYTES):
        super().__init__(seed)
        self.blob_bytes = blob_bytes
        self.blob = random.Random(seed).randbytes(blob_bytes)

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for src in sorted(view.corrupted):
            for dst in range(view.n):
                out[(src, dst)] = self.blob
        return out


class DeepNestAdversary(Adversary):
    """Sends a deeply nested 1-tuple chain on every corrupted link."""

    def __init__(self, seed: int = 0, depth: int = DEFAULT_NEST_DEPTH):
        super().__init__(seed)
        self.depth = depth
        self.nest = deep_nest(depth, leaf=random.Random(seed).getrandbits(8))

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for src in sorted(view.corrupted):
            for dst in range(view.n):
                out[(src, dst)] = self.nest
        return out


class TypeConfusionAdversary(Adversary):
    """Sends schema-shaped payloads holding wire-unpriceable values.

    Every maker stays within the wire schema's rows (``float`` and
    ``set`` are rows the codec carries and no pricer accepts) so a
    recorded script containing these payloads still round-trips through
    JSON artifacts deterministically.
    """

    _MAKERS = (
        lambda rng: float(rng.getrandbits(16)) / 8.0,
        lambda rng: {rng.getrandbits(4), rng.getrandbits(8) + 16},
        lambda rng: ("VOTE", float(rng.getrandbits(8))),
        lambda rng: (rng.getrandbits(8), {"k": {1, rng.getrandbits(3)}}),
        lambda rng: [b"x", 3.5, None],
        lambda rng: {"witness": {float(rng.getrandbits(4))}},
    )

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for src in sorted(view.corrupted):
            for dst in range(view.n):
                maker = self.rng.choice(self._MAKERS)
                out[(src, dst)] = maker(self.rng)
        return out


class NearValidMutantAdversary(Adversary):
    """Minimally damages the corrupted parties' spec messages.

    Wire-conformant by construction (the mutation never grows the
    payload beyond a truncation or an in-place flip), so these messages
    pass every guard and exercise the *protocol-level* validation of
    honest receivers: a flipped byte inside a ``bytes`` field models a
    Merkle witness with one corrupted leaf hash; a truncated tuple
    models a short RS share vector.
    """

    def deliver(self, view: RoundView) -> dict[tuple[int, int], Any]:
        out: dict[tuple[int, int], Any] = {}
        for (src, dst), payload in sorted(
            view.spec_outgoing.items(), key=lambda item: item[0]
        ):
            out[(src, dst)] = self._mutate(payload)
        return out

    def _mutate(self, payload: Any) -> Any:
        rng = self.rng
        if isinstance(payload, bool):
            return not payload
        if isinstance(payload, int):
            return payload + rng.choice((-1, 1))
        if isinstance(payload, (bytes, bytearray)) and payload:
            data = bytearray(payload)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            return bytes(data)
        if isinstance(payload, tuple) and payload:
            if len(payload) > 1 and rng.random() < 0.5:
                return payload[:-1]
            items = list(payload)
            index = rng.randrange(len(items))
            items[index] = self._mutate(items[index])
            return tuple(items)
        if isinstance(payload, list) and payload:
            if rng.random() < 0.5:
                return payload[:-1]
            return [self._mutate(item) for item in payload]
        return payload


#: name -> seed-taking factory, mirroring ``fuzz.ADVERSARY_CATALOG``.
#: Kept separate so the base catalog's sorted key order (a pinned-seed
#: sampling contract) never changes; ``fuzz._build_adversary`` resolves
#: names against the union of both catalogs.
BOMB_CATALOG = {
    "bomb_blob": lambda seed: OversizeBlobAdversary(seed=seed),
    "bomb_nest": lambda seed: DeepNestAdversary(seed=seed),
    "bomb_type": lambda seed: TypeConfusionAdversary(seed),
    "bomb_mutant": lambda seed: NearValidMutantAdversary(seed),
    "bomb_garbage": lambda seed: RandomGarbageAdversary(
        seed, profile="bomb"
    ),
}
