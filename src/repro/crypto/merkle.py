"""Merkle trees: the collision-free accumulator of Section 7.

The paper compresses the multiset of a value's ``n`` Reed-Solomon
codewords into a ``kappa``-bit root ``z`` and hands each party a witness
``w_i`` of ``O(kappa * log n)`` bits proving that codeword ``s_i`` is the
i-th accumulated element:

* ``MT.BUILD(S) -> (z, w_1..w_n)`` is :func:`build`,
* ``MT.VERIFY(z, i, s_i, w_i) -> bool`` is :func:`verify`.

Implementation notes:

* leaves store ``H(0x00 || leaf)`` and interior nodes
  ``H(0x01 || left || right)`` -- the domain separation prevents
  leaf/node confusion attacks,
* the tree is padded to a power of two with a distinguished empty-leaf
  hash, so witnesses always have ``ceil(log2 n)`` siblings,
* :func:`build` hashes every level but makes a witness only when it is
  read (:class:`Witnesses`): only a party that sends codewords reads
  any,
* :func:`verify` is fully defensive: malformed byzantine witnesses make
  it return ``False`` instead of raising.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from ..perf import counters
from ..sim.sizing import Row, register
from .hashing import digest_size_bytes, hash_leaves, hash_pair_level

__all__ = [
    "MerkleWitness",
    "Witnesses",
    "build",
    "verify",
    "well_formed",
    "witness_bits",
]

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"
_EMPTY_TAG = b"\x02"


@dataclass(frozen=True, slots=True)
class MerkleWitness:
    """Authentication path for one leaf: sibling hashes bottom-up."""

    index: int
    siblings: tuple[bytes, ...]

    def wire_bits(self) -> int:
        """Wire cost: path hashes plus the leaf index."""
        index_bits = max(1, self.index.bit_length())
        return index_bits + sum(8 * len(h) for h in self.siblings)


register(MerkleWitness, Row(
    "witness", lambda parts: MerkleWitness(*parts), MerkleWitness.wire_bits,
    children=lambda witness: (witness.index, witness.siblings),
))


class Witnesses(Sequence):
    """:func:`build`'s witnesses, one per leaf, each made when first read.

    Holds the tree's hashed levels; ``witnesses[i]`` makes
    ``MerkleWitness(i, siblings)`` the first time ``i`` is read and
    keeps it, so a sequence nobody reads costs no witness at all.
    Read-only; two sequences over the same levels are equal.
    """

    __slots__ = ("_levels", "_made")

    def __init__(self, levels: list[list[bytes]], count: int) -> None:
        self._levels = levels
        self._made: list[MerkleWitness | None] = [None] * count

    def __len__(self) -> int:
        return len(self._made)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self._made))[index])
        witness = self._made[index]
        if witness is None:
            position = range(len(self._made))[index]
            witness = self._made[index] = MerkleWitness(
                position,
                tuple(
                    level[(position >> depth) ^ 1]
                    for depth, level in enumerate(self._levels[:-1])
                ),
            )
        return witness

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Witnesses):
            return NotImplemented
        return len(self) == len(other) and self._levels == other._levels


@lru_cache(maxsize=None)
def _frame_prefix(tag: bytes) -> bytes:
    """The :func:`hash_parts` length framing of a domain-separation tag."""
    return len(tag).to_bytes(4, "big") + tag


@lru_cache(maxsize=None)
def _length_frame(size: int) -> bytes:
    """The 4-byte length header every ``size``-byte part is framed with."""
    return size.to_bytes(4, "big")


def _leaf_hash(kappa: int, leaf: bytes) -> bytes:
    # Single hashlib invocation, byte-identical to
    # hash_parts(kappa, _LEAF_TAG, leaf).
    counters.bump("sha256")
    return hashlib.sha256(
        _frame_prefix(_LEAF_TAG) + _length_frame(len(leaf)) + leaf
    ).digest()[: digest_size_bytes(kappa)]


def _node_hash(kappa: int, left: bytes, right: bytes) -> bytes:
    counters.bump("sha256")
    frame = _length_frame(len(left))
    return hashlib.sha256(
        _frame_prefix(_NODE_TAG) + frame + left + _length_frame(len(right))
        + right
    ).digest()[: digest_size_bytes(kappa)]


@lru_cache(maxsize=None)
def _empty_hash(kappa: int) -> bytes:
    # Process-level memo: the padding digest depends only on kappa.
    # Deliberately not counted as a sha256 op, so the deterministic
    # counters do not depend on lru_cache state.  Byte-identical to
    # hash_parts(kappa, _EMPTY_TAG).
    return hashlib.sha256(
        _frame_prefix(_EMPTY_TAG)
    ).digest()[: digest_size_bytes(kappa)]


def _build_levels(
    kappa: int, leaves: list[bytes], width: int
) -> list[list[bytes]]:
    """Every level of the tree, leaves first: one hashlib call per node
    over a pre-packed contiguous buffer (:func:`~repro.crypto.hashing.
    hash_leaves` / :func:`~repro.crypto.hashing.hash_pair_level`)
    instead of per-part ``update()`` churn."""
    level = hash_leaves(kappa, _frame_prefix(_LEAF_TAG), leaves)
    level.extend([_empty_hash(kappa)] * (width - len(leaves)))
    size = digest_size_bytes(kappa)
    node_prefix = _frame_prefix(_NODE_TAG) + _length_frame(size)
    levels = [level]
    while len(level) > 1:
        level = hash_pair_level(kappa, node_prefix, level)
        levels.append(level)
    return levels


def build(kappa: int, leaves: list[bytes]) -> tuple[bytes, Witnesses]:
    """``MT.BUILD``: return the root and one witness per leaf.

    Every level is hashed here; the witnesses are made on read
    (:class:`Witnesses`).
    """
    if not leaves:
        raise ValueError("cannot build a Merkle tree over zero leaves")
    counters.bump("merkle_build")
    count = len(leaves)
    width = 1
    while width < count:
        width *= 2

    # levels[0] = leaf hashes, levels[-1] = [root]
    levels = _build_levels(kappa, leaves, width)
    return levels[-1][0], Witnesses(levels, count)


def well_formed(
    kappa: int, root: bytes, index: int, leaf: bytes, witness: MerkleWitness
) -> bool:
    """The structural half of :func:`verify`: everything it tests before
    hashing.  Hashes nothing, never raises, and calls no method of an
    argument that fails an earlier test."""
    if not isinstance(witness, MerkleWitness):
        return False
    if not isinstance(root, bytes) or not isinstance(leaf, bytes):
        return False
    if not isinstance(index, int) or index < 0:
        return False
    if witness.index != index:
        return False
    size = digest_size_bytes(kappa)
    if len(root) != size:
        return False
    if not isinstance(witness.siblings, tuple):
        return False
    if any(
        not isinstance(s, bytes) or len(s) != size for s in witness.siblings
    ):
        return False
    return index < (1 << len(witness.siblings))


def verify(
    kappa: int, root: bytes, index: int, leaf: bytes, witness: MerkleWitness
) -> bool:
    """``MT.VERIFY(z, i, s_i, w_i)``; byzantine-proof (never raises)."""
    counters.bump("merkle_verify")
    if not well_formed(kappa, root, index, leaf, witness):
        return False
    node = _leaf_hash(kappa, leaf)
    position = index
    for sibling in witness.siblings:
        if position % 2 == 0:
            node = _node_hash(kappa, node, sibling)
        else:
            node = _node_hash(kappa, sibling, node)
        position //= 2
    return node == root


def witness_bits(kappa: int, n_leaves: int) -> int:
    """Upper bound on a witness' wire size: ``O(kappa log n)`` bits."""
    depth = max(1, (n_leaves - 1).bit_length())
    return depth * kappa + max(1, n_leaves.bit_length())
