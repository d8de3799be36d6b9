"""Collision-resistant hashing ``H_kappa``.

The paper assumes a collision-resistant hash
``H_kappa: {0,1}* -> {0,1}^kappa`` and proves its protocols secure
conditioned on no collision occurring.  We instantiate ``H_kappa`` with
SHA-256 truncated to ``kappa`` bits (kappa <= 256), the standard
instantiation for this assumption.

Digests are plain ``bytes`` of ``kappa / 8`` bytes, so the wire-sizing
layer automatically prices them at ``kappa`` bits.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from ..perf import counters

__all__ = [
    "hash_bytes",
    "hash_parts",
    "hash_leaves",
    "hash_pair_level",
    "digest_size_bytes",
]

_MAX_KAPPA = 256


def digest_size_bytes(kappa: int) -> int:
    """Digest length in bytes for security parameter ``kappa``."""
    if kappa < 8 or kappa % 8 or kappa > _MAX_KAPPA:
        raise ValueError(
            f"kappa must be a multiple of 8 in [8, {_MAX_KAPPA}], got {kappa}"
        )
    return kappa // 8


def hash_bytes(kappa: int, data: bytes) -> bytes:
    """``H_kappa(data)``: SHA-256 truncated to ``kappa`` bits."""
    counters.bump("sha256")
    return hashlib.sha256(data).digest()[: digest_size_bytes(kappa)]


def hash_parts(kappa: int, *parts: bytes) -> bytes:
    """Hash a sequence of byte strings with unambiguous length framing.

    Each part is prefixed with its 4-byte big-endian length so that
    ``hash_parts(a, b) != hash_parts(a + b)`` -- the framing removes
    concatenation ambiguity, preserving collision resistance for
    structured inputs (Merkle nodes, leaf encodings, ...).
    """
    counters.bump("sha256")
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(4, "big"))
        hasher.update(part)
    return hasher.digest()[: digest_size_bytes(kappa)]


def hash_leaves(
    kappa: int, prefix: bytes, leaves: Sequence[bytes]
) -> list[bytes]:
    """Batched ``H(prefix || frame(leaf))`` over a whole leaf list.

    The building block for Merkle levels: each digest is one
    ``hashlib`` invocation over a single pre-packed contiguous buffer
    (no per-part ``update()`` churn), byte-identical to ``hash_parts``
    with the prefix's tag as the first part.  Bumps the ``sha256``
    counter once per leaf, exactly like one ``hash_parts`` call each.
    """
    counters.bump("sha256", len(leaves))
    size = digest_size_bytes(kappa)
    sha256 = hashlib.sha256
    return [
        sha256(
            prefix + len(leaf).to_bytes(4, "big") + leaf
        ).digest()[:size]
        for leaf in leaves
    ]


def hash_pair_level(
    kappa: int, prefix: bytes, nodes: Sequence[bytes]
) -> list[bytes]:
    """Hash adjacent node pairs of one Merkle level in a single sweep.

    ``nodes`` holds an even number of equal-length digests; the result
    is the next level up.  Each parent is one ``hashlib`` call over the
    packed ``prefix || left || frame || right`` buffer, byte-identical
    to ``hash_parts(kappa, tag, left, right)``.
    """
    counters.bump("sha256", len(nodes) // 2)
    size = digest_size_bytes(kappa)
    mid_frame = len(nodes[0]).to_bytes(4, "big") if nodes else b""
    sha256 = hashlib.sha256
    return [
        sha256(
            prefix + nodes[i] + mid_frame + nodes[i + 1]
        ).digest()[:size]
        for i in range(0, len(nodes), 2)
    ]
