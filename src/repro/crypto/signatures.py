"""Idealized digital signatures (cryptographic setup for t < n/2).

The paper's open-problems section asks about "the synchronous model
with t < n/2 corruptions assuming cryptographic setup"; the
:mod:`repro.authenticated` subpackage explores the feasibility side of
that question, and needs signatures.

We model an *ideal signature functionality* rather than a concrete
scheme: a :class:`SignatureScheme` instance holds a secret seed known
to no protocol or adversary code; ``sign(signer, message)`` derives the
signature as ``H(seed || signer || message)`` and ``verify`` recomputes
it.  Within the simulation this gives perfect unforgeability *by
construction*, provided the adversary only ever calls ``sign`` for
corrupted signers -- which :meth:`SignatureScheme.for_adversary`
enforces mechanically (targeted-attack tests use that restricted
handle; honest protocol code signs only as ``ctx.party_id``).

Signatures are ``kappa`` bits, so the wire-sizing layer prices them
like any other digest.
"""

from __future__ import annotations

import os

from .hashing import digest_size_bytes, hash_parts

__all__ = ["SignatureScheme", "RestrictedSigner"]


class SignatureScheme:
    """An ideal signature functionality over ``n`` signer identities."""

    def __init__(self, kappa: int, n: int, seed: bytes | None = None) -> None:
        digest_size_bytes(kappa)  # validate kappa
        self.kappa = kappa
        self.n = n
        self._seed = seed if seed is not None else os.urandom(32)

    def sign(self, signer: int, message: bytes) -> bytes:
        """Sign ``message`` as party ``signer``."""
        if not 0 <= signer < self.n:
            raise ValueError(f"signer {signer} out of range")
        if not isinstance(message, bytes):
            raise TypeError("messages to sign must be bytes")
        return hash_parts(
            self.kappa, self._seed, signer.to_bytes(4, "big"), message
        )

    def verify(self, signer: int, message: bytes, signature) -> bool:
        """Check a signature; byzantine-proof (never raises)."""
        if not isinstance(signer, int) or not 0 <= signer < self.n:
            return False
        if not isinstance(message, bytes):
            return False
        if not isinstance(signature, bytes):
            return False
        return signature == self.sign(signer, message)

    def for_adversary(self, corrupted: set[int]) -> "RestrictedSigner":
        """A signing handle restricted to corrupted identities.

        Attack strategies must use this instead of :meth:`sign`, which
        mechanically encodes the unforgeability assumption.
        """
        return RestrictedSigner(self, frozenset(corrupted))


class RestrictedSigner:
    """Signs only on behalf of an allowed (corrupted) identity set."""

    def __init__(self, scheme: SignatureScheme, allowed: frozenset[int]):
        self._scheme = scheme
        self.allowed = allowed

    def sign(self, signer: int, message: bytes) -> bytes:
        """Sign as ``signer``; refused for honest identities."""
        if signer not in self.allowed:
            raise PermissionError(
                f"adversary cannot sign for honest party {signer}"
            )
        return self._scheme.sign(signer, message)

    def verify(self, signer: int, message: bytes, signature) -> bool:
        """Delegate verification to the underlying scheme."""
        return self._scheme.verify(signer, message, signature)
