"""Resource guards for hostile payloads.

The paper's adversary "deviates arbitrarily" -- including by sending
payloads that are *not* well-shaped protocol messages: multi-mebibyte
blobs, thousand-deep nested containers, values of types the honest
codec cannot even price.  Communication-optimality claims are only
meaningful if such traffic can neither inflate honest work nor crash
honest code, so honest parties validate every byzantine inbox entry
against size/shape/depth bounds derived from the paper's bit envelopes
and deterministically *discard* (quarantine) anything out of bounds,
attributing it to the sender.

Design constraints, all load-bearing:

* **Bounded work, one price list.** The walk is
  :func:`repro.sim.sizing.measure_payload`: iterative, early-exit, and
  reading the same closed type table honest sends are priced from, so
  this module names no payload type.  ``sizing.bit_size`` and
  ``repr()`` recurse and must never see unvalidated traffic.
* **Honest-conservative bounds.** :meth:`WireLimits.from_envelopes`
  derives per-message and per-sender/per-round ceilings with a wide
  margin above every honest message shape in the registry, so
  spec-following traffic is never quarantined (the guards-on vs
  guards-off byte-identity suite in ``tests/test_bombs.py`` proves
  this for every registry protocol).
* **Separate accounting.** Quarantined traffic lands on
  ``CommunicationStats.quarantined_messages`` / ``rejected_bits`` and
  the ``guard_*`` perf counters -- never on ``honest_bits``, which
  remains the paper's BITS_l(PI) measure.

The guard is only consulted for byzantine-origin traffic (what the
adversary's ``deliver`` returned in
:class:`~repro.sim.network.SynchronousNetwork`); a bare run -- no
scripted adversary, transport or recovery plane -- never touches it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..costs import message_bits
from .sizing import DEFAULT_MAX_DEPTH, measure_payload

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "QUARANTINE_REASONS",
    "WireGuard",
    "WireLimits",
    "conformance_failures",
    "inbox_digest",
    "measure_payload",
]

# The closed set of verdicts a guard can return.  "type" = a value the
# wire schema has no price for; "depth" = nesting beyond the cap;
# "oversize" = a single message over the per-message bit bound;
# "ceiling" = a well-formed message that would push its sender over the
# per-round inbound byte ceiling.
QUARANTINE_REASONS = ("type", "depth", "oversize", "ceiling")


@dataclass(frozen=True)
class WireLimits:
    """Size/shape/depth bounds for inbound byzantine traffic.

    Attributes:
        max_message_bits: upper bound on the priced size of a single
            message payload.
        max_depth: upper bound on container nesting depth (top-level
            atoms are depth 0).
        max_round_bits: per-sender, per-round ceiling on total accepted
            inbound bits; ``None`` disables the ceiling.  In the
            lockstep model one sender delivers at most one message per
            destination per round, so the derived default
            (``n * max_message_bits``) is a backstop that one
            sender's round of conforming messages never reaches.
    """

    max_message_bits: int
    max_depth: int = DEFAULT_MAX_DEPTH
    max_round_bits: int | None = None

    def __post_init__(self) -> None:
        if self.max_message_bits <= 0:
            raise ValueError("max_message_bits must be positive")
        if self.max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if self.max_round_bits is not None and self.max_round_bits <= 0:
            raise ValueError("max_round_bits must be positive when set")

    @classmethod
    def from_envelopes(cls, n: int, t: int, ell: int, kappa: int) -> "WireLimits":
        """Derive bounds from the paper's bit envelopes: one message is
        at most :func:`repro.costs.message_bits`, one sender's round at
        most ``n`` of them."""
        del t  # resilience does not change the per-message envelope
        per_message = message_bits(n, ell, kappa)
        return cls(
            max_message_bits=per_message,
            max_depth=DEFAULT_MAX_DEPTH,
            max_round_bits=max(2, n) * per_message,
        )


class WireGuard:
    """Stateful per-execution guard applying :class:`WireLimits`.

    Tracks accepted inbound bits per sender within the current round so
    the per-round ceiling can be enforced on top of the stateless
    per-message checks.  The synchronous network visits rounds in
    order, so a single "current round" accumulator suffices.
    """

    def __init__(self, limits: WireLimits) -> None:
        self.limits = limits
        self._round: int | None = None
        self._round_bits: dict[int, int] = {}

    def check(self, round_index: int, src: int, payload: Any) -> tuple[str | None, int]:
        """Validate one inbound message from ``src`` in ``round_index``.

        Returns ``(None, bits)`` for conforming traffic (and charges the
        sender's round ceiling), or ``(reason, bits)`` naming the first
        bound violated; ``bits`` is the (possibly truncated) measured
        size either way.
        """
        if round_index != self._round:
            self._round = round_index
            self._round_bits = {}
        reason, bits = measure_payload(
            payload,
            max_bits=self.limits.max_message_bits,
            max_depth=self.limits.max_depth,
        )
        if reason is not None:
            return reason, bits
        ceiling = self.limits.max_round_bits
        if ceiling is not None:
            total = self._round_bits.get(src, 0) + bits
            if total > ceiling:
                return "ceiling", bits
            self._round_bits[src] = total
        return None, bits


def conformance_failures(
    payloads: Iterable[Any], limits: WireLimits
) -> list[tuple[int, str, int]]:
    """Audit helper: non-conforming entries of an honest payload sweep.

    Returns ``(index, reason, bits)`` for every payload a guard with
    ``limits`` would quarantine (ceiling excluded -- this audits shapes,
    not schedules).  Tests use this to prove honest protocol traffic is
    never quarantinable under the derived envelopes.
    """
    failures: list[tuple[int, str, int]] = []
    for index, payload in enumerate(payloads):
        reason, bits = measure_payload(
            payload, max_bits=limits.max_message_bits, max_depth=limits.max_depth
        )
        if reason is not None:
            failures.append((index, reason, bits))
    return failures


def inbox_digest(inbox: Mapping[int, Any]) -> str:
    """Bounded, ``repr``-free digest of an inbox for error attribution.

    Summarises each entry by sender, top-level type name, and a
    work-capped measurement -- never ``repr`` (which recurses and can
    be arbitrarily large on hostile payloads).  Stable across runs for
    identical inboxes, so fuzz reports can be grouped by digest.
    """
    digest = hashlib.sha256()
    for src in sorted(inbox):
        payload = inbox[src]
        reason, bits = measure_payload(payload, max_bits=1 << 24, max_depth=64)
        entry = f"{src}:{type(payload).__name__}:{reason or 'ok'}:{bits};"
        digest.update(entry.encode("utf-8"))
    return digest.hexdigest()[:16]
