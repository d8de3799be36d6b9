"""Value domains for Byzantine agreement protocols.

The paper invokes its assumed ``PI_BA`` on several input spaces: single
bits (``AddLastBit``, ``GetOutput``, sign agreement, length estimation),
kappa-bit hash values possibly extended with the special symbol "bottom"
(``PI_BA+``), and bitstring segments.  A :class:`Domain` bundles what the
protocols need to stay byzantine-proof and deterministic:

* ``contains`` -- structural validation, so malformed byzantine payloads
  are ignored instead of corrupting counters (the model's "parties may
  ignore any values outside N"),
* ``default`` -- the canonical fallback adopted when a byzantine king
  broadcasts junk (any deterministic in-domain rule preserves agreement),
* a canonical total order (:func:`canonical_key`) used for deterministic
  tie-breaking, so all honest parties resolve ties identically.

The special symbol "bottom" is represented as Python ``None`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core.bitstrings import BitString

__all__ = [
    "Domain",
    "canonical_key",
    "bit_domain",
    "digest_domain",
    "optional_digest_domain",
    "nat_domain",
    "bitstring_domain",
    "BIT_DOMAIN",
]


#: Exact ballot types :meth:`Domain.tally` may count before validating.
_INTS = {int}
_DIGESTS = {bytes, type(None)}


def canonical_key(value: Any) -> tuple:
    """A total order over every payload type the protocols exchange.

    ``None`` sorts first; integers, bytes, bitstrings and tuples follow in
    fixed type ranks.  Deterministic and identical at every party, which
    is all tie-breaking needs.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, (bytes, bytearray)):
        return (2, bytes(value))
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, BitString):
        return (4, value.length, value.value)
    if isinstance(value, tuple):
        return (5, tuple(canonical_key(item) for item in value))
    return (6, repr(value))


@dataclass(frozen=True)
class Domain:
    """An agreement input space with validation, default, and description."""

    name: str
    contains: Callable[[Any], bool]
    default: Any

    def validate(self, value: Any) -> bool:
        """Byzantine-proof membership test (never raises)."""
        try:
            return bool(self.contains(value))
        except Exception:
            return False

    def tally(self, ballots: Iterable[Any]) -> list[tuple[Any, int]]:
        """``(value, count)`` of the domain-valid ballots, first-seen order.

        Count-then-validate: when every ballot's *exact* type is ``int``,
        or ``bytes``/``None``, equal ballots are indistinguishable to
        ``contains`` and to :func:`canonical_key`, so they are counted at
        C level and each distinct value is validated once.  Any other
        inbox (``bool``/``float`` twins of ``1``, ``bytearray``,
        unhashables, junk) is validated copy by copy and merged by
        canonical key under its first-seen representative, so ``True``
        is never counted as, or validated on behalf of, ``1``.
        """
        ballots = list(ballots)
        kinds = set(map(type, ballots))
        if kinds == _INTS or (kinds and kinds <= _DIGESTS):
            first = ballots[0]
            if ballots.count(first) == len(ballots):
                counts = {first: len(ballots)}
            else:
                counts = {}
                for ballot in ballots:
                    counts[ballot] = counts.get(ballot, 0) + 1
            return [
                pair for pair in counts.items() if self.validate(pair[0])
            ]
        merged: dict[tuple, list] = {}
        for ballot in ballots:
            if self.validate(ballot):
                merged.setdefault(canonical_key(ballot), [ballot, 0])[1] += 1
        return [(value, count) for value, count in merged.values()]


BIT_DOMAIN = Domain(
    name="bit",
    contains=lambda v: v in (0, 1) and isinstance(v, int),
    default=0,
)


def bit_domain() -> Domain:
    """The domain ``{0, 1}``."""
    return BIT_DOMAIN


def digest_domain(kappa: int) -> Domain:
    """kappa-bit hash values (raw digests)."""
    size = kappa // 8
    return Domain(
        name=f"digest{kappa}",
        contains=lambda v: isinstance(v, bytes) and len(v) == size,
        default=b"\x00" * size,
    )


def optional_digest_domain(kappa: int) -> Domain:
    """kappa-bit hash values or the special symbol bottom (``None``).

    This is the input space of the ``PI_BA`` invocations inside
    ``PI_BA+`` (the values ``a`` and ``b`` may be bottom).
    """
    size = kappa // 8
    return Domain(
        name=f"digest{kappa}?",
        contains=lambda v: v is None
        or (isinstance(v, bytes) and len(v) == size),
        default=None,
    )


def nat_domain(max_bits: int | None = None) -> Domain:
    """Natural numbers, optionally bounded to ``max_bits`` bits."""

    def contains(v: Any) -> bool:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            return False
        return max_bits is None or v.bit_length() <= max_bits

    suffix = "" if max_bits is None else f"<=2^{max_bits}"
    return Domain(name=f"nat{suffix}", contains=contains, default=0)


def bitstring_domain(length: int | None = None) -> Domain:
    """Bitstrings, optionally of one exact length."""

    def contains(v: Any) -> bool:
        if not isinstance(v, BitString):
            return False
        return length is None or v.length == length

    suffix = "" if length is None else f"[{length}]"
    return Domain(
        name=f"bits{suffix}",
        contains=contains,
        default=BitString(0, length or 0),
    )
