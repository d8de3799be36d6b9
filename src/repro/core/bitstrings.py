"""Binary representations: the paper's ``BITS``/``VAL``/``MIN``/``MAX``.

Section 2 of the paper fixes the following notation, all of which this
module implements on an immutable :class:`BitString` value type:

* ``BITS(v)`` -- the minimal binary representation of ``v`` (empty for 0),
* ``BITS_l(v)`` -- the ``l``-bit representation, zero-padded on the left,
* ``B^i_l(v)`` -- the i-th leftmost bit (1-indexed in the paper),
* ``VAL(bits)`` -- the integer value of a bitstring,
* ``MIN_l(bits)`` / ``MAX_l(bits)`` -- the lowest/highest ``l``-bit value
  with the given prefix (pad with zeroes / ones),
* ``BLOCKS(v)`` -- the decomposition of ``BITS_l(v)`` into fixed-size
  blocks (Section 4 uses ``n^2`` blocks of ``l/n^2`` bits).

A :class:`BitString` is stored as ``(value, length)`` -- a Python int plus
an explicit bit length -- so prefixes, concatenation and comparisons are
single big-int operations rather than per-bit loops.  Each is still
``O(length)`` (a slice ``O(min(stop, length - start) + width)``), which
is what callers holding megabit values count: see "Local cost of the
l-bit value" in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..sim.sizing import Row, register

__all__ = [
    "BitString",
    "bits_of",
    "bits_fixed",
    "val_of",
    "min_fill",
    "max_fill",
    "blocks_of",
    "join_blocks",
    "longest_common_prefix",
]

_LENGTH_HEADER_BYTES = 4


@dataclass(frozen=True, slots=True)
class BitString:
    """An immutable bitstring: ``length`` bits whose integer value is ``value``.

    Bit 0 is the *leftmost* (most significant) bit, matching the paper's
    ``B_1 B_2 ... B_k`` reading order (the paper indexes from 1; this class
    uses Python's 0-based indexing, so the paper's ``B^i_l(v)`` is
    ``bits_fixed(v, l)[i - 1]``).
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.value < 0:
            raise ValueError(f"negative value {self.value}")
        if self.value.bit_length() > self.length:
            raise ValueError(
                f"value {self.value} does not fit in {self.length} bits"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def empty(cls) -> "BitString":
        """The zero-length bitstring."""
        return cls(0, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        """Build from an iterable of 0/1 bits, leftmost first."""
        value = 0
        length = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
            value = (value << 1) | bit
            length += 1
        return cls(value, length)

    @classmethod
    def from_str(cls, text: str) -> "BitString":
        """Parse a string like ``"0101"``."""
        return cls.from_bits(int(ch) for ch in text)

    # -- conversions ------------------------------------------------------
    def bits(self) -> tuple[int, ...]:
        """The bits as a tuple, leftmost first."""
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        for i in range(self.length):
            yield (self.value >> (self.length - 1 - i)) & 1

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __str__(self) -> str:
        return "".join(str(b) for b in self)

    def __repr__(self) -> str:
        return f"BitString('{self}')" if self.length <= 64 else (
            f"BitString(len={self.length}, value={self.value})"
        )

    # -- indexing ---------------------------------------------------------
    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.length)
            if step != 1:
                raise ValueError("BitString slices must have step 1")
            if stop <= start:
                return BitString.empty()
            width = stop - start
            tail = self.length - start
            if start and tail < stop:
                # the tail is the shorter side: drop the head first, so
                # the shift moves tail bits rather than stop bits
                shifted = (self.value & ((1 << tail) - 1)) >> (tail - width)
            else:
                shifted = self.value >> (self.length - stop)
                if start:  # a prefix is already < 2^width: no mask
                    shifted &= (1 << width) - 1
            return BitString(shifted, width)
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(f"bit index {index} out of range")
        return (self.value >> (self.length - 1 - index)) & 1

    def prefix(self, k: int) -> "BitString":
        """The first ``k`` bits."""
        if not 0 <= k <= self.length:
            raise ValueError(f"prefix length {k} out of range")
        return self[:k]

    def suffix_from(self, k: int) -> "BitString":
        """Bits ``k..end`` (0-based)."""
        return self[k:]

    # -- algebra ------------------------------------------------------------
    def concat(self, other: "BitString") -> "BitString":
        """The paper's ``||`` operator."""
        return BitString(
            (self.value << other.length) | other.value,
            self.length + other.length,
        )

    __add__ = concat

    def append_bit(self, bit: int) -> "BitString":
        """This bitstring extended by one bit on the right."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        return BitString((self.value << 1) | bit, self.length + 1)

    def is_prefix_of(self, other: "BitString") -> bool:
        """Whether ``other`` starts with this bitstring."""
        if self.length > other.length:
            return False
        return other.value >> (other.length - self.length) == self.value

    def has_prefix(self, prefix: "BitString") -> bool:
        """Whether this bitstring starts with ``prefix``."""
        return prefix.is_prefix_of(self)

    # -- MIN / MAX ---------------------------------------------------------
    def min_fill(self, ell: int) -> int:
        """``MIN_l(self)``: lowest ``ell``-bit value with this prefix."""
        if ell < self.length:
            raise ValueError(
                f"cannot fill prefix of {self.length} bits to {ell} bits"
            )
        return self.value << (ell - self.length)

    def max_fill(self, ell: int) -> int:
        """``MAX_l(self)``: highest ``ell``-bit value with this prefix."""
        if ell < self.length:
            raise ValueError(
                f"cannot fill prefix of {self.length} bits to {ell} bits"
            )
        pad = ell - self.length
        return (self.value << pad) | ((1 << pad) - 1)

    # -- wire format ---------------------------------------------------------
    def wire_bits(self) -> int:
        """Communication cost: exactly ``length`` bits (see DESIGN.md)."""
        return self.length

    def to_wire_bytes(self) -> bytes:
        """Self-delimiting byte encoding (length header + payload)."""
        header = self.length.to_bytes(_LENGTH_HEADER_BYTES, "big")
        payload = self.value.to_bytes((self.length + 7) // 8 or 1, "big")
        return header + payload

    @classmethod
    def from_wire_bytes(cls, data: bytes) -> "BitString":
        """Parse :meth:`to_wire_bytes` output; raises ``ValueError`` on junk."""
        if len(data) < _LENGTH_HEADER_BYTES:
            raise ValueError("bitstring wire data too short")
        length = int.from_bytes(data[:_LENGTH_HEADER_BYTES], "big")
        payload = data[_LENGTH_HEADER_BYTES:]
        if len(payload) != max(1, (length + 7) // 8):
            raise ValueError("bitstring wire payload is not canonical")
        value = int.from_bytes(payload, "big")
        if value.bit_length() > length:
            raise ValueError("bitstring wire payload has stray high bits")
        return cls(value, length)


register(BitString, Row(
    "bits", lambda parts: BitString(*parts), BitString.wire_bits,
    children=lambda bits: (bits.value, bits.length),
))


# ---------------------------------------------------------------------------
# Module-level functions mirroring the paper's notation.
# ---------------------------------------------------------------------------

def bits_of(v: int) -> BitString:
    """``BITS(v)``: the minimal binary representation (empty for 0)."""
    if v < 0:
        raise ValueError(f"BITS is defined on naturals, got {v}")
    return BitString(v, v.bit_length())


def bits_fixed(v: int, ell: int) -> BitString:
    """``BITS_l(v)``: the ``ell``-bit representation of ``v``."""
    if v < 0:
        raise ValueError(f"BITS_l is defined on naturals, got {v}")
    if v.bit_length() > ell:
        raise ValueError(f"value {v} does not fit in {ell} bits")
    return BitString(v, ell)


def val_of(bits: BitString) -> int:
    """``VAL(bits)``: the integer value of a bitstring."""
    return bits.value


def min_fill(bits: BitString, ell: int) -> int:
    """``MIN_l(bits)``."""
    return bits.min_fill(ell)


def max_fill(bits: BitString, ell: int) -> int:
    """``MAX_l(bits)``."""
    return bits.max_fill(ell)


def blocks_of(v: int, ell: int, num_blocks: int) -> list[BitString]:
    """``BLOCKS(v)``: split ``BITS_l(v)`` into ``num_blocks`` equal blocks."""
    if ell % num_blocks:
        raise ValueError(
            f"block decomposition requires num_blocks | ell, "
            f"got ell={ell}, num_blocks={num_blocks}"
        )
    whole = bits_fixed(v, ell)
    size = ell // num_blocks
    return [whole[i * size:(i + 1) * size] for i in range(num_blocks)]


def join_blocks(blocks: Iterable[BitString]) -> BitString:
    """Concatenate blocks back into one bitstring."""
    out = BitString.empty()
    for block in blocks:
        out = out.concat(block)
    return out


def longest_common_prefix(a: BitString, b: BitString) -> BitString:
    """The longest common prefix of two bitstrings."""
    limit = min(a.length, b.length)
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.prefix(mid) == b.prefix(mid):
            lo = mid
        else:
            hi = mid - 1
    return a.prefix(lo)
