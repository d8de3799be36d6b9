"""The wire schema: one table of payload types, and what reads it.

The paper measures ``BITS_l(PI)``, the bits sent by honest parties, so
*what a payload is and what it costs* is the one definition every
number here rests on.  It is written once, as :data:`WIRE_SCHEMA`: one
:class:`Row` per wire type giving its tag, its price (own bits for an
atom, none for a container), its children, its JSON form and its
inverse.  Nothing else knows a payload type; four functions read it:
:func:`bit_size` (the honest pricer; recursive, raises),
:func:`measure_payload` (the byzantine guard's walk under
:mod:`repro.sim.wire`'s limits; iterative, bounded, never raises),
:func:`encode_payload` / :func:`decode_payload` (repro artifacts) and
:func:`canonical_text` (the WAL digest; :func:`brief_text` falls
back on it where a verdict has to print a value ``repr`` refuses).

The table is **closed**: a type is on the wire iff it has a row with a
price, looked up by exact type, and no object prices itself by duck
typing.  ``BitString`` and ``MerkleWitness`` :func:`register` their
rows beside their classes; ``float`` and ``set`` are rows the codec and
the digest carry (byzantine scripts hold them) and both pricers refuse.
``docs/model.md`` "Communication accounting" lists the prices and their
conventions (a flat 8-bit opcode; ``None`` at 1 bit; self-addressed
messages free: a process does not use the network to talk to itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterable

__all__ = [
    "CODEC_MAX_DEPTH",
    "DEFAULT_MAX_DEPTH",
    "OPCODE_MAX_CHARS",
    "Row",
    "WIRE_SCHEMA",
    "bit_size",
    "canonical_text",
    "decode_payload",
    "encode_payload",
    "measure_payload",
    "register",
]

#: A ``str`` is an opcode, one byte whatever it spells (the longest an
#: honest party sends is ``"PROPOSE"``); past this length it has no price.
OPCODE_MAX_CHARS = 16

# Honest payloads in the registry nest at most ~6 levels (tagged tuples
# holding witness objects holding tuples of hashes); 32 leaves a wide
# margin while still rejecting pathological nesting long before any
# recursive consumer (codec, garbler, repr) could blow the stack.
DEFAULT_MAX_DEPTH = 32

#: Nesting the recursive codec accepts: two frames a level, well inside
#: the interpreter's default 1000-frame stack.
CODEC_MAX_DEPTH = 256


@dataclass(frozen=True, slots=True)
class Row:
    """One wire type.

    An *atom* has ``dump`` (its JSON scalar) and no ``children``; a
    *container* has ``children`` (its parts, in wire order unless
    ``unordered``); ``load`` inverts either.  ``price`` is the row's own
    bits: ``None`` for a container priced as the sum of its children,
    raising ``TypeError`` for a value the wire does not carry.
    """

    tag: str
    load: Callable[[Any], Any]
    price: Callable[[Any], int] | None = None
    children: Callable[[Any], Iterable[Any]] | None = None
    dump: Callable[[Any], Any] | None = None
    unordered: bool = False


def _opcode_bits(value: str) -> int:
    if len(value) > OPCODE_MAX_CHARS:
        raise TypeError(f"a str past {OPCODE_MAX_CHARS} characters is no opcode")
    return 8


def _unpriced(value: Any) -> int:
    raise TypeError(f"cannot size payload of type {type(value).__name__}")


#: exact type -> :class:`Row`.  Ints travel in hex (CPython refuses
#: decimal conversion past 4300 digits); ``repr`` round-trips every float.
WIRE_SCHEMA: dict[type, Row] = {
    type(None): Row("none", lambda form: None, lambda v: 1, dump=lambda v: None),
    bool: Row("bool", bool, lambda v: 1, dump=bool),
    int: Row(
        "int", lambda form: int(form, 16),
        lambda v: (v.bit_length() or 1) + (v < 0), dump=hex,
    ),
    bytes: Row("bytes", bytes.fromhex, lambda v: 8 * len(v), dump=bytes.hex),
    bytearray: Row(
        "bytearray", bytearray.fromhex, lambda v: 8 * len(v), dump=bytearray.hex
    ),
    str: Row("str", str, _opcode_bits, dump=str),
    float: Row("float", float, _unpriced, dump=repr),
    tuple: Row("tuple", tuple, children=iter),
    list: Row("list", list, children=iter),
    frozenset: Row("fset", frozenset, children=iter, unordered=True),
    set: Row("set", set, _unpriced, children=iter, unordered=True),
    dict: Row(
        "dict", lambda parts: dict(zip(parts[::2], parts[1::2])),
        children=lambda v: chain.from_iterable(v.items()),
    ),
    Fraction: Row(
        "frac", lambda parts: Fraction(*parts), children=Fraction.as_integer_ratio
    ),
}
_BY_TAG: dict[str, Row] = {row.tag: row for row in WIRE_SCHEMA.values()}


def register(kind: type, row: Row) -> None:
    """Add ``kind`` to the wire (called once, beside the class)."""
    if kind in WIRE_SCHEMA or row.tag in _BY_TAG:
        raise ValueError(f"wire type {kind.__name__} / tag {row.tag!r} is taken")
    WIRE_SCHEMA[kind] = _BY_TAG[row.tag] = row


def bit_size(payload: Any) -> int:
    """Return the number of bits a compact encoding of ``payload`` uses.

    Raises ``TypeError`` on anything the wire does not carry.
    """
    kind = type(payload)
    # The one inline fast path (the int row's formula): ints dominate.
    if kind is int:
        if payload >= 0:
            return payload.bit_length() or 1
        return payload.bit_length() + 1
    row = WIRE_SCHEMA.get(kind)
    if row is None:
        return _unpriced(payload)
    if row.price is None:
        return sum(map(bit_size, row.children(payload)))
    return row.price(payload)


def measure_payload(
    payload: Any, *, max_bits: int, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[str | None, int]:
    """Price ``payload`` with bounded work; return ``(verdict, bits)``.

    ``verdict`` is ``None`` when the payload conforms, otherwise
    ``"type"`` (no row, or no price for this value), ``"depth"`` or
    ``"oversize"``.  ``bits`` is what was priced when the walk stopped:
    a lower bound under a verdict, :func:`bit_size` exactly without.

    Never recurses and never raises, so it is safe on hostile input: a
    depth-100000 nest costs ``max_depth`` steps, a 64 MiB blob O(1).
    """
    bits = 0
    stack: list[tuple[Any, int]] = [(payload, 0)]
    while stack:
        value, depth = stack.pop()
        if depth > max_depth:
            return "depth", bits
        kind = type(value)
        if kind is int:  # the one inline fast path, as in bit_size
            bits += (value.bit_length() or 1) + (value < 0)
        else:
            row = WIRE_SCHEMA.get(kind)
            if row is None:
                return "type", bits
            if row.price is None:
                for item in row.children(value):
                    stack.append((item, depth + 1))
                continue
            try:
                bits += row.price(value)
            except Exception:
                # Unpriced (float, set, an over-long str) or a row
                # type built around hostile fields: as unpriceable as
                # a type without a row.
                return "type", bits
        if bits > max_bits:
            return "oversize", bits
    return None, bits


def encode_payload(payload: Any, _depth: int = 0) -> dict:
    """Encode one payload as a JSON-safe ``{"t": tag, "v": form}``.

    Carries every row, priced or not; ``ValueError`` on a type without
    a row or nesting past :data:`CODEC_MAX_DEPTH`.
    """
    row = WIRE_SCHEMA.get(type(payload))
    if row is None:
        raise ValueError(f"cannot encode payload of type {type(payload)!r}")
    if row.children is None:
        return {"t": row.tag, "v": row.dump(payload)}
    if _depth >= CODEC_MAX_DEPTH:
        raise ValueError(f"payload nests deeper than {CODEC_MAX_DEPTH}")
    parts = [encode_payload(part, _depth + 1) for part in row.children(payload)]
    if row.unordered:
        parts.sort(key=repr)
    return {"t": row.tag, "v": parts}


def decode_payload(data: dict) -> Any:
    """Inverse of :func:`encode_payload`."""
    row = _BY_TAG.get(data["t"])
    if row is None:
        raise ValueError(f"unknown payload tag {data['t']!r}")
    if row.children is None:
        return row.load(data["v"])
    return row.load([decode_payload(part) for part in data["v"]])


def canonical_text(payload: Any) -> str:
    """Injective, decimal-free text of an honest ``payload``, for digests.

    A registered dataclass appears by the fields its row lists.
    Recursive, like :func:`bit_size`.
    """
    row = WIRE_SCHEMA.get(type(payload))
    if row is None:
        raise TypeError(f"no wire row for type {type(payload).__name__}")
    if row.children is None:
        return row.tag + repr(row.dump(payload))
    parts = [canonical_text(part) for part in row.children(payload)]
    if row.unordered:
        parts.sort()
    return f"{row.tag}({','.join(parts)})"


#: Characters of one value a verdict's message carries.
_BRIEF = 120


def brief_text(value: Any) -> str:
    """``value`` for a verdict's message, bounded (a dict: per entry).

    ``repr`` first, so short values read as they always did.  An int
    past CPython's decimal-digit limit makes ``repr`` raise
    ``ValueError`` -- a monitor that formats with it dies before it can
    deliver its verdict -- and then the decimal-free
    :func:`canonical_text` speaks (its ``TypeError`` for a value off
    the wire leaves the type name).
    """
    if type(value) is dict:
        entries = (
            f"{brief_text(key)}: {brief_text(entry)}"
            for key, entry in value.items()
        )
        return "{" + ", ".join(entries) + "}"
    try:
        text = repr(value)
    except ValueError:
        try:
            text = canonical_text(value)
        except TypeError:
            text = f"<{type(value).__name__}>"
    if len(text) > _BRIEF:
        # both ends: long values that disagree often share a head.
        half = _BRIEF // 2
        text = f"{text[:half]}...[{len(text) - 2 * half} more]...{text[-half:]}"
    return text
