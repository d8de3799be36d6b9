"""``FindPrefix`` (Section 3) and ``FindPrefixBlocks`` (Section 4).

The heart of the paper's CA protocol: a byzantine variant of the longest
common prefix problem.  Honest parties binary-search for the longest
prefix ``PREFIX*`` on which ``PI_lBA+`` still reaches (non-bottom)
agreement:

* a non-bottom answer extends ``PREFIX*`` -- Intrusion Tolerance
  guarantees the agreed segment is some honest (hence valid) value's
  segment, and parties whose value disagrees snap to
  ``MIN_l(PREFIX*)`` / ``MAX_l(PREFIX*)``, which Remark 2 shows stays in
  the honest inputs' range;
* a bottom answer moves the search left -- Bounded Pre-Agreement then
  guarantees that for *any* candidate extension, at least ``t + 1``
  honest parties hold witnesses ``v_bot`` avoiding it, which is exactly
  what ``GetOutput`` later needs.

Both paper variants are the same algorithm at different granularities:
``FindPrefix`` searches over single bits (``unit_bits = 1``, O(log l)
iterations) and ``FindPrefixBlocks`` over ``n^2`` blocks of ``l / n^2``
bits (``unit_bits = l / n^2``, O(log n) iterations); we implement the
loop once, parameterised by ``unit_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..ba.ext_ba_plus import ext_ba_plus
from ..ba.phase_king import phase_king
from ..errors import ProtocolViolation
from ..sim.party import Context, Proto
from .bitstrings import BitString, bits_fixed

__all__ = ["PrefixResult", "find_prefix", "find_prefix_blocks"]


@dataclass(frozen=True, slots=True)
class PrefixResult:
    """Return value of ``FindPrefix``: ``(PREFIX*, v, v_bot)``.

    Lemma 1 / Lemma 4 invariants (established by honest execution):

    * all honest parties hold the same ``prefix``;
    * ``v`` is a valid l-bit value whose representation has ``prefix``
      as a prefix;
    * ``v_bot`` is a valid l-bit value such that for any one-unit
      extension of ``prefix``, at least ``t + 1`` honest parties' values
      ``v_bot`` avoid that extension.
    """

    prefix: BitString
    v: int
    v_bot: int


def find_prefix(
    ctx: Context,
    v_in: int,
    ell: int,
    unit_bits: int = 1,
    channel: str = "fp",
    ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[PrefixResult]:
    """Binary-search the agreed prefix of the honest inputs.

    Args:
        ctx: party context.
        v_in: this party's valid ``ell``-bit input value.
        ell: the publicly known input length in bits.
        unit_bits: search granularity -- 1 for ``FindPrefix``,
            ``ell / n^2`` for ``FindPrefixBlocks``.
        channel: accounting label prefix.
        ba: the assumed ``PI_BA`` used inside ``PI_lBA+``.
    """
    ctx.require_resilience(3)
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell}")
    if ell % unit_bits:
        raise ValueError(
            f"unit_bits={unit_bits} must divide ell={ell}"
        )
    if v_in < 0 or v_in.bit_length() > ell:
        raise ValueError(f"input {v_in} is not a valid {ell}-bit value")

    num_units = ell // unit_bits
    left, right = 1, num_units + 1
    v = v_in
    v_bot = v_in
    prefix_len = 0  # Lemma 1(i): PREFIX* is BITS_l(v)'s first prefix_len bits
    iteration = 0

    while left != right:
        mid = (left + right) // 2
        bits = bits_fixed(v, ell)
        segment = bits[prefix_len: mid * unit_bits]
        payload = segment.to_wire_bytes()

        agreed_bytes = yield from ext_ba_plus(
            ctx,
            payload,
            channel=f"{channel}/i{iteration}",
            ba=ba,
        )

        if agreed_bytes is None:
            # Bottom: fewer than n - 2t honest parties share this
            # segment; v becomes the avoidance witness v_bot.
            v_bot = v
            right = mid
        else:
            # Intrusion Tolerance: the agreed segment is an honest
            # party's segment, hence well-formed and of the right size.
            # The wire format is canonical, so the party's own bytes are
            # its own segment and leave v as it is; any other reply is
            # parsed and checked.
            if agreed_bytes != payload:
                try:
                    agreed = BitString.from_wire_bytes(agreed_bytes)
                except ValueError as exc:
                    raise ProtocolViolation(
                        "PI_lBA+ returned an unparsable segment despite "
                        "Intrusion Tolerance"
                    ) from exc
                if agreed.length != segment.length:
                    raise ProtocolViolation(
                        f"PI_lBA+ returned {agreed.length} bits, expected "
                        f"{segment.length}"
                    )
                # Remark 2: parties on the wrong side of PREFIX* snap to
                # the nearest value with the agreed prefix, staying in
                # the hull.  Both segments continue the one PREFIX* at
                # equal length, so they compare as v's head and the new
                # prefix do.
                new_prefix = bits.prefix(prefix_len).concat(agreed)
                if segment.value < agreed.value:
                    v = new_prefix.min_fill(ell)
                elif segment.value > agreed.value:
                    v = new_prefix.max_fill(ell)
            prefix_len = mid * unit_bits
            left = mid + 1
        iteration += 1

    prefix = bits_fixed(v, ell).prefix(prefix_len)
    return PrefixResult(prefix=prefix, v=v, v_bot=v_bot)


def find_prefix_blocks(
    ctx: Context,
    v_in: int,
    ell: int,
    num_blocks: int | None = None,
    channel: str = "fpb",
    ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[PrefixResult]:
    """``FindPrefixBlocks``: block-granularity search (Section 4).

    The paper splits the value into ``n^2`` blocks of ``ell / n^2`` bits;
    ``num_blocks`` defaults accordingly and must divide ``ell``.
    """
    if num_blocks is None:
        num_blocks = ctx.n * ctx.n
    if ell % num_blocks:
        raise ValueError(
            f"ell={ell} must be a multiple of num_blocks={num_blocks}"
        )
    return (
        yield from find_prefix(
            ctx,
            v_in,
            ell,
            unit_bits=ell // num_blocks,
            channel=channel,
            ba=ba,
        )
    )
