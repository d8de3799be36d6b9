"""``GetOutput`` (Section 3): decide between ``MIN_l`` and ``MAX_l``.

Preconditions (established by ``FindPrefix`` + ``AddLastBit``/``Block``,
Lemma 3): all honest parties hold the same ``PREFIX*`` that is a prefix
of some valid value, and at least ``t + 1`` honest parties hold valid
values ``v_bot`` whose representations avoid ``PREFIX*``.  Each such
witness value is either below every value with the prefix (so
``MIN_l(PREFIX*)`` is valid) or above all of them (so ``MAX_l(PREFIX*)``
is valid).

One announcement round (a single bit from the witnesses), a majority
pick, and a binary BA produce a common, valid output:

* at least ``t + 1`` bits arrive, so ``m >= t + 1``;
* a bit received from ``ceil(m/2)`` of ``m >= 2t + 1`` received bits was
  sent by at least one honest party (at most ``t`` are byzantine), and
  when ``m <= 2t`` every received bit count below ``ceil(m/2)`` forces
  the majority bit to include an honest sender too (paper Lemma 3);
* binary BA Validity then lands on a bit proposed by an honest party.
"""

from __future__ import annotations

from typing import Any, Callable

from ..ba.domains import BIT_DOMAIN
from ..ba.phase_king import phase_king
from ..sim.party import Context, Proto, broadcast_round, exchange
from .bitstrings import BitString, bits_fixed

__all__ = ["get_output"]


def get_output(
    ctx: Context,
    prefix: BitString,
    v_bot: int,
    ell: int,
    channel: str = "go",
    ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[int]:
    """Return the common valid output ``MIN_l`` or ``MAX_l`` of the prefix."""
    if not 1 <= prefix.length <= ell:
        raise ValueError(
            f"prefix length {prefix.length} out of range for ell={ell}"
        )
    # Lines 1-3: witnesses announce which side of the prefix they sit on.
    # A value that does not extend the prefix lies below MIN_l(prefix)
    # exactly when its own first |prefix| bits read lower than the prefix.
    head = bits_fixed(v_bot, ell).prefix(prefix.length)
    if head != prefix:
        my_bit = 0 if head.value < prefix.value else 1
        inbox = yield from broadcast_round(ctx, f"{channel}/announce", my_bit)
    else:
        inbox = yield from exchange(f"{channel}/announce", {})

    # Line 4: CHOICE := a bit received from ceil(m / 2) parties.
    received = [
        b for b in inbox.values() if isinstance(b, int) and b in (0, 1)
    ]
    m = len(received)
    ones = sum(received)
    zeros = m - ones
    threshold = (m + 1) // 2
    if zeros >= threshold:
        choice = 0
    elif ones >= threshold:
        choice = 1
    else:
        # m = 0 is impossible under the preconditions (t + 1 witnesses);
        # stay deterministic regardless.
        choice = 0

    # Line 5: agree on the choice.
    agreed = yield from ba(ctx, choice, BIT_DOMAIN, channel=f"{channel}/ba")
    return prefix.min_fill(ell) if agreed == 0 else prefix.max_fill(ell)
