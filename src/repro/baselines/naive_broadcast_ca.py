"""The fully naive strawman: CA via raw-value broadcasts, ``O(l n^3)``.

Before extension protocols, multivalued agreement shipped whole values
all-to-all.  This baseline broadcasts each input with the Turpin-Coan
reduction [49] (one round of raw inputs + one round of raw candidates +
a binary BA), costing ``O(l n^2)`` *per broadcast instance* and hence
``O(l n^3)`` in total -- the cost profile the paper attributes to the
pre-extension era ("the authors ... give a reduction from long-messages
BA to short-messages BA with a communication cost of O(l n^2) bits").

Turpin-Coan as a broadcast: the sender first sends its value to all,
then the parties run Turpin-Coan multivalued BA on what they received.
An honest sender delivers its value to every honest party, so BA
Validity broadcasts it; a byzantine sender yields a common (possibly
bottom) value by BA Agreement.
"""

from __future__ import annotations

from typing import Any, Callable

from ..ba.domains import Domain
from ..ba.phase_king import phase_king
from ..ba.turpin_coan import turpin_coan
from ..sim.party import Context, Proto, broadcast_round, exchange
from .common import decode_int, encode_int, trimmed_median

__all__ = ["naive_broadcast_ca"]


def _payload_domain() -> Domain:
    return Domain(
        name="int-payload",
        contains=lambda v: isinstance(v, bytes) and len(v) >= 2,
        default=encode_int(0),
    )


def naive_broadcast_ca(
    ctx: Context,
    v_in: int,
    channel: str = "nbcca",
    binary_ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[int]:
    """CA on integers via ``n`` raw-value Turpin-Coan broadcasts.

    Guarantees for ``t < n/3``: Termination, Agreement, Convex Validity.
    Communication ``O(l n^3)`` bits -- the strawman the efficient
    protocols are measured against.
    """
    ctx.require_resilience(3)
    if not isinstance(v_in, int) or isinstance(v_in, bool):
        raise ValueError(f"baseline input must be an integer, got {v_in!r}")
    payload = encode_int(v_in)
    domain = _payload_domain()

    view: list[int | None] = []
    for sender in range(ctx.n):
        # The sender ships its raw value; everyone else stays silent.
        if ctx.party_id == sender:
            inbox = yield broadcast_round(
                ctx, f"{channel}/send{sender}", payload
            )
        else:
            inbox = yield exchange(f"{channel}/send{sender}", {})
        received = inbox.get(sender)
        if not domain.validate(received):
            received = domain.default

        delivered = yield from turpin_coan(
            ctx,
            received,
            domain,
            channel=f"{channel}/tc{sender}",
            binary_ba=binary_ba,
        )
        view.append(decode_int(delivered) if delivered is not None else None)

    return trimmed_median(view, ctx.t)
