"""Byzantine Broadcast via a communication-efficient extension protocol.

The paper's introduction describes the classic route to CA: every party
broadcasts its input with Byzantine Broadcast (BC) and the parties apply a
deterministic rule to the common view, at a sub-optimal cost of at least
``O(l n^2)`` bits.  To reproduce that baseline faithfully we need a BC
whose per-instance cost is ``O(l n + poly(n, kappa))`` -- i.e. a broadcast
*extension* protocol in the style of [24, 41] -- so the n-instance total
lands at the ``O(l n^2)`` the paper quotes (a naive BC that echoes full
values would cost ``O(l n^3)`` instead; see
``repro.baselines.naive_broadcast_ca``).

Protocol, for sender ``P_s`` with input ``v``:

1. **Disperse** -- ``P_s`` RS-encodes ``v``, builds the Merkle tree, and
   sends each ``P_j`` the tuple ``(root, j, s_j, w_j)``.
2. **Agree on the root** -- all parties run ``PI_BA`` (kappa-bit domain
   extended with bottom) on the root they received; ``z* = bottom``
   yields output bottom.
3. **Forward** -- every party forwards its verified own-index tuple;
   parties attempt ``decode_with_check`` (decode + re-encode + root
   comparison, which forces the committed vector to be a codeword).
4. **Confirm** -- one bit-BA on "my decode succeeded".  If it returns 0,
   everyone outputs bottom.  (Bit-BA validity: output 1 implies at least
   one honest party decoded successfully.)
5. **Complete** -- every successful decoder now holds *all* codewords
   (it re-encoded the value), so it re-disperses like an honest sender;
   parties forward verified tuples once more and decode.  Any honest
   success in step 3 guarantees every honest party succeeds here, and the
   re-encode check makes the decoded value unique, so totality and
   agreement hold.

Per instance: ``O(l n + kappa n^2 log n)`` bits plus one kappa-bit and
one 1-bit ``PI_BA``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.party import Context, Proto, broadcast_round, exchange, parse_once
from .distribution import (
    decode_with_check,
    encode_and_accumulate,
    valid_share_tuple,
    verified_shares,
)
from .domains import BIT_DOMAIN, optional_digest_domain
from .phase_king import phase_king

__all__ = ["byzantine_broadcast"]


def _forward_own_tuple(
    ctx: Context,
    z_star: bytes,
    my_tuple: tuple | None,
    channel: str,
) -> Proto[dict[int, bytes]]:
    """One round: broadcast own verified tuple; return verified tuples."""
    if my_tuple is not None:
        inbox = yield broadcast_round(ctx, channel, my_tuple)
    else:
        inbox = yield exchange(channel, {})
    collected = dict(parse_once(inbox, verified_shares, z_star, ctx))
    if my_tuple is not None:
        collected.setdefault(ctx.party_id, my_tuple[1])
    return collected


def byzantine_broadcast(
    ctx: Context,
    sender: int,
    v_in: bytes | None,
    channel: str = "bb",
    ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[bytes | None]:
    """Broadcast ``v_in`` (meaningful only at ``sender``) to all parties.

    Returns the broadcast payload, identical at all honest parties, or
    ``None`` (bottom) when the sender is faulty.  If the sender is honest
    every honest party returns the sender's input.
    """
    ctx.require_resilience(3)
    root_domain = optional_digest_domain(ctx.kappa)

    # Step 1: the sender disperses (root, j, s_j, w_j) tuples.
    if ctx.party_id == sender:
        if not isinstance(v_in, bytes):
            raise TypeError("broadcast sender input must be bytes")
        _, shares, root, witnesses = encode_and_accumulate(ctx, v_in)
        outgoing = {
            j: (root, j, shares[j], witnesses[j]) for j in ctx.all_parties
        }
        inbox = yield exchange(f"{channel}/disperse", outgoing)
    else:
        inbox = yield exchange(f"{channel}/disperse", {})

    received_root: bytes | None = None
    my_tuple: tuple | None = None
    message = inbox.get(sender)
    if (
        isinstance(message, tuple)
        and len(message) == 4
        and root_domain.validate(message[0])
        and message[0] is not None
    ):
        candidate_root = message[0]
        share_tuple = message[1:]
        if valid_share_tuple(ctx, candidate_root, ctx.party_id, share_tuple):
            received_root = candidate_root
            my_tuple = share_tuple

    # Step 2: agree on the root.
    z_star = yield from ba(
        ctx, received_root, root_domain, channel=f"{channel}/root"
    )
    if z_star is None:
        return None
    if received_root != z_star:
        my_tuple = None

    # Step 3: forward verified tuples, first decode attempt.
    collected = yield from _forward_own_tuple(
        ctx, z_star, my_tuple, f"{channel}/forward1"
    )
    value = decode_with_check(ctx, z_star, collected)

    # Step 4: confirm at least one honest decode.
    confirmed = yield from ba(
        ctx,
        1 if value is not None else 0,
        BIT_DOMAIN,
        channel=f"{channel}/confirm",
    )
    if confirmed != 1:
        return None

    # Step 5: successful decoders re-disperse; everyone decodes.
    if value is not None:
        _, shares, _, witnesses = encode_and_accumulate(ctx, value)
        outgoing = {
            j: (j, shares[j], witnesses[j]) for j in ctx.all_parties
        }
        inbox = yield exchange(f"{channel}/redisperse", outgoing)
    else:
        inbox = yield exchange(f"{channel}/redisperse", {})
    if my_tuple is None:
        for message in inbox.values():
            if valid_share_tuple(ctx, z_star, ctx.party_id, message):
                my_tuple = message
                break

    collected = yield from _forward_own_tuple(
        ctx, z_star, my_tuple, f"{channel}/forward2"
    )
    return decode_with_check(ctx, z_star, collected)
