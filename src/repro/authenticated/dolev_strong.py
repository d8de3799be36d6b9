"""Dolev-Strong broadcast: synchronous BB with signatures, ``t < n``.

The paper's conclusions raise the "synchronous model with t < n/2
corruptions assuming cryptographic setup" as an open direction.  The
classic tool in that setting is the Dolev-Strong protocol: with an
idealized signature scheme (see :mod:`repro.crypto.signatures`) it
achieves Byzantine Broadcast for *any* number of corruptions in
``t + 1`` rounds.

Round ``1``: the sender signs its value and sends ``(v, chain)`` with a
1-signature chain to everyone.  Round ``r``: a party *accepts* a value
carried by a valid chain of at least ``r`` distinct signatures starting
with the sender's, and forwards every newly accepted value with its own
signature appended.  A party tracks at most two accepted values (two
distinct accepted values already prove the sender byzantine).  After
round ``t + 1``: output the unique accepted value, or bottom.

Why agreement holds: if an honest party accepts ``v`` in round
``r <= t`` it re-broadcasts a longer chain, so every honest party
accepts ``v`` by round ``r + 1``; if it first accepts in round
``t + 1``, the chain carries ``t + 1`` distinct signers, one of whom is
honest and already forwarded ``v`` earlier.  Signed payloads are framed
with the (per-instance) channel tag, so chains cannot be replayed
across broadcast instances.
"""

from __future__ import annotations

from typing import Any

from ..crypto.signatures import SignatureScheme
from ..sim.party import Context, Proto, exchange

__all__ = ["dolev_strong_broadcast", "signed_payload"]


def signed_payload(channel: str, value: bytes) -> bytes:
    """The byte string every chain signature covers (instance-framed)."""
    tag = channel.encode()
    return len(tag).to_bytes(2, "big") + tag + value


def _valid_chain(
    ctx: Context,
    scheme: SignatureScheme,
    sender: int,
    channel: str,
    message: Any,
    min_length: int,
) -> tuple[bytes, tuple[tuple[int, bytes], ...]] | None:
    """Validate one ``(value, chain)`` message; None if malformed."""
    if not (isinstance(message, tuple) and len(message) == 2):
        return None
    value, chain = message
    if not isinstance(value, bytes) or not isinstance(chain, tuple):
        return None
    if len(chain) < min_length or len(chain) > ctx.n:
        return None
    signers = []
    payload = signed_payload(channel, value)
    for link in chain:
        if not (isinstance(link, tuple) and len(link) == 2):
            return None
        signer, signature = link
        if not scheme.verify(signer, payload, signature):
            return None
        signers.append(signer)
    if len(set(signers)) != len(signers) or signers[0] != sender:
        return None
    return value, chain


def dolev_strong_broadcast(
    ctx: Context,
    sender: int,
    v_in: bytes | None,
    scheme: SignatureScheme,
    channel: str = "ds",
) -> Proto[bytes | None]:
    """Broadcast ``v_in`` from ``sender``; tolerates any ``t < n``.

    Returns the common output: the sender's value if the sender is
    honest, otherwise some common value or ``None`` (bottom).
    Runs exactly ``t + 1`` communication rounds.
    """
    accepted: dict[bytes, tuple] = {}
    to_forward: list[tuple] = []

    # Round 1: the sender signs and disperses.
    if ctx.party_id == sender:
        if not isinstance(v_in, bytes):
            raise TypeError("Dolev-Strong sender input must be bytes")
        signature = scheme.sign(sender, signed_payload(channel, v_in))
        message = (v_in, ((sender, signature),))
        outgoing = {dest: [message] for dest in ctx.all_parties}
    else:
        outgoing = {}
    inbox = yield exchange(f"{channel}/r1", outgoing)
    _ingest(ctx, scheme, sender, channel, inbox, 1, accepted, to_forward)

    # Rounds 2 .. t+1: forward newly accepted values.
    for round_index in range(2, ctx.t + 2):
        outgoing = (
            {dest: list(to_forward) for dest in ctx.all_parties}
            if to_forward
            else {}
        )
        to_forward = []
        inbox = yield exchange(f"{channel}/r{round_index}", outgoing)
        _ingest(
            ctx, scheme, sender, channel, inbox, round_index, accepted,
            to_forward,
        )

    if len(accepted) == 1:
        return next(iter(accepted))
    return None


def _ingest(
    ctx: Context,
    scheme: SignatureScheme,
    sender: int,
    channel: str,
    inbox: dict[int, Any],
    round_index: int,
    accepted: dict[bytes, tuple],
    to_forward: list[tuple],
) -> None:
    """Process one round's inbox: accept and queue forwards."""
    for messages in inbox.values():
        if not isinstance(messages, list):
            continue
        for message in messages[:4]:  # honest parties send at most 2
            if len(accepted) >= 2:
                return
            checked = _valid_chain(
                ctx, scheme, sender, channel, message, round_index
            )
            if checked is None:
                continue
            value, chain = checked
            if value in accepted:
                continue
            accepted[value] = chain
            if ctx.party_id not in {signer for signer, _ in chain}:
                signature = scheme.sign(
                    ctx.party_id, signed_payload(channel, value)
                )
                to_forward.append(
                    (value, chain + ((ctx.party_id, signature),))
                )
