"""The distributing step: value dispersal via RS codes + Merkle witnesses.

This is the engine of every extension protocol in the paper (Section 7,
``PI_lBA+`` lines 3-7, following the outline of [8, 41]): once the
parties agree on an accumulator root ``z*``, the (at least one) honest
party whose value matches ``z*`` sends each party ``P_j`` its codeword
``s_j`` plus witness ``w_j``; every party forwards its verified codeword
to everyone, discards anything the Merkle witness rejects, and decodes.

Total cost: ``O(l n + kappa n^2 log n)`` bits in two rounds -- the only
place the full l-bit value ever crosses the wire, and it does so O(1)
times per party.

Beyond the paper's pseudocode we add a *re-encode check* after decoding:
re-encode the decoded value, rebuild the Merkle root, and compare with
``z*``.  Inside ``PI_lBA+`` this is redundant (Intrusion Tolerance of
``PI_BA+`` guarantees ``z*`` commits an honest codeword vector), but the
same distribution step is reused by the baseline broadcast extension
where a byzantine *sender* may commit to a non-codeword vector; the check
makes the outcome deterministic and identical at all honest parties
(everyone decodes the same value, or everyone rejects).
"""

from __future__ import annotations

from typing import Sequence

from ..crypto import merkle
from ..sim.party import Context, Proto, broadcast_round, exchange, parse_once

__all__ = [
    "distribute",
    "encode_and_accumulate",
    "valid_share_tuple",
    "verified_shares",
    "decode_with_check",
    "dispersal_bits_estimate",
]

from ..coding.reed_solomon import ReedSolomonCode, rs_code
from ..errors import CodingError
from ..perf import counters


def _memo(ctx: Context, key: tuple, compute, counter: str | None = None):
    """``compute()``, remembered under ``key`` for this execution.

    The result lives in ``ctx.cache`` -- one dict per execution, shared
    by its ``n`` parties (they run in one process and recompute the
    same pure functions of the same wire bytes), never by two
    executions or two workers.  ``None`` means "nothing to remember"
    and is never stored.  ``counter`` names the ``<counter>_hit`` /
    ``<counter>_miss`` pair of the one memo that has one.

    Callers build ``key`` only from values of exact builtin type
    (``bytes``, ``int``, ``tuple`` of those): hashing and comparing such
    a key runs no foreign code, so nothing a byzantine party sends is
    ever hashed on its own terms, and whatever fails that test takes the
    uncached path.
    """
    entry = ctx.cache.get(key)
    if counter is not None:
        counters.bump(counter + ("_miss" if entry is None else "_hit"))
    if entry is None:
        entry = compute()
        if entry is not None:
            ctx.cache[key] = entry
    return entry


def _encode_and_build(
    ctx: Context, payload: bytes
) -> tuple[tuple[bytes, ...], bytes, merkle.Witnesses]:
    """Memoized ``RS.ENCODE`` + ``MT.BUILD`` of ``payload``.

    The encoding is a pure function of ``(n, k, kappa, payload)``, and the
    CA stack recomputes it constantly: every party holding the agreed
    value encodes it, ``FindPrefix`` re-encodes the same prefix across
    binary-search steps, and :func:`decode_with_check` re-encodes every
    decoded value.  An entry maps a payload to *its own* encoding only,
    so garbled byzantine inputs can never poison the entry for a
    different payload.
    """

    def compute():
        shares = rs_code(ctx.n, ctx.quorum).encode(payload)
        root, witnesses = merkle.build(ctx.kappa, shares)
        return tuple(shares), root, witnesses

    key = ("rs+mt", ctx.n, ctx.quorum, ctx.kappa, payload)
    return _memo(ctx, key, compute, counter="encode_cache")


def encode_and_accumulate(
    ctx: Context, payload: bytes
) -> tuple[
    ReedSolomonCode,
    tuple[bytes, ...],
    bytes,
    merkle.Witnesses,
]:
    """``RS.ENCODE`` + ``MT.BUILD`` for this party's input payload."""
    code = rs_code(ctx.n, ctx.quorum)
    shares, root, witnesses = _encode_and_build(ctx, payload)
    return code, shares, root, witnesses


def _plain_share_tuple(z_star, index, share, witness) -> bool:
    """Whether every part is of exact builtin type (see :func:`_memo`)."""
    return (
        type(witness) is merkle.MerkleWitness
        and type(z_star) is bytes
        and type(index) is int
        and type(share) is bytes
        and type(witness.siblings) is tuple
        and all(type(s) is bytes for s in witness.siblings)
    )


def valid_share_tuple(
    ctx: Context, z_star: bytes, index: int, message
) -> bool:
    """Structural + Merkle validation of a ``(i, s_i, w_i)`` tuple.

    All ``n`` parties check the same ``n`` forwarded tuples, so an
    accepted ``(z*, i, s_i, w_i)`` is remembered and its hash chain runs
    once per execution.  Successes only: a rejected tuple is re-checked
    wherever it shows up, so junk never occupies the memo (at most ``n``
    entries per agreed root).
    """
    if not (isinstance(message, tuple) and len(message) == 3):
        return False
    i, share, witness = message
    if i != index or not isinstance(share, bytes) or not share:
        return False
    kappa = ctx.kappa

    def verified():
        # None for a rejected tuple, which _memo does not remember.
        return merkle.verify(kappa, z_star, i, share, witness) or None

    if not (
        merkle.well_formed(kappa, z_star, i, share, witness)
        and _plain_share_tuple(z_star, i, share, witness)
    ):
        return verified() is True
    key = ("mt.verify", kappa, z_star, i, share, witness.siblings)
    return _memo(ctx, key, verified) is True


def decode_with_check(
    ctx: Context, z_star: bytes, collected: dict[int, bytes]
) -> bytes | None:
    """Decode verified shares; reject unless re-encoding matches ``z*``.

    Returns the committed value iff ``z*`` commits a valid codeword
    vector and at least ``k`` of its codewords were collected; otherwise
    ``None``.  Deterministic in ``(z*, collected)``, so the verdict --
    decode, re-encode and root comparison together -- is computed once
    per execution for each distinct share set.
    """
    code = rs_code(ctx.n, ctx.quorum)
    if len(collected) < code.k:
        return None

    def compute():
        try:
            value = code.decode(collected)
        except CodingError:
            return (None,)
        _, root, _ = _encode_and_build(ctx, value)
        return (value if root == z_star else None,)

    if not (
        type(z_star) is bytes
        and all(
            type(i) is int and type(share) is bytes
            for i, share in collected.items()
        )
    ):
        return compute()[0]
    key = (
        "rs.decode", ctx.n, code.k, ctx.kappa, z_star,
        tuple(sorted(collected.items())),
    )
    return _memo(ctx, key, compute)[0]


def verified_shares(
    inbox: dict[int, object], z_star: bytes, ctx: Context
) -> tuple[tuple[int, bytes], ...]:
    """Every verified ``(i, s_i)`` of an inbox, the first one per index.

    Lines 6-7 of the distributing step (and the forward rounds of
    :func:`repro.ba.broadcast.byzantine_broadcast`).  A
    :func:`~repro.sim.party.parse_once` parse keyed by ``z*``: it reads
    ``ctx`` only for what every party of the execution shares (``n``,
    ``kappa``, ``cache``), never its ``party_id``.
    """
    collected: dict[int, bytes] = {}
    for message in inbox.values():
        if not (isinstance(message, tuple) and len(message) == 3):
            continue
        i = message[0]
        if not isinstance(i, int) or not 0 <= i < ctx.n:
            continue
        if valid_share_tuple(ctx, z_star, i, message):
            collected.setdefault(i, message[1])
    return tuple(collected.items())


def distribute(
    ctx: Context,
    z_star: bytes,
    holding: bool,
    shares: Sequence[bytes],
    witnesses: Sequence[merkle.MerkleWitness],
    channel: str = "dist",
) -> Proto[bytes | None]:
    """Run the two-round distributing step for the agreed root ``z*``.

    Args:
        ctx: party context.
        z_star: the agreed accumulator root.
        holding: whether this party's own value matches ``z*``
            (paper: "if z* = z").
        shares: this party's codewords (used only when ``holding``).
        witnesses: the matching witnesses (used only when ``holding``).
        channel: accounting label prefix.

    Returns:
        The reconstructed value, or ``None`` if reconstruction fails or
        the re-encode check rejects (both impossible when ``z*`` is an
        honest party's commitment).
    """
    # Round 1 (line 3): holders send (j, s_j, w_j) to each P_j.
    if holding:
        outgoing = {
            j: (j, shares[j], witnesses[j]) for j in ctx.all_parties
        }
    else:
        outgoing = {}
    inbox = yield exchange(f"{channel}/r1", outgoing)

    my_tuple = None
    for message in inbox.values():
        if valid_share_tuple(ctx, z_star, ctx.party_id, message):
            my_tuple = message
            break

    # Round 2 (lines 4-5): forward the verified own-index tuple to all.
    if my_tuple is not None:
        inbox = yield broadcast_round(ctx, f"{channel}/r2", my_tuple)
    else:
        inbox = yield exchange(f"{channel}/r2", {})

    # Lines 6-7: keep verified tuples, decode.
    collected = dict(parse_once(inbox, verified_shares, z_star, ctx))
    if my_tuple is not None:
        collected.setdefault(ctx.party_id, my_tuple[1])

    return decode_with_check(ctx, z_star, collected)


def dispersal_bits_estimate(n: int, t: int, kappa: int, ell: int) -> int:
    """Closed-form estimate of the distributing step's honest bits.

    Each party sends at most two (index, share, witness) tuples to each
    party: ``O(l n + kappa n^2 log n)``.  Tests bound the measured
    dispersal by it.
    """
    share_bits = 8 * rs_code(n, n - t).share_length((ell + 7) // 8)
    witness = merkle.witness_bits(kappa, n)
    index_bits = max(1, (n - 1).bit_length())
    per_tuple = share_bits + witness + index_bits
    return 2 * n * n * per_tuple
