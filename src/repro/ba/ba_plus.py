"""``PI_BA+``: short-message BA with Intrusion Tolerance and Bounded
Pre-Agreement (paper Section 7, Theorem 6).

This is the paper's main technical building block below the CA layer: a
BA protocol for kappa-bit values that additionally guarantees

* **Intrusion Tolerance** (Definition 3): honest parties output an honest
  party's input or bottom -- the adversary can never smuggle a value of
  its own choice into the output, and
* **Bounded Pre-Agreement** (Definition 4): if the output is bottom, then
  fewer than ``n - 2t`` honest parties held the same input value.

Implementation follows the pseudocode verbatim:

1. distribute inputs; find the (at most two) values received from
   ``n - 2t`` parties,
2. vote for them (``VOTE()``, ``VOTE(v1)``, or ``VOTE(v1, v2)``),
3. compute ``a <= b``, the (at most two) values with ``n - t`` votes,
4. agree on ``a`` via ``PI_BA``, confirm with a bit-BA; on success output,
5. otherwise repeat for ``b``; otherwise output bottom.

Communication: ``O(kappa n^2) + 2 BITS_kappa(PI_BA) + 2 BITS_1(PI_BA)``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.party import Context, Proto, broadcast_round
from .domains import (
    BIT_DOMAIN,
    digest_domain,
    optional_digest_domain,
)
from .phase_king import phase_king

__all__ = ["ba_plus"]

_VOTE = "VOTE"


def ba_plus(
    ctx: Context,
    v_in: bytes,
    channel: str = "ba+",
    ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[bytes | None]:
    """Run ``PI_BA+`` on a kappa-bit input; returns bytes or ``None``.

    Args:
        ctx: party context.
        v_in: this party's kappa-bit input value.
        channel: accounting label prefix.
        ba: the assumed ``PI_BA`` -- a generator function
            ``ba(ctx, value, domain, channel)``.
    """
    ctx.require_resilience(3)
    value_domain = digest_domain(ctx.kappa)
    agreement_domain = optional_digest_domain(ctx.kappa)
    if not value_domain.validate(v_in):
        raise ValueError(
            f"PI_BA+ input must be a {ctx.kappa}-bit value, got {v_in!r}"
        )

    # Line 1: send the input to all parties.  Validated values are raw
    # kappa-bit ``bytes``, whose canonical order IS the bytes order, so
    # the tie-breaking below keys on the values directly.
    inbox = yield from broadcast_round(ctx, f"{channel}/input", v_in)
    counts = value_domain.tally(inbox.values())

    # Line 2: vote for every value seen n - 2t times (at most two exist
    # when t < n/3; if byzantine equivocation somehow produced more we
    # keep the two most frequent, deterministically).
    seen = sorted(
        (item for item in counts if item[1] >= ctx.pre_agreement),
        key=lambda item: (-item[1], item[0]),
    )[:2]
    vote_values = sorted(value for value, _ in seen)
    inbox = yield from broadcast_round(
        ctx, f"{channel}/vote", (_VOTE, *vote_values)
    )

    # Line 3: find the (at most two) values with n - t votes.
    vote_counts: dict[bytes, int] = {}
    for received in inbox.values():
        if not (
            isinstance(received, tuple)
            and 1 <= len(received) <= 3
            and received[0] == _VOTE
        ):
            continue
        voted = [v for v in received[1:] if value_domain.validate(v)]
        # A well-formed vote names at most two *distinct* values.
        distinct: list[bytes] = []
        for v in voted:
            if v not in distinct:
                distinct.append(v)
        for v in distinct[:2]:
            vote_counts[v] = vote_counts.get(v, 0) + 1

    popular = sorted(
        (
            item
            for item in vote_counts.items()
            if item[1] >= ctx.quorum
        ),
        key=lambda item: (-item[1], item[0]),
    )[:2]
    popular_values = sorted(value for value, _ in popular)
    if len(popular_values) == 2:
        a, b = popular_values
    elif len(popular_values) == 1:
        a = b = popular_values[0]
    else:
        a = b = None

    # Lines 4-5: try to agree on a, then on b.
    for name, candidate in (("a", a), ("b", b)):
        agreed = yield from ba(
            ctx, candidate, agreement_domain, channel=f"{channel}/ba_{name}"
        )
        happy = 1 if (agreed == candidate and candidate is not None) else 0
        confirmed = yield from ba(
            ctx, happy, BIT_DOMAIN, channel=f"{channel}/ok_{name}"
        )
        if confirmed == 1 and agreed is not None:
            return agreed
    return None
