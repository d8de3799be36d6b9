"""Deterministic multivalued Byzantine Agreement: the Phase-King protocol.

The paper assumes *some* BA protocol ``PI_BA`` resilient against
``t < n/3`` corruptions (Theorems 1-6 are stated relative to it, and
Corollary 2 instantiates it with a deterministic quadratic protocol).  We
instantiate ``PI_BA`` with the classic Phase-King protocol of Berman,
Garay and Perry [7], generalised to arbitrary value domains:

``t + 1`` phases, each with three rounds and one designated *king*
(phase ``p``'s king is party ``p``); at least one phase has an honest
king, which forces agreement, and agreement, once reached, persists.

Phase structure for a party with current estimate ``est``:

1. **Exchange** -- send ``est`` to all; let ``maj`` be the most frequent
   valid value received and ``cnt`` its multiplicity.
2. **Propose** -- send ``PROPOSE(maj)`` if ``cnt >= n - t`` (else an
   explicit no-proposal marker); let ``prop`` be the most frequent
   proposed value and ``pcnt`` its multiplicity.  A quorum-intersection
   argument shows all honest proposals name the same value.
3. **King** -- the king broadcasts its ``prop`` (or its ``est`` if it saw
   no proposals); every party sets ``est := prop`` if ``pcnt >= n - t``
   and otherwise adopts the king's (domain-validated) value.

Properties (for ``t < n/3``): Termination after exactly ``3(t+1)``
rounds; Agreement; Validity.  Moreover the output always lies in the
value domain, and -- important for the paper's Lemmas 2 and 3 -- for the
*binary* domain the output is always some honest party's input.

Communication: ``O(n^2)`` values per phase, i.e. ``BITS_k(PhaseKing) =
O(k * n^2 * t)`` for kappa-bit values.  The paper's theorems keep
``BITS_k(PI_BA)`` symbolic, so the benchmark harness reports this term
separately (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Any

from ..sim.party import Context, Proto, broadcast_round, exchange
from .domains import Domain, canonical_key

__all__ = ["phase_king", "phase_king_rounds"]

_PROPOSE = "PROPOSE"
_NO_PROPOSE = "NOPROP"


def _plurality(tallied: list[tuple[Any, int]]) -> tuple[Any, int]:
    """Most frequent tallied value, ties broken by canonical order."""
    if len(tallied) == 1:
        return tallied[0]
    return max(
        tallied,
        key=lambda pair: (pair[1], canonical_key(pair[0])),
        default=(None, 0),
    )


def phase_king(
    ctx: Context,
    v_in: Any,
    domain: Domain,
    channel: str = "pk",
) -> Proto[Any]:
    """Run Phase-King BA on ``v_in`` over ``domain``; returns the output."""
    ctx.require_resilience(3)
    est = v_in if domain.validate(v_in) else domain.default

    for phase in range(ctx.t + 1):
        king = phase
        tag = f"{channel}/ph{phase}"

        # Round 1: universal exchange of estimates.
        inbox = yield from broadcast_round(ctx, f"{tag}/exch", est)
        maj, cnt = _plurality(domain.tally(inbox.values()))

        # Round 2: propose the majority value if it had a strong quorum.
        if cnt >= ctx.quorum:
            message: Any = (_PROPOSE, maj)
        else:
            message = (_NO_PROPOSE,)
        inbox = yield from broadcast_round(ctx, f"{tag}/prop", message)
        proposals = [
            msg[1]
            for msg in inbox.values()
            if isinstance(msg, tuple)
            and len(msg) == 2
            and msg[0] == _PROPOSE
        ]
        prop, pcnt = _plurality(domain.tally(proposals))

        # Round 3: the king arbitrates (everyone else stays silent).
        if ctx.party_id == king:
            king_value = prop if pcnt > 0 else est
            inbox = yield from broadcast_round(
                ctx, f"{tag}/king", king_value
            )
        else:
            inbox = yield from exchange(f"{tag}/king", {})
        king_value = inbox.get(king)
        if not domain.validate(king_value):
            king_value = domain.default

        if pcnt >= ctx.quorum:
            est = prop
        else:
            est = king_value

    return est


def phase_king_rounds(t: int) -> int:
    """Round complexity: ``3 (t + 1)``."""
    return 3 * (t + 1)
