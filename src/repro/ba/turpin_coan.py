"""The Turpin-Coan extension: multivalued BA from binary BA.

Turpin and Coan [49] gave the first reduction from long-message BA to
short-message BA for ``t < n/3`` at a cost of ``O(l n^2)`` extra bits.
The paper cites it as the historical starting point of the extension-
protocol line of work; we implement it

* as an alternative ``PI_BA`` instantiation (ablation experiments), and
* as a counter-example: Turpin-Coan *is* intrusion tolerant but does
  **not** satisfy Bounded Pre-Agreement, which is exactly why the paper
  needs the custom ``PI_BA+`` of Section 7 (a test demonstrates the
  violation).

Structure (two rounds plus one binary BA):

1. every party sends its input to all parties,
2. a party that saw some value ``n - t`` times re-sends it as its
   *candidate* (else a no-candidate marker),
3. binary BA on "did my candidate reach ``n - t`` occurrences"; on 1 the
   parties output the unique value with ``t + 1`` candidate votes, on 0
   they output the fallback bottom (``None``).
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.party import Context, Proto, broadcast_round, parse_once
from .domains import BIT_DOMAIN, Domain, canonical_key, tally_inbox
from .phase_king import phase_king

__all__ = ["turpin_coan"]

_CANDIDATE = "CAND"
_NO_CANDIDATE = "NOCAND"


def _candidates(inbox: dict[int, Any], domain: Domain) -> tuple:
    """Round 2's tally of well-formed candidate messages."""
    return tuple(domain.tally(
        received[1]
        for received in inbox.values()
        if isinstance(received, tuple)
        and len(received) == 2
        and received[0] == _CANDIDATE
    ))


def turpin_coan(
    ctx: Context,
    v_in: Any,
    domain: Domain,
    channel: str = "tc",
    binary_ba: Callable[..., Proto[Any]] = phase_king,
) -> Proto[Any]:
    """Multivalued BA via reduction to one binary BA instance.

    Returns an agreed value: either a value held by at least one honest
    party (``n - 2t`` of them, in fact) or ``None`` (bottom).
    """
    ctx.require_resilience(3)
    value = v_in if domain.validate(v_in) else domain.default

    # Round 1: exchange inputs.
    inbox = yield broadcast_round(ctx, f"{channel}/input", value)
    candidate: Any = None
    have_candidate = False
    for received, count in parse_once(inbox, tally_inbox, domain):
        if count >= ctx.quorum:
            candidate = received
            have_candidate = True
            break

    # Round 2: exchange candidates.
    message: Any = (
        (_CANDIDATE, candidate) if have_candidate else (_NO_CANDIDATE,)
    )
    inbox = yield broadcast_round(ctx, f"{channel}/candidate", message)
    candidate_counts = parse_once(inbox, _candidates, domain)

    strong = any(count >= ctx.quorum for _, count in candidate_counts)
    decision = yield from binary_ba(
        ctx, 1 if strong else 0, BIT_DOMAIN, channel=f"{channel}/ba"
    )

    if decision != 1:
        return None
    # Quorum intersection: at most one value can have t + 1 candidate
    # votes, and if BA agreed on 1 every honest party sees it.
    for received, count in sorted(
        candidate_counts, key=lambda e: (-e[1], canonical_key(e[0]))
    ):
        if count >= ctx.t + 1:
            return received
    # Unreachable when t < n/3 holds; stay deterministic regardless.
    return None
