"""``HighCostCA`` (Appendix A.4): king-based CA with ``O(l n^3)`` bits.

The paper adapts the Median Validity protocol of Stolz and Wattenhofer
[47] (itself a variant of the Berman-Garay-Perry king protocol [7]) into
a CA protocol used in three places:

* ``AddLastBlock`` runs it once on single blocks of ``l / n^2`` bits,
* ``PI_N`` runs it on block-size estimates (``O(log l)``-bit values),
* it doubles as the ``O(l n^3)`` / ``O(n)``-round existing-protocol
  baseline in the comparison benchmarks.

Structure (all on values in N; anything else is ignored, as the paper
prescribes -- "honest parties may ignore any values outside N"):

* **Setup stage**: exchange inputs; with ``n - t + k`` values received,
  the interval between the (k+1)-th lowest and (k+1)-th highest received
  values is trusted -- it always sits inside the honest inputs' range
  (Lemma 10).  Exchange intervals and pick a ``SUGGESTION`` covered by
  ``n - t`` received intervals (exists by Helly's theorem in 1D,
  Corollary 4).
* **Search stage**: ``t + 1`` king phases.  A phase with an honest king
  establishes agreement (Lemma 14) and agreement persists (Lemma 13);
  every value an honest party ever adopts stays inside some honest
  trusted interval (Lemma 11), giving Convex Validity.
"""

from __future__ import annotations

from typing import Any

from ..sim.party import Context, Proto, broadcast_round, exchange

__all__ = ["high_cost_ca"]

_PROPOSE = "PROP"
_VOTE = "VOTE"


def _is_nat(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _count_nat_values(inbox: dict[int, Any]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for value in inbox.values():
        if _is_nat(value):
            counts[value] = counts.get(value, 0) + 1
    return counts


def _count_tagged(inbox: dict[int, Any], tag: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for message in inbox.values():
        if (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == tag
            and _is_nat(message[1])
        ):
            counts[message[1]] = counts.get(message[1], 0) + 1
    return counts


def _best(counts: dict[int, int]) -> tuple[int | None, int]:
    """Value with the highest count (deterministic tie-break), and count."""
    if not counts:
        return None, 0
    value = max(counts, key=lambda v: (counts[v], -v))
    return value, counts[value]


def high_cost_ca(
    ctx: Context,
    v_in: int,
    channel: str = "hc",
) -> Proto[int]:
    """Run ``HighCostCA`` on a natural-number input; returns the output.

    Guarantees (Theorem 3, ``t < n/3``): Termination in ``O(n)`` rounds,
    Agreement, Convex Validity.  Communication ``O(l n^3)`` bits.
    """
    ctx.require_resilience(3)
    if not _is_nat(v_in):
        raise ValueError(f"HighCostCA input must be in N, got {v_in!r}")

    # ---- Setup stage -------------------------------------------------
    inbox = yield broadcast_round(ctx, f"{channel}/input", v_in)
    values = sorted(v for v in inbox.values() if _is_nat(v))
    # n - t honest values always arrive; k counts the byzantine extras.
    k = max(0, len(values) - ctx.quorum)
    interval_min = values[k]
    interval_max = values[-(k + 1)]

    inbox = yield broadcast_round(
        ctx, f"{channel}/interval", (interval_min, interval_max)
    )
    intervals = [
        (msg[0], msg[1])
        for msg in inbox.values()
        if isinstance(msg, tuple)
        and len(msg) == 2
        and _is_nat(msg[0])
        and _is_nat(msg[1])
        and msg[0] <= msg[1]
    ]
    # SUGGESTION: the smallest endpoint covered by n - t intervals.  The
    # n - t honest intervals pairwise intersect (each contains the
    # (t+1)-th lowest honest input), so max-of-los is covered by all of
    # them and a valid candidate always exists among the lo endpoints.
    suggestion = None
    for candidate in sorted({lo for lo, _ in intervals}):
        coverage = sum(1 for lo, hi in intervals if lo <= candidate <= hi)
        if coverage >= ctx.quorum:
            suggestion = candidate
            break
    if suggestion is None:
        # Unreachable when t < n/3; keep the party deterministic anyway.
        suggestion = interval_min
    current = suggestion

    # ---- Search stage: t + 1 king phases ------------------------------
    for phase in range(ctx.t + 1):
        king = phase
        tag = f"{channel}/p{phase}"

        # Line 10: exchange CURRENT.
        inbox = yield broadcast_round(ctx, f"{tag}/cur", current)
        value_counts = _count_nat_values(inbox)
        quorum_value, quorum_count = _best(value_counts)

        # Line 11: propose a value seen from n - t parties (unique:
        # 2(n - t) > n).
        if quorum_count >= ctx.quorum:
            message: Any = (_PROPOSE, quorum_value)
            outgoing = {dest: message for dest in ctx.all_parties}
        else:
            outgoing = {}
        inbox = yield exchange(f"{tag}/prop", outgoing)
        proposal_counts = _count_tagged(inbox, _PROPOSE)
        proposed, proposal_count = _best(proposal_counts)
        strong_proposal = proposal_count >= ctx.quorum

        # Line 12: adopt a value proposed by t + 1 parties (unique by
        # Lemma 12: all honest proposals of a phase name one value).
        if proposal_count >= ctx.t + 1:
            current = proposed

        # Lines 13-16: the king arbitrates.
        if ctx.party_id == king:
            if proposal_count >= ctx.t + 1:
                king_value = proposed
            else:
                king_value = suggestion
            inbox = yield broadcast_round(ctx, f"{tag}/king", king_value)
        else:
            inbox = yield exchange(f"{tag}/king", {})
        king_value = inbox.get(king)
        if not _is_nat(king_value):
            king_value = None

        # Lines 17-18: vote for an acceptable king value.
        if king_value is not None and (
            king_value == current
            or interval_min <= king_value <= interval_max
        ):
            vote: Any = (_VOTE, king_value)
            outgoing = {dest: vote for dest in ctx.all_parties}
        else:
            outgoing = {}
        inbox = yield exchange(f"{tag}/vote", outgoing)

        # Lines 19-21: without a strong proposal, adopt a t+1-supported
        # king value.
        if not strong_proposal:
            vote_counts = _count_tagged(inbox, _VOTE)
            voted, vote_count = _best(vote_counts)
            if vote_count >= ctx.t + 1:
                current = voted

    return current
