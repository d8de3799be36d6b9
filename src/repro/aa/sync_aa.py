"""Synchronous Approximate Agreement (the paper's foundational relative).

Section 1.1: "The requirement of obtaining outputs within the honest
inputs' range has been first introduced in [16] for Approximate
Agreement (AA).  AA relaxes the agreement requirement, where parties'
outputs may deviate by a predefined error eps > 0."  CA is exact
agreement with the same validity; AA is the cheap-per-round,
many-rounds relaxation.  We implement the classic synchronous AA
iteration so the benchmark suite can compare the two primitives' costs
(see ``benchmarks/bench_aa_vs_ca.py``): for coarse eps AA is far
cheaper; as eps shrinks AA's cost grows with ``log(range/eps)`` while
CA's stays fixed -- and only CA ever reaches exact agreement.

Protocol (trimmed-midpoint iteration, Dolev et al. [16] style, t < n/3):

repeat R times:
    1. send the current estimate to all parties;
    2. sort the (validated) received values, discard the ``t`` lowest
       and ``t`` highest -- the surviving values provably lie inside the
       honest estimates' range;
    3. set the new estimate to the midpoint of the survivors.

Each iteration keeps every honest estimate inside the honest range
(Convex Validity) and halves the honest diameter (convergence rate 1/2:
any two honest trimmed ranges overlap in the median region, property
checked empirically by the tests under the adversary battery).  With a
publicly known bound ``|input| <= value_bound``, running
``R = ceil(log2(2 * value_bound / eps))`` iterations guarantees
eps-agreement without any extra coordination.

Estimates are exact rationals (``fractions.Fraction``) so repeated
halving never accumulates rounding error; inputs and eps may be ints or
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, log2
from typing import Union

from ..errors import ConfigurationError
from ..sim.party import Context, Proto, broadcast_round

__all__ = ["approximate_agreement", "iterations_for", "trimmed_midpoint"]

Number = Union[int, Fraction]


def iterations_for(value_bound: int, epsilon: Number) -> int:
    """Iterations guaranteeing eps-agreement from ``|v| <= value_bound``.

    The initial honest diameter is at most ``2 * value_bound`` and each
    iteration halves it.
    """
    if value_bound <= 0:
        raise ConfigurationError("value_bound must be positive")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    ratio = Fraction(2 * value_bound) / epsilon
    if ratio <= 1:
        return 0
    return ceil(log2(float(ratio)))


def trimmed_midpoint(values: list[Fraction], t: int) -> Fraction:
    """Midpoint of the values that survive trimming ``t`` per side."""
    ordered = sorted(values)
    if len(ordered) <= 2 * t:
        raise ConfigurationError(
            f"cannot trim {t} per side from {len(ordered)} values"
        )
    survivors = ordered[t: len(ordered) - t] if t else ordered
    return (survivors[0] + survivors[-1]) / 2


def _validate(value, bound: int, iteration: int) -> Fraction | None:
    """Accept well-formed estimates; reject junk and size-inflation.

    An honest iteration-``i`` estimate is a dyadic rational with
    denominator dividing ``2^i`` (each iteration halves a sum of two
    such values).  Enforcing this shape on received values means a
    byzantine party can never make honest parties adopt -- and then
    re-broadcast -- a blob with an enormous denominator, keeping honest
    communication adversary-independent (the same concern Section 1
    raises about prior CA protocols).
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        return None
    if abs(value) > bound:
        return None
    denominator = value.denominator
    if denominator > (1 << iteration) or denominator & (denominator - 1):
        return None
    return value


def approximate_agreement(
    ctx: Context,
    v_in: Number,
    epsilon: Number,
    value_bound: int,
    channel: str = "aa",
) -> Proto[Fraction]:
    """Run synchronous AA; returns this party's eps-close output.

    Args:
        ctx: party context (``t < n/3``).
        v_in: this party's input, ``|v_in| <= value_bound``.
        epsilon: the agreement slack; honest outputs differ by at most
            ``epsilon`` and lie in the honest inputs' range.
        value_bound: publicly known bound on all honest inputs'
            magnitude (fixes the iteration count without extra rounds).
        channel: accounting label prefix.
    """
    ctx.require_resilience(3)
    estimate = Fraction(v_in)
    if abs(estimate) > value_bound:
        raise ConfigurationError(
            f"input {v_in} exceeds the public bound {value_bound}"
        )
    rounds = iterations_for(value_bound, epsilon)

    for iteration in range(rounds):
        inbox = yield broadcast_round(
            ctx, f"{channel}/it{iteration}", estimate
        )
        received = [
            valid
            for valid in (
                _validate(value, value_bound, iteration)
                for value in inbox.values()
            )
            if valid is not None
        ]
        # All n - t honest estimates always arrive; byzantine silence
        # only shrinks the byzantine contribution.
        estimate = trimmed_midpoint(received, ctx.t)

    return estimate
