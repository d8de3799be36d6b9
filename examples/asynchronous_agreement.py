#!/usr/bin/env python3
"""Asynchronous approximate agreement under adversarial scheduling.

The paper's conclusions expect its techniques to extend "to the
asynchronous setting for a lower number of corruptions t < n/5".  This
example runs that setting's classic primitive: asynchronous Approximate
Agreement over Bracha reliable broadcast, with NO synchrony assumption
-- the message scheduler is adversarial, here maximally delaying one
victim party's traffic.

Deterministic asynchronous exact agreement is impossible (FLP), which
is exactly why the asynchronous literature (and the paper's related
work, Section 1.1) works with the eps-relaxation.
"""

from __future__ import annotations

from fractions import Fraction

from repro.asynchrony import (
    AsyncApproximateAgreement,
    AsyncNetwork,
    FifoScheduler,
    RandomScheduler,
    TargetedDelayScheduler,
)

N, T = 6, 1          # t < n/5
BOUND = 1 << 16
EPSILON = Fraction(1, 4)
READINGS = [20_000, 20_150, 19_900, 20_050, 20_100, 19_950]


def run(scheduler) -> None:
    net = AsyncNetwork(
        lambda ctx: AsyncApproximateAgreement(
            ctx, READINGS[ctx.party_id], EPSILON, BOUND
        ),
        n=N,
        t=T,
        scheduler=scheduler,
    )
    result = net.run()
    honest = [p for p in range(N) if p not in result.corrupted]
    outputs = [result.outputs[p] for p in honest]
    spread = max(outputs) - min(outputs)
    lo = min(READINGS[p] for p in honest)
    hi = max(READINGS[p] for p in honest)
    assert all(lo <= out <= hi for out in outputs)
    assert spread <= EPSILON
    print(
        f"{scheduler.describe():<38} deliveries={result.stats.rounds:>6,} "
        f"bits={result.stats.honest_bits:>8,} spread={str(spread):>8}"
    )


def main() -> None:
    print(f"readings: {READINGS}, eps = {EPSILON}, n = {N}, t = {T}\n")
    run(FifoScheduler())
    run(RandomScheduler(seed=42))
    run(TargetedDelayScheduler({2}, seed=42))
    print(
        "\neps-agreement and validity hold under every schedule; the "
        "targeted-delay attack only reorders work, it cannot block it."
    )


if __name__ == "__main__":
    main()
