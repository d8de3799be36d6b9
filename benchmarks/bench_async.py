"""F6 -- the asynchronous setting (Section 8's future-work axis).

Measures asynchronous Approximate Agreement at the paper's conjectured
``t < n/5`` resilience over Bracha reliable broadcast, under three
delivery schedules (friendly FIFO, chaotic random, targeted delay).

Checks: eps-agreement + validity in every cell; cost grows linearly in
the iteration count ``log(range/eps)``; the adversarial scheduler does
not change the communication-order of magnitude (message complexity is
schedule-independent, only latency would differ on a real network).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis import Measurement
from repro.asynchrony import (
    AsyncApproximateAgreement,
    AsyncNetwork,
    FifoScheduler,
    RandomScheduler,
    TargetedDelayScheduler,
)

from conftest import record

N, T = 6, 1
BOUND = 1 << 16

SCHEDULERS = {
    "fifo": lambda: FifoScheduler(),
    "random": lambda: RandomScheduler(seed=29),
    "delay0": lambda: TargetedDelayScheduler({0}, seed=29),
}


def run_async_aa(eps_exponent: int, scheduler_name: str) -> Measurement:
    epsilon = Fraction(2) ** eps_exponent
    inputs = [100 * i for i in range(N)]

    net = AsyncNetwork(
        lambda ctx: AsyncApproximateAgreement(
            ctx, inputs[ctx.party_id], epsilon, BOUND
        ),
        n=N,
        t=T,
        scheduler=SCHEDULERS[scheduler_name](),
    )
    result = net.run()
    honest = [p for p in range(N) if p not in result.corrupted]
    outputs = [result.outputs[p] for p in honest]
    lo = min(inputs[p] for p in honest)
    hi = max(inputs[p] for p in honest)
    assert all(lo <= out <= hi for out in outputs)
    assert max(outputs) - min(outputs) <= epsilon
    return Measurement(
        protocol=f"async_aa[{scheduler_name}]",
        n=N,
        t=T,
        ell=BOUND.bit_length(),
        kappa=128,
        bits=result.stats.honest_bits,
        rounds=result.deliveries,
        messages=result.stats.honest_messages,
        output=float(max(outputs) - min(outputs)),
    )


@pytest.fixture(scope="module")
def by_scheduler():
    """scheduler name -> the run at ``eps = 2^0`` under it."""
    return {
        name: record("F6", f"sched={name}", run_async_aa(0, name))
        for name in sorted(SCHEDULERS)
    }


def test_schedule_independence_of_message_complexity(by_scheduler):
    bits = [m.bits for m in by_scheduler.values()]
    assert max(bits) <= 1.5 * min(bits)


def eps_sweep(by_scheduler, name: str) -> list[Measurement]:
    """``eps = 2^8, 2^0, 2^-8`` under one scheduler (2^0 is its
    ``by_scheduler`` row)."""
    return [
        by_scheduler[name] if e == 0
        else record("F6", f"{name} eps=2^{e}", run_async_aa(e, name))
        for e in (8, 0, -8)
    ]


def test_async_aa_vs_eps(by_scheduler):
    assert all(m.bits > 0 for m in eps_sweep(by_scheduler, "random"))


def test_cost_linear_in_iterations(by_scheduler):
    coarse, mid, fine = eps_sweep(by_scheduler, "fifo")
    # each 256x precision gain adds 8 iterations at fixed per-iteration
    # cost (n RBC instances of O(n^2) kappa-free messages).
    step1 = mid.bits - coarse.bits
    step2 = fine.bits - mid.bits
    assert step1 > 0 and step2 > 0
    assert step2 < 2.5 * step1
