"""F7 -- the price of partial synchrony.

The paper's bounds assume lockstep synchrony.  The partial-synchrony
plane keeps executions *byte-identical* in the paper's own metric
(``honest_bits``) whenever the network stabilizes inside the escalated
budgets, and fails over (HighCostCA -> async AA) when it never does.
This module measures what the resilience costs instead: decision
latency in physical transport slots and separately-accounted overhead
bits, swept against

* the Global Stabilization Time (pre-GST loss until ``gst``), and
* the heal time of a partition isolating one party -- including the
  never-healing end point that descends the failover ladder.

Besides its ``BENCH_experiments.json`` rows, every sweep point lands in
``benchmarks/BENCH_partition.json`` with the latency and overhead
ledger a ``Measurement`` does not carry.
"""

from __future__ import annotations

import os

import pytest

from repro.core.fixed_length import fixed_length_ca
from repro.perf.profile import save_document
from repro.sim import (
    LossyTransport,
    TimeoutEscalation,
    run_protocol,
    run_with_escalation,
)

from conftest import measurement, record

N, T = 7, 2
ELL = 64
KAPPA = 128

#: GST sweep: stabilization times in global transport slots.
GST_POINTS = (0, 64, 128, 256, 384)
PRE_GST_DROP = 0.5

#: heal-time sweep for a partition isolating party 0; -1 never heals
#: and exercises the failover ladder instead of the escalated retries.
HEAL_POINTS = (64, 128, 256, 512, -1)

JSON_PATH = os.path.join(os.path.dirname(__file__), "BENCH_partition.json")


def make_inputs(n: int = N) -> list[int]:
    base = 1 << (ELL - 1)
    return [base + 1000 * i for i in range(n)]


def _factory():
    return lambda ctx, v: fixed_length_ca(ctx, v, ELL)


def _point(axis, value, result, transport, t) -> dict:
    """One sweep point as its ``BENCH_partition.json`` row (also
    recorded for F7)."""
    outputs = [result.outputs[p] for p in result.honest_parties]
    label = "never" if value == -1 else value
    record("F7", f"{axis}={label}", measurement(
        result, protocol="fixed_length_ca", n=N, t=t, ell=ELL, kappa=KAPPA,
        output=min(outputs),
    ))
    stats = result.stats
    fallback = result.fallback
    return {
        "axis": axis,
        "value": value,
        "rung": "primary" if fallback is None else fallback.rung,
        "decision_latency_slots": transport.clock,
        "honest_bits": stats.honest_bits,
        "overhead_bits": stats.resilience_overhead_bits,
        "beacon_bits": stats.beacon_bits,
        "resyncs": stats.resync_attempts + (
            0 if fallback is None else fallback.resyncs
        ),
        "escalated_rounds": stats.escalated_rounds,
    }


def run_gst_point(gst: int) -> dict:
    inputs = make_inputs()
    transport = LossyTransport.partial_sync(
        gst=gst, pre_gst_drop=PRE_GST_DROP, seed=13,
    )
    result = run_with_escalation(
        _factory(), inputs, n=N, t=T, kappa=KAPPA, transport=transport,
    )
    # a stabilizing network never leaves the optimal path...
    assert result.fallback is None
    # ...and the paper's metric is untouched by the slow start.
    baseline = run_protocol(_factory(), inputs, n=N, t=T, kappa=KAPPA)
    assert result.stats.honest_bits == baseline.stats.honest_bits
    return _point("gst", gst, result, transport, T)


def run_heal_point(heal: int) -> dict:
    # t=1 keeps the async rung feasible (5t < n) at the -1 end point.
    transport = LossyTransport.partial_sync(
        partitions=((0, heal, (0,)),), seed=13,
        slot_budget=32, escalation=TimeoutEscalation(max_attempts=4),
    )
    # the ladder must absorb the broken network: a SimulationError out
    # of it (ladder exhaustion) fails the sweep.
    result = run_with_escalation(
        _factory(), make_inputs(), n=N, t=1, kappa=KAPPA,
        transport=transport, epsilon=1,
    )
    if heal == -1:
        assert result.fallback is not None
    return _point("heal", heal, result, transport, 1)


@pytest.fixture(scope="module")
def points():
    """``(axis, value) -> point`` over both sweeps; emits the document."""
    swept = [run_gst_point(gst) for gst in GST_POINTS] + [
        run_heal_point(heal) for heal in HEAL_POINTS
    ]
    save_document({
        "schema": "repro.bench_partial_sync/v1",
        "experiment": "F7",
        "config": {
            "n": N, "t": T, "ell": ELL, "kappa": KAPPA,
            "pre_gst_drop": PRE_GST_DROP,
        },
        "points": swept,
    }, JSON_PATH)
    return {(p["axis"], p["value"]): p for p in swept}


def test_every_point_decides(points):
    assert all(p["honest_bits"] > 0 for p in points.values())


def test_overhead_grows_with_gst(points):
    """Later stabilization costs more overhead bits and slots -- but
    the same honest bits (the paper's bound is GST-invariant here)."""
    early, late = points["gst", 0], points["gst", 256]
    assert early["honest_bits"] == late["honest_bits"]
    assert late["overhead_bits"] > early["overhead_bits"]
    assert late["decision_latency_slots"] > early["decision_latency_slots"]


def test_never_healing_descends_the_ladder(points):
    """The -1 end point degrades instead of hanging: the recorded rung
    is a failover, never an unhandled exception."""
    point = points["heal", -1]
    assert point["rung"] in ("high_cost_ca", "async_aa")
    assert point["resyncs"] > 0
