"""F7 -- the price of partial synchrony.

The paper's bounds assume lockstep synchrony.  The partial-synchrony
plane keeps executions *byte-identical* in the paper's own metric
(``honest_bits``) whenever the network stabilizes inside the escalated
budgets, and fails over to HighCostCA over the same links when it does
not -- which a partition that never heals defeats too, exhausting the
ladder instead of deciding off the caller's network.
This module measures what the resilience costs instead: decision
latency in physical transport slots and separately-accounted overhead
bits, swept against

* the Global Stabilization Time (pre-GST loss until ``gst``), and
* the heal time of a partition isolating one party -- including the
  never-healing end point, which exhausts the failover ladder.

Besides its ``BENCH_experiments.json`` rows, every sweep point lands in
``benchmarks/BENCH_partition.json`` with the latency and overhead
ledger a ``Measurement`` does not carry; the exhausted end point lands
there only (it decided nothing to measure), with the slots it spent
and the primary's stats from the exhausted-ladder error.
"""

from __future__ import annotations

import os

import pytest

from repro.core.fixed_length import fixed_length_ca
from repro.errors import SimulationError
from repro.perf.profile import save_document
from repro.sim import (
    LossyTransport,
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
#: and exhausts the failover ladder.
HEAL_POINTS = (64, 128, 256, 512, -1)

JSON_PATH = os.path.join(os.path.dirname(__file__), "BENCH_partition.json")


def make_inputs(n: int = N) -> list[int]:
    base = 1 << (ELL - 1)
    return [base + 1000 * i for i in range(n)]


def _factory():
    return lambda ctx, v: fixed_length_ca(ctx, v, ELL)


def _row(axis, value, rung, stats, resyncs, transport) -> dict:
    """One sweep point as its ``BENCH_partition.json`` row."""
    return {
        "axis": axis,
        "value": value,
        "rung": rung,
        "decision_latency_slots": transport.clock,
        "honest_bits": stats.honest_bits,
        "overhead_bits": stats.resilience_overhead_bits,
        "beacon_bits": stats.beacon_bits,
        "resyncs": stats.resync_attempts + resyncs,
        "escalated_rounds": stats.escalated_rounds,
    }


def _point(axis, value, result, transport, t) -> dict:
    """A decided sweep point: its row, also recorded for F7."""
    outputs = [result.outputs[p] for p in result.honest_parties]
    record("F7", f"{axis}={value}", measurement(
        result, protocol="fixed_length_ca", n=N, t=t, ell=ELL, kappa=KAPPA,
        output=min(outputs),
    ))
    fallback = result.fallback
    rung, resyncs = (
        ("primary", 0) if fallback is None
        else ("high_cost_ca", fallback.resyncs)
    )
    return _row(axis, value, rung, result.stats, resyncs, transport)


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


def heal_transport(heal: int) -> LossyTransport:
    """A partition isolating party 0 from slot 0 until ``heal``."""
    return LossyTransport.partial_sync(
        partitions=((0, heal, (0,)),), seed=13,
        slot_budget=32, max_attempts=4,
    )


def heal_ladder(transport: LossyTransport):
    return run_with_escalation(
        _factory(), make_inputs(), n=N, t=1, kappa=KAPPA,
        transport=transport,
    )


def run_heal_point(heal: int) -> dict:
    transport = heal_transport(heal)
    if heal != -1:
        return _point("heal", heal, heal_ladder(transport), transport, 1)
    # both rungs ride the severed links: the ladder is exhausted, and
    # the error carries the primary's stats.
    with pytest.raises(SimulationError) as exhausted:
        heal_ladder(transport)
    return _row(
        "heal", heal, "exhausted", exhausted.value.stats, 0, transport
    )


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


def test_overhead_grows_with_gst(points):
    """Later stabilization costs more overhead bits and slots -- but
    the same honest bits (the paper's bound is GST-invariant here)."""
    early, late = points["gst", 0], points["gst", 256]
    assert early["honest_bits"] == late["honest_bits"]
    assert late["overhead_bits"] > early["overhead_bits"]
    assert late["decision_latency_slots"] > early["decision_latency_slots"]


def test_only_the_never_healing_point_exhausts(points):
    """Every healing point decides.  The -1 end point neither hangs nor
    decides off the caller's network: the ladder is exhausted after
    exactly its primary and ``HighCostCA`` entries."""
    never = points["heal", -1]
    assert all(p["honest_bits"] > 0 for p in points.values() if p is not never)
    assert never["rung"] == "exhausted" and never["resyncs"] > 0
    with pytest.raises(SimulationError) as exhausted:
        heal_ladder(heal_transport(-1))
    history = str(exhausted.value).split(": ", 1)[1].split(" | ")
    assert [entry.split(":")[0] for entry in history] == [
        "primary", "transport", "high_cost_ca",
    ]
