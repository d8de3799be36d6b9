"""F8 -- hostile-payload hardening: guard overhead and bomb survival.

The wire guards (:mod:`repro.sim.wire`) promise two things at once:

1. **Zero honest-path cost.**  Arming the guards must not change a
   single honest bit: the bare run never consults them, and beside a
   fault plane they only inspect byzantine-origin traffic.
   The overhead cells run ``PI_Z`` with guards off and on and assert
   byte-identical honest accounting.
2. **Bounded hostile cost.**  Every payload-bomb family in
   :data:`~repro.sim.bombs.BOMB_CATALOG` is quarantined with bounded
   work: honest parties still terminate with convex-valid outputs, and
   the rejected volume lands on ``rejected_bits`` -- never on the
   honest ``BITS_l`` measure the paper's bound governs.

Besides the end-of-session tables, this module writes every cell to
``benchmarks/BENCH_bombs.json`` so regression scripts can track the
quarantine accounting without scraping pytest output.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import Measurement
from repro.core.protocol_z import protocol_z
from repro.sim import PassiveAdversary, WireLimits, run_protocol
from repro.sim.bombs import BOMB_CATALOG

from conftest import record, run_measured

N, T = 4, 1
ELL = 512
KAPPA = 128

JSON_PATH = os.path.join(os.path.dirname(__file__), "BENCH_bombs.json")

#: (label, Measurement, quarantine stats) triples for BENCH_bombs.json.
_MEASURED: list[tuple[str, Measurement, dict]] = []


def _measurement_record(label: str, m: Measurement, extra: dict) -> dict:
    row = {
        "label": label,
        "protocol": m.protocol,
        "n": m.n,
        "t": m.t,
        "ell": m.ell,
        "kappa": m.kappa,
        "honest_bits": m.bits,
        "rounds": m.rounds,
        "messages": m.messages,
        "output": repr(m.output),
    }
    row.update(extra)
    return row


@pytest.fixture(scope="module", autouse=True)
def _emit_json():
    """Write the collected battery as machine-readable JSON on teardown."""
    yield
    if not _MEASURED:
        return
    baseline = next(
        (m for label, m, _ in _MEASURED if label == "guards off"), None
    )
    guarded = next(
        (m for label, m, _ in _MEASURED if label == "guards on"), None
    )
    document = {
        "schema": "repro.bench_bombs/v1",
        "experiment": "F8",
        "config": {"n": N, "t": T, "ell": ELL, "kappa": KAPPA},
        "measurements": [
            _measurement_record(label, m, extra)
            for label, m, extra in _MEASURED
        ],
        "guard_overhead_bits": (
            None if baseline is None or guarded is None
            else guarded.bits - baseline.bits
        ),
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def make_inputs() -> list[int]:
    base = 1 << (ELL - 1)
    return [base + 1000 * i for i in range(N)]


def run_cell(label: str, adversary, guards) -> Measurement:
    # Deliberately not routed through conftest's fan_out harness: each
    # call appends to the module-global _MEASURED that the JSON emitter
    # drains, and that side effect would be lost in a worker process.
    inputs = make_inputs()
    result = run_protocol(
        lambda ctx, v: protocol_z(ctx, v), inputs, n=N, t=T, kappa=KAPPA,
        adversary=adversary, guards=guards,
    )
    out = result.assert_convex_valid(inputs)
    measurement = Measurement(
        protocol="pi_z",
        n=N,
        t=T,
        ell=ELL,
        kappa=KAPPA,
        bits=result.stats.honest_bits,
        rounds=result.stats.rounds,
        messages=result.stats.honest_messages,
        output=out,
    )
    _MEASURED.append((
        label,
        measurement,
        {
            "quarantined_messages": result.stats.quarantined_messages,
            "rejected_bits": result.stats.rejected_bits,
        },
    ))
    return measurement


def test_guard_overhead_is_zero_honest_bits(benchmark):
    """Arming the guards leaves honest executions byte-identical."""

    def battery():
        off = run_cell("guards off", PassiveAdversary(seed=17), None)
        on = run_cell(
            "guards on", PassiveAdversary(seed=17),
            WireLimits.from_envelopes(N, T, ELL, KAPPA),
        )
        return off, on

    off, on = benchmark.pedantic(battery, rounds=1, iterations=1)
    benchmark.extra_info["guard_overhead_bits"] = on.bits - off.bits
    record("F8", "guards off", off)
    record("F8", "guards on", on)
    assert on.bits == off.bits
    assert on.rounds == off.rounds
    assert on.output == off.output


@pytest.mark.parametrize("bomb", sorted(BOMB_CATALOG))
def test_pi_z_survives_bomb(benchmark, bomb):
    """Every bomb family is quarantined; honest cost stays on budget."""
    guards = WireLimits.from_envelopes(N, T, ELL, KAPPA)
    m = run_measured(
        benchmark, "F8", bomb,
        lambda: run_cell(bomb, BOMB_CATALOG[bomb](23), guards),
    )
    _, _, extra = _MEASURED[-1]
    benchmark.extra_info["quarantined_messages"] = (
        extra["quarantined_messages"]
    )
    benchmark.extra_info["rejected_bits"] = extra["rejected_bits"]
    assert m.bits > 0


def test_rejected_bits_never_count_as_honest(benchmark):
    """The blob bomb's rejected volume dwarfs -- and never taints --
    the honest ``BITS_l`` accounting."""

    def battery():
        return run_cell(
            "blob accounting", BOMB_CATALOG["bomb_blob"](29),
            WireLimits.from_envelopes(N, T, ELL, KAPPA),
        )

    m = benchmark.pedantic(battery, rounds=1, iterations=1)
    _, _, extra = _MEASURED[-1]
    benchmark.extra_info["rejected_bits"] = extra["rejected_bits"]
    record("F8", "blob accounting", m)
    assert extra["quarantined_messages"] > 0
    assert extra["rejected_bits"] > 0
