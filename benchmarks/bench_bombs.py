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

Besides its ``BENCH_experiments.json`` rows, every cell lands in
``benchmarks/BENCH_bombs.json`` with the quarantine accounting a
``Measurement`` does not carry.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import grid_record
from repro.core.protocol_z import protocol_z
from repro.perf.profile import save_document
from repro.sim import PassiveAdversary, WireLimits, run_protocol
from repro.sim.bombs import BOMB_CATALOG

from conftest import measurement, record

N, T = 4, 1
ELL = 512
KAPPA = 128

JSON_PATH = os.path.join(os.path.dirname(__file__), "BENCH_bombs.json")


def run_cell(label: str, adversary, guards) -> dict:
    """One cell as its ``BENCH_bombs.json`` row (also recorded for F8)."""
    base = 1 << (ELL - 1)
    inputs = [base + 1000 * i for i in range(N)]
    result = run_protocol(
        lambda ctx, v: protocol_z(ctx, v), inputs, n=N, t=T, kappa=KAPPA,
        adversary=adversary, guards=guards,
    )
    m = record("F8", label, measurement(
        result, protocol="pi_z", n=N, t=T, ell=ELL, kappa=KAPPA,
        output=result.assert_convex_valid(inputs),
    ))
    row = grid_record(m)
    row["honest_bits"] = row.pop("bits")
    return dict(
        row, label=label,
        quarantined_messages=result.stats.quarantined_messages,
        rejected_bits=result.stats.rejected_bits,
    )


@pytest.fixture(scope="module")
def cells():
    """label -> row, for the whole battery; emits ``BENCH_bombs.json``."""
    guards = WireLimits.from_envelopes(N, T, ELL, KAPPA)
    battery = [
        ("guards off", PassiveAdversary(seed=17), None),
        ("guards on", PassiveAdversary(seed=17), guards),
        *((bomb, BOMB_CATALOG[bomb](23), guards)
          for bomb in sorted(BOMB_CATALOG)),
        ("blob accounting", BOMB_CATALOG["bomb_blob"](29), guards),
    ]
    cells = {
        label: run_cell(label, adversary, armed)
        for label, adversary, armed in battery
    }
    save_document({
        "schema": "repro.bench_bombs/v1",
        "experiment": "F8",
        "config": {"n": N, "t": T, "ell": ELL, "kappa": KAPPA},
        "measurements": list(cells.values()),
        "guard_overhead_bits": (
            cells["guards on"]["honest_bits"]
            - cells["guards off"]["honest_bits"]
        ),
    }, JSON_PATH)
    return cells


def test_guard_overhead_is_zero_honest_bits(cells):
    """Arming the guards leaves honest executions byte-identical."""
    off, on = cells["guards off"], cells["guards on"]
    assert on["honest_bits"] == off["honest_bits"]
    assert on["rounds"] == off["rounds"]
    assert on["output"] == off["output"]


@pytest.mark.parametrize("bomb", sorted(BOMB_CATALOG))
def test_pi_z_survives_bomb(cells, bomb):
    """Every bomb family is quarantined; honest cost stays on budget
    (convex validity is asserted in ``run_cell``)."""
    assert cells[bomb]["honest_bits"] > 0


def test_rejected_bits_never_count_as_honest(cells):
    """The blob bomb's rejected volume dwarfs -- and never taints --
    the honest ``BITS_l`` accounting."""
    cell = cells["blob accounting"]
    assert cell["quarantined_messages"] > 0
    assert cell["rejected_bits"] > 0
