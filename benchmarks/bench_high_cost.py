"""T3 -- Theorem 3: ``HighCostCA`` costs ``O(l n^3)`` bits, ``O(n)`` rounds.

Checks: bits are linear in ``l`` with a ~n^3 coefficient (cubic growth
across the n-sweep), rounds are exactly ``2 + 4 (t + 1)``.
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_power_law, measure

from conftest import record

ELLS = [256, 1024, 4096]
NS = [(4, 1), (7, 2), (10, 3), (13, 4)]


def test_high_cost_linear_in_ell():
    ms = [
        record("T3", f"ell={ell}", measure("high_cost_ca", 7, 2, ell, seed=2))
        for ell in ELLS
    ]
    exponent, _ = fit_power_law([m.ell for m in ms], [m.bits for m in ms])
    assert 0.8 < exponent < 1.2


@pytest.mark.parametrize("n,t", NS)
def test_high_cost_rounds_vs_n(n, t):
    m = record("T3", f"n={n}", measure("high_cost_ca", n, t, 1024, seed=2))
    # Theorem 3 round complexity, exactly as implemented:
    assert m.rounds == 2 + 4 * (t + 1)


def test_high_cost_cubic_in_n():
    ms = [
        record(
            "T3", f"n={n} ell=2048",
            measure("high_cost_ca", n, t, 2048, seed=2),
        )
        for n, t in NS
    ]
    exponent, _ = fit_power_law([m.n for m in ms], [m.bits for m in ms])
    # O(l n^3) via t+1 ~ n/3 phases of n^2 value-exchanges
    assert 2.3 < exponent < 4.2
