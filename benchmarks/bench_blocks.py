"""T4 -- Theorem 4: ``FixedLengthCABlocks`` costs ``O(l n + kappa n^2 log^2 n)``
for very long inputs (``l >= n^2``), with ``O(log n)`` search iterations.

Checks: bits near-linear in ``l`` over a long-input sweep; iteration
count bounded by ``O(log n)`` independent of ``l`` (visible as a flat
round count across the ``l`` sweep up to the AddLastBlock term).
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_power_law, measure

from conftest import record

N, T = 7, 2
# long inputs: all well above n^2 = 49 bits
ELLS = [1960, 7840, 31360, 125440]  # multiples of n^2 = 49


@pytest.fixture(scope="module")
def by_ell():
    return [
        record(
            "T4", f"ell={ell}",
            measure("fixed_length_ca_blocks", N, T, ell, seed=3,
                    spread="clustered"),
        )
        for ell in ELLS
    ]


def test_blocks_linear_in_ell(by_ell):
    tail = by_ell[1:]
    exponent, _ = fit_power_law([m.ell for m in tail], [m.bits for m in tail])
    assert exponent < 1.25


def test_blocks_rounds_independent_of_ell(by_ell):
    """O(log n) iterations regardless of l: rounds flat across a 64x
    increase in input length."""
    small, large = by_ell[0], by_ell[-1]
    assert large.rounds <= 1.5 * small.rounds
