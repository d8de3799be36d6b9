"""T2 -- Theorem 2: ``FixedLengthCA`` costs ``O(l n + kappa n^2 log n log l)``
bits and ``O(log l) * ROUNDS(PI_BA)`` rounds.

Checks: bits scale ~linearly in ``l`` for large ``l``; rounds scale
logarithmically in ``l`` (ratio across a 64x ``l`` increase stays small).
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_power_law, measure

from conftest import record

N, T = 7, 2
ELLS = [256, 1024, 4096, 16384]


def run(n: int, t: int, ell: int):
    return measure("fixed_length_ca", n, t, ell, seed=1, spread="clustered")


@pytest.fixture(scope="module")
def by_ell():
    return [record("T2", f"ell={ell}", run(N, T, ell)) for ell in ELLS]


def test_fixed_length_ca_rounds_logarithmic(by_ell):
    # O(log l) iterations: 64x longer inputs -> rounds grow by at most
    # the iteration-count ratio log(16384)/log(256) = 14/8 (plus slack).
    small, large = by_ell[0], by_ell[-1]
    assert large.rounds / small.rounds < 2.5


def test_fixed_length_ca_bits_near_linear_tail(by_ell):
    tail = by_ell[1:]
    exponent, _ = fit_power_law([m.ell for m in tail], [m.bits for m in tail])
    # log-factor on the additive term allows mild super-linearity
    assert exponent < 1.4


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
def test_fixed_length_ca_vs_n(n, t):
    assert record("T2", f"n={n}", run(n, t, 1024)).rounds > 0
