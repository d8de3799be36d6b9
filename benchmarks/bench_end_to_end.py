"""T5 -- Theorem 5 / Corollaries 1-2: end-to-end ``PI_N`` / ``PI_Z``.

The paper's headline: ``BITS_l(PI_Z) = O(l n + kappa n^2 log^2 n)`` and
``ROUNDS_l(PI_Z) = O(n log n)`` (with a quadratic ``PI_BA``).

Checks: marginal bits per extra input bit ~ n; near-linear fitted
exponent in ``l``; rounds bounded by ``c * n log n`` across the n-sweep.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import fit_power_law, marginal_slope, measure

from conftest import record

N, T = 7, 2
ELLS = [256, 1024, 4096, 16384, 65536]
NS = [(4, 1), (7, 2), (10, 3), (13, 4)]


def run(protocol: str, n: int, t: int, ell: int):
    return measure(protocol, n, t, ell, seed=4, spread="clustered")


@pytest.fixture(scope="module")
def by_ell():
    return [record("T5", f"ell={ell}", run("pi_z", N, T, ell)) for ell in ELLS]


def test_pi_z_marginal_slope_is_order_n(by_ell):
    """The headline number: each extra input bit costs ~n bits total."""
    top = by_ell[-2:]  # ell = 16384, 65536
    slope = marginal_slope([m.ell for m in top], [m.bits for m in top])
    # Theta(n): allow [n/2, 6n] for protocol constants (the value
    # traverses the network a small constant number of times).
    assert N / 2 <= slope <= 6 * N, slope


def test_pi_z_near_linear_in_ell(by_ell):
    tail = by_ell[1:]
    exponent, _ = fit_power_law([m.ell for m in tail], [m.bits for m in tail])
    assert exponent < 1.25


def test_pi_n_matches_pi_z_on_naturals(by_ell):
    """PI_Z adds only one bit-BA on top of PI_N."""
    pi_z = by_ell[ELLS.index(4096)]
    pi_n = record("T5", "pi_n ell=4096", run("pi_n", N, T, 4096))
    assert pi_z.bits - pi_n.bits < 0.05 * pi_n.bits


@pytest.mark.parametrize("n,t", NS)
def test_pi_z_vs_n(n, t):
    m = record("T5", f"n={n}", run("pi_z", n, t, 4096))
    # Rounds O(n log n): generous constant, checked across the sweep.
    assert m.rounds <= 60 * n * math.log2(max(2, n))
