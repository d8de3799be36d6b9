"""F2 -- ablations on the paper's design choices.

1. **Bit vs block granularity** (Section 4's motivation): for long
   inputs the block search needs ``O(log n)`` instead of ``O(log l)``
   ``PI_lBA+`` iterations, cutting rounds and the per-iteration additive
   ``kappa n^2 log n`` overhead.
2. **Security parameter**: the additive term scales with ``kappa``; the
   payload term does not.
3. **Workload spread**: identical inputs short-circuit (FindPrefix
   agrees everywhere, no GetOutput), clustered inputs sit in between,
   fully spread inputs are the adversarial-ish worst case.
"""

from __future__ import annotations

import pytest

from repro.analysis import measure

from conftest import record

N, T = 7, 2
ELL = 12544  # multiple of n^2 = 49, comfortably "very long"


def test_bit_vs_block_granularity():
    bits, blocks = (
        record(
            "F2", f"granularity={granularity}",
            measure(protocol, N, T, ELL, seed=6, spread="clustered"),
        )
        for granularity, protocol in (
            ("bit", "fixed_length_ca"), ("block", "fixed_length_ca_blocks"),
        )
    )
    # Section 4's point: fewer iterations -> fewer rounds for long inputs.
    assert blocks.rounds < bits.rounds


@pytest.mark.parametrize("kappa", [64, 128, 256])
def test_kappa_scaling(kappa):
    m = record(
        "F2", f"kappa={kappa}",
        measure("pi_z", N, T, 1024, kappa=kappa, seed=6, spread="clustered"),
    )
    assert m.bits > 0


def test_kappa_hits_additive_term_only():
    """Quadrupling kappa must not quadruple the l-dependent cost."""
    small, large = (
        record(
            "F2", f"kappa={kappa} ell=32768",
            measure("pi_z", N, T, 32768, kappa=kappa, seed=6,
                    spread="clustered"),
        )
        for kappa in (64, 256)
    )
    assert large.bits / small.bits < 3.0  # far below 4x: l*n is kappa-free


@pytest.mark.parametrize("spread", ["identical", "clustered", "spread"])
def test_workload_spread(spread):
    m = record(
        "F2", f"spread={spread}",
        measure("pi_z", N, T, 4096, seed=6, spread=spread),
    )
    assert m.bits > 0
