"""F4 -- companion experiment: Approximate Agreement vs Convex Agreement.

Section 1.1 frames CA against its classic relaxation, AA [16]: AA's
outputs may differ by eps, and its communication grows with
``log(range/eps)`` full-value exchange rounds (``O(l n^2)`` each), while
CA pays a fixed ``O(l n + poly(n, kappa))`` for exact agreement.

Checks: AA cost increases as eps shrinks; the AA-vs-CA cost curves
cross; CA's spread is exactly zero while AA's measured spread respects
(and tracks) eps.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.aa import approximate_agreement
from repro.analysis import Measurement
from repro.core.protocol_z import protocol_z
from repro.sim import run_protocol

from conftest import measurement, record

N, T = 7, 2
BOUND = 1 << 24
INPUTS = [1_000_000 * (i + 1) for i in range(N)]


def run_aa(eps_exponent: int) -> Measurement:
    epsilon = Fraction(2) ** eps_exponent
    result = run_protocol(
        lambda ctx, v: approximate_agreement(ctx, v, epsilon, BOUND),
        INPUTS, n=N, t=T,
    )
    outputs = list(result.outputs.values())
    spread = max(outputs) - min(outputs)
    assert spread <= epsilon
    return record(
        "F4", f"aa eps=2^{eps_exponent}",
        measurement(
            result, protocol=f"aa(eps=2^{eps_exponent})", n=N, t=T,
            ell=BOUND.bit_length(), output=float(spread),
        ),
    )


@pytest.fixture(scope="module")
def aa():
    """eps exponent -> the AA run at ``eps = 2^exponent``."""
    return {exponent: run_aa(exponent) for exponent in (16, 8, 0, -8, -16)}


@pytest.fixture(scope="module")
def ca():
    result = run_protocol(
        lambda ctx, v: protocol_z(ctx, v), INPUTS, n=N, t=T, kappa=128
    )
    assert len(set(result.outputs.values())) == 1
    return record(
        "F4", "pi_z (exact)",
        measurement(
            result, protocol="pi_z", n=N, t=T, ell=BOUND.bit_length(),
            output=0,
        ),
    )


def test_ca_fixed_cost(ca):
    assert ca.output == 0


def test_aa_cost_monotone_in_precision(aa):
    coarse, mid, fine = aa[16], aa[0], aa[-16]
    assert coarse.bits < mid.bits < fine.bits
    # each halving of eps adds one full-exchange round:
    per_octave_coarse = (mid.bits - coarse.bits) / 16
    per_octave_fine = (fine.bits - mid.bits) / 16
    assert per_octave_fine > 0.5 * per_octave_coarse


def test_curves_cross(aa, ca):
    """Coarse AA is cheaper than CA; sufficiently fine AA is costlier."""
    assert aa[16].bits < ca.bits < run_aa(-320).bits
