"""F3 -- adversarial robustness of the communication bound.

Section 1 observes that prior CA protocols' communication is
*adversarially chosen* -- honest parties forward messages sent by
corrupted parties, so byzantine behaviour inflates honest cost.  The
paper's protocol never forwards unauthenticated byzantine blobs: honest
parties only ship (a) their own values' segments, (b) Merkle-verified
codewords, (c) constant-size votes.

Checks: across the full adversary battery the honest communication of
``PI_Z`` stays within a constant factor of the passive-adversary run,
and Convex Validity holds in every cell.
"""

from __future__ import annotations

from repro.analysis import Measurement
from repro.core.protocol_z import protocol_z
from repro.sim import run_protocol, standard_adversary_suite

from conftest import measurement, record

N, T = 7, 2
ELL = 4096


def run_under(adversary) -> Measurement:
    base = 1 << (ELL - 1)
    inputs = [base + 1000 * i for i in range(N)]
    result = run_protocol(
        lambda ctx, v: protocol_z(ctx, v), inputs, n=N, t=T, kappa=128,
        adversary=adversary,
    )
    return measurement(
        result, protocol="pi_z", n=N, t=T, ell=ELL,
        output=result.assert_convex_valid(inputs),
    )


def test_adversary_cannot_inflate_honest_bits():
    """Worst adversary / passive baseline bit ratio stays constant."""
    baseline = record("F3", "passive", run_under(None))
    worst = max(
        record("F3", adversary.describe(), run_under(adversary)).bits
        for adversary in standard_adversary_suite(seed=31)
    )
    # Byzantine behaviour may change the FindPrefix path (bottom vs
    # agree), shifting cost by small constants -- never by factors of n.
    assert worst / baseline.bits < 3.0
