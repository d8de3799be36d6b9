"""F5 -- the open-problem setting: CA with ``t < n/2`` under setup.

Section 8 asks whether communication-optimal CA extends to ``t < n/2``
with cryptographic setup.  We measure the feasibility-grade protocol
(Dolev-Strong views + adaptive trimming, :mod:`repro.authenticated`):

* it tolerates a full minority (configs with ``n/3 <= t < n/2`` that
  the plain-model stack provably rejects),
* its communication is far from the plain-model optimum -- quantifying
  the gap the open problem asks to close.
"""

from __future__ import annotations

import pytest

from repro.analysis import Measurement
from repro.authenticated import authenticated_ca
from repro.core.protocol_z import protocol_z
from repro.crypto.signatures import SignatureScheme
from repro.sim import run_protocol

from conftest import measurement, record

KAPPA = 128
CONFIGS = [(3, 1), (5, 2), (7, 3), (9, 4)]


def make_inputs(n: int, ell: int) -> list[int]:
    base = 1 << (ell - 1)
    return [base + 17 * i for i in range(n)]


def run_auth_ca(n: int, t: int, ell: int) -> Measurement:
    scheme = SignatureScheme(KAPPA, n, seed=b"bench")
    inputs = make_inputs(n, ell)
    result = run_protocol(
        lambda ctx, v: authenticated_ca(ctx, v, scheme),
        inputs, n=n, t=t, kappa=KAPPA,
    )
    out = result.common_output()
    honest = [inputs[p] for p in range(n) if p not in result.corrupted]
    assert min(honest) <= out <= max(honest)
    return measurement(
        result, protocol="authenticated_ca", n=n, t=t, ell=ell, kappa=KAPPA,
        output=out,
    )


@pytest.mark.parametrize("n,t", CONFIGS)
def test_auth_ca_minority_configs(n, t):
    m = record("F5", f"n={n},t={t}", run_auth_ca(n, t, 1024))
    # exactly n Dolev-Strong instances of t+1 rounds each:
    assert m.rounds == n * (t + 1)


@pytest.fixture(scope="module")
def by_ell():
    return {
        ell: record("F5", f"ell={ell}", run_auth_ca(7, 3, ell))
        for ell in (256, 4096)
    }


def test_auth_ca_vs_ell(by_ell):
    assert all(m.bits > 0 for m in by_ell.values())


def test_gap_to_plain_model_optimum(by_ell):
    """The open problem, quantified: at equal (n, ell) the t < n/2
    protocol pays a large factor over the paper's t < n/3 protocol."""
    ell = 4096
    result = run_protocol(
        lambda ctx, v: protocol_z(ctx, v), make_inputs(7, ell), n=7, t=2,
        kappa=KAPPA,
    )
    plain = record(
        "F5", "plain-model pi_z (t=2)",
        measurement(
            result, protocol="pi_z", n=7, t=2, ell=ell, kappa=KAPPA,
            output=result.common_output(),
        ),
    )
    ratio = by_ell[ell].bits / plain.bits
    assert ratio > 2, "the feasibility protocol should be clearly costlier"
