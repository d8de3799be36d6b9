"""T1 -- Theorem 1: ``PI_lBA+`` communication is ``O(l n + kappa n^2 log n)``.

Checks: total honest bits grow *linearly* in the payload length ``l``
(fitted exponent close to 1 over the sweep tail), and the additive term
is payload-independent (the bottom-outcome run stays flat in ``l``).
"""

from __future__ import annotations

import pytest

from repro.analysis import Measurement, fit_power_law
from repro.ba.ext_ba_plus import ext_ba_plus
from repro.sim import run_protocol

from conftest import measurement, record

KAPPA = 128
N, T = 7, 2

ELLS = [512, 2048, 8192, 32768]  # payload lengths in bits


def run_ext_ba(ell: int, agreeing: bool) -> Measurement:
    size = ell // 8
    if agreeing:
        inputs = [bytes([7]) * size] * N
    else:
        inputs = [bytes([i + 1]) * size for i in range(N)]
    result = run_protocol(
        lambda ctx, v: ext_ba_plus(ctx, v), inputs, n=N, t=T, kappa=KAPPA
    )
    return measurement(
        result, protocol="ext_ba_plus" + ("" if agreeing else "(bottom)"),
        n=N, t=T, ell=ell, kappa=KAPPA, output=result.common_output(),
    )


@pytest.fixture(scope="module")
def agreeing():
    return [record("T1", f"ell={ell}", run_ext_ba(ell, True)) for ell in ELLS]


def test_ext_ba_agrees_on_the_payload(agreeing):
    assert all(m.output is not None for m in agreeing)


def test_ext_ba_linear_in_ell(agreeing):
    """The fitted bits-vs-ell exponent over the sweep tail is ~1."""
    # drop the smallest point where the kappa*n^2 additive term dominates
    tail = agreeing[1:]
    exponent, _ = fit_power_law([m.ell for m in tail], [m.bits for m in tail])
    assert exponent < 1.3, f"super-linear growth in l: {exponent:.2f}"


def test_ext_ba_bottom_flat_in_ell():
    """When PI_BA+ returns bottom no payload crosses the wire, so the
    cost must be (nearly) independent of l."""
    small, large = (
        record("T1", f"bottom ell={ell}", run_ext_ba(ell, False))
        for ell in (512, 32768)
    )
    assert large.output is None
    assert large.bits < 1.2 * small.bits
