"""T6 -- Theorem 6: ``PI_BA+`` costs ``O(kappa n^2) + BITS_kappa(PI_BA)``
and its extra properties hold under attack.

Checks: quadratic-ish growth in ``n`` (the phase-king ``PI_BA`` term
adds one factor ~t), kappa-linear growth, and Intrusion Tolerance /
Bounded Pre-Agreement verified inside the benchmark loop under the
standard adversary battery.
"""

from __future__ import annotations

import pytest

from repro.analysis import Measurement, fit_power_law
from repro.ba.ba_plus import ba_plus
from repro.sim import run_protocol, standard_adversary_suite

from conftest import measurement, record

NS = [(4, 1), (7, 2), (10, 3), (13, 4)]
KAPPAS = [64, 128, 256]


def run_ba_plus(n, t, kappa, adversary=None, pre_agree=True) -> Measurement:
    size = kappa // 8
    if pre_agree:
        inputs = [bytes([1]) * size] * (n - 2 * t) + [
            bytes([10 + i]) * size for i in range(2 * t)
        ]
    else:
        inputs = [bytes([i + 1]) * size for i in range(n)]
    result = run_protocol(
        lambda ctx, v: ba_plus(ctx, v), inputs, n=n, t=t, kappa=kappa,
        adversary=adversary,
    )
    out = result.common_output()
    honest = {inputs[p] for p in range(n) if p not in result.corrupted}
    # Intrusion Tolerance (always) + Bounded Pre-Agreement (pre_agree):
    assert out is None or out in honest
    if pre_agree:
        assert out is not None
    return measurement(
        result, protocol="ba_plus", n=n, t=t, ell=kappa, kappa=kappa,
        output=out,
    )


def test_ba_plus_growth_in_n():
    ms = [record("T6", f"n={n}", run_ba_plus(n, t, 128)) for n, t in NS]
    exponent, _ = fit_power_law([m.n for m in ms], [m.bits for m in ms])
    # O(kappa n^2) + phase-king O(kappa n^2 t): between n^2 and n^3.5
    assert 1.7 < exponent < 3.7


@pytest.mark.parametrize("kappa", KAPPAS)
def test_ba_plus_vs_kappa(kappa):
    m = record("T6", f"kappa={kappa}", run_ba_plus(7, 2, kappa))
    assert m.bits > 0


def test_ba_plus_properties_under_attack():
    """Re-verify IT + BPA (asserted in ``run_ba_plus``) under the whole
    adversary battery, with and without honest pre-agreement."""
    ms = [
        record(
            "T6", f"{adversary.describe()} {inputs}",
            run_ba_plus(
                7, 2, 128, adversary=adversary,
                pre_agree=inputs == "pre-agreement",
            ),
        )
        for adversary in standard_adversary_suite(seed=23)
        for inputs in ("pre-agreement", "spread")
    ]
    assert len(ms) == 2 * len(standard_adversary_suite())
