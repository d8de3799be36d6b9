"""F1 -- the headline comparison: ``PI_Z`` vs the broadcast baselines.

Reproduces the paper's Section 1 story as a measured series: total
honest bits versus input length for

* ``pi_z``               (this paper)          -- ``O(l n)``,
* ``broadcast_ca``       (classic BC approach) -- ``O(l n^2)``,
* ``naive_broadcast_ca`` (pre-extension era)   -- ``O(l n^3)``,
* ``high_cost_ca``       (king-style CA [47])  -- ``O(l n^3)``.

Checks: who wins for large ``l`` (PI_Z), by what factor (~n vs the
broadcast approach), and where the crossover with the cheap-but-cubic
protocols falls.
"""

from __future__ import annotations

import pytest

from repro.analysis import marginal_slope, measure

from conftest import record

N, T = 7, 2
ELLS = [256, 1024, 4096, 16384]
PROTOCOLS = ["pi_z", "broadcast_ca", "naive_broadcast_ca", "high_cost_ca"]


@pytest.fixture(scope="module")
def grid():
    """``(protocol, ell) -> Measurement`` over the whole comparison."""
    return {
        (protocol, ell): record(
            "F1", f"{protocol}@{ell}",
            measure(protocol, N, T, ell, seed=5, spread="spread"),
        )
        for ell in ELLS
        for protocol in PROTOCOLS
    }


def test_pi_z_wins_for_long_inputs(grid):
    """At the top of the sweep the paper's protocol must be cheapest."""
    top = {protocol: grid[protocol, ELLS[-1]].bits for protocol in PROTOCOLS}
    assert all(
        top["pi_z"] < bits for name, bits in top.items() if name != "pi_z"
    ), top


def test_marginal_slopes_ordering(grid):
    """Slopes (bits per extra input bit) must order as n < n^2 <= n^3."""
    ells = (4096, 16384)
    slopes = {
        protocol: marginal_slope(
            ells, [grid[protocol, ell].bits for ell in ells]
        )
        for protocol in PROTOCOLS
    }
    assert slopes["pi_z"] < slopes["broadcast_ca"]
    assert slopes["broadcast_ca"] < slopes["naive_broadcast_ca"]
    assert slopes["broadcast_ca"] < slopes["high_cost_ca"]
    # the gap between PI_Z and the broadcast approach is ~n-fold:
    assert slopes["broadcast_ca"] / slopes["pi_z"] > N / 2
