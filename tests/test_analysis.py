"""Analysis-harness tests: cost terms, fitting, sweeps, tables."""

from __future__ import annotations

import pytest

from repro import costs
from repro.analysis import (
    comparison_series,
    fit_power_law,
    format_measurements,
    format_table,
    make_inputs,
    marginal_slope,
    measure,
    sweep_ell,
)
from repro.analysis.experiments import output_text
from repro.sim.fuzz import standard_registry


class TestFitting:
    def test_fit_power_law_exact(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [3 * x**2 for x in xs]
        exponent, r2 = fit_power_law(xs, ys)
        assert abs(exponent - 2.0) < 1e-9
        assert r2 > 0.999999

    def test_fit_power_law_linear(self):
        xs = [10, 100, 1000]
        ys = [5 * x for x in xs]
        exponent, _ = fit_power_law(xs, ys)
        assert abs(exponent - 1.0) < 1e-9

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])

    def test_marginal_slope(self):
        assert marginal_slope([1, 2, 4], [10, 20, 40]) == 10

    def test_marginal_slope_requires_points(self):
        with pytest.raises(ValueError):
            marginal_slope([1], [1])
        with pytest.raises(ValueError):
            marginal_slope([2, 2], [1, 3])


class TestModels:
    def test_models_positive_and_monotone_in_ell(self):
        for model in (
            lambda ell: costs.pi_z(7, 2, ell, 128),
            lambda ell: costs.ext_ba_plus(7, 2, ell, 128),
            lambda ell: costs.broadcast_ca(7, 2, ell, 128),
            lambda ell: costs.high_cost_ca(7, 2, ell, 128),
        ):
            small, large = model(100), model(100000)
            assert 0 < small < large

    def test_model_ordering_for_large_ell(self):
        """For large l the paper's ordering holds:
        PI_Z < broadcast < high-cost."""
        ell = 10**7
        assert (
            costs.pi_z(7, 2, ell, 128)
            < costs.broadcast_ca(7, 2, ell, 128)
            < costs.high_cost_ca(7, 2, ell, 128)
        )

    def test_pi_z_model_slope_is_order_n(self):
        n = 9
        lo = costs.pi_z(n, 2, 10**6, 128)
        hi = costs.pi_z(n, 2, 2 * 10**6, 128)
        slope = (hi - lo) / 10**6
        # leading terms: 2*l*n (prefix search) + l*n (AddLastBlock) = 3n
        assert n <= slope <= 4 * n


class TestWorkloads:
    def test_make_inputs_deterministic(self):
        assert make_inputs(5, 32, seed=3) == make_inputs(5, 32, seed=3)

    def test_make_inputs_length_bound(self):
        for spread in ("spread", "clustered", "identical"):
            values = make_inputs(6, 24, spread=spread)
            assert len(values) == 6
            assert all(0 <= v < 2**24 for v in values)

    def test_identical_spread(self):
        values = make_inputs(5, 16, spread="identical")
        assert len(set(values)) == 1

    def test_clustered_share_prefix(self):
        values = make_inputs(5, 32, spread="clustered")
        assert max(values) - min(values) < 256

    def test_spread_spans_range(self):
        values = make_inputs(5, 32, spread="spread")
        assert max(values) >= 2**31
        assert min(values) < 2**31

    def test_unknown_spread_rejected(self):
        with pytest.raises(ValueError):
            make_inputs(5, 8, spread="nope")


class TestSweeps:
    def test_measure_pi_z(self):
        m = measure("pi_z", 4, None, 64, kappa=64)
        assert m.bits > 0 and m.rounds > 0
        assert m.t == 1
        inputs = make_inputs(4, 64)
        assert min(inputs) <= m.output <= max(inputs)

    def test_measure_all_protocols_run(self):
        for name in standard_registry():
            m = measure(name, 4, None, 32, kappa=64, spread="clustered")
            assert m.bits > 0, name

    def test_sweep_ell_shapes(self):
        rows = sweep_ell("high_cost_ca", 4, [32, 64], kappa=64)
        assert [m.ell for m in rows] == [32, 64]
        assert rows[1].bits > rows[0].bits

    def test_comparison_series(self):
        series = comparison_series(
            ["pi_z", "high_cost_ca"], n=4, ells=[32], kappa=64
        )
        assert set(series) == {"pi_z", "high_cost_ca"}

    def test_bits_per_party(self):
        m = measure("high_cost_ca", 4, 1, 16, kappa=64)
        assert m.bits_per_party == m.bits / 3


class TestTables:
    def test_output_text_reads_back_every_int(self):
        """Int outputs are written decimal up to 4096 bits, as every
        committed document holds them, and hex beyond (CPython refuses
        decimal past 4300 digits); ``int(text, 0)`` reads both back.
        Any other output is its repr."""
        ints = [-7, (1 << 4096) - 1, 1 << 4096, -(1 << 70000)]
        texts = [output_text(value) for value in ints]
        assert [int(text, 0) for text in texts] == ints
        assert texts[1] == str((1 << 4096) - 1)
        assert texts[2] == hex(1 << 4096)
        assert [output_text(None), output_text(b"x")] == ["None", "b'x'"]

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows aligned

    def test_format_measurements(self):
        m = measure("high_cost_ca", 4, 1, 16, kappa=64)
        out = format_measurements([m], title="x")
        assert "high_cost_ca" in out

    def test_float_formatting(self):
        out = format_table(["x"], [[1234.5], [0.12], [0.0]])
        assert "1,23" in out and "0.12" in out
