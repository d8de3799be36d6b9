"""ASCII chart and measurement-storage tests."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Measurement,
    ascii_chart,
    load_measurements,
    save_measurements,
    series_chart,
)


def make_measurement(protocol="p", ell=100, bits=1000, **kwargs):
    defaults = dict(
        protocol=protocol, n=4, t=1, ell=ell, kappa=64, bits=bits,
        rounds=10, messages=20, output=5,
    )
    defaults.update(kwargs)
    return Measurement(**defaults)


class TestAsciiChart:
    def test_basic_render(self):
        chart = ascii_chart(
            [1, 10, 100],
            {"linear": [1, 10, 100], "quadratic": [1, 100, 10000]},
            width=30, height=8,
        )
        assert "o = linear" in chart
        assert "x = quadratic" in chart
        assert chart.count("\n") >= 8

    def test_markers_placed(self):
        chart = ascii_chart([1, 100], {"s": [1, 100]}, width=20, height=5)
        assert "o" in chart

    def test_overlap_marker(self):
        chart = ascii_chart(
            [1, 100], {"a": [1, 100], "b": [1, 100]}, width=20, height=5
        )
        assert "?" in chart

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_chart([], {}, width=10, height=5)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ascii_chart([0, 1], {"s": [1, 2]})
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"s": [0, 2]})

    def test_series_chart_from_measurements(self):
        series = {
            "pi_z": [make_measurement(ell=100, bits=1000),
                     make_measurement(ell=1000, bits=5000)],
            "base": [make_measurement(ell=100, bits=2000),
                     make_measurement(ell=1000, bits=50000)],
        }
        chart = series_chart(series)
        assert "honest bits" in chart
        assert "ell (input bits)" in chart

    def test_series_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            series_chart({})


class TestStorage:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.json"
        originals = [
            make_measurement(protocol="pi_z", ell=256, bits=1234,
                             channel_bits={"a/b": 7}),
            make_measurement(protocol="base", ell=512, bits=9999),
        ]
        save_measurements(path, originals)
        loaded = load_measurements(path)
        assert len(loaded) == 2
        assert loaded[0].protocol == "pi_z"
        assert loaded[0].bits == 1234
        assert loaded[0].channel_bits == {"a/b": 7}
        assert loaded[1].ell == 512

    def test_roundtrip_keeps_every_output_kind(self, tmp_path):
        """Int outputs load back as the same ints whatever their length
        (decimal in the file up to 4096 bits, as every committed document
        holds them, hex beyond); any other output comes back as text."""
        path = tmp_path / "run.json"
        outputs = [-7, (1 << 4096) - 1, 1 << 4096, -(1 << 70000), None, b"x"]
        save_measurements(path, [make_measurement(output=o) for o in outputs])
        loaded = [m.output for m in load_measurements(path)]
        assert loaded == outputs[:4] + ["None", "b'x'"]
        text = path.read_text()
        assert str((1 << 4096) - 1) in text and hex(1 << 4096) in text

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other", "measurements": []}')
        with pytest.raises(ValueError):
            load_measurements(path)

    def test_not_json_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_measurements(path)

    def test_empty_document(self, tmp_path):
        path = tmp_path / "empty.json"
        save_measurements(path, [])
        assert load_measurements(path) == []


class TestCliIntegration:
    def test_sweep_save(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "sweep.json"
        code = main([
            "sweep", "--protocol", "high_cost_ca", "--n", "4",
            "--ells", "64,128", "--save", str(target),
        ])
        assert code == 0
        loaded = load_measurements(target)
        assert [m.ell for m in loaded] == [64, 128]

    def test_sweep_saves_values_past_the_decimal_limit(self, tmp_path, capsys):
        """ell = 16384 and 65536 are the paper's regime and past CPython's
        4300-digit int->str limit: ``--save`` and ``--bench-json`` write
        them (in hex) and the saved run loads back to the same ints."""
        import json

        from repro.analysis import grid_record, measure
        from repro.cli import main

        saved, document = tmp_path / "run.json", tmp_path / "bench.json"
        code = main([
            "sweep", "--protocol", "pi_z", "--ns", "4",
            "--ells", "16384,65536", "--save", str(saved),
            "--bench-json", str(document),
        ])
        assert code == 0
        measured = [
            measure("pi_z", 4, None, ell, seed=0, spread="clustered")
            for ell in (16384, 65536)
        ]
        assert measured[1].output.bit_length() > 4300 * 4
        assert load_measurements(saved) == measured
        grid = json.loads(document.read_text())["grid"]
        assert grid == [grid_record(m) for m in measured]
        assert [int(row["output"], 0) for row in grid] == [
            m.output for m in measured
        ]

    def test_compare_save_past_the_decimal_limit(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "compare.json"
        code = main([
            "compare", "--n", "4", "--ells", "16384",
            "--protocols", "pi_z", "--save", str(target),
        ])
        assert code == 0
        (loaded,) = load_measurements(target)
        assert loaded.output.bit_length() > 14284

    def test_compare_chart(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "--n", "4", "--ells", "128,512",
            "--protocols", "high_cost_ca", "--chart",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "log scale" in out
