"""Plain-text table rendering for benches, examples and ``repro report``."""

from __future__ import annotations

from typing import Any, Iterable

__all__ = [
    "EXPERIMENTS_SCHEMA",
    "format_table",
    "format_measurements",
    "format_experiments",
]

#: the ``schema`` tag of ``benchmarks/BENCH_experiments.json``.
EXPERIMENTS_SCHEMA = "repro.bench_experiments/v1"


def format_table(
    headers: list[str], rows: Iterable[Iterable[Any]], title: str = ""
) -> str:
    """Render an aligned, pipe-separated text table."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: list[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("-+-".join("-" * w for w in widths))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_measurements(measurements, title: str = "") -> str:
    """Render a list of :class:`~repro.analysis.experiments.Measurement`."""
    headers = ["protocol", "n", "t", "ell", "bits", "bits/party", "rounds"]
    rows = [
        [
            m.protocol,
            m.n,
            m.t,
            m.ell,
            m.bits,
            m.bits_per_party,
            m.rounds,
        ]
        for m in measurements
    ]
    return format_table(headers, rows, title=title)


def format_experiments(sections: dict[str, dict[str, dict]]) -> str:
    """Render ``BENCH_experiments.json`` records, one table per section.

    ``sections`` maps an experiment id to its ``{case: record}`` rows as
    the document holds them; sections print in id order, rows in the
    order given.  ``repro report`` and the ``pytest benchmarks/``
    terminal summary both print through here.
    """
    tables = []
    for experiment in sorted(sections):
        rows = [
            [case, r["protocol"], r["n"], r["ell"], r["bits"],
             round(r["bits"] / max(1, r["n"] - r["t"])), r["rounds"]]
            for case, r in sections[experiment].items()
        ]
        tables.append(format_table(
            ["case", "protocol", "n", "ell", "bits", "bits/party",
             "rounds"],
            rows,
            title=f"[{experiment}]",
        ))
    return "\n\n".join(tables)
