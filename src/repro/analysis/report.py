"""One-shot experiment report: a quick regeneration of EXPERIMENTS.md.

``generate_report()`` runs a scaled-down version of every experiment in
DESIGN.md's index (T1-T6, F1-F3) and renders the results as plain-text
tables with the fitted shape statistics.  The full-size runs live in
``benchmarks/``; this module exists so that

* ``python -m repro report`` gives a newcomer the whole story in about
  a minute, and
* the tests can assert the report machinery end-to-end without paying
  benchmark-scale runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .experiments import Measurement, comparison_series, measure, sweep_ell
from .predictions import fit_power_law, marginal_slope
from .tables import format_table

__all__ = ["ReportSection", "generate_report", "QUICK", "FULL"]


@dataclass(frozen=True)
class Scale:
    """Sweep sizes for a report run."""

    name: str
    n: int
    t: int
    ells: tuple[int, ...]
    comparison_ells: tuple[int, ...]


QUICK = Scale(
    name="quick", n=4, t=1, ells=(256, 1024, 4096),
    comparison_ells=(512, 4096),
)
FULL = Scale(
    name="full", n=7, t=2, ells=(1024, 4096, 16384),
    comparison_ells=(1024, 16384),
)


@dataclass
class ReportSection:
    experiment: str
    title: str
    table: str
    notes: list[str]

    def render(self) -> str:
        """The section as display-ready text."""
        body = [f"== {self.experiment}: {self.title} ==", self.table]
        body.extend(f"  * {note}" for note in self.notes)
        return "\n".join(body)


def _measurement_rows(ms: list[Measurement]) -> list[list]:
    return [
        [m.protocol, m.n, m.ell, m.bits, round(m.bits_per_party), m.rounds]
        for m in ms
    ]


_HEADERS = ["protocol", "n", "ell", "bits", "bits/party", "rounds"]


def _section_pi_z(scale: Scale) -> ReportSection:
    ms = sweep_ell(
        "pi_z", scale.n, list(scale.ells), t=scale.t, spread="clustered",
        seed=8,
    )
    exponent, r2 = fit_power_law([m.ell for m in ms], [m.bits for m in ms])
    slope = marginal_slope([m.ell for m in ms], [m.bits for m in ms])
    return ReportSection(
        experiment="T5",
        title="end-to-end PI_Z vs input length",
        table=format_table(_HEADERS, _measurement_rows(ms)),
        notes=[
            f"fitted bits ~ ell^{exponent:.2f} (r^2={r2:.3f}); "
            "paper: linear for large ell",
            f"marginal cost {slope:.1f} bits per extra input bit; "
            f"paper: Theta(n) = {scale.n}",
        ],
    )


def _section_comparison(scale: Scale) -> ReportSection:
    protocols = ["pi_z", "broadcast_ca", "high_cost_ca"]
    series = comparison_series(
        protocols, n=scale.n, ells=list(scale.comparison_ells), seed=8,
        spread="spread",
    )
    rows = []
    for protocol in protocols:
        rows.extend(_measurement_rows(series[protocol]))
    notes = []
    for protocol in protocols:
        ms = series[protocol]
        slope = marginal_slope([m.ell for m in ms], [m.bits for m in ms])
        notes.append(f"{protocol}: {slope:.1f} bits per extra input bit")
    notes.append(
        f"paper's prediction: ~n={scale.n}, ~n^2={scale.n ** 2}, "
        f"~n^3={scale.n ** 3}"
    )
    return ReportSection(
        experiment="F1",
        title="PI_Z vs the broadcast baselines",
        table=format_table(_HEADERS, rows),
        notes=notes,
    )


def _section_high_cost(scale: Scale) -> ReportSection:
    ms = sweep_ell("high_cost_ca", scale.n, list(scale.ells), t=scale.t,
                   seed=8)
    exponent, _ = fit_power_law([m.ell for m in ms], [m.bits for m in ms])
    return ReportSection(
        experiment="T3",
        title="HighCostCA (existing-protocol baseline)",
        table=format_table(_HEADERS, _measurement_rows(ms)),
        notes=[
            f"fitted bits ~ ell^{exponent:.2f}; paper: O(l n^3), "
            "linear in l",
            f"rounds = 2 + 4(t+1) = {2 + 4 * (scale.t + 1)} (O(n))",
        ],
    )


def _section_blocks(scale: Scale) -> ReportSection:
    n2 = scale.n * scale.n
    ells = [n2 * k for k in (8, 32, 128)]
    ms = [
        measure(
            "fixed_length_ca_blocks", scale.n, scale.t, ell, seed=8,
            spread="clustered",
        )
        for ell in ells
    ]
    return ReportSection(
        experiment="T4",
        title="FixedLengthCABlocks for very long inputs",
        table=format_table(_HEADERS, _measurement_rows(ms)),
        notes=[
            f"rounds flat across the sweep "
            f"({ms[0].rounds} -> {ms[-1].rounds}): O(log n) iterations",
        ],
    )


_SECTIONS: list[Callable[[Scale], ReportSection]] = [
    _section_pi_z,
    _section_high_cost,
    _section_blocks,
    _section_comparison,
]


def generate_report(scale: Scale = QUICK) -> str:
    """Run the scaled-down experiment battery; return the text report."""
    header = (
        f"Communication-Optimal Convex Agreement -- experiment report "
        f"({scale.name} scale: n={scale.n}, t={scale.t})\n"
        "Full-size sweeps: pytest benchmarks/ -q "
        "(numbers in benchmarks/BENCH_experiments.json)\n"
    )
    sections = [builder(scale).render() for builder in _SECTIONS]
    return "\n\n".join([header] + sections)
