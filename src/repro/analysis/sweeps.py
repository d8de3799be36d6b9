"""Parallel parameter-grid sweeps and the ``BENCH_sweep.json`` document.

The paper's headline claim -- ``O(ln + kappa n^2 log^2 n)`` bits for
``FixedLengthCA`` -- is a statement about a *grid*: cost as a function
of ``n`` and ``ell``.  This module turns a declarative :class:`GridSpec`
into measurements via the process-pool engine
(:mod:`repro.sim.parallel`) and serialises the result as a
machine-readable sweep document: the ``sweep`` spec and the ``grid`` of
deterministic protocol costs (bits, rounds, messages, outputs).  It is
byte-identical for the same spec regardless of worker count, host, or
scheduling -- ``tests/test_parallel.py`` asserts exactly this, and CI
diffs a pooled run against the committed reference.  No wall clock is
taken: that is ``perfbench/``'s.

``python -m repro sweep --bench-json BENCH_sweep.json`` is the CLI
surface; ``benchmarks/BENCH_sweep.json`` records a reference run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError
from ..sim.parallel import run_many
from .experiments import Measurement, measure_case, output_text

__all__ = [
    "SWEEP_FORMAT",
    "GridSpec",
    "run_grid",
    "grid_record",
    "sweep_document",
    "save_sweep_document",
]

SWEEP_FORMAT = "repro-sweep/1"


@dataclass(frozen=True)
class GridSpec:
    """One declarative sweep: a protocol over an ``ns x ells`` grid."""

    protocol: str
    ns: tuple[int, ...]
    ells: tuple[int, ...]
    t: int | None = None
    kappa: int = 128
    seed: int = 0
    spread: str = "clustered"

    def __post_init__(self) -> None:
        from ..sim.registry import standard_registry

        protocols = standard_registry()
        if self.protocol not in protocols:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(protocols)}"
            )
        if not self.ns or not self.ells:
            raise ValueError("grid needs at least one n and one ell")

    def jobs(self) -> list[dict]:
        """The grid points as :func:`measure_case` payloads, row-major."""
        return [
            {
                "protocol": self.protocol,
                "n": n,
                "t": self.t,
                "ell": ell,
                "kappa": self.kappa,
                "seed": self.seed,
                "spread": self.spread,
            }
            for n in self.ns
            for ell in self.ells
        ]

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "ns": list(self.ns),
            "ells": list(self.ells),
            "t": self.t,
            "kappa": self.kappa,
            "seed": self.seed,
            "spread": self.spread,
        }


def run_grid(
    spec: GridSpec,
    workers: int | str | None = 1,
    timeout_s: float | None = None,
) -> list[Measurement]:
    """Execute every grid point; returns the measurements.

    Measurements come back in the spec's row-major job order.  A grid
    point that fails (crash, timeout, protocol exception) aborts the
    sweep with a :class:`RuntimeError` naming the point -- a sweep with
    holes would silently skew fitted exponents -- or, when the protocol
    refused the point's parameters, a :class:`ConfigurationError`.
    """
    jobs = spec.jobs()
    outcomes = run_many(
        measure_case, jobs, workers=workers, timeout_s=timeout_s
    )
    failed = [o for o in outcomes if not o.ok]
    if failed:
        worst = failed[0]
        point = jobs[worst.index]
        where = f"grid point n={point['n']} ell={point['ell']}"
        if worst.error_type == "ConfigurationError":
            reason = worst.error.split("\n", 1)[0].split(": ", 1)[1]
            raise ConfigurationError(f"{where}: {reason}")
        raise RuntimeError(
            f"sweep failed at {where} "
            f"({len(failed)} failure(s)): {worst.error}"
        )
    return [outcome.value for outcome in outcomes]


def grid_record(measurement: Measurement) -> dict:
    """The deterministic JSON record of one measurement.

    The one writer: sweep documents and the ``benchmarks/`` documents
    all hold these fields.
    """
    return {
        "protocol": measurement.protocol,
        "n": measurement.n,
        "t": measurement.t,
        "ell": measurement.ell,
        "kappa": measurement.kappa,
        "bits": measurement.bits,
        "rounds": measurement.rounds,
        "messages": measurement.messages,
        # outputs may exceed JSON float precision; keep them as strings.
        "output": output_text(measurement.output),
    }


def sweep_document(spec: GridSpec, measurements: list[Measurement]) -> dict:
    """Assemble the ``BENCH_sweep.json`` document for one executed sweep."""
    return {
        "format": SWEEP_FORMAT,
        "sweep": spec.to_dict(),
        "grid": [grid_record(m) for m in measurements],
    }


def save_sweep_document(document: dict, path: str | Path) -> str:
    """Write a sweep document; returns the path written."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return str(target)
