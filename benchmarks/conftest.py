"""The deterministic experiment suite: ``benchmarks/BENCH_experiments.json``.

Every module here regenerates one experiment of DESIGN.md's index
(T1-T6, F1-F8) as plain pytest tests: it measures the quantities the
paper bounds -- honest bits and rounds, pure functions of ``(n, t, ell,
seed)`` -- asserts the paper's claim on them and hands every measured
row to :func:`record`.  A sweep that several claims read is measured
once, in a module-scoped fixture.  At the end of the session the rows
are written, sorted and timing-free, to the committed
``BENCH_experiments.json`` that EXPERIMENTS.md quotes (a session that
ran some modules replaces only their sections) and printed through the
renderer ``repro report`` reads that document with.

    pytest benchmarks/ -q

No wall clock is taken here: that is ``perfbench/``'s.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    EXPERIMENTS_SCHEMA,
    Measurement,
    format_experiments,
    grid_record,
)
from repro.analysis.experiments import output_digest
from repro.perf.profile import save_document

DOCUMENT = Path(__file__).with_name("BENCH_experiments.json")

#: experiment id -> label -> Measurement, in the order measured.
_ROWS: dict[str, dict[str, Measurement]] = {}


def record(experiment: str, label: str, measurement: Measurement) -> Measurement:
    """Register one measured row of ``experiment``; returns it."""
    rows = _ROWS.setdefault(experiment, {})
    assert label not in rows, f"{experiment}: {label!r} measured twice"
    rows[label] = measurement
    return measurement


def measurement(
    result, *, protocol: str, n: int, t: int, ell: int, output,
    kappa: int = 128,
) -> Measurement:
    """The paper's metrics of one ``run_protocol``-style result."""
    return Measurement(
        protocol=protocol, n=n, t=t, ell=ell, kappa=kappa,
        bits=result.stats.honest_bits,
        rounds=result.stats.rounds,
        messages=result.stats.honest_messages,
        output=output,
    )


def _records() -> dict[str, dict[str, dict]]:
    """This session's rows as the document's records, in measured order."""
    sections = {}
    for experiment, rows in _ROWS.items():
        section = sections[experiment] = {}
        for label, m in rows.items():
            row = section[label] = grid_record(m)
            # a digest pins the agreed value without carrying ell bits.
            del row["output"]
            row["output_sha256"] = output_digest(m.output)
    return sections


def pytest_sessionfinish(session):
    """Replace the sections this session measured in the document."""
    if not _ROWS:
        return
    document = json.loads(DOCUMENT.read_text()) if DOCUMENT.exists() else {}
    document["schema"] = EXPERIMENTS_SCHEMA
    document.update(_records())
    save_document(document, str(DOCUMENT))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    """Print the per-experiment tables after the session."""
    if not _ROWS:
        return
    tr = terminalreporter
    tr.write_sep("=", "experiment tables (paper metrics: bits & rounds)")
    tr.write_line("")
    tr.write_line(format_experiments(_records()))
