"""Persist measurement sweeps as JSON (and load them back).

Long sweeps are expensive; the CLI's ``--save``/``--load`` options and
the benchmark comparison notebooks use this module to keep reference
runs around.  The format is a plain JSON document with a schema marker,
so saved runs stay diff-able and stable across versions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .experiments import Measurement
from .sweeps import grid_record

__all__ = ["save_measurements", "load_measurements", "SCHEMA"]

SCHEMA = "repro.measurements/v1"


def _from_record(record: dict) -> Measurement:
    output = record.get("output")
    try:
        output = int(output, 0)
    except (TypeError, ValueError):
        pass  # not an integer output: keep the text
    return Measurement(
        protocol=record["protocol"],
        n=record["n"],
        t=record["t"],
        ell=record["ell"],
        kappa=record["kappa"],
        bits=record["bits"],
        rounds=record["rounds"],
        messages=record["messages"],
        output=output,
        channel_bits=dict(record.get("channel_bits", {})),
    )


def save_measurements(
    path: str | Path, measurements: Iterable[Measurement]
) -> None:
    """Write measurements to ``path`` as a JSON document."""
    document = {
        "schema": SCHEMA,
        "measurements": [
            {**grid_record(m), "channel_bits": dict(m.channel_bits)}
            for m in measurements
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_measurements(path: str | Path) -> list[Measurement]:
    """Read measurements back; raises ``ValueError`` on schema mismatch."""
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or document.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} document")
    return [_from_record(r) for r in document.get("measurements", [])]
