"""Experiment harness: parameter sweeps, fitting, table rendering."""

from .experiments import (
    Measurement,
    comparison_series,
    make_inputs,
    measure,
    measure_case,
    sweep_ell,
)
from .sweeps import (
    GridSpec,
    grid_record,
    run_grid,
    save_sweep_document,
    sweep_document,
)
from .predictions import fit_power_law, marginal_slope
from .tables import (
    EXPERIMENTS_SCHEMA,
    format_experiments,
    format_measurements,
    format_table,
)

__all__ = [
    "EXPERIMENTS_SCHEMA",
    "GridSpec",
    "Measurement",
    "comparison_series",
    "fit_power_law",
    "format_experiments",
    "format_measurements",
    "format_table",
    "make_inputs",
    "marginal_slope",
    "measure",
    "measure_case",
    "grid_record",
    "run_grid",
    "save_sweep_document",
    "sweep_document",
    "sweep_ell",
]
