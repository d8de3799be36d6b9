"""Experiment harness: theorem models, parameter sweeps, table rendering."""

from .experiments import (
    PROTOCOLS,
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
from .predictions import (
    ba_plus_bits_model,
    broadcast_ca_bits_model,
    ext_ba_plus_bits_model,
    fit_power_law,
    fixed_length_ca_bits_model,
    fixed_length_ca_blocks_bits_model,
    high_cost_ca_bits_model,
    marginal_slope,
    naive_broadcast_ca_bits_model,
    phase_king_bits_model,
    pi_z_bits_model,
)
from .tables import (
    EXPERIMENTS_SCHEMA,
    format_experiments,
    format_measurements,
    format_table,
)

__all__ = [
    "EXPERIMENTS_SCHEMA",
    "GridSpec",
    "PROTOCOLS",
    "Measurement",
    "ba_plus_bits_model",
    "broadcast_ca_bits_model",
    "comparison_series",
    "ext_ba_plus_bits_model",
    "fit_power_law",
    "fixed_length_ca_bits_model",
    "fixed_length_ca_blocks_bits_model",
    "format_experiments",
    "format_measurements",
    "format_table",
    "high_cost_ca_bits_model",
    "make_inputs",
    "marginal_slope",
    "measure",
    "measure_case",
    "naive_broadcast_ca_bits_model",
    "phase_king_bits_model",
    "pi_z_bits_model",
    "grid_record",
    "run_grid",
    "save_sweep_document",
    "sweep_document",
    "sweep_ell",
]
