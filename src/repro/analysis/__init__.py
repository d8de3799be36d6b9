"""Experiment harness: parameter sweeps, fitting, table rendering."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".experiments": (
        "Measurement", "comparison_series", "make_inputs", "measure",
        "measure_case", "sweep_ell",
    ),
    ".sweeps": (
        "GridSpec", "grid_record", "run_grid", "save_sweep_document",
        "sweep_document",
    ),
    ".predictions": ("fit_power_law", "marginal_slope"),
    ".tables": (
        "EXPERIMENTS_SCHEMA", "format_experiments", "format_measurements",
        "format_table",
    ),
})
