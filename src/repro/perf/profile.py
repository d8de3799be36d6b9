"""The ``repro profile`` harness: ``benchmarks/BENCH_hotpath.json``.

Runs a representative set of end-to-end configs and emits a one-section
benchmark document, ``deterministic``: per config the operation counters
(:mod:`repro.perf.counters`), the communication totals and an output
digest.  These are pure functions of the config: identical across runs,
machines and worker counts, so CI can diff them against a
committed baseline at **zero tolerance** without flakes
(:func:`check_counters`).  Wall time is not measured here; its one home
is ``perfbench/``.

Determinism discipline: before every measured config the harness clears
the process-level ``lru_cache``\\ s (:func:`repro.perf.config.
reset_process_caches`) and zeroes the counters, so a config's counter
section does not depend on what ran earlier in the same process.

This module is imported lazily by the CLI (not from
``repro.perf.__init__``) because it pulls in the analysis layer, which
itself imports the crypto/coding modules that import ``repro.perf``.
"""

from __future__ import annotations

import json
import os
from typing import Any

from . import config, counters

__all__ = [
    "QUICK_CONFIGS",
    "FULL_CONFIGS",
    "config_key",
    "hotpath_document",
    "check_counters",
    "save_document",
    "load_document",
]

SCHEMA = "repro-hotpath-bench-v1"

#: CI-sized configs: a few seconds total, still exercising every hot
#: subsystem (RS, Merkle, GF, bare-run network, FindPrefix loop).
QUICK_CONFIGS: tuple[dict[str, Any], ...] = (
    dict(protocol="fixed_length_ca", n=4, t=1, ell=256,
         seed=0, spread="spread"),
    dict(protocol="fixed_length_ca", n=7, t=2, ell=1024,
         seed=4, spread="clustered"),
    dict(protocol="pi_z", n=7, t=2, ell=1024, seed=0, spread="clustered"),
)

#: The full set adds the long-value configs the paper's bounds are
#: about, including the ``ell = 65536`` and ``ell = 262144`` long-value
#: benchmark points the batched kernels are aimed at.
FULL_CONFIGS: tuple[dict[str, Any], ...] = QUICK_CONFIGS + (
    dict(protocol="fixed_length_ca", n=10, t=3, ell=4096,
         seed=0, spread="spread"),
    dict(protocol="fixed_length_ca", n=7, t=2, ell=65536,
         seed=4, spread="clustered"),
    dict(protocol="fixed_length_ca", n=7, t=2, ell=262144,
         seed=4, spread="clustered"),
    dict(protocol="pi_z", n=7, t=2, ell=16384, seed=0, spread="spread"),
)


def config_key(cfg: dict[str, Any]) -> str:
    """Stable human-readable id for one profiled config."""
    return (
        f"{cfg['protocol']}/n{cfg['n']}/t{cfg['t']}/ell{cfg['ell']}"
        f"/seed{cfg['seed']}/{cfg['spread']}"
    )


def _run_config(cfg: dict[str, Any]) -> dict[str, Any]:
    """Run one config cold; return its deterministic entry."""
    from ..analysis.experiments import measure, output_digest

    config.reset_process_caches()
    counters.reset()
    m = measure(**cfg)
    return {
        "params": dict(cfg),
        "counters": counters.snapshot(),
        "bits": m.bits,
        "rounds": m.rounds,
        "messages": m.messages,
        "output_sha256": output_digest(m.output),
    }


def hotpath_document(quick: bool = False) -> dict[str, Any]:
    """Run the profile battery and build the benchmark document."""
    chosen = QUICK_CONFIGS if quick else FULL_CONFIGS
    deterministic = {config_key(cfg): _run_config(cfg) for cfg in chosen}
    return {
        "schema": SCHEMA,
        "quick": bool(quick),
        "deterministic": deterministic,
    }


def check_counters(
    new: dict[str, Any], baseline: dict[str, Any]
) -> tuple[list[str], list[str]]:
    """Diff two documents' deterministic sections at zero tolerance.

    Returns ``(errors, notes)``: *errors* are regressions or behaviour
    changes (any counter above baseline, any bits/rounds/messages/output
    mismatch, a profiled config absent from the baseline) and should
    fail CI; *notes* are strict improvements (counters below baseline),
    which mean the committed baseline is stale and should be refreshed.
    A ``*_hit`` counter is a note in either direction: hits are calls
    minus misses, so they rise when a memo gets better and fall when a
    caller stops asking, and the work is gated by the miss and operation
    counters beside them.  Baseline configs the new run skipped are also
    notes: the committed baseline covers the *full* battery while the CI
    gate runs the ``--quick`` subset of it.
    """
    errors: list[str] = []
    notes: list[str] = []
    new_det = new.get("deterministic", {})
    base_det = baseline.get("deterministic", {})
    for key in sorted(set(base_det) - set(new_det)):
        notes.append(f"{key}: baseline config not profiled in this run")
    for key in sorted(set(new_det) - set(base_det)):
        errors.append(f"{key}: config not in the baseline")
    for key in sorted(set(new_det) & set(base_det)):
        new_entry, base_entry = new_det[key], base_det[key]
        for scalar in ("bits", "rounds", "messages", "output_sha256"):
            if new_entry.get(scalar) != base_entry.get(scalar):
                errors.append(
                    f"{key}: {scalar} changed "
                    f"{base_entry.get(scalar)!r} -> {new_entry.get(scalar)!r}"
                )
        new_counts = new_entry.get("counters", {})
        base_counts = base_entry.get("counters", {})
        for name in sorted(set(new_counts) | set(base_counts)):
            after = new_counts.get(name, 0)
            before = base_counts.get(name, 0)
            if after != before and name.endswith("_hit"):
                notes.append(
                    f"{key}: counter {name} moved {before} -> {after} "
                    "(refresh the committed baseline)"
                )
            elif after > before:
                errors.append(
                    f"{key}: counter {name} regressed {before} -> {after}"
                )
            elif after < before:
                notes.append(
                    f"{key}: counter {name} improved {before} -> {after} "
                    "(refresh the committed baseline)"
                )
    return errors, notes


def save_document(document: dict[str, Any], path: str) -> str:
    """Write the benchmark document as stable, diffable JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_document(path: str) -> dict[str, Any]:
    """Read a benchmark document back."""
    with open(path) as handle:
        return json.load(handle)
