"""The ``repro profile`` harness: ``benchmarks/BENCH_hotpath.json``.

Runs a representative set of end-to-end configs and emits a two-section
benchmark document:

* ``deterministic`` -- per-config operation counters
  (:mod:`repro.perf.counters`), communication totals, and an output
  digest.  These are pure functions of the config: identical across
  runs, machines, and worker counts, so CI can diff them against a
  committed baseline at **zero tolerance** without flakes
  (:func:`check_counters`).
* ``timing`` -- wall-clock seconds per config plus (optionally) the top
  cProfile hotspots of the heaviest config.  Machine-local and noisy;
  never gated.

Determinism discipline: before every measured config the harness clears
the process-level ``lru_cache``\\ s (:func:`repro.perf.config.
reset_process_caches`) and zeroes the counters, so a config's counter
section does not depend on what ran earlier in the same process.

This module is imported lazily by the CLI (not from
``repro.perf.__init__``) because it pulls in the analysis layer, which
itself imports the crypto/coding modules that import ``repro.perf``.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import time
from contextlib import nullcontext as _nullcontext
from typing import Any, Sequence

from . import config, counters

__all__ = [
    "QUICK_CONFIGS",
    "FULL_CONFIGS",
    "COMPARISON_CONFIG",
    "backend_comparison",
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
#: benchmark points the vectorized backend is aimed at.
FULL_CONFIGS: tuple[dict[str, Any], ...] = QUICK_CONFIGS + (
    dict(protocol="fixed_length_ca", n=10, t=3, ell=4096,
         seed=0, spread="spread"),
    dict(protocol="fixed_length_ca", n=7, t=2, ell=65536,
         seed=4, spread="clustered"),
    dict(protocol="fixed_length_ca", n=7, t=2, ell=262144,
         seed=4, spread="clustered"),
    dict(protocol="pi_z", n=7, t=2, ell=16384, seed=0, spread="spread"),
)

#: The backend A/B case: the longest-``ell`` FixedLengthCA point, where
#: the coding/crypto kernels dominate wall time.  Run under every
#: available backend by :func:`backend_comparison`; the deterministic
#: entries must match byte for byte.
COMPARISON_CONFIG: dict[str, Any] = dict(
    protocol="fixed_length_ca", n=7, t=2, ell=524288,
    seed=4, spread="clustered",
)


def config_key(cfg: dict[str, Any]) -> str:
    """Stable human-readable id for one profiled config."""
    return (
        f"{cfg['protocol']}/n{cfg['n']}/t{cfg['t']}/ell{cfg['ell']}"
        f"/seed{cfg['seed']}/{cfg['spread']}"
    )


def _output_digest(output: Any) -> str:
    """Short digest of an execution's agreed output.

    Large-``ell`` outputs are multi-kilobit integers, far beyond the
    interpreter's int->str conversion limit, so integers are digested
    from their two's-complement bytes rather than their repr.
    """
    if isinstance(output, int):
        width = (output.bit_length() + 8) // 8 + 1
        data = b"int:" + output.to_bytes(width, "big", signed=True)
    else:
        data = repr(output).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _run_config(cfg: dict[str, Any]) -> tuple[dict[str, Any], float]:
    """Run one config cold; return its deterministic entry + wall time."""
    from ..analysis.experiments import measure

    config.reset_process_caches()
    counters.reset()
    started = time.perf_counter()
    m = measure(**cfg)
    wall_s = time.perf_counter() - started
    entry = {
        "params": dict(cfg),
        "counters": counters.snapshot(),
        "bits": m.bits,
        "rounds": m.rounds,
        "messages": m.messages,
        "output_sha256": _output_digest(m.output),
    }
    return entry, wall_s


def _hotspots(cfg: dict[str, Any], top: int) -> list[dict[str, Any]]:
    """Top ``top`` functions by cumulative time under cProfile."""
    from ..analysis.experiments import measure

    config.reset_process_caches()
    profiler = cProfile.Profile()
    profiler.enable()
    measure(**cfg)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda item: -item[1][3]
    ):
        filename, lineno, name = func
        if "cProfile" in name or filename == "~":
            continue
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{lineno}({name})",
                "ncalls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
        if len(rows) >= top:
            break
    return rows


def backend_comparison(
    cfg: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run the comparison config under every available backend.

    Returns the ``backend_comparison`` section: per-backend wall time,
    whether the deterministic entries (counters, bits, rounds,
    messages, output digest) are byte-identical across backends, and
    the numpy-over-python speedup when both backends are present.  The
    wall times are machine-local; the ``identical`` verdict is not.
    """
    cfg = dict(COMPARISON_CONFIG if cfg is None else cfg)
    backends = config.available_backends()
    entries: dict[str, dict[str, Any]] = {}
    wall: dict[str, float] = {}
    for name in backends:
        with config.use_backend(name):
            entry, wall_s = _run_config(cfg)
        entries[name] = entry
        wall[name] = round(wall_s, 6)
    reference = entries[backends[0]]
    mismatches = [
        name for name in backends[1:] if entries[name] != reference
    ]
    section: dict[str, Any] = {
        "config": config_key(cfg),
        "backends": list(backends),
        "wall_s": wall,
        "identical": not mismatches,
        "counters": reference["counters"],
    }
    if mismatches:
        section["mismatching_backends"] = mismatches
    if "python" in wall and "numpy" in wall and wall["numpy"] > 0:
        section["speedup_numpy_over_python"] = round(
            wall["python"] / wall["numpy"], 2
        )
    return section


def hotpath_document(
    quick: bool = False,
    cprofile: bool = True,
    top: int = 15,
    configs: Sequence[dict[str, Any]] | None = None,
    backend: str | None = None,
    compare_backends: bool = True,
) -> dict[str, Any]:
    """Run the profile battery and build the benchmark document.

    ``backend`` pins the kernel backend for the battery (default: the
    process' resolved backend); the deterministic section is identical
    either way.  ``compare_backends`` additionally runs
    :data:`COMPARISON_CONFIG` under *every* available backend and
    records the A/B section (skipped automatically when only one
    backend is installed).
    """
    chosen = list(
        configs if configs is not None
        else (QUICK_CONFIGS if quick else FULL_CONFIGS)
    )
    deterministic: dict[str, Any] = {}
    wall: dict[str, float] = {}
    with config.use_backend(backend) if backend else _nullcontext():
        battery_backend = config.backend()
        for cfg in chosen:
            key = config_key(cfg)
            entry, wall_s = _run_config(cfg)
            deterministic[key] = entry
            wall[key] = round(wall_s, 6)
        timing: dict[str, Any] = {
            "wall_s": wall,
            "backend": battery_backend,
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        if cprofile and chosen:
            heaviest = max(chosen, key=lambda cfg: cfg["ell"] * cfg["n"])
            timing["hotspots"] = {
                "config": config_key(heaviest),
                "top": _hotspots(heaviest, top),
            }
    document = {
        "schema": SCHEMA,
        "quick": bool(quick) if configs is None else None,
        "deterministic": deterministic,
        "timing": timing,
    }
    if compare_backends and len(config.available_backends()) > 1:
        document["backend_comparison"] = backend_comparison()
    return document


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
