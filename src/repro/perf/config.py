"""Runtime configuration of the hot-path layer: caches and backends.

Two orthogonal switches live here, both *byte-for-byte
correctness-neutral*: with any combination of settings, every execution
produces identical outputs, traces, ``CommunicationStats``, and
deterministic operation counters.  The switches exist so tests can prove
exactly that (run one config under each setting, compare everything) and
so benchmarks can quantify what each layer buys.

**Caches** (:func:`caches_enabled` / :func:`set_caches_enabled`):

* the kernel memo of :mod:`repro.ba.distribution`, one dict per
  execution on :attr:`repro.sim.party.Context.cache`, shared by that
  execution's ``n`` parties: RS-encode + Merkle-forest keyed by
  ``(n, k, kappa, payload)``, accepted Merkle paths keyed by
  ``(kappa, z*, i, share, siblings)`` (successes only), and the
  ``decode_with_check`` verdict keyed by ``(n, k, kappa, z*, shares)``
  -- each distinct input is computed once per execution, not once per
  party;
* the inverted-Vandermonde decode-matrix reuse in
  :meth:`repro.coding.reed_solomon.ReedSolomonCode.decode`, a
  process-wide memo keyed by the *full* code parameters
  ``(field degree, field modulus, n, k, share indices)``.

**Backends** (:func:`backend` / :func:`set_backend`): the GF(2^kappa),
Reed-Solomon, and Merkle kernels come in two interchangeable
implementations --

* ``"python"`` -- the pure-python scalar reference: log/exp table
  lookups element by element, ``struct``-based symbol framing,
  ``hash_parts``-style Merkle hashing.  No third-party dependencies;
  the default when numpy is not installed.
* ``"numpy"`` -- table-batched kernels: log/exp gathers over
  zero-sentinel ``uint16`` tables, vectorised Vandermonde application, single-call
  sha256 over packed leaf/node buffers.  The default whenever numpy is
  importable.

Selection order: an explicit :func:`set_backend` wins, then the
``REPRO_BACKEND`` environment variable, then the default above.  The
resolved choice is process-local; :func:`reset_backend` drops any
explicit selection so the next :func:`backend` call re-reads the
environment (the "per-process reset" used by worker pools and tests).

Not gated (pure code paths, not state): the memoized ``wire_bits`` on
frozen message dataclasses and the network's unarmed round stages --
those compute the same values through cheaper code, so there is nothing
to switch off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "BACKEND_ENV",
    "available_backends",
    "backend",
    "caches",
    "caches_enabled",
    "default_backend",
    "numpy_available",
    "reset_backend",
    "reset_process_caches",
    "set_backend",
    "set_caches_enabled",
    "use_backend",
]

_caches_enabled = True

BACKEND_ENV = "REPRO_BACKEND"

#: Every backend name this build knows how to dispatch to.
_BACKEND_NAMES = ("python", "numpy")

_backend: str | None = None  # explicit selection; None = env/default
_numpy_available: bool | None = None  # lazily probed, then pinned


def caches_enabled() -> bool:
    """Whether the execution-scoped hot-path caches are active."""
    return _caches_enabled


def set_caches_enabled(enabled: bool) -> None:
    """Turn the hot-path caches on or off globally."""
    global _caches_enabled
    _caches_enabled = bool(enabled)


@contextmanager
def caches(enabled: bool) -> Iterator[None]:
    """Temporarily force the caches on or off (A/B test helper)."""
    previous = _caches_enabled
    set_caches_enabled(enabled)
    try:
        yield
    finally:
        set_caches_enabled(previous)


# -- backend selection -----------------------------------------------------


def numpy_available() -> bool:
    """Whether the numpy backend can be selected in this process."""
    global _numpy_available
    if _numpy_available is None:
        try:
            import numpy  # noqa: F401

            _numpy_available = True
        except ImportError:
            _numpy_available = False
    return _numpy_available


def available_backends() -> tuple[str, ...]:
    """The backend names selectable in this process."""
    if numpy_available():
        return _BACKEND_NAMES
    return ("python",)


def default_backend() -> str:
    """``"numpy"`` when numpy is importable, else ``"python"``."""
    return "numpy" if numpy_available() else "python"


def _validate_backend(name: str) -> str:
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {_BACKEND_NAMES}"
        )
    if name == "numpy" and not numpy_available():
        raise ValueError(
            "backend 'numpy' requested but numpy is not installed "
            "(pip install 'repro[numpy]')"
        )
    return name


def backend() -> str:
    """The active kernel backend: ``"python"`` or ``"numpy"``.

    Resolution order: explicit :func:`set_backend` > the
    ``REPRO_BACKEND`` environment variable > :func:`default_backend`.
    """
    if _backend is not None:
        return _backend
    from_env = os.environ.get(BACKEND_ENV)
    if from_env:
        return _validate_backend(from_env)
    return default_backend()


def set_backend(name: str | None) -> None:
    """Pin the kernel backend for this process (``None`` un-pins it)."""
    global _backend
    _backend = None if name is None else _validate_backend(name)


def reset_backend() -> None:
    """Per-process reset: drop any explicit selection.

    The next :func:`backend` call re-reads ``REPRO_BACKEND`` / the
    default, so freshly forked workers and test fixtures start from the
    environment, not from whatever the parent pinned earlier.
    """
    set_backend(None)


@contextmanager
def use_backend(name: str | None) -> Iterator[None]:
    """Temporarily pin the backend (differential-test helper)."""
    global _backend
    previous = _backend
    set_backend(name)
    try:
        yield
    finally:
        _backend = previous


def reset_process_caches() -> None:
    """Drop every process-level memo so the next run starts cold.

    Used by the profiling harness before each measured config: with the
    process-level caches cleared, the deterministic counter section of
    ``BENCH_hotpath.json`` is identical no matter how many configs ran
    earlier in the same process (and no matter which backend they ran
    on).
    """
    from ..coding import reed_solomon
    from ..crypto import merkle

    reed_solomon.rs_code.cache_clear()
    reed_solomon.clear_decode_matrix_cache()
    merkle._empty_hash.cache_clear()
    merkle._frame_prefix.cache_clear()
    merkle._length_frame.cache_clear()
