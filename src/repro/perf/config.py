"""Runtime configuration of the hot-path layer: the cache switch.

The switch is *byte-for-byte correctness-neutral*: with the caches on
or off, every execution produces identical outputs, traces,
``CommunicationStats``, and deterministic operation counters.  It exists
so tests can prove exactly that (run one config under each setting,
compare everything) and so benchmarks can quantify what each cache
buys.

**Caches** (:func:`caches_enabled` / :func:`set_caches_enabled`):

* the kernel memo of :mod:`repro.ba.distribution`, one dict per
  execution on :attr:`repro.sim.party.Context.cache`, shared by that
  execution's ``n`` parties: RS-encode + Merkle-forest keyed by
  ``(n, k, kappa, payload)``, accepted Merkle paths keyed by
  ``(kappa, z*, i, share, siblings)`` (successes only), and the
  ``decode_with_check`` verdict keyed by ``(n, k, kappa, z*, shares)``
  -- each distinct input is computed once per execution, not once per
  party;
* the parse memo of :func:`repro.sim.party.parse_once` on a round's
  :class:`~repro.sim.party.SharedInbox`: Phase-King, ``PI_BA+`` and
  Turpin-Coan count a shared inbox's ballots once per round, not once
  per party (off: each party parses its own copy of the same inbox);
* the inverted-Vandermonde decode-matrix reuse in
  :meth:`repro.coding.reed_solomon.ReedSolomonCode.decode`, a
  process-wide memo keyed by the *full* code parameters
  ``(field degree, field modulus, n, k, share indices)``.

Not gated (pure code paths, not state): the network's unarmed round
stages compute the same values through cheaper code, so there is
nothing to switch off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "backend",
    "caches",
    "caches_enabled",
    "reset_process_caches",
    "set_caches_enabled",
]

_caches_enabled = True


def backend() -> str:
    """The kernel implementation's name.  Constant: ``perfbench`` writes
    it into every result's ``env`` and compares only equal ones."""
    return "numpy"


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


def reset_process_caches() -> None:
    """Drop every process-level memo so the next run starts cold.

    Used by the profiling harness before each measured config: with the
    process-level caches cleared, the deterministic counter section of
    ``BENCH_hotpath.json`` is identical no matter how many configs ran
    earlier in the same process.
    """
    from ..coding import reed_solomon
    from ..crypto import merkle

    reed_solomon.rs_code.cache_clear()
    reed_solomon.clear_decode_matrix_cache()
    merkle._empty_hash.cache_clear()
    merkle._frame_prefix.cache_clear()
    merkle._length_frame.cache_clear()
