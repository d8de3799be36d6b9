"""Runtime configuration of the hot-path layer: the kernel name and the
process-level memo reset.

The hot-path caches are always on and *byte-for-byte
correctness-neutral*: outputs, traces, ``CommunicationStats`` and the
operation counters equal the uncached computation's, which the tests
keep as their oracle (``tests/kernel_oracle.py``'s ``uncached()``):

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
  per party;
* the inverted-Vandermonde decode matrices of
  :meth:`repro.coding.reed_solomon.ReedSolomonCode.decode`, a
  process-wide ``lru_cache`` keyed by the *full* code parameters
  ``(field, n, k, share indices)``.
"""

from __future__ import annotations

__all__ = ["backend", "reset_process_caches"]


def backend() -> str:
    """The kernel implementation's name.  Constant: ``perfbench`` writes
    it into every result's ``env`` and compares only equal ones."""
    return "numpy"


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
    reed_solomon._decode_matrix.cache_clear()
    merkle._empty_hash.cache_clear()
    merkle._frame_prefix.cache_clear()
    merkle._length_frame.cache_clear()
