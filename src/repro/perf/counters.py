"""Deterministic operation counters for the hot-path subsystems.

Wall-clock numbers are machine-local and noisy; the *number of
operations* a deterministic execution performs is not.  The crypto,
coding, and simulation hot paths bump a named counter per heavyweight
operation:

===================== ====================================================
counter               bumped by
===================== ====================================================
``sha256``            every ``hashlib.sha256`` invocation in
                      :mod:`repro.crypto` (hashing, Merkle leaf/node
                      hashes, verify chains)
``merkle_build``      every :func:`repro.crypto.merkle.build`
``merkle_verify``     every :func:`repro.crypto.merkle.verify`
``rs_encode``         every ``RS.ENCODE`` (:meth:`ReedSolomonCode.encode`)
``rs_decode``         every ``RS.DECODE`` (:meth:`ReedSolomonCode.decode`)
                      -- these four count operations *computed*: with
                      the caches on, the distributing step computes
                      each distinct input once per execution
                      (:mod:`repro.ba.distribution`), with them off
                      once per party that asks
``gf_matmul``         every :meth:`BinaryField.matmul`
``gf_matrix_invert``  every Gauss-Jordan inversion actually computed
                      (cache hits on the decode matrix do not count)
``encode_cache_hit``  RS-encode + Merkle-forest memo hits (one memo per
                      execution, shared by its parties)
``encode_cache_miss`` the corresponding cold computations
``net_rounds``        synchronous rounds the network delivered
``net_messages``      payloads placed in inboxes (honest + byzantine)
``sched_resumes``     party generator resumes performed (finished and
                      down parties are skipped without touching their
                      generator); batched into one bump per round
``transport_resyncs`` round-resync escalations the lossy/partial-sync
                      synchronizer performed (one per exhausted slot
                      budget that was retried instead of timing out)
``transport_beacons`` resync beacon frames exchanged during those
                      escalations
``guard_checks``      byzantine-origin payloads the wire guards
                      inspected (:mod:`repro.sim.wire`); honest traffic
                      is never checked, so the no-fault path bumps
                      nothing
``guard_quarantined`` payloads the guards discarded (ill-typed,
                      over-deep, oversized, or over a sender's
                      per-round byte ceiling)
===================== ====================================================

Counters are process-global (observability, not protocol state) and
additive; use :func:`capture` to attribute the ops of one code block.
The counts of one execution are deterministic because the execution is
-- the only process-level caches that could make a *second* run in the
same process cheaper are cleared by
:func:`repro.perf.config.reset_process_caches`, which the profiling
harness calls before every measured config.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["bump", "snapshot", "reset", "capture"]

_counts: dict[str, int] = {}


def bump(name: str, delta: int = 1) -> None:
    """Add ``delta`` to the named counter (creating it at zero)."""
    _counts[name] = _counts.get(name, 0) + delta


def snapshot() -> dict[str, int]:
    """A sorted copy of every counter's current value."""
    return dict(sorted(_counts.items()))


def reset() -> None:
    """Zero every counter."""
    _counts.clear()


@contextmanager
def capture() -> Iterator[dict[str, int]]:
    """Collect the operations performed inside the ``with`` block.

    Yields a dict that is filled (sorted, zero entries omitted) when the
    block exits; nesting works because only differences are recorded.
    """
    before = dict(_counts)
    box: dict[str, int] = {}
    try:
        yield box
    finally:
        for name in sorted(_counts):
            diff = _counts[name] - before.get(name, 0)
            if diff:
                box[name] = diff
