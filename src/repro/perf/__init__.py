"""Hot-path performance layer: counters, cache switches, profiling.

The paper's headline is *communication* optimality; this package keeps
the reproduction's *computation* honest too.  Three pieces:

* :mod:`repro.perf.counters` -- deterministic operation counters
  (SHA-256 invocations, RS encodes/decodes, GF matmuls, Merkle
  builds/verifies, delivered messages).  Counts are pure functions of
  the executed protocol configs, so they are byte-identical across
  runs, machines, and worker counts -- unlike wall time, they can gate
  CI at a 0% regression threshold without flaking.
* :mod:`repro.perf.config` -- the global switch for the execution-scoped
  caches (RS-encode/Merkle-forest memo, decode-matrix reuse), used by
  the A/B tests that prove the caches are byte-for-byte
  correctness-neutral.
* :mod:`repro.perf.profile` -- the ``repro profile`` harness: runs
  representative end-to-end configs under the counters and emits
  ``benchmarks/BENCH_hotpath.json``, one deterministic counter section
  gated at zero tolerance.  Wall time is ``perfbench/``'s alone.

Import note: :mod:`repro.perf.profile` pulls in the analysis harness,
so it is deliberately *not* imported here -- the crypto/coding hot
paths import ``repro.perf`` and must stay cycle-free.
"""

from . import config, counters

__all__ = ["config", "counters"]
