"""Differential conformance: the numpy backend vs the python oracle.

The vectorized (``"numpy"``) kernels in :mod:`repro.coding.gf`,
:mod:`repro.coding.reed_solomon` and :mod:`repro.crypto.merkle` promise
to be **byte-identical** to the pure-python scalar reference -- same
outputs, same wire bits, same deterministic counter deltas.  This suite
proves it differentially:

* every protocol of the analysis registry (``PI_Z`` through the
  broadcast baselines), plus ``PI_BA+``/``PI_lBA+`` and the
  asynchronous AA layer, executed under both backends on an
  ``(n, t, ell, seed)`` grid;
* sampled resilience-plane cases (lossy links + crash/restart, and the
  partial-synchrony axes) through the fuzz executor;
* a parallel ``run_many`` fuzz campaign, checking that pool workers are
  pinned to the parent's backend;
* seeded property tests for the GF kernels against the scalar
  reference -- including the all-zero rows/columns the log/exp tables
  cannot represent directly -- and RS encode -> erase -> decode
  round-trips;
* the decode-matrix cache regression: the process-wide memo must key on
  the *full* code parameters, not just the index tuple.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.experiments import measure
from repro.asynchrony import AsyncApproximateAgreement, AsyncNetwork
from repro.ba.ba_plus import ba_plus
from repro.ba.ext_ba_plus import ext_ba_plus
from repro.coding.gf import GF256, GF65536
from repro.coding.reed_solomon import (
    ReedSolomonCode,
    clear_decode_matrix_cache,
)
from repro.perf import config, counters
from repro.sim import run_protocol
from repro.sim.fuzz import run_case_ex, sample_case, standard_registry

requires_numpy = pytest.mark.skipif(
    not config.numpy_available(),
    reason="numpy backend not installed; nothing to compare against",
)

BACKENDS = ("python", "numpy")
FIELDS = (GF256, GF65536)
KAPPA = 64


def run_on(backend, fn):
    """Run ``fn`` cold under one backend: fresh caches, zeroed counters.

    Returns ``(value, counter_snapshot)`` -- the pair the differential
    assertions compare across backends.
    """
    with config.use_backend(backend):
        config.reset_process_caches()
        counters.reset()
        value = fn()
        return value, counters.snapshot()


def assert_identical(fn, normalise=lambda value: value):
    """Assert ``fn`` is observable-identical under every backend.

    The python backend is the oracle; every other backend must produce
    the same normalised value *and* the same counter snapshot.
    """
    reference, ref_counts = run_on(BACKENDS[0], fn)
    reference = normalise(reference)
    for backend in BACKENDS[1:]:
        value, counts = run_on(backend, fn)
        assert normalise(value) == reference, f"{backend} output diverged"
        assert counts == ref_counts, f"{backend} counters diverged"
    return reference


def comparable(result):
    """Everything observable about an execution except wall time."""
    return (
        result.outputs,
        result.corrupted,
        result.channel_trace,
        result.trace,
        dataclasses.replace(result.stats, wall_s=0.0),
    )


# -- the full protocol stack, differentially --------------------------------

#: Per-protocol message lengths: long enough to hit the batched kernels
#: (multi-chunk RS frames), short enough that the 2-backend x 2-grid
#: product stays CI-sized.  The broadcast baselines are O(n * ell)
#: rounds, so they get small values.
SYNC_PROTOCOLS = {
    "pi_z": 1024,
    "pi_n": 1024,
    "fixed_length_ca": 1024,
    # must divide into n*n equal blocks; resolved per grid point below.
    "fixed_length_ca_blocks": None,
    "high_cost_ca": 32,
    "broadcast_ca": 256,
    "naive_broadcast_ca": 64,
}

GRID = [(4, 1, 0), (7, 2, 4)]

#: The long-value point, where the coding/crypto kernels dominate: the
#: one cross-backend identity ``repro profile`` checked past ell = 1024
#: before its backend A/B was removed.
LONG_VALUE_ROW = ("fixed_length_ca", 524288, 7, 2, 4)


@requires_numpy
@pytest.mark.parametrize(
    "protocol,ell,n,t,seed",
    [
        (protocol, ell, *point)
        for protocol, ell in sorted(SYNC_PROTOCOLS.items())
        for point in GRID
    ] + [LONG_VALUE_ROW],
)
def test_protocol_stack_byte_identical(protocol, ell, n, t, seed):
    if ell is None:
        ell = n * n * 20  # a multiple of the n*n block count
    assert_identical(
        lambda: measure(
            protocol, n, t, ell, kappa=KAPPA, seed=seed, spread="clustered"
        ),
        normalise=lambda m: dataclasses.replace(m, wall_s=0.0),
    )


@requires_numpy
@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_ba_plus_byte_identical(n, t):
    inputs = [bytes([17 * (i % 3 + 1)]) * (KAPPA // 8) for i in range(n)]
    assert_identical(
        lambda: run_protocol(
            lambda ctx, v: ba_plus(ctx, v), inputs, n=n, t=t, kappa=KAPPA
        ),
        normalise=comparable,
    )


@requires_numpy
def test_ext_ba_plus_byte_identical():
    inputs = [
        b"agree on this long payload " * 40,
        b"agree on this long payload " * 40,
        b"a different byzantine-ish value",
        b"",
        b"agree on this long payload " * 40,
        b"yet another value",
        b"agree on this long payload " * 40,
    ]
    assert_identical(
        lambda: run_protocol(
            lambda ctx, v: ext_ba_plus(ctx, v), inputs, n=7, t=2,
            kappa=KAPPA,
        ),
        normalise=comparable,
    )


@requires_numpy
def test_async_aa_byte_identical():
    inputs = [0, 100, 200, 300, 400, 500]

    def go():
        net = AsyncNetwork(
            lambda ctx: AsyncApproximateAgreement(
                ctx, inputs[ctx.party_id], 1, 1 << 16
            ),
            n=6,
            t=1,
        )
        result = net.run()
        return result.outputs, result.corrupted

    assert_identical(go)


# -- resilience planes through the fuzz executor ----------------------------


def _plane_cases(crash, partition, count, seed):
    rng = random.Random(seed)
    registry = standard_registry()
    return [
        sample_case(rng, registry, crash=crash, partition=partition)
        for _ in range(count)
    ]


def _case_outcome_key(outcome):
    failure, stats = outcome
    failure_key = None
    if failure is not None:
        failure_key = (failure.kind, failure.message, failure.case)
    return failure_key, dataclasses.asdict(stats)


@requires_numpy
@pytest.mark.parametrize(
    "crash,partition,seed",
    [(True, False, 7), (True, True, 11)],
    ids=["crash-plane", "partition-plane"],
)
def test_resilience_planes_byte_identical(crash, partition, seed):
    registry = standard_registry()
    for case in _plane_cases(crash, partition, 4, seed):
        assert_identical(
            lambda case=case: run_case_ex(case, registry),
            normalise=_case_outcome_key,
        )


# -- parallel campaigns: workers inherit the parent's backend ---------------


def _report_key(report):
    return (
        report.runs,
        report.seed,
        report.crash,
        report.partition,
        report.cases,
        [(f.kind, f.message, f.case) for f in report.failures],
        report.resyncs,
        report.escalated_cases,
        report.degradations,
    )


@requires_numpy
def test_parallel_campaign_identical_across_backends():
    """A 2-worker campaign is report-identical under either backend.

    Worker counters live in the worker processes, so only the report is
    compared here; the per-case counter parity is covered by
    :func:`test_resilience_planes_byte_identical`.
    """
    from repro.sim.fuzz import fuzz

    def go():
        return _report_key(
            fuzz(runs=6, seed=3, workers=2, crash=True, shrink=False)
        )

    reference, _ = run_on("python", go)
    value, _ = run_on("numpy", go)
    assert value == reference


# -- GF kernel property tests (seeded-random, zero-heavy) -------------------


def _zero_heavy_elements(rng, field, count):
    """Field elements with ~1/3 zeros: the log table has no entry for 0,
    so the batched kernels must mask them explicitly (the PR-2 bug
    class this suite regression-tests)."""
    return [
        0 if rng.random() < 1 / 3 else rng.randrange(1, field.order)
        for _ in range(count)
    ]


@requires_numpy
@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_mul_vec_matches_scalar_reference(field):
    rng = random.Random(101)
    for _ in range(50):
        length = rng.randrange(0, 65)
        a = _zero_heavy_elements(rng, field, length)
        b = _zero_heavy_elements(rng, field, length)
        expected = [field.mul(x, y) for x, y in zip(a, b)]
        for backend in BACKENDS:
            with config.use_backend(backend):
                assert list(field.mul_vec(a, b)) == expected


@requires_numpy
@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_scalar_mul_vec_matches_scalar_reference(field):
    rng = random.Random(202)
    for _ in range(50):
        length = rng.randrange(0, 65)
        scalar = 0 if rng.random() < 1 / 4 else rng.randrange(1, field.order)
        vec = _zero_heavy_elements(rng, field, length)
        expected = [field.mul(scalar, x) for x in vec]
        for backend in BACKENDS:
            with config.use_backend(backend):
                assert list(field.scalar_mul_vec(scalar, vec)) == expected


def _reference_matmul(field, matrix, data):
    """Independent textbook product (not either production kernel)."""
    cols = len(data[0]) if data else 0
    out = []
    for row in matrix:
        acc = [0] * cols
        for coeff, src in zip(row, data):
            for j in range(cols):
                acc[j] ^= field.mul(coeff, src[j])
        out.append(acc)
    return out


@requires_numpy
@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_matmul_matches_scalar_reference(field):
    rng = random.Random(303)
    for _ in range(40):
        r = rng.randrange(1, 8)
        k = rng.randrange(1, 8)
        c = rng.randrange(1, 33)
        matrix = [_zero_heavy_elements(rng, field, k) for _ in range(r)]
        data = [_zero_heavy_elements(rng, field, c) for _ in range(k)]
        if rng.random() < 1 / 3:
            matrix[rng.randrange(r)] = [0] * k  # all-zero matrix row
        if rng.random() < 1 / 3:
            j = rng.randrange(c)
            for row in data:
                row[j] = 0  # all-zero data column
        expected = _reference_matmul(field, matrix, data)
        for backend in BACKENDS:
            with config.use_backend(backend):
                got = field.matmul(matrix, data)
                assert [list(row) for row in got] == expected


@requires_numpy
def test_matmul_zero_row_and_zero_column_explicit():
    """The deterministic distillation of the zero-handling property."""
    field = GF256
    matrix = [[0, 0, 0], [1, 2, 3], [0, 7, 0]]
    data = [[0, 5, 0], [0, 7, 0], [0, 9, 1]]  # columns 0 and 2 nearly zero
    expected = _reference_matmul(field, matrix, data)
    for backend in BACKENDS:
        with config.use_backend(backend):
            got = field.matmul(matrix, data)
            assert [list(row) for row in got] == expected
    assert expected[0] == [0, 0, 0]


# -- Reed-Solomon round-trips ----------------------------------------------


@requires_numpy
@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_rs_encode_erase_decode_roundtrip(field):
    """encode -> erase any n-k shares -> decode recovers, both backends,
    with byte-identical shares across backends."""
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randrange(2, 11)
        k = rng.randrange(1, n + 1)
        payload = bytes(
            rng.randrange(256) for _ in range(rng.randrange(0, 130))
        )
        keep = sorted(rng.sample(range(n), k))

        def roundtrip():
            code = ReedSolomonCode(n, k, field)
            shares = code.encode(payload)
            subset = {i: shares[i] for i in keep}
            return shares, code.decode(subset)

        shares_by_backend = {}
        for backend in BACKENDS:
            with config.use_backend(backend):
                shares, decoded = roundtrip()
                assert decoded == payload, (backend, n, k, keep)
                shares_by_backend[backend] = shares
        assert shares_by_backend["python"] == shares_by_backend["numpy"]


# -- decode-matrix cache: keyed on the full code parameters -----------------


def _decode_with(code, payload, indices):
    shares = code.encode(payload)
    return code.decode({i: shares[i] for i in indices})


def test_decode_matrix_cache_not_shared_across_codes():
    """Regression: two codes sharing an index tuple must not collide.

    The decode-matrix memo is process-wide; its key must include the
    field and the ``(n, k)`` geometry, not just the index tuple, or a
    ``(5, 3)`` GF(2^8) decode would reuse a ``(5, 3)`` GF(2^16) matrix
    (or a ``(6, 3)`` one) and reconstruct garbage.
    """
    payload = b"decode matrix cache regression"
    indices = (0, 2, 4)
    with config.caches(True):
        clear_decode_matrix_cache()
        small = ReedSolomonCode(5, 3, GF256)
        large = ReedSolomonCode(5, 3, GF65536)
        wide = ReedSolomonCode(6, 3, GF65536)
        with counters.capture() as counts:
            assert _decode_with(small, payload, indices) == payload
            assert _decode_with(large, payload, indices) == payload
            assert _decode_with(wide, payload, indices) == payload
        # Three distinct codes -> three distinct cache entries, one
        # inversion each -- the old per-index keying would have reused
        # the first matrix for all three.
        assert counts.get("gf_matrix_invert", 0) == 3
        with counters.capture() as warm:
            assert _decode_with(small, payload, indices) == payload
            assert _decode_with(large, payload, indices) == payload
            assert _decode_with(wide, payload, indices) == payload
        assert warm.get("gf_matrix_invert", 0) == 0


def test_decode_matrix_cache_survives_per_code_reuse():
    """Same code + same indices twice -> exactly one inversion."""
    with config.caches(True):
        clear_decode_matrix_cache()
        code = ReedSolomonCode(7, 5, GF65536)
        indices = (1, 2, 3, 5, 6)
        with counters.capture() as counts:
            assert _decode_with(code, b"one", indices) == b"one"
            assert _decode_with(code, b"two", indices) == b"two"
        assert counts.get("gf_matrix_invert", 0) == 1
