"""Differential conformance: the shipped kernels vs the scalar oracle.

The numpy-batched kernels in :mod:`repro.coding.gf` and
:mod:`repro.coding.reed_solomon`, and the packed-buffer Merkle levels of
:mod:`repro.crypto.merkle`, promise to be **byte-identical** to the
pure-python scalar kernels of ``tests/kernel_oracle.py`` -- same
outputs, same wire bits, same deterministic counter deltas.  This suite
proves it differentially, swapping the oracle in below the counter
bumps:

* every protocol of the analysis registry (``PI_Z`` through the
  broadcast baselines), plus ``PI_BA+``/``PI_lBA+`` and the
  asynchronous AA layer, executed on both kernel sets on an
  ``(n, t, ell, seed)`` grid;
* sampled resilience-plane cases (lossy links + crash/restart, and the
  partial-synchrony axes) through the fuzz executor;
* a parallel ``run_many`` fuzz campaign, whose forked pool workers
  inherit the parent's kernels;
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
from kernel_oracle import KERNELS, use_kernels

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

FIELDS = (GF256, GF65536)
KAPPA = 64


def run_on(kernels, fn):
    """Run ``fn`` cold on one kernel set: fresh caches, zeroed counters.

    Returns ``(value, counter_snapshot)`` -- the pair the differential
    assertions compare across kernel sets.
    """
    with use_kernels(kernels):
        config.reset_process_caches()
        counters.reset()
        value = fn()
        return value, counters.snapshot()


def assert_identical(fn, normalise=lambda value: value):
    """Assert ``fn`` is observable-identical on both kernel sets.

    The shipped kernels must produce the oracle's normalised value *and*
    its counter snapshot.
    """
    reference, ref_counts = run_on("python", fn)
    reference = normalise(reference)
    value, counts = run_on("numpy", fn)
    assert normalise(value) == reference, "shipped kernels diverged"
    assert counts == ref_counts, "shipped kernels' counters diverged"
    return reference


def comparable(result):
    """Everything observable about an execution."""
    return (
        result.outputs,
        result.corrupted,
        result.channel_trace,
        result.trace,
        result.stats,
    )


# -- the full protocol stack, differentially --------------------------------

#: Per-protocol message lengths: long enough to hit the batched kernels
#: (multi-chunk RS frames), short enough that the 2-kernel x 2-grid
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

#: The long-value point, where the coding/crypto kernels dominate.
LONG_VALUE_ROW = ("fixed_length_ca", 524288, 7, 2, 4)


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
        )
    )


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_ba_plus_byte_identical(n, t):
    inputs = [bytes([17 * (i % 3 + 1)]) * (KAPPA // 8) for i in range(n)]
    assert_identical(
        lambda: run_protocol(
            lambda ctx, v: ba_plus(ctx, v), inputs, n=n, t=t, kappa=KAPPA
        ),
        normalise=comparable,
    )


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


# -- parallel campaigns: workers inherit the parent's kernels ---------------


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


def test_parallel_campaign_identical_across_backends():
    """A 2-worker campaign is report-identical on either kernel set.

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


def _elementwise(field, a, b):
    """``a`` times ``b`` element by element, as a matmul input:
    ``diag(a)`` applied to the column ``b``."""
    if not a:
        return []
    diagonal = [[x if r == c else 0 for c in range(len(a))]
                for r, x in enumerate(a)]
    return [int(row[0]) for row in field.matmul(diagonal, [[y] for y in b])]


def _scaled(field, scalar, vec):
    """``scalar`` times ``vec``, as a matmul input: ``[[scalar]] @ [vec]``."""
    if not vec:
        return []
    return [int(x) for x in field.matmul([[scalar]], [vec])[0]]


@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_mul_vec_matches_scalar_reference(field):
    rng = random.Random(101)
    for _ in range(50):
        length = rng.randrange(0, 65)
        a = _zero_heavy_elements(rng, field, length)
        b = _zero_heavy_elements(rng, field, length)
        expected = [field.mul(x, y) for x, y in zip(a, b)]
        for kernels in KERNELS:
            with use_kernels(kernels):
                assert _elementwise(field, a, b) == expected


@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_scalar_mul_vec_matches_scalar_reference(field):
    rng = random.Random(202)
    for _ in range(50):
        length = rng.randrange(0, 65)
        scalar = 0 if rng.random() < 1 / 4 else rng.randrange(1, field.order)
        vec = _zero_heavy_elements(rng, field, length)
        expected = [field.mul(scalar, x) for x in vec]
        for kernels in KERNELS:
            with use_kernels(kernels):
                assert _scaled(field, scalar, vec) == expected


def _reference_matmul(field, matrix, data):
    """Independent textbook product (neither kernel set's)."""
    cols = len(data[0]) if data else 0
    out = []
    for row in matrix:
        acc = [0] * cols
        for coeff, src in zip(row, data):
            for j in range(cols):
                acc[j] ^= field.mul(coeff, src[j])
        out.append(acc)
    return out


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
        for kernels in KERNELS:
            with use_kernels(kernels):
                got = field.matmul(matrix, data)
                assert [list(row) for row in got] == expected


def test_matmul_zero_row_and_zero_column_explicit():
    """The deterministic distillation of the zero-handling property."""
    field = GF256
    matrix = [[0, 0, 0], [1, 2, 3], [0, 7, 0]]
    data = [[0, 5, 0], [0, 7, 0], [0, 9, 1]]  # columns 0 and 2 nearly zero
    expected = _reference_matmul(field, matrix, data)
    for kernels in KERNELS:
        with use_kernels(kernels):
            got = field.matmul(matrix, data)
            assert [list(row) for row in got] == expected
    assert expected[0] == [0, 0, 0]


@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_matmul_with_no_data_rows(field):
    """k = 0: every cell is an empty sum, so ``r x k @ k x c`` is
    ``r x 0`` on both kernel sets (the numpy one raised ``IndexError``)."""
    for matrix, expected in (([], []), ([[]], [[]]), ([[], []], [[], []])):
        for kernels in KERNELS:
            with use_kernels(kernels):
                got = field.matmul(matrix, [])
                assert [list(row) for row in got] == expected


# -- Reed-Solomon round-trips ----------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=["GF256", "GF65536"])
def test_rs_encode_erase_decode_roundtrip(field):
    """encode -> erase any n-k shares -> decode recovers on both kernel
    sets, with byte-identical shares across them."""
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

        shares_by_kernels = {}
        for kernels in KERNELS:
            with use_kernels(kernels):
                shares, decoded = roundtrip()
                assert decoded == payload, (kernels, n, k, keep)
                shares_by_kernels[kernels] = shares
        assert shares_by_kernels["python"] == shares_by_kernels["numpy"]


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
