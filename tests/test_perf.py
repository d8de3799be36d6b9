"""The hot-path acceleration layer (``repro.perf``).

Two contracts under test:

1. **Correctness neutrality**: every cache (execution-scoped RS-encode +
   Merkle-forest memo, decode-matrix reuse, memoized ``wire_bits``) is
   byte-for-byte invisible -- identical outputs, ``CommunicationStats``,
   channel traces, and round traces with the caches on or off, honest
   or byzantine runs.  Byzantine garbage must never poison an honest
   party's cache.  (That arming a network stage changes nothing is
   ``tests/test_network_delivery.py``'s contract.)
2. **Deterministic observability**: the operation counters are pure
   functions of the executed config (reproducible across runs once the
   process-level memos are cleared), and the ``repro profile`` document
   diffs cleanly against itself.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.experiments import make_inputs, measure
from repro.ba.distribution import _encode_and_build, encode_and_accumulate
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core.fixed_length import fixed_length_ca
from repro.crypto import merkle
from repro.errors import CodingError
from repro.perf import config, counters
from repro.perf.profile import (
    QUICK_CONFIGS,
    check_counters,
    config_key,
    hotpath_document,
)
from repro.sim.adversary import RandomGarbageAdversary
from repro.sim.party import Context
from repro.sim.runner import run_protocol


def _run_fixed(ell=2048, *, adversary=None, recovery=None, seed=4):
    inputs = make_inputs(7, ell, seed=seed, spread="clustered")
    return run_protocol(
        lambda ctx, v: fixed_length_ca(ctx, v, ell),
        inputs,
        n=7,
        t=2,
        adversary=adversary,
        trace=True,
        recovery=recovery,
    )


def _comparable(result):
    """Everything observable about an execution except wall time."""
    return (
        result.outputs,
        result.corrupted,
        result.channel_trace,
        result.trace,
        dataclasses.replace(result.stats, wall_s=0.0),
    )


# -- correctness neutrality ------------------------------------------------


def test_caches_do_not_change_any_observable_byte():
    with config.caches(True):
        warm = _run_fixed()
    with config.caches(False):
        cold = _run_fixed()
    assert _comparable(warm) == _comparable(cold)


def test_caches_neutral_under_byzantine_garbage():
    with config.caches(True):
        warm = _run_fixed(adversary=RandomGarbageAdversary(seed=11))
    with config.caches(False):
        cold = _run_fixed(adversary=RandomGarbageAdversary(seed=11))
    assert _comparable(warm) == _comparable(cold)


# -- cache poisoning -------------------------------------------------------


def test_garbled_payloads_cannot_poison_the_encode_cache():
    """The memo maps a payload to *its own* encoding only."""
    ctx = Context(party_id=0, n=4, t=1)
    honest = b"honest value bytes"
    garbled = b"byzantine garbage!"
    with config.caches(True):
        # Garbage first: whatever a byzantine sender makes us decode and
        # re-encode lands under *its* key, not the honest payload's.
        _encode_and_build(ctx, garbled)
        _, shares, root, _ = encode_and_accumulate(ctx, honest)
    with config.caches(False):
        _, ref_shares, ref_root, _ = encode_and_accumulate(ctx, honest)
    assert shares == ref_shares
    assert root == ref_root
    # Distinct payloads occupy distinct entries.
    keys = {key for key in ctx.cache if key[0] == "rs+mt"}
    assert len(keys) == 2


def test_encode_cache_is_execution_scoped():
    a = Context(party_id=0, n=4, t=1)
    b = Context(party_id=0, n=4, t=1)
    with config.caches(True):
        _encode_and_build(a, b"payload")
    assert a.cache and not b.cache
    # cache contents never affect Context identity.
    assert a == b


def test_decode_matrix_cache_survives_garbled_shares():
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"some value to protect")
    subset = {0: shares[0], 2: shares[2], 4: shares[4]}
    with config.caches(True):
        assert code.decode(subset) == b"some value to protect"
        # Same index set, garbled contents: the cached inverse depends
        # only on the indices, so decoding still inverts correctly and
        # the re-encode check upstream rejects the junk value.
        garbled = dict(subset)
        garbled[2] = bytes(len(shares[2]))
        try:
            junk = code.decode(garbled)
        except CodingError:
            pass  # junk framing is rejected outright -- equally fine
        else:
            assert junk != b"some value to protect"
        # The honest subset still decodes through the cached matrix.
        assert code.decode(subset) == b"some value to protect"


def test_decode_matrix_cached_per_index_tuple():
    # The decode-matrix memo is process-wide; start from a cold cache so
    # a decode earlier in the test session cannot pre-warm this key.
    config.reset_process_caches()
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"abc")
    subset = {0: shares[0], 1: shares[1], 3: shares[3]}
    with config.caches(True):
        with counters.capture() as first:
            code.decode(subset)
        with counters.capture() as second:
            code.decode(subset)
    assert first.get("gf_matrix_invert", 0) == 1
    assert second.get("gf_matrix_invert", 0) == 0
    with config.caches(False):
        with counters.capture() as uncached:
            code.decode(subset)
    assert uncached.get("gf_matrix_invert", 0) == 1


def test_decode_matrix_cache_lru_eviction(monkeypatch):
    from repro.coding import reed_solomon as rs

    config.reset_process_caches()
    monkeypatch.setattr(rs, "_DECODE_MATRIX_CACHE_MAX", 2)
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"abc")

    def decode(indices) -> int:
        """Decode from the given share indices; inversions performed."""
        subset = {i: shares[i] for i in indices}
        with counters.capture() as counts:
            assert code.decode(subset) == b"abc"
        return counts.get("gf_matrix_invert", 0)

    with config.caches(True):
        assert decode((0, 1, 2)) == 1
        assert decode((0, 1, 3)) == 1
        # Touch the oldest entry: it becomes most recently used.
        assert decode((0, 1, 2)) == 0
        # At capacity, a new key evicts the true LRU -- (0,1,3), not
        # the refreshed (0,1,2).
        assert decode((0, 1, 4)) == 1
        assert decode((0, 1, 2)) == 0
        assert decode((0, 1, 3)) == 1
    assert len(rs._DECODE_MATRIX_CACHE) == 2
    rs.clear_decode_matrix_cache()
    assert len(rs._DECODE_MATRIX_CACHE) == 0


def test_decode_matrix_cache_cap_from_environment(monkeypatch):
    from repro.coding import reed_solomon as rs

    monkeypatch.delenv("REPRO_DECODE_MATRIX_CACHE_MAX", raising=False)
    assert rs._cache_cap() == 512
    monkeypatch.setenv("REPRO_DECODE_MATRIX_CACHE_MAX", "7")
    assert rs._cache_cap() == 7
    # Unparsable settings disable memoization instead of crashing.
    monkeypatch.setenv("REPRO_DECODE_MATRIX_CACHE_MAX", "lots")
    assert rs._cache_cap() == 0


def test_decode_matrix_cache_disabled_by_nonpositive_cap(monkeypatch):
    from repro.coding import reed_solomon as rs

    config.reset_process_caches()
    monkeypatch.setattr(rs, "_DECODE_MATRIX_CACHE_MAX", 0)
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"xyz")
    subset = {0: shares[0], 1: shares[1], 2: shares[2]}
    with config.caches(True):
        for _ in range(2):
            with counters.capture() as counts:
                assert code.decode(subset) == b"xyz"
            assert counts.get("gf_matrix_invert", 0) == 1
    assert len(rs._DECODE_MATRIX_CACHE) == 0


# -- memoized wire_bits ----------------------------------------------------


def test_merkle_witness_wire_bits_memoized():
    _, witnesses = merkle.build(128, [b"a", b"b", b"c"])
    witness = witnesses[0]
    assert witness._wire_bits_memo is None
    first = witness.wire_bits()
    assert witness._wire_bits_memo == first
    assert witness.wire_bits() == first
    # slots=True: the memo lives in a declared slot, not a __dict__.
    assert not hasattr(witness, "__dict__")
    assert witness == type(witness)(
        index=witness.index, siblings=witness.siblings
    )


def test_merkle_roundtrip_and_defensive_verify():
    root, witnesses = merkle.build(128, [b"x", b"y", b"z"])
    assert merkle.verify(128, root, 1, b"y", witnesses[1])
    assert not merkle.verify(128, root, 1, b"wrong", witnesses[1])
    assert not merkle.verify(128, root, 1, b"y", "not a witness")


# -- deterministic counters ------------------------------------------------


def test_counters_deterministic_across_runs():
    def run_once():
        config.reset_process_caches()
        counters.reset()
        measure("fixed_length_ca", 4, 1, 256, seed=0, spread="spread")
        return counters.snapshot()

    first, second = run_once(), run_once()
    assert first == second
    assert first["net_rounds"] > 0
    assert first["rs_encode"] > 0
    assert first["sha256"] > 0


def test_capture_reports_block_deltas():
    with counters.capture() as ops:
        counters.bump("example", 3)
        with counters.capture() as inner:
            counters.bump("example")
    assert inner == {"example": 1}
    assert ops == {"example": 4}


def test_rs_decode_raises_on_malformed_share_sets():
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"value")
    with pytest.raises(CodingError):
        code.decode({0: shares[0]})
    with pytest.raises(CodingError):
        code.decode({0: shares[0], 1: shares[1][:-1], 2: shares[2]})


# -- the profile document --------------------------------------------------


def test_hotpath_document_self_checks_clean():
    tiny = [dict(QUICK_CONFIGS[0])]
    doc = hotpath_document(cprofile=False, configs=tiny)
    key = config_key(tiny[0])
    assert key in doc["deterministic"]
    assert doc["deterministic"][key]["counters"]["net_rounds"] > 0
    errors, notes = check_counters(doc, doc)
    assert errors == [] and notes == []


def test_check_counters_flags_regressions_and_improvements():
    tiny = [dict(QUICK_CONFIGS[0])]
    doc = hotpath_document(cprofile=False, configs=tiny)
    key = config_key(tiny[0])
    worse = {
        "deterministic": {
            key: {
                **doc["deterministic"][key],
                "counters": {
                    **doc["deterministic"][key]["counters"],
                    "sha256":
                        doc["deterministic"][key]["counters"]["sha256"] + 1,
                },
            }
        }
    }
    errors, _ = check_counters(worse, doc)
    assert any("sha256 regressed" in e for e in errors)
    improved, notes = check_counters(doc, worse)
    assert improved == []
    assert any("sha256 improved" in n for n in notes)
