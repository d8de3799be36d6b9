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
import sys

import pytest

from repro.analysis.experiments import make_inputs, measure
from repro.ba import distribution
from repro.ba.broadcast import byzantine_broadcast
from repro.ba.distribution import (
    _encode_and_build,
    encode_and_accumulate,
    valid_share_tuple,
)
from repro.ba.ext_ba_plus import ext_ba_plus
from repro.coding.reed_solomon import ReedSolomonCode, rs_code
from repro.core.fixed_length import fixed_length_ca
from repro.core.high_cost_ca import high_cost_ca
from repro.crypto import merkle
from repro.crypto.merkle import MerkleWitness
from repro.errors import CodingError
from repro.perf import config, counters
from repro.perf.profile import (
    QUICK_CONFIGS,
    check_counters,
    config_key,
    hotpath_document,
)
from repro.sim import BitBudgetMonitor, run_with_escalation
from repro.sim.adversary import (
    Adversary,
    RandomGarbageAdversary,
    RoundView,
    ScriptedAdversary,
)
from repro.sim.bombs import BOMB_CATALOG, deep_nest
from repro.sim.party import Context
from repro.sim.runner import run_protocol

from test_network_delivery import PLANES

BACKENDS = config.available_backends()


def _run_fixed(ell=2048, *, seed=4, **plane):
    inputs = make_inputs(7, ell, seed=seed, spread="clustered")
    return run_protocol(
        lambda ctx, v: fixed_length_ca(ctx, v, ell),
        inputs,
        n=7,
        t=2,
        trace=True,
        **plane,
    )


def _comparable(result):
    """Everything observable about an execution except wall time."""
    return (
        result.outputs,
        result.corrupted,
        result.channel_trace,
        result.trace,
        dataclasses.replace(result.stats, wall_s=0.0),
        result.recoveries,
        result.crash_log,
    )


def _on_and_off(run):
    """``run()`` with the caches on, then off: ``(result, ops)`` each."""
    observed = []
    for enabled in (True, False):
        config.reset_process_caches()
        with config.caches(enabled), counters.capture() as ops:
            result = run()
        observed.append((result, ops))
    return observed


# -- correctness neutrality ------------------------------------------------


def _assert_caches_invisible(run, planes):
    """``run(**plane)`` is byte-identical with the caches on and off, on
    every backend and under every plane of ``planes``.  (A loop, so the
    two tests below keep their unparametrised ids.)"""
    for backend in BACKENDS:
        for plane in sorted(planes):
            with config.use_backend(backend):
                (warm, _), (cold, _) = _on_and_off(
                    lambda: run(**PLANES[plane]())
                )
            assert _comparable(warm) == _comparable(cold), (backend, plane)


def test_caches_do_not_change_any_observable_byte():
    _assert_caches_invisible(_run_fixed, PLANES)


class OneGarbler(RandomGarbageAdversary):
    """Leaves one unit of the shared ``t`` budget for a crash."""

    def select_corruptions(self, n, t):
        return {n - 1}


def test_caches_neutral_under_byzantine_garbage():
    def run(**plane):
        garbler = OneGarbler if "crashes" in plane else RandomGarbageAdversary
        plane["adversary"] = garbler(seed=11)
        return _run_fixed(**plane)

    # a garbage adversary is the ``scripted`` plane.
    _assert_caches_invisible(run, set(PLANES) - {"scripted"})


# -- what the execution memo computes, and what it never holds --------------


def _spy(monkeypatch, owner, name):
    """Record ``(args, result)`` of every call to ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _memo_keys(cache, tag):
    return {key for key in cache if key[0] == tag}


def test_each_distinct_kernel_input_is_computed_once(monkeypatch):
    """Fault-free, caches on: one hash chain per distinct
    ``(z*, i, share, witness)``, one decode + re-encode + root comparison
    per distinct ``(z*, collected)``; caches off, one per call."""

    def run():
        return measure("pi_z", 7, 2, 1024, seed=0, spread="clustered")

    with monkeypatch.context() as patch:
        verifies = _spy(patch, merkle, "verify")
        decodes = _spy(patch, distribution, "decode_with_check")
        with config.caches(False), counters.capture() as cold:
            run()
    assert all(accepted for _, accepted in verifies)
    distinct_tuples = {args for args, _ in verifies}
    distinct_share_sets = {
        (z_star, tuple(sorted(collected.items())))
        for (_, z_star, collected), _ in decodes
    }
    assert (cold["merkle_verify"], cold["rs_decode"]) == (280, 35)
    assert (len(verifies), len(decodes)) == (280, 35)
    assert (len(distinct_tuples), len(distinct_share_sets)) == (35, 5)

    with config.caches(True), counters.capture() as warm:
        run()
    assert warm["merkle_verify"] == len(distinct_tuples)
    assert warm["rs_decode"] == len(distinct_share_sets)
    # one re-encode per decode verdict, the rest are the parties' inputs.
    assert warm["rs_encode"] == warm["merkle_build"] == 12
    assert warm["encode_cache_miss"] == 12


KAPPA = 64


def _committed(n, t, value, damage=None):
    """``(root, shares, witnesses)`` of ``value``; ``damage`` names a
    share to corrupt *before* accumulating, so the root commits a vector
    that is not a codeword."""
    shares = rs_code(n, n - t).encode(value)
    if damage is not None:
        shares[damage] = shares[damage][:-1] + b"\x77"
    root, witnesses = merkle.build(KAPPA, shares)
    return root, shares, witnesses


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_share_tuples_are_never_remembered(backend):
    """Two corrupted parties send every destination its *own* well-formed
    but invalid tuple in ``dist/r1`` and ``dist/r2``.  Every one a party
    looks at is rejected and costs one ``merkle_verify`` -- caches on or
    off -- and none is remembered.  (Round 1 stops at the first valid
    tuple and an honest holder's comes first, so only the round-2 junk
    is ever looked at.)"""
    n, t, value = 7, 2, b"the agreed value " * 8
    junk = {"r1": [], "r2": []}

    def forge(view, src, dst, spec):
        step = view.channel.rsplit("/", 1)[-1]
        if "/dist/" not in view.channel or step not in junk:
            return spec
        index = dst if step == "r1" else src
        salt = bytes([len(junk["r1"]) + len(junk["r2"])])
        forged = (
            index,
            salt * 24,
            MerkleWitness(index, (salt * (KAPPA // 8),) * 3),
        )
        junk[step].append(forged)
        return forged

    contexts = []

    def factory(ctx, v):
        contexts.append(ctx)
        return ext_ba_plus(ctx, v)

    def run():
        del junk["r1"][:], junk["r2"][:]
        return run_protocol(
            factory, [value] * n, n=n, t=t, kappa=KAPPA,
            adversary=ScriptedAdversary(forge), trace=True,
        )

    with config.use_backend(backend):
        (warm, ops), (cold, cold_ops) = _on_and_off(run)
    cache, unused = contexts[0].cache, contexts[n].cache
    assert unused == {}  # the caches-off run's
    assert _comparable(warm) == _comparable(cold)
    assert warm.common_output() == value
    # 2 senders x 7 destinations per round, no two alike.
    forged = junk["r1"] + junk["r2"]
    assert len(junk["r1"]) == len(junk["r2"]) == 14
    assert len(set(forged)) == 28
    accepted = _memo_keys(cache, "mt.verify")
    assert len(accepted) == n
    assert ops["merkle_verify"] == len(accepted) + len(junk["r2"])
    # without the memo: 7 first-hit checks in r1, then 7 parties each
    # checking 5 honest forwards and 2 forgeries.
    assert cold_ops["merkle_verify"] == 7 + 7 * (5 + 2)
    held = {(key[3], key[4]) for key in accepted}
    assert not held & {(i, share) for i, share, _ in forged}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("damage", [0, 6], ids=["decoded", "undecoded"])
def test_non_codeword_commitment_gets_one_memoised_verdict(backend, damage):
    """A byzantine broadcaster commits a vector that is not a codeword:
    every honest party gets the same ``None`` from ``decode_with_check``,
    computed once for the share set they all collected."""
    n, t = 7, 2
    root, shares, witnesses = _committed(n, t, b"committed value", damage)

    class NonCodewordSender(Adversary):
        def select_corruptions(self, n, t):
            return {0}

        def deliver(self, view):
            if not view.channel.endswith("/disperse"):
                return {}
            return {
                (0, dst): (root, dst, shares[dst], witnesses[dst])
                for dst in range(view.n)
            }

    contexts = []

    def factory(ctx, v):
        contexts.append(ctx)
        return byzantine_broadcast(ctx, 0, None)

    def run():
        return run_protocol(
            factory, [b""] * n, n=n, t=t, kappa=KAPPA,
            adversary=NonCodewordSender(), trace=True,
        )

    with config.use_backend(backend):
        (warm, ops), (cold, cold_ops) = _on_and_off(run)
    cache = contexts[0].cache  # the caches-on run came first
    assert _comparable(warm) == _comparable(cold)
    assert warm.common_output() is None
    verdicts = _memo_keys(cache, "rs.decode")
    assert [cache[key] for key in verdicts] == [(None,)]
    assert ops["rs_decode"] == 1
    assert cold_ops["rs_decode"] == n - 1  # one per honest party


# -- hostile keys ----------------------------------------------------------


class _Unhashable(Exception):
    pass


class LoudBytes(bytes):
    def __hash__(self):
        raise _Unhashable("hash() reached a bytes subclass")


class LoudInt(int):
    def __hash__(self):
        raise _Unhashable("hash() reached an int subclass")


class LoudTuple(tuple):
    def __hash__(self):
        raise _Unhashable("hash() reached a tuple subclass")


def _bomb_payloads():
    """What each :data:`BOMB_CATALOG` adversary puts on a link when the
    spec message is a valid share tuple."""
    root, shares, witnesses = _committed(4, 1, b"spec")
    view = RoundView(
        round_index=0, n=4, t=1, kappa=KAPPA, corrupted=frozenset({3}),
        channels={p: "lba+/dist/r2" for p in range(4)},
        honest_outgoing={},
        spec_outgoing={
            (3, dst): (3, shares[3], witnesses[3]) for dst in range(4)
        },
        corrupted_inputs={3: b"spec"},
    )
    return {
        name: build(7).deliver(view)[(3, 0)]
        for name, build in sorted(BOMB_CATALOG.items())
    }


HAND_MADE = {
    "none": None,
    "bool": True,
    "float": 1.0,
    "str": "\x00" * 8,
    "list": [b"\x00" * 8] * 2,
    "bytearray": bytearray(8),
    "nested": deep_nest(2000, b"\x00" * 8),
    "loud-bytes": LoudBytes(8),
    "loud-int": LoudInt(1),
    "loud-tuple": LoudTuple((bytes(8),) * 2),
    "siblings-of-bytearray": (bytearray(8),) * 2,
    "siblings-of-loud-bytes": (LoudBytes(8),) * 2,
    "siblings-of-nests": (deep_nest(2000, b""),) * 2,
    "siblings-one-short": (bytes(8),),
    "siblings-one-long": (bytes(8),) * 3,
}
JUNK = {**_bomb_payloads(), **HAND_MADE}
POSITIONS = ("root", "index", "share", "witness", "siblings", "sibling",
             "message")


def _share_tuple_at_the_parent(ctx, z_star, index, message):
    """``valid_share_tuple`` as it was before the memo: the oracle."""
    if not (isinstance(message, tuple) and len(message) == 3):
        return False
    i, share, witness = message
    if i != index or not isinstance(share, bytes) or not share:
        return False
    return merkle.verify(ctx.kappa, z_star, i, share, witness)


def _planted(position, junk, root, index, share, witness):
    """The valid ``(root, index, message)`` with ``junk`` in one place."""
    if position == "root":
        return junk, index, (index, share, witness)
    if position == "index":
        return root, index, (junk, share, witness)
    if position == "share":
        return root, index, (index, junk, witness)
    if position == "witness":
        return root, index, (index, share, junk)
    if position == "siblings":
        return root, index, (index, share, MerkleWitness(index, junk))
    if position == "sibling":
        siblings = (junk,) + witness.siblings[1:]
        return root, index, (index, share, MerkleWitness(index, siblings))
    return root, index, junk


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("name", sorted(JUNK))
def test_hostile_share_tuples_never_reach_a_memo_key(name, position):
    """Junk in any position of a share tuple gets the verdict
    ``merkle.verify`` always gave it, without being hashed (the loud
    types raise from ``__hash__``) and without touching the memo --
    including the junk that is *valid* (a ``bool`` index equal to 1, a
    ``bytes`` subclass holding the right share)."""
    n, t = 4, 1
    root, shares, witnesses = _committed(n, t, b"some honest value")
    ctx = Context(party_id=1, n=n, t=t, kappa=KAPPA)
    with config.caches(True):
        for i in range(n):
            assert valid_share_tuple(
                ctx, root, i, (i, shares[i], witnesses[i])
            )
        before = dict(ctx.cache)
        assert len(_memo_keys(before, "mt.verify")) == n
        probes = [JUNK[name]]
        if name == "loud-bytes" and position in ("root", "share"):
            # the right bytes in the wrong type: valid, still unhashed.
            probes.append(LoudBytes(root if position == "root" else shares[1]))
        for junk in probes:
            z_star, index, message = _planted(
                position, junk, root, 1, shares[1], witnesses[1]
            )
            with counters.capture() as ops:
                verdict = valid_share_tuple(ctx, z_star, index, message)
            with counters.capture() as oracle_ops:
                expected = _share_tuple_at_the_parent(
                    ctx, z_star, index, message
                )
            assert verdict is expected
            assert ops == oracle_ops
            assert ctx.cache == before


# -- cache poisoning and scope ---------------------------------------------


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
    assert len(_memo_keys(ctx.cache, "rs+mt")) == 2


def test_encode_cache_is_execution_scoped(monkeypatch):
    """One memo per execution: the ``n`` contexts of a network (and the
    context a crashed party is replayed under) hold the same dict; two
    networks, a supervisor's fallback network included, never do."""
    inputs = [3, 5, 7, 11, 13, 17, 19]

    def contexts_of(run, **kwargs):
        seen = []

        def factory(ctx, v):
            seen.append(ctx)
            return fixed_length_ca(ctx, v, 8)

        run(factory, inputs, n=7, t=2, **kwargs)
        return seen

    with config.caches(True):
        first = contexts_of(run_protocol)
        second = contexts_of(run_protocol)
        replayed = contexts_of(run_protocol, **PLANES["crashed"]())
        fallen = []

        def fallback(ctx, v, channel):
            fallen.append(ctx)
            return high_cost_ca(ctx, v, channel=channel)

        # the supervisor imports its HighCostCA rung at call time.
        monkeypatch.setattr(
            sys.modules["repro.core.high_cost_ca"], "high_cost_ca", fallback
        )
        primary = contexts_of(
            run_with_escalation,
            monitors=[BitBudgetMonitor(per_channel={"flca/fp": 1})],
        )
    for execution, size in (
        (first, 7), (second, 7), (replayed, 8), (primary, 7), (fallen, 7)
    ):
        assert len(execution) == size
        assert all(ctx.cache is execution[0].cache for ctx in execution)
    assert first[0].cache and first[0].cache == second[0].cache
    memos = [e[0].cache for e in (first, second, replayed, primary, fallen)]
    assert len({id(memo) for memo in memos}) == len(memos)
    # a context built on its own gets its own; contents never affect
    # Context identity.
    alone = Context(party_id=0, n=7, t=2)
    assert alone.cache == {} and alone.cache is not first[0].cache
    assert alone == first[0]


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
    doc = hotpath_document(configs=tiny)
    key = config_key(tiny[0])
    assert key in doc["deterministic"]
    assert doc["deterministic"][key]["counters"]["net_rounds"] > 0
    errors, notes = check_counters(doc, doc)
    assert errors == [] and notes == []


def test_check_counters_flags_regressions_and_improvements():
    tiny = [dict(QUICK_CONFIGS[0])]
    doc = hotpath_document(configs=tiny)
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


@pytest.mark.parametrize("delta", [7, -7])
def test_check_counters_does_not_gate_hit_counters(delta):
    """Hits are calls minus misses: more of them is a better memo, fewer
    a caller that stopped asking.  Either way a note, never an error --
    ``encode_cache_hit 57 -> 64`` is what one memo per execution does."""
    key = "fixed_length_ca/n7/t2/ell1024/seed4/clustered"
    entry = {"bits": 1, "rounds": 1, "messages": 1, "output_sha256": "x"}
    base = {"deterministic": {key: {
        **entry, "counters": {"encode_cache_hit": 57, "encode_cache_miss": 83},
    }}}
    moved = {"deterministic": {key: {
        **entry,
        "counters": {"encode_cache_hit": 57 + delta, "encode_cache_miss": 83},
    }}}
    errors, notes = check_counters(moved, base)
    assert errors == []
    assert notes == [
        f"{key}: counter encode_cache_hit moved 57 -> {57 + delta} "
        "(refresh the committed baseline)"
    ]
    # the misses beside them are still gated.
    moved["deterministic"][key]["counters"]["encode_cache_miss"] = 84
    errors, _ = check_counters(moved, base)
    assert errors == [f"{key}: counter encode_cache_miss regressed 83 -> 84"]
