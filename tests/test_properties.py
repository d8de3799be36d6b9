"""Model-based and cross-implementation property tests.

These tests pin the core data structures against independent reference
implementations (naive string/polynomial models) and fuzz protocol-level
invariants that the per-module suites check only pointwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.coding.gf import GF256
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core.bitstrings import BitString
from repro.crypto.merkle import MerkleWitness
from repro.sim import bit_size
from repro.sim.bombs import deep_nest
from repro.sim.sizing import (
    OPCODE_MAX_CHARS,
    WIRE_SCHEMA,
    canonical_text,
    decode_payload,
    encode_payload,
    measure_payload,
)

# ---------------------------------------------------------------------------
# BitString vs a naive '0'/'1'-string reference model
# ---------------------------------------------------------------------------

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=64)


def ref_of(bits: list[int]) -> str:
    return "".join(str(b) for b in bits)


class TestBitStringModel:
    @given(bit_lists)
    def test_str_matches_reference(self, bits):
        assert str(BitString.from_bits(bits)) == ref_of(bits)

    @given(bit_lists, bit_lists)
    def test_concat_matches_reference(self, a, b):
        got = BitString.from_bits(a) + BitString.from_bits(b)
        assert str(got) == ref_of(a) + ref_of(b)

    @given(bit_lists, st.data())
    def test_slice_matches_reference(self, bits, data):
        bs = BitString.from_bits(bits)
        ref = ref_of(bits)
        i = data.draw(st.integers(min_value=0, max_value=len(bits)))
        j = data.draw(st.integers(min_value=i, max_value=len(bits)))
        assert str(bs[i:j]) == ref[i:j]

    @given(bit_lists, bit_lists)
    def test_prefix_matches_reference(self, a, b):
        got = BitString.from_bits(a).is_prefix_of(BitString.from_bits(b))
        assert got == ref_of(b).startswith(ref_of(a))

    @given(bit_lists)
    def test_value_matches_reference(self, bits):
        expected = int(ref_of(bits), 2) if bits else 0
        assert BitString.from_bits(bits).value == expected

    @given(bit_lists, st.integers(min_value=0, max_value=16))
    def test_fills_match_reference(self, bits, pad):
        bs = BitString.from_bits(bits)
        ell = len(bits) + pad
        ref = ref_of(bits)
        min_ref = int(ref + "0" * pad, 2) if ell else 0
        max_ref = int(ref + "1" * pad, 2) if ell else 0
        assert bs.min_fill(ell) == min_ref
        assert bs.max_fill(ell) == max_ref

    @given(bit_lists, st.integers(min_value=0, max_value=63))
    def test_indexing_matches_reference(self, bits, index):
        if index >= len(bits):
            return
        assert BitString.from_bits(bits)[index] == bits[index]


# ---------------------------------------------------------------------------
# Reed-Solomon vs naive per-chunk polynomial evaluation over GF256
# ---------------------------------------------------------------------------


def naive_encode(code: ReedSolomonCode, data: bytes) -> list[bytes]:
    """Reference: frame like the codec, then evaluate chunk polynomials
    point by point with scalar GF ops."""
    framed = len(data).to_bytes(4, "big") + data
    stride = code.k  # one byte per symbol in GF256
    framed += b"\x00" * ((-len(framed)) % stride)
    chunks = [
        list(framed[i:i + stride]) for i in range(0, len(framed), stride)
    ]
    shares = []
    for i in range(code.n):
        x = i + 1
        out = bytearray()
        for chunk in chunks:
            acc = 0
            for power, coefficient in enumerate(chunk):
                acc ^= GF256.mul(coefficient, GF256.pow(x, power))
            out.append(acc)
        shares.append(bytes(out))
    return shares


class TestReedSolomonModel:
    @given(st.binary(max_size=60))
    @settings(max_examples=30)
    def test_encode_matches_naive(self, data):
        code = ReedSolomonCode(6, 4, field=GF256)
        assert code.encode(data) == naive_encode(code, data)

    @given(st.binary(max_size=60), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_naive_shares_decode(self, data, rnd):
        code = ReedSolomonCode(6, 4, field=GF256)
        shares = naive_encode(code, data)
        subset = rnd.sample(range(6), 4)
        assert code.decode({i: shares[i] for i in subset}) == data


# ---------------------------------------------------------------------------
# Protocol-level invariants, fuzzed
# ---------------------------------------------------------------------------


class TestProtocolInvariants:
    @given(
        st.lists(st.integers(min_value=0, max_value=1),
                 min_size=7, max_size=7),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_binary_phase_king_outputs_honest_bit(self, inputs, seed):
        """The property Lemmas 2/3 rely on: binary BA output is always
        a bit some honest party held."""
        from repro.ba import BIT_DOMAIN, phase_king
        from repro.sim import RandomGarbageAdversary, run_protocol

        result = run_protocol(
            lambda ctx, v: phase_king(ctx, v, BIT_DOMAIN),
            inputs, 7, 2, kappa=64,
            adversary=RandomGarbageAdversary(seed),
        )
        out = result.common_output()
        honest_bits = {
            inputs[p] for p in range(7) if p not in result.corrupted
        }
        assert out in honest_bits

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=10, deadline=None)
    def test_ext_ba_plus_it_and_bpa_fuzzed(self, duplicates, seed):
        """Random pre-agreement level x random adversary seed: Intrusion
        Tolerance always; Bounded Pre-Agreement when the pre-agreement
        threshold is met by honest parties."""
        from repro.ba import ext_ba_plus
        from repro.sim import RandomGarbageAdversary, run_protocol

        common = b"C" * 40
        inputs = [common] * duplicates + [
            bytes([50 + i]) * 40 for i in range(7 - duplicates)
        ]
        result = run_protocol(
            lambda ctx, v: ext_ba_plus(ctx, v), inputs, 7, 2, kappa=64,
            adversary=RandomGarbageAdversary(seed),
        )
        out = result.common_output()
        honest = {inputs[p] for p in range(7) if p not in result.corrupted}
        assert out is None or out in honest
        honest_common = sum(
            1 for p in range(7)
            if p not in result.corrupted and inputs[p] == common
        )
        if honest_common >= 3:  # n - 2t
            assert out is not None

    @given(
        st.lists(st.integers(min_value=-(2**24), max_value=2**24),
                 min_size=5, max_size=5),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=8, deadline=None)
    def test_authenticated_ca_fuzzed(self, inputs, seed):
        from repro.authenticated import authenticated_ca
        from repro.crypto.signatures import SignatureScheme
        from repro.sim import RandomGarbageAdversary, run_protocol

        scheme = SignatureScheme(64, 5, seed=b"fuzz")
        result = run_protocol(
            lambda ctx, v: authenticated_ca(ctx, v, scheme),
            inputs, 5, 2, kappa=64,
            adversary=RandomGarbageAdversary(seed),
        )
        result.assert_convex_valid(inputs)


# ---------------------------------------------------------------------------
# Wire sizing totality over protocol-shaped payloads
# ---------------------------------------------------------------------------

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**64), max_value=2**64),
        st.binary(max_size=32),
        st.sampled_from(["VOTE", "PROP", "NOPROP"]),
        st.builds(
            BitString,
            st.integers(min_value=0, max_value=255),
            st.just(8),
        ),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.dictionaries(st.integers(0, 3), children, max_size=3),
    ),
    max_leaves=10,
)


class TestSizingTotality:
    @given(payloads)
    def test_every_protocol_payload_is_sizable(self, payload):
        size = bit_size(payload)
        assert isinstance(size, int) and size >= 0

    @given(payloads)
    def test_sizing_deterministic(self, payload):
        assert bit_size(payload) == bit_size(payload)


# ---------------------------------------------------------------------------
# The wire schema: four readers of one table agree on every generated payload
# ---------------------------------------------------------------------------

_ints = st.integers(min_value=-(2**70), max_value=2**70) | st.integers(
    min_value=0, max_value=3
).map(lambda k: 1 << (5000 * k))  # past the 4300-digit decimal limit
_hashes = st.binary(min_size=8, max_size=8)

#: one strategy per atom row ...
ATOMS = {
    type(None): st.none(),
    bool: st.booleans(),
    int: _ints,
    bytes: st.binary(max_size=16),
    bytearray: st.binary(max_size=16).map(bytearray),
    str: st.text(max_size=OPCODE_MAX_CHARS + 4),
    float: st.floats(allow_nan=False),
}
#: ... and per fixed-shape row; the rest are built from generated
#: children by the row's own ``load``.  A row added to the table without
#: a strategy here fails ``test_every_row_is_generated``.
FIXED = {
    Fraction: st.fractions(),
    BitString: st.integers(0, 255).map(lambda v: BitString(v, 8)),
    MerkleWitness: st.builds(
        MerkleWitness, st.integers(0, 2**20),
        st.lists(_hashes, max_size=4).map(tuple),
    ),
}
VARIADIC = (tuple, list, frozenset, set, dict)
_hashable = st.one_of(
    *(ATOMS[kind] for kind in ATOMS if kind is not bytearray), *FIXED.values()
)


def _built_from(children):
    def parts_of(kind):
        if kind is dict:
            pairs = st.lists(st.tuples(_hashable, children), max_size=3)
            return pairs.map(lambda kvs: [x for kv in kvs for x in kv])
        if WIRE_SCHEMA[kind].unordered:
            return st.lists(_hashable, max_size=3)
        return st.lists(children, max_size=3)

    return st.one_of(
        *(parts_of(kind).map(WIRE_SCHEMA[kind].load) for kind in VARIADIC)
    )


schema_payloads = st.recursive(
    st.one_of(*ATOMS.values(), *FIXED.values()), _built_from, max_leaves=12
)
UNBOUNDED = dict(max_bits=math.inf, max_depth=64)


def _priced(payload) -> bool:
    return measure_payload(payload, **UNBOUNDED)[0] is None


class TestWireSchema:
    def test_every_row_is_generated(self):
        assert set(ATOMS) | set(FIXED) | set(VARIADIC) == set(WIRE_SCHEMA)
        assert {
            kind for kind, row in WIRE_SCHEMA.items() if row.children is None
        } == set(ATOMS)

    @given(schema_payloads)
    def test_the_two_pricers_agree(self, payload):
        verdict, bits = measure_payload(payload, **UNBOUNDED)
        if verdict is None:
            assert bit_size(payload) == bits
        else:
            assert verdict == "type"
            with pytest.raises(TypeError):
                bit_size(payload)

    @given(schema_payloads)
    def test_the_codec_carries_every_row(self, payload):
        wire = json.loads(json.dumps(encode_payload(payload)))
        assert decode_payload(wire) == payload
        # ... and exactly: a bool stays a bool, a bytearray a bytearray.
        assert canonical_text(decode_payload(wire)) == canonical_text(payload)

    @given(schema_payloads, schema_payloads)
    def test_canonical_text_is_injective(self, a, b):
        if canonical_text(a) == canonical_text(b):
            assert a == b

    @given(schema_payloads)
    def test_canonical_text_is_blind_to_the_pricing_memo(self, payload):
        before = canonical_text(payload)
        measure_payload(payload, **UNBOUNDED)  # fills _wire_bits_memo
        assert canonical_text(payload) == before

    @given(schema_payloads.filter(_priced), schema_payloads.filter(_priced))
    def test_the_verdict_is_monotone(self, payload, more):
        bits = bit_size(payload)
        assume(bits > 0)  # an empty container has no atom to be over
        fits = dict(max_bits=bits, max_depth=64)
        tight = dict(max_bits=bits - 1, max_depth=64)
        assert measure_payload(payload, **fits) == (None, bits)
        for grown in (payload, (payload, more), [more, payload]):
            assert measure_payload(grown, **tight)[0] == "oversize"
        nest = deep_nest(65, leaf=payload)
        for grown in (nest, (nest, more), [more, nest]):
            assert measure_payload(grown, **UNBOUNDED)[0] == "depth"

    def test_hostile_sizes_are_decided_without_walking_them(self):
        # decided by a verdict on inputs a recursive walk, or one that
        # reads the bytes, could not finish -- not by a clock.
        bound = dict(max_bits=1 << 20)
        assert measure_payload(deep_nest(100_000), **bound)[0] == "depth"
        blob = bytes(64 << 20)
        assert measure_payload(blob, **bound) == ("oversize", 8 * len(blob))
        assert measure_payload("x" * 10**7, **bound) == ("type", 0)
        assert measure_payload((blob,) * 10**5, **bound)[0] == "oversize"
