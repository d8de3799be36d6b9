"""Wire-guard unit tests: bounds, verdicts, ceilings, digests.

The guards exist to make the robustness plane's promise concrete: a
byzantine payload can be discarded with *bounded* work and attributed
to its sender, while every honest message shape in the registry passes
with a wide margin.  These tests pin the measurer's pricing, the
verdict taxonomy, the per-round ceiling, and the digest stability the
fuzz plane's error attribution relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.core.bitstrings import BitString
from repro.crypto.merkle import MerkleWitness
from repro.sim.bombs import deep_nest
from repro.sim.sizing import OPCODE_MAX_CHARS, bit_size
from repro.sim.wire import (
    DEFAULT_MAX_DEPTH,
    QUARANTINE_REASONS,
    WireGuard,
    WireLimits,
    conformance_failures,
    inbox_digest,
    measure_payload,
)


class TestMeasurePayload:
    def test_conforming_atoms(self):
        for payload, expected in [
            (None, 1),
            (True, 1),
            (0, 1),
            (5, 3),
            (-5, 4),
            (b"abc", 24),
            ("tag", 8),
        ]:
            reason, bits = measure_payload(payload, max_bits=1 << 20)
            assert reason is None, payload
            assert bits == expected, payload

    def test_containers_price_their_leaves(self):
        reason, bits = measure_payload((1, 2, b"ab"), max_bits=1 << 20)
        assert reason is None
        assert bits == 1 + 2 + 16

    def test_oversize_verdict_fires_early(self):
        blob = bytes(1 << 20)
        reason, bits = measure_payload(blob, max_bits=1024)
        assert reason == "oversize"
        # the blob is priced from len() in O(1), not by walking bytes.
        assert bits == 8 * len(blob)

    def test_depth_verdict(self):
        nest = deep_nest(DEFAULT_MAX_DEPTH + 1)
        reason, _ = measure_payload(nest, max_bits=1 << 20)
        assert reason == "depth"

    def test_depth_at_cap_is_allowed(self):
        nest = deep_nest(DEFAULT_MAX_DEPTH)
        reason, _ = measure_payload(nest, max_bits=1 << 20)
        assert reason is None

    def test_extreme_depth_costs_bounded_work(self):
        # depth-100000 would blow any recursive walker; the iterative
        # measurer exits after max_depth + 1 pops.
        nest = deep_nest(100_000)
        reason, _ = measure_payload(nest, max_bits=1 << 20, max_depth=32)
        assert reason == "depth"

    def test_type_verdict_on_unpriceable_values(self):
        for payload in [3.5, {1, 2}, object(), ("VOTE", 1.25)]:
            reason, _ = measure_payload(payload, max_bits=1 << 20)
            assert reason == "type", payload

    def test_no_object_prices_itself(self):
        # the table is closed: a ``wire_bits`` method on a type without
        # a row is never called, whatever it would answer.
        class Liar:
            def wire_bits(self):
                raise RuntimeError("boom")

        @dataclass(frozen=True)
        class Claims:
            bits: int

            def wire_bits(self):
                return self.bits

        for hostile in (Liar(), Claims(12), ("VOTE", Claims(1))):
            assert measure_payload(hostile, max_bits=1 << 20)[0] == "type"
            with pytest.raises(TypeError):
                bit_size(hostile)

    def test_registered_types_with_hostile_fields_do_not_raise(self):
        assert measure_payload(MerkleWitness("x", 5), max_bits=1 << 20) == (
            "type", 0
        )
        assert measure_payload(BitString(5, 10**12), max_bits=1 << 20) == (
            "oversize", 10**12
        )

    def test_a_str_is_an_opcode_only_up_to_the_cap(self):
        assert measure_payload("x" * OPCODE_MAX_CHARS, max_bits=64) == (None, 8)
        bomb = "x" * 10**7
        for payload in (bomb, (bomb,) * 100, "x" * (OPCODE_MAX_CHARS + 1)):
            assert measure_payload(payload, max_bits=1 << 20) == ("type", 0)
        with pytest.raises(TypeError):
            bit_size(bomb)
        guard = WireGuard(WireLimits.from_envelopes(7, 2, 32, 128))
        assert guard.check(0, 1, (bomb,) * 100) == ("type", 0)

    def test_verdicts_stay_in_the_closed_set(self):
        hostile = [bytes(1 << 16), deep_nest(1000), 2.5, {"k": {1}}]
        for payload in hostile:
            reason, _ = measure_payload(payload, max_bits=256, max_depth=8)
            assert reason in QUARANTINE_REASONS


class TestWireLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            WireLimits(max_message_bits=0)
        with pytest.raises(ValueError):
            WireLimits(max_message_bits=10, max_depth=0)
        with pytest.raises(ValueError):
            WireLimits(max_message_bits=10, max_round_bits=-1)

    def test_from_envelopes_scales_with_parameters(self):
        small = WireLimits.from_envelopes(4, 1, 8, 64)
        large = WireLimits.from_envelopes(7, 2, 4096, 128)
        assert small.max_message_bits < large.max_message_bits
        assert small.max_round_bits == 4 * small.max_message_bits

    def test_envelope_bound_admits_whole_values(self):
        # high-cost baselines ship whole ell-bit values; the derived
        # per-message bound must clear them by a wide margin.
        limits = WireLimits.from_envelopes(7, 2, 4096, 128)
        value = (1 << 4096) - 1
        reason, _ = measure_payload(
            value, max_bits=limits.max_message_bits
        )
        assert reason is None


class TestWireGuard:
    def test_clean_traffic_charges_the_ceiling(self):
        guard = WireGuard(WireLimits(max_message_bits=64, max_round_bits=100))
        assert guard.check(0, 1, b"abc") == (None, 24)
        assert guard.check(0, 1, b"abcd") == (None, 32)
        # 24 + 32 + 48 > 100: the third message trips the ceiling.
        assert guard.check(0, 1, b"abcdef")[0] == "ceiling"

    def test_ceiling_is_per_sender(self):
        guard = WireGuard(WireLimits(max_message_bits=64, max_round_bits=30))
        assert guard.check(0, 1, b"abc")[0] is None
        assert guard.check(0, 2, b"abc")[0] is None
        assert guard.check(0, 1, b"abc")[0] == "ceiling"

    def test_ceiling_resets_per_round(self):
        guard = WireGuard(WireLimits(max_message_bits=64, max_round_bits=30))
        assert guard.check(0, 1, b"abc")[0] is None
        assert guard.check(1, 1, b"abc")[0] is None

    def test_quarantined_message_does_not_charge_ceiling(self):
        guard = WireGuard(WireLimits(max_message_bits=32, max_round_bits=40))
        assert guard.check(0, 1, b"abcdef")[0] == "oversize"
        # the rejected 48 bits did not consume the sender's budget:
        # 32 + 8 = 40 still fits under the ceiling.
        assert guard.check(0, 1, b"abcd") == (None, 32)
        assert guard.check(0, 1, b"a") == (None, 8)


class TestConformance:
    def test_classic_garbage_is_priceable(self):
        # every payload the classic RandomGarbageAdversary emits must be
        # measurable (they are ints/bytes/strs/tuples), though large
        # ones may legitimately exceed tight bounds.
        from repro.sim.adversary import RandomGarbageAdversary

        adversary = RandomGarbageAdversary(seed=7)
        rng = random.Random(7)
        payloads = [maker(rng) for maker in adversary._makers for _ in (0, 1)]
        limits = WireLimits.from_envelopes(7, 2, 128, 64)
        for index, reason, _ in conformance_failures(payloads, limits):
            assert reason != "type", payloads[index]

    def test_reports_index_reason_bits(self):
        limits = WireLimits(max_message_bits=16, max_depth=2)
        failures = conformance_failures(
            [b"ok", bytes(10), ((((1,),),),), 1.5], limits
        )
        assert [(i, r) for i, r, _ in failures] == [
            (1, "oversize"), (2, "depth"), (3, "type"),
        ]


class TestInboxDigest:
    def test_stable_and_sender_sensitive(self):
        inbox = {0: (1, 2), 3: b"xy"}
        assert inbox_digest(inbox) == inbox_digest(dict(inbox))
        assert inbox_digest(inbox) != inbox_digest({0: (1, 2), 4: b"xy"})
        assert len(inbox_digest(inbox)) == 16

    def test_survives_hostile_payloads(self):
        # repr() of these would recurse or be enormous; the digest must
        # not touch repr at all.
        inbox = {0: deep_nest(5000), 1: bytes(1 << 20), 2: {1.5}}
        assert len(inbox_digest(inbox)) == 16
