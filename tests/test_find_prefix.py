"""``FindPrefix`` / ``FindPrefixBlocks`` tests (Lemmas 1 and 4)."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import make_inputs
from repro.core.bitstrings import BitString, bits_fixed, longest_common_prefix
from repro.core.find_prefix import find_prefix, find_prefix_blocks
from repro.errors import ProtocolViolation
from repro.sim import Context, RandomGarbageAdversary, run_protocol

from conftest import adversary_params, honest_values, oracle_find_prefix

KAPPA = 64
ELL = 32


def fp_factory(ell, unit_bits=1):
    def factory(ctx, v):
        return find_prefix(ctx, v, ell, unit_bits=unit_bits)

    return factory


def check_lemma1(inputs, result, ell):
    """Assert the conclusion of Lemma 1 (resp. Lemma 4) for an execution."""
    honest_ids = [p for p in range(len(inputs)) if p not in result.corrupted]
    outputs = {p: result.outputs[p] for p in honest_ids}
    prefixes = {p: out.prefix for p, out in outputs.items()}
    # (same PREFIX* everywhere)
    first = next(iter(prefixes.values()))
    assert all(pfx == first for pfx in prefixes.values())
    lo, hi = min(inputs[p] for p in honest_ids), max(
        inputs[p] for p in honest_ids
    )
    for p, out in outputs.items():
        # (i) PREFIX* prefixes BITS_l(v); v and v_bot valid.
        assert bits_fixed(out.v, ell).has_prefix(out.prefix)
        assert lo <= out.v <= hi, f"v={out.v} outside [{lo},{hi}]"
        assert lo <= out.v_bot <= hi
    return first, outputs


class TestLemma1:
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_invariants_spread_inputs(self, adversary):
        inputs = [3, 2**31 - 5, 2**20, 77, 2**30, 12345, 999]
        result = run_protocol(fp_factory(ELL), inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        check_lemma1(inputs, result, ELL)

    @pytest.mark.parametrize("adversary", adversary_params())
    def test_identical_inputs_full_prefix(self, adversary):
        inputs = [0xDEADBEEF] * 7
        result = run_protocol(fp_factory(ELL), inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        prefix, outputs = check_lemma1(inputs, result, ELL)
        assert prefix.length == ELL
        assert all(out.v == 0xDEADBEEF for out in outputs.values())

    def test_prefix_at_least_honest_lcp(self):
        """The agreed prefix extends at least as far as the honest
        inputs' longest common prefix (the central insight of Sec. 1.2)."""
        base = 0b10110011 << (ELL - 8)
        inputs = [base + i for i in range(7)]  # 24-bit honest LCP at least
        result = run_protocol(fp_factory(ELL), inputs, 7, 2, kappa=KAPPA)
        prefix, _ = check_lemma1(inputs, result, ELL)
        honest = honest_values(inputs, result)
        lcp = longest_common_prefix(
            bits_fixed(min(honest), ELL), bits_fixed(max(honest), ELL)
        )
        assert prefix.length >= lcp.length
        # and the prefix is consistent with the honest range:
        assert prefix.min_fill(ELL) <= max(honest)
        assert prefix.max_fill(ELL) >= min(honest)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**ELL - 1),
                 min_size=7, max_size=7),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=10, deadline=None)
    def test_invariants_random(self, inputs, seed):
        result = run_protocol(
            fp_factory(ELL), inputs, 7, 2, kappa=KAPPA,
            adversary=RandomGarbageAdversary(seed),
        )
        check_lemma1(inputs, result, ELL)


class TestLemma4Blocks:
    def test_invariants_blocks(self):
        n, t = 4, 1
        ell = n * n * 4  # 16 blocks of 4 bits
        inputs = [0, 2**ell - 1, 2**(ell // 2), 5]
        result = run_protocol(
            lambda ctx, v: find_prefix_blocks(ctx, v, ell),
            inputs, n, t, kappa=KAPPA,
        )
        prefix, _ = check_lemma1(inputs, result, ell)
        # block granularity: prefix length is a multiple of block size
        assert prefix.length % 4 == 0

    def test_identical_inputs_blocks(self):
        n, t = 4, 1
        ell = n * n * 2
        inputs = [(1 << ell) - 3] * n
        result = run_protocol(
            lambda ctx, v: find_prefix_blocks(ctx, v, ell),
            inputs, n, t, kappa=KAPPA,
        )
        prefix, outputs = check_lemma1(inputs, result, ell)
        assert prefix.length == ell

    def test_custom_block_count(self):
        n, t = 4, 1
        ell = 24
        inputs = [1, 2, 3, 4]
        result = run_protocol(
            lambda ctx, v: find_prefix_blocks(ctx, v, ell, num_blocks=8),
            inputs, n, t, kappa=KAPPA,
        )
        check_lemma1(inputs, result, ell)


class TestValidation:
    def test_bad_ell(self):
        from repro.sim import Context

        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(find_prefix(ctx, 0, 0))

    def test_unit_must_divide(self):
        from repro.sim import Context

        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(find_prefix(ctx, 0, 10, unit_bits=3))

    def test_input_out_of_range(self):
        from repro.sim import Context

        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(find_prefix(ctx, 2**10, 10))

    def test_blocks_divisibility(self):
        from repro.sim import Context

        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(find_prefix_blocks(ctx, 0, 17))


class TestIterationCount:
    def test_log_ell_iterations(self):
        """FindPrefix runs O(log l) PI_lBA+ iterations (Lemma 1)."""
        import math

        ell = 64
        inputs = [i * 997 for i in range(7)]
        result = run_protocol(fp_factory(ell), inputs, 7, 2, kappa=KAPPA)
        iterations = {
            ch.split("/")[0]
            for ch in result.stats.bits_by_channel
            if ch.startswith("fp/i")
        }
        distinct = {
            ch.split("/")[1] for ch in result.stats.bits_by_channel
            if ch.startswith("fp/i")
        }
        assert len(distinct) <= math.ceil(math.log2(ell)) + 1


def shaped_inputs(shape, n, ell, seed):
    """Identical / clustered / spread inputs, or two camps of one value
    each sharing a random-length head (so one camp snaps mid-search)."""
    if shape != "two-camp":
        return make_inputs(n, ell, seed=seed, spread=shape)
    rng = random.Random(seed)
    shared = rng.randrange(ell)
    head = rng.getrandbits(ell) >> (ell - shared) << (ell - shared)
    camps = [head | rng.getrandbits(ell - shared) for _ in range(2)]
    split = rng.randrange(1, n)
    return [camps[0]] * split + [camps[1]] * (n - split)


def assert_same_execution(new, old):
    """Same honest outputs, bits, rounds and channel sequence."""
    assert new.corrupted == old.corrupted
    honest = [p for p in new.outputs if p not in new.corrupted]
    assert honest
    for p in honest:
        assert new.outputs[p] == old.outputs[p]
    assert new.stats.honest_bits == old.stats.honest_bits
    assert new.stats.rounds == old.stats.rounds
    assert new.channel_trace == old.channel_trace


class TestMatchesOracle:
    """Differential test: the loop that carries ``PREFIX*`` as a length
    against the one that rebuilt it (``conftest.oracle_find_prefix``)."""

    @pytest.mark.parametrize("which", range(len(adversary_params())),
                             ids=[p.id for p in adversary_params()])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_same_result_bits_rounds_channels(self, which, data):
        n = data.draw(st.sampled_from([4, 7]), label="n")
        ell = data.draw(st.integers(min_value=8, max_value=96), label="ell")
        unit = data.draw(
            st.sampled_from([d for d in range(1, ell + 1) if ell % d == 0]),
            label="unit_bits",
        )
        shape = data.draw(
            st.sampled_from(["identical", "clustered", "spread", "two-camp"]),
            label="shape",
        )
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        inputs = shaped_inputs(shape, n, ell, seed)
        # a fresh battery per run: its members carry rng state
        new, old = (
            run_protocol(
                lambda ctx, v: loop(ctx, v, ell, unit_bits=unit),
                inputs, n, (n - 1) // 3, kappa=KAPPA,
                adversary=adversary_params()[which].values[0],
            )
            for loop in (find_prefix, oracle_find_prefix)
        )
        assert_same_execution(new, old)

    @pytest.mark.parametrize("shape", ["clustered", "spread", "two-camp"])
    def test_long_value_with_unaligned_blocks(self, shape):
        """49 blocks of 1337 bits: no block boundary after the first is
        byte-aligned (``long_value``'s 42800-bit blocks all are)."""
        n, ell = 7, 49 * 1337
        inputs = shaped_inputs(shape, n, ell, seed=5)
        new = run_protocol(
            lambda ctx, v: find_prefix_blocks(ctx, v, ell),
            inputs, n, 2, kappa=KAPPA,
        )
        old = run_protocol(
            lambda ctx, v: oracle_find_prefix(
                ctx, v, ell, unit_bits=1337, channel="fpb"
            ),
            inputs, n, 2, kappa=KAPPA,
        )
        assert_same_execution(new, old)
        check_lemma1(inputs, new, ell)


def stub_ext_ba_plus(reply):
    """A ``PI_lBA+`` that sends nothing and outputs ``reply(own bytes)``."""
    def ext_ba_plus(ctx, payload, channel, ba):
        return reply(payload)
        yield  # pragma: no cover - makes this a generator

    return ext_ba_plus


class TestReplyChecks:
    """What ``find_prefix`` does with the bytes ``PI_lBA+`` hands back."""

    ELL = 16  # mid = 9: the first segment is 9 bits

    def drive(self, monkeypatch, reply):
        # (``repro.core.find_prefix`` the attribute is the function)
        monkeypatch.setattr(
            sys.modules["repro.core.find_prefix"], "ext_ba_plus",
            stub_ext_ba_plus(reply),
        )
        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(StopIteration) as done:
            next(find_prefix(ctx, 0xBEEF, self.ELL))
        return done.value.value

    def test_junk_bytes_are_a_violation(self, monkeypatch):
        with pytest.raises(ProtocolViolation, match="unparsable segment"):
            self.drive(monkeypatch, lambda own: b"\x00junk")

    def test_wrong_length_is_a_violation(self, monkeypatch):
        reply = BitString(0, 10).to_wire_bytes()
        with pytest.raises(ProtocolViolation, match="returned 10 bits, expected 9"):
            self.drive(monkeypatch, lambda own: reply)

    @pytest.mark.parametrize("pad", [
        pytest.param(lambda own: own[:4] + b"\x00" + own[4:], id="leading"),
        pytest.param(lambda own: own + b"\x00", id="trailing"),
    ])
    def test_padded_own_segment_is_a_violation(self, monkeypatch, pad):
        """Two byte strings never name one segment: an over-long encoding
        of the right bits is junk, not a match."""
        with pytest.raises(ProtocolViolation, match="unparsable segment"):
            self.drive(monkeypatch, pad)

    def test_echo_keeps_v_and_a_foreign_reply_snaps(self, monkeypatch):
        echoed = self.drive(monkeypatch, lambda own: own)
        assert echoed.prefix == bits_fixed(0xBEEF, self.ELL)
        assert echoed.v == echoed.v_bot == 0xBEEF
        # all-zero segments of the right length: parsed, checked, and the
        # party snaps to MAX_l of each new prefix until v itself is 0
        zeros = self.drive(
            monkeypatch, lambda own: own[:4] + bytes(len(own) - 4)
        )
        assert zeros.prefix == BitString(0, self.ELL)
        assert zeros.v == 0 and zeros.v_bot == 0xBEEF

    def test_identical_inputs_never_parse_or_rebuild(self, monkeypatch):
        """Own bytes are never parsed and the prefix is never rebuilt per
        iteration: with identical inputs every reply is the party's own
        payload, so the whole run makes no ``from_wire_bytes`` and no
        ``concat`` call."""
        calls = {"from_wire_bytes": 0, "concat": 0}
        parse, concat = BitString.from_wire_bytes.__func__, BitString.concat

        def counted_parse(cls, data):
            calls["from_wire_bytes"] += 1
            return parse(cls, data)

        def counted_concat(self, other):
            calls["concat"] += 1
            return concat(self, other)

        monkeypatch.setattr(BitString, "from_wire_bytes", classmethod(counted_parse))
        monkeypatch.setattr(BitString, "concat", counted_concat)
        ell = 64
        inputs = [0xDEADBEEFCAFEF00D] * 7
        result = run_protocol(fp_factory(ell), inputs, 7, 2, kappa=KAPPA)
        prefix, _ = check_lemma1(inputs, result, ell)
        assert prefix == bits_fixed(inputs[0], ell)
        assert calls == {"from_wire_bytes": 0, "concat": 0}
