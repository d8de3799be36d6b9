"""``AddLastBit``/``AddLastBlock`` (Lemmas 2, 5) and ``GetOutput`` (Lemma 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.add_last import add_last_bit, add_last_block
from repro.core.bitstrings import BitString, bits_fixed
from repro.core.get_output import get_output
from repro.sim import Context, ScriptedAdversary, run_protocol

from conftest import adversary_params

KAPPA = 64
ELL = 16


class TestAddLastBit:
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_agreed_bit_is_honest(self, adversary):
        """Lemma 2: the extended prefix is a valid value's prefix."""
        prefix = BitString.from_str("1010")
        # honest values extend the prefix with either 0 or 1
        inputs = [0b10100_000 + i for i in range(4)] + [
            0b10101_000 + i for i in range(3)
        ]
        ell = 8

        def factory(ctx, v):
            return add_last_bit(ctx, prefix, v, ell)

        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        out = result.common_output()
        assert out.length == 5
        assert out.prefix(4) == prefix
        # the added bit must match at least one honest party's bit
        honest_bits = {
            bits_fixed(inputs[p], ell)[4]
            for p in range(7)
            if p not in result.corrupted
        }
        assert out[4] in honest_bits

    def test_unanimous_bit(self):
        prefix = BitString.from_str("11")
        inputs = [0b1101] * 4

        def factory(ctx, v):
            return add_last_bit(ctx, prefix, v, 4)

        result = run_protocol(factory, inputs, 4, 1, kappa=KAPPA)
        assert str(result.common_output()) == "110"

    def test_full_prefix_rejected(self):
        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(add_last_bit(ctx, BitString.from_str("11"), 3, 2))


class TestAddLastBlock:
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_agreed_block_in_honest_range(self, adversary):
        """Lemma 5: the added block is within the honest block range."""
        prefix = BitString.from_str("1010")  # one 4-bit block
        block_bits = 4
        ell = 12
        # honest values share the prefix; second blocks differ
        inputs = [(0b1010 << 8) | (i << 4) | 3 for i in range(7)]

        def factory(ctx, v):
            return add_last_block(ctx, prefix, v, ell, block_bits)

        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        out = result.common_output()
        assert out.length == 8
        assert out.prefix(4) == prefix
        block_value = out.suffix_from(4).value
        honest_blocks = [
            (inputs[p] >> 4) & 0xF
            for p in range(7)
            if p not in result.corrupted
        ]
        assert min(honest_blocks) <= block_value <= max(honest_blocks)

    def test_alignment_validation(self):
        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(add_last_block(ctx, BitString.from_str("101"), 0, 12, 4))

    def test_overflow_validation(self):
        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(add_last_block(ctx, BitString.from_str("1010"), 0, 6, 4))


class TestGetOutput:
    def make_inputs(self, prefix: BitString, ell: int):
        """Inputs where >= t+1 honest values avoid the prefix from both
        conceivable sides."""
        below = prefix.min_fill(ell) - 1
        above = prefix.max_fill(ell)
        inside = prefix.min_fill(ell)
        return below, above, inside

    @pytest.mark.parametrize("adversary", adversary_params())
    def test_output_is_min_or_max_and_valid(self, adversary):
        prefix = BitString.from_str("0110")
        ell = 8
        below, above, inside = self.make_inputs(prefix, ell)
        inputs = [below] * 3 + [inside] * 2 + [above] * 2

        def factory(ctx, v):
            return get_output(ctx, prefix, v, ell)

        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        out = result.common_output()
        assert out in (prefix.min_fill(ell), prefix.max_fill(ell))
        honest = [inputs[p] for p in range(7) if p not in result.corrupted]
        assert min(honest) <= out <= max(honest)

    def test_all_below_choose_min(self):
        prefix = BitString.from_str("1000")
        ell = 8
        below = prefix.min_fill(ell) - 5
        inputs = [below] * 7

        def factory(ctx, v):
            return get_output(ctx, prefix, v, ell)

        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA)
        assert result.common_output() == prefix.min_fill(ell)

    def test_all_above_choose_max(self):
        prefix = BitString.from_str("0100")
        ell = 8
        above = prefix.max_fill(ell) + 5
        inputs = [above] * 7

        def factory(ctx, v):
            return get_output(ctx, prefix, v, ell)

        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA)
        assert result.common_output() == prefix.max_fill(ell)

    def test_byzantine_announcements_cannot_flip_unanimous_witnesses(self):
        """All t+1 honest witnesses are below; byzantine parties vote 1.
        The t+1 honest zeros must win the majority-of-received rule."""
        prefix = BitString.from_str("1111")
        ell = 8
        below = prefix.min_fill(ell) - 1
        inputs = [below] * 7

        def handler(view, src, dst, spec):
            if view.channel.endswith("/announce"):
                return 1
            return spec

        def factory(ctx, v):
            return get_output(ctx, prefix, v, ell)

        result = run_protocol(
            factory, inputs, 7, 2, kappa=KAPPA,
            adversary=ScriptedAdversary(handler),
        )
        # MAX would be invalid here (all honest are below the prefix).
        assert result.common_output() == prefix.min_fill(ell)

    def test_full_length_prefix_degenerates(self):
        prefix = BitString.from_str("10101010")
        ell = 8
        inputs = [prefix.value] * 4

        def factory(ctx, v):
            return get_output(ctx, prefix, v, ell)

        result = run_protocol(factory, inputs, 4, 1, kappa=KAPPA)
        assert result.common_output() == prefix.value

    def test_prefix_length_validation(self):
        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        with pytest.raises(ValueError):
            next(get_output(ctx, BitString.empty(), 0, 8))
        with pytest.raises(ValueError):
            next(get_output(ctx, BitString.from_str("101010101"), 0, 8))

    @given(st.data())
    def test_witness_test_reads_the_head_only(self, data):
        """``get_output`` decides "witness?" and "which side?" from the
        first ``|prefix|`` bits of ``v_bot``; that is the same verdict as
        ``has_prefix`` and the full-width comparisons with ``MIN_l`` /
        ``MAX_l`` of the prefix."""
        ell = data.draw(st.integers(min_value=1, max_value=200), label="ell")
        k = data.draw(st.integers(min_value=1, max_value=ell), label="|prefix|")
        prefix = BitString(
            data.draw(st.integers(min_value=0, max_value=(1 << k) - 1)), k
        )
        top = (1 << ell) - 1
        # half the draws sit at the ends of the prefix's interval, where
        # the verdict flips
        near_an_end = st.builds(
            lambda end, d: min(max(end + d, 0), top),
            st.sampled_from([prefix.min_fill(ell), prefix.max_fill(ell)]),
            st.integers(min_value=-2, max_value=2),
        )
        v_bot = data.draw(
            st.one_of(st.integers(min_value=0, max_value=top), near_an_end),
            label="v_bot",
        )
        head = bits_fixed(v_bot, ell).prefix(k)
        assert (head != prefix) == (not bits_fixed(v_bot, ell).has_prefix(prefix))
        assert (head.value < prefix.value) == (v_bot < prefix.min_fill(ell))
        assert (head.value > prefix.value) == (v_bot > prefix.max_fill(ell))
