"""Unit + property tests for the BITS/VAL/MIN/MAX machinery (Section 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.bitstrings import (
    BitString,
    bits_fixed,
    bits_of,
    blocks_of,
    join_blocks,
    longest_common_prefix,
    max_fill,
    min_fill,
    val_of,
)

naturals = st.integers(min_value=0, max_value=(1 << 96) - 1)


class TestConstruction:
    def test_empty(self):
        empty = BitString.empty()
        assert len(empty) == 0
        assert empty.value == 0
        assert not empty

    def test_from_bits(self):
        bs = BitString.from_bits([1, 0, 1, 1])
        assert str(bs) == "1011"
        assert bs.value == 0b1011
        assert len(bs) == 4

    def test_from_str(self):
        assert BitString.from_str("0101").value == 5
        assert len(BitString.from_str("0101")) == 4

    def test_leading_zeroes_preserved(self):
        bs = BitString.from_str("0001")
        assert len(bs) == 4
        assert bs.value == 1

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            BitString.from_bits([0, 2])

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            BitString(-1, 4)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            BitString(16, 4)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            BitString(0, -1)


class TestPaperNotation:
    def test_bits_of_zero_is_empty(self):
        # The paper's BITS(v) has |BITS(0)| = 0 by the 2^{k-1} <= v bound.
        assert len(bits_of(0)) == 0

    def test_bits_of_minimal(self):
        assert str(bits_of(13)) == "1101"

    def test_bits_of_rejects_negative(self):
        with pytest.raises(ValueError):
            bits_of(-3)

    def test_bits_fixed_pads_left(self):
        assert str(bits_fixed(5, 8)) == "00000101"

    def test_bits_fixed_rejects_too_small_ell(self):
        with pytest.raises(ValueError):
            bits_fixed(256, 8)

    def test_val_inverse_of_bits(self):
        assert val_of(bits_of(1234)) == 1234

    def test_min_fill_appends_zeroes(self):
        # MIN_l("101") with l=6 -> 101000
        assert min_fill(BitString.from_str("101"), 6) == 0b101000

    def test_max_fill_appends_ones(self):
        # MAX_l("101") with l=6 -> 101111
        assert max_fill(BitString.from_str("101"), 6) == 0b101111

    def test_fill_rejects_short_ell(self):
        with pytest.raises(ValueError):
            min_fill(BitString.from_str("10101"), 3)

    @given(naturals, st.integers(min_value=0, max_value=96))
    def test_bits_fixed_roundtrip(self, v, extra):
        ell = v.bit_length() + extra
        if ell == 0:
            ell = 1
        assert val_of(bits_fixed(v, ell)) == v

    @given(naturals)
    def test_bits_of_length_matches_bit_length(self, v):
        assert len(bits_of(v)) == v.bit_length()

    @given(naturals, st.integers(min_value=1, max_value=128))
    def test_min_le_max_fill(self, v, pad):
        prefix = bits_of(v)
        ell = len(prefix) + pad
        assert min_fill(prefix, ell) <= max_fill(prefix, ell)

    @given(naturals, st.integers(min_value=1, max_value=64))
    def test_fill_bounds_are_tight(self, v, pad):
        prefix = bits_of(v)
        ell = len(prefix) + pad
        lo, hi = min_fill(prefix, ell), max_fill(prefix, ell)
        assert hi - lo == (1 << pad) - 1
        assert bits_fixed(lo, ell).has_prefix(prefix)
        assert bits_fixed(hi, ell).has_prefix(prefix)


class TestIndexing:
    def test_getitem_is_leftmost_first(self):
        bs = BitString.from_str("1001")
        assert [bs[i] for i in range(4)] == [1, 0, 0, 1]

    def test_negative_index(self):
        assert BitString.from_str("10")[-1] == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            BitString.from_str("10")[2]

    def test_slice(self):
        bs = BitString.from_str("110010")
        assert str(bs[1:4]) == "100"

    def test_slice_empty(self):
        assert len(BitString.from_str("110010")[3:3]) == 0

    def test_slice_step_rejected(self):
        with pytest.raises(ValueError):
            BitString.from_str("1100")[::2]

    def test_prefix_suffix(self):
        bs = BitString.from_str("110010")
        assert str(bs.prefix(2)) == "11"
        assert str(bs.suffix_from(2)) == "0010"

    def test_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            BitString.from_str("11").prefix(3)

    @given(naturals, st.data())
    def test_slice_concat_identity(self, v, data):
        bs = bits_of(v)
        cut = data.draw(st.integers(min_value=0, max_value=len(bs)))
        assert bs.prefix(cut).concat(bs.suffix_from(cut)) == bs

    @given(
        st.integers(min_value=0, max_value=(1 << 300) - 1),
        st.integers(min_value=0, max_value=8),
        st.data(),
    )
    def test_prefix_shortcut_matches_general_slice(self, v, pad, data):
        """``__getitem__`` has three branches -- a slice from bit 0 skips
        the mask, a slice whose tail is the shorter side masks the head
        off before shifting, the rest shift and then mask -- and every
        one must read the same bits as the per-bit definition."""
        bs = bits_fixed(v, v.bit_length() + pad)   # leading zeros too
        k = data.draw(st.integers(min_value=0, max_value=len(bs)))
        general = (BitString(1, 1) + bs)[1:1 + k]
        assert bs[:k] == bs.prefix(k) == general
        assert len(bs[:k]) == k
        a = data.draw(st.integers(min_value=0, max_value=len(bs)))
        c = data.draw(st.integers(min_value=a, max_value=len(bs)))
        for lo, hi in ((0, k), (a, c), (k, len(bs))):
            assert bs[lo:hi] == BitString.from_bits(bs.bits()[lo:hi])

    def test_slice_both_sides_of_the_shorter_tail_line(self):
        """One 2^16-bit value, cut where ``length - start < stop`` flips:
        the branches agree with each other and with a rebuild from the
        three pieces."""
        length = 1 << 16
        bs = BitString(int.from_bytes(bytes(range(256)) * 32, "big"), length)
        for start, stop in [
            (1, length - 1),             # tail longer by one: shift, mask
            (1, length),                 # tail shorter by one: mask, shift
            (length // 2, length // 2 + 1337),      # tail == stop - 1337
            (length // 2 - 700, length // 2 + 637),  # just on the other side
            (length - 1337, length), (3, 1340), (0, length),
        ]:
            piece = bs[start:stop]
            assert len(piece) == stop - start
            assert bs[:start] + piece + bs[stop:] == bs
            assert piece.value == (bs.value >> (length - stop)) % (1 << (stop - start))


class TestAlgebra:
    def test_concat(self):
        a = BitString.from_str("10")
        b = BitString.from_str("011")
        assert str(a + b) == "10011"

    def test_append_bit(self):
        assert str(BitString.from_str("10").append_bit(1)) == "101"

    def test_append_bad_bit(self):
        with pytest.raises(ValueError):
            BitString.from_str("10").append_bit(2)

    def test_is_prefix_of(self):
        assert BitString.from_str("10").is_prefix_of(
            BitString.from_str("1011")
        )
        assert not BitString.from_str("11").is_prefix_of(
            BitString.from_str("1011")
        )
        assert BitString.empty().is_prefix_of(BitString.from_str("0"))

    def test_longer_is_not_prefix(self):
        assert not BitString.from_str("1011").is_prefix_of(
            BitString.from_str("10")
        )

    @given(naturals, naturals)
    def test_longest_common_prefix_properties(self, x, y):
        ell = max(x.bit_length(), y.bit_length(), 1)
        a, b = bits_fixed(x, ell), bits_fixed(y, ell)
        lcp = longest_common_prefix(a, b)
        assert a.has_prefix(lcp) and b.has_prefix(lcp)
        if len(lcp) < ell:
            assert a[len(lcp)] != b[len(lcp)]

    @given(naturals)
    def test_lcp_with_self_is_self(self, x):
        bs = bits_of(x)
        assert longest_common_prefix(bs, bs) == bs


class TestBlocks:
    def test_blocks_roundtrip(self):
        blocks = blocks_of(0xDEADBEEF, 32, 4)
        assert len(blocks) == 4
        assert all(len(b) == 8 for b in blocks)
        assert join_blocks(blocks).value == 0xDEADBEEF

    def test_blocks_require_divisibility(self):
        with pytest.raises(ValueError):
            blocks_of(5, 10, 3)

    @given(
        naturals,
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
    )
    def test_blocks_concat_identity(self, v, num_blocks, block_bits):
        ell = num_blocks * block_bits
        v %= 1 << ell
        blocks = blocks_of(v, ell, num_blocks)
        assert join_blocks(blocks) == bits_fixed(v, ell)


class TestWire:
    def test_wire_bits_is_length(self):
        assert BitString.from_str("10110").wire_bits() == 5

    @given(naturals, st.integers(min_value=0, max_value=32))
    def test_wire_roundtrip(self, v, extra):
        ell = v.bit_length() + extra
        bs = BitString(v, ell)
        assert BitString.from_wire_bytes(bs.to_wire_bytes()) == bs

    def test_wire_rejects_truncated(self):
        data = BitString.from_str("1" * 20).to_wire_bytes()
        with pytest.raises(ValueError):
            BitString.from_wire_bytes(data[:-2])

    def test_wire_rejects_short_header(self):
        with pytest.raises(ValueError):
            BitString.from_wire_bytes(b"\x00")

    def test_wire_rejects_stray_high_bits(self):
        # claims 1 bit but carries value 2
        data = (1).to_bytes(4, "big") + b"\x02"
        with pytest.raises(ValueError):
            BitString.from_wire_bytes(data)

    def test_wire_empty(self):
        empty = BitString.empty()
        assert BitString.from_wire_bytes(empty.to_wire_bytes()) == empty

    def test_wire_rejects_trailing_bytes(self):
        """A trailing byte must not silently become part of the value."""
        data = BitString(5, 11).to_wire_bytes()
        with pytest.raises(ValueError):
            BitString.from_wire_bytes(data + b"\x00")

    def test_wire_rejects_leading_padding(self):
        """Zero bytes between header and payload do not name the same
        segment a second time."""
        data = BitString(5, 11).to_wire_bytes()
        with pytest.raises(ValueError):
            BitString.from_wire_bytes(data[:4] + b"\x00\x00" + data[4:])

    @given(st.one_of(
        st.binary(max_size=12),
        # an honest encoding with bytes spliced in after the header and
        # at the end, so that a good share of the draws parse
        st.builds(
            lambda bs, head, tail: (
                bs.to_wire_bytes()[:4] + head + bs.to_wire_bytes()[4:] + tail
            ),
            st.integers(min_value=0, max_value=40).flatmap(
                lambda length: st.builds(
                    BitString,
                    st.integers(min_value=0, max_value=(1 << length) - 1),
                    st.just(length),
                )
            ),
            st.binary(max_size=2), st.binary(max_size=2),
        ),
    ))
    def test_wire_is_canonical(self, data):
        """Any bytes that parse re-serialise to themselves, so wire
        equality is value equality."""
        try:
            parsed = BitString.from_wire_bytes(data)
        except ValueError:
            return
        assert parsed.to_wire_bytes() == data


class TestRepr:
    def test_str(self):
        assert str(BitString.from_str("010")) == "010"

    def test_repr_short(self):
        assert "010" in repr(BitString.from_str("010"))

    def test_repr_long(self):
        long = BitString(0, 100)
        assert "len=100" in repr(long)

    def test_iter_matches_str(self):
        bs = bits_fixed(37, 9)
        assert "".join(str(b) for b in bs) == str(bs)
