"""Reed-Solomon codec tests: roundtrips, erasures, malformed inputs."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.gf import GF256, GF65536, LogMatrix
from repro.coding.reed_solomon import ReedSolomonCode, rs_code
from repro.crypto import merkle
from repro.errors import CodingError
from repro.perf import config

payloads = st.binary(min_size=0, max_size=400)

#: the paper's regime: n parties, t < n/3 corruptions, k = n - t shares
#: suffice to decode (Section 3's extension protocols distribute one
#: share per party and survive t erasures).
grid_params = st.tuples(
    st.integers(min_value=4, max_value=16),       # n
    st.integers(min_value=1, max_value=5),        # t (clamped below)
    st.integers(min_value=0, max_value=96),       # payload bytes
).map(lambda p: (p[0], min(p[1], (p[0] - 1) // 3), p[2]))


class TestEncode:
    def test_share_count(self):
        code = rs_code(7, 5)
        assert len(code.encode(b"hello")) == 7

    def test_share_lengths_equal_and_predicted(self):
        code = rs_code(7, 5)
        shares = code.encode(b"x" * 123)
        lengths = {len(s) for s in shares}
        assert lengths == {code.share_length(123)}

    def test_share_length_scales_inverse_k(self):
        # share size ~ l / k symbols: doubling the payload roughly
        # doubles share length.
        code = rs_code(10, 7)
        small = code.share_length(100)
        big = code.share_length(1000)
        assert 8 <= big / small <= 12

    def test_deterministic(self):
        code = rs_code(7, 5)
        assert code.encode(b"abc") == code.encode(b"abc")

    def test_distinct_payloads_distinct_codewords(self):
        code = rs_code(7, 5)
        assert code.encode(b"abc") != code.encode(b"abd")


class TestDecode:
    @given(payloads, st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_roundtrip_any_k_subset(self, data, rnd):
        code = rs_code(7, 5)
        shares = code.encode(data)
        subset = rnd.sample(range(7), 5)
        assert code.decode({i: shares[i] for i in subset}) == data

    @given(payloads)
    @settings(max_examples=25)
    def test_roundtrip_with_extra_shares(self, data):
        code = rs_code(7, 5)
        shares = code.encode(data)
        assert code.decode(dict(enumerate(shares))) == data

    def test_too_few_shares(self):
        code = rs_code(7, 5)
        shares = code.encode(b"data")
        with pytest.raises(CodingError):
            code.decode({i: shares[i] for i in range(4)})

    def test_inconsistent_lengths(self):
        code = rs_code(7, 5)
        shares = code.encode(b"data")
        bad = {i: shares[i] for i in range(5)}
        bad[0] = bad[0] + b"\x00\x00"
        with pytest.raises(CodingError):
            code.decode(bad)

    def test_index_out_of_range(self):
        code = rs_code(7, 5)
        shares = code.encode(b"data")
        bad = {i: shares[i] for i in range(4)}
        bad[99] = shares[4]
        with pytest.raises(CodingError):
            code.decode(bad)

    def test_non_symbol_multiple_length(self):
        code = rs_code(7, 5)
        with pytest.raises(CodingError):
            code.decode({i: b"\x01" for i in range(5)})

    def test_corrupted_share_changes_output_or_raises(self):
        # RS here is an *erasure* code: a silently corrupted share decodes
        # to garbage (or fails framing).  The Merkle layer upstream is
        # what detects corruption; this test documents the division of
        # labour.
        code = rs_code(7, 5)
        data = b"the quick brown fox jumps"
        shares = code.encode(data)
        tampered = bytearray(shares[0])
        tampered[0] ^= 0xFF
        subset = {0: bytes(tampered), 1: shares[1], 2: shares[2],
                  3: shares[3], 4: shares[4]}
        try:
            decoded = code.decode(subset)
        except CodingError:
            decoded = None
        assert decoded != data


class TestParameters:
    def test_k_greater_than_n_rejected(self):
        with pytest.raises(CodingError):
            ReedSolomonCode(3, 4)

    def test_zero_k_rejected(self):
        with pytest.raises(CodingError):
            ReedSolomonCode(3, 0)

    def test_n_exceeding_field_rejected(self):
        with pytest.raises(CodingError):
            ReedSolomonCode(256, 100, field=GF256)

    def test_gf256_field_roundtrip(self):
        code = ReedSolomonCode(10, 7, field=GF256)
        data = b"gf256 works too"
        shares = code.encode(data)
        assert code.decode({i: shares[i] for i in (0, 2, 3, 5, 6, 8, 9)}) == data

    def test_n_equals_k(self):
        code = ReedSolomonCode(4, 4)
        data = b"no redundancy"
        shares = code.encode(data)
        assert code.decode(dict(enumerate(shares))) == data

    def test_k_one_replication(self):
        code = ReedSolomonCode(4, 1)
        data = b"replicated"
        shares = code.encode(data)
        for i in range(4):
            assert code.decode({i: shares[i]}) == data

    def test_rs_code_cached(self):
        assert rs_code(7, 5) is rs_code(7, 5)


class TestParameterGrid:
    """Property tests over the paper's whole (n, t, l) parameter box."""

    @given(grid_params, st.binary(min_size=0, max_size=96),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_under_t_erasures(self, params, data, rnd):
        n, t, _ = params
        code = rs_code(n, n - t)
        shares = code.encode(data)
        erased = set(rnd.sample(range(n), t))
        subset = {i: shares[i] for i in range(n) if i not in erased}
        assert code.decode(subset) == data

    @given(grid_params, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_sized_payload(self, params, rnd):
        n, t, size = params
        code = rs_code(n, n - t)
        data = bytes(rnd.randrange(256) for _ in range(size))
        shares = code.encode(data)
        keep = rnd.sample(range(n), n - t)
        assert code.decode({i: shares[i] for i in keep}) == data

    @given(grid_params)
    @settings(max_examples=40, deadline=None)
    def test_share_length_bound(self, params):
        """Per-share cost is ~l/k + O(1) symbols -- the fact that makes
        the extension protocols' O(l n) totals work out."""
        n, t, size = params
        code = rs_code(n, n - t)
        symbol_bytes = 2  # GF(2^16) symbols
        per_share_symbols = code.share_length(size) // symbol_bytes
        k = n - t
        assert per_share_symbols <= -(-size // symbol_bytes) // k + (k + 2)


class TestMerkleFiltersCorruption:
    """The division of labour the codec tests only document: RS decodes
    erasures, the Merkle layer upstream turns corruption INTO erasure.
    This is exactly Section 3's share-distribution pattern."""

    KAPPA = 64

    @given(grid_params, st.binary(min_size=1, max_size=64),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_garbled_shares_filtered_then_decoded(self, params, data, rnd):
        n, t, _ = params
        code = rs_code(n, n - t)
        shares = code.encode(data)
        root, witnesses = merkle.build(self.KAPPA, list(shares))

        # the adversary garbles up to t shares in transit:
        received = list(shares)
        for i in rnd.sample(range(n), t):
            garbled = bytearray(received[i])
            garbled[rnd.randrange(len(garbled))] ^= rnd.randrange(1, 256)
            received[i] = bytes(garbled)

        accepted = {
            i: received[i]
            for i in range(n)
            if merkle.verify(self.KAPPA, root, i, received[i], witnesses[i])
        }
        # every honest share verifies, every garbled share is dropped...
        assert len(accepted) >= n - t
        assert all(received[i] == shares[i] for i in accepted)
        # ...and what survives decodes to the original payload.
        assert code.decode(accepted) == data

    def test_witness_for_wrong_index_rejected(self):
        code = rs_code(5, 3)
        shares = code.encode(b"cross-wired")
        root, witnesses = merkle.build(self.KAPPA, list(shares))
        assert not merkle.verify(
            self.KAPPA, root, 0, shares[1], witnesses[1]
        )
        assert not merkle.verify(
            self.KAPPA, root, 1, shares[0], witnesses[1]
        )


class TestFraming:
    def test_empty_payload(self):
        code = rs_code(4, 3)
        shares = code.encode(b"")
        assert code.decode({0: shares[0], 1: shares[1], 3: shares[3]}) == b""

    def test_single_byte(self):
        code = rs_code(4, 3)
        shares = code.encode(b"\x00")
        assert code.decode({0: shares[0], 2: shares[2], 3: shares[3]}) == b"\x00"

    @given(st.integers(min_value=0, max_value=64))
    @settings(max_examples=20)
    def test_all_zero_payloads(self, size):
        code = rs_code(5, 3)
        data = b"\x00" * size
        shares = code.encode(data)
        assert code.decode({0: shares[0], 1: shares[1], 4: shares[4]}) == data

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("field, digest", [
        (GF65536, "de3d151fa698d8fe06520b526a06bbf2"
                  "0a8da3665be808766f4627ca114b0117"),
        (GF256, "f9643c5c98a566e0588cc7b12c65e4e1"
                "3c36a3859a3ed6d763adee47c08aefa6"),
    ], ids=["GF65536", "GF256"])
    def test_wire_bytes_pinned(self, backend, field, digest):
        """The codewords are a wire format: the digests were recorded
        before the kernels moved to 16-bit symbols and must not move."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        payload = bytes(range(256)) * 3 + b"\x00\x00tail"
        code = ReedSolomonCode(7, 5, field=field)
        with config.use_backend(backend):
            shares = code.encode(payload)
            assert code.decode(dict(list(enumerate(shares))[2:])) == payload
        assert hashlib.sha256(b"".join(shares)).hexdigest() == digest

    def test_numpy_framing_stays_at_symbol_width(self):
        """Symbols reach the kernel as views at their wire width (they
        are only gather indices); matrices carry their logs along."""
        pytest.importorskip("numpy")
        for code in (ReedSolomonCode(7, 5), ReedSolomonCode(7, 5, field=GF256)):
            chunks = code._frame_numpy(b"\x01\x02\x03" * 11)
            assert chunks.dtype.itemsize == code.symbol_bytes
            assert chunks.shape[0] == code.k
            assert isinstance(code.generator, LogMatrix)
            assert isinstance(code._invert_submatrix((0, 2, 3, 4, 6)), LogMatrix)

    def test_tampered_length_header_detected(self):
        # Build shares of a *non-codeword* by mixing two encodings; the
        # framing/padding checks catch most such mixtures.
        code = rs_code(4, 2)
        a = code.encode(b"\xff" * 40)
        b = code.encode(b"\x11" * 2)
        mixed = {0: a[0], 1: b[1]}
        try:
            decoded = code.decode(mixed)
        except CodingError:
            decoded = None
        assert decoded not in (b"\xff" * 40, b"\x11" * 2)
