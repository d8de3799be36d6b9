"""Hashing and Merkle accumulator tests."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st
from kernel_oracle import KERNELS, build_levels_reference, use_kernels

from repro.coding.reed_solomon import rs_code
from repro.crypto import merkle
from repro.crypto.hashing import digest_size_bytes, hash_bytes, hash_parts
from repro.crypto.merkle import MerkleWitness, build, verify, witness_bits
from repro.perf import counters
from repro.sim.sizing import bit_size


class TestHashing:
    def test_digest_size(self):
        assert len(hash_bytes(128, b"x")) == 16
        assert len(hash_bytes(64, b"x")) == 8
        assert len(hash_bytes(256, b"x")) == 32

    def test_digest_size_bytes_validation(self):
        for bad in (0, 7, 12, 264, -8):
            with pytest.raises(ValueError):
                digest_size_bytes(bad)

    def test_deterministic(self):
        assert hash_bytes(128, b"abc") == hash_bytes(128, b"abc")

    def test_different_inputs_differ(self):
        assert hash_bytes(128, b"abc") != hash_bytes(128, b"abd")

    def test_framing_removes_concat_ambiguity(self):
        assert hash_parts(128, b"ab", b"c") != hash_parts(128, b"a", b"bc")
        assert hash_parts(128, b"abc") != hash_parts(128, b"ab", b"c")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=40)
    def test_parts_vs_single(self, a, b):
        if (a,) != (a + b,):
            assert hash_parts(64, a, b) != hash_parts(64, a + b) or b == b""


class TestMerkleBuild:
    def test_root_and_witness_count(self):
        leaves = [bytes([i]) * 4 for i in range(7)]
        root, witnesses = build(128, leaves)
        assert len(root) == 16
        assert len(witnesses) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build(128, [])

    def test_single_leaf(self):
        root, witnesses = build(128, [b"only"])
        assert verify(128, root, 0, b"only", witnesses[0])

    def test_deterministic(self):
        leaves = [b"a", b"b", b"c"]
        assert build(128, leaves)[0] == build(128, leaves)[0]

    def test_order_sensitive(self):
        assert build(128, [b"a", b"b"])[0] != build(128, [b"b", b"a"])[0]

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_all_witnesses_verify(self, leaves):
        root, witnesses = build(64, leaves)
        for i, leaf in enumerate(leaves):
            assert verify(64, root, i, leaf, witnesses[i])


class TestMerkleVerify:
    def setup_method(self):
        self.leaves = [bytes([i]) * 8 for i in range(6)]
        self.root, self.witnesses = build(128, self.leaves)

    def test_wrong_leaf_rejected(self):
        assert not verify(128, self.root, 0, b"forged!!", self.witnesses[0])

    def test_wrong_index_rejected(self):
        assert not verify(128, self.root, 1, self.leaves[0], self.witnesses[0])

    def test_wrong_root_rejected(self):
        other_root, _ = build(128, [b"different"])
        assert not verify(
            128, other_root, 0, self.leaves[0], self.witnesses[0]
        )

    def test_swapped_witness_rejected(self):
        assert not verify(
            128, self.root, 0, self.leaves[0], self.witnesses[1]
        )

    def test_leaf_node_confusion_rejected(self):
        # An interior hash presented as a leaf must fail (domain tags).
        fake_leaf = self.witnesses[0].siblings[0]
        truncated = MerkleWitness(
            index=0, siblings=self.witnesses[0].siblings[1:]
        )
        assert not verify(128, self.root, 0, fake_leaf, truncated)

    # -- byzantine-proofing: junk never raises --------------------------
    def test_junk_witness(self):
        assert not verify(128, self.root, 0, self.leaves[0], "junk")
        assert not verify(128, self.root, 0, self.leaves[0], None)
        assert not verify(128, self.root, 0, self.leaves[0], 42)

    def test_junk_root(self):
        assert not verify(128, b"short", 0, self.leaves[0], self.witnesses[0])
        assert not verify(128, None, 0, self.leaves[0], self.witnesses[0])

    def test_junk_index(self):
        assert not verify(128, self.root, -1, self.leaves[0], self.witnesses[0])
        assert not verify(
            128, self.root, "x", self.leaves[0], self.witnesses[0]
        )
        assert not verify(
            128, self.root, 10**6, self.leaves[0], self.witnesses[0]
        )

    def test_junk_leaf(self):
        assert not verify(128, self.root, 0, None, self.witnesses[0])

    def test_malformed_siblings(self):
        bad = MerkleWitness(index=0, siblings=(b"short",))
        assert not verify(128, self.root, 0, self.leaves[0], bad)
        bad = MerkleWitness(index=0, siblings=("notbytes",) * 3)
        assert not verify(128, self.root, 0, self.leaves[0], bad)

    def test_mismatched_witness_index(self):
        bad = MerkleWitness(index=1, siblings=self.witnesses[0].siblings)
        assert not verify(128, self.root, 0, self.leaves[0], bad)


class TestWitnessSize:
    def test_wire_bits_counts_hashes(self):
        leaves = [bytes([i]) for i in range(8)]
        _, witnesses = build(128, leaves)
        # 8 leaves -> depth 3 -> 3 kappa-bit siblings.
        assert witnesses[0].wire_bits() >= 3 * 128

    def test_witness_bits_estimate_upper_bounds(self):
        for count in (1, 2, 3, 5, 8, 13):
            leaves = [bytes([i]) for i in range(count)]
            _, witnesses = build(128, leaves)
            bound = witness_bits(128, count)
            assert all(w.wire_bits() <= bound for w in witnesses)


def _eager(kappa, leaves):
    """Root and witnesses as an eager ``MT.BUILD`` makes them: every
    path walked at build time, over the oracle's levels."""
    width = 1
    while width < len(leaves):
        width *= 2
    levels = build_levels_reference(kappa, list(leaves), width)
    witnesses = []
    for index in range(len(leaves)):
        siblings, position = [], index
        for depth in range(len(levels) - 1):
            siblings.append(levels[depth][position ^ 1])
            position //= 2
        witnesses.append(MerkleWitness(index=index, siblings=tuple(siblings)))
    return levels[-1][0], witnesses


class TestWitnessesOnRead:
    """``build`` hashes every level and makes a witness when it is read."""

    @pytest.mark.parametrize("kernels", KERNELS)
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 16, 31])
    def test_every_witness_is_the_eager_one(self, kernels, count):
        leaves = [bytes([i, 7]) * 3 for i in range(count)]
        with use_kernels(kernels), counters.capture() as built:
            root, witnesses = build(64, leaves)
        eager_root, eager = _eager(64, leaves)
        assert root == eager_root
        assert type(witnesses) is merkle.Witnesses and len(witnesses) == count
        assert built["merkle_build"] == 1
        with counters.capture() as read:
            backwards = [witnesses[i] for i in reversed(range(count))]
        assert backwards == eager[::-1]
        assert not read  # reading hashes nothing
        assert list(witnesses) == eager
        assert witnesses[-1] == eager[-1] and witnesses[-count] == eager[0]
        assert witnesses[1:3] == tuple(eager[1:3])
        for i, leaf in enumerate(leaves):
            assert verify(64, root, i, leaf, witnesses[i])
        for bad in (count, -count - 1):
            with pytest.raises(IndexError):
                witnesses[bad]

    def test_sha256_count_is_the_eager_builds(self):
        leaves = [bytes([i]) * 5 for i in range(13)]
        counts = []
        for kernels in KERNELS:
            with use_kernels(kernels), counters.capture() as ops:
                build(128, leaves)
            counts.append(ops["sha256"])
        with counters.capture() as ops:
            _eager(128, leaves)
        assert set(counts) == {ops["sha256"]}

    def test_a_witness_is_made_once_and_only_when_read(self, monkeypatch):
        made = []
        init = MerkleWitness.__init__

        def spy(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MerkleWitness, "__init__", spy)
        _, witnesses = build(128, [bytes([i]) for i in range(16)])
        assert made == []
        assert witnesses[5] is witnesses[5]
        assert len(made) == 1

    def test_pickle_deepcopy_and_equality(self):
        leaves = [bytes([i]) * 9 for i in range(7)]
        _, witnesses = build(128, leaves)
        _, again = build(128, leaves)
        witnesses[2]  # a read-before-copy entry must not matter
        for copied in (
            pickle.loads(pickle.dumps(witnesses)), copy.deepcopy(witnesses)
        ):
            assert copied == witnesses and list(copied) == list(witnesses)
        assert witnesses == again
        assert witnesses != build(128, leaves[::-1])[1]
        assert witnesses != list(witnesses)  # a sequence, not a list
        with pytest.raises(TypeError):
            witnesses[0] = witnesses[1]

    def test_a_share_tuple_prices_as_before(self):
        shares = rs_code(16, 11).encode(b"the agreed value " * 16)
        _, witnesses = build(128, shares)
        _, eager = _eager(128, shares)
        priced = bit_size((0, shares[0], witnesses[0]))
        assert priced == bit_size((0, shares[0], eager[0])) == 722
