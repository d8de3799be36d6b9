"""Domain and canonical-key tests (the BA input-space machinery)."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.ba.domains import (
    BIT_DOMAIN,
    Domain,
    bit_domain,
    bitstring_domain,
    canonical_key,
    digest_domain,
    nat_domain,
    optional_digest_domain,
    tally_inbox,
)
from repro.core.bitstrings import BitString
from repro.sim.party import SharedInbox, parse_once

from conftest import oracle_tally


class TestCanonicalKey:
    def test_none_sorts_first(self):
        values = [5, None, b"ab", "x", BitString(1, 2)]
        ordered = sorted(values, key=canonical_key)
        assert ordered[0] is None

    def test_total_order_over_mixed_types(self):
        values = [3, b"a", "s", (1, 2), BitString(0, 1), None, -7]
        # must not raise, and must be deterministic
        assert sorted(values, key=canonical_key) == sorted(
            values, key=canonical_key
        )

    def test_ints_ordered_numerically(self):
        assert canonical_key(2) < canonical_key(10)

    def test_bool_and_int_share_rank(self):
        assert canonical_key(True) == canonical_key(1)

    def test_bytes_lexicographic(self):
        assert canonical_key(b"aa") < canonical_key(b"ab")

    def test_bitstring_by_length_then_value(self):
        assert canonical_key(BitString(1, 2)) < canonical_key(BitString(0, 3))

    def test_nested_tuples(self):
        assert canonical_key((1, (2, b"x"))) == canonical_key((1, (2, b"x")))

    def test_unknown_type_falls_back(self):
        key = canonical_key(Fraction(1, 2))
        assert key[0] == 6

    @given(st.lists(st.one_of(st.none(), st.integers(), st.binary(),
                              st.text()), min_size=2, max_size=6))
    def test_sorting_never_raises(self, values):
        sorted(values, key=canonical_key)


class TestBitDomain:
    def test_membership(self):
        assert BIT_DOMAIN.validate(0)
        assert BIT_DOMAIN.validate(1)
        assert not BIT_DOMAIN.validate(2)
        assert not BIT_DOMAIN.validate(None)
        assert not BIT_DOMAIN.validate("1")

    def test_bool_accepted_as_bit(self):
        # bools are ints in Python; the protocols treat True as 1.
        assert BIT_DOMAIN.validate(True)

    def test_singleton_helper(self):
        assert bit_domain() is BIT_DOMAIN


class TestDigestDomains:
    def test_digest_domain(self):
        d = digest_domain(64)
        assert d.validate(b"\x00" * 8)
        assert not d.validate(b"\x00" * 7)
        assert not d.validate(None)
        assert not d.validate("x" * 8)
        assert len(d.default) == 8

    def test_optional_digest_domain(self):
        d = optional_digest_domain(64)
        assert d.validate(None)
        assert d.validate(b"\x11" * 8)
        assert not d.validate(b"\x11" * 9)
        assert d.default is None


class TestNatDomain:
    def test_unbounded(self):
        d = nat_domain()
        assert d.validate(0)
        assert d.validate(10**100)
        assert not d.validate(-1)
        assert not d.validate(True)
        assert not d.validate(1.5)

    def test_bounded(self):
        d = nat_domain(max_bits=8)
        assert d.validate(255)
        assert not d.validate(256)

    def test_validate_never_raises(self):
        d = nat_domain()

        class Weird:
            def __lt__(self, other):
                raise RuntimeError("boom")

        assert not d.validate(Weird())


class TestBitstringDomain:
    def test_any_length(self):
        d = bitstring_domain()
        assert d.validate(BitString(0, 0))
        assert d.validate(BitString(5, 3))
        assert not d.validate("101")

    def test_exact_length(self):
        d = bitstring_domain(4)
        assert d.validate(BitString(5, 4))
        assert not d.validate(BitString(5, 5))
        assert d.default == BitString(0, 4)


# -- Domain.tally: differential against the validate-each semantics -------

DIGEST_A = b"\xaa" * 16
DIGEST_B = b"\xbb" * 16
Pair = namedtuple("Pair", "tag value")

TALLY_DOMAINS = [
    BIT_DOMAIN,
    nat_domain(),
    nat_domain(max_bits=4),
    digest_domain(128),
    optional_digest_domain(128),
    bitstring_domain(),
]

#: Twins of the counted types: equal and hash-equal to an honest ballot
#: but of another type (or the near-miss ``bytearray``).
INT_TWINS = st.sampled_from([0, 1, 2, 16, True, False, 1.0, -0.0])
DIGEST_TWINS = st.sampled_from(
    [DIGEST_A, DIGEST_B, None, b"x", bytearray(DIGEST_A), bytearray(b"x")]
)

#: Honest values of every domain next to their adversarial twins,
#: near-misses, and junk.
BALLOTS = st.sampled_from(
    [
        0, 1, 2, 7, 16, -1, 2**70,
        True, False, 1.0, 0.0, -0.0, float("nan"), Fraction(1, 1),
        DIGEST_A, DIGEST_B, b"x", b"",
        bytearray(DIGEST_A), bytearray(b"x"),
        None, "1", "",
        BitString(1, 1), BitString(1, 2), BitString(0, 0),
        (1,), (0, 1), Pair("PROPOSE", 1),
    ]
) | st.builds(list, st.lists(st.integers(0, 1), max_size=2)) | st.builds(
    dict, st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=1)
) | st.builds(set, st.lists(st.integers(0, 1), max_size=2))

INBOXES = st.one_of(
    st.lists(INT_TWINS, max_size=10),
    st.lists(DIGEST_TWINS, max_size=10),
    st.lists(BALLOTS, max_size=10),
)


def typed(pairs):
    return [(value, type(value), count) for value, count in pairs]


def counting(domain):
    """``domain`` plus a log of every value its ``contains`` was asked."""
    seen = []

    def contains(value):
        seen.append(value)
        return domain.contains(value)

    return Domain(domain.name, contains, domain.default), seen


class TestTally:
    @pytest.mark.parametrize("domain", TALLY_DOMAINS, ids=lambda d: d.name)
    @given(ballots=INBOXES)
    @settings(max_examples=150, deadline=None)
    def test_matches_validate_each_oracle(self, domain, ballots):
        assert typed(domain.tally(ballots)) == typed(
            oracle_tally(domain, ballots)
        )

    @pytest.mark.parametrize("domain", TALLY_DOMAINS, ids=lambda d: d.name)
    @given(ballots=INBOXES)
    @settings(max_examples=50, deadline=None)
    def test_accepts_any_iterable(self, domain, ballots):
        inbox = dict(enumerate(ballots))
        assert typed(domain.tally(inbox.values())) == typed(
            domain.tally(iter(ballots))
        )

    @pytest.mark.parametrize("domain", TALLY_DOMAINS, ids=lambda d: d.name)
    @given(ballots=INBOXES)
    @settings(max_examples=50, deadline=None)
    def test_shared_inbox_parse_matches_oracle(self, domain, ballots):
        """Every party reading a shared inbox gets the first one's parse,
        and it is the validate-each count."""
        box = SharedInbox(enumerate(ballots))
        expected = typed(oracle_tally(domain, ballots))
        for _ in range(3):
            assert typed(parse_once(box, tally_inbox, domain)) == expected
        assert len(box.memo) == 1

    def test_unanimous(self):
        assert BIT_DOMAIN.tally([1] * 7) == [(1, 7)]
        assert optional_digest_domain(128).tally([None] * 4) == [(None, 4)]

    def test_first_seen_order_and_exact_tie(self):
        assert nat_domain().tally([5, 3, 5, 3]) == [(5, 2), (3, 2)]
        assert optional_digest_domain(128).tally(
            [DIGEST_B, None, DIGEST_A, None]
        ) == [(DIGEST_B, 1), (None, 2), (DIGEST_A, 1)]

    def test_all_invalid_and_empty(self):
        assert BIT_DOMAIN.tally([2, 3, 2]) == []
        assert BIT_DOMAIN.tally(["x", None, [1]]) == []
        assert BIT_DOMAIN.tally([]) == []
        assert BIT_DOMAIN.tally(iter(())) == []

    def test_bool_is_never_counted_as_int(self):
        # True is a valid bit, equal to and hashing like 1 -- it must be
        # validated itself and merged under the first-seen representative.
        tallied = BIT_DOMAIN.tally([True, 1, 1])
        assert typed(tallied) == [(True, bool, 3)]
        assert typed(BIT_DOMAIN.tally([1, True, 1.0])) == [(1, int, 2)]
        assert nat_domain().tally([True, 1, 1]) == [(1, 2)]
        assert nat_domain().tally([0, False, -0.0]) == [(0, 1)]
        assert digest_domain(8).tally([b"x", bytearray(b"x")]) == [(b"x", 1)]

    def test_out_of_domain_value_of_the_counted_type_is_validated_once(self):
        domain, seen = counting(BIT_DOMAIN)
        assert domain.tally([1, 1, 7, 1, 1, 1, 1]) == [(1, 6)]
        assert seen == [1, 7]
        domain, seen = counting(digest_domain(128))
        assert domain.tally([DIGEST_A] * 6 + [b"short"]) == [(DIGEST_A, 6)]
        assert seen == [DIGEST_A, b"short"]

    def test_unanimous_inbox_validates_one_copy(self):
        domain, seen = counting(nat_domain())
        assert domain.tally([9] * 16) == [(9, 16)]
        assert seen == [9]

    def test_foreign_type_sends_every_copy_through_validate(self):
        domain, seen = counting(BIT_DOMAIN)
        assert domain.tally([1, 1, "junk", 1]) == [(1, 3)]
        assert seen == [1, 1, "junk", 1]
