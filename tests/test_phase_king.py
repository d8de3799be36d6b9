"""Phase-King BA tests: the assumed ``PI_BA`` must satisfy Definition 2."""

from __future__ import annotations

import sys
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import convex_agreement
from repro.analysis.experiments import make_inputs
from repro.ba import (
    BIT_DOMAIN,
    Domain,
    bitstring_domain,
    canonical_key,
    digest_domain,
    nat_domain,
    optional_digest_domain,
)
from repro.ba.phase_king import phase_king, phase_king_rounds
from repro.core.bitstrings import BitString
from repro.crypto.merkle import MerkleWitness
from repro.perf import config
from repro.sim import Context
from repro.sim.party import SharedInbox
from repro.sim import (
    Adversary,
    CrashAdversary,
    ScriptedAdversary,
    run_protocol,
)

from conftest import CONFIGS, adversary_params, oracle_tally

NAT = nat_domain()


def pk_factory(domain):
    def factory(ctx, v):
        return phase_king(ctx, v, domain)

    return factory


class TestValidity:
    @pytest.mark.parametrize("n,t", CONFIGS)
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_unanimous_nat(self, n, t, adversary):
        result = run_protocol(pk_factory(NAT), [77] * n, n, t,
                              adversary=adversary)
        assert result.common_output() == 77

    @pytest.mark.parametrize("adversary", adversary_params())
    def test_unanimous_bits(self, adversary):
        for bit in (0, 1):
            result = run_protocol(pk_factory(BIT_DOMAIN), [bit] * 7, 7, 2,
                                  adversary=adversary)
            assert result.common_output() == bit

    @pytest.mark.parametrize("adversary", adversary_params())
    def test_unanimous_digests(self, adversary):
        domain = digest_domain(64)
        value = b"\xab" * 8
        result = run_protocol(
            pk_factory(domain), [value] * 7, 7, 2, kappa=64,
            adversary=adversary,
        )
        assert result.common_output() == value


class TestAgreement:
    @pytest.mark.parametrize("n,t", CONFIGS)
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_mixed_inputs_agree(self, n, t, adversary):
        inputs = [i * 11 for i in range(n)]
        result = run_protocol(pk_factory(NAT), inputs, n, t,
                              adversary=adversary)
        result.common_output()  # raises on disagreement

    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=7, max_size=7),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_agreement_random_inputs(self, inputs, seed):
        from repro.sim import RandomGarbageAdversary

        result = run_protocol(
            pk_factory(NAT), inputs, 7, 2,
            adversary=RandomGarbageAdversary(seed),
        )
        result.common_output()


class TestDomainGuarantees:
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_binary_output_in_domain(self, adversary):
        """For binary domains the output is always 0 or 1 -- Lemma 2's
        'the bit agreed upon was proposed by an honest party' needs this."""
        inputs = [0, 1, 0, 1, 0, 1, 0]
        result = run_protocol(pk_factory(BIT_DOMAIN), inputs, 7, 2,
                              adversary=adversary)
        assert result.common_output() in (0, 1)

    def test_invalid_own_input_coerced_to_default(self):
        result = run_protocol(
            pk_factory(BIT_DOMAIN), ["junk"] * 4, 4, 1
        )
        assert result.common_output() == BIT_DOMAIN.default

    def test_byzantine_king_junk_coerced(self):
        """A byzantine king broadcasting junk must not leave the domain."""

        class JunkKing(Adversary):
            def select_corruptions(self, n, t):
                return {0}  # phase-0 king

            def mutate(self, view, src, dst, payload):
                return ("garbage", [1, 2, 3])

        inputs = [0, 1, 1, 0, 1, 0, 1]
        result = run_protocol(pk_factory(BIT_DOMAIN), inputs, 7, 2,
                              adversary=JunkKing())
        assert result.common_output() in (0, 1)


class TestPersistence:
    def test_agreement_persists_across_byzantine_kings(self):
        """Once honest parties agree, later corrupted kings cannot break it.

        Corrupt the LAST phase's king; honest parties start unanimous.
        """

        class LastKingLies(Adversary):
            def select_corruptions(self, n, t):
                return {t}  # king of the final phase (phase index t)

            def mutate(self, view, src, dst, payload):
                return 424242

        result = run_protocol(pk_factory(NAT), [5] * 7, 7, 2,
                              adversary=LastKingLies())
        assert result.common_output() == 5


class TestComplexity:
    @pytest.mark.parametrize("n,t", CONFIGS)
    def test_round_complexity_exact(self, n, t):
        result = run_protocol(pk_factory(NAT), list(range(n)), n, t)
        assert result.stats.rounds == phase_king_rounds(t)

    def test_bits_quadratic_per_phase(self):
        """Communication is O(value_bits * n^2) per phase."""
        small = run_protocol(pk_factory(NAT), [1] * 7, 7, 2)
        large = run_protocol(pk_factory(NAT), [2**64 - 1] * 7, 7, 2)
        # 64x larger values: cost grows roughly linearly in value size.
        assert large.stats.honest_bits > 10 * small.stats.honest_bits

    def test_equivocating_king_cannot_inflate_honest_bits(self):
        """Honest communication is adversary-independent up to message
        content sizes (honest parties never forward byzantine blobs)."""
        quiet = run_protocol(pk_factory(NAT), [3] * 7, 7, 2,
                             adversary=CrashAdversary(0))
        noisy = run_protocol(
            pk_factory(NAT), [3] * 7, 7, 2,
            adversary=ScriptedAdversary(lambda *a: 2**512),
        )
        # Byzantine 512-bit blobs are never echoed by honest parties;
        # honest bits stay within the all-crash baseline (small values).
        assert noisy.stats.honest_bits <= quiet.stats.honest_bits * 2


# -- one phase, differentially: real generator vs the written-out rules ----

Proposal = namedtuple("Proposal", "tag value")
D_A, D_B = b"\xaa" * 16, b"\xbb" * 16

#: Per domain: honest values next to their adversarial twins and junk.
PHASE_DOMAINS = {
    "bit": (BIT_DOMAIN, [0, 1, True, False, 1.0, -0.0, 2, None, "1"]),
    "nat": (nat_domain(), [0, 1, 5, True, False, 1.0, -1, float("nan")]),
    "digest": (
        digest_domain(128),
        [D_A, D_B, bytearray(D_A), b"x", None, [D_A]],
    ),
    "digest?": (
        optional_digest_domain(128),
        [D_A, D_B, None, bytearray(D_B), b"", {1: D_A}, {D_A}],
    ),
    "bits": (
        bitstring_domain(),
        [BitString(1, 1), BitString(1, 2), BitString(0, 0), 1, "1", (1, 1)],
    ),
}


def oracle_most_frequent(domain, ballots):
    """Most frequent valid ballot of the validate-each tally, canonical
    tie-break."""
    return max(
        oracle_tally(domain, ballots),
        key=lambda pair: (pair[1], canonical_key(pair[0])),
        default=(None, 0),
    )


def oracle_phase(domain, est, quorum, is_king, exch, prop_inbox, king_inbox):
    """One Phase-King phase: the prop message, the king's broadcast (or
    ``None`` for a silent non-king) and the next estimate."""
    maj, cnt = oracle_most_frequent(domain, exch.values())
    message = ("PROPOSE", maj) if cnt >= quorum else ("NOPROP",)
    prop, pcnt = oracle_most_frequent(
        domain,
        [
            msg[1]
            for msg in prop_inbox.values()
            if isinstance(msg, tuple) and len(msg) == 2
            and msg[0] == "PROPOSE"
        ],
    )
    sent = (prop if pcnt > 0 else est) if is_king else None
    king_value = king_inbox.get(0)
    if not domain.validate(king_value):
        king_value = domain.default
    return message, sent, prop if pcnt >= quorum else king_value


def exact(value):
    """``value`` with the exact types of everything inside it."""
    if isinstance(value, tuple):
        return tuple(exact(item) for item in value)
    return (type(value), value)


def wrap_proposals(values, shapes):
    """Dress ballots as prop-round messages of every (mal)formed shape."""
    makers = [
        lambda v: ("PROPOSE", v),
        lambda v: ("NOPROP",),
        lambda v: Proposal("PROPOSE", v),
        lambda v: ("PROPOSE",),
        lambda v: ("PROPOSE", v, v),
        lambda v: ["PROPOSE", v],
        lambda v: ("propose", v),
        lambda v: v,
    ]
    return {
        sender: makers[shape % len(makers)](value)
        for sender, (value, shape) in enumerate(zip(values, shapes))
    }


def draw_phase(data, pool, n):
    """One phase's inboxes: exchange, propose (every message shape) and
    the king's (present or not)."""
    ballot = st.sampled_from(pool)
    ballots = st.lists(ballot, min_size=n, max_size=n)
    exch = dict(enumerate(data.draw(ballots)))
    # Half the messages are well-formed PROPOSEs (shape 0).
    shapes = data.draw(
        st.lists(st.sampled_from([0] * 7 + list(range(1, 8))),
                 min_size=n, max_size=n)
    )
    prop_inbox = wrap_proposals(data.draw(ballots), shapes)
    king_inbox = {0: data.draw(ballot)} if data.draw(st.booleans()) else {}
    return exch, prop_inbox, king_inbox


def check_phase(domain, party, est, exch, prop_inbox, king_inbox):
    """Drive one party's phase through the three inboxes and hold every
    bundle it yields to :func:`oracle_phase`."""
    ctx = Context(party_id=party, n=4, t=1)
    gen = phase_king(ctx, est, domain)
    first = next(gen)
    start = est if domain.validate(est) else domain.default
    assert exact(first.messages[party]) == exact(start)
    prop_out = gen.send(exch)
    king_out = gen.send(prop_inbox)
    next_exch = gen.send(king_inbox)

    message, sent, next_est = oracle_phase(
        domain, start, ctx.quorum, party == 0, exch, prop_inbox,
        king_inbox,
    )
    assert exact(prop_out.messages[party]) == exact(message)
    if party == 0:
        assert exact(king_out.messages[party]) == exact(sent)
    else:
        assert king_out.messages == {}
    assert exact(next_exch.messages[party]) == exact(next_est)


class TestPhaseDifferential:
    @pytest.mark.parametrize("name", PHASE_DOMAINS)
    @pytest.mark.parametrize("party", [0, 1])
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_phase_matches_written_out_rules(self, name, party, data):
        domain, pool = PHASE_DOMAINS[name]
        est = data.draw(st.sampled_from(pool))
        check_phase(domain, party, est, *draw_phase(data, pool, 4))

    @pytest.mark.parametrize("name", PHASE_DOMAINS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_inboxes_match_written_out_rules(self, name, data):
        """Parties 0 and 1 read the same ``SharedInbox`` objects, so the
        second one's counts are the first one's parse."""
        domain, pool = PHASE_DOMAINS[name]
        ests = data.draw(st.lists(st.sampled_from(pool), min_size=2,
                                  max_size=2))
        boxes = [SharedInbox(box) for box in draw_phase(data, pool, 4)]
        for party, est in enumerate(ests):
            check_phase(domain, party, est, *boxes)
        exch_box, prop_box, _ = boxes
        assert len(exch_box.memo) == len(prop_box.memo) == 1

    def test_proposed_bool_is_not_counted_for_int_under_nat(self):
        # ("PROPOSE", True) == ("PROPOSE", 1) and hashes alike; only the
        # int proposals are in the nat domain and only they may count.
        ctx = Context(party_id=1, n=4, t=1)
        gen = phase_king(ctx, 9, nat_domain())
        next(gen)
        gen.send({p: 9 for p in range(4)})
        gen.send({0: ("PROPOSE", True), 1: ("PROPOSE", 1),
                  2: ("PROPOSE", True), 3: ("PROPOSE", 1)})
        # pcnt is 2 < quorum 3: the king's value (7) is adopted, not 1.
        nxt = gen.send({0: 7})
        assert exact(nxt.messages[1]) == exact(7)

    def test_shared_proposed_bool_is_not_counted_for_int_under_nat(self):
        # The same inboxes as above, read by parties 1 and 2 as one
        # shared object each: the memoised count is still 2.
        exch = SharedInbox({p: 9 for p in range(4)})
        prop = SharedInbox({0: ("PROPOSE", True), 1: ("PROPOSE", 1),
                            2: ("PROPOSE", True), 3: ("PROPOSE", 1)})
        king = SharedInbox({0: 7})
        for party in (1, 2):
            gen = phase_king(Context(party_id=party, n=4, t=1), 9,
                             nat_domain())
            next(gen)
            gen.send(exch)
            gen.send(prop)
            assert exact(gen.send(king).messages[party]) == exact(7)
        assert len(prop.memo) == 1

    def test_unanimous_junk_free_phase(self):
        ctx = Context(party_id=0, n=4, t=1)
        gen = phase_king(ctx, 1, BIT_DOMAIN)
        next(gen)
        prop = gen.send({p: 1 for p in range(4)})
        assert prop.messages[0] == ("PROPOSE", 1)
        king = gen.send({p: ("PROPOSE", 1) for p in range(4)})
        assert king.messages == {p: 1 for p in range(4)}


# -- one parse per shared inbox ---------------------------------------------


def test_a_shared_round_is_tallied_once(monkeypatch):
    """One ``convex_agreement`` op at n = 16: with the caches on,
    ``Domain.tally`` runs once per Phase-King exchange / propose round
    and ``PI_BA+`` input round (every one of them shared); with them
    off, once per party per round.  So do Phase-King's pluralities, and
    the distributing step's share checks run once for the shared
    ``dist/r2`` inbox (plus each party's own ``dist/r1`` check).
    Merkle witnesses are made only for the 16 the holders send, caches
    on or off.  Nothing observable moves."""
    calls = Counter()

    def spy(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(Domain, "tally", "tally")
    spy(sys.modules["repro.ba.phase_king"], "_plurality", "plurality")
    spy(sys.modules["repro.ba.distribution"], "valid_share_tuple", "share")
    spy(MerkleWitness, "__init__", "witness")
    inputs = make_inputs(16, 256, seed=0, spread="spread")
    runs = {}
    for on in (True, False):
        calls.clear()
        with config.caches(on):
            execution = convex_agreement(inputs, t=5).execution
        runs[on] = (dict(calls), execution)
    (shared_calls, shared), (own_calls, own) = runs[True], runs[False]
    parsed = sum(
        channel.endswith(("/exch", "/prop", "/input"))
        for channel in shared.channel_trace
    )
    pluralities = sum(
        channel.endswith(("/exch", "/prop"))
        for channel in shared.channel_trace
    )
    assert parsed == 524 and pluralities == 516
    assert shared_calls == {
        "tally": parsed, "plurality": pluralities, "share": 16 + 16,
        "witness": 16,
    }
    assert own_calls == {
        "tally": 16 * parsed, "plurality": 16 * pluralities,
        "share": 16 + 16 * 16, "witness": 6 * 16,
    }
    assert shared.outputs == own.outputs
    assert shared.channel_trace == own.channel_trace
    assert shared.stats == own.stats
