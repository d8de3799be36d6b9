"""``PI_BA+`` tests: BA + Intrusion Tolerance + Bounded Pre-Agreement.

Theorem 6 is the paper's core technical lemma below the CA layer; these
tests check the two extra properties *under attack*, not just on happy
paths, plus the claimed complexity shape.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ba.ba_plus import _votes, ba_plus
from repro.ba.turpin_coan import turpin_coan
from repro.ba.domains import digest_domain
from repro.sim import (
    Adversary,
    Context,
    DROP,
    ScriptedAdversary,
    SplitVoteAdversary,
    run_protocol,
)
from repro.sim.party import SharedInbox, parse_once

from conftest import CONFIGS, adversary_params

KAPPA = 64


def value(tag: int) -> bytes:
    return bytes([tag]) * (KAPPA // 8)


def factory(ctx, v):
    return ba_plus(ctx, v)


class TestBAProperties:
    @pytest.mark.parametrize("n,t", CONFIGS)
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_validity(self, n, t, adversary):
        result = run_protocol(factory, [value(7)] * n, n, t, kappa=KAPPA,
                              adversary=adversary)
        assert result.common_output() == value(7)

    @pytest.mark.parametrize("adversary", adversary_params())
    def test_agreement_mixed(self, adversary):
        inputs = [value(i % 3) for i in range(7)]
        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        result.common_output()

    def test_input_validation(self):
        from repro.sim.party import Context

        ctx = Context(party_id=0, n=4, t=1, kappa=KAPPA)
        gen = ba_plus(ctx, b"short")  # not kappa bits
        with pytest.raises(ValueError):
            next(gen)


class TestIntrusionTolerance:
    """Definition 3: the output is an honest input or bottom."""

    @pytest.mark.parametrize("adversary", adversary_params())
    def test_output_is_honest_input_or_bottom(self, adversary):
        inputs = [value(i) for i in range(7)]
        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA,
                              adversary=adversary)
        out = result.common_output()
        honest_inputs = {
            inputs[p] for p in range(7) if p not in result.corrupted
        }
        assert out is None or out in honest_inputs

    def test_adversary_pushing_own_value_fails(self):
        """Corrupted parties all push a fabricated value everywhere."""
        intruder = value(0xEE)

        class Intruder(Adversary):
            def deliver(self, view):
                out = {}
                for src in view.corrupted:
                    for dst in range(view.n):
                        chan = view.channel
                        if chan.endswith("/vote"):
                            out[(src, dst)] = ("VOTE", intruder)
                        else:
                            out[(src, dst)] = intruder
                return out

        inputs = [value(i) for i in range(7)]  # no honest pre-agreement
        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA,
                              adversary=Intruder())
        out = result.common_output()
        assert out != intruder
        honest_inputs = {inputs[p] for p in range(7)
                         if p not in result.corrupted}
        assert out is None or out in honest_inputs

    def test_intruder_with_partial_honest_support_cannot_win_alone(self):
        """t byzantine + t honest echoes < n - 2t support: still safe."""
        intruder = value(0xEE)

        def handler(view, src, dst, spec):
            if view.channel.endswith("/vote"):
                return ("VOTE", intruder)
            if view.channel.endswith("/input"):
                return intruder
            return spec if spec is not None else DROP

        inputs = [value(i) for i in range(7)]
        result = run_protocol(
            factory, inputs, 7, 2, kappa=KAPPA,
            adversary=ScriptedAdversary(handler),
        )
        out = result.common_output()
        assert out != intruder


class TestBoundedPreAgreement:
    """Definition 4: bottom only when < n - 2t honest share an input."""

    @pytest.mark.parametrize("n,t", CONFIGS)
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_pre_agreement_forces_output(self, n, t, adversary):
        # exactly n - 2t honest parties hold the same value; by the
        # default corruption pattern (last t parties) the first n - 2t
        # of them stay honest.
        common = value(1)
        inputs = [common] * (n - 2 * t) + [
            value(10 + i) for i in range(2 * t)
        ]
        result = run_protocol(factory, inputs, n, t, kappa=KAPPA,
                              adversary=adversary)
        assert result.common_output() is not None

    def test_split_vote_attack_cannot_force_bottom(self):
        """The adversary splits votes between the pre-agreed value and a
        fake; Bounded Pre-Agreement must still hold."""
        common = value(1)
        inputs = [common] * 3 + [value(9), value(8)] + [value(7)] * 2
        result = run_protocol(
            factory, inputs, 7, 2, kappa=KAPPA,
            adversary=SplitVoteAdversary(alt_value=value(9)),
        )
        assert result.common_output() is not None

    def test_two_candidate_values_resolved(self):
        """Two honest camps of n-2t each: either camp's value may win,
        bottom may not."""
        inputs = [value(1)] * 3 + [value(2)] * 2 + [value(3)] * 2
        # camps: value(1) x3 (= n-2t), corrupted default = parties 5, 6.
        result = run_protocol(factory, inputs, 7, 2, kappa=KAPPA)
        assert result.common_output() == value(1)


class TestContrastWithTurpinCoan:
    """Turpin-Coan is intrusion tolerant but NOT bounded-pre-agreement;
    this is precisely why the paper builds PI_BA+ (Section 7)."""

    def test_turpin_coan_violates_bounded_pre_agreement(self):
        """With n - 2t honest pre-agreement, a crash adversary can push
        Turpin-Coan to bottom -- PI_BA+ survives the same attack."""
        from repro.sim import CrashAdversary

        domain = digest_domain(KAPPA)
        common = value(1)
        # n - 2t = 3 parties pre-agree; others spread.
        inputs = [common] * 3 + [value(10), value(11), value(12), value(13)]

        tc = run_protocol(
            lambda ctx, v: turpin_coan(ctx, v, domain),
            inputs, 7, 2, kappa=KAPPA, adversary=CrashAdversary(0),
        )
        plus = run_protocol(
            factory, inputs, 7, 2, kappa=KAPPA,
            adversary=CrashAdversary(0),
        )
        assert tc.common_output() is None      # BPA violated
        assert plus.common_output() is not None  # BPA holds


class TestComplexity:
    def test_communication_quadratic_shape(self):
        bits = {}
        for n, t in ((4, 1), (7, 2), (10, 3)):
            result = run_protocol(
                factory, [value(i) for i in range(n)], n, t, kappa=KAPPA
            )
            bits[n] = result.stats.honest_bits
        # BITS(PI_BA+) = O(kappa n^2) + BITS(PI_BA); with phase-king the
        # total is O(kappa n^2 t).  Growth from n=4 to n=10 must be
        # clearly super-linear but far below n^4.
        growth = bits[10] / bits[4]
        assert 2.5 ** 2 < growth < 2.5 ** 4

    def test_round_complexity_constant_plus_ba(self):
        from repro.ba.phase_king import phase_king_rounds

        n, t = 7, 2
        result = run_protocol(
            factory, [value(i) for i in range(n)], n, t, kappa=KAPPA
        )
        # 2 exchange rounds + at most 4 PI_BA invocations.
        assert result.stats.rounds <= 2 + 4 * phase_king_rounds(t)


# -- one parse per shared inbox ---------------------------------------------

#: Digests next to their near-misses and junk (``KAPPA``-bit values).
DIGESTS = [value(1), value(2), bytearray(value(1)), b"x", None, [value(1)]]

#: Vote-round messages of every (mal)formed shape.
VOTE_SHAPES = [
    lambda a, b: ("VOTE",),
    lambda a, b: ("VOTE", a),
    lambda a, b: ("VOTE", a, b),
    lambda a, b: ("VOTE", a, a),
    lambda a, b: ("VOTE", a, b, a),
    lambda a, b: ["VOTE", a],
    lambda a, b: ("vote", a),
    lambda a, b: a,
]


def draw_inboxes(data, n):
    """A line-1 inbox of digest ballots and a line-3 inbox of votes."""
    digest = st.sampled_from(DIGESTS)
    inputs = data.draw(st.lists(digest, min_size=n, max_size=n))
    votes = [
        VOTE_SHAPES[shape](a, b)
        for shape, a, b in data.draw(st.lists(
            st.tuples(st.integers(0, len(VOTE_SHAPES) - 1), digest, digest),
            min_size=n, max_size=n,
        ))
    ]
    return dict(enumerate(inputs)), dict(enumerate(votes))


def drive(party, v_in, inputs, votes, n=4, t=1):
    """One party's bundles through lines 1-3 and into the first BA."""
    gen = ba_plus(Context(party_id=party, n=n, t=t, kappa=KAPPA), v_in)
    bundles = [next(gen), gen.send(inputs), gen.send(votes)]
    return [bundle.messages[party] for bundle in bundles]


class TestSharedParse:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_shared_inboxes_match_the_per_party_parse(self, data):
        """Malformed votes, ``bytearray`` twins and unhashable junk:
        parties reading one ``SharedInbox`` per round send what each
        sends parsing its own inbox, and the memoised vote counts are
        each party's own."""
        inputs, votes = draw_inboxes(data, 4)
        domain = digest_domain(KAPPA)
        shared = SharedInbox(inputs), SharedInbox(votes)
        for party in range(4):
            own = drive(party, value(party), inputs, votes)
            assert drive(party, value(party), *shared) == own
        memo = shared[1].memo
        assert len(shared[0].memo) == len(memo) == 1
        assert parse_once(shared[1], _votes, domain) == _votes(votes, domain)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_turpin_coan_shared_inboxes_match_the_per_party_parse(self, data):
        digest = st.sampled_from(DIGESTS)
        shapes = [
            lambda v: ("CAND", v),
            lambda v: ("NOCAND",),
            lambda v: ["CAND", v],
            lambda v: ("CAND", v, v),
            lambda v: v,
        ]
        inputs = dict(enumerate(data.draw(st.lists(
            digest, min_size=4, max_size=4))))
        candidates = dict(enumerate(
            shapes[shape](v) for shape, v in data.draw(st.lists(
                st.tuples(st.integers(0, len(shapes) - 1), digest),
                min_size=4, max_size=4,
            ))
        ))
        shared = SharedInbox(inputs), SharedInbox(candidates)
        domain = digest_domain(KAPPA)

        def bundles(party, first, second):
            ctx = Context(party_id=party, n=4, t=1, kappa=KAPPA)
            gen = turpin_coan(ctx, value(party), domain)
            out = [next(gen), gen.send(first), gen.send(second)]
            return [bundle.messages[party] for bundle in out]

        for party in range(4):
            own = bundles(party, inputs, candidates)
            assert bundles(party, *shared) == own
        assert len(shared[0].memo) == len(shared[1].memo) == 1
