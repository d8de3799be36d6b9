"""Parallel-composition combinator tests."""

from __future__ import annotations

import pytest

from repro.baselines import broadcast_ca, parallel_broadcast_ca
from repro.ba import BIT_DOMAIN, nat_domain, phase_king
from repro.sim import (
    RandomGarbageAdversary,
    ScriptedAdversary,
    run_parallel,
    run_protocol,
)

from conftest import adversary_params, assert_convex

KAPPA = 64


class TestRunParallel:
    def test_two_phase_kings_concurrently(self):
        """Two independent BA instances in parallel: both outputs
        correct, rounds equal to ONE instance's."""

        def factory(ctx, pair):
            results = yield from run_parallel(
                "par",
                [
                    phase_king(ctx, pair[0], nat_domain()),
                    phase_king(ctx, pair[1], BIT_DOMAIN),
                ],
            )
            return tuple(results)

        inputs = [(42, 1)] * 4
        result = run_protocol(factory, inputs, 4, 1, kappa=KAPPA)
        assert result.common_output() == (42, 1)
        single = run_protocol(
            lambda ctx, v: phase_king(ctx, v, nat_domain()),
            [42] * 4, 4, 1, kappa=KAPPA,
        )
        assert result.stats.rounds == single.stats.rounds

    def test_unequal_branch_lengths(self):
        """Branches finishing at different rounds are handled."""
        from repro.sim.party import broadcast_round

        def short(ctx, v):
            inbox = yield broadcast_round(ctx, "s", v)
            return sorted(
                x for x in inbox.values() if isinstance(x, int)
            )[0]

        def long(ctx, v):
            total = v
            for _ in range(3):
                inbox = yield broadcast_round(ctx, "l", total)
                total = max(
                    (x for x in inbox.values() if isinstance(x, int)),
                    default=total,
                )
            return total

        def factory(ctx, v):
            results = yield from run_parallel(
                "mix", [short(ctx, v), long(ctx, v)]
            )
            return tuple(results)

        result = run_protocol(factory, [1, 2, 3, 4], 4, 1, kappa=KAPPA)
        first, second = result.common_output()
        assert first == 1  # min of honest+spec values
        assert second >= 3
        assert result.stats.rounds == 3  # max, not sum

    def test_empty_branch_list(self):
        def factory(ctx, v):
            results = yield from run_parallel("none", [])
            return results

        result = run_protocol(factory, [0] * 4, 4, 1, kappa=KAPPA)
        assert result.common_output() == []

    def test_byzantine_envelopes_dropped(self):
        """Malformed envelopes must not crash or leak across branches."""

        def handler(view, src, dst, spec):
            return "not-an-envelope"

        def factory(ctx, v):
            results = yield from run_parallel(
                "par", [phase_king(ctx, v, nat_domain())]
            )
            return results[0]

        result = run_protocol(
            factory, [9] * 4, 4, 1, kappa=KAPPA,
            adversary=ScriptedAdversary(handler),
        )
        assert result.common_output() == 9

    def test_cross_branch_injection_isolated(self):
        """An envelope targeting branch 1 must not reach branch 0."""

        def handler(view, src, dst, spec):
            return {1: 10**9}  # branch 1 does not exist

        def factory(ctx, v):
            results = yield from run_parallel(
                "par", [phase_king(ctx, v, nat_domain())]
            )
            return results[0]

        result = run_protocol(
            factory, [5] * 4, 4, 1, kappa=KAPPA,
            adversary=ScriptedAdversary(handler),
        )
        assert result.common_output() == 5


class TestParallelBroadcastCA:
    @pytest.mark.parametrize("adversary", adversary_params())
    def test_ca_properties(self, adversary):
        inputs = [100, 105, 103, 101, 104, 102, 106]
        result = run_protocol(
            lambda ctx, v: parallel_broadcast_ca(ctx, v),
            inputs, 7, 2, kappa=KAPPA, adversary=adversary,
        )
        assert_convex(inputs, result)

    def test_rounds_collapse_vs_sequential(self):
        inputs = [10, 20, 30, 40]
        seq = run_protocol(
            lambda ctx, v: broadcast_ca(ctx, v), inputs, 4, 1, kappa=KAPPA
        )
        par = run_protocol(
            lambda ctx, v: parallel_broadcast_ca(ctx, v),
            inputs, 4, 1, kappa=KAPPA,
        )
        assert par.common_output() == seq.common_output()
        assert par.stats.rounds * 3 <= seq.stats.rounds

    def test_communication_unchanged_up_to_envelopes(self):
        inputs = [10, 20, 30, 40]
        seq = run_protocol(
            lambda ctx, v: broadcast_ca(ctx, v), inputs, 4, 1, kappa=KAPPA
        )
        par = run_protocol(
            lambda ctx, v: parallel_broadcast_ca(ctx, v),
            inputs, 4, 1, kappa=KAPPA,
        )
        # envelope index overhead only: within a few percent.
        assert par.stats.honest_bits <= 1.1 * seq.stats.honest_bits

    def test_garbage_robust(self):
        inputs = [7, 8, 9, 10]
        result = run_protocol(
            lambda ctx, v: parallel_broadcast_ca(ctx, v),
            inputs, 4, 1, kappa=KAPPA,
            adversary=RandomGarbageAdversary(3),
        )
        assert_convex(inputs, result)
