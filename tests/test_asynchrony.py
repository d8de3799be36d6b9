"""Asynchronous substrate tests: scheduler, Bracha RBC, async AA."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.asynchrony import (
    AsyncAdversary,
    AsyncApproximateAgreement,
    AsyncNetwork,
    AsyncParty,
    BrachaRBC,
    FifoScheduler,
    RandomScheduler,
    TargetedDelayScheduler,
    rbc_message,
)
from repro.asynchrony.network import GarbageAsyncAdversary
from repro.errors import ConfigurationError, SimulationError
from repro.sim import Context


# ---------------------------------------------------------------------------
# plumbing: a trivial flood-and-decide protocol
# ---------------------------------------------------------------------------


class EchoOnce(AsyncParty):
    """Broadcast the input; decide on the first message received."""

    def __init__(self, ctx, value):
        super().__init__(ctx)
        self.value = value

    def start(self):
        self.api.broadcast(("HELLO", self.value))

    def on_message(self, src, payload):
        if isinstance(payload, tuple) and payload and payload[0] == "HELLO":
            self.api.decide(payload[1])


SCHEDULERS = [
    FifoScheduler(),
    RandomScheduler(seed=3),
    TargetedDelayScheduler({0}, seed=3),
]


class TestAsyncNetwork:
    @pytest.mark.parametrize(
        "scheduler", SCHEDULERS, ids=lambda s: s.describe()
    )
    def test_delivery_and_decision(self, scheduler):
        net = AsyncNetwork(
            lambda ctx: EchoOnce(ctx, ctx.party_id),
            n=4, t=1, scheduler=scheduler,
        )
        result = net.run()
        assert set(result.outputs) == {0, 1, 2}

    def test_bits_accounted(self):
        net = AsyncNetwork(lambda ctx: EchoOnce(ctx, 255), n=4, t=1)
        result = net.run()
        # 3 honest parties broadcast ("HELLO", 255): 4 dests each.
        assert result.stats.honest_bits == 3 * 4 * (8 + 8)

    def test_deadlock_detected(self):
        class Mute(AsyncParty):
            def start(self):
                pass

            def on_message(self, src, payload):
                pass

        with pytest.raises(SimulationError):
            AsyncNetwork(lambda ctx: Mute(ctx), n=4, t=1).run()

    def test_injection_budget_respected(self):
        class Flooder(AsyncAdversary):
            def inject(self, step, corrupted, n, observed):
                return [(src, 0, "spam") for src in corrupted]

        net = AsyncNetwork(
            lambda ctx: EchoOnce(ctx, 1), n=4, t=1,
            adversary=Flooder(budget=10),
        )
        result = net.run()
        assert set(result.outputs) == {0, 1, 2}

    def test_corruption_set_out_of_range(self):
        class Phantom(AsyncAdversary):
            def select_corruptions(self, n, t):
                return {99}

        with pytest.raises(ConfigurationError, match="out of range"):
            AsyncNetwork(lambda ctx: EchoOnce(ctx, 1), n=4, t=1,
                         adversary=Phantom())

    def test_delivery_budget_exhausted(self, monkeypatch):
        class PingPong(AsyncParty):
            def start(self):
                if self.ctx.party_id == 0:
                    self.api.send(1, "ping")

            def on_message(self, src, payload):
                self.api.send(src, payload)

        monkeypatch.setattr(
            "repro.asynchrony.network.default_delivery_budget",
            lambda n, t: 50,
        )
        with pytest.raises(SimulationError, match="delivery budget 50 ") as e:
            AsyncNetwork(lambda ctx: PingPong(ctx), n=2, t=0).run()
        assert e.value.stats.rounds == 50


# ---------------------------------------------------------------------------
# Bracha RBC
# ---------------------------------------------------------------------------


class RbcHarness(AsyncParty):
    """Runs one RBC instance and decides on delivery."""

    def __init__(self, ctx, value, sender=0):
        super().__init__(ctx)
        self.value = value
        self.sender = sender
        self.rbc = None

    def start(self):
        self.rbc = BrachaRBC(
            self.ctx, "test", self.sender, self.api.send,
            on_deliver=self.api.decide,
        )
        if self.ctx.party_id == self.sender:
            self.rbc.broadcast(self.value)

    def on_message(self, src, payload):
        from repro.asynchrony import parse_rbc

        parsed = parse_rbc(payload)
        if parsed and parsed[0] == "test":
            self.rbc.handle(src, parsed[1], parsed[2])


class TestBrachaRBC:
    @pytest.mark.parametrize(
        "scheduler", SCHEDULERS, ids=lambda s: s.describe()
    )
    def test_validity_honest_sender(self, scheduler):
        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, "payload"), n=4, t=1,
            scheduler=scheduler,
        )
        result = net.run()
        assert all(v == "payload" for v in result.outputs.values())
        assert len(result.outputs) == 3

    def test_validity_larger_network(self):
        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, 12345), n=7, t=2,
            scheduler=RandomScheduler(1),
        )
        result = net.run()
        assert all(v == 12345 for v in result.outputs.values())

    def test_consistency_under_equivocation(self):
        """A byzantine sender INITs different values to the two halves;
        honest parties that deliver must deliver the SAME value."""

        class EquivocatingSender(AsyncAdversary):
            def inject(self, step, corrupted, n, observed):
                if step > 0:
                    return []
                out = []
                for dst in range(n):
                    value = "AAA" if dst < n // 2 else "BBB"
                    out.append((3, dst, rbc_message("test", "INIT", value)))
                return out

        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, None, sender=3), n=4, t=1,
            adversary=EquivocatingSender(),
            scheduler=RandomScheduler(5),
        )
        # deliveries may or may not happen; if the run deadlocks because
        # nobody delivers, that's allowed for a byzantine sender.
        try:
            result = net.run()
        except Exception:
            return
        delivered = set(result.outputs.values())
        assert len(delivered) <= 1

    def test_garbage_does_not_break_delivery(self):
        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, b"solid"), n=4, t=1,
            adversary=GarbageAsyncAdversary(budget=50),
            scheduler=RandomScheduler(7),
        )
        result = net.run()
        assert all(v == b"solid" for v in result.outputs.values())

    def test_validator_filters_values(self):
        class ValidatingHarness(RbcHarness):
            def start(self):
                self.rbc = BrachaRBC(
                    self.ctx, "test", 0, self.api.send,
                    on_deliver=self.api.decide,
                    validate=lambda v: isinstance(v, int),
                )
                if self.ctx.party_id == 0:
                    self.rbc.broadcast(777)

        net = AsyncNetwork(lambda ctx: ValidatingHarness(ctx, 777), n=4, t=1)
        result = net.run()
        assert all(v == 777 for v in result.outputs.values())

    def test_only_sender_may_broadcast(self):
        ctx = Context(party_id=1, n=4, t=1)
        rbc = BrachaRBC(ctx, "x", 0, lambda d, p: None, lambda v: None)
        with pytest.raises(ValueError):
            rbc.broadcast("value")

    def test_requires_one_third(self):
        ctx = Context(party_id=0, n=3, t=1)
        with pytest.raises(ConfigurationError):
            BrachaRBC(ctx, "x", 0, lambda d, p: None, lambda v: None)


# ---------------------------------------------------------------------------
# Asynchronous Approximate Agreement (t < n/5)
# ---------------------------------------------------------------------------

BOUND = 1 << 16


def aa_factory(inputs, epsilon):
    def factory(ctx):
        return AsyncApproximateAgreement(
            ctx, inputs[ctx.party_id], epsilon, BOUND
        )

    return factory


def check_async_aa(inputs, result, epsilon):
    honest = [p for p in range(len(inputs)) if p not in result.corrupted]
    outputs = [result.outputs[p] for p in honest]
    lo = min(inputs[p] for p in honest)
    hi = max(inputs[p] for p in honest)
    for out in outputs:
        assert lo <= out <= hi, f"{out} outside [{lo}, {hi}]"
    spread = max(outputs) - min(outputs)
    assert spread <= epsilon, f"spread {spread} > {epsilon}"


class TestAsyncAA:
    @pytest.mark.parametrize(
        "scheduler", SCHEDULERS, ids=lambda s: s.describe()
    )
    def test_eps_agreement_n6_t1(self, scheduler):
        inputs = [0, 100, 200, 300, 400, 500]
        net = AsyncNetwork(
            aa_factory(inputs, 1), n=6, t=1, scheduler=scheduler,
        )
        result = net.run()
        check_async_aa(inputs, result, 1)

    def test_eps_agreement_n11_t2(self):
        inputs = [37 * i for i in range(11)]
        net = AsyncNetwork(
            aa_factory(inputs, 2), n=11, t=2,
            scheduler=RandomScheduler(13),
        )
        result = net.run()
        check_async_aa(inputs, result, 2)
        assert result.stats.rounds == 24_624
        assert result.stats.honest_bits == 991_287
        assert [result.outputs[p] for p in result.honest_parties] == [148] * 9

    def test_fine_epsilon(self):
        inputs = [0, 64, 128, 192, 256, 320]
        eps = Fraction(1, 16)
        net = AsyncNetwork(
            aa_factory(inputs, eps), n=6, t=1,
            scheduler=RandomScheduler(17),
        )
        result = net.run()
        check_async_aa(inputs, result, eps)

    def test_unanimous(self):
        inputs = [500] * 6
        net = AsyncNetwork(aa_factory(inputs, 1), n=6, t=1)
        result = net.run()
        assert all(v == 500 for v in result.outputs.values())

    def test_garbage_adversary(self):
        inputs = [10 * i for i in range(6)]
        net = AsyncNetwork(
            aa_factory(inputs, 1), n=6, t=1,
            adversary=GarbageAsyncAdversary(budget=100, seed=3),
            scheduler=RandomScheduler(19),
        )
        result = net.run()
        check_async_aa(inputs, result, 1)

    def test_byzantine_extreme_values(self):
        """Corrupted parties RBC extreme (but consistent) values each
        iteration; validity and eps-agreement must survive."""

        class ExtremeInjector(AsyncAdversary):
            def inject(self, step, corrupted, n, observed):
                if step % 7 or step > 600:
                    return []
                out = []
                for src in corrupted:
                    for iteration in range(3):
                        tag = f"it{iteration}/s{src}"
                        for dst in range(n):
                            out.append(
                                (src, dst,
                                 rbc_message(tag, "INIT", BOUND))
                            )
                return out

        inputs = [100, 120, 140, 160, 180, 200]
        net = AsyncNetwork(
            aa_factory(inputs, 1), n=6, t=1,
            adversary=ExtremeInjector(budget=3000, seed=5),
            scheduler=RandomScheduler(23),
        )
        result = net.run()
        check_async_aa(inputs, result, 1)

    def test_requires_one_fifth(self):
        ctx = Context(party_id=0, n=5, t=1)
        with pytest.raises(ConfigurationError):
            AsyncApproximateAgreement(ctx, 0, 1, BOUND)

    def test_input_bound_enforced(self):
        ctx = Context(party_id=0, n=6, t=1)
        with pytest.raises(ConfigurationError):
            AsyncApproximateAgreement(ctx, BOUND + 1, 1, BOUND)

    def test_zero_iterations(self):
        inputs = [1, 2, 3, 4, 5, 6]
        net = AsyncNetwork(
            aa_factory(inputs, 10 * BOUND), n=6, t=1
        )
        result = net.run()
        # eps larger than the whole range: parties decide immediately.
        for p, out in result.outputs.items():
            assert out == inputs[p]
