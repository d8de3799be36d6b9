"""Payload-bomb plane: quarantine accounting, canaries, no-crash invariant.

Three pillars of the hostile-payload hardening plane:

1. **Byte-identity** -- arming the guards must not change a single bit
   of honest executions: outputs, ``honest_bits``, rounds, and the
   whole stats document are equal with guards on and off, for every
   registry protocol, on both the bare run (plain
   :class:`PassiveAdversary`, guard never armed) and with the adversary
   stage armed (a spec-following subclass whose corrupted traffic the
   guard actually inspects).
2. **Grid canary** -- every bomb class is survived by every registry
   protocol at ``(n, t) in {(4, 1), (7, 2)}``: honest parties terminate
   with convex-valid agreed outputs under the full monitor stack.
3. **No-crash meta-invariant** -- an honest party crashed by byzantine
   input surfaces as :class:`~repro.errors.HonestPartyError` (with
   party/round/inbox attribution), becomes a first-class shrinkable
   fuzz failure, and is *prevented* by the guards on the same case.
"""

from __future__ import annotations

import pytest

from repro import costs
from repro.errors import HonestPartyError
from repro.perf import counters
from repro.sim.adversary import DROP, Adversary, PassiveAdversary
from repro.sim.bombs import (
    BOMB_CATALOG,
    DeepNestAdversary,
    NearValidMutantAdversary,
    OversizeBlobAdversary,
    TypeConfusionAdversary,
    deep_nest,
)
from repro.sim.faults import FaultSpec
from repro.sim.fuzz import (
    FuzzCase,
    ProtocolSpec,
    decode_payload,
    encode_payload,
    run_case_ex,
    sample_case_at,
    shrink_failure,
    standard_registry,
)
from repro.sim.invariants import (
    AgreementMonitor,
    ConvexValidityMonitor,
)
from repro.sim.party import broadcast_round
from repro.sim.network import run_protocol
from repro.sim.wire import WireLimits

KAPPA = 64


def _grid_inputs(n: int) -> list[int]:
    return [(7 * i + 3) % 13 for i in range(n)]


class _SpecFollowingCorruptions(PassiveAdversary):
    """Spec-following, but as a *subclass*: arms the adversary stage.

    Only ``type(adversary) is PassiveAdversary`` exactly leaves it
    unarmed, so this adversary's (identical) corrupted traffic comes
    back from ``deliver()`` and the guard inspects it.
    """


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(standard_registry()))
    @pytest.mark.parametrize(
        "adversary_cls", [PassiveAdversary, _SpecFollowingCorruptions]
    )
    def test_guards_do_not_change_honest_executions(
        self, name, adversary_cls
    ):
        registry = standard_registry()
        spec = registry[name]
        n, t = 4, 1
        ell = spec.ell_for(n, 8)
        inputs = _grid_inputs(n)
        limits = WireLimits.from_envelopes(n, t, ell, KAPPA)
        results = []
        for guards in (None, limits):
            results.append(
                run_protocol(
                    spec.build(ell), inputs, n=n, t=t, kappa=KAPPA,
                    adversary=adversary_cls(seed=0), guards=guards,
                )
            )
        off, on = results
        assert on.outputs == off.outputs
        assert on.stats.honest_bits == off.stats.honest_bits
        assert on.stats.rounds == off.stats.rounds
        assert on.stats.summary_dict() == off.stats.summary_dict()
        assert on.stats.quarantined_messages == 0
        assert on.stats.rejected_bits == 0
        assert on.events == []

    def test_bare_run_never_consults_the_guard(self):
        registry = standard_registry()
        spec = registry["pi_n"]
        limits = WireLimits.from_envelopes(4, 1, 8, KAPPA)
        with counters.capture() as captured:
            run_protocol(
                spec.build(8), _grid_inputs(4), n=4, t=1, kappa=KAPPA,
                adversary=PassiveAdversary(seed=0), guards=limits,
            )
        assert "guard_checks" not in captured
        assert "guard_quarantined" not in captured

    def test_general_path_checks_but_quarantines_nothing_honest(self):
        registry = standard_registry()
        spec = registry["pi_n"]
        limits = WireLimits.from_envelopes(4, 1, 8, KAPPA)
        with counters.capture() as captured:
            result = run_protocol(
                spec.build(8), _grid_inputs(4), n=4, t=1, kappa=KAPPA,
                adversary=_SpecFollowingCorruptions(seed=0), guards=limits,
            )
        assert captured.get("guard_checks", 0) > 0
        assert captured.get("guard_quarantined", 0) == 0
        assert result.stats.quarantined_messages == 0


class TestBombGridCanary:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    @pytest.mark.parametrize("bomb", sorted(BOMB_CATALOG))
    def test_every_protocol_survives_every_bomb(self, n, t, bomb):
        registry = standard_registry()
        for index, name in enumerate(sorted(registry)):
            spec = registry[name]
            case = FuzzCase(
                protocol=name,
                n=n,
                t=t,
                ell=spec.ell_for(n, 8),
                kappa=KAPPA,
                spread="spread",
                adversaries=(bomb,),
                faults=FaultSpec(),
                seed=1000 * n + index,
                guards=True,
            )
            failure = run_case_ex(case, registry)[0]
            assert failure is None, (
                f"{name} vs {bomb} at (n={n}, t={t}): "
                f"{failure and failure.kind}: {failure and failure.message}"
            )


class _Firehose(Adversary):
    """The acceptance canary: 64 MiB blobs + depth-1000 nests + mutants.

    One corrupted party cycles through the three attack phases by round:
    guard-stopped bombs (blob, nest) and guard-passing near-valid
    mutants that honest protocol logic must reject without raising.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.blob = bytes(64 * 1024 * 1024)
        self.nest = deep_nest(1000)
        self._mutant = NearValidMutantAdversary(seed)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return {n - 1}

    def deliver(self, view):
        out = {}
        phase = view.round_index % 3
        if phase == 2:
            for (src, dst), payload in sorted(view.spec_outgoing.items()):
                out[(src, dst)] = self._mutant._mutate(payload)
            return out
        payload = self.blob if phase == 0 else self.nest
        for src in sorted(view.corrupted):
            for dst in range(view.n):
                out[(src, dst)] = payload
        return out


class TestFirehoseCanary:
    @pytest.mark.parametrize("name", sorted(standard_registry()))
    def test_honest_parties_terminate_convex_valid(self, name):
        registry = standard_registry()
        spec = registry[name]
        n, t = 4, 1
        ell = spec.ell_for(n, 8)
        inputs = _grid_inputs(n)
        result = run_protocol(
            spec.build(ell), inputs, n=n, t=t, kappa=KAPPA,
            adversary=_Firehose(seed=2),
            monitors=[AgreementMonitor(), ConvexValidityMonitor()],
            guards=WireLimits.from_envelopes(n, t, ell, KAPPA),
        )
        honest = sorted(set(range(n)) - result.corrupted)
        outputs = [result.outputs[party] for party in honest]
        low = min(inputs[party] for party in honest)
        high = max(inputs[party] for party in honest)
        assert len(set(outputs)) == 1
        assert low <= outputs[0] <= high
        # the blob/nest rounds were quarantined and accounted -- on the
        # overhead fields, never on the honest BITS_l measure.
        assert result.stats.quarantined_messages > 0
        assert result.stats.rejected_bits > result.stats.honest_bits
        verdicts = {
            e.detail[1] for e in result.events if e.kind == "quarantine"
        }
        assert verdicts
        assert verdicts <= {"type", "depth", "oversize", "ceiling"}


class _StringFirehose(Adversary):
    """One corrupted party sends ``payload`` on every link, every round.

    With ``payload=DROP`` it is the oracle: a quarantined message is a
    missing message, so a guarded run under the bomb must equal the
    unguarded run under silence.
    """

    def __init__(self, payload):
        super().__init__(0)
        self.payload = payload

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return {n - 1}

    def deliver(self, view):
        return {
            (src, dst): self.payload
            for src in sorted(view.corrupted) for dst in range(view.n)
        }


class TestStringBombCanary:
    """A ``str`` is an 8-bit opcode only up to ``OPCODE_MAX_CHARS``: ten
    megabytes of it were 8 bits to the guard before the wire schema."""

    @pytest.mark.parametrize(
        "bomb", ["x" * 10**7, ("x" * 10**7,) * 100], ids=["str", "tuple"]
    )
    def test_quarantined_as_type_on_every_link(self, bomb):
        n, t, ell = 7, 2, 8
        spec = standard_registry()["pi_z"]
        inputs = _grid_inputs(n)

        def run(payload, guards):
            return run_protocol(
                spec.build(ell), inputs, n=n, t=t, kappa=KAPPA,
                adversary=_StringFirehose(payload), guards=guards,
                monitors=[AgreementMonitor(), ConvexValidityMonitor()],
            )

        bombed = run(bomb, WireLimits.from_envelopes(n, t, ell, KAPPA))
        silent = run(DROP, None)
        assert bombed.outputs == silent.outputs
        assert bombed.stats.honest_bits == silent.stats.honest_bits
        assert bombed.stats.rounds == silent.stats.rounds
        # every link to an honest party, every round, attributed to the
        # sender; a type verdict stops at the first atom, so it rejects
        # the message without having priced any of it.
        assert bombed.stats.quarantined_messages == (
            (n - 1) * bombed.stats.rounds
        )
        assert bombed.stats.rejected_bits == 0
        quarantined = bombed.events
        assert {e.kind for e in quarantined} == {"quarantine"}
        assert {(e.party, e.detail[1]) for e in quarantined} == {
            (n - 1, "type")
        }
        assert {e.detail[0] for e in quarantined} == set(range(n - 1))
        # only the first offenders are kept as events; the stats count
        # every one.
        assert len(quarantined) == 256
        assert bombed.stats.quarantined_messages == 972


# -- the no-crash meta-invariant --------------------------------------------


def _fragile_protocol(ctx, value):
    """Trusts its inbox: crashes on any non-int payload."""
    inbox = yield broadcast_round(ctx, "vals", value)
    for payloadload in [inbox[k] for k in sorted(inbox)]:
        if not isinstance(payloadload, int):
            raise TypeError(
                f"unexpected {type(payloadload).__name__} on the wire"
            )
    return min(inbox.values())


def _fragile_registry():
    return {
        "fragile": ProtocolSpec(
            name="fragile",
            build=lambda ell: (lambda ctx, v: _fragile_protocol(ctx, v)),
            bit_budget=costs.BitEnvelope(costs.pi_z),
            round_budget=costs.round_envelope,
        )
    }


def _fragile_case(guards: bool) -> FuzzCase:
    return FuzzCase(
        protocol="fragile",
        n=4,
        t=1,
        ell=8,
        kappa=KAPPA,
        spread="spread",
        adversaries=("bomb_type",),
        faults=FaultSpec(),
        seed=3,
        guards=guards,
    )


class _StrBomb(Adversary):
    def deliver(self, view):
        return {
            (src, dst): "boom"
            for src in sorted(view.corrupted)
            for dst in range(view.n)
        }


class TestNoCrashMetaInvariant:
    def test_honest_crash_is_wrapped_with_attribution(self):
        with pytest.raises(HonestPartyError) as excinfo:
            run_protocol(
                lambda ctx, v: _fragile_protocol(ctx, v),
                _grid_inputs(4), n=4, t=1, kappa=KAPPA,
                adversary=_StrBomb(seed=0),
            )
        error = excinfo.value
        assert 0 <= error.party < 4
        assert error.round_index >= 0
        assert error.inbox_digest and len(error.inbox_digest) == 16
        assert "TypeError" in str(error)
        assert isinstance(error.__cause__, TypeError)

    def test_unguarded_type_confusion_is_a_fuzz_failure(self):
        failure, stats = run_case_ex(
            _fragile_case(guards=False), _fragile_registry()
        )
        assert failure is not None
        assert failure.kind == "HonestPartyError"
        assert failure.script  # the hostile payloads were recorded

    def test_guards_prevent_the_same_crash(self):
        failure = run_case_ex(
            _fragile_case(guards=True), _fragile_registry()
        )[0]
        assert failure is None

    def test_honest_party_failures_shrink(self):
        registry = _fragile_registry()
        failure = run_case_ex(_fragile_case(guards=False), registry)[0]
        shrunk = shrink_failure(failure, registry, max_runs=120)
        assert shrunk.kind == "HonestPartyError"
        assert shrunk.shrunk
        assert len(shrunk.script) <= len(failure.script)
        assert len(shrunk.script) >= 1


class TestBombCodec:
    def test_float_and_set_payloads_round_trip(self):
        for payload in [
            3.5,
            float("inf"),
            {1, 2, 3},
            ("VOTE", 1.25, {4, 5}),
            {"witness": {0.5}},
            [b"x", 3.5, None],
        ]:
            assert decode_payload(encode_payload(payload)) == payload

    def test_type_confusion_payloads_are_encodable(self):
        adversary = TypeConfusionAdversary(9)
        for maker in adversary._MAKERS:
            payload = maker(adversary.rng)
            assert decode_payload(encode_payload(payload)) == payload

    def test_bomb_sampling_preserves_the_bombless_prefix(self):
        registry = standard_registry()
        for index in range(6):
            plain = sample_case_at(42, index, registry)
            bombed = sample_case_at(42, index, registry, bombs=True)
            assert not plain.guards
            assert bombed.guards
            assert plain.adversaries == (
                bombed.adversaries[: len(plain.adversaries)]
            )
            extra = bombed.adversaries[len(plain.adversaries):]
            assert 1 <= len(extra) <= 2
            assert set(extra) <= set(BOMB_CATALOG)
            assert (plain.seed, plain.faults, plain.spread) == (
                bombed.seed, bombed.faults, bombed.spread
            )

    def test_bomb_adversaries_are_seed_deterministic(self):
        for name, build in sorted(BOMB_CATALOG.items()):
            first, second = build(5), build(5)
            assert type(first) is type(second), name

    def test_blob_and_nest_shapes(self):
        blob = OversizeBlobAdversary(seed=1, blob_bytes=128)
        assert len(blob.blob) == 128
        nest = DeepNestAdversary(seed=1, depth=10)
        probe, depth = nest.nest, 0
        while isinstance(probe, tuple):
            probe, depth = probe[0], depth + 1
        assert depth == 10
