"""Lossy transport: seeded link schedules, ack/retransmit round
synchronizer, overhead accounting, and the transparency guarantee --
protocols run unmodified and see exactly the perfect-network inboxes."""

from __future__ import annotations

import pytest
from conftest import _Flight, oracle_attempt_round, oracle_synchronize
from hypothesis import given, settings, strategies as st

from repro.core import protocol_z
from repro.core.fixed_length import fixed_length_ca
from repro.errors import ConfigurationError, SimulationError
from repro.sim import (
    ACK_BITS,
    CommunicationStats,
    FaultSpec,
    LossyTransport,
    TimeoutEscalation,
    TransportTimeout,
    run_protocol,
)

KAPPA = 64


def run_flca(inputs, n, t, ell=8, **kwargs):
    return run_protocol(
        lambda ctx, v: fixed_length_ca(ctx, v, ell), inputs, n=n, t=t,
        kappa=KAPPA, **kwargs,
    )


class TestConstruction:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            LossyTransport(drop=1.0)
        with pytest.raises(ConfigurationError):
            LossyTransport(delay=-0.1)
        with pytest.raises(ConfigurationError):
            LossyTransport(reorder=1.5)
        with pytest.raises(ConfigurationError):
            LossyTransport(slot_budget=0)

    def test_from_spec_without_link_faults_is_none(self):
        assert LossyTransport.from_spec(FaultSpec(drop=0.5, garble=0.2)) is None

    def test_from_spec_builds_decorrelated_transport(self):
        spec = FaultSpec(link_drop=0.2, link_delay=0.1, seed=9)
        transport = LossyTransport.from_spec(spec)
        assert transport is not None
        assert transport.drop == 0.2
        assert transport.delay == 0.1
        # The transport seed is derived, never the raw spec seed.
        assert transport.seed != spec.seed


class TestTransparency:
    """Logical executions on lossy links are byte-identical to perfect
    links; only the separately-accounted overhead differs."""

    def test_outputs_and_honest_bits_unchanged(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        baseline = run_flca(inputs, 7, 2)
        lossy = run_flca(
            inputs, 7, 2,
            transport=LossyTransport(drop=0.3, delay=0.2, reorder=0.5, seed=4),
        )
        assert lossy.outputs == baseline.outputs
        assert lossy.stats.honest_bits == baseline.stats.honest_bits
        assert lossy.stats.rounds == baseline.stats.rounds
        lossy.assert_convex_valid(inputs)

    def test_overhead_accounted_separately(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        result = run_flca(
            inputs, 7, 2, transport=LossyTransport(drop=0.3, seed=4),
        )
        stats = result.stats
        assert stats.retrans_bits > 0
        assert stats.retrans_messages > 0
        assert stats.ack_bits > 0
        assert stats.ack_bits == stats.ack_messages * ACK_BITS
        assert stats.transport_slots >= stats.rounds
        assert stats.resilience_overhead_bits == (
            stats.retrans_bits + stats.ack_bits
        )

    def test_perfect_transport_still_pays_acks(self):
        inputs = [1, 2, 3, 4]
        result = run_flca(inputs, 4, 1, transport=LossyTransport(seed=1))
        assert result.stats.retrans_bits == 0
        assert result.stats.ack_bits > 0

    def test_schedule_is_deterministic(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]

        def once():
            return run_flca(
                inputs, 7, 2,
                transport=LossyTransport(drop=0.25, reorder=0.3, seed=12),
            )

        a, b = once(), once()
        assert a.outputs == b.outputs
        assert a.stats.retrans_bits == b.stats.retrans_bits
        assert a.stats.transport_slots == b.stats.transport_slots

    def test_different_seeds_differ_in_overhead(self):
        inputs = [3, 5, 7, 11, 13, 17, 19]
        overheads = {
            run_flca(
                inputs, 7, 2, transport=LossyTransport(drop=0.3, seed=s),
            ).stats.retrans_bits
            for s in range(3)
        }
        assert len(overheads) > 1

    def test_link_restriction(self):
        inputs = [1, 2, 3, 4]
        transport = LossyTransport(
            drop=0.5, seed=2, links=frozenset({(0, 1)}),
        )
        result = run_flca(inputs, 4, 1, transport=transport)
        result.assert_convex_valid(inputs)

    def test_pi_z_runs_unmodified_on_lossy_links(self):
        inputs = [-100, -50, 0, 50, 100, 150, 200]
        baseline = run_protocol(
            lambda ctx, v: protocol_z(ctx, v), inputs, n=7, t=2, kappa=KAPPA,
        )
        lossy = run_protocol(
            lambda ctx, v: protocol_z(ctx, v), inputs, n=7, t=2, kappa=KAPPA,
            transport=LossyTransport(drop=0.2, delay=0.1, seed=7),
        )
        assert lossy.outputs == baseline.outputs
        assert lossy.stats.honest_bits == baseline.stats.honest_bits


class TestTimeout:
    def test_exhausted_slot_budget_fails_the_simulation(self):
        inputs = [1, 2, 3, 4]
        transport = LossyTransport(drop=0.95, seed=3, slot_budget=4)
        with pytest.raises(SimulationError, match="slot"):
            run_flca(inputs, 4, 1, transport=transport)

    def test_escalation_survives_what_a_fixed_budget_cannot(self):
        inputs = [1, 2, 3, 4]
        with pytest.raises(SimulationError):
            run_flca(
                inputs, 4, 1,
                transport=LossyTransport(drop=0.4, seed=3, slot_budget=6),
            )
        result = run_flca(
            inputs, 4, 1,
            transport=LossyTransport(
                drop=0.4, seed=3, slot_budget=6,
                escalation=TimeoutEscalation(),
            ),
        )
        baseline = run_flca(inputs, 4, 1)
        assert result.outputs == baseline.outputs
        assert result.stats.honest_bits == baseline.stats.honest_bits
        # the retries are visible only in the escalation accounting.
        stats = result.stats
        assert stats.resync_attempts > 0
        assert stats.escalated_rounds > 0
        assert stats.escalated_rounds <= stats.resync_attempts
        assert stats.beacon_bits > 0


# ---------------------------------------------------------------------------
# differential: due-slot synchronizer vs. the slot-scan oracle (conftest)
# ---------------------------------------------------------------------------

RATES = st.sampled_from([0.0, 0.15, 0.5, 0.85])
ESCALATIONS = st.builds(
    TimeoutEscalation,
    max_attempts=st.integers(1, 3),
    growth=st.integers(2, 3),
    budget_cap=st.sampled_from([4, 64]),
    beacon_slots=st.integers(0, 2),
)


@st.composite
def transport_configs(draw):
    """``(n, build)``: a party count and a factory of identical transports
    -- each side of the comparison advances its own clock."""
    n = draw(st.sampled_from([1, 2, 4, 7]))
    common = dict(
        drop=draw(RATES),
        delay=draw(RATES),
        reorder=draw(RATES),
        seed=draw(st.integers(0, 1 << 32)),
        # small enough to exhaust under loss or a partition.
        slot_budget=draw(st.integers(1, 10)),
        max_backoff=draw(st.sampled_from([1, 3, 16])),
        escalation=draw(st.none() | ESCALATIONS),
    )
    party = st.integers(0, n - 1)
    if draw(st.booleans()):
        links = draw(
            st.none() | st.frozensets(st.tuples(party, party), max_size=8)
        )
        return n, lambda: LossyTransport(links=links, **common)
    gst = draw(st.none() | st.integers(0, 40))
    pre_gst_drop = draw(RATES) if gst is not None else 0.0
    windows = st.tuples(st.integers(0, 30), st.integers(1, 30))
    partitions = tuple(
        (
            start,
            # healing, or never (-1): the latter can only time out.
            draw(st.sampled_from([start + length, -1])),
            tuple(draw(st.sets(party, min_size=1))),
        )
        for start, length in draw(st.lists(windows, max_size=2))
    )
    churn = tuple(
        (start, start + length, draw(RATES))
        for start, length in draw(st.lists(windows, max_size=2))
    )
    return n, lambda: LossyTransport.partial_sync(
        gst=gst,
        pre_gst_drop=pre_gst_drop,
        partitions=partitions,
        churn=churn,
        **common,
    )


@st.composite
def round_traffic(draw, n):
    """One round's ``link -> bits`` table: a full mesh or a sparse one,
    loopback links included (they take part in beacons, not the wire)."""
    mesh = [(src, dst) for src in range(n) for dst in range(n)]
    links = mesh if draw(st.booleans()) else draw(st.sets(st.sampled_from(mesh)))
    return {link: draw(st.integers(0, 4096)) for link in links}


class TestSynchronizerMatchesOracle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rounds(self, data):
        """Same slots or same timeout, clock and stats, round after round
        (the clock carries over, so later rounds cross GST and heals)."""
        n, build = data.draw(transport_configs())
        new, old = build(), build()
        new_stats, old_stats = CommunicationStats(), CommunicationStats()
        for round_index in range(data.draw(st.integers(1, 4))):
            link_bits = data.draw(round_traffic(n))
            outcomes = []
            for run in (
                lambda: new.synchronize(round_index, link_bits, new_stats),
                lambda: oracle_synchronize(
                    old, round_index, link_bits, old_stats
                )[0],
            ):
                try:
                    outcomes.append(run())
                except TransportTimeout as timeout:
                    outcomes.append(str(timeout))
            assert outcomes[0] == outcomes[1]
            assert new.clock == old.clock
            assert new.total_resyncs == old.total_resyncs
            assert new_stats == old_stats

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_attempts(self, data):
        """Attempt by attempt: same slots used, same links left pending
        with the same copy counts, same overhead accounting."""
        n, build = data.draw(transport_configs())
        new, old = build(), build()
        new_stats, old_stats = CommunicationStats(), CommunicationStats()
        link_bits = data.draw(round_traffic(n))
        wire = [link for link in sorted(link_bits) if link[0] != link[1]]
        new_pending = dict.fromkeys(wire, 0)
        old_pending = {link: _Flight(link_bits[link]) for link in wire}
        for attempt in range(data.draw(st.integers(1, 3))):
            budget = data.draw(st.integers(1, 24))
            slots = new._attempt_round(
                3, attempt, new_pending, link_bits, new_stats, budget
            )
            assert slots == oracle_attempt_round(
                old, 3, attempt, old_pending, old_stats, budget
            )
            assert list(new_pending.items()) == [
                (link, flight.attempts)
                for link, flight in old_pending.items()
            ]
            assert new_stats == old_stats
            new._clock += slots
            old._clock += slots
