"""Round delivery: the fast path, the general path, the broadcast mark.

``broadcast_round`` marks its bundle so the fault-free delivery path can
build one ``{sender: payload}`` dict per round and ``update`` every
inbox from it.  The mark must change nothing observable, and neither
may the choice of delivery path.  Contracts:

1. **Parity**: a protocol yielding marked bundles and the same protocol
   yielding unmarked ``Outgoing``s with the equal dict give identical
   inbox key order, stats, channel trace, counters and round records.
2. **Fallback**: a round in which one honest sender is not a broadcast
   takes the per-message loop, with the same result.
3. **Non-aliasing**: every party still owns its inbox dict.
4. **The fault-plane path ignores the mark**: WAL-forced general-path
   runs and crash/restart replays reproduce marked bundles identically.
5. **One ledger**: the general path (WAL-forced, or under a perfect
   ``LossyTransport``) fills ``CommunicationStats`` exactly as the fast
   path does, field by field and key order included; links to a down
   party are priced but never handed to the transport.
6. **Fast path = general path**: the zero-fault fast path and the
   WAL-forced general path agree on inbox insertion order, outputs,
   stats and channel trace, on an ``(n, t)`` grid under every backend.
7. **Inboxes are the protocol's to keep**: an inbox held across rounds
   still holds its own round's payloads, whatever observes the run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.experiments import make_inputs
from repro.core.fixed_length import fixed_length_ca
from repro.perf import config, counters
from repro.sim import ACK_BITS, CommunicationStats, LossyTransport
from repro.sim.adversary import PassiveAdversary
from repro.sim.invariants import default_monitors
from repro.sim.party import Outgoing, broadcast_round, exchange
from repro.sim.runner import run_protocol

GRID = [(1, 0), (2, 0), (4, 1), (7, 2), (10, 3)]


def marked(ctx, channel, payload):
    return broadcast_round(ctx, channel, payload)


def unmarked(ctx, channel, payload):
    inbox = yield Outgoing(channel, dict.fromkeys(ctx.all_parties, payload))
    return inbox


def probe(send):
    """A protocol covering every round shape, sending via ``send``.

    Returns the exact ``(sender, payload)`` sequence of every inbox, so
    an execution's outputs are its observed deliveries.
    """

    def protocol(ctx, value):
        me = ctx.party_id
        seen = []
        # All-broadcast rounds (bytes, tuple and bottom payloads).
        for label, payload in (
            ("all", (value, me)),
            ("bytes", bytes([me]) * 4),
            ("bottom", None),
        ):
            inbox = yield from send(ctx, label, payload)
            seen.append(tuple(inbox.items()))
        # The king round: one sender, everyone else silent.
        if me == 0:
            inbox = yield from send(ctx, "king", ("K", value))
        else:
            inbox = yield from exchange("king", {})
        seen.append(tuple(inbox.items()))
        # Early finishers: every third party is done here.
        if me % 3 == 2:
            return tuple(seen)
        # A mixed round: party 0 sends one payload per destination
        # (``distribute`` style), the rest broadcast.
        if me == 0:
            inbox = yield from exchange(
                "mixed", {dst: ("share", dst) for dst in ctx.all_parties}
            )
        else:
            inbox = yield from send(ctx, "mixed", ("vote", me))
        seen.append(tuple(inbox.items()))
        inbox = yield from send(ctx, "last", me)
        seen.append(tuple(inbox.items()))
        return tuple(seen)

    return protocol


def observe(protocol, n, t, **kwargs):
    """Everything an execution exposes, wall time aside."""
    config.reset_process_caches()
    with counters.capture() as ops:
        result = run_protocol(protocol, list(range(100, 100 + n)), n=n, t=t,
                              **kwargs)
    return {
        "outputs": result.outputs,
        "stats": dataclasses.replace(result.stats, wall_s=0.0),
        "bits_by_party_order": list(result.stats.bits_by_party),
        "channel_trace": result.channel_trace,
        "trace": result.trace,
        "counters": {
            name: count for name, count in ops.items()
            if name.startswith(("net_", "sched_"))
        },
        "recoveries": result.recoveries,
        "crash_log": result.crash_log,
    }


@pytest.mark.parametrize("n,t", GRID)
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_marked_equals_unmarked(n, t, trace):
    """Corrupted spec senders (the last ``t`` parties) included."""
    with_mark = observe(probe(marked), n, t, trace=trace)
    without = observe(probe(unmarked), n, t, trace=trace)
    assert with_mark == without
    assert with_mark["counters"]["net_rounds"] == 6


@pytest.mark.parametrize("n,t", GRID)
def test_inbox_order_is_honest_senders_then_corrupted(n, t):
    result = run_protocol(probe(marked), list(range(n)), n=n, t=t)
    first_round = result.outputs[0][0]
    assert [sender for sender, _ in first_round] == list(range(n))
    king_round = result.outputs[0][3]
    assert king_round == ((0, ("K", 0)),)


def test_broadcast_pricing_is_per_destination():
    result = run_protocol(probe(marked), list(range(4)), n=4, t=0, trace=True)
    record = result.trace[1]  # the 4-byte round
    assert (record.honest_messages, record.honest_bits) == (12, 12 * 32)
    king = result.trace[3]
    assert (king.honest_messages, king.byzantine_messages) == (3, 0)
    # A lone party talks only to itself: delivered, never priced.
    alone = run_protocol(probe(marked), [5], n=1, t=0)
    assert alone.stats.honest_bits == 0 and alone.stats.honest_messages == 0
    assert alone.outputs[0][0] == ((0, (5, 0)),)


def test_mark_for_another_n_falls_back():
    """The mark is only honoured for a bundle covering exactly ``0..n-1``."""

    def short(ctx, value):
        bundle = Outgoing("short", dict.fromkeys(range(ctx.n - 1), value),
                          broadcast=True)
        inbox = yield bundle
        return tuple(inbox.items())

    def plain(ctx, value):
        inbox = yield Outgoing("short", dict.fromkeys(range(ctx.n - 1), value))
        return tuple(inbox.items())

    assert observe(short, 4, 1) == observe(plain, 4, 1)


@pytest.mark.parametrize("n,t", [(2, 0), (4, 1), (7, 2)])
def test_inboxes_are_private(n, t):
    """Party 0 vandalises its inbox before anyone else reads theirs."""

    def protocol(ctx, value):
        seen = []
        for round_index in range(3):
            inbox = yield from broadcast_round(ctx, "r", (value, round_index))
            if ctx.party_id == 0:
                inbox.clear()
                inbox[99] = "vandal"
            else:
                seen.append(tuple(inbox.items()))
        return tuple(seen)

    inputs = list(range(n))
    result = run_protocol(protocol, inputs, n=n, t=t)
    expected = tuple(
        tuple((sender, (sender, round_index)) for sender in range(n))
        for round_index in range(3)
    )
    for party in range(1, n):
        if party in result.outputs:
            assert result.outputs[party] == expected


@pytest.mark.parametrize("n,t", GRID)
@pytest.mark.parametrize("backend", config.available_backends())
def test_wal_forced_general_path_ignores_the_mark(backend, n, t):
    with config.use_backend(backend):
        fast = observe(probe(marked), n, t)
        slow = observe(probe(marked), n, t, recovery=True)
        slow_unmarked = observe(probe(unmarked), n, t, recovery=True)
    assert slow == slow_unmarked
    for key in ("outputs", "stats", "channel_trace", "counters"):
        assert fast[key] == slow[key], key


class OneCorrupted(PassiveAdversary):
    """Leaves one unit of the shared ``t`` budget for a crash."""

    def select_corruptions(self, n, t):
        return {n - 1}


@pytest.mark.parametrize("backend", config.available_backends())
def test_crash_restart_replays_marked_bundles(backend):
    """Party 1 is down over rounds 2-3 and replays its WAL at round 4."""
    n, t = 7, 2
    with config.use_backend(backend):
        crashed = observe(probe(marked), n, t, adversary=OneCorrupted(),
                          crashes=[(1, 2, 4)])
        crashed_unmarked = observe(probe(unmarked), n, t,
                                   adversary=OneCorrupted(),
                                   crashes=[(1, 2, 4)])
    assert crashed == crashed_unmarked
    assert crashed["recoveries"] == 1
    assert crashed["crash_log"] == [("down", 2, 1), ("up", 4, 1)]
    # The replayed party rejoined and finished all six rounds; while it
    # was down the others heard nothing from it.
    assert len(crashed["outputs"][1]) == 6
    senders = [sender for sender, _ in crashed["outputs"][0][2]]
    assert senders == [0, 2, 3, 4, 5, 6]


# what a perfect transport still pays: one ack per wire message and one
# slot per round; every other field must match a transport-free run.
TRANSPORT_FIELDS = {"ack_bits", "ack_messages", "transport_slots"}


def ledger(observed):
    """Every comparing stats field; dict fields as ordered item lists."""
    stats = observed["stats"]
    return {
        f.name: (
            list(getattr(stats, f.name).items())
            if isinstance(getattr(stats, f.name), dict)
            else getattr(stats, f.name)
        )
        for f in dataclasses.fields(CommunicationStats)
        if f.compare
    }


@pytest.mark.parametrize("n,t", GRID)
def test_general_path_fills_the_fast_paths_ledger(n, t):
    """Broadcast, bottom, king, ``distribute``-style and early-finisher
    rounds: one pricing and one batched accounting for all three paths."""
    fast = ledger(observe(probe(marked), n, t))
    assert ledger(observe(probe(marked), n, t, recovery=True)) == fast
    wired = ledger(observe(probe(marked), n, t, transport=LossyTransport()))
    for name, value in fast.items():
        if name not in TRANSPORT_FIELDS:
            assert wired[name] == value, name
    assert wired["ack_messages"] == fast["honest_messages"]
    assert wired["ack_bits"] == ACK_BITS * fast["honest_messages"]
    assert wired["transport_slots"] == (6 if n > 1 else 0)


def test_links_to_a_down_party_are_priced_but_not_synchronized():
    """Party 1 is down over the bottom round and the king round: the six
    messages addressed to it count in ``honest_bits`` when sent, never
    reach the transport, and are re-delivered (one retransmitted copy
    and one ack each) when it restarts."""
    n, t = 7, 2
    plane = dict(adversary=OneCorrupted(), crashes=[(1, 2, 4)])
    parked = ledger(observe(probe(marked), n, t, **plane))
    wired = ledger(
        observe(probe(marked), n, t, transport=LossyTransport(), **plane)
    )
    for name, value in parked.items():
        if name not in TRANSPORT_FIELDS:
            assert wired[name] == value, name
    assert parked["honest_messages"] == 156
    assert parked["honest_bits"] == 1880
    assert parked["bits_by_party"][:2] == [(0, 404), (1, 300)]
    # five honest live senders in the bottom round, the king alone after.
    assert parked["retrans_messages"] == parked["ack_messages"] == 6
    assert parked["retrans_bits"] == 5 * 1 + 15
    # on the wire every priced message is acked exactly once: in its own
    # round, or at re-delivery.
    assert wired["ack_messages"] == wired["honest_messages"]
    assert wired["transport_slots"] == 6


# -- fast path vs general path ----------------------------------------------

PATH_GRID = [(4, 1), (7, 2), (10, 3)]


def _stats(result):
    return dataclasses.replace(result.stats, wall_s=0.0)


def _order_probe(ctx, v):
    """Record the exact inbox key order for a few rounds."""
    orders = []
    for _ in range(4):
        inbox = yield from broadcast_round(ctx, "probe", (v, ctx.party_id))
        orders.append(tuple(inbox))
    return tuple(orders)


@pytest.mark.parametrize("n,t", PATH_GRID)
@pytest.mark.parametrize("backend", config.available_backends())
def test_fast_path_inbox_order_matches_general_path(backend, n, t):
    with config.use_backend(backend):
        inputs = list(range(n))
        fast = run_protocol(_order_probe, inputs, n=n, t=t)
        slow = run_protocol(_order_probe, inputs, n=n, t=t, recovery=True)
    # The outputs ARE the observed insertion orders, per party per round.
    assert fast.outputs == slow.outputs
    assert _stats(fast) == _stats(slow)


@pytest.mark.parametrize("n,t", PATH_GRID)
@pytest.mark.parametrize("backend", config.available_backends())
def test_fast_path_matches_general_path_full_protocol(backend, n, t):
    with config.use_backend(backend):
        inputs = make_inputs(n, 96, seed=3, spread="spread")

        def factory(ctx, v):
            return fixed_length_ca(ctx, v, 96)

        fast = run_protocol(factory, inputs, n=n, t=t)
        slow = run_protocol(factory, inputs, n=n, t=t, recovery=True)
    assert fast.outputs == slow.outputs
    assert fast.channel_trace == slow.channel_trace
    assert _stats(fast) == _stats(slow)


def _hoarder(ctx, value):
    """Keeps every inbox it is handed and reads them only at the end."""
    kept = []
    for round_index in range(5):
        inbox = yield from broadcast_round(ctx, "keep", (value, round_index))
        kept.append(inbox)
    return tuple(tuple(inbox.items()) for inbox in kept)


@pytest.mark.parametrize("n,t", [(1, 0), (4, 1), (7, 2)])
def test_a_kept_inbox_holds_its_own_rounds_payloads(n, t):
    """Observing a run must not change it: plain, traced, monitored and
    general-path runs hand out inboxes nobody overwrites later."""
    # bytes inputs: the convex-validity monitor skips non-integer runs.
    inputs = [bytes([party]) for party in range(n)]
    expected = tuple(
        tuple((sender, (inputs[sender], round_index)) for sender in range(n))
        for round_index in range(5)
    )
    for observed in (
        {},
        {"trace": True},
        {"monitors": default_monitors()},
        {"recovery": True},
    ):
        result = run_protocol(_hoarder, inputs, n=n, t=t, **observed)
        assert set(result.outputs.values()) == {expected}, observed


def test_sched_resumes_counts_generator_touches():
    """Finished and down parties are not counted: the exact figure is
    pinned by ``test_sim``'s down-straggler test."""
    inputs = make_inputs(4, 32, seed=1)
    with counters.capture() as counts:
        run_protocol(
            lambda ctx, v: fixed_length_ca(ctx, v, 32), inputs, n=4, t=1
        )
    # Resumes are per party per round, minus finished parties.
    assert counts["sched_resumes"] >= counts["net_rounds"] > 0
