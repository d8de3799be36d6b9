"""Round delivery: broadcast bundles and the optional stages.

``SynchronousNetwork._run_round`` is one pipeline.  ``broadcast_round``
returns a *marked* bundle (``Outgoing.to_all``: one payload, no
``{dst: payload}`` dict until a stage reads ``messages``) so the
deliver stage can build one ``{sender: payload}`` dict per round and
hand it to every party as one ``SharedInbox``; a transport, a scripted adversary, a
recovery plane, a trace or monitors arm further stages.  Neither the
bundle's form nor an armed stage may change what the protocol observes
or what the ledger says.  Contracts:

1. **Parity**: a protocol yielding marked bundles and the same protocol
   yielding unmarked ``Outgoing``s with the equal dict give identical
   inbox key order, stats, channel trace, counters and round records --
   on the bare run and under every plane (``PLANES``); the ``t > 0``
   rows hold corrupted spec broadcasts to the same contract.
2. **Fallback**: a round in which one honest sender is not a broadcast
   for this ``n`` takes the per-message loop, with the same result.
   The bare run never builds a broadcast's view; a stage that reads
   links builds it at most once per bundle.
3. **Read-only inboxes**: no party can change what another reads.  A
   round with nothing inserted per destination hands every party one
   read-only ``SharedInbox`` (new each round); any other round gives
   each party its own dict.  The WAL and ``park`` copy what they keep.
4. **Crash/restart** replays reproduce marked bundles identically.
5. **One ledger**: arming the WAL or a perfect ``LossyTransport`` fills
   ``CommunicationStats`` exactly as the bare run does, field by field
   and key order included; links to a down party are priced but never
   handed to the transport.
6. **Arming a plane changes nothing**: the bare run and the WAL-armed
   run agree on inbox insertion order, outputs, stats, channel trace and
   round records, on an ``(n, t)`` grid on both kernel sets.
7. **Inboxes are the protocol's to keep**: an inbox held across rounds
   still holds its own round's payloads, whatever observes the run.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from kernel_oracle import KERNELS, use_kernels

from repro import convex_agreement
from repro.analysis.experiments import make_inputs
from repro.core.fixed_length import fixed_length_ca
from repro.perf import config, counters
from repro.sim import (
    ACK_BITS,
    CommunicationStats,
    ComposedAdversary,
    Event,
    FaultSpec,
    LossyTransport,
)
from repro.sim.adversary import PassiveAdversary
from repro.sim.invariants import default_monitors
from repro.sim.party import Outgoing, SharedInbox, broadcast_round, exchange
from repro.sim.network import run_protocol

GRID = [(1, 0), (2, 0), (4, 1), (7, 2), (10, 3)]


def marked(ctx, channel, payload):
    inbox = yield broadcast_round(ctx, channel, payload)
    return inbox


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
            inbox = yield exchange("king", {})
        seen.append(tuple(inbox.items()))
        # Early finishers: every third party is done here.
        if me % 3 == 2:
            return tuple(seen)
        # A mixed round: party 0 sends one payload per destination
        # (``distribute`` style), the rest broadcast.
        if me == 0:
            inbox = yield exchange(
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
    """Everything an execution exposes."""
    config.reset_process_caches()
    with counters.capture() as ops:
        result = run_protocol(protocol, list(range(100, 100 + n)), n=n, t=t,
                              **kwargs)
    return {
        "outputs": result.outputs,
        "stats": result.stats,
        "bits_by_party_order": list(result.stats.bits_by_party),
        "channel_trace": result.channel_trace,
        "trace": result.trace,
        "counters": {
            name: count for name, count in ops.items()
            if name.startswith(("net_", "sched_"))
        },
        "events": result.events,
    }


class SpecFollowing(PassiveAdversary):
    """Spec-following, but not the exact ``PassiveAdversary``: arms the
    adversary stage (``RoundView``, ``deliver``, ``adapt``)."""


class Logged(PassiveAdversary):
    """Spec-following with a crash plane that never crashes anyone:
    arms the write-ahead log (and with it the adversary stage)."""

    has_crash_plane = True


class OneCorrupted(PassiveAdversary):
    """Leaves one unit of the shared ``t`` budget for a crash."""

    def select_corruptions(self, n, t):
        return {n - 1}


def crash_1_over_2_3():
    """Party 1 is down over rounds 2-3 and replays its WAL at round 4."""
    return ComposedAdversary(
        [OneCorrupted()], faults=FaultSpec(crashes=((1, 2, 4),))
    )


#: one column per optional stage set; built fresh per run (a transport
#: and an adversary carry state).  ``crashed`` needs ``t >= 2``.
PLANES = {
    "bare": lambda: {},
    "wal": lambda: {"adversary": Logged()},
    "transport": lambda: {"transport": LossyTransport()},
    "scripted": lambda: {"adversary": SpecFollowing()},
    "crashed": lambda: {"adversary": crash_1_over_2_3()},
}


def planes_for(t):
    return [plane for plane in PLANES if plane != "crashed" or t >= 2]


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


def test_broadcast_for_another_n_falls_back():
    """A broadcast shares the deliver stage's dict only when it covers
    exactly ``0..n-1``; one built for ``n - 1`` parties is delivered like
    the equal point-to-point dict, corrupted senders included."""

    def short(ctx, value):
        inbox = yield Outgoing.to_all("short", value, ctx.n - 1)
        return tuple(inbox.items())

    def plain(ctx, value):
        inbox = yield Outgoing("short", dict.fromkeys(range(ctx.n - 1), value))
        return tuple(inbox.items())

    assert observe(short, 4, 1) == observe(plain, 4, 1)


def test_point_to_point_bundles_compare_and_print_by_their_messages():
    bundle = Outgoing("ch", {0: "x", 1: "y"})
    assert bundle == Outgoing(channel="ch", messages={1: "y", 0: "x"})
    assert bundle != Outgoing("ch", {0: "x"})
    assert bundle != Outgoing("other", {0: "x", 1: "y"})
    assert repr(bundle) == "Outgoing(channel='ch', messages={0: 'x', 1: 'y'})"
    assert Outgoing("ch").messages == {}
    assert Outgoing.to_all("ch", "x", 2).messages == {0: "x", 1: "x"}


def spy_on_views(monkeypatch):
    """Record every read of a broadcast bundle's ``messages`` view.

    Maps ``id(bundle)`` to the bundle and every dict its reads returned
    (both kept alive, so no id is reused while the spy runs).
    """
    reads: dict[int, tuple[Outgoing, list[dict]]] = {}
    kind = type(Outgoing.to_all("probe", None, 1))
    build = kind.messages.fget

    def spy(bundle):
        view = build(bundle)
        reads.setdefault(id(bundle), (bundle, []))[1].append(view)
        return view

    monkeypatch.setattr(kind, "messages", property(spy))
    return reads


def test_the_bare_run_never_builds_a_broadcast_view(monkeypatch):
    """Phase-King's rounds, corrupted spec senders included, are
    delivered from each bundle's one payload."""
    reads = spy_on_views(monkeypatch)
    outcome = convex_agreement(make_inputs(16, 256, seed=0), t=5)
    assert len(outcome.execution.corrupted) == 5
    assert outcome.execution.stats.honest_bits > 0
    assert reads == {}


@pytest.mark.parametrize("plane", ["wal", "transport", "scripted"])
def test_link_readers_build_each_broadcast_view_once(monkeypatch, plane):
    reads = spy_on_views(monkeypatch)
    run_protocol(lambda ctx, v: fixed_length_ca(ctx, v, 32),
                 make_inputs(7, 32, seed=1), n=7, t=2, **PLANES[plane]())
    assert reads, "the plane reads links"
    for bundle, views in reads.values():
        assert all(view is views[0] for view in views)
        assert views[0] == dict.fromkeys(range(7), bundle.payload)


#: the planes without an adversary stage: their all-broadcast rounds
#: hand every party one ``SharedInbox``.  (The WAL is armed only by an
#: adversary with a crash plane, which arms the adversary stage too.)
SHARED_PLANES = {"bare", "transport"}


@pytest.mark.parametrize("n,t", [(2, 0), (4, 1), (7, 2)])
def test_inboxes_are_private(n, t):
    """Party 0 tries to vandalise its inbox before anyone else reads
    theirs, under every plane.  A shared inbox refuses with
    ``TypeError``; a private one (adversary stage armed) takes the
    damage alone.  Either way the others, a WAL-replayed party
    (``crashed``) included, read every round intact."""

    def protocol(ctx, value):
        seen = []
        for round_index in range(3):
            inbox = yield broadcast_round(ctx, "r", (value, round_index))
            if ctx.party_id == 0:
                refused = []
                for vandalise in (
                    inbox.clear,
                    lambda: inbox.__setitem__(99, "vandal"),
                ):
                    try:
                        vandalise()
                    except TypeError:
                        refused.append(True)
                    else:
                        refused.append(False)
                seen.append(tuple(refused))
            else:
                seen.append(tuple(inbox.items()))
        return tuple(seen)

    inputs = list(range(n))
    for plane in planes_for(t):
        result = run_protocol(protocol, inputs, n=n, t=t, **PLANES[plane]())
        shared = plane in SHARED_PLANES
        assert result.outputs[0] == ((shared, shared),) * 3, plane
        # ``crashed``: party 1 is down in round 2, unheard then.
        silent = {2: 1} if plane == "crashed" else {}
        expected = tuple(
            tuple(
                (sender, (sender, round_index))
                for sender in range(n)
                if silent.get(round_index) != sender
            )
            for round_index in range(3)
        )
        readers = set(result.outputs) - {0}
        assert readers, plane
        for party in readers:
            assert result.outputs[party] == expected, plane


@pytest.mark.parametrize(
    "n,t,plane", [(n, t, plane) for n, t in GRID for plane in planes_for(t)]
)
@pytest.mark.parametrize("kernels", KERNELS)
def test_marked_equals_unmarked_under_every_plane(kernels, n, t, plane):
    """Shared-broadcast delivery is a deliver-stage variant every
    configuration takes; the bare run is the reference for the planes
    that leave the execution alone."""
    with use_kernels(kernels):
        bare = observe(probe(marked), n, t)
        armed = observe(probe(marked), n, t, trace=True, **PLANES[plane]())
        armed_unmarked = observe(
            probe(unmarked), n, t, trace=True, **PLANES[plane]()
        )
    assert armed == armed_unmarked
    if plane == "crashed":
        return  # a crash changes the execution; pinned below
    keys = ["outputs", "channel_trace", "counters"]
    if plane != "transport":
        keys.append("stats")  # a transport adds acks and slots; see ledger
    for key in keys:
        assert bare[key] == armed[key], key


def test_crash_restart_replays_marked_bundles():
    """Party 1 is down over rounds 2-3 and replays its WAL at round 4."""
    n, t = 7, 2
    crashed = observe(probe(marked), n, t, adversary=crash_1_over_2_3())
    crashed_unmarked = observe(probe(unmarked), n, t,
                               adversary=crash_1_over_2_3())
    assert crashed == crashed_unmarked
    assert crashed["events"] == [Event("down", 2, 1), Event("up", 4, 1)]
    # The replayed party rejoined and finished all six rounds; while it
    # was down the others heard nothing from it.
    assert len(crashed["outputs"][1]) == 6
    senders = [sender for sender, _ in crashed["outputs"][0][2]]
    assert senders == [0, 2, 3, 4, 5, 6]


# what a perfect transport still pays: one ack per wire message and one
# slot per round; every other field must match a transport-free run.
TRANSPORT_FIELDS = {"ack_bits", "ack_messages", "transport_slots"}


def ledger(observed):
    """Every stats field; dict fields as ordered item lists."""
    stats = observed["stats"]
    return {
        f.name: (
            list(getattr(stats, f.name).items())
            if isinstance(getattr(stats, f.name), dict)
            else getattr(stats, f.name)
        )
        for f in dataclasses.fields(CommunicationStats)
    }


@pytest.mark.parametrize("n,t", GRID)
def test_armed_planes_fill_the_bare_runs_ledger(n, t):
    """Broadcast, bottom, king, ``distribute``-style and early-finisher
    rounds: the WAL and a perfect transport leave the ledger alone."""
    bare = ledger(observe(probe(marked), n, t))
    assert ledger(observe(probe(marked), n, t, adversary=Logged())) == bare
    wired = ledger(observe(probe(marked), n, t, transport=LossyTransport()))
    for name, value in bare.items():
        if name not in TRANSPORT_FIELDS:
            assert wired[name] == value, name
    assert wired["ack_messages"] == bare["honest_messages"]
    assert wired["ack_bits"] == ACK_BITS * bare["honest_messages"]
    assert wired["transport_slots"] == (6 if n > 1 else 0)


def test_links_to_a_down_party_are_priced_but_not_synchronized():
    """Party 1 is down over the bottom round and the king round: the six
    messages addressed to it count in ``honest_bits`` when sent, never
    reach the transport, and are re-delivered (one retransmitted copy
    and one ack each) when it restarts."""
    n, t = 7, 2
    parked = ledger(
        observe(probe(marked), n, t, adversary=crash_1_over_2_3())
    )
    wired = ledger(
        observe(probe(marked), n, t, transport=LossyTransport(),
                adversary=crash_1_over_2_3())
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


# -- arming a plane changes nothing ------------------------------------------

PATH_GRID = [(4, 1), (7, 2), (10, 3)]


def _order_probe(ctx, v):
    """Record the exact inbox key order for a few rounds."""
    orders = []
    for _ in range(4):
        inbox = yield broadcast_round(ctx, "probe", (v, ctx.party_id))
        orders.append(tuple(inbox))
    return tuple(orders)


@pytest.mark.parametrize("n,t", PATH_GRID)
@pytest.mark.parametrize("kernels", KERNELS)
def test_inbox_order_is_the_same_with_the_wal_armed(kernels, n, t):
    with use_kernels(kernels):
        inputs = list(range(n))
        bare = run_protocol(_order_probe, inputs, n=n, t=t)
        armed = run_protocol(_order_probe, inputs, n=n, t=t,
                             adversary=Logged())
    # The outputs ARE the observed insertion orders, per party per round.
    assert bare.outputs == armed.outputs
    assert bare.stats == armed.stats


@pytest.mark.parametrize("n,t", PATH_GRID)
@pytest.mark.parametrize("kernels", KERNELS)
def test_full_protocol_is_the_same_with_the_wal_armed(kernels, n, t):
    with use_kernels(kernels):
        inputs = make_inputs(n, 96, seed=3, spread="spread")

        def factory(ctx, v):
            return fixed_length_ca(ctx, v, 96)

        bare = run_protocol(factory, inputs, n=n, t=t, trace=True)
        armed = run_protocol(
            factory, inputs, n=n, t=t, trace=True, adversary=Logged()
        )
    assert bare.outputs == armed.outputs
    assert bare.channel_trace == armed.channel_trace
    assert bare.trace == armed.trace
    assert bare.stats == armed.stats


def _hoarder(ctx, value):
    """Keeps every inbox it is handed and reads them only at the end."""
    kept = []
    for round_index in range(5):
        inbox = yield broadcast_round(ctx, "keep", (value, round_index))
        kept.append(inbox)
    return tuple(tuple(inbox.items()) for inbox in kept)


@pytest.mark.parametrize("n,t", [(1, 0), (4, 1), (7, 2)])
def test_a_kept_inbox_holds_its_own_rounds_payloads(n, t):
    """Observing a run must not change it: plain, traced, monitored and
    WAL-armed runs hand out inboxes nobody overwrites later."""
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
        {"adversary": Logged()},
    ):
        result = run_protocol(_hoarder, inputs, n=n, t=t, **observed)
        assert set(result.outputs.values()) == {expected}, observed


def _keeper(ctx, value):
    """Returns the inbox objects it was handed, one per round."""
    kept = []
    for round_index in range(2):
        kept.append((yield broadcast_round(ctx, "k", round_index)))
    return tuple(kept)


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_a_shared_round_hands_out_one_inbox_object(plane):
    """The planes without an adversary stage hand every party the same
    ``SharedInbox``, a new one each round; an armed adversary stage
    hands out private dicts."""
    result = run_protocol(
        _keeper, list(range(7)), n=7, t=2, **PLANES[plane]()
    )
    readers = [party for party in result.outputs if party != 1]
    for round_index in range(2):
        boxes = [result.outputs[party][round_index] for party in readers]
        distinct = {id(box) for box in boxes}
        if plane in SHARED_PLANES:
            assert type(boxes[0]) is SharedInbox and len(distinct) == 1
        else:
            assert {type(box) for box in boxes} == {dict}
            assert len(distinct) == len(boxes)
    first, second = result.outputs[0]
    assert first is not second


def test_a_shared_inbox_survives_pickle_and_deepcopy():
    """Rebuilt from its items, still read-only, with an empty memo."""
    result = run_protocol(_keeper, list(range(4)), n=4, t=1)
    box = result.outputs[0][0]
    assert type(box) is SharedInbox
    box.memo["parsed"] = 1
    for clone in (pickle.loads(pickle.dumps(box)), copy.deepcopy(box),
                  copy.copy(box)):
        assert type(clone) is SharedInbox and clone is not box
        assert list(clone.items()) == list(box.items())
        assert clone.memo == {}
        with pytest.raises(TypeError):
            clone[0] = "vandal"
    assert box.memo == {"parsed": 1}


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
