"""Shared helpers for the test suite."""

from __future__ import annotations

import random
import sys

import pytest

from repro.ba.domains import canonical_key
from repro.ba.ext_ba_plus import ext_ba_plus
from repro.ba.phase_king import phase_king
from repro.core.bitstrings import BitString, bits_fixed
from repro.core.find_prefix import PrefixResult
from repro.errors import ProtocolViolation
from repro.sim import ACK_BITS, TransportTimeout, run_protocol
from repro.sim.adversary import standard_adversary_suite

# Small (n, t) configurations exercising both t = (n-1)/3 tightness and
# slack; all satisfy t < n/3.
CONFIGS = [(4, 1), (7, 2), (10, 3)]

SMALL_CONFIGS = [(4, 1), (7, 2)]


@pytest.fixture
def plain_unraisablehook(monkeypatch):
    """For tests whose case timeout is shorter than a millisecond.

    The engine's alarm repeats, because one that lands where the
    interpreter discards exceptions (a ``__del__``, hypothesis's gc
    callback) is handed to ``sys.unraisablehook`` and is gone.  pytest
    replaces that hook with python code slow enough for the *next*
    sub-millisecond alarm to land inside it, which it reports as a test
    error ("Failed to process unraisable exception").  The
    interpreter's own hook is C and prints to the captured stderr.
    """
    monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)


def adversary_params():
    """Pytest params covering the standard adversary battery."""
    suite = standard_adversary_suite(seed=11)
    return [pytest.param(adv, id=adv.describe()) for adv in suite]


def honest_values(inputs, result):
    """The inputs of the parties that stayed honest."""
    if isinstance(inputs, dict):
        items = inputs.items()
    else:
        items = enumerate(inputs)
    return [v for party, v in items if party not in result.corrupted]


def assert_convex(inputs, result, output=None):
    """Assert Agreement + Convex Validity for an execution result.

    Thin wrapper over :meth:`ExecutionResult.assert_convex_valid` so a
    violation raises the same tagged :class:`ProtocolViolation` the
    online monitors produce.
    """
    if output is not None:
        honest = honest_values(inputs, result)
        assert honest, "no honest parties left"
        assert min(honest) <= output <= max(honest), (
            f"output {output} outside honest range "
            f"[{min(honest)}, {max(honest)}]"
        )
        return output
    return result.assert_convex_valid(inputs)


def run(factory, inputs, n, t, **kwargs):
    """Shorthand for run_protocol with sane test defaults."""
    kwargs.setdefault("kappa", 64)
    return run_protocol(factory, inputs, n=n, t=t, **kwargs)


def oracle_tally(domain, ballots):
    """Reference semantics for ``Domain.tally``, written out: validate
    every copy, count by canonical key, keep the first-seen
    representative.  The differential tests compare against this."""
    groups = {}
    for ballot in ballots:
        if domain.validate(ballot):
            entry = groups.setdefault(canonical_key(ballot), [ballot, 0])
            entry[1] += 1
    return [(value, count) for value, count in groups.values()]


# ---------------------------------------------------------------------------
# Reference synchronizer: the slot-scan loop the lossy transport shipped
# with before its due-slot table, kept verbatim as a differential oracle
# (tests/test_lossy.py).  It re-sorts and re-scans every pending flight
# each slot and asks four per-message questions of the transport, here
# answered from the transport's public configuration (its rates and the
# windows of its ``schedule``).
# ---------------------------------------------------------------------------


class _Flight:
    """One in-flight payload on one link, until acknowledged."""

    __slots__ = ("bits", "attempts", "due")

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.attempts = 0
        self.due = 0


def _oracle_lossy(transport, link):
    return transport.links is None or link in transport.links


def _oracle_cut(transport, link, at):
    """Is ``link`` deterministically severed at global slot ``at``?"""
    src, dst = link
    schedule = transport.schedule
    if schedule is None:
        return False
    for start, heal, members in schedule.partitions:
        if at < start or (heal != -1 and at >= heal):
            continue
        if (src in members) != (dst in members):
            return True
    return False


def _oracle_drop_rate(transport, link, at):
    """Per-copy loss probability of ``link`` at global slot ``at``."""
    rate = transport.drop
    schedule = transport.schedule
    if schedule is None:
        return rate
    if schedule.gst is not None and at < schedule.gst:
        rate = max(rate, schedule.pre_gst_drop)
    for start, end, extra in schedule.churn:
        if start <= at < end:
            rate = max(rate, extra)
    return rate


def oracle_attempt_round(transport, round_index, attempt, pending, stats, budget):
    """One bounded synchronization attempt over ``link -> _Flight``."""
    rng = random.Random(transport._attempt_seed(round_index, attempt))
    base_time = transport._clock
    for flight in pending.values():
        flight.due = 0
    #: slot -> links whose payload copy arrives then (ack pending).
    arrivals = {}
    slots_used = 0
    for slot in range(budget):
        if not pending:
            break
        slots_used = slot + 1
        at = base_time + slot

        # 1. transmissions due this slot (first copies and backoffs).
        for link in sorted(pending):
            flight = pending[link]
            if flight.due != slot:
                continue
            flight.attempts += 1
            if flight.attempts > 1:
                stats.retrans_bits += flight.bits
                stats.retrans_messages += 1
            if _oracle_cut(transport, link, at):
                # severed by a partition: no coin consumed, the
                # copy is deterministically lost.
                flight.due = slot + transport._backoff(flight.attempts)
                continue
            if _oracle_lossy(transport, link) and rng.random() < (
                _oracle_drop_rate(transport, link, at)
            ):
                flight.due = slot + transport._backoff(flight.attempts)
                continue
            arrival = slot
            if (
                _oracle_lossy(transport, link)
                and transport.delay
                and rng.random() < transport.delay
            ):
                arrival += 1
                if transport.reorder and rng.random() < transport.reorder:
                    arrival += rng.randrange(1, 4)
            arrivals.setdefault(arrival, []).append(link)

        # 2. arrivals: receiver acks; a lost ack keeps the flight
        # pending, so the sender backs off and retransmits.
        for link in sorted(arrivals.pop(slot, ())):
            flight = pending.get(link)
            if flight is None:
                continue  # duplicate copy of an already-acked payload
            stats.record_ack(ACK_BITS)
            if _oracle_cut(transport, link, at):
                flight.due = slot + transport._backoff(flight.attempts)
                continue
            if _oracle_lossy(transport, link) and rng.random() < (
                _oracle_drop_rate(transport, link, at)
            ):
                flight.due = slot + transport._backoff(flight.attempts)
                continue
            del pending[link]
    return slots_used


def oracle_synchronize(transport, round_index, link_bits, stats):
    """The pre-due-table ``LossyTransport.synchronize`` over the oracle
    attempt loop; returns ``(slots, pending)`` or raises with ``pending``
    attached to the :class:`TransportTimeout`."""
    pending = {}
    parties = set()
    for link in sorted(link_bits):
        src, dst = link
        parties.add(src)
        parties.add(dst)
        if src == dst:
            continue
        pending[link] = _Flight(link_bits[link])
    if not pending:
        return 0, pending

    escalation = transport.escalation
    attempts = 1 if escalation is None else escalation.max_attempts
    budget = transport.slot_budget
    total_slots = 0
    for attempt in range(attempts):
        slots = oracle_attempt_round(
            transport, round_index, attempt, pending, stats, budget
        )
        total_slots += slots
        stats.record_slots(slots)
        transport._clock += slots
        if not pending:
            return total_slots, pending
        if attempt + 1 >= attempts:
            break
        transport._resync(round_index, attempt, parties, stats)
        total_slots += escalation.beacon_slots
        budget = escalation.next_budget(budget)

    timeout = TransportTimeout(
        f"round {round_index}: {len(pending)} payload(s) still "
        f"unacknowledged after {total_slots} slots across "
        f"{attempts} attempt(s) "
        f"(drop={transport.drop}, delay={transport.delay}, "
        f"transport={transport.describe()})"
    )
    timeout.pending = pending
    raise timeout


# ---------------------------------------------------------------------------
# Reference FindPrefix: the loop as it shipped before it carried PREFIX*
# as a length -- the prefix rebuilt with ``concat`` every iteration, heads
# compared instead of segments, every reply parsed -- kept verbatim as a
# differential oracle (tests/test_find_prefix.py::TestMatchesOracle).
# Retires with the three oracles above (ROADMAP item 3).
# ---------------------------------------------------------------------------


def oracle_find_prefix(ctx, v_in, ell, unit_bits=1, channel="fp", ba=phase_king):
    ctx.require_resilience(3)
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell}")
    if ell % unit_bits:
        raise ValueError(
            f"unit_bits={unit_bits} must divide ell={ell}"
        )
    if not 0 <= v_in < (1 << ell):
        raise ValueError(f"input {v_in} is not a valid {ell}-bit value")

    num_units = ell // unit_bits
    left, right = 1, num_units + 1
    v = v_in
    v_bot = v_in
    prefix = BitString.empty()
    iteration = 0

    while left != right:
        mid = (left + right) // 2
        bits = bits_fixed(v, ell)
        segment = bits[(left - 1) * unit_bits: mid * unit_bits]

        agreed_bytes = yield from ext_ba_plus(
            ctx,
            segment.to_wire_bytes(),
            channel=f"{channel}/i{iteration}",
            ba=ba,
        )

        if agreed_bytes is None:
            # Bottom: fewer than n - 2t honest parties share this
            # segment; v becomes the avoidance witness v_bot.
            v_bot = v
            right = mid
        else:
            # Intrusion Tolerance: the agreed segment is an honest
            # party's segment, hence well-formed and of the right size.
            try:
                agreed = BitString.from_wire_bytes(agreed_bytes)
            except ValueError as exc:
                raise ProtocolViolation(
                    "PI_lBA+ returned an unparsable segment despite "
                    "Intrusion Tolerance"
                ) from exc
            if agreed.length != segment.length:
                raise ProtocolViolation(
                    f"PI_lBA+ returned {agreed.length} bits, expected "
                    f"{segment.length}"
                )
            new_prefix = prefix.concat(agreed)
            head = bits.prefix(mid * unit_bits)
            # Remark 2: parties on the wrong side of PREFIX* snap to the
            # nearest value with the agreed prefix, staying in the hull.
            if head.value < new_prefix.value:
                v = new_prefix.min_fill(ell)
            elif head.value > new_prefix.value:
                v = new_prefix.max_fill(ell)
            prefix = new_prefix
            left = mid + 1
        iteration += 1

    return PrefixResult(prefix=prefix, v=v, v_bot=v_bot)
