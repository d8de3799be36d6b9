"""Execution tracing: per-round records for debugging and analysis.

Enable with ``SynchronousNetwork(..., trace=True)`` (or
``run_protocol(..., trace=True)``); the resulting
``ExecutionResult.trace`` is a list of :class:`RoundRecord`, one per
simulated round.  Traces power

* debugging (which subprotocol was active when behaviour diverged),
* per-channel communication profiles (:func:`summarize_trace`),
* tests asserting *when* things happen (e.g. that the distributing step
  only fires after a non-bottom root agreement),
* the online invariant monitors of :mod:`repro.sim.invariants`, which
  attach the offending record to every ``ProtocolViolation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

__all__ = ["Event", "RoundRecord", "summarize_trace"]


class Event(NamedTuple):
    """One entry of ``ExecutionResult.events``, traced or not: a change
    to the shared ``t`` budget or a quarantined message (the kinds, and
    what ``round``, ``party`` and ``detail`` mean for each, are tabled
    in ``docs/fault-model.md``)."""

    kind: str
    round: int
    party: int
    detail: Any = None


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """What happened in one synchronous round (budget changes at its
    boundary are in ``ExecutionResult.events``, not here)."""

    round_index: int
    channel: str
    honest_messages: int
    honest_bits: int
    byzantine_messages: int
    corrupted: frozenset[int]
    #: distinct channel labels the running honest parties yielded this
    #: round; more than one entry means the lockstep discipline broke.
    honest_channels: tuple[str, ...]
    #: honest parties powered off (crash plane) during this round; the
    #: crashes granted at its end are down from the next.
    down_parties: frozenset[int]

    def to_dict(self) -> dict:
        """JSON-friendly representation: the fields, sets as sorted
        lists.  No artifact stores one; tests compare records with it."""
        return {
            "round_index": self.round_index,
            "channel": self.channel,
            "honest_messages": self.honest_messages,
            "honest_bits": self.honest_bits,
            "byzantine_messages": self.byzantine_messages,
            "corrupted": sorted(self.corrupted),
            "honest_channels": list(self.honest_channels),
            "down_parties": sorted(self.down_parties),
        }


def summarize_trace(trace: list[RoundRecord]) -> dict[str, dict[str, int]]:
    """Aggregate a trace by channel: rounds, messages, bits.

    Returns ``{channel: {"rounds": r, "messages": m, "bits": b}}``.
    """
    summary: dict[str, dict[str, int]] = {}
    for record in trace:
        entry = summary.setdefault(
            record.channel, {"rounds": 0, "messages": 0, "bits": 0}
        )
        entry["rounds"] += 1
        entry["messages"] += record.honest_messages
        entry["bits"] += record.honest_bits
    return summary
