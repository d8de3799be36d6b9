"""Online invariant monitors for simulated protocol executions.

The paper's guarantees -- Agreement, Convex Validity, the
``O(l n + kappa n^2 log^2 n)`` bit budget, the ``O(n log n)`` round
budget, and the simulator's own lockstep-channel discipline -- are the
contract any CA implementation must hold under *arbitrary* deviation.
This module turns each of them into a pluggable
:class:`InvariantMonitor` that a :class:`~repro.sim.network.
SynchronousNetwork` evaluates online (per round and at termination)
instead of post-hoc in scattered test assertions.

A monitor that detects a violation raises
:class:`~repro.errors.ProtocolViolation` carrying its own name, the
offending :class:`~repro.sim.trace.RoundRecord`, and the partial trace,
so the chaos driver (:mod:`repro.sim.fuzz`) can shrink and archive the
failing execution.

Usage::

    from repro.sim import SynchronousNetwork
    from repro.sim.invariants import default_monitors

    net = SynchronousNetwork(factory, inputs, n, t,
                             monitors=default_monitors())
    net.run()   # raises ProtocolViolation on any broken invariant

Monitors must never fire under the model's assumptions (``t < n/3``,
adversary within budget); a firing monitor means a protocol bug or an
over-powered configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NoReturn

from ..errors import ProtocolViolation
from .sizing import brief_text
from .trace import RoundRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import CommunicationStats
    from .network import ExecutionResult, SynchronousNetwork

__all__ = [
    "InvariantMonitor",
    "AgreementMonitor",
    "ConvexValidityMonitor",
    "CrashBudgetMonitor",
    "EnvelopeMargins",
    "LivenessMonitor",
    "LockstepMonitor",
    "BitBudgetMonitor",
    "RoundBudgetMonitor",
    "default_monitors",
    "paper_bit_budget",
    "paper_round_budget",
]


def paper_bit_budget(
    n: int, t: int, ell: int, kappa: int, constant: int = 96
) -> int:
    """A generous envelope of the paper's ``O(ln + kappa n^2 log^2 n)``.

    ``constant`` absorbs the constants hidden by the O-notation plus the
    instantiated Phase-King ``PI_BA`` term (``O(kappa n^2 t)`` per
    invocation, ``O(log l)`` invocations); it is deliberately loose --
    the monitor exists to catch *asymptotic* blow-ups (forwarded
    byzantine blobs, accidental O(n) extra factors), not to re-measure
    the constants the benchmarks track.
    """
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    log_ell = max(1, math.ceil(math.log2(max(2, ell))))
    core = ell * n + kappa * n * n * log_n * log_n
    ba_term = kappa * n * n * (t + 1) * (log_ell + log_n)
    return constant * (core + ba_term) + (1 << 16)


def paper_round_budget(n: int, t: int, ell: int, constant: int = 24) -> int:
    """A generous envelope of ``O(n) + O(log l) * ROUNDS(PI_BA)``.

    With Phase-King, ``ROUNDS(PI_BA) = 3(t + 1)``; ``FixedLengthCA``
    makes ``O(log l)`` BA-heavy iterations and ``PI_N`` adds ``O(log n)``
    length-estimation BAs, so the true count is
    ``Theta((log l + log n) * t)`` -- ``constant`` gives slack on top.
    """
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    log_ell = max(1, math.ceil(math.log2(max(2, ell))))
    return constant * (3 * (t + 1)) * (log_ell + log_n + 4) + 8 * n + 64


@dataclass(frozen=True)
class EnvelopeMargins:
    """How far one execution stayed inside its theory-derived envelopes.

    The *margin* of an invariant is the distance between what the
    execution actually spent and what the paper's bound allows:
    ``bit_margin = bit_budget - bits_used`` and ``round_margin =
    round_budget - rounds_used``.  A clean execution under the model's
    assumptions always has non-negative margins (the budget monitors
    fire otherwise), and the slack grows with ``ell`` because the
    envelopes grow faster than the protocols' true cost.

    Margins are the fitness signal of the adversary-search engine
    (:mod:`repro.sim.search`): an adversary that *shrinks* a margin is
    pressing the stack toward the paper's envelope, and an adversary
    that drives a margin negative has found a budget-envelope outlier.
    """

    bits_used: int
    bit_budget: int
    rounds_used: int
    round_budget: int

    @property
    def bit_margin(self) -> int:
        """Unspent honest bits under the envelope (negative = outlier)."""
        return self.bit_budget - self.bits_used

    @property
    def round_margin(self) -> int:
        """Unspent rounds under the envelope (negative = outlier)."""
        return self.round_budget - self.rounds_used

    @property
    def bit_fraction(self) -> float:
        """Envelope utilisation ``bits_used / bit_budget`` (>1 = outlier)."""
        return self.bits_used / self.bit_budget if self.bit_budget else 0.0

    @property
    def round_fraction(self) -> float:
        """Envelope utilisation ``rounds_used / round_budget``."""
        return (
            self.rounds_used / self.round_budget if self.round_budget else 0.0
        )

    @property
    def nonnegative(self) -> bool:
        """True when the execution stayed inside both envelopes."""
        return self.bit_margin >= 0 and self.round_margin >= 0

    @classmethod
    def from_stats(
        cls,
        stats: "CommunicationStats",
        bit_budget: int,
        round_budget: int,
    ) -> "EnvelopeMargins":
        """Margins of one completed execution's communication stats."""
        return cls(
            bits_used=stats.honest_bits,
            bit_budget=bit_budget,
            rounds_used=stats.rounds,
            round_budget=round_budget,
        )


class InvariantMonitor:
    """Base class: observes an execution and raises on broken invariants.

    Subclasses override any of the three hooks; ``fail`` raises a
    :class:`ProtocolViolation` tagged with the monitor's name (the
    network attaches the partial trace before propagating).
    """

    def describe(self) -> str:
        return type(self).__name__

    # -- hooks -----------------------------------------------------------
    def on_start(self, network: "SynchronousNetwork") -> None:
        """Called once before the first round."""

    def on_round(
        self, record: RoundRecord, network: "SynchronousNetwork"
    ) -> None:
        """Called after every simulated round with its record."""

    def on_finish(
        self, result: "ExecutionResult", network: "SynchronousNetwork"
    ) -> None:
        """Called once after every honest party terminated."""

    # -- reporting -------------------------------------------------------
    def fail(
        self, message: str, record: RoundRecord | None = None
    ) -> NoReturn:
        """Raise a tagged :class:`ProtocolViolation`."""
        raise ProtocolViolation(
            f"[{self.describe()}] {message}",
            monitor=self.describe(),
            record=record,
        )


class AgreementMonitor(InvariantMonitor):
    """At termination, all honest outputs must be identical."""

    def on_finish(self, result, network) -> None:
        honest = {
            party: result.outputs[party] for party in result.honest_parties
        }
        if not honest:
            self.fail("no honest party produced an output")
        values = list(honest.values())
        if any(value != values[0] for value in values[1:]):
            self.fail(f"honest parties disagree: {brief_text(honest)}")


class ConvexValidityMonitor(InvariantMonitor):
    """Honest outputs must lie in the hull of the honest integer inputs.

    The hull is taken over the inputs of the parties that were honest at
    the *start* of the execution: a party corrupted adaptively mid-run
    contributed its input while still honest, so the model only
    guarantees containment in the initially-honest hull (see
    ``tests/test_integration.py::test_late_corruption_of_prior_
    contributor``).  Pass ``honest_inputs`` explicitly to check against
    a tighter (or pre-filtered) set.
    """

    def __init__(self, honest_inputs: Iterable[int] | None = None) -> None:
        self._explicit = (
            None if honest_inputs is None else list(honest_inputs)
        )
        self._captured: list[int] | None = None

    def on_start(self, network) -> None:
        if self._explicit is not None:
            return
        self._captured = [
            value
            for party, value in network.inputs.items()
            if party not in network.corrupted
            and isinstance(value, int)
            and not isinstance(value, bool)
        ]

    def on_finish(self, result, network) -> None:
        honest_inputs = (
            self._explicit if self._explicit is not None else self._captured
        )
        if not honest_inputs:
            return  # nothing to check against (non-integer protocol)
        low, high = min(honest_inputs), max(honest_inputs)
        for party in result.honest_parties:
            value = result.outputs[party]
            if not isinstance(value, int) or isinstance(value, bool):
                self.fail(
                    f"party {party} output non-integer "
                    f"{brief_text(value)} for an integer CA instance"
                )
            if not low <= value <= high:
                self.fail(
                    f"party {party} output {brief_text(value)} outside "
                    f"the honest hull [{brief_text(low)}, {brief_text(high)}]"
                )


class LockstepMonitor(InvariantMonitor):
    """Running honest parties must share one channel label every round."""

    def on_round(self, record, network) -> None:
        if len(record.honest_channels) > 1:
            self.fail(
                f"honest parties out of lockstep in round "
                f"{record.round_index}: {sorted(record.honest_channels)}",
                record=record,
            )


class CrashBudgetMonitor(InvariantMonitor):
    """Corrupted plus crashed-down parties must never exceed ``t``.

    A down honest party is an omission fault, weaker than a byzantine
    one, so the model's guarantees only hold while the *combined* fault
    count stays within the corruption bound.  The network enforces this
    by clipping; the monitor asserts the enforcement held on every
    recorded round (defense in depth for new fault planes).
    """

    def on_round(self, record, network) -> None:
        combined = len(record.corrupted) + len(record.down_parties)
        if combined > network.t:
            self.fail(
                f"round {record.round_index}: {len(record.corrupted)} "
                f"corrupted + {len(record.down_parties)} down parties "
                f"exceed t={network.t}",
                record=record,
            )


class BitBudgetMonitor(InvariantMonitor):
    """Honest communication must stay inside a bit-budget envelope.

    ``total`` bounds ``stats.honest_bits`` across the execution;
    ``per_channel`` maps channel-label *prefixes* to their own budgets
    (e.g. the vote rounds of ``PI_lBA+`` carry only kappa-bit digests,
    so their budget is ``ell``-independent).
    """

    def __init__(
        self,
        total: int | None = None,
        per_channel: dict[str, int] | None = None,
    ) -> None:
        if total is None and not per_channel:
            raise ValueError("BitBudgetMonitor needs a budget")
        self.total = total
        self.per_channel = dict(per_channel or {})

    def describe(self) -> str:
        return f"BitBudgetMonitor(total={self.total})"

    def on_round(self, record, network) -> None:
        stats = network.stats
        if self.total is not None and stats.honest_bits > self.total:
            self.fail(
                f"honest bits {stats.honest_bits:,} exceeded the budget "
                f"{self.total:,} in round {record.round_index}",
                record=record,
            )
        for prefix, budget in self.per_channel.items():
            spent = stats.bits_for_prefix(prefix)
            if spent > budget:
                self.fail(
                    f"channel prefix {prefix!r} spent {spent:,} bits, "
                    f"budget {budget:,} (round {record.round_index})",
                    record=record,
                )


class LivenessMonitor(InvariantMonitor):
    """Decision within the round envelope, counted from stabilization.

    Under partial synchrony the paper's round bound only holds once the
    network stabilizes (GST passed, partitions healed, churn over): the
    monitor discounts every round completed while the transport's
    global clock was still before its ``stabilization_time`` and
    requires the execution to decide within ``round_envelope`` logical
    rounds after that.  On a transport that never stabilizes (a
    never-healing partition) liveness is not guaranteed -- only the
    supervisor's failover ladder is -- so the monitor stays silent.

    Pass ``transport`` explicitly or let the monitor pick it up from
    the network; with no transport at all (perfect network) the
    envelope counts from round 0, degenerating to a
    :class:`RoundBudgetMonitor`.
    """

    def __init__(self, round_envelope: int, transport=None) -> None:
        if round_envelope <= 0:
            raise ValueError("round envelope must be positive")
        self.limit = round_envelope
        self._transport = transport
        self._pre_stable_rounds = 0

    def describe(self) -> str:
        return f"LivenessMonitor(limit={self.limit})"

    def on_round(self, record, network) -> None:
        transport = self._transport
        if transport is None:
            transport = getattr(network, "transport", None)
        horizon = (
            0 if transport is None else transport.stabilization_time
        )
        if horizon is None:
            return  # network never stabilizes: no liveness guarantee
        if transport is not None and transport.clock < horizon:
            self._pre_stable_rounds = record.round_index + 1
            return
        elapsed = record.round_index + 1 - self._pre_stable_rounds
        if elapsed > self.limit:
            self.fail(
                f"no decision within {self.limit} rounds of "
                f"stabilization (round {record.round_index}, "
                f"{self._pre_stable_rounds} pre-stabilization rounds "
                "discounted)",
                record=record,
            )


class RoundBudgetMonitor(InvariantMonitor):
    """The execution must terminate within a theory-derived round count."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError("round budget must be positive")
        self.limit = limit

    def describe(self) -> str:
        return f"RoundBudgetMonitor(limit={self.limit})"

    def on_round(self, record, network) -> None:
        if record.round_index + 1 > self.limit:
            self.fail(
                f"round {record.round_index} exceeded the round budget "
                f"{self.limit}",
                record=record,
            )


def default_monitors(
    *,
    bit_budget: int | None = None,
    round_budget: int | None = None,
    per_channel: dict[str, int] | None = None,
) -> list[InvariantMonitor]:
    """The standard monitor stack for integer CA executions.

    The convex-validity hull is captured from the network at start
    (inputs of the initially-honest parties); budgets are optional.
    """
    monitors: list[InvariantMonitor] = [
        LockstepMonitor(),
        AgreementMonitor(),
        ConvexValidityMonitor(),
        CrashBudgetMonitor(),
    ]
    if bit_budget is not None or per_channel:
        monitors.append(BitBudgetMonitor(bit_budget, per_channel))
    if round_budget is not None:
        monitors.append(RoundBudgetMonitor(round_budget))
    return monitors
