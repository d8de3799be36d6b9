"""Online invariant monitors for simulated protocol executions.

The paper's guarantees -- Agreement, Convex Validity, the
``O(l n + kappa n^2 log^2 n)`` bit budget and the ``O(n log n)`` round
budget -- are the contract any CA implementation must hold under
*arbitrary* deviation.  This module turns each of them into a pluggable
:class:`InvariantMonitor` that a :class:`~repro.sim.network.
SynchronousNetwork` evaluates online (per round and at termination)
instead of post-hoc in scattered test assertions.  The budgets a
campaign gives the two budget monitors come from :mod:`repro.costs`.

Each guarantee has one check, which monitors, result helpers and the
degradation supervisor all run: ``ExecutionResult.common_output`` and
:func:`~repro.sim.network.check_hull`.  Lockstep is the network's own
verdict on every run, tagged ``LockstepMonitor``, monitors or not.

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

from typing import TYPE_CHECKING, Iterable, NoReturn

from .network import check_hull, monitor_violation
from .trace import RoundRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import ExecutionResult, SynchronousNetwork

__all__ = [
    "InvariantMonitor",
    "AgreementMonitor",
    "ConvexValidityMonitor",
    "CrashBudgetMonitor",
    "BitBudgetMonitor",
    "RoundBudgetMonitor",
    "default_monitors",
]


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
        raise monitor_violation(self.describe(), message, record=record)


class AgreementMonitor(InvariantMonitor):
    """At termination, all honest outputs must be identical."""

    def on_finish(self, result, network) -> None:
        result.common_output()


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
        if honest_inputs:  # else no hull to check (non-integer protocol)
            check_hull(result, honest_inputs)


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
        AgreementMonitor(),
        ConvexValidityMonitor(),
        CrashBudgetMonitor(),
    ]
    if bit_budget is not None or per_channel:
        monitors.append(BitBudgetMonitor(bit_budget, per_channel))
    if round_budget is not None:
        monitors.append(RoundBudgetMonitor(round_budget))
    return monitors
