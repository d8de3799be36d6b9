"""Convenience entry point for running a protocol to completion."""

from __future__ import annotations

from typing import Any, Sequence

from .adversary import Adversary
from .invariants import InvariantMonitor
from .lossy import LossyTransport
from .network import ExecutionResult, ProtocolFactory, SynchronousNetwork
from .recovery import CrashEvent
from .wire import WireLimits

__all__ = ["run_protocol"]


def run_protocol(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    n: int,
    t: int,
    kappa: int = 128,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
    trace: bool = False,
    monitors: Sequence[InvariantMonitor] = (),
    transport: LossyTransport | None = None,
    crashes: Sequence[CrashEvent | tuple[int, int, int]] | None = None,
    recovery: bool = False,
    guards: WireLimits | None = None,
) -> ExecutionResult:
    """Simulate one execution of ``protocol_factory`` and return the result.

    Args:
        protocol_factory: ``(ctx, input) -> generator`` building each
            party's protocol instance.
        inputs: per-party protocol inputs (list indexed by party id, or a
            dict covering every party; corrupted parties' inputs are handed
            to the adversary as its "spec" inputs).
        n: number of parties.
        t: corruption bound, ``t < n/3``.
        kappa: security parameter in bits.
        adversary: byzantine strategy; defaults to spec-following corrupted
            parties.
        max_rounds: safety cap on the number of simulated rounds; defaults
            to a budget derived from the theoretical round complexity
            (:func:`~repro.sim.network.default_round_budget`).
        trace: collect a per-round :class:`~repro.sim.trace.RoundRecord`
            trace on the result.
        monitors: online invariant monitors
            (:mod:`repro.sim.invariants`) evaluated during the run.
        transport: optional lossy transport; protocols run unmodified on
            top of its ack/retransmit round synchronizer.
        crashes: declarative honest crash windows
            (``(party, down_round, up_round)``), replayed via per-party
            write-ahead logs at the restart round.
        recovery: enable the crash-recovery plane even without a
            declarative schedule.
        guards: wire limits for byzantine-origin traffic
            (:class:`~repro.sim.wire.WireLimits`); quarantined payloads are
            accounted on the stats instead of delivered.

    Returns:
        The :class:`~repro.sim.network.ExecutionResult` with per-party
        outputs and communication statistics.
    """
    network = SynchronousNetwork(
        protocol_factory=protocol_factory,
        inputs=inputs,
        n=n,
        t=t,
        kappa=kappa,
        adversary=adversary,
        max_rounds=max_rounds,
        trace=trace,
        monitors=monitors,
        transport=transport,
        crashes=crashes,
        recovery=recovery,
        guards=guards,
    )
    return network.run()
