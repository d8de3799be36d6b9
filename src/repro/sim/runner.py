"""Convenience entry point for running a protocol to completion."""

from __future__ import annotations

from typing import Any

from .network import ExecutionResult, ProtocolFactory, SynchronousNetwork

__all__ = ["run_protocol"]


def run_protocol(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    n: int,
    t: int,
    **options: Any,
) -> ExecutionResult:
    """Simulate one execution of ``protocol_factory`` and return the result.

    ``options`` are :class:`~repro.sim.network.SynchronousNetwork`'s
    (``kappa``, ``adversary``, ``max_rounds``, ``trace``, ``monitors``,
    ``transport``, ``guards``), documented there.  Returns the
    :class:`~repro.sim.network.ExecutionResult` with per-party outputs
    and communication statistics.
    """
    return SynchronousNetwork(protocol_factory, inputs, n, t, **options).run()
