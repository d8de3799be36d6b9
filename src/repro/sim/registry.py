"""The protocol registry: each campaign protocol's factory and envelopes.

One table, read by the chaos campaigns (:mod:`repro.sim.fuzz`), the
experiment harness (:mod:`repro.analysis`) and the CLI's ``--protocol``
choices.  It imports no fault plane, so naming the protocols loads no
campaign machinery; the protocols themselves are imported when the
table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import costs

if TYPE_CHECKING:
    from .network import ProtocolFactory

__all__ = ["ProtocolSpec", "standard_registry"]


@dataclass(frozen=True)
class ProtocolSpec:
    """One fuzzable protocol: how to build it and what it may cost."""

    name: str
    #: ``(ell) -> (ctx, v) -> generator``; ``ell`` is the nominal input
    #: bit-length of the campaign case.
    build: Callable[[int], ProtocolFactory]
    #: honest-bit envelope ``(n, t, ell, kappa) -> bits``: a
    #: :class:`~repro.costs.BitEnvelope` over the protocol's term.
    bit_budget: Callable[[int, int, int, int], int]
    #: round envelope ``(n, t, ell) -> rounds`` from :mod:`repro.costs`.
    round_budget: Callable[[int, int, int], int]
    #: inputs are signed integers (PI_Z) or naturals (everything else).
    signed: bool = False
    #: constraint on ell (e.g. blocks needs a multiple of n^2).
    ell_for: Callable[[int, int], int] = lambda n, ell: ell


def standard_registry() -> dict[str, ProtocolSpec]:
    """The top-level protocol set the chaos campaigns cover."""
    from ..baselines import broadcast_ca, naive_broadcast_ca
    from ..core.fixed_length import fixed_length_ca, fixed_length_ca_blocks
    from ..core.high_cost_ca import high_cost_ca
    from ..core.protocol_n import protocol_n
    from ..core.protocol_z import protocol_z

    def blocks_ell(n: int, ell: int) -> int:
        # FixedLengthCABlocks needs ell to be a positive multiple of n^2.
        n_sq = n * n
        return max(n_sq, (ell // n_sq) * n_sq or n_sq)

    return {
        "pi_z": ProtocolSpec(
            name="pi_z",
            build=lambda ell: (lambda ctx, v: protocol_z(ctx, v)),
            bit_budget=costs.BitEnvelope(costs.pi_z),
            round_budget=costs.round_envelope,
            signed=True,
        ),
        "pi_n": ProtocolSpec(
            name="pi_n",
            build=lambda ell: (lambda ctx, v: protocol_n(ctx, v)),
            bit_budget=costs.BitEnvelope(costs.pi_z),
            round_budget=costs.round_envelope,
        ),
        "fixed_length_ca": ProtocolSpec(
            name="fixed_length_ca",
            build=lambda ell: (
                lambda ctx, v: fixed_length_ca(ctx, v, ell)
            ),
            bit_budget=costs.BitEnvelope(costs.fixed_length_ca),
            round_budget=costs.round_envelope,
        ),
        "fixed_length_ca_blocks": ProtocolSpec(
            name="fixed_length_ca_blocks",
            build=lambda ell: (
                lambda ctx, v: fixed_length_ca_blocks(ctx, v, ell)
            ),
            bit_budget=costs.BitEnvelope(costs.fixed_length_ca_blocks),
            round_budget=costs.round_envelope,
            ell_for=blocks_ell,
        ),
        "high_cost_ca": ProtocolSpec(
            name="high_cost_ca",
            build=lambda ell: (lambda ctx, v: high_cost_ca(ctx, v)),
            bit_budget=costs.BitEnvelope(costs.high_cost_ca),
            round_budget=costs.high_cost_round_envelope,
        ),
        "broadcast_ca": ProtocolSpec(
            name="broadcast_ca",
            build=lambda ell: (lambda ctx, v: broadcast_ca(ctx, v)),
            bit_budget=costs.BitEnvelope(costs.broadcast_ca),
            round_budget=costs.round_envelope,
        ),
        "naive_broadcast_ca": ProtocolSpec(
            name="naive_broadcast_ca",
            build=lambda ell: (lambda ctx, v: naive_broadcast_ca(ctx, v)),
            bit_budget=costs.BitEnvelope(costs.naive_broadcast_ca),
            round_budget=costs.round_envelope,
        ),
    }
