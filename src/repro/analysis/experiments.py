"""Parameter-sweep harness behind the benchmarks and EXPERIMENTS.md.

Each experiment in DESIGN.md's per-experiment index maps to one of the
sweep functions here; the modules under ``benchmarks/`` call them, assert
the paper's claims on the measurements and record every row in
``benchmarks/BENCH_experiments.json``.

Workload generation: honest inputs are drawn as ``ell``-bit values with
a configurable *spread* --

* ``"spread"``  -- values scattered over the whole range, so the honest
  longest common prefix is empty (the adversarially hard case for
  ``FindPrefix``: early iterations return bottom);
* ``"clustered"`` -- values share a long common prefix (sensor-style
  inputs; early iterations agree);
* ``"identical"`` -- full pre-agreement (best case).

All generators are deterministic in ``seed``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from ..baselines import broadcast_ca, naive_broadcast_ca
from ..core.fixed_length import fixed_length_ca, fixed_length_ca_blocks
from ..core.high_cost_ca import high_cost_ca
from ..core.protocol_n import protocol_n
from ..core.protocol_z import protocol_z
from ..sim.adversary import Adversary
from ..sim.runner import run_protocol

__all__ = [
    "Measurement",
    "PROTOCOLS",
    "output_text",
    "output_digest",
    "make_inputs",
    "measure",
    "measure_case",
    "sweep_ell",
    "sweep_n",
    "comparison_series",
]


@dataclass
class Measurement:
    """One protocol execution's costs, keyed by sweep parameters."""

    protocol: str
    n: int
    t: int
    ell: int
    kappa: int
    bits: int
    rounds: int
    messages: int
    output: Any
    channel_bits: dict[str, int] = field(default_factory=dict)
    #: wall-clock seconds the simulated execution took.  Excluded from
    #: equality: two runs of the same grid point are *the same
    #: measurement* (that is the determinism contract the parallel
    #: engine is tested against) even though their timings differ.
    wall_s: float = field(default=0.0, compare=False)

    @property
    def bits_per_party(self) -> float:
        """Honest bits divided by the number of honest parties."""
        return self.bits / max(1, self.n - self.t)


#: ints up to this many bits are written in decimal, as every committed
#: document holds them; longer ones in hex.
DECIMAL_BITS = 4096


def output_text(output: Any) -> str:
    """An agreed output as JSON-safe text (``int(text, 0)`` reads an int back).

    CPython refuses decimal conversion of ints past 4300 digits (about
    14,284 bits), and long values are what the paper is about, so no
    unbounded int is ever converted to decimal.
    """
    if type(output) is int and output.bit_length() > DECIMAL_BITS:
        return hex(output)
    return repr(output)


def output_digest(output: Any) -> str:
    """Short digest of an agreed output: ints by their two's-complement
    bytes (decimal-free, see :func:`output_text`), anything else by repr."""
    if isinstance(output, int):
        width = (output.bit_length() + 8) // 8 + 1
        data = b"int:" + output.to_bytes(width, "big", signed=True)
    else:
        data = repr(output).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _pi_z(ctx, v):
    return protocol_z(ctx, v)


def _pi_n(ctx, v):
    return protocol_n(ctx, v)


def _fixed(ell: int) -> Callable:
    def factory(ctx, v):
        return fixed_length_ca(ctx, v, ell)

    return factory


def _fixed_blocks(ell: int) -> Callable:
    def factory(ctx, v):
        return fixed_length_ca_blocks(ctx, v, ell)

    return factory


def _high_cost(ctx, v):
    return high_cost_ca(ctx, v)


def _broadcast(ctx, v):
    return broadcast_ca(ctx, v)


def _naive_broadcast(ctx, v):
    return naive_broadcast_ca(ctx, v)


#: name -> factory-builder(ell) -> protocol factory.  ``ell`` is only
#: needed by the fixed-length protocols; the others ignore it.
PROTOCOLS: dict[str, Callable[[int], Callable]] = {
    "pi_z": lambda ell: _pi_z,
    "pi_n": lambda ell: _pi_n,
    "fixed_length_ca": _fixed,
    "fixed_length_ca_blocks": _fixed_blocks,
    "high_cost_ca": lambda ell: _high_cost,
    "broadcast_ca": lambda ell: _broadcast,
    "naive_broadcast_ca": lambda ell: _naive_broadcast,
}


def make_inputs(
    n: int, ell: int, seed: int = 0, spread: str = "spread"
) -> list[int]:
    """Deterministic ``ell``-bit workloads (see module docstring)."""
    rng = random.Random((seed, n, ell, spread).__repr__())
    top = 1 << ell
    if spread == "identical":
        value = rng.randrange(top)
        return [value] * n
    if spread == "clustered":
        cluster_bits = max(1, min(8, ell - 1))
        base = rng.randrange(top >> cluster_bits) << cluster_bits
        return [base + rng.randrange(1 << cluster_bits) for _ in range(n)]
    if spread == "spread":
        # Pin the extremes so the honest range always spans the space.
        values = [rng.randrange(top) for _ in range(n)]
        values[0] = rng.randrange(top >> 1)
        values[-1] = (top >> 1) + rng.randrange(top >> 1)
        return values
    raise ValueError(f"unknown spread {spread!r}")


def measure(
    protocol: str,
    n: int,
    t: int | None,
    ell: int,
    kappa: int = 128,
    seed: int = 0,
    spread: str = "spread",
    adversary: Adversary | None = None,
    inputs: list[int] | None = None,
) -> Measurement:
    """Run one execution and collect its communication metrics."""
    if t is None:
        t = (n - 1) // 3
    if inputs is None:
        inputs = make_inputs(n, ell, seed=seed, spread=spread)
    factory_builder = PROTOCOLS[protocol]
    factory = factory_builder(ell)
    result = run_protocol(
        lambda ctx, v: factory(ctx, v),
        inputs,
        n=n,
        t=t,
        kappa=kappa,
        adversary=adversary,
        max_rounds=500_000,
    )
    return Measurement(
        protocol=protocol,
        n=n,
        t=t,
        ell=ell,
        kappa=kappa,
        bits=result.stats.honest_bits,
        rounds=result.stats.rounds,
        messages=result.stats.honest_messages,
        output=result.common_output(),
        channel_bits=dict(result.stats.bits_by_channel),
        wall_s=result.stats.wall_s,
    )


def measure_case(params: dict) -> Measurement:
    """:func:`measure` with keyword arguments packed in one dict.

    The payload shape :func:`repro.sim.parallel.run_many` needs: a
    module-level callable of one picklable argument, so benchmark grids
    and CLI sweeps can fan grid points out over worker processes.
    """
    return measure(**params)


def sweep_ell(
    protocol: str,
    n: int,
    ells: list[int],
    t: int | None = None,
    kappa: int = 128,
    seed: int = 0,
    spread: str = "spread",
    adversary: Adversary | None = None,
) -> list[Measurement]:
    """Fix ``n``, sweep the input length ``ell``."""
    return [
        measure(
            protocol,
            n,
            t,
            ell,
            kappa=kappa,
            seed=seed,
            spread=spread,
            adversary=adversary,
        )
        for ell in ells
    ]


def sweep_n(
    protocol: str,
    ns: list[int],
    ell: int,
    kappa: int = 128,
    seed: int = 0,
    spread: str = "spread",
    adversary: Adversary | None = None,
) -> list[Measurement]:
    """Fix ``ell``, sweep the number of parties ``n``."""
    return [
        measure(
            protocol,
            n,
            None,
            ell,
            kappa=kappa,
            seed=seed,
            spread=spread,
            adversary=adversary,
        )
        for n in ns
    ]


def comparison_series(
    protocols: list[str],
    n: int,
    ells: list[int],
    kappa: int = 128,
    seed: int = 0,
    spread: str = "spread",
) -> dict[str, list[Measurement]]:
    """The F1 figure: several protocols over the same ``ell`` sweep."""
    return {
        protocol: sweep_ell(
            protocol, n, ells, kappa=kappa, seed=seed, spread=spread
        )
        for protocol in protocols
    }
