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
from typing import Any

from ..sim.adversary import Adversary
from ..sim.network import run_protocol

__all__ = [
    "Measurement",
    "output_text",
    "output_digest",
    "make_inputs",
    "measure",
    "measure_case",
    "sweep_ell",
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
    """Run one execution of a :func:`~repro.sim.registry.standard_registry`
    protocol and collect its communication metrics."""
    from ..sim.registry import standard_registry

    if t is None:
        t = (n - 1) // 3
    if inputs is None:
        inputs = make_inputs(n, ell, seed=seed, spread=spread)
    result = run_protocol(
        standard_registry()[protocol].build(ell),
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
