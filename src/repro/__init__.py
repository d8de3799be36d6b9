"""repro: Communication-Optimal Convex Agreement (PODC 2024).

A full reproduction of "Communication-Optimal Convex Agreement" by
Ghinea, Liu-Zhang and Wattenhofer: the ``PI_Z`` / ``PI_N`` convex
agreement protocols, every substrate they rely on (synchronous-network
simulation, byzantine adversaries, Phase-King BA, ``PI_BA+`` and
``PI_lBA+``, Reed-Solomon coding, Merkle accumulation, ``HighCostCA``),
and the baselines the paper compares against.

Quick start::

    from repro import convex_agreement, OutlierAdversary

    outcome = convex_agreement(
        [-1005, -1004, -1003, -1003, -1005, 0, 0],
        adversary=OutlierAdversary(high=10**6),
    )
    print(outcome.value)             # within [-1005, -1003]
    print(outcome.stats.honest_bits) # the paper's BITS_l metric
"""

from ._lazy import lazy_exports

# Eager on purpose: ``repro.core`` loads ``repro.ba`` in the one order
# that resolves the ``ba.domains -> core.bitstrings`` /
# ``core.add_last -> ba.domains`` cycle, and it registers the
# ``BitString`` / ``MerkleWitness`` wire rows.  Everything else loads on
# first use (PEP 562), so one ``convex_agreement`` call never imports
# the chaos harness, the baselines or the other settings.
from . import core, errors  # noqa: F401

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "BitString", "ConvexAgreementOutcome", "convex_agreement",
        "default_threshold", "fixed_length_ca", "fixed_length_ca_blocks",
        "high_cost_ca", "protocol_n", "protocol_z",
    ),
    ".core.vector": ("vector_convex_agreement",),
    ".errors": (
        "CodingError", "ConfigurationError", "ProtocolViolation",
        "ReproError", "SimulationError",
    ),
    ".aa": ("approximate_agreement",),
    ".authenticated": ("authenticated_ca", "dolev_strong_broadcast"),
    ".sim": (
        "AdaptiveCorruptionAdversary", "Adversary", "Context",
        "CrashAdversary", "EquivocatingAdversary", "ExecutionResult",
        "OutlierAdversary", "PassiveAdversary", "RandomGarbageAdversary",
        "ScriptedAdversary", "SplitVoteAdversary", "run_protocol",
        "standard_adversary_suite",
    ),
})
