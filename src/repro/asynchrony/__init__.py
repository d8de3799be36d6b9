"""The asynchronous setting (the paper's Section 8 future-work axis).

Event-driven asynchronous simulation with adversarial scheduling,
Bracha reliable broadcast (t < n/3), and asynchronous Approximate
Agreement (t < n/5) -- the resilience threshold the paper conjectures
for asynchronous extensions of its techniques.  Deterministic
asynchronous exact agreement (hence CA) is FLP-impossible; AA is the
classic circumvention (Section 1.1).
"""

from .aa import AsyncApproximateAgreement
from .network import (
    AsyncAdversary,
    AsyncNetwork,
    AsyncParty,
    FifoScheduler,
    RandomScheduler,
    Scheduler,
    TargetedDelayScheduler,
    default_delivery_budget,
)
from .rbc import BrachaRBC, parse_rbc, rbc_message

__all__ = [
    "AsyncAdversary",
    "AsyncApproximateAgreement",
    "AsyncNetwork",
    "AsyncParty",
    "BrachaRBC",
    "FifoScheduler",
    "RandomScheduler",
    "Scheduler",
    "TargetedDelayScheduler",
    "default_delivery_budget",
    "parse_rbc",
    "rbc_message",
]
