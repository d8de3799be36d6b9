"""Synchronous-network simulation substrate.

This subpackage implements the execution model the paper assumes
(Section 2): lockstep rounds over authenticated channels, a rushing
adaptive byzantine adversary, and bit-exact communication accounting --
plus the robustness layer on top of it: online invariant monitors
(:mod:`repro.sim.invariants`), a composable fault-injection plane
(:mod:`repro.sim.faults`), a chaos driver with shrinking repro
artifacts (:mod:`repro.sim.fuzz`), a deterministic process-pool
execution engine that fans independent cases out over workers
(:mod:`repro.sim.parallel`), and a resilience layer beneath the round
abstraction: lossy links with an ack/retransmit round synchronizer
(:mod:`repro.sim.lossy`), crash-recovery via per-party write-ahead logs
(:mod:`repro.sim.recovery`), and a partial-synchrony plane -- GST,
healing partitions and link churn as a schedule the lossy transport is
given (:mod:`repro.sim.partial_sync`), PBFT-style timeout escalation in
the round synchronizer, and one supervised escalation ladder
(:mod:`repro.sim.supervisor`): the primary, then the self-contained
``HighCostCA`` over the same transport.  Hostile-payload hardening rounds the plane out: typed wire limits with
deterministic quarantine of ill-formed byzantine traffic
(:mod:`repro.sim.wire`) and a payload-bomb adversary family that
attacks them (:mod:`repro.sim.bombs`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".adversary": (
        "DROP", "AdaptiveCorruptionAdversary", "Adversary", "CrashAdversary",
        "EquivocatingAdversary", "KingTargetingAdversary", "OutlierAdversary",
        "PassiveAdversary", "PrefixPoisonAdversary", "RandomGarbageAdversary",
        "RoundView", "ScriptedAdversary", "SplitVoteAdversary",
        "WitnessSuppressionAdversary", "standard_adversary_suite",
    ),
    ".bombs": (
        "BOMB_CATALOG", "DeepNestAdversary", "NearValidMutantAdversary",
        "OversizeBlobAdversary", "TypeConfusionAdversary", "deep_nest",
    ),
    ".faults": (
        "ComposedAdversary", "FaultInjector", "FaultSpec",
        "RecordingAdversary", "ReplayAdversary",
    ),
    ".invariants": (
        "AgreementMonitor", "BitBudgetMonitor", "ConvexValidityMonitor",
        "CrashBudgetMonitor", "InvariantMonitor", "LockstepMonitor",
        "RoundBudgetMonitor", "default_monitors",
    ),
    ".lossy": ("ACK_BITS", "BEACON_BITS", "LossyTransport", "TransportTimeout"),
    ".metrics": ("CommunicationStats",),
    ".network": (
        "ExecutionResult", "SynchronousNetwork", "default_round_budget",
        "run_protocol",
    ),
    ".parallel": ("CaseOutcome", "derive_seed", "resolve_workers", "run_many"),
    ".partial_sync": ("LinkSchedule",),
    ".recovery": ("RecoveryError", "RecoveryManager"),
    ".supervisor": ("FallbackRecord", "run_with_escalation"),
    ".party": ("Context", "Outgoing", "Proto", "broadcast_round", "exchange"),
    ".trace": ("Event", "RoundRecord", "summarize_trace"),
    ".sizing": ("bit_size",),
    ".wire": ("WireGuard", "WireLimits", "inbox_digest", "measure_payload"),
})
