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
(:mod:`repro.sim.supervisor`): the self-contained ``HighCostCA`` over
the same transport, then -- when the caller accepts an epsilon --
asynchronous Approximate Agreement.  On top of the chaos plane
sits the adversary-search engine (:mod:`repro.sim.search`): a
coverage-guided bandit optimizer over the composed fault space, with
crash-safe resumable campaign manifests (:mod:`repro.sim.manifest`).
Hostile-payload hardening rounds the plane out: typed wire limits with
deterministic quarantine of ill-formed byzantine traffic
(:mod:`repro.sim.wire`) and a payload-bomb adversary family that
attacks them (:mod:`repro.sim.bombs`).
"""

from .adversary import (
    DROP,
    AdaptiveCorruptionAdversary,
    Adversary,
    CrashAdversary,
    EquivocatingAdversary,
    KingTargetingAdversary,
    OutlierAdversary,
    PassiveAdversary,
    PrefixPoisonAdversary,
    RandomGarbageAdversary,
    RoundView,
    ScriptedAdversary,
    SplitVoteAdversary,
    WitnessSuppressionAdversary,
    standard_adversary_suite,
)
from .bombs import (
    BOMB_CATALOG,
    DeepNestAdversary,
    NearValidMutantAdversary,
    OversizeBlobAdversary,
    TypeConfusionAdversary,
    deep_nest,
)
from .faults import (
    ComposedAdversary,
    FaultInjector,
    FaultSpec,
    RecordingAdversary,
    ReplayAdversary,
)
from .invariants import (
    AgreementMonitor,
    BitBudgetMonitor,
    ConvexValidityMonitor,
    CrashBudgetMonitor,
    InvariantMonitor,
    LivenessMonitor,
    LockstepMonitor,
    RoundBudgetMonitor,
    default_monitors,
    paper_bit_budget,
    paper_round_budget,
)
from .lossy import (
    ACK_BITS,
    BEACON_BITS,
    LossyTransport,
    TimeoutEscalation,
    TransportTimeout,
)
from .manifest import CampaignJournal, JournalCorrupt
from .metrics import CommunicationStats
from .search import (
    SearchCell,
    SearchConfig,
    SearchEngine,
    SearchReport,
    run_search,
)
from .network import ExecutionResult, SynchronousNetwork, default_round_budget
from .parallel import CaseOutcome, derive_seed, resolve_workers, run_many
from .partial_sync import LinkSchedule
from .recovery import (
    CrashEvent,
    CrashRestartAdversary,
    RecoveryConfig,
    RecoveryError,
    RecoveryManager,
    WriteAheadLog,
)
from .supervisor import FallbackRecord, run_with_escalation
from .combinators import run_parallel
from .party import Context, Outgoing, Proto, broadcast_round, exchange
from .runner import run_protocol
from .trace import RoundRecord, summarize_trace
from .sizing import bit_size
from .wire import WireGuard, WireLimits, inbox_digest, measure_payload

__all__ = [
    "ACK_BITS",
    "BEACON_BITS",
    "DROP",
    "AdaptiveCorruptionAdversary",
    "Adversary",
    "AgreementMonitor",
    "BOMB_CATALOG",
    "BitBudgetMonitor",
    "CampaignJournal",
    "CommunicationStats",
    "ComposedAdversary",
    "Context",
    "ConvexValidityMonitor",
    "CrashAdversary",
    "CrashBudgetMonitor",
    "CrashEvent",
    "CrashRestartAdversary",
    "DeepNestAdversary",
    "FallbackRecord",
    "LinkSchedule",
    "LivenessMonitor",
    "LossyTransport",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryManager",
    "TransportTimeout",
    "WriteAheadLog",
    "EquivocatingAdversary",
    "ExecutionResult",
    "FaultInjector",
    "FaultSpec",
    "InvariantMonitor",
    "JournalCorrupt",
    "KingTargetingAdversary",
    "LockstepMonitor",
    "NearValidMutantAdversary",
    "Outgoing",
    "OutlierAdversary",
    "OversizeBlobAdversary",
    "PassiveAdversary",
    "PrefixPoisonAdversary",
    "Proto",
    "RandomGarbageAdversary",
    "RecordingAdversary",
    "ReplayAdversary",
    "RoundBudgetMonitor",
    "RoundView",
    "ScriptedAdversary",
    "SplitVoteAdversary",
    "SearchCell",
    "SearchConfig",
    "SearchEngine",
    "SearchReport",
    "RoundRecord",
    "SynchronousNetwork",
    "TimeoutEscalation",
    "TypeConfusionAdversary",
    "WireGuard",
    "WireLimits",
    "WitnessSuppressionAdversary",
    "CaseOutcome",
    "bit_size",
    "broadcast_round",
    "deep_nest",
    "default_monitors",
    "default_round_budget",
    "derive_seed",
    "exchange",
    "inbox_digest",
    "measure_payload",
    "resolve_workers",
    "run_many",
    "paper_bit_budget",
    "paper_round_budget",
    "run_parallel",
    "run_protocol",
    "run_search",
    "run_with_escalation",
    "summarize_trace",
    "standard_adversary_suite",
]
