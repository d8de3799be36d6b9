"""Chaos driver: randomized fault campaigns with shrinking repro artifacts.

The fuzzer closes the loop the ROADMAP asks for ("handles as many
scenarios as you can imagine"): instead of a fixed battery of ten
adversaries, it samples ``(protocol, n, t, ell, adversary composition,
fault spec, seed)`` configurations, runs each under the online invariant
monitors of :mod:`repro.sim.invariants`, and on failure

1. **shrinks** the failing execution -- delta-debugging the recorded
   byzantine message script and the adaptive-corruption schedule down
   to a minimal set that still triggers the same violation -- and
2. dumps a JSON **repro artifact** that replays byte-identically via
   :class:`~repro.sim.faults.ReplayAdversary`, independent of the
   strategies that originally produced the failure.  Payloads and
   inputs go through the wire schema's codec (:mod:`repro.sim.sizing`),
   so an artifact holds whatever a party can send or an adversary forge.

Surface: ``python -m repro fuzz`` / ``python -m repro replay``, or
programmatically::

    from repro.sim.fuzz import fuzz, replay_artifact

    report = fuzz(runs=50, seed=0)
    assert not report.failures

Every step is deterministic in the top-level seed: the same seed yields
the same campaign, the same failures, and the same shrunk artifacts.
Case ``i`` is seeded with ``H(campaign_seed, i)``
(:func:`repro.sim.parallel.derive_seed`), never with a position in a
shared RNG stream, and :func:`fuzz` samples its cases in the parent and
runs them through one executor, :func:`execute_cases`, which is
:func:`repro.sim.parallel.run_many` at every worker count.  Serial is
that engine with one worker, so reports and repro artifacts are
**byte-identical** across worker counts by construction; a timeout or a
lost worker is an ``ExecutionEngine`` incident, never a verdict.
"""

from __future__ import annotations

import json
import math
import os
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Callable

from ..perf import counters as perf_counters
from ..perf.config import reset_process_caches

from ..errors import HonestPartyError, ProtocolViolation, SimulationError
from .adversary import ADVERSARY_CATALOG, Adversary
from .bombs import BOMB_CATALOG
from .faults import ComposedAdversary, FaultSpec, RecordingAdversary, \
    ReplayAdversary
from .lossy import LossyTransport
from .invariants import InvariantMonitor, default_monitors
from .parallel import derive_seed, resolve_workers, run_many
from .registry import ProtocolSpec, standard_registry
from .sizing import WIRE_SCHEMA, decode_payload, encode_payload
from .supervisor import run_with_escalation
from .wire import WireLimits

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_SCHEMA_VERSION",
    "ProtocolSpec",
    "CaseStats",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "standard_registry",
    "sample_faults",
    "sample_case",
    "sample_case_at",
    "run_case_ex",
    "execute_cases",
    "shrink_failure",
    "failure_to_artifact",
    "save_artifact",
    "load_artifact",
    "validate_artifact",
    "replay_artifact",
    "replay_counters",
    "fuzz",
    "encode_payload",
    "decode_payload",
]

ARTIFACT_FORMAT = "repro-fuzz/1"

#: Version of the artifact *schema* (the set and meaning of the keys).
#: Bumped whenever a ``FaultSpec`` axis or artifact section is added, so
#: corpus files written by an older (or newer) toolchain fail loudly on
#: load instead of replaying with silently-defaulted fault axes.
#: History: 1 = implicit (pre-versioned artifacts, PR 1-7); 2 = adds the
#: ``schema_version`` stamp itself and the optional ``counters`` block;
#: 3 = adds ``FuzzCase.guards`` (the hostile-payload wire-guard plane)
#: and the ``float``/``set`` payload tags the bomb adversaries need;
#: 4 = payloads are encoded from the wire schema (``sizing.WIRE_SCHEMA``):
#: ``witness`` and ``frac`` tags, ints in hex; ``inputs`` in hex.
ARTIFACT_SCHEMA_VERSION = 4

# ---------------------------------------------------------------------------
# Campaign cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzCase:
    """One sampled chaos configuration (fully deterministic in itself)."""

    protocol: str
    n: int
    t: int
    ell: int
    kappa: int
    spread: str
    adversaries: tuple[str, ...]
    faults: FaultSpec
    seed: int
    #: honest parties run the wire guards (quarantining hostile traffic)
    #: -- set on every bomb-plane case, off elsewhere so pre-existing
    #: campaigns replay byte-identically.
    guards: bool = False

    def __post_init__(self) -> None:
        # an artifact's case is outside input: an unknown spread would
        # otherwise replay silently as uniform inputs.
        if self.spread not in _SPREADS:
            raise ValueError(
                f"spread {self.spread!r} is not one of {_SPREADS}"
            )

    def describe(self) -> str:
        adv = "+".join(self.adversaries)
        guard_tag = " [guards]" if self.guards else ""
        return (
            f"{self.protocol}(n={self.n}, t={self.t}, ell={self.ell}, "
            f"{self.spread}) vs {adv} % {self.faults.describe()} "
            f"seed={self.seed}{guard_tag}"
        )

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "ell": self.ell,
            "kappa": self.kappa,
            "spread": self.spread,
            "adversaries": list(self.adversaries),
            "faults": self.faults.to_dict(),
            "seed": self.seed,
            "guards": self.guards,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        """Rebuild a case; :class:`ValueError` names every field
        :meth:`to_dict` writes that ``data`` lacks."""
        missing = [f.name for f in dataclass_fields(cls) if f.name not in data]
        if missing:
            raise ValueError(f"case lacks key(s) {missing}")
        return cls(
            protocol=data["protocol"],
            n=data["n"],
            t=data["t"],
            ell=data["ell"],
            kappa=data["kappa"],
            spread=data["spread"],
            adversaries=tuple(data["adversaries"]),
            faults=FaultSpec.from_dict(data["faults"]),
            seed=data["seed"],
            guards=data["guards"],
        )


_SPREADS = ("spread", "clustered", "identical")
_FAULT_RATES = (0.0, 0.05, 0.2, 0.5)
#: honest-link loss rates stay < 1 (the synchronizer must converge) and
#: modest (every drop costs simulated backoff slots).
_LINK_RATES = (0.0, 0.05, 0.2)
#: pre-GST extra loss rates the partition campaigns sample.
_PRE_GST_RATES = (0.0, 0.3, 0.6)


def sample_faults(
    rng: random.Random,
    n: int,
    t: int,
    crash: bool = False,
    partition: bool = False,
) -> FaultSpec:
    """Draw one :class:`FaultSpec` from the campaign distribution.

    Called by :func:`sample_case`; the draw order is part of the
    campaign determinism contract and must not change.
    """
    drop = rng.choice(_FAULT_RATES)
    duplicate = rng.choice(_FAULT_RATES)
    garble = rng.choice(_FAULT_RATES)
    replay = rng.choice(_FAULT_RATES)
    fault_seed = rng.getrandbits(32)
    link_drop = link_delay = link_reorder = 0.0
    crashes: tuple[tuple[int, int, int], ...] = ()
    if crash:
        link_drop = rng.choice(_LINK_RATES)
        link_delay = rng.choice(_LINK_RATES)
        link_reorder = rng.choice(_FAULT_RATES)
        windows: dict[int, tuple[int, int, int]] = {}
        for _ in range(rng.randint(0, t)):
            party = rng.randrange(n)
            down = rng.randint(1, 10)
            up = down + rng.randint(1, 5)
            windows[party] = (party, down, up)
        crashes = tuple(windows[party] for party in sorted(windows))
    gst: int | None = None
    pre_gst_drop = 0.0
    partitions: tuple[tuple[int, int, tuple[int, ...]], ...] = ()
    link_churn: tuple[tuple[int, int, float], ...] = ()
    if partition:
        if rng.random() < 0.7:
            gst = rng.randrange(0, 400)
            pre_gst_drop = rng.choice(_PRE_GST_RATES)
        part_windows: list[tuple[int, int, tuple[int, ...]]] = []
        for _ in range(rng.randint(0, 2)):
            start = rng.randrange(0, 300)
            # most partitions heal inside the escalated budgets; a
            # never-healing one exercises the failover ladder end to end.
            heal = (
                -1
                if rng.random() < 0.15
                else start + rng.randint(20, 400)
            )
            size = rng.randint(1, n - 1)
            members = tuple(sorted(rng.sample(range(n), size)))
            part_windows.append((start, heal, members))
        partitions = tuple(part_windows)
        churn_windows: list[tuple[int, int, float]] = []
        for _ in range(rng.randint(0, 2)):
            start = rng.randrange(0, 300)
            end = start + rng.randint(10, 200)
            churn_windows.append((start, end, rng.choice((0.3, 0.6))))
        link_churn = tuple(churn_windows)
    return FaultSpec(
        drop=drop,
        duplicate=duplicate,
        garble=garble,
        replay=replay,
        seed=fault_seed,
        link_drop=link_drop,
        link_delay=link_delay,
        link_reorder=link_reorder,
        crashes=crashes,
        gst=gst,
        pre_gst_drop=pre_gst_drop,
        partitions=partitions,
        link_churn=link_churn,
    )


def sample_case(
    rng: random.Random,
    registry: dict[str, ProtocolSpec],
    crash: bool = False,
    partition: bool = False,
    bombs: bool = False,
) -> FuzzCase:
    """Draw one chaos configuration from the campaign distribution.

    Picks ``(protocol, n, t, ell)``, then everything below them.  The
    order of the draws is part of the campaign determinism contract:
    every pinned campaign and artifact is keyed on it.

    ``crash=True`` additionally samples the resilience-plane axes:
    honest-link drop/delay/reorder rates (realised by a
    ``LossyTransport``) and up to ``t`` crash/restart windows for honest
    parties (realised by WAL replay).  ``partition=True`` further
    samples the partial-synchrony axes: a GST with pre-GST extra loss,
    healing (or never-healing) partition windows, and link-churn
    slowdown windows, all keyed in global transport slots.  Every extra
    draw is gated on its flag and appended *after* the existing draws,
    so ``crash=False`` / ``partition=False`` campaigns sample exactly
    the same cases as before each plane existed.

    ``bombs=True`` appends one or two payload-bomb adversaries (drawn
    from the separate :data:`~repro.sim.bombs.BOMB_CATALOG`) to the
    composition and arms the honest wire guards (``guards=True``).  The
    bomb draws come *after* every pre-existing draw -- including the
    case seed -- so ``bombs=False`` campaigns are untouched.
    """
    name = rng.choice(sorted(registry))
    n = rng.choice((4, 5, 6, 7))
    t = rng.randint(1, max(1, (n - 1) // 3))
    ell = registry[name].ell_for(n, rng.choice((8, 16, 32, 64, 128)))
    count = rng.randint(1, 3)
    adversaries = tuple(
        rng.choice(sorted(ADVERSARY_CATALOG)) for _ in range(count)
    )
    faults = sample_faults(rng, n, t, crash=crash, partition=partition)
    spread = rng.choice(_SPREADS)
    case_seed = rng.getrandbits(32)
    if bombs:
        extra = rng.randint(1, 2)
        adversaries = adversaries + tuple(
            rng.choice(sorted(BOMB_CATALOG)) for _ in range(extra)
        )
    return FuzzCase(
        protocol=name,
        n=n,
        t=t,
        ell=ell,
        kappa=64,
        spread=spread,
        adversaries=adversaries,
        faults=faults,
        seed=case_seed,
        guards=bombs,
    )


def sample_case_at(
    campaign_seed: int,
    index: int,
    registry: dict[str, ProtocolSpec],
    crash: bool = False,
    partition: bool = False,
    bombs: bool = False,
) -> FuzzCase:
    """Case ``index`` of the campaign with seed ``campaign_seed``.

    The case is a pure function of ``(campaign_seed, index, registry)``
    -- its RNG is seeded with ``derive_seed(campaign_seed, index)``, not
    drawn from a stream shared across cases -- so any case can be
    recomputed in isolation on any worker, which is what lets parallel
    campaigns replicate serial ones exactly.
    """
    rng = random.Random(derive_seed(campaign_seed, index))
    return sample_case(
        rng, registry, crash=crash, partition=partition, bombs=bombs
    )


def case_inputs(case: FuzzCase) -> list[int]:
    """Deterministic per-party inputs for a case (honest workload)."""
    rng = random.Random(
        repr(("inputs", case.seed, case.n, case.ell, case.spread))
    )
    top = 1 << case.ell
    if case.spread == "identical":
        values = [rng.randrange(top)] * case.n
    elif case.spread == "clustered":
        cluster_bits = max(1, min(8, case.ell - 1))
        base = rng.randrange(max(1, top >> cluster_bits)) << cluster_bits
        values = [
            base + rng.randrange(1 << cluster_bits) for _ in range(case.n)
        ]
    else:
        values = [rng.randrange(top) for _ in range(case.n)]
    return values


def _build_inputs(
    case: FuzzCase, spec: ProtocolSpec
) -> list[int]:
    values = case_inputs(case)
    if spec.signed:
        rng = random.Random(repr(("signs", case.seed)))
        if case.spread == "spread":
            # a sign per party: honest inputs on both sides of zero are
            # what makes PI_Z's line 2 (reset to 0) fire.
            values = [(-1 if rng.random() < 0.5 else 1) * v for v in values]
        else:
            # one common sign keeps the clustered/identical regimes intact.
            sign = -1 if rng.random() < 0.5 else 1
            values = [sign * v for v in values]
    return values


def case_monitors(case: FuzzCase, spec: ProtocolSpec) -> list[InvariantMonitor]:
    """The standard monitor stack for one case, with per-protocol
    envelopes."""
    return default_monitors(
        bit_budget=spec.bit_budget(case.n, case.t, case.ell, case.kappa),
        round_budget=spec.round_budget(case.n, case.t, case.ell),
    )


def _max_concurrent_crashes(
    crashes: tuple[tuple[int, int, int], ...]
) -> int:
    """Peak number of simultaneously-down parties a schedule requests."""
    events: list[tuple[int, int]] = []
    for _, down, up in crashes:
        events.append((down, 1))
        events.append((up, -1))
    events.sort()
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def _build_adversary(case: FuzzCase) -> RecordingAdversary:
    # bomb names resolve against the union; keeping the catalogs
    # separate preserves the base catalog's sorted-key sampling order.
    catalog = {**ADVERSARY_CATALOG, **BOMB_CATALOG}
    parts = [
        catalog[name](case.seed + index)
        for index, name in enumerate(case.adversaries)
    ]
    composed = ComposedAdversary(
        parts, faults=case.faults, seed=case.seed
    )
    if case.faults.has_crashes:
        # Crashed-down parties share the t budget with corruptions;
        # reserve headroom for the schedule's peak so the crashes
        # actually fire instead of being clipped at runtime.
        reserve = _max_concurrent_crashes(case.faults.crashes)
        budget = max(0, case.t - reserve)
        union: set[int] = set()
        for part in parts:
            union |= part.select_corruptions(case.n, case.t)
        composed.initial = set(sorted(union)[:budget])
    return RecordingAdversary(composed)


@dataclass
class FuzzFailure:
    """A monitored invariant violation plus everything needed to replay."""

    case: FuzzCase
    kind: str  # monitor name, or "SimulationError"
    message: str
    inputs: list[int]
    initial_corruptions: set[int]
    script: dict[tuple[int, int, int], Any]
    adapt_schedule: list[tuple[int, int]]
    crash_schedule: list[tuple[int, int, int]] = field(default_factory=list)
    shrunk: bool = False
    shrink_runs: int = 0
    original_script_size: int = 0


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    runs: int
    seed: int
    cases: list[FuzzCase] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    #: worker processes the campaign ran on (reporting only: the report
    #: content is independent of it by construction).
    workers: int = 1
    #: the campaign sampled the crash/link resilience axes too.
    crash: bool = False
    #: the campaign sampled the partial-synchrony axes too.
    partition: bool = False
    #: the campaign sampled the payload-bomb adversaries (guards armed).
    bombs: bool = False
    #: execution-engine incidents: cases whose worker process died, and
    #: cases that exceeded the per-case time budget.  Both also appear
    #: as ``ExecutionEngine`` failures; the counts make the engine's
    #: health visible at a glance in the summary and CLI output.
    worker_crashes: int = 0
    case_timeouts: int = 0
    #: transient-case retries the engine performed (a crashed/timed-out
    #: case is re-run once on a fresh pool with the same derived seed
    #: before being recorded as terminal).
    retries: int = 0
    #: timeout-escalation accounting across the campaign's completed
    #: cases: total transport-level resyncs, cases that needed at least
    #: one, and degradations per escalation-ladder rung.
    resyncs: int = 0
    escalated_cases: int = 0
    degradations: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        crash_tag = ", crash plane" if self.crash else ""
        partition_tag = ", partition plane" if self.partition else ""
        bomb_tag = ", bomb plane" if self.bombs else ""
        lines = [
            f"fuzz campaign: {self.runs} runs, seed {self.seed}"
            f"{crash_tag}{partition_tag}{bomb_tag}, "
            f"{len(self.failures)} failure(s)"
        ]
        if self.worker_crashes or self.case_timeouts or self.retries:
            lines.append(
                f"  engine: {self.worker_crashes} worker crash(es), "
                f"{self.case_timeouts} case timeout(s), "
                f"{self.retries} retried case(s)"
            )
        if self.resyncs or self.escalated_cases or self.degradations:
            rungs = ", ".join(
                f"{rung}: {count}"
                for rung, count in sorted(self.degradations.items())
            )
            lines.append(
                f"  escalation: {self.resyncs} timeout escalation(s) "
                f"across {self.escalated_cases} case(s)"
                + (f"; degraded -> {rungs}" if rungs else "")
            )
        for index, failure in enumerate(self.failures):
            path = (
                self.artifacts[index] if index < len(self.artifacts) else None
            )
            lines.append(f"  [{failure.kind}] {failure.case.describe()}")
            lines.append(f"    {failure.message}")
            if failure.shrunk:
                lines.append(
                    f"    shrunk script: {failure.original_script_size} -> "
                    f"{len(failure.script)} messages "
                    f"({failure.shrink_runs} replays)"
                )
            if path:
                lines.append(f"    artifact: {path}")
        return "\n".join(lines)


def _execute(
    case: FuzzCase,
    spec: ProtocolSpec,
    inputs: list[int],
    adversary: Adversary,
):
    """Run one monitored execution; raises on any invariant violation.

    Every case runs through the supervisor
    (:func:`~repro.sim.supervisor.run_with_escalation`).  Only a
    partial-synchrony case may descend its ladder, with monitor
    violations kept fatal (``escalate_on=(SimulationError,)``): a
    slow/partitioned network may degrade, a protocol bug may not hide
    behind the ladder.  Any other case escalates on nothing, which is
    the primary run alone.  A ``HighCostCA`` decision is judged by the
    supervisor itself (Agreement and Convex Validity, the monitors'
    checks).  Returns the :class:`ExecutionResult`.
    """
    transport = LossyTransport.from_spec(case.faults)
    round_budget = spec.round_budget(case.n, case.t, case.ell)
    partial_sync = case.faults.has_partial_sync
    return run_with_escalation(
        spec.build(case.ell),
        inputs,
        n=case.n,
        t=case.t,
        adversary=adversary,
        monitors=case_monitors(case, spec),
        # only a partial-synchrony case may descend the ladder.
        escalate_on=(SimulationError,) if partial_sync else (),
        kappa=case.kappa,
        # leave headroom above the monitor so RoundBudgetMonitor fires
        # with a record attached before the hard simulator cap.
        max_rounds=2 * round_budget + 64,
        trace=True,
        # link faults ride below the round abstraction; None on specs
        # without link axes, so non-crash campaigns are untouched.
        transport=transport,
        guards=(
            WireLimits.from_envelopes(case.n, case.t, case.ell, case.kappa)
            if case.guards
            else None
        ),
    )


@dataclass
class CaseStats:
    """Deterministic accounting of one completed (non-failing) case."""

    #: transport-level escalated retries the execution performed.
    resyncs: int = 0
    #: logical rounds that needed more than one synchronization attempt.
    escalated_rounds: int = 0
    #: how the escalation ladder ended: ``None`` (the primary decided),
    #: ``"high_cost_ca"``, or ``"exhausted"`` (both rungs failed on a
    #: partition that never heals -- an out-of-model schedule).
    rung: str | None = None
    #: honest protocol bits the execution spent (0 on failures).
    bits: int = 0
    #: logical rounds the execution took (0 on failures).
    rounds: int = 0
    #: the case's theory-derived envelopes (filled even on failures).
    bit_budget: int = 0
    round_budget: int = 0


def _violation_kind(error: Exception) -> str:
    """The failure kind a campaign files, the shrinker compares against
    and a replay reproduces for an execution's exception."""
    if isinstance(error, HonestPartyError):
        # the no-crash meta-invariant: byzantine input must never crash
        # honest protocol code.  A first-class failure kind, shrinkable
        # like any monitor violation.
        return "HonestPartyError"
    if isinstance(error, ProtocolViolation):
        return error.monitor or "ProtocolViolation"
    return "SimulationError"


def run_case_ex(
    case: FuzzCase, registry: dict[str, ProtocolSpec] | None = None
) -> tuple["FuzzFailure | None", CaseStats]:
    """Run one case under monitors: a failure (or ``None`` if clean),
    and the case's deterministic accounting."""
    registry = registry or standard_registry()
    spec = registry[case.protocol]
    inputs = _build_inputs(case, spec)
    adversary = _build_adversary(case)
    stats = CaseStats(
        bit_budget=spec.bit_budget(case.n, case.t, case.ell, case.kappa),
        round_budget=spec.round_budget(case.n, case.t, case.ell),
    )
    try:
        result = _execute(case, spec, inputs, adversary)
    except (HonestPartyError, ProtocolViolation, SimulationError) as error:
        if not isinstance(error, SimulationError) or case.faults.heals:
            return FuzzFailure(
                case=case,
                kind=_violation_kind(error),
                message=str(error),
                inputs=inputs,
                initial_corruptions=set(adversary.initial_corruptions),
                script=dict(adversary.script),
                adapt_schedule=list(adversary.adapt_schedule),
                crash_schedule=list(adversary.crash_schedule),
                original_script_size=len(adversary.script),
            ), stats
        # a partition that never heals is outside the model the ladder
        # decides in (docs/fault-model.md): its exhaustion is the case's
        # verdict.  The error carries the primary's stats.
        result = None
        stats.rung = "exhausted"
        stats.resyncs = error.stats.resync_attempts
        stats.escalated_rounds = error.stats.escalated_rounds
    if result is not None:
        stats.bits = result.stats.honest_bits
        stats.rounds = result.stats.rounds
        stats.resyncs = result.stats.resync_attempts
        stats.escalated_rounds = result.stats.escalated_rounds
        if result.fallback is not None:
            stats.rung = "high_cost_ca"
            # the returned stats belong to the fallback rung; fold the
            # primary's escalation effort back in.
            stats.resyncs += result.fallback.resyncs
    return None, stats


# ---------------------------------------------------------------------------
# Shrinking (delta debugging over the recorded byzantine script)
# ---------------------------------------------------------------------------


def _replays_same(
    failure: FuzzFailure,
    spec: ProtocolSpec,
    script_keys: list[tuple[int, int, int]],
    schedule: list[tuple[int, int]],
    crash_schedule: list[tuple[int, int, int]],
    case: FuzzCase,
) -> bool:
    """Does the reduced script still trigger the same violation kind?"""
    adversary = ReplayAdversary(
        {key: failure.script[key] for key in script_keys},
        failure.initial_corruptions,
        schedule,
        crash_schedule=crash_schedule,
    )
    try:
        _execute(case, spec, failure.inputs, adversary)
    except (HonestPartyError, ProtocolViolation, SimulationError) as error:
        return _violation_kind(error) == failure.kind
    return False


#: window-axis tags for the partition/churn shrink dimension.
_PARTITION_TAG, _CHURN_TAG = "partition", "churn"


def _windows_of(case: FuzzCase) -> list[tuple[str, tuple]]:
    """Flatten a case's partition + churn windows into one shrink list."""
    return [
        (_PARTITION_TAG, window) for window in case.faults.partitions
    ] + [(_CHURN_TAG, window) for window in case.faults.link_churn]


def _case_with_windows(
    case: FuzzCase, windows: list[tuple[str, tuple]]
) -> FuzzCase:
    """Rebuild a case keeping only the given partition/churn windows."""
    partitions = tuple(
        window for tag, window in windows if tag == _PARTITION_TAG
    )
    churn = tuple(window for tag, window in windows if tag == _CHURN_TAG)
    return replace(
        case,
        faults=replace(case.faults, partitions=partitions, link_churn=churn),
    )


def _ddmin(items: list, still_fails: Callable[[list], bool],
           budget: list[int]) -> list:
    """Classic ddmin: minimal sublist (1-minimal up to budget) that fails."""
    granularity = 2
    while len(items) >= 2 and budget[0] > 0:
        chunk = max(1, math.ceil(len(items) / granularity))
        reduced = False
        for start in range(0, len(items), chunk):
            if budget[0] <= 0:
                break
            candidate = items[:start] + items[start + chunk:]
            budget[0] -= 1
            if still_fails(candidate):
                items = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(items), granularity * 2)
    return items


def shrink_failure(
    failure: FuzzFailure,
    registry: dict[str, ProtocolSpec] | None = None,
    max_runs: int = 400,
) -> FuzzFailure:
    """Delta-debug the failing script + corruption schedule to a minimum.

    Returns a new :class:`FuzzFailure` whose script/schedule are
    1-minimal (up to the replay budget): removing any single remaining
    entry no longer reproduces the violation.
    """
    registry = registry or standard_registry()
    spec = registry[failure.case.protocol]
    budget = [max_runs]

    schedule = list(failure.adapt_schedule)
    crash_schedule = list(failure.crash_schedule)
    case = failure.case
    keys = sorted(failure.script)
    keys = _ddmin(
        keys,
        lambda candidate: _replays_same(
            failure, spec, candidate, schedule, crash_schedule, case
        ),
        budget,
    )
    schedule = _ddmin(
        schedule,
        lambda candidate: _replays_same(
            failure, spec, keys, candidate, crash_schedule, case
        ),
        budget,
    )
    crash_schedule = _ddmin(
        crash_schedule,
        lambda candidate: _replays_same(
            failure, spec, keys, schedule, candidate, case
        ),
        budget,
    )
    # fourth axis: partition/churn windows of the partial-sync plane --
    # the shrunk case travels inside the artifact, so the minimized
    # schedule replays without the removed windows.
    windows = _windows_of(case)
    if windows:
        windows = _ddmin(
            windows,
            lambda candidate: _replays_same(
                failure, spec, keys, schedule, crash_schedule,
                _case_with_windows(case, candidate),
            ),
            budget,
        )
        case = _case_with_windows(case, windows)
    return FuzzFailure(
        case=case,
        kind=failure.kind,
        message=failure.message,
        inputs=failure.inputs,
        initial_corruptions=failure.initial_corruptions,
        script={key: failure.script[key] for key in keys},
        adapt_schedule=schedule,
        crash_schedule=crash_schedule,
        shrunk=True,
        shrink_runs=max_runs - budget[0],
        original_script_size=failure.original_script_size,
    )


# ---------------------------------------------------------------------------
# Repro artifacts
# ---------------------------------------------------------------------------


def failure_to_artifact(failure: FuzzFailure) -> dict:
    """Serialise a failure into the JSON repro-artifact structure."""
    return {
        "format": ARTIFACT_FORMAT,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "case": failure.case.to_dict(),
        "violation": {"kind": failure.kind, "message": failure.message},
        # the same form as an int payload: no decimal conversion.
        "inputs": [WIRE_SCHEMA[int].dump(v) for v in failure.inputs],
        "initial_corruptions": sorted(failure.initial_corruptions),
        "adapt_schedule": [[r, p] for r, p in failure.adapt_schedule],
        "crash_schedule": [
            [p, d, u] for p, d, u in failure.crash_schedule
        ],
        "script": [
            [r, s, d, encode_payload(failure.script[(r, s, d)])]
            for r, s, d in sorted(failure.script)
        ],
        "shrunk": failure.shrunk,
        "original_script_size": failure.original_script_size,
    }


#: the top-level keys failure_to_artifact writes, which a loaded
#: artifact must hold (the ``case`` section's are ``FuzzCase.from_dict``'s
#: to check).
_ARTIFACT_KEYS = (
    "format", "schema_version", "case", "violation", "inputs",
    "initial_corruptions", "adapt_schedule", "crash_schedule", "script",
    "shrunk", "original_script_size",
)


def validate_artifact(artifact: dict) -> list[str]:
    """Check an artifact's format/schema stamps; warn on unknown keys.

    Raises :class:`ValueError` when the artifact's wire ``format`` or
    ``schema_version`` does not match this toolchain -- a pre-versioned
    corpus file (PR 1-7) or one from a newer writer would otherwise
    replay with silently-defaulted ``FaultSpec`` axes -- when it lacks
    a key :func:`failure_to_artifact` writes (naming every missing one,
    ``case`` and ``violation`` fields included), or when its case does
    not build (a reversed partition window, say).  Unknown keys in the
    top level, the ``case`` section, or the ``faults`` section are
    *warnings* (emitted via :mod:`warnings` and returned), since extra
    keys are how forward-compatible writers annotate artifacts.
    """
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"unsupported artifact format {artifact.get('format')!r}"
        )
    version = artifact.get("schema_version")
    if version is None:
        raise ValueError(
            "artifact has no schema_version stamp (written by a "
            f"pre-versioned toolchain); current schema is "
            f"{ARTIFACT_SCHEMA_VERSION} -- re-generate the artifact"
        )
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema_version {version} does not match this "
            f"toolchain's {ARTIFACT_SCHEMA_VERSION}"
        )
    if "case" in artifact:  # first: what it cannot build is more specific
        FuzzCase.from_dict(artifact["case"])
    missing = [key for key in _ARTIFACT_KEYS if key not in artifact]
    if "violation" in artifact:
        missing += [
            f"violation.{key}" for key in ("kind", "message")
            if key not in artifact["violation"]
        ]
    if missing:
        raise ValueError(f"artifact lacks key(s) {missing}")
    messages: list[str] = []
    sections = [
        # plus the optional recorded counter block
        ("artifact", artifact, frozenset(_ARTIFACT_KEYS) | {"counters"}),
        (
            "case",
            artifact["case"],
            frozenset(f.name for f in dataclass_fields(FuzzCase)),
        ),
        (
            "faults",
            artifact["case"]["faults"],
            # ``links``: earlier writers' null scope (FaultSpec refuses more)
            frozenset(f.name for f in dataclass_fields(FaultSpec)) | {"links"},
        ),
    ]
    for label, section, known in sections:
        unknown = sorted(set(section) - known)
        if unknown:
            messages.append(
                f"unknown {label} key(s) {unknown}: written by a newer "
                "or patched toolchain; they are ignored on replay"
            )
    for message in messages:
        warnings.warn(message, stacklevel=2)
    return messages


def save_artifact(
    failure: FuzzFailure,
    path: str,
    registry: dict[str, ProtocolSpec] | None = None,
    record_counters: bool = True,
) -> str:
    """Write a failure's repro artifact to ``path``; returns the path.

    When ``record_counters`` is set (the default) the artifact also
    embeds the deterministic counter block of one replay of the failure
    (:func:`replay_counters`), turning the corpus entry into a
    regression fixture for ``repro replay --verify-counters``.
    """
    artifact = failure_to_artifact(failure)
    if record_counters:
        artifact["counters"] = replay_counters(artifact, registry)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    return path


def load_artifact(path: str) -> dict:
    """Load and validate a repro artifact (see :func:`validate_artifact`)."""
    with open(path) as handle:
        artifact = json.load(handle)
    validate_artifact(artifact)
    return artifact


@dataclass
class ReplayOutcome:
    """What happened when an artifact was replayed."""

    kind: str | None  # None when the replay ran clean
    message: str | None

    @property
    def violated(self) -> bool:
        return self.kind is not None

    def matches(self, artifact: dict) -> bool:
        """Did the replay reproduce the artifact's recorded violation?"""
        return self.kind == artifact["violation"]["kind"]


def replay_artifact(
    artifact: dict | str,
    registry: dict[str, ProtocolSpec] | None = None,
) -> ReplayOutcome:
    """Re-execute an artifact's script under the same monitors."""
    if isinstance(artifact, str):
        artifact = load_artifact(artifact)
    registry = registry or standard_registry()
    case = FuzzCase.from_dict(artifact["case"])
    spec = registry[case.protocol]
    inputs = [WIRE_SCHEMA[int].load(v) for v in artifact["inputs"]]
    adversary = ReplayAdversary(
        {
            (r, s, d): decode_payload(payload)
            for r, s, d, payload in artifact["script"]
        },
        set(artifact["initial_corruptions"]),
        [(r, p) for r, p in artifact["adapt_schedule"]],
        crash_schedule=[
            (p, d, u) for p, d, u in artifact.get("crash_schedule", ())
        ],
    )
    try:
        _execute(case, spec, inputs, adversary)
    except (HonestPartyError, ProtocolViolation, SimulationError) as error:
        return ReplayOutcome(kind=_violation_kind(error), message=str(error))
    return ReplayOutcome(kind=None, message=None)


def replay_counters(
    artifact: dict | str,
    registry: dict[str, ProtocolSpec] | None = None,
) -> dict[str, int]:
    """Replay an artifact and return its full deterministic counter block.

    Process-level caches (decode-matrix memo, hash-prefix LRUs) are
    reset first so the block is a pure function of the artifact -- the
    same dict on every host and process history.  This is the
    block ``save_artifact`` embeds and ``repro replay --verify-counters``
    diffs.
    """
    if isinstance(artifact, str):
        artifact = load_artifact(artifact)
    reset_process_caches()
    with perf_counters.capture() as captured:
        replay_artifact(artifact, registry)
    return {name: captured[name] for name in sorted(captured)}


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


def _filtered_registry(
    registry: dict[str, ProtocolSpec], protocols: list[str] | None
) -> dict[str, ProtocolSpec]:
    if not protocols:
        return registry
    unknown = set(protocols) - set(registry)
    if unknown:
        raise ValueError(f"unknown protocols: {sorted(unknown)}")
    return {name: registry[name] for name in protocols}


def _case_worker(task: tuple) -> tuple[FuzzFailure | None, CaseStats]:
    """Engine entry point: execute and (when asked) shrink one case.

    ``source`` is the parent's registry when the task stays in this
    process, else the module-level builder (``ProtocolSpec`` factories
    are closures and do not pickle; the builder does, by name).
    """
    case, source, protocols, shrink, max_shrink_runs = task
    registry = (
        _filtered_registry(source(), protocols) if callable(source) else source
    )
    failure, stats = run_case_ex(case, registry)
    if failure is not None and shrink:
        failure = shrink_failure(failure, registry, max_runs=max_shrink_runs)
    return failure, stats


def execute_cases(
    cases: list[FuzzCase],
    registry: dict[str, ProtocolSpec],
    builder: Callable[[], dict[str, ProtocolSpec]] | None,
    protocols: list[str] | None,
    workers: int,
    case_timeout_s: float | None,
    shrink: bool = False,
    max_shrink_runs: int = 400,
) -> tuple[list[tuple[FuzzFailure | None, CaseStats]], Counter]:
    """Run sampled cases through the engine; one outcome per case, in order.

    The executor of :func:`fuzz` at every worker count: :func:`~repro.sim.parallel.run_many` runs
    one worker inline under the per-case guard a pool worker uses, so a
    verdict cannot depend on where the case ran.  ``registry`` is
    ``builder()`` filtered to ``protocols``; only the builder crosses a
    process boundary, so ``workers > 1`` needs one.

    A case the engine lost -- its worker died, it exceeded
    ``case_timeout_s`` (each retried once with the same payload), or
    the harness raised something that is not a verdict -- comes back as
    an ``ExecutionEngine`` failure instead of ending the campaign.  The
    counter holds the engine's incidents by ``error_type`` and its
    ``"retries"``.
    """
    source = builder if workers > 1 else registry
    collected = run_many(
        _case_worker,
        [(case, source, protocols, shrink, max_shrink_runs) for case in cases],
        workers=workers,
        timeout_s=case_timeout_s,
    )
    incidents = Counter(
        outcome.error_type for outcome in collected if not outcome.ok
    )
    incidents["retries"] = sum(outcome.retries for outcome in collected)
    results = [
        outcome.value if outcome.ok else (
            FuzzFailure(
                case=case,
                kind="ExecutionEngine",
                message=f"{outcome.error_type}: {outcome.error}",
                inputs=_build_inputs(case, registry[case.protocol]),
                initial_corruptions=set(),
                script={},
                adapt_schedule=[],
            ),
            CaseStats(),
        )
        for case, outcome in zip(cases, collected)
    ]
    return results, incidents


def fuzz(
    runs: int = 50,
    seed: int = 0,
    protocols: list[str] | None = None,
    artifact_dir: str | None = None,
    shrink: bool = True,
    max_shrink_runs: int = 400,
    workers: int | str | None = 1,
    registry_builder: Callable[[], dict[str, ProtocolSpec]] | None = None,
    case_timeout_s: float | None = None,
    crash: bool = False,
    partition: bool = False,
    bombs: bool = False,
) -> FuzzReport:
    """Run a chaos campaign of ``runs`` sampled configurations.

    ``crash=True`` widens the sampled fault space with the resilience
    planes: lossy honest links (drop/delay/reorder under the round
    synchronizer) and crash/restart windows for honest parties (WAL
    replay on rejoin), composed with the usual byzantine strategies and
    message faults.

    ``partition=True`` widens it further with the partial-synchrony
    axes (GST, pre-GST loss, healing/never-healing partitions, link
    churn); those cases run through the supervisor's escalation ladder,
    so a slow network shows up as escalation accounting in the report
    (a ladder exhausted by a partition that never heals as
    ``degradations["exhausted"]``) while invariant violations stay hard
    failures.

    ``bombs=True`` appends payload-bomb adversaries (oversize blobs,
    deep nesting, type confusion, near-valid mutants) to every sampled
    composition and arms the honest wire guards; any honest-party crash
    caused by the hostile traffic surfaces as a shrinkable
    ``HonestPartyError`` failure instead of aborting the campaign.

    Every run executes one sampled case under the full monitor stack;
    failures are shrunk (unless ``shrink=False``) and, when
    ``artifact_dir`` is given, archived as replayable JSON artifacts.

    The cases are sampled here and run by :func:`execute_cases`, which
    is :func:`repro.sim.parallel.run_many` at every worker count
    (``workers > 1`` or ``"auto"`` fans them out over a process pool);
    reports and artifacts are byte-identical across worker counts
    because every case is seeded by ``derive_seed(seed, index)``, runs
    under the same guard and is collected in index order.  A case whose
    worker dies, that exceeds ``case_timeout_s`` (at one worker too,
    from the main thread) or whose harness raises is a recorded
    ``ExecutionEngine`` failure instead of the end of the campaign.

    A custom registry reaches the campaign, and its workers, as
    ``registry_builder``: a module-level callable returning the
    registry (the specs themselves hold closures and do not pickle).
    """
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    builder = registry_builder or standard_registry
    parent_registry = _filtered_registry(builder(), protocols)
    worker_count = resolve_workers(workers)

    report = FuzzReport(
        runs=runs, seed=seed, workers=worker_count, crash=crash,
        partition=partition, bombs=bombs,
    )
    report.cases = [
        sample_case_at(
            seed, index, parent_registry, crash=crash, partition=partition,
            bombs=bombs,
        )
        for index in range(runs)
    ]
    outcomes, incidents = execute_cases(
        report.cases, parent_registry, builder, protocols, worker_count,
        case_timeout_s, shrink, max_shrink_runs,
    )
    report.retries = incidents["retries"]
    report.worker_crashes = incidents["WorkerCrash"]
    report.case_timeouts = incidents["CaseTimeout"]

    for index, (failure, case_stats) in enumerate(outcomes):
        if case_stats.resyncs:
            report.resyncs += case_stats.resyncs
            report.escalated_cases += 1
        if case_stats.rung is not None:
            report.degradations[case_stats.rung] = (
                report.degradations.get(case_stats.rung, 0) + 1
            )
        if failure is None:
            continue
        report.failures.append(failure)
        if artifact_dir is not None:
            path = os.path.join(
                artifact_dir, f"repro-{seed}-{index:04d}.json"
            )
            # a case the engine lost is archived as it stands: recording
            # its counters would re-run it here, un-timed and un-isolated.
            report.artifacts.append(
                save_artifact(
                    failure, path, registry=parent_registry,
                    record_counters=failure.kind != "ExecutionEngine",
                )
            )
    return report
