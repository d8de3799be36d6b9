"""Coverage-guided adversary search over the composed fault space.

The chaos plane (:mod:`repro.sim.fuzz`) samples the fault space
*blindly*: every case is an independent uniform draw, so a violation
hiding in a narrow corner -- one protocol, one ``(n, t, ell)`` regime,
one composition of fault axes -- is found at the corner's base rate or
not at all.  This module turns the same case machinery into an
**adversarial optimizer**:

- **fitness** is how hard a case presses the stack against the paper's
  envelopes: honest bits vs. the bit budget, rounds vs. the round
  budget (:class:`~repro.sim.invariants.EnvelopeMargins`), the
  escalation-ladder rung reached and the resyncs spent -- with an
  outright invariant violation as the summit;
- **bandit arm selection** (UCB1) allocates executions across
  ``(protocol, n, t, ell)`` cells, spending the budget where the
  envelopes are tightest instead of uniformly;
- a **novelty corpus** retains cases whose coverage signature (margin
  buckets, rung, violation kind) is new, and **power-scheduled
  mutation** of their :class:`~repro.sim.faults.FaultSpec` / adversary
  composition explores around them, seeded -- optionally -- from the
  shrunk repro artifacts of earlier fuzz/ddmin campaigns.

Everything stays deterministic in the campaign seed: case ``i``'s
planning RNG is ``derive_seed(seed, i)``, engine state advances only at
batch boundaries (so worker count cannot reorder decisions), planned
cases run through the chaos plane's one executor
(:func:`repro.sim.fuzz.execute_cases`) at every worker count, and every
completed case is journaled to a crash-safe manifest
(:mod:`repro.sim.manifest`).  A killed campaign resumed from its
manifest replays the journal through the same state-update logic and
continues from the first missing case -- producing a report
byte-identical to the uninterrupted run.

Surface: ``python -m repro search`` or::

    from repro.sim.search import SearchConfig, run_search

    report = run_search(SearchConfig(seed=7), executions=200,
                        manifest="campaign.jsonl")
    report = run_search(SearchConfig(seed=7), executions=400,
                        manifest="campaign.jsonl", resume=True)
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from .bombs import BOMB_CATALOG
from .faults import FaultSpec
from .fuzz import (
    ADVERSARY_CATALOG,
    CaseStats,
    FuzzCase,
    FuzzFailure,
    ProtocolSpec,
    _filtered_registry,
    execute_cases,
    load_artifact,
    sample_case_in,
    save_artifact,
    shrink_failure,
    standard_registry,
    _FAULT_RATES,
    _LINK_RATES,
    _SPREADS,
)
from .manifest import CampaignJournal
from .parallel import derive_seed, resolve_workers

__all__ = [
    "SearchCell",
    "SearchConfig",
    "SearchEngine",
    "SearchReport",
    "default_cells",
    "case_fitness",
    "case_signature",
    "mutate_case",
    "run_search",
]

#: fitness assigned to a genuine invariant violation -- the summit of
#: the search landscape, above any envelope-pressure score.
VIOLATION_FITNESS = 1000.0
#: fitness of a budgeted ladder-exhaustion (documented terminal state:
#: interesting pressure, not a bug).
BUDGETED_FITNESS = 3.0
#: mutation landing sites for the byzantine message-fault rates --
#: wider than the sampling grid so mutation can push past it.
_MUTATION_RATES = (0.0, 0.05, 0.2, 0.5, 0.8)
#: escalation rungs ordered by how far the ladder degraded.
_RUNG_LEVEL = {"high_cost_ca": 1, "async_aa": 2}


# ---------------------------------------------------------------------------
# Cells: the bandit's arms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchCell:
    """One bandit arm: a (protocol, n, t, ell) corner of the grid."""

    protocol: str
    n: int
    t: int
    ell: int

    @property
    def key(self) -> str:
        return f"{self.protocol}/n{self.n}/t{self.t}/l{self.ell}"

    def to_list(self) -> list:
        return [self.protocol, self.n, self.t, self.ell]

    @classmethod
    def from_list(cls, data: list) -> "SearchCell":
        return cls(protocol=data[0], n=data[1], t=data[2], ell=data[3])


def default_cells(
    registry: dict[str, ProtocolSpec],
    ns: tuple[int, ...] = (4, 7),
    ells: tuple[int, ...] = (16, 128),
) -> list[SearchCell]:
    """The default arm grid: small/large n x loose/tight t x short/long ell."""
    cells: list[SearchCell] = []
    seen: set[tuple] = set()
    for name in sorted(registry):
        spec = registry[name]
        for n in ns:
            t_max = max(1, (n - 1) // 3)
            for t in sorted({1, t_max}):
                for ell in ells:
                    cell = SearchCell(name, n, t, spec.ell_for(n, ell))
                    marker = (cell.protocol, cell.n, cell.t, cell.ell)
                    if marker not in seen:
                        seen.add(marker)
                        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# Fitness + novelty signatures (the coverage signal)
# ---------------------------------------------------------------------------


def case_fitness(outcome: dict) -> float:
    """Score one journaled outcome: how hard it pressed the envelopes.

    Violations dominate (that is what the search hunts); below them the
    score blends envelope *pressure* (the fraction of the bit/round
    budget actually spent -- the complement of the margin), the
    escalation rung reached, and the resyncs the transport needed.
    The blend is a pure function of the outcome dict, so fitness is
    identical when recomputed from a resumed journal.
    """
    kind = outcome.get("kind")
    if kind is not None:
        if kind == "ExecutionEngine":
            return 0.0
        return BUDGETED_FITNESS if outcome.get("budgeted") else VIOLATION_FITNESS
    stats = outcome.get("stats", {})
    bit_budget = stats.get("bit_budget", 0) or 1
    round_budget = stats.get("round_budget", 0) or 1
    bit_fraction = stats.get("bits", 0) / bit_budget
    round_fraction = stats.get("rounds", 0) / round_budget
    rung_level = _RUNG_LEVEL.get(stats.get("rung"), 0)
    return (
        max(bit_fraction, round_fraction)
        + 0.25 * rung_level
        + 0.02 * min(stats.get("resyncs", 0), 10)
    )


def case_signature(case: dict, outcome: dict) -> tuple:
    """Novelty signature: which coverage bucket this execution landed in.

    A case earns a corpus slot iff its signature is new -- protocol,
    violation kind, escalation rung, a capped resync count, and the
    bit/round budget fractions bucketed into sixteenths.
    """
    stats = outcome.get("stats", {})
    bit_budget = stats.get("bit_budget", 0) or 1
    round_budget = stats.get("round_budget", 0) or 1
    return (
        case.get("protocol"),
        outcome.get("kind"),
        stats.get("rung"),
        min(stats.get("resyncs", 0), 5),
        min(int(16 * stats.get("bits", 0) / bit_budget), 31),
        min(int(16 * stats.get("rounds", 0) / round_budget), 31),
    )


# ---------------------------------------------------------------------------
# Case synthesis: fresh samples and power-scheduled mutation
# ---------------------------------------------------------------------------


def _mutate_once(
    case: FuzzCase,
    rng: random.Random,
    crash: bool,
    partition: bool,
    bombs: bool = False,
) -> FuzzCase:
    """Apply one mutation operator; the cell axes stay fixed."""
    ops = ["rate", "adversaries", "spread", "fault_seed", "case_seed"]
    if crash:
        ops += ["link", "crash"]
    if partition:
        ops += ["psync"]
    if bombs:
        ops += ["bomb"]
    op = rng.choice(ops)
    faults = case.faults
    if op == "rate":
        axis = rng.choice(("drop", "duplicate", "garble", "replay"))
        faults = replace(faults, **{axis: rng.choice(_MUTATION_RATES)})
    elif op == "link":
        axis = rng.choice(("link_drop", "link_delay", "link_reorder"))
        pool = _LINK_RATES if axis != "link_reorder" else _FAULT_RATES
        faults = replace(faults, **{axis: rng.choice(pool)})
    elif op == "crash":
        windows = {party: (party, down, up)
                   for party, down, up in faults.crashes}
        if windows and rng.random() < 0.4:
            del windows[rng.choice(sorted(windows))]
        else:
            party = rng.randrange(case.n)
            down = rng.randint(1, 10)
            windows[party] = (party, down, down + rng.randint(1, 5))
        faults = replace(
            faults,
            crashes=tuple(windows[party] for party in sorted(windows)),
        )
    elif op == "psync":
        if faults.gst is None:
            faults = replace(
                faults,
                gst=rng.randrange(0, 400),
                pre_gst_drop=rng.choice((0.0, 0.3, 0.6)),
            )
        else:
            faults = replace(faults, gst=None, pre_gst_drop=0.0)
    elif op == "adversaries":
        names = list(case.adversaries)
        catalog = sorted(ADVERSARY_CATALOG)
        move = rng.random()
        if move < 0.3 and len(names) > 1:
            names.pop(rng.randrange(len(names)))
        elif move < 0.6 and len(names) < 3:
            names.append(rng.choice(catalog))
        else:
            names[rng.randrange(len(names))] = rng.choice(catalog)
        return replace(case, adversaries=tuple(names))
    elif op == "bomb":
        # reshuffle the case's payload-bomb component: drop one, add
        # one, or swap one for another family.  Any bomb present means
        # the honest guards stay armed on the child.
        names = list(case.adversaries)
        bomb_slots = [
            index for index, name in enumerate(names)
            if name in BOMB_CATALOG
        ]
        catalog = sorted(BOMB_CATALOG)
        move = rng.random()
        if move < 0.3 and bomb_slots and len(names) > 1:
            names.pop(bomb_slots[rng.randrange(len(bomb_slots))])
        elif move < 0.6 and len(names) < 5:
            names.append(rng.choice(catalog))
        elif bomb_slots:
            slot = bomb_slots[rng.randrange(len(bomb_slots))]
            names[slot] = rng.choice(catalog)
        else:
            names.append(rng.choice(catalog))
        return replace(case, adversaries=tuple(names), guards=True)
    elif op == "spread":
        return replace(case, spread=rng.choice(_SPREADS))
    elif op == "fault_seed":
        faults = replace(faults, seed=rng.getrandbits(32))
    elif op == "case_seed":
        return replace(case, seed=rng.getrandbits(32))
    return replace(case, faults=faults)


def mutate_case(
    case: FuzzCase,
    rng: random.Random,
    crash: bool = True,
    partition: bool = False,
    bombs: bool = False,
    max_ops: int = 6,
) -> FuzzCase:
    """Power-scheduled mutation: a geometric number of stacked operators.

    Most children are one small step from the parent (local search);
    a geometric tail of multi-operator jumps keeps the search from
    stalling on a local optimum.
    """
    ops = 1
    while ops < max_ops and rng.random() < 0.5:
        ops += 1
    for _ in range(ops):
        case = _mutate_once(case, rng, crash, partition, bombs)
    return case


# ---------------------------------------------------------------------------
# Engine configuration
# ---------------------------------------------------------------------------


@dataclass
class SearchConfig:
    """Everything that determines a search campaign's content.

    The fields in :meth:`manifest_config` are the campaign's identity:
    a resume validates them against the journal header, so a manifest
    can never silently continue under different parameters.  Fields
    *outside* it (workers, timeouts, artifact dir) are environmental --
    they may change between the original run and a resume without
    affecting a single journaled byte.
    """

    seed: int = 0
    #: guided search (bandit + corpus + mutation) vs. uniform baseline.
    guided: bool = True
    #: cases planned per engine step; state advances only at batch
    #: boundaries, so results cannot influence planning mid-batch and
    #: the campaign is independent of worker count.  Part of the
    #: campaign identity (a different batch size is a different run).
    batch: int = 8
    cells: list[SearchCell] = field(default_factory=list)
    protocols: list[str] | None = None
    crash: bool = True
    partition: bool = False
    #: sample/mutate payload-bomb adversaries (honest guards armed).
    bombs: bool = False
    corpus_size: int = 64
    #: probability of mutating a corpus parent (vs. fresh sample) when
    #: the selected cell has corpus entries.
    mutate_prob: float = 0.8
    max_mutation_ops: int = 6
    #: UCB1 exploration constant.
    ucb_c: float = 1.2
    #: corpus entries pre-seeded from repro artifacts (case dicts).
    seed_corpus: list[dict] = field(default_factory=list)
    # -- environmental (not part of the campaign identity) --------------
    workers: int | str | None = 1
    case_timeout_s: float | None = None
    registry_builder: Callable[[], dict[str, ProtocolSpec]] | None = None
    artifact_dir: str | None = None
    #: shrink violating cases before archiving them (costly; off by
    #: default -- search corpus entries already replay from their seeds).
    shrink_artifacts: bool = False

    def manifest_config(self, cells: list[SearchCell]) -> dict:
        return {
            "engine": "repro-search/1",
            "seed": self.seed,
            "guided": self.guided,
            "batch": self.batch,
            "cells": [cell.to_list() for cell in cells],
            "protocols": sorted(self.protocols) if self.protocols else None,
            "crash": self.crash,
            "partition": self.partition,
            "bombs": self.bombs,
            "corpus_size": self.corpus_size,
            "mutate_prob": self.mutate_prob,
            "max_mutation_ops": self.max_mutation_ops,
            "ucb_c": self.ucb_c,
            "seed_corpus": list(self.seed_corpus),
        }


def seed_corpus_from_artifacts(paths: list[str]) -> list[dict]:
    """Extract corpus-seed case dicts from fuzz/ddmin repro artifacts.

    Paths are loaded in sorted order (determinism) and validated
    (:func:`repro.sim.fuzz.load_artifact`), so a stale-schema corpus
    fails loudly here rather than seeding garbage.
    """
    seeds: list[dict] = []
    for path in sorted(paths):
        artifact = load_artifact(path)
        seeds.append(artifact["case"])
    return seeds


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    """Outcome of one (possibly resumed) search campaign.

    :meth:`to_dict` contains only campaign-deterministic values -- the
    acceptance bar is that a killed-then-resumed campaign serialises to
    the *byte-identical* document of an uninterrupted one.  Engine
    noise (retries, worker count) lives in separate fields and is
    deliberately excluded.
    """

    seed: int
    guided: bool
    executions: int
    violations: list[dict] = field(default_factory=list)
    outliers: list[dict] = field(default_factory=list)
    corpus_size: int = 0
    arms: dict[str, dict] = field(default_factory=dict)
    first_violation_at: int | None = None
    # -- environmental noise (excluded from to_dict) --------------------
    retries: int = 0
    workers: int = 1
    artifacts: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "guided": self.guided,
            "executions": self.executions,
            "first_violation_at": self.first_violation_at,
            "violations": self.violations,
            "outliers": self.outliers,
            "corpus_size": self.corpus_size,
            "arms": {key: self.arms[key] for key in sorted(self.arms)},
        }

    def summary(self) -> str:
        mode = "guided" if self.guided else "random"
        lines = [
            f"search campaign ({mode}): {self.executions} executions, "
            f"seed {self.seed}, {len(self.violations)} violation(s), "
            f"corpus {self.corpus_size}"
        ]
        if self.first_violation_at is not None:
            lines.append(
                f"  first violation at execution {self.first_violation_at}"
            )
        if self.retries:
            lines.append(f"  engine: {self.retries} retried case(s)")
        for entry in self.outliers[:5]:
            lines.append(
                f"  [{entry['fitness']:.3f}] #{entry['index']} "
                f"{entry['cell']}: {entry.get('kind') or 'clean'} "
                f"bits {entry['bits']}/{entry['bit_budget']}"
            )
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class SearchEngine:
    """Batch-stepped bandit/corpus search with a journaled campaign."""

    def __init__(self, config: SearchConfig):
        self.config = config
        builder = config.registry_builder or standard_registry
        self.registry = _filtered_registry(builder(), config.protocols)
        self._builder = builder
        self.cells = list(config.cells) or default_cells(self.registry)
        unknown = sorted(
            {cell.protocol for cell in self.cells} - set(self.registry)
        )
        if unknown:
            raise ValueError(f"cells reference unknown protocols: {unknown}")
        # bandit + corpus state; advanced only by _absorb, only at batch
        # boundaries, only in index order.
        self.plays = [0] * len(self.cells)
        self.reward = [0.0] * len(self.cells)
        self._cell_index = {cell.key: i for i, cell in enumerate(self.cells)}
        self.corpus: list[tuple[int, dict]] = []  # (cell index, case dict)
        self.seen: set[tuple] = set()
        self.outliers: list[dict] = []
        self.violations: list[dict] = []
        self.first_violation_at: int | None = None
        self.executed = 0
        self.retries = 0
        self.artifacts: list[str] = []
        self._seed_initial_corpus()

    def _seed_initial_corpus(self) -> None:
        for case in self.config.seed_corpus:
            cell_key = SearchCell(
                case["protocol"], case["n"], case["t"], case["ell"]
            ).key
            index = self._cell_index.get(cell_key)
            if index is not None:
                self.corpus.append((index, dict(case)))

    # -- planning (reads state, never writes it) ------------------------

    def _select_cell(self, rng: random.Random) -> int:
        if not self.config.guided:
            return rng.randrange(len(self.cells))
        for index in range(len(self.cells)):
            if self.plays[index] == 0:
                return index
        total = sum(self.plays)
        best_index, best_value = 0, -math.inf
        for index in range(len(self.cells)):
            mean = self.reward[index] / self.plays[index]
            bonus = self.config.ucb_c * math.sqrt(
                math.log(total) / self.plays[index]
            )
            value = mean + bonus
            if value > best_value:
                best_index, best_value = index, value
        return best_index

    def _plan(self, index: int) -> tuple[int, FuzzCase]:
        """Plan execution ``index``: pure in (engine state, seed, index)."""
        rng = random.Random(derive_seed(self.config.seed, index))
        cell_index = self._select_cell(rng)
        cell = self.cells[cell_index]
        parents = [
            case for ci, case in self.corpus if ci == cell_index
        ]
        if (
            self.config.guided
            and parents
            and rng.random() < self.config.mutate_prob
        ):
            parent = FuzzCase.from_dict(
                parents[rng.randrange(len(parents))]
            )
            case = mutate_case(
                parent,
                rng,
                crash=self.config.crash,
                partition=self.config.partition,
                bombs=self.config.bombs,
                max_ops=self.config.max_mutation_ops,
            )
        else:
            # a fresh uniform case inside the cell (the non-guided
            # baseline), drawn like a blind campaign's.
            case = sample_case_in(
                rng, cell.protocol, cell.n, cell.t, cell.ell,
                self.config.crash, self.config.partition, self.config.bombs,
            )
        return cell_index, case

    # -- state updates ---------------------------------------------------

    def _absorb(self, index: int, cell_index: int, case: dict,
                outcome: dict) -> None:
        fitness = case_fitness(outcome)
        self.plays[cell_index] += 1
        # UCB rewards must be bounded; violations saturate the arm.
        self.reward[cell_index] += min(fitness, 2.0) / 2.0
        signature = case_signature(case, outcome)
        if signature not in self.seen:
            self.seen.add(signature)
            self.corpus.append((cell_index, case))
            if len(self.corpus) > self.config.corpus_size:
                self.corpus.pop(0)
        stats = outcome.get("stats", {})
        entry = {
            "index": index,
            "cell": self.cells[cell_index].key,
            "fitness": round(fitness, 6),
            "kind": outcome.get("kind"),
            "bits": stats.get("bits", 0),
            "bit_budget": stats.get("bit_budget", 0),
            "rounds": stats.get("rounds", 0),
            "round_budget": stats.get("round_budget", 0),
            "rung": stats.get("rung"),
        }
        self.outliers.append(entry)
        self.outliers.sort(key=lambda e: (-e["fitness"], e["index"]))
        del self.outliers[10:]
        kind = outcome.get("kind")
        if (
            kind is not None
            and kind != "ExecutionEngine"
            and not outcome.get("budgeted")
        ):
            self.violations.append(
                {
                    "index": index,
                    "cell": self.cells[cell_index].key,
                    "kind": kind,
                    "case": case,
                }
            )
            if self.first_violation_at is None:
                self.first_violation_at = index
        self.executed = index + 1

    def _outcome_dict(
        self, failure: "FuzzFailure | None", stats: CaseStats
    ) -> dict:
        if failure is None:
            return {
                "kind": None,
                "message": None,
                "budgeted": False,
                "stats": stats.to_dict(),
            }
        return {
            "kind": failure.kind,
            "message": failure.message,
            "budgeted": failure.budgeted,
            "stats": stats.to_dict(),
        }

    def _archive(self, index: int, failure: "FuzzFailure") -> None:
        if self.config.artifact_dir is None:
            return
        if self.config.shrink_artifacts:
            failure = shrink_failure(failure, self.registry)
        path = os.path.join(
            self.config.artifact_dir,
            f"search-{self.config.seed}-{index:05d}.json",
        )
        self.artifacts.append(
            save_artifact(failure, path, registry=self.registry)
        )

    # -- the campaign loop -----------------------------------------------

    def run(
        self,
        executions: int,
        journal: CampaignJournal | None = None,
        stop_on_violation: bool = False,
    ) -> SearchReport:
        """Run (or continue) the campaign up to ``executions`` cases.

        With a ``journal``, already-recorded cases are absorbed without
        re-execution and the campaign continues from the first missing
        index; without one the campaign runs fully in memory.
        ``stop_on_violation`` ends the campaign at the first batch
        containing a genuine violation (canary/benchmark mode).
        """
        worker_count = resolve_workers(self.config.workers)
        recorded = list(journal) if journal is not None else []
        index = 0
        while index < executions:
            batch_end = min(executions, index + self.config.batch)
            planned = [self._plan(i) for i in range(index, batch_end)]
            fresh: list[tuple[int, FuzzCase]] = []
            for offset, (cell_index, case) in enumerate(planned):
                if index + offset >= len(recorded):
                    fresh.append((index + offset, case))
            executed = self._execute(fresh, worker_count)
            for offset, (cell_index, case) in enumerate(planned):
                i = index + offset
                case_dict = case.to_dict()
                if i < len(recorded):
                    record = recorded[i]
                    if record.case != case_dict:
                        raise ValueError(
                            f"journal record {i} does not match the "
                            "replanned case -- the manifest was written "
                            "by a different campaign"
                        )
                    outcome = record.outcome
                else:
                    failure, stats = executed[i]
                    outcome = self._outcome_dict(failure, stats)
                    if journal is not None:
                        journal.append(case_dict, outcome)
                    if (
                        failure is not None
                        and failure.kind != "ExecutionEngine"
                        and not failure.budgeted
                    ):
                        self._archive(i, failure)
                self._absorb(i, cell_index, case_dict, outcome)
            index = batch_end
            if stop_on_violation and self.first_violation_at is not None:
                break
        return self._report(worker_count)

    def _execute(
        self, fresh: list[tuple[int, FuzzCase]], worker_count: int
    ) -> dict[int, tuple["FuzzFailure | None", CaseStats]]:
        outcomes, incidents = execute_cases(
            [case for _, case in fresh], self.registry, self._builder,
            self.config.protocols, worker_count, self.config.case_timeout_s,
        )
        self.retries += incidents["retries"]
        return {index: outcome for (index, _), outcome in zip(fresh, outcomes)}

    def _report(self, worker_count: int) -> SearchReport:
        arms = {}
        for index, cell in enumerate(self.cells):
            if self.plays[index]:
                arms[cell.key] = {
                    "plays": self.plays[index],
                    "mean_reward": round(
                        self.reward[index] / self.plays[index], 6
                    ),
                }
        return SearchReport(
            seed=self.config.seed,
            guided=self.config.guided,
            executions=self.executed,
            violations=list(self.violations),
            outliers=list(self.outliers),
            corpus_size=len(self.corpus),
            arms=arms,
            first_violation_at=self.first_violation_at,
            retries=self.retries,
            workers=worker_count,
            artifacts=list(self.artifacts),
        )


# ---------------------------------------------------------------------------
# Manifest-aware front door
# ---------------------------------------------------------------------------


def run_search(
    config: SearchConfig,
    executions: int,
    manifest: str | None = None,
    resume: bool = False,
    stop_on_violation: bool = False,
) -> SearchReport:
    """Run a search campaign, optionally journaled and resumable.

    ``manifest`` names the campaign journal.  With ``resume=False`` a
    fresh journal is created (refusing to clobber an existing one);
    with ``resume=True`` the journal is opened, its header validated
    against ``config``, its records absorbed without re-execution, and
    the campaign continues to ``executions`` total cases.  The report
    of a resumed campaign is byte-identical to an uninterrupted one.
    """
    engine = SearchEngine(config)
    journal: CampaignJournal | None = None
    if manifest is not None:
        wanted = config.manifest_config(engine.cells)
        if resume:
            journal = CampaignJournal.open_(manifest)
            journal.require_config(wanted)
        else:
            if os.path.exists(manifest):
                raise FileExistsError(
                    f"manifest {manifest} already exists; pass resume=True "
                    "to continue it or choose a new path"
                )
            journal = CampaignJournal.create(manifest, wanted)
    return engine.run(
        executions, journal=journal, stop_on_violation=stop_on_violation
    )
