"""The adversary-search engine and its resumable campaign manifests.

Four layers:

1. Manifest mechanics -- the crash-safe JSONL journal: round trips,
   torn-tail truncation, digest/interior-corruption detection,
   configuration locking.
2. Search components -- fitness, novelty signatures, mutation, cells.
3. The planted-outlier canary: the acceptance bar from the issue.
   A trap protocol blows its bit envelope only under fault
   compositions that uniform sampling essentially never draws (rates
   past the sampling grid, or two concurrent round-1 crash windows).
   Guided search must find it in >= 5x fewer executions than the
   uniform baseline at the same seed budget.
4. Resume semantics -- a killed-then-resumed campaign reports
   byte-identically to the uninterrupted run, including across a torn
   journal tail and across worker counts.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.high_cost_ca import high_cost_ca
from repro.analysis import search_document
from repro.sim.faults import FaultSpec
from repro.sim.fuzz import (
    ARTIFACT_FORMAT,
    ARTIFACT_SCHEMA_VERSION,
    FuzzCase,
    ProtocolSpec,
)
from repro.sim.manifest import (
    MANIFEST_FORMAT,
    CampaignJournal,
    JournalCorrupt,
    record_digest,
)
from repro.sim.party import broadcast_round
from repro.sim.search import (
    VIOLATION_FITNESS,
    SearchCell,
    SearchConfig,
    SearchEngine,
    case_fitness,
    default_cells,
    mutate_case,
    run_search,
    seed_corpus_from_artifacts,
)


# ---------------------------------------------------------------------------
# the trap: a planted budget-envelope outlier (module level so that the
# registry builder pickles into pool workers by qualified name)
# ---------------------------------------------------------------------------

MARKER = b"\xa5"
PAD_UNIT = 4096


def trap_protocol(ctx, v, ell):
    """HighCostCA plus a fault-sensitive padding round.

    Each party broadcasts a one-byte marker, counts garbled (``wrong``)
    and missing peers, then pads proportionally -- with an extra jump
    when *two or more* markers went missing (two concurrent round-1
    crash windows, or byzantine drops at rates only mutation reaches).
    The bit budget admits up to 6 padding units, so the trap fires only
    past that cliff: uniform sampling (drop <= 0.5, crash windows
    rarely overlapping round 1) averages ~4 units and stays inside the
    envelope, while the guided engine climbs the wrong/missing fitness
    gradient to the over-budget corner.
    """
    inbox = yield from broadcast_round(ctx, "trap/marker", MARKER)
    wrong = sum(
        1 for p in range(ctx.n)
        if p != ctx.party_id and inbox.get(p) not in (None, MARKER)
    )
    missing = sum(1 for p in range(ctx.n) if inbox.get(p) is None)
    out = yield from high_cost_ca(ctx, v)
    units = wrong + 2 * missing + (8 if missing >= 2 else 0)
    scale = (ell // 64) ** 2
    pad = b"\x00" * (scale * units * PAD_UNIT)
    if pad:
        yield from broadcast_round(ctx, "trap/pad", pad)
    return out


def trap_bit_budget(n, t, ell, kappa):
    scale = (ell // 64) ** 2
    unit = (n - 1) * n * 8 * PAD_UNIT
    return 400_000 + scale * 6 * unit


def trap_round_budget(n, t, ell):
    return 8 * (2 + 4 * (t + 1)) + 48


def trap_registry():
    return {
        "trap": ProtocolSpec(
            name="trap",
            build=lambda ell: (lambda ctx, v: trap_protocol(ctx, v, ell)),
            bit_budget=trap_bit_budget,
            round_budget=trap_round_budget,
        )
    }


TRAP_CELLS = [
    SearchCell("trap", 4, 1, 16),
    SearchCell("trap", 4, 1, 64),
    SearchCell("trap", 7, 1, 16),
    SearchCell("trap", 7, 1, 64),
    SearchCell("trap", 7, 2, 16),
    SearchCell("trap", 7, 2, 64),
]


def trap_config(seed, guided, **overrides):
    kwargs = dict(
        seed=seed,
        guided=guided,
        batch=8,
        cells=list(TRAP_CELLS),
        crash=True,
        partition=False,
        registry_builder=trap_registry,
    )
    kwargs.update(overrides)
    return SearchConfig(**kwargs)


#: a single cheap cell for the resume/worker tests.
CHEAP_CELLS = [SearchCell("trap", 4, 1, 16)]


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# manifest mechanics
# ---------------------------------------------------------------------------


class TestManifest:
    CONFIG = {"engine": "repro-search/1", "seed": 3, "batch": 8}

    def record(self, index):
        case = {"protocol": "trap", "n": 4, "seed": index}
        outcome = {"kind": None, "stats": {"bits": 100 + index}}
        return case, outcome

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal.create(path, self.CONFIG)
        for index in range(3):
            journal.append(*self.record(index))
        reopened = CampaignJournal.open_(path)
        assert reopened.config == self.CONFIG
        assert len(reopened) == 3
        for index, record in enumerate(reopened):
            case, outcome = self.record(index)
            assert (record.index, record.case, record.outcome) == (
                index, case, outcome
            )
            assert record.digest == record_digest(index, case, outcome)

    def test_torn_tail_truncated(self, tmp_path):
        """A crash mid-append leaves a partial line; open_ drops it,
        truncates the file, and the next append lands cleanly."""
        path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal.create(path, self.CONFIG)
        journal.append(*self.record(0))
        intact = open(path, "rb").read()
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "case", "index": 1, "ca')
        reopened = CampaignJournal.open_(path)
        assert len(reopened) == 1
        assert open(path, "rb").read() == intact
        reopened.append(*self.record(1))
        assert len(CampaignJournal.open_(path)) == 2

    def test_digest_tamper_is_fatal(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal.create(path, self.CONFIG)
        journal.append(*self.record(0))
        lines = open(path).read().splitlines()
        lines[1] = lines[1].replace('"bits":100', '"bits":999')
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt, match="digest"):
            CampaignJournal.open_(path)

    def test_interior_corruption_is_fatal(self, tmp_path):
        """A torn *tail* heals; a corrupt *interior* line must not --
        skipping it would desynchronise resumed engine state."""
        path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal.create(path, self.CONFIG)
        journal.append(*self.record(0))
        journal.append(*self.record(1))
        lines = open(path).read().splitlines()
        lines[1] = "not json at all"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt, match="unparseable"):
            CampaignJournal.open_(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "format": "other/9"}\n')
        with pytest.raises(JournalCorrupt, match=MANIFEST_FORMAT):
            CampaignJournal.open_(str(path))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalCorrupt, match="empty"):
            CampaignJournal.open_(str(empty))

    def test_require_config_names_mismatches(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal.create(path, self.CONFIG)
        changed = dict(self.CONFIG, seed=4, batch=16)
        with pytest.raises(ValueError, match=r"\['batch', 'seed'\]"):
            journal.require_config(changed)
        journal.require_config(dict(self.CONFIG))  # identical: fine


# ---------------------------------------------------------------------------
# search components
# ---------------------------------------------------------------------------


def make_case(seed=7):
    return FuzzCase(
        protocol="trap", n=4, t=1, ell=16, kappa=64, spread=8,
        adversaries=("passive",), faults=FaultSpec(), seed=seed,
    )


class TestComponents:
    def test_fitness_ladder(self):
        violation = {"kind": "ConvexValidityMonitor"}
        lost = {"kind": "ExecutionEngine"}
        budgets = {"bit_budget": 1000, "round_budget": 100}
        exhausted = {
            "kind": None,
            "stats": {**budgets, "rung": "exhausted", "resyncs": 6},
        }
        clean = {
            "kind": None,
            "stats": {**budgets, "bits": 600, "rounds": 5,
                      "rung": "high_cost_ca", "resyncs": 2},
        }
        assert case_fitness(violation) == VIOLATION_FITNESS
        assert case_fitness(lost) == 0.0
        # 0.6 pressure + 0.25 rung + 0.04 resyncs
        assert case_fitness(clean) == pytest.approx(0.89)
        # no bits decided; 0.5 for the ladder's end + 0.12 resyncs
        assert case_fitness(exhausted) == pytest.approx(0.62)
        assert case_fitness(violation) > case_fitness(clean) > \
            case_fitness(exhausted) > case_fitness(lost)

    def test_mutation_is_deterministic_and_cell_preserving(self):
        parent = make_case()
        children = [
            mutate_case(parent, random.Random(9), crash=True)
            for _ in range(2)
        ]
        assert children[0] == children[1]
        mutated = False
        for seed in range(20):
            child = mutate_case(parent, random.Random(seed), crash=True)
            assert (child.protocol, child.n, child.t, child.ell) == (
                "trap", 4, 1, 16
            )
            mutated |= child != parent
        assert mutated

    def test_default_cells_cover_registry(self):
        cells = default_cells(trap_registry(), ells=(16, 64))
        assert cells == TRAP_CELLS
        # the stock grid: small/large n, loose/tight t, short/long ell.
        assert default_cells(trap_registry()) == [
            SearchCell("trap", n, t, ell)
            for n, ts in ((4, (1,)), (7, (1, 2)))
            for t in ts
            for ell in (16, 128)
        ]

    def test_unknown_cell_protocol_rejected(self):
        config = trap_config(0, True, cells=[SearchCell("ghost", 4, 1, 16)])
        with pytest.raises(ValueError, match="ghost"):
            SearchEngine(config)

    def test_seed_corpus_from_artifacts(self, tmp_path):
        case = make_case()
        artifact = {
            "format": ARTIFACT_FORMAT,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "case": case.to_dict(),
        }
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(artifact))
        seeds = seed_corpus_from_artifacts([str(path)])
        assert seeds == [case.to_dict()]
        engine = SearchEngine(trap_config(0, True, seed_corpus=seeds))
        assert engine.corpus == [(0, case.to_dict())]
        # a seed outside the campaign's cells is ignored, not fatal:
        engine = SearchEngine(
            trap_config(0, True, cells=[SearchCell("trap", 7, 2, 64)],
                        seed_corpus=seeds)
        )
        assert engine.corpus == []


# ---------------------------------------------------------------------------
# the canary: guided search must beat uniform sampling >= 5x
# ---------------------------------------------------------------------------


class TestPlantedOutlierCanary:
    BUDGET = 300  # executions given to each mode

    def test_guided_finds_planted_outlier_5x_faster(self):
        guided = run_search(
            trap_config(0, guided=True), executions=self.BUDGET,
            stop_on_violation=True,
        )
        assert guided.first_violation_at is not None, \
            "guided search never fired the trap"
        assert guided.violations
        # budget-monitor kinds carry their envelope: BitBudgetMonitor(total=N)
        assert all(
            v["kind"].startswith("BitBudgetMonitor")
            for v in guided.violations
        )
        # pinned seed 0 finds it at execution 53; leave slack for
        # platform-independent-but-future-tuning drift.
        assert guided.first_violation_at <= 120

        uniform = run_search(
            trap_config(0, guided=False), executions=self.BUDGET,
        )
        assert uniform.first_violation_at is None, (
            "uniform sampling found the trap at execution "
            f"{uniform.first_violation_at}; the canary no longer "
            "separates guided from random"
        )
        # the issue's acceptance bar: >= 5x fewer executions.
        assert self.BUDGET >= 5 * (guided.first_violation_at + 1)

    def test_violation_artifact_archived_and_reported(self, tmp_path):
        report = run_search(
            trap_config(0, guided=True, artifact_dir=str(tmp_path)),
            executions=self.BUDGET, stop_on_violation=True,
        )
        assert report.artifacts
        artifact = json.loads(open(report.artifacts[0]).read())
        assert artifact["case"]["protocol"] == "trap"
        assert artifact["violation"]["kind"].startswith("BitBudgetMonitor")
        document = search_document(report)
        deterministic = document["deterministic"]
        assert deterministic["first_violation_at"] == \
            report.first_violation_at
        top = deterministic["outliers"][0]
        assert top["fitness"] == VIOLATION_FITNESS
        assert top["kind"].startswith("BitBudgetMonitor")
        # every outlier row carries ready-made envelope fractions
        # (violations abort before stats are collected, so theirs is 0).
        for entry in deterministic["outliers"]:
            assert "bit_fraction" in entry and "round_fraction" in entry
        # artifact paths are environment, not campaign content:
        assert document["environment"]["artifacts"] == report.artifacts
        assert "artifacts" not in deterministic


# ---------------------------------------------------------------------------
# resume semantics: byte-identical reports
# ---------------------------------------------------------------------------


class TestResume:
    TOTAL = 20
    KILL_AT = 12

    def config(self, **overrides):
        return trap_config(5, True, cells=list(CHEAP_CELLS), batch=4,
                           **overrides)

    def test_killed_then_resumed_is_byte_identical(self, tmp_path):
        uninterrupted = run_search(self.config(), executions=self.TOTAL)

        manifest = str(tmp_path / "campaign.jsonl")
        partial = run_search(
            self.config(), executions=self.KILL_AT, manifest=manifest
        )
        assert partial.executions == self.KILL_AT
        resumed = run_search(
            self.config(), executions=self.TOTAL, manifest=manifest,
            resume=True,
        )
        assert canonical(resumed) == canonical(uninterrupted)
        # the journal now holds every case exactly once:
        assert len(CampaignJournal.open_(manifest)) == self.TOTAL

        # resuming a *complete* journal replays without re-execution
        # and still reports identically:
        replayed = run_search(
            self.config(), executions=self.TOTAL, manifest=manifest,
            resume=True,
        )
        assert canonical(replayed) == canonical(uninterrupted)

    def test_resume_after_torn_tail(self, tmp_path):
        """A crash mid-append costs exactly the torn record: the resumed
        campaign re-executes it and still matches the uninterrupted run."""
        uninterrupted = run_search(self.config(), executions=self.TOTAL)
        manifest = str(tmp_path / "campaign.jsonl")
        run_search(self.config(), executions=self.KILL_AT,
                   manifest=manifest)
        with open(manifest, "ab") as handle:
            handle.write(b'{"kind": "case", "index": 12, "case": {"pro')
        resumed = run_search(
            self.config(), executions=self.TOTAL, manifest=manifest,
            resume=True,
        )
        assert canonical(resumed) == canonical(uninterrupted)

    def test_fresh_run_refuses_to_clobber(self, tmp_path):
        manifest = str(tmp_path / "campaign.jsonl")
        run_search(self.config(), executions=4, manifest=manifest)
        with pytest.raises(FileExistsError, match="resume=True"):
            run_search(self.config(), executions=4, manifest=manifest)

    def test_resume_locks_campaign_configuration(self, tmp_path):
        manifest = str(tmp_path / "campaign.jsonl")
        run_search(self.config(), executions=4, manifest=manifest)
        with pytest.raises(ValueError, match="seed"):
            run_search(
                trap_config(6, True, cells=list(CHEAP_CELLS), batch=4),
                executions=8, manifest=manifest, resume=True,
            )

    def test_format_1_journal_is_refused(self, tmp_path):
        """A ``repro-manifest/1`` journal scored a ladder exhaustion as a
        ``budgeted`` failure; read under today's scoring each such record
        would be a 1,000-fitness violation, so resuming one is refused
        by name instead."""
        manifest = tmp_path / "campaign.jsonl"
        run_search(self.config(), executions=4, manifest=str(manifest))
        header, *records = manifest.read_text().splitlines()
        old = json.loads(header)
        old["format"] = "repro-manifest/1"
        manifest.write_text(
            "\n".join([json.dumps(old), *records]) + "\n"
        )
        with pytest.raises(JournalCorrupt, match="repro-manifest/2"):
            run_search(
                self.config(), executions=8, manifest=str(manifest),
                resume=True,
            )

    def test_resume_detects_foreign_journal(self, tmp_path):
        """Same configuration, different records: a journal whose cases
        do not replan identically is rejected, not silently absorbed."""
        manifest = str(tmp_path / "campaign.jsonl")
        run_search(self.config(), executions=4, manifest=manifest)
        journal = CampaignJournal.open_(manifest)
        record = journal.records[0]
        tampered_case = dict(record.case, seed=record.case["seed"] ^ 1)
        rewritten = CampaignJournal.create(
            str(tmp_path / "foreign.jsonl"), journal.config
        )
        rewritten.append(tampered_case, record.outcome)
        config = self.config()
        engine = SearchEngine(config)
        foreign = CampaignJournal.open_(str(tmp_path / "foreign.jsonl"))
        with pytest.raises(ValueError, match="different campaign"):
            engine.run(4, journal=foreign)


# ---------------------------------------------------------------------------
# worker independence
# ---------------------------------------------------------------------------


class TestWorkerIndependence:
    def test_parallel_campaign_matches_serial(self, tmp_path):
        serial = run_search(
            trap_config(5, True, cells=list(CHEAP_CELLS), batch=4,
                        workers=1),
            executions=12,
        )
        parallel = run_search(
            trap_config(5, True, cells=list(CHEAP_CELLS), batch=4,
                        workers=2),
            executions=12,
        )
        assert canonical(parallel) == canonical(serial)
        assert parallel.workers == 2
