"""Documentation lint: DESIGN/EXPERIMENTS/README reference real artifacts.

Docs that point at renamed files rot silently; these tests keep the
per-experiment index, the traceability matrix, and the README honest.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


#: the prose that quotes code by name: README, DESIGN and ``docs/*.md``.
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_referenced_bench_modules_exist(self):
        text = read("DESIGN.md")
        for match in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_referenced_test_modules_exist(self):
        text = read("DESIGN.md")
        for match in set(re.findall(r"tests/(test_\w+\.py)", text)):
            assert (ROOT / "tests" / match).exists(), match

    def test_every_bench_module_is_indexed(self):
        text = read("DESIGN.md") + read("EXPERIMENTS.md")
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in text, f"{path.name} not documented"

    def test_inventory_mentions_every_subpackage(self):
        text = read("DESIGN.md")
        for package in (ROOT / "src" / "repro").iterdir():
            if package.is_dir() and (package / "__init__.py").exists():
                assert f"repro.{package.name}" in text, package.name

    def test_paper_identity_check_present(self):
        assert "Paper-identity check" in read("DESIGN.md")


class TestExperimentsDoc:
    def test_every_experiment_id_has_a_section(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        ids = set(re.findall(r"\| (T\d|F\d) \|", design))
        assert ids, "experiment index table missing"
        for experiment_id in ids:
            assert f"## {experiment_id}" in experiments, experiment_id

    def test_errata_section_present(self):
        assert "errata" in read("EXPERIMENTS.md").lower()


def _ints(node) -> set[int]:
    """Every integer anywhere inside a JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return set().union(*map(_ints, node)) if node else set()
    return {node} if type(node) is int else set()


class TestExperimentNumbers:
    """EXPERIMENTS.md quotes ``benchmarks/BENCH_*.json``; it does not
    carry numbers of its own."""

    #: documents that hold fields a ``Measurement`` does not.
    EXTRA = {"F7": "BENCH_partition.json", "F8": "BENCH_bombs.json"}

    def sections(self):
        """``(id, body)`` of each ``## T1``-``T6`` / ``## F1``-``F8``."""
        parts = re.split(r"^## ", read("EXPERIMENTS.md"), flags=re.M)
        return [
            (part[:2], part) for part in parts
            if re.match(r"(T[1-6]|F[1-8]) ", part)
        ]

    def test_every_table_integer_is_a_recorded_value(self):
        """A thousands-separated integer in a table row of a T/F section
        is a value of that experiment's recorded rows (a measurement, or
        the ``ell`` it was taken at) -- never a rounded or stale one."""
        bench = ROOT / "benchmarks"
        document = json.loads((bench / "BENCH_experiments.json").read_text())
        sections = self.sections()
        assert len(sections) == 14
        for experiment, body in sections:
            recorded = _ints(document[experiment])
            if experiment in self.EXTRA:
                extra = (bench / self.EXTRA[experiment]).read_text()
                recorded |= _ints(json.loads(extra))
            for row in re.findall(r"^\|.*$", body, flags=re.M):
                for quoted in re.findall(r"\d{1,3}(?:,\d{3})+", row):
                    assert int(quoted.replace(",", "")) in recorded, (
                        f"EXPERIMENTS.md {experiment} quotes {quoted}, which "
                        f"no recorded {experiment} row holds: {row}"
                    )

    def test_pinned_rows(self):
        """The numbers ROADMAP item 8 will move, held at zero tolerance."""
        document = json.loads(
            (ROOT / "benchmarks" / "BENCH_experiments.json").read_text()
        )
        pinned = {
            ("T1", "ell=32768"): (451_782, 22),
            ("T4", "ell=125440"): (2_748_084, 172),
            ("T5", "ell=65536"): (1_590_882, 204),
            ("T6", "n=13"): (184_212, 32),
            ("F1", "pi_z@16384"): (169_434, 284),
            ("F3", "passive"): (365_820, 204),
            ("F3", "KingTargetingAdversary(lie=1099511627776)"):
                (356_846, 204),
            ("F4", "pi_z (exact)"): (144_876, 249),
        }
        for (experiment, label), expected in pinned.items():
            row = document[experiment][label]
            assert (row["bits"], row["rounds"]) == expected, (experiment, label)


def assert_undocumented(gone: str) -> None:
    """No current prose (README, DESIGN, ``docs/*.md``, the verify skill)
    matches ``gone``; CHANGES / EXPERIMENTS / ROADMAP are history."""
    skill = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    for doc in DOCS + ([skill] if skill.exists() else []):
        assert not re.findall(gone, doc.read_text()), doc.name


class TestOneWayToMeasure:
    def test_removed_measuring_knobs_stay_undocumented(self):
        """``repro profile`` is the counter gate only and ``benchmarks/``
        the deterministic experiment suite only: no doc may send a reader
        to the clocks, flags and env var that went with the rest."""
        assert_undocumented(
            r"--no-cprofile|--no-backend-compare|backend_comparison"
            r"|BENCH_WORKERS|--benchmark-only|pytest-benchmark"
        )

    def test_removed_transport_and_ladder_names_stay_undocumented(self):
        """One transport class and one two-rung supervisor: no doc may
        send a reader to the subclass, its hooks, the second ladder, or
        the asynchronous rung and the tolerance it needed."""
        assert_undocumented(
            r"run_with_fallback|PartialSyncTransport|stabilization_time_of"
            r"|_drop_at|_severed_at|fallback_factory"
            r"|allow-budgeted|BUDGETED_FITNESS|unbudgeted_failures"
            r"|_PinnedAsyncCorruptions|_case_epsilon"
        )

    def test_removed_report_paths_and_modules_stay_undocumented(self):
        """``repro report`` renders the committed document and a sweep
        takes no wall clock: no doc may send a reader to the recompute
        path and its scales, the serial speedup, or the modules that had
        no reader outside their own tests."""
        assert_undocumented(
            r"generate_report|--scale|compare-serial|speedup_vs_serial"
            r"|series_chart|ascii_chart|save_measurements|load_measurements"
            r"|run_parallel|parallel_broadcast_ca|fixed_point_ca"
        )

    def test_retired_cost_formulas_and_options_stay_undocumented(self):
        """The paper's bit terms live once, in ``repro.costs``: no doc may
        send a reader to the formulas it replaced, or to the wrapper,
        config class and reader that went with them."""
        assert_undocumented(
            r"paper_bit_budget|paper_round_budget|pi_z_bits_model"
            r"|find_prefix_blocks|RecoveryConfig|FallbackRecord\.from_dict"
        )

    def test_test_only_options_stay_undocumented(self):
        """Options that only tests set are constants now: no doc may
        send a reader to the escalation policy class, the WAL class and
        its checkpoint interval, the backoff cap, the engine's retry
        sleep and chunk size, the cache switch, the hand-written
        decode-matrix LRU or the profile battery's config override.
        (``reset_process_caches()`` stays documented.)"""
        assert_undocumented(
            r"TimeoutEscalation|WriteAheadLog|checkpoint_interval"
            r"|max_backoff|retry_backoff_s|chunksize"
            r"|caches_enabled|config\.caches\(|\bcaches\((?:False|True)\)"
            r"|clear_decode_matrix_cache|_DECODE_MATRIX_CACHE"
            r"|hotpath_document\(configs="
        )

    def test_unreached_mechanisms_stay_undocumented(self):
        """The liveness monitor, the ``wire_bits`` memo, the decode-cache
        environment variable, the unused GF vector kernels, the
        schedule's stabilization time and the adversary-name list had no
        caller: no doc may send a reader to them."""
        assert_undocumented(
            r"LivenessMonitor|memoized_wire_bits|_wire_bits_memo"
            r"|REPRO_DECODE_MATRIX_CACHE_MAX|_cache_cap"
            r"|mul_vec|signature_bits|stabilization_time"
            r"|STANDARD_ADVERSARIES"
        )

    def test_removed_backend_selection_stays_undocumented(self):
        """The kernels have one implementation and numpy is a
        dependency: no doc may send a reader to the environment
        variable, the selection functions, the pool initializer, the
        ``--backend`` flag or the ``numpy`` extra that chose between
        two."""
        assert_undocumented(
            r"REPRO_BACKEND|set_backend|use_backend|reset_backend"
            r"|available_backends|numpy_available|warm_worker|--backend"
            r"|repro\[numpy\]"
        )

    def test_p_sections_point_at_committed_pairs(self):
        """A P-section's data is a ``benchmarks/pairs/`` document: every
        base revision and every file EXPERIMENTS.md names there exists."""
        text = read("EXPERIMENTS.md")
        pairs = ROOT / "benchmarks" / "pairs"
        bases = set(re.findall(r"benchmarks/pairs/([0-9a-f]{7})-", text))
        assert len(bases) >= 7, bases
        for base in bases:
            assert list(pairs.glob(f"{base}-*-seed*.json")), base
        for name in re.findall(r"`([0-9a-f]{7}-\w+-seed\d[\w-]*\.json)`", text):
            assert (pairs / name).exists(), name

    def test_every_ratio_names_its_document(self):
        """A quoted ``N×`` sits in a paragraph that names the
        EXPERIMENTS.md section or the committed ``benchmarks/`` JSON it
        comes from (ROADMAP item 7: every ratio names a document)."""
        ratio = re.compile(r"\d×")
        section = re.compile(r"\b[TFP]\d\b")
        for name in ("README.md", "DESIGN.md", "docs/performance.md"):
            for paragraph in re.split(r"\n\s*\n", read(name)):
                if not ratio.search(paragraph):
                    continue
                documents = re.findall(r"benchmarks/[\w./-]+\.json", paragraph)
                assert section.search(paragraph) or any(
                    (ROOT / path).exists() for path in documents
                ), f"{name}: ratio without a source:\n{paragraph}"


class TestReadme:
    def test_example_table_matches_directory(self):
        text = read("README.md")
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in text, f"{path.name} missing from README"

    def test_architecture_mentions_subpackages(self):
        text = read("README.md")
        for package in (ROOT / "src" / "repro").iterdir():
            if package.is_dir() and (package / "__init__.py").exists():
                assert f"{package.name}/" in text, package.name

    def test_docs_links_resolve(self):
        text = read("README.md")
        for match in set(re.findall(r"\]\((docs/[\w./-]+)\)", text)):
            assert (ROOT / match).exists(), match


class TestNetworkSymbols:
    def test_quoted_network_attributes_exist(self):
        """A deleted ``SynchronousNetwork`` method or ``ExecutionResult``
        field cannot stay documented: every backticked
        ``SynchronousNetwork.<name>``, ``ExecutionResult.<name>``,
        ``_finish_round*`` or ``_run_round`` in README, DESIGN and
        ``docs/*.md`` resolves; the per-plane logs that ``events``
        replaced, and the asynchronous twins of ``Context`` and
        ``ExecutionResult`` with their delivery knob, are named nowhere."""
        from repro.sim.network import SynchronousNetwork

        network = SynchronousNetwork(lambda ctx, v: iter(()), [0], n=1, t=0)
        owners = {
            "SynchronousNetwork": network, "ExecutionResult": network.run()
        }
        pattern = re.compile(
            r"`(?:(SynchronousNetwork|ExecutionResult)\.(\w+)"
            r"|(_finish_round\w*|_run_round))\b"
        )
        quoted = {
            (doc.name, owner or "SynchronousNetwork", name or bare)
            for doc in DOCS
            for owner, name, bare in pattern.findall(doc.read_text())
        }
        assert ("performance.md", "SynchronousNetwork", "_run_round") in quoted
        assert ("fault-model.md", "ExecutionResult", "events") in quoted
        for doc, owner, name in sorted(quoted):
            assert hasattr(owners[owner], name), f"{doc} quotes {owner}.{name}"
        assert_undocumented(
            r"crash_log|quarantine_log|clipped_crashes|\.recoveries"
            r"|AsyncContext|AsyncResult|max_deliveries"
        )

    def test_removed_crash_paths_stay_undocumented(self):
        """A crash window reaches an execution only through the
        adversary: no doc may send a reader to the network's own crash
        schedule, its recovery switch or the adversary that wrapped it."""
        assert_undocumented(r"CrashEvent|CrashRestartAdversary")
        assert_undocumented(r"recovery=True")
        assert_undocumented(r"crashes=\[")


class TestCampaignSymbols:
    def test_deleted_campaign_paths_stay_undocumented(self):
        """The serial fork's entry points and the search's sampler copy
        are gone; no doc may describe the campaign through them."""
        gone = re.compile(
            r"_campaign_worker|_run_campaign_case|_search_worker"
            r"|_sample_in_cell"
        )
        for doc in DOCS:
            assert not gone.findall(doc.read_text()), doc.name

    def test_adversary_search_stays_undocumented(self):
        """The guided search, its journal and its margins are gone
        (uniform fuzz killed the mutant catalogue first): no doc may
        send a reader to them."""
        assert_undocumented(
            r"repro search|run_search|SearchConfig|CampaignJournal"
            r"|EnvelopeMargins|BENCH_search"
        )

    def test_quoted_campaign_names_resolve(self):
        """Every backticked ``repro.sim.{fuzz,parallel}.<name>`` in
        README, DESIGN and ``docs/*.md`` is a real attribute."""
        import importlib

        pattern = re.compile(r"`repro\.sim\.(fuzz|parallel)\.(\w+)")
        quoted = {
            (doc.name, module, name)
            for doc in DOCS
            for module, name in pattern.findall(doc.read_text())
        }
        assert ("execution-engine.md", "fuzz", "execute_cases") in quoted
        for doc, module, name in sorted(quoted):
            target = importlib.import_module(f"repro.sim.{module}")
            assert hasattr(target, name), f"{doc} quotes {module}.{name}"


class TestWireSchemaTable:
    def test_price_table_lists_exactly_the_schema_rows(self):
        """``docs/model.md``'s price table is the wire schema's rows:
        every row's tag appears, and no tag that is not a row.  The
        removed self-pricing hook stays undocumented."""
        import repro  # noqa: F401  (BitString / MerkleWitness register)
        from repro.sim.sizing import OPCODE_MAX_CHARS, WIRE_SCHEMA

        section = read("docs/model.md").split("## Communication accounting")[1]
        section = section.split("\n## ")[0]
        rows = [
            line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")
        ]
        documented = [tag for cell in rows for tag in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(
            row.tag for row in WIRE_SCHEMA.values()
        )
        assert f"up to {OPCODE_MAX_CHARS} characters" in section
        for doc in DOCS:
            assert "WireSized" not in doc.read_text(), doc.name


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "name", ["model.md", "protocol-walkthrough.md", "api.md"]
    )
    def test_doc_exists_and_nonempty(self, name):
        path = ROOT / "docs" / name
        assert path.exists()
        assert len(path.read_text()) > 500

    def test_api_doc_names_real_symbols(self):
        import repro

        text = read("docs/api.md")
        for symbol in re.findall(r"`(\w+)\(ctx", text):
            # every documented protocol generator must be importable
            found = hasattr(repro, symbol)
            if not found:
                import repro.aa
                import repro.authenticated
                import repro.ba
                import repro.baselines
                import repro.core.vector

                found = any(
                    hasattr(module, symbol)
                    for module in (
                        repro.aa, repro.authenticated, repro.ba,
                        repro.baselines, repro.core, repro.core.vector,
                    )
                )
            assert found, f"docs/api.md references unknown symbol {symbol}"


class TestRoundIdiom:
    def test_no_round_helper_is_delegated_to(self):
        """A round is one ``yield``: ``broadcast_round`` and ``exchange``
        return the bundle, so ``yield from`` on one is a ``TypeError`` at
        the party's first round.  No code, example or current prose
        shows that idiom."""
        old = re.compile(r"yield from (?:broadcast_round|exchange)\(")
        code = [
            path
            for folder in ("src", "tests", "examples")
            for path in sorted((ROOT / folder).rglob("*.py"))
        ]
        for path in code + DOCS:
            assert not old.search(path.read_text()), path
