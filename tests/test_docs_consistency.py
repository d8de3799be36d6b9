"""Documentation lint: DESIGN/EXPERIMENTS/README reference real artifacts.

Docs that point at renamed files rot silently; these tests keep the
per-experiment index, the traceability matrix, and the README honest.
"""

from __future__ import annotations

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
        """A deleted ``SynchronousNetwork`` method cannot stay documented:
        every backticked ``SynchronousNetwork.<name>``, ``_finish_round*``
        or ``_run_round`` in README, DESIGN and ``docs/*.md`` resolves."""
        from repro.sim.network import SynchronousNetwork

        network = SynchronousNetwork(lambda ctx, v: iter(()), [0], n=1, t=0)
        pattern = re.compile(
            r"`(?:SynchronousNetwork\.(\w+)|(_finish_round\w*|_run_round))\b"
        )
        quoted = {
            (doc.name, qualified or bare)
            for doc in DOCS
            for qualified, bare in pattern.findall(doc.read_text())
        }
        assert ("performance.md", "_run_round") in quoted
        for doc, name in sorted(quoted):
            assert hasattr(network, name), f"{doc} quotes {name}"


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

    def test_quoted_campaign_names_resolve(self):
        """Every backticked ``repro.sim.{fuzz,parallel,search}.<name>``
        in README, DESIGN and ``docs/*.md`` is a real attribute."""
        import importlib

        pattern = re.compile(r"`repro\.sim\.(fuzz|parallel|search)\.(\w+)")
        quoted = {
            (doc.name, module, name)
            for doc in DOCS
            for module, name in pattern.findall(doc.read_text())
        }
        assert ("execution-engine.md", "fuzz", "execute_cases") in quoted
        for doc, module, name in sorted(quoted):
            target = importlib.import_module(f"repro.sim.{module}")
            assert hasattr(target, name), f"{doc} quotes {module}.{name}"


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
