"""Plumbing checks of the benchmark, driven by its ``--smoke`` mode.

Run with ``python -m pytest perfbench/tests`` (not part of the tier-1
``testpaths``).  Speed is not checked here; names, units, determinism
and the trace's bookkeeping are.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
CA_WORKLOADS = [name for name in WORKLOADS if name != "chaos_campaign"]


def smoke_run(out_dir: Path) -> dict:
    subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke", "--out", str(out_dir)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    (document,) = (p for p in out_dir.glob("*.json") if not p.name.endswith(".trace.json"))
    return json.loads(document.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> tuple[dict, dict]:
    return (
        smoke_run(tmp_path_factory.mktemp("a")),
        smoke_run(tmp_path_factory.mktemp("b")),
    )


def test_every_declared_name_is_emitted_with_its_unit(runs):
    first, _ = runs
    assert sorted(first["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for kind, section in (("end_to_end", "end_to_end"), ("per_layer", "traced")):
            emitted = first["workloads"][workload][section]["metrics"]
            for metric in DECLARED[kind]:
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
                assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
    for workload in WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", workload)


def test_exact_metrics_repeat_across_runs(runs):
    first, second = runs
    for workload in WORKLOADS:
        for kind in ("end_to_end", "traced"):
            ours = first["workloads"][workload][kind]
            theirs = second["workloads"][workload][kind]
            assert ours["output_digest"] == theirs["output_digest"]
            assert ours["failed"] == theirs["failed"] == 0
            assert ours["exact"], "no exact metrics reported"
            for name in ours["exact"]:
                assert ours["metrics"][name] == theirs["metrics"][name], name


def test_compare_accepts_two_runs_of_one_commit(runs, tmp_path):
    paths = []
    for index, run in enumerate(runs):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(run))
    # smoke timings are a couple of samples: only the exact half must hold
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    assert "exact value differs" not in done.stdout
    assert re.search(r"(\d+) of \1 exact values identical", done.stdout)

    other_seed = dict(runs[1], seed=runs[1]["seed"] + 1)
    paths[1].write_text(json.dumps(other_seed))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "refusing to compare" in done.stdout


@pytest.mark.parametrize("workload", CA_WORKLOADS)
def test_layer_bits_sum_to_honest_bits(runs, workload):
    for kind in ("end_to_end", "traced"):
        metrics = runs[0]["workloads"][workload][kind]["metrics"]
        layers = [
            metric["value"] for name, metric in metrics.items()
            if name.endswith(".bits_per_op") and name != "honest_bits_per_op"
        ]
        assert len(layers) == 9
        assert sum(layers) == metrics["honest_bits_per_op"]["value"]
        shares = (
            metrics["paper.dispersal_bits_share"]["value"]
            + metrics["paper.agreement_bits_share"]["value"]
        )
        assert shares == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_channel_label_maps_to_a_layer(runs, workload):
    for kind in ("end_to_end", "traced"):
        metrics = runs[0]["workloads"][workload][kind]["metrics"]
        assert metrics["trace.unmapped_channel_share"]["value"] == 0


def test_driver_form_prints_exactly_the_declared_metrics():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable, str(PERFBENCH / "run.py"), "--smoke",
                "--workload", "small_fleet", "--seed", "3",
                "--seconds", "1", "--trace", str(trace),
            ],
            check=True, capture_output=True, text=True, timeout=120,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED[kind])
        for metric in result["metrics"].values():
            assert sorted(metric) == ["unit", "value"]


def test_kernel_wrappers_are_gone_after_a_traced_op():
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    try:
        from repro.analysis.experiments import make_inputs
        from repro.coding.reed_solomon import ReedSolomonCode
        from repro.crypto import merkle
        from tracing import KERNELS, Recorder, self_times, traced_convex_agreement

        def kernels():
            return (
                merkle.build, merkle.verify,
                ReedSolomonCode.encode, ReedSolomonCode.decode,
            )

        originals = kernels()
        recorder = Recorder()
        inputs = make_inputs(7, 4096, seed=1, spread="clustered")
        outcome = traced_convex_agreement(inputs, 2, recorder)
        assert min(inputs) <= outcome.value <= max(inputs)
        assert all(now is then for now, then in zip(kernels(), originals))
        folded = self_times(recorder.spans)
        assert all(folded["calls"][kernel] > 0 for kernel in KERNELS)
        assert folded["unmapped_steps"] == 0 and folded["labelled_steps"] > 0
    finally:
        del sys.path[:2]
