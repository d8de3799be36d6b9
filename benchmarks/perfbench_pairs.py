"""Alternating parent/change pairs of one perfbench workload.

    python benchmarks/perfbench_pairs.py --base REV --workload NAME \
        [--seed 0] [--pairs 10]          (or: make perfbench-pairs BASE=...)

The method every performance claim here is made with (ROADMAP item 1):
``REV`` is extracted (``git archive``) into a temporary directory and
both trees are byte-compiled; each pair runs that side's *own*
unmodified ``perfbench/run.py`` in driver form (one workload,
``BENCHMARK.json``'s ``run_seconds``, ``--trace 0``) on the base and on
this checkout, alternating which goes first.  Every run, and per
end-to-end metric both medians, both quartile pairs and the pairs the
change won, are printed and written to
``benchmarks/pairs/<base-short-sha>-<workload>-seed<k>.json``: the data
an EXPERIMENTS.md P-section points at.  The held-out seed is a second
call, ``--seed 1``.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SCHEMA = "repro.perfbench_pairs/v1"


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One driver-form run of ``checkout``'s own perfbench."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(DECLARED["run_seconds"]), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    doc = json.loads(done.stdout.splitlines()[-1])
    row = {m["name"]: doc["metrics"][m["name"]]["value"] for m in DECLARED["end_to_end"]}
    return {**row, "failed": doc["failed"], "attempted": doc["attempted"]}


def summarise(runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric: medians, quartiles, ratio, pairs won."""
    metrics = {}
    for metric in DECLARED["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [row[name] for row in rows] for side, rows in runs.items()}
        metrics[name] = {"unit": metric["unit"]}
        for side, values in sides.items():
            low, _, high = quantiles(values, n=4)
            metrics[name][side] = {"median": median(values), "quartiles": [low, high]}
        metrics[name]["change_over_base"] = round(
            median(sides["change"]) / median(sides["base"]), 4)
        metrics[name]["pairs_won"] = sum(
            c != b and (c > b) == higher for b, c in zip(sides["base"], sides["change"]))
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    args = parser.parse_args()

    base = git("rev-parse", "--short", args.base).decode().strip()
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perfbench-base-") as tmp:
        checkouts = {"base": Path(tmp), "change": ROOT}
        with tarfile.open(fileobj=io.BytesIO(git("archive", args.base))) as tar:
            tar.extractall(tmp)
        for checkout in checkouts.values():  # neither side pays compilation in setup_s
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=checkout, check=True)
        for pair in range(args.pairs):
            for side in ("base", "change")[:: 1 if pair % 2 == 0 else -1]:
                runs[side].append(run_once(checkouts[side], args.workload, args.seed))
                print(f"pair {pair} {side:6s} {json.dumps(runs[side][-1])}", flush=True)

    document = {
        "schema": SCHEMA,
        "base": base,
        "head": git("describe", "--always", "--dirty").decode().strip(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": DECLARED["run_seconds"],
        "pairs": args.pairs,
        "runs": runs,
        "metrics": summarise(runs),
        "failed": {side: sum(r["failed"] for r in rows) for side, rows in runs.items()},
    }
    print(f"\n{args.workload} seed {args.seed}: {base} -> this checkout, {args.pairs} pairs")
    for name, metric in document["metrics"].items():
        for side in runs:
            low, high = metric[side]["quartiles"]
            print(f"{name:15s} {side:6s} median {metric[side]['median']:9.3f} "
                  f"quartiles {low:9.3f} .. {high:9.3f} {metric['unit']}")
        print(f"{name:15s} change/base {metric['change_over_base']:.3f}x,"
              f" change better in {metric['pairs_won']} of {args.pairs} pairs")
    print("failed ops:", document["failed"])
    target = ROOT / "benchmarks" / "pairs" / f"{base}-{args.workload}-seed{args.seed}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(document, indent=2) + "\n")
    print(f"written to {target.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
