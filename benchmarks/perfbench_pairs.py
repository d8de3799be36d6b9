"""Alternating parent/change pairs of one perfbench workload.

    python benchmarks/perfbench_pairs.py --base REV --workload NAME \
        [--seed 0] [--pairs 10]          (or: make perfbench-pairs BASE=...)

The method every performance claim here is made with (ROADMAP item 1):
``REV`` is checked out into a temporary ``git worktree``; each pair runs
that side's *own* unmodified ``perfbench/run.py`` in driver form (one
workload, ``BENCHMARK.json``'s ``run_seconds``, ``--trace 0``) on the base
and on this checkout, alternating which goes first.  Prints every run,
then per end-to-end metric both medians, both quartile pairs and the
pairs the change won.  The held-out seed is a second call, ``--seed 1``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perfbench-base-") as tmp:
        checkouts = {"base": Path(tmp) / "base", "change": ROOT}
        subprocess.run(["git", "worktree", "add", "--detach", str(checkouts["base"]), args.base],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            for pair in range(args.pairs):
                for side in ("base", "change")[:: 1 if pair % 2 == 0 else -1]:
                    runs[side].append(run_once(checkouts[side], args.workload, args.seed))
                    print(f"pair {pair} {side:6s} {json.dumps(runs[side][-1])}", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(checkouts["base"])],
                           cwd=ROOT, check=False)

    print(f"\n{args.workload} seed {args.seed}: {args.base} -> this checkout, {args.pairs} pairs")
    for metric in DECLARED["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [row[name] for row in rows] for side, rows in runs.items()}
        for side, values in sides.items():
            low, _, high = quantiles(values, n=4)
            print(f"{name:15s} {side:6s} median {median(values):9.3f} "
                  f"quartiles {low:9.3f} .. {high:9.3f} {metric['unit']}")
        won = sum(c != b and (c > b) == higher for b, c in zip(sides["base"], sides["change"]))
        print(f"{name:15s} change/base {median(sides['change']) / median(sides['base']):.3f}x,"
              f" change better in {won} of {args.pairs} pairs")
    print("failed ops:", {side: sum(r["failed"] for r in rows) for side, rows in runs.items()})


if __name__ == "__main__":
    main()
