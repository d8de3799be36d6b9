"""perfbench: the repository's benchmark.

Two ways to run it, one code path::

    python perfbench/run.py [--seed S] [--seconds R] [--smoke]
    python perfbench/run.py --workload W --seed S --seconds R --trace 0|1

The first runs all four workloads one after another, each twice: the
end-to-end run with tracing off, then a shorter traced run for the
per-layer numbers.  It prints every metric by name with its unit and
writes ``perfbench/out/<run-id>.json`` plus ``<run-id>.trace.json``.

The second is the form the benchmark driver calls (``BENCHMARK.json``):
one workload, one kind of run, and as the last line of standard output
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
exactly the metrics ``BENCHMARK.json`` declares for that kind of run.

Every measurement happens in a fresh child interpreter (``worker.py``);
this process never imports the program.  All load comes from that one
child: no thread or process pool drives a workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Fresh interpreters set up per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A child that has not finished by then is stuck (the contract allows 180 s).
CHILD_TIMEOUT_S = 170


def spawn(phase: str, workload: str, seed: int, seconds: float, extra: list[str]) -> dict:
    """Run one ``worker.py`` child to completion and return its document."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--phase", phase, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        *extra,
        # last, so as little of this process as possible is counted as set-up
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: {phase} child of {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    smoke: bool = False, spans: bool = False,
) -> dict:
    """One run of one workload: the worker's document, ``setup_s`` folded in."""
    # smoke: the exact prefix only, cut to a couple of samples
    extra = ["--exact-samples", "2", "--warmup-samples", "1"] if smoke else []
    if trace:
        doc = spawn("traced", workload, seed, seconds, [*extra, "--spans", str(int(spans))])
        del doc["setup_s"]
        return doc
    setups = [
        spawn("setup", workload, seed, seconds, extra)["setup_s"]
        for _ in range(0 if smoke else SETUP_REPEATS - 1)
    ]
    doc = spawn("timed", workload, seed, seconds, extra)
    setups.append(doc.pop("setup_s"))
    doc["metrics"]["setup_s"] = {"value": median(setups), "unit": "s"}
    if len(setups) > 1:
        low, _, high = quantiles(setups, n=4)
        doc["metrics"]["setup_s"]["spread"] = (high - low) / median(setups)
    return doc


def contract_line(doc: dict, declared: list[dict]) -> str:
    """The driver's result object: exactly the declared metrics."""
    return json.dumps(
        {
            "correct": doc["failed"] == 0,
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                m["name"]: {key: doc["metrics"][m["name"]][key] for key in ("value", "unit")}
                for m in declared
            },
        }
    )


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_metrics(workload: str, kind: str, doc: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    print(
        f"\n== {workload} / {kind}: {doc['attempted']} ops in {doc['samples']} "
        f"samples, {doc['failed']} failed, exact prefix {doc['exact_samples']} "
        f"samples, output_digest {doc['output_digest'][:16]}"
    )
    for name, metric in doc["metrics"].items():
        tags = []
        if name in bounds:
            tags.append(f"bound {bounds[name]:.0%}")
        if name in doc["exact"]:
            tags.append("exact")
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']:<6} {' '.join(tags)}")


def full_run(seed: int, seconds: float, smoke: bool, out_dir: Path) -> int:
    run_id = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + f"-seed{seed}"
    document = {
        "run_id": run_id,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "git_commit": git_commit(),
        "workloads": {},
    }
    traces = {}
    failed = 0
    for entry in DECLARED["workloads"]:
        name = entry["name"]
        end_to_end = measure(name, seed, seconds, trace=False, smoke=smoke)
        # the pairs get half of a traced run's time and trace every other
        # op, so this traces a tenth of the end-to-end run's ops
        traced = measure(name, seed, seconds * 0.4, trace=True, smoke=smoke, spans=True)
        traces[name] = traced.pop("spans")
        document["env"] = end_to_end.pop("env")
        del traced["env"]
        document["workloads"][name] = {"end_to_end": end_to_end, "traced": traced}
        print_metrics(name, "end to end, tracing off", end_to_end)
        print_metrics(name, "traced", traced)
        failed += end_to_end["failed"] + traced["failed"]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{run_id}.json").write_text(json.dumps(document, indent=1))
    (out_dir / f"{run_id}.trace.json").write_text(
        json.dumps({"columns": ["name", "start", "end", "parent", "op"], "spans": traces})
    )
    print(f"\nwrote {out_dir / run_id}.json and .trace.json")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds input and campaign generation only")
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"],
                        help="program time one run measures")
    parser.add_argument("--workload", choices=[w["name"] for w in DECLARED["workloads"]],
                        help="run this workload only and print the driver's result line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a couple of samples per run: checks the plumbing, not the speed")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: the program is not here ({ROOT / 'src' / 'repro'} is missing)")
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload is None:
        return full_run(args.seed, seconds, args.smoke, args.out)
    doc = measure(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    print(contract_line(doc, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
