"""Compare two perfbench run documents: ``compare.py A.json B.json``.

A is the baseline, B the candidate.  One row per workload x end-to-end
metric: both values, the change, the bound and a verdict --

``ok``          B is no worse than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  the metric's own spread inside either run is wider than
                the bound, so one pair of runs cannot tell.

Counts that are deterministic for a seed (``exact`` in the documents,
plus ``failed_share`` and ``output_digest``) must be identical.  Exits 1
on any ``worse`` or differing exact value, 2 when the two runs cannot be
compared at all (backend, python, seed, run length or op counts differ).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: End-to-end metrics the run documents carry but ``BENCHMARK.json`` cannot
#: declare (see README, "What BENCHMARK.json declares").  Bound 0: a count
#: that is deterministic for a seed, so any difference is a change.
DOCUMENT_ONLY = (
    {"name": "latency_ms_p90", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    {"name": "honest_bits_per_op", "better": "lower", "bound": 0.0},
    {"name": "rounds_per_op", "better": "lower", "bound": 0.0},
    {"name": "failed_share", "better": "lower", "bound": 0.0},
)


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons the two documents cannot be compared (empty when they can)."""
    reasons = []
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            reasons.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    for key in ("backend", "python"):
        if a["env"][key] != b["env"][key]:
            reasons.append(f"{key}: {a['env'][key]!r} vs {b['env'][key]!r}")
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        reasons.append("different workloads")
        return reasons
    for name, runs in a["workloads"].items():
        for kind, run in runs.items():
            other = b["workloads"][name][kind]
            if run["exact_samples"] != other["exact_samples"]:
                reasons.append(
                    f"{name}/{kind} op count: {run['exact_samples']} vs "
                    f"{other['exact_samples']} exact samples"
                )
    return reasons


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(relative change, verdict)`` for one bounded metric."""
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if not bound:
        return change, "ok" if a["value"] == b["value"] else "worse"
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return change, "unresolved"
    worse_by = change if better == "lower" else -change
    return change, "worse" if worse_by > bound else "ok"


def compare(a: dict, b: dict) -> int:
    status = 0
    print(f"{'workload':<16}{'metric':<20}{'A':>14}{'B':>14}{'change':>9}{'bound':>7}  verdict")
    for name, runs in a["workloads"].items():
        ours = runs["end_to_end"]["metrics"]
        theirs = b["workloads"][name]["end_to_end"]["metrics"]
        for metric in (*DECLARED["end_to_end"], *DOCUMENT_ONLY):
            key = metric["name"]
            if key not in ours:  # a fuzz campaign reports no bits
                continue
            change, word = verdict(ours[key], theirs[key], metric["better"], metric["bound"])
            status |= word == "worse"
            print(
                f"{name:<16}{key:<20}{ours[key]['value']:>14.6g}"
                f"{theirs[key]['value']:>14.6g}{change:>+9.1%}{metric['bound']:>7.0%}  {word}"
            )

    differing = checked = 0
    for name, runs in a["workloads"].items():
        for kind, run in runs.items():
            other = b["workloads"][name][kind]
            pairs = [("output_digest", run["output_digest"], other["output_digest"])]
            pairs += [
                (key, run["metrics"][key]["value"], other["metrics"][key]["value"])
                for key in run["exact"]
            ]
            for key, ours, theirs in pairs:
                checked += 1
                if ours != theirs:
                    differing += 1
                    print(f"exact value differs: {name}/{kind} {key}: {ours} vs {theirs}")
    print(f"{checked - differing} of {checked} exact values identical")
    return 1 if status or differing else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(arg).read_text()) for arg in sys.argv[1:])
    reasons = comparable(a, b)
    if reasons:
        print("refusing to compare:", *reasons, sep="\n  ")
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
