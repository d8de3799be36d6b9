"""What a fresh interpreter loads before its first ``convex_agreement``.

``repro``, ``repro.sim`` and ``repro.analysis`` export lazily (PEP 562):
a submodule is imported when one of its names is first read.  One child
interpreter checks, in this order, that

1. a fuzz artifact's script decodes its ``BitString`` and
   ``MerkleWitness`` payloads when nothing but the wire codec was
   imported (both rows register when their modules load);
2. ``make_inputs`` plus ``convex_agreement`` load at most
   :data:`MODULE_BUDGET` ``repro`` modules, and one default call loads
   none of the harness modules in :data:`HARNESS`;
3. every name in each lazy package's ``__all__`` resolves and is listed
   by ``dir()``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.bitstrings import BitString
from repro.crypto.merkle import MerkleWitness
from repro.sim.fuzz import (
    FuzzFailure,
    failure_to_artifact,
    sample_case_at,
    standard_registry,
)

#: ``repro`` modules ``make_inputs`` + ``convex_agreement`` may load.
MODULE_BUDGET = 40

#: modules one default ``convex_agreement`` call must not load.
HARNESS = (
    *(
        f"repro.sim.{name}"
        for name in (
            "fuzz", "faults", "lossy", "recovery", "supervisor", "parallel",
            "bombs", "invariants", "partial_sync",
        )
    ),
    "repro.aa",
    "repro.asynchrony",
    "repro.authenticated",
    "repro.baselines",
    "repro.analysis.sweeps",
    "repro.core.vector",
)

CHILD = r"""
import json, sys

artifact = json.loads(sys.stdin.read())
from repro.sim.sizing import decode_payload

decoded = [decode_payload(payload) for *_, payload in artifact["script"]]
rows = sorted(type(part).__name__ for payload in decoded for part in payload)

from repro.analysis.experiments import make_inputs
from repro import convex_agreement

loaded = sorted(name for name in sys.modules if name.startswith("repro"))
outcome = convex_agreement(make_inputs(7, 32, seed=0, spread="clustered"))
after_call = set(sys.modules)

unresolved = {}
for package in ("repro", "repro.sim", "repro.analysis"):
    module = sys.modules[package]
    listed = set(dir(module))
    unresolved[package] = [
        name for name in module.__all__
        if name not in listed or getattr(module, name, None) is None
    ]
print(json.dumps({
    "rows": rows,
    "loaded": loaded,
    "after_call": sorted(after_call),
    "value": outcome.value,
    "unresolved": unresolved,
}))
"""


def test_cold_start(tmp_path):
    case = sample_case_at(0, 0, standard_registry())
    payload = (BitString(5, 11), MerkleWitness(3, (b"\x01" * 8, b"\x02" * 8)))
    failure = FuzzFailure(
        case=case, kind="AgreementMonitor", message="as if",
        inputs=[0] * case.n, initial_corruptions=set(),
        script={(0, 1, 2): payload}, adapt_schedule=[],
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(failure_to_artifact(failure)),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout)

    assert seen["rows"] == ["BitString", "MerkleWitness"]
    assert len(seen["loaded"]) <= MODULE_BUDGET, seen["loaded"]
    assert not set(HARNESS) & set(seen["after_call"])
    assert isinstance(seen["value"], int)
    assert seen["unresolved"] == {
        "repro": [], "repro.sim": [], "repro.analysis": []
    }
