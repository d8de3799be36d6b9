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

A second child checks that ``import repro``, ``repro --help`` and
``repro report`` load no numpy (the kernels import it at their first
call), and that a timed ``run_many`` case finds it loaded.
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


CLI_CHILD = r"""
import contextlib, io, json, sys

document = sys.stdin.read()
import repro

numpy_loaded = {"import repro": "numpy" in sys.modules}
from repro.cli import main

codes = {}
for argv in (["--help"], ["report", document]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes[argv[0]] = main(argv)
        except SystemExit as exit:
            codes[argv[0]] = exit.code
    numpy_loaded["repro " + argv[0]] = "numpy" in sys.modules

from repro.sim.parallel import run_many

(timed,) = run_many(lambda _: "numpy" in sys.modules, [None], timeout_s=60)
numpy_loaded["a timed case"] = timed.value
print(json.dumps({"numpy_loaded": numpy_loaded, "codes": codes}))
"""


def _child(script: str, stdin: str) -> dict:
    """Run ``script`` in a fresh interpreter; its stdout as JSON."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    child = subprocess.run(
        [sys.executable, "-c", script], input=stdin,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_cold_start(tmp_path):
    case = sample_case_at(0, 0, standard_registry())
    payload = (BitString(5, 11), MerkleWitness(3, (b"\x01" * 8, b"\x02" * 8)))
    failure = FuzzFailure(
        case=case, kind="AgreementMonitor", message="as if",
        inputs=[0] * case.n, initial_corruptions=set(),
        script={(0, 1, 2): payload}, adapt_schedule=[],
    )
    seen = _child(CHILD, json.dumps(failure_to_artifact(failure)))

    assert seen["rows"] == ["BitString", "MerkleWitness"]
    assert len(seen["loaded"]) <= MODULE_BUDGET, seen["loaded"]
    assert not set(HARNESS) & set(seen["after_call"])
    assert isinstance(seen["value"], int)
    assert seen["unresolved"] == {
        "repro": [], "repro.sim": [], "repro.analysis": []
    }


def test_no_numpy_before_the_first_kernel_call():
    """A timed ``run_many`` case is the exception: an alarm inside
    numpy's import would leave it unloadable, so the engine imports it
    before arming one."""
    document = (
        Path(repro.__file__).resolve().parents[2]
        / "benchmarks" / "BENCH_experiments.json"
    )
    seen = _child(CLI_CHILD, str(document))
    assert seen["codes"] == {"--help": 0, "report": 0}
    assert seen["numpy_loaded"] == {
        "import repro": False,
        "repro --help": False,
        "repro report": False,
        "a timed case": True,
    }
