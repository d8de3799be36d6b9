"""F9 -- the mutant catalogue: would the chaos campaign notice a wrong protocol?

The evidence for Agreement and Convex Validity is the chaos campaign
(``repro fuzz``).  This module is the evidence that the campaign would
*notice* if they failed: a catalogue of single-point weakenings of the
real stack, each killed -- or not -- by a uniform fuzz campaign of a
fixed seed and case budget.

A mutant is a ``(path, old, new)`` text patch whose ``old`` occurs
exactly once in ``src/repro/<path>``.  It is applied to a temporary copy
of ``src/``, and the campaign runs in a subprocess whose ``PYTHONPATH``
is that copy.  So a mutant reaches layers no adversary or registry entry
can inject into (``PI_BA+`` inside ``FindPrefix``, the Merkle check
inside the distributing step), and ``src/`` itself is never touched.

The campaign is ``fuzz(runs=BUDGET, seed=SEED, crash=...)``'s, stopped at
its first failure: case ``i`` is ``sample_case_at(SEED, i, ...)`` run by
``run_case_ex`` -- what ``fuzz``'s executor runs -- and the first failing
case is shrunk with ``shrink_failure``, as ``fuzz`` shrinks it.  Each
row of the kill matrix records whether the mutant was killed within the
budget, the index of the first killing case, the monitor that fired
and the size of that case's shrunk byzantine script; everything is a
pure function of the seed, so ``benchmarks/BENCH_mutants.json`` is
diffed at zero tolerance like the other documents.

Survivors are findings, not failures: :data:`SURVIVORS` gives each its
verdict (an equivalent mutant, or a named hole in the adversary library
or the sampler), argued in EXPERIMENTS.md F9.  The tests hold the matrix
to it: the unmutated tree is clean and every other mutant is killed.

    pytest benchmarks/bench_mutants.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.perf.profile import save_document

SRC = Path(__file__).resolve().parents[1] / "src"
JSON_PATH = Path(__file__).with_name("BENCH_mutants.json")

#: the committed campaign: one seed, one case budget, two plane sets.
SEED = 1
BUDGET = 300
PLANES = ("plain", "crash")

#: name -> ``(path under src/repro, old, new)``; ``None`` is the
#: unmutated tree, which must stay clean.
MUTANTS: dict[str, tuple[str, str, str] | None] = {
    "unmutated": None,
    # AddLastBit extends PREFIX* with the party's own bit, not the
    # agreed one (Lemma 2 needs binary BA's agreement).
    "add_last_local_bit": (
        "core/add_last.py",
        "return prefix.append_bit(agreed_bit)",
        "return prefix.append_bit(my_bit)",
    ),
    # PI_N clamps a long value on >= (erratum 1: the paper's line 10).
    "pi_n_clamp_ge": (
        "core/protocol_n.py",
        "    v = v_in\n    if v.bit_length() > ell_est:",
        "    v = v_in\n    if v.bit_length() >= ell_est:",
    ),
    # PI_Z keeps a wrong-signed magnitude (line 2 dropped).
    "pi_z_no_sign_reset": (
        "core/protocol_z.py",
        "        magnitude = 0\n",
        "        pass\n",
    ),
    # PI_Z takes its own sign instead of agreeing on one (line 1 dropped).
    "pi_z_no_sign_ba": (
        "core/protocol_z.py",
        "    sign_out = yield from ba(\n"
        "        ctx, sign_in, BIT_DOMAIN, channel=f\"{channel}/sign\"\n"
        "    )",
        "    sign_out = sign_in",
    ),
    # GetOutput picks a bit received floor(m/2) times, not ceil(m/2).
    "get_output_floor_half": (
        "core/get_output.py",
        "threshold = (m + 1) // 2",
        "threshold = m // 2",
    ),
    # FindPrefix snaps a value below the agreed segment to MAX, not MIN
    # (Remark 2's nearest value on the wrong side).
    "find_prefix_snap_max": (
        "core/find_prefix.py",
        "v = new_prefix.min_fill(ell)",
        "v = new_prefix.max_fill(ell)",
    ),
    # FixedLengthCABlocks with n blocks instead of n^2 (erratum 2: the
    # paper's pseudocode).
    "blocks_n_not_n_squared": (
        "core/fixed_length.py",
        "num_blocks = ctx.n * ctx.n",
        "num_blocks = ctx.n",
    ),
    # HighCostCA trusts one value too many at each end of its interval.
    "high_cost_trim_short": (
        "core/high_cost_ca.py",
        "k = max(0, len(values) - ctx.quorum)",
        "k = max(0, len(values) - ctx.quorum - 1)",
    ),
    # HighCostCA adopts a king value on t votes, not t + 1.
    "high_cost_king_votes_t": (
        "core/high_cost_ca.py",
        "if vote_count >= ctx.t + 1:",
        "if vote_count >= ctx.t:",
    ),
    # PI_lBA+ agrees on the root with Turpin-Coan: intrusion tolerant,
    # but without Bounded Pre-Agreement.
    "turpin_coan_as_ba_plus": (
        "ba/ext_ba_plus.py",
        "    z_star = yield from ba_plus(\n"
        "        ctx, root, channel=f\"{channel}/root\", ba=ba\n"
        "    )",
        "    from .domains import digest_domain\n"
        "    from .turpin_coan import turpin_coan\n"
        "    z_star = yield from turpin_coan(\n"
        "        ctx, root, digest_domain(ctx.kappa),\n"
        "        channel=f\"{channel}/root\", binary_ba=ba,\n"
        "    )",
    ),
    # PI_BA+ Bounded Pre-Agreement votes for values seen n - 2t - 1 times.
    "ba_plus_bpa_minus_one": (
        "ba/ba_plus.py",
        "item[1] >= ctx.pre_agreement",
        "item[1] >= ctx.pre_agreement - 1",
    ),
    # PI_BA+ line 3 counts a value popular on n - t - 1 votes.
    "ba_plus_vote_quorum_minus_one": (
        "ba/ba_plus.py",
        "if item[1] >= ctx.quorum",
        "if item[1] >= ctx.quorum - 1",
    ),
    # Phase-King proposes a value seen n - t - 1 times.
    "phase_king_propose_minus_one": (
        "ba/phase_king.py",
        "if cnt >= ctx.quorum:",
        "if cnt >= ctx.quorum - 1:",
    ),
    # Phase-King keeps a value proposed n - t - 1 times over the king's.
    "phase_king_adopt_minus_one": (
        "ba/phase_king.py",
        "if pcnt >= ctx.quorum:",
        "if pcnt >= ctx.quorum - 1:",
    ),
    # Phase-King takes the king's value without validating it.
    "phase_king_king_unvalidated": (
        "ba/phase_king.py",
        "        if not domain.validate(king_value):\n"
        "            king_value = domain.default\n",
        "",
    ),
    # The distributing step accepts any share: MT.VERIFY skipped.
    "merkle_verify_skipped": (
        "ba/distribution.py",
        "return merkle.verify(kappa, z_star, i, share, witness) or None",
        "return True",
    ),
    # decode_with_check returns the decoded value without re-encoding it.
    "decode_without_reencode": (
        "ba/distribution.py",
        "return (value if root == z_star else None,)",
        "return (value,)",
    ),
}

#: mutants the committed campaign does not kill, with their verdict;
#: EXPERIMENTS.md F9 gives the argument for each.
SURVIVORS: dict[str, str] = {
    "blocks_n_not_n_squared": "equivalent for Agreement and Convex Validity",
    "high_cost_king_votes_t": "hole in the adversary library",
    "ba_plus_vote_quorum_minus_one": "hole in the adversary library",
    "phase_king_propose_minus_one": "hole in the adversary library",
    "phase_king_adopt_minus_one": "hole in the adversary library",
    "phase_king_king_unvalidated": "equivalent",
    "decode_without_reencode": "equivalent inside PI_lBA+",
}

#: one campaign in the mutated tree: prints its row as JSON.
CAMPAIGN = r"""
import json, sys
import repro
from repro.sim.fuzz import (
    run_case_ex, sample_case_at, shrink_failure, standard_registry,
)
root, seed, budget, plane = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
assert repro.__file__.startswith(root), repro.__file__
registry = standard_registry()
row = {"killed": False, "first_kill": None, "monitor": None,
       "protocol": None, "shrunk_script": None}
for index in range(budget):
    case = sample_case_at(seed, index, registry, crash=plane == "crash")
    failure, _ = run_case_ex(case, registry)
    if failure is not None:
        failure = shrink_failure(failure, registry)
        row.update(killed=True, first_kill=index, monitor=failure.kind,
                   protocol=case.protocol, shrunk_script=len(failure.script))
        break
print(json.dumps(row))
"""


def mutated_tree(name: str, workdir: Path) -> Path:
    """A copy of ``src/`` with mutant ``name`` applied; returns its root."""
    root = workdir / name
    shutil.copytree(
        SRC, root, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    patch = MUTANTS[name]
    if patch is not None:
        path, old, new = patch
        target = root / "repro" / path
        text = target.read_text()
        assert text.count(old) == 1, f"{name}: patch site not unique in {path}"
        target.write_text(text.replace(old, new))
    return root


def run_campaign(root: Path, plane: str) -> dict:
    """The committed campaign against the tree at ``root``: its row."""
    completed = subprocess.run(
        [sys.executable, "-c", CAMPAIGN, str(root), str(SEED), str(BUDGET),
         plane],
        env=dict(os.environ, PYTHONPATH=str(root)),
        capture_output=True, text=True, check=False,
    )
    if completed.returncode:
        raise RuntimeError(f"{root.name}: campaign failed\n{completed.stderr}")
    return json.loads(completed.stdout)


def kill_matrix() -> list[dict]:
    """One row per mutant x plane set, in catalogue order."""
    cells = [(name, plane) for name in MUTANTS for plane in PLANES]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {name: mutated_tree(name, Path(tmp)) for name in MUTANTS}
        # two campaigns at a time: one per core of the 2-core CI box.
        with ThreadPoolExecutor(2) as pool:
            rows = list(pool.map(
                lambda cell: run_campaign(trees[cell[0]], cell[1]), cells
            ))
    return [
        {"mutant": name, "plane": plane, **row}
        for (name, plane), row in zip(cells, rows)
    ]


@pytest.fixture(scope="module")
def matrix() -> dict[str, list[dict]]:
    """mutant -> its rows; emits ``BENCH_mutants.json``."""
    rows = kill_matrix()
    save_document({
        "schema": "repro.bench_mutants/v1",
        "experiment": "F9",
        "config": {"seed": SEED, "budget": BUDGET, "planes": list(PLANES)},
        "survivors": SURVIVORS,
        "rows": rows,
    }, str(JSON_PATH))
    by_mutant: dict[str, list[dict]] = {}
    for row in rows:
        by_mutant.setdefault(row["mutant"], []).append(row)
    return by_mutant


def test_unmutated_tree_is_clean(matrix):
    """No plane kills the real stack: a kill below is the mutant's."""
    assert not any(row["killed"] for row in matrix["unmutated"])


def test_every_mutant_but_the_survivors_is_killed(matrix):
    """The committed budget kills every mutant that has no verdict as a
    survivor, and none that has one (a newly killed survivor loses its
    entry in :data:`SURVIVORS` and its EXPERIMENTS.md verdict)."""
    killed = {
        name for name, rows in matrix.items()
        if any(row["killed"] for row in rows)
    }
    assert killed == set(MUTANTS) - set(SURVIVORS) - {"unmutated"}
