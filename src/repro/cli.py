"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     -- run Convex Agreement on a list of integer inputs under a
  chosen adversary and print the outcome + communication stats.
* ``sweep``   -- sweep one protocol over an ``ns x ells`` grid (optionally
  on a worker pool) and print the measurement table; ``--bench-json``
  emits the machine-readable ``BENCH_sweep.json`` document.
* ``compare`` -- the F1 comparison (PI_Z vs baselines) at chosen sizes.
* ``report``  -- print the committed experiment document
  (``benchmarks/BENCH_experiments.json``) as one table per experiment.
* ``fuzz``    -- chaos campaign: random configs under invariant monitors,
  failing cases shrunk to minimal JSON repro artifacts.
* ``replay``  -- re-execute a fuzz artifact and check it still reproduces.
* ``profile`` -- run the hot-path battery under deterministic operation
  counters and emit ``BENCH_hotpath.json``; ``--check`` diffs the
  counters against a committed baseline at zero tolerance (the CI perf
  gate).  It takes no wall clock: that is ``perfbench/``'s.

Examples::

    python -m repro run -1005 -1004 -1003 --adversary outlier
    python -m repro profile --quick --check benchmarks/BENCH_hotpath.json
    python -m repro sweep --protocol pi_z --n 7 --ells 256,1024,4096
    python -m repro sweep --protocol fixed_length_ca --ns 4,7,10 \
        --ells 256,4096 --workers auto --bench-json BENCH_sweep.json
    python -m repro compare --n 7 --ells 1024,16384
    python -m repro report
    python -m repro fuzz --runs 50 --seed 0 --artifact-dir artifacts
    python -m repro replay artifacts/repro-0-0012.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ReproError
# The adversary classes load with ``import repro`` (the protocol stack
# needs them); every other import sits in the command that uses it, so
# ``repro --help`` loads no harness.
from .sim.adversary import (
    Adversary,
    CrashAdversary,
    EquivocatingAdversary,
    OutlierAdversary,
    PassiveAdversary,
    RandomGarbageAdversary,
    SplitVoteAdversary,
)

__all__ = ["main", "build_parser"]

ADVERSARIES: dict[str, type[Adversary]] = {
    "passive": PassiveAdversary,
    "crash": CrashAdversary,
    "garbage": RandomGarbageAdversary,
    "equivocate": EquivocatingAdversary,
    "outlier": OutlierAdversary,
    "splitvote": SplitVoteAdversary,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from .sim.registry import standard_registry

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Communication-Optimal Convex Agreement (PODC 2024) "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run convex agreement on inputs")
    run.add_argument("inputs", nargs="+", type=int,
                     help="one integer input per party")
    run.add_argument("--t", type=int, default=None,
                     help="corruption bound (default: floor((n-1)/3))")
    run.add_argument("--kappa", type=int, default=128)
    run.add_argument("--adversary", choices=sorted(ADVERSARIES),
                     default="passive")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--channels", action="store_true",
                     help="print the per-channel cost breakdown")
    run.add_argument(
        "--setting", choices=["plain", "authenticated"], default="plain",
        help="plain model (t < n/3) or signatures (t < n/2)",
    )

    sweep = sub.add_parser(
        "sweep", help="sweep a protocol over an ns x ells grid"
    )
    sweep.add_argument("--protocol", choices=sorted(standard_registry()),
                       default="pi_z")
    sweep.add_argument("--n", type=int, default=7)
    sweep.add_argument("--ns", type=_int_list, default=None,
                       help="sweep these party counts (overrides --n)")
    sweep.add_argument("--t", type=int, default=None)
    sweep.add_argument("--ells", type=_int_list, default=[256, 1024, 4096])
    sweep.add_argument("--kappa", type=int, default=128)
    sweep.add_argument("--spread",
                       choices=["spread", "clustered", "identical"],
                       default="clustered")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", default="1",
                       help="worker processes: a count, or 'auto' for all "
                            "cpus (results are identical regardless)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-grid-point wall-clock budget in seconds")
    sweep.add_argument("--bench-json", default=None,
                       help="write the machine-readable sweep document "
                            "(spec + grid) to this path")

    compare = sub.add_parser("compare", help="PI_Z vs the baselines (F1)")
    compare.add_argument("--n", type=int, default=7)
    compare.add_argument("--ells", type=_int_list, default=[1024, 16384])
    compare.add_argument(
        "--protocols", type=_str_list,
        default=["pi_z", "broadcast_ca", "high_cost_ca"],
    )
    compare.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="print the committed experiment document"
    )
    report.add_argument("document", nargs="?",
                        default="benchmarks/BENCH_experiments.json",
                        help="a BENCH_experiments.json document "
                             "(default: %(default)s)")

    fuzz = sub.add_parser(
        "fuzz", help="chaos campaign under invariant monitors"
    )
    fuzz.add_argument("--runs", type=int, default=50,
                      help="number of random cases to execute")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (fully determines every case)")
    fuzz.add_argument("--artifact-dir", default=None,
                      help="directory for shrunk JSON repro artifacts")
    fuzz.add_argument("--protocols", type=_str_list, default=None,
                      help="restrict to these registry protocols")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="keep full failing scripts (skip delta-debugging)")
    fuzz.add_argument("--max-shrink-runs", type=int, default=400,
                      help="replay budget per shrink")
    fuzz.add_argument("--workers", default="1",
                      help="worker processes: a count, or 'auto' for all "
                           "cpus (one executor at any count; the report "
                           "is byte-identical across counts when no "
                           "engine incident -- timeout, lost worker -- "
                           "fired)")
    fuzz.add_argument("--case-timeout", type=float, default=None,
                      help="per-case wall-clock budget in seconds, at any "
                           "worker count; an over-budget case is retried "
                           "once, then becomes a recorded ExecutionEngine "
                           "failure (an engine incident, never a verdict "
                           "about the protocol)")
    fuzz.add_argument("--crash", action="store_true",
                      help="also sample the resilience planes: lossy "
                           "honest links (drop/delay/reorder under the "
                           "round synchronizer) and crash/restart "
                           "windows recovered by WAL replay")
    fuzz.add_argument("--partition", action="store_true",
                      help="additionally sample the partial-synchrony "
                           "axes: GST with pre-GST loss, healing and "
                           "never-healing partitions, link churn -- "
                           "executed through the supervisor's "
                           "escalation ladder; a ladder exhausted by a "
                           "partition that never heals is tallied as "
                           "'exhausted', not failed")
    fuzz.add_argument("--bombs", action="store_true",
                      help="also sample the payload-bomb adversaries "
                           "(oversize blobs, deep nesting, type "
                           "confusion, near-valid mutants) with the "
                           "honest wire guards armed; an honest-party "
                           "crash on hostile input is a shrinkable "
                           "HonestPartyError failure")
    fuzz.add_argument("--backend", choices=["python", "numpy"],
                      default=None,
                      help="pin the GF/RS/Merkle kernel backend for the "
                           "campaign (workers inherit it); results are "
                           "byte-identical either way")
    fuzz.add_argument("--quiet", action="store_true",
                      help="only print the final summary")

    replay = sub.add_parser(
        "replay", help="re-execute a fuzz repro artifact"
    )
    replay.add_argument("artifact", help="path to a repro-fuzz JSON file")
    replay.add_argument("--verify-counters", action="store_true",
                        help="also diff the replay's deterministic "
                             "counter block against the one recorded in "
                             "the artifact; exit 1 on any drift")

    profile = sub.add_parser(
        "profile", help="hot-path battery + deterministic counter gate"
    )
    profile.add_argument("--quick", action="store_true",
                         help="CI-sized config battery (seconds, not "
                              "minutes)")
    profile.add_argument("--output", default=None,
                         help="write BENCH_hotpath.json to this path")
    profile.add_argument("--check", default=None,
                         help="diff deterministic counters against this "
                              "baseline document; exit 1 on any regression")
    profile.add_argument("--backend", choices=["python", "numpy"],
                         default=None,
                         help="pin the kernel backend for the battery "
                              "(default: REPRO_BACKEND or auto)")

    return parser


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _str_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def _cmd_run(args) -> int:
    from .core.api import convex_agreement

    adversary = ADVERSARIES[args.adversary](seed=args.seed)
    if args.setting == "authenticated":
        outcome = _run_authenticated(args, adversary)
    else:
        outcome = convex_agreement(
            args.inputs, t=args.t, kappa=args.kappa, adversary=adversary
        )
    honest = [
        v for i, v in enumerate(args.inputs) if i not in outcome.corrupted
    ]
    print(f"inputs           : {args.inputs}")
    print(f"corrupted parties: {sorted(outcome.corrupted)}")
    print(f"adversary        : {adversary.describe()}")
    print(f"agreed output    : {outcome.value}")
    print(f"honest range     : [{min(honest)}, {max(honest)}]")
    print(f"honest bits sent : {outcome.stats.honest_bits:,}")
    print(f"rounds           : {outcome.stats.rounds}")
    if args.channels:
        print("\nper-channel breakdown (top 15):")
        for channel, bits, msgs in outcome.stats.channel_report()[:15]:
            print(f"  {channel:<44} {bits:>10,} bits {msgs:>7,} msgs")
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import (
        GridSpec,
        format_measurements,
        marginal_slope,
        run_grid,
        save_sweep_document,
        sweep_document,
    )
    from .sim.parallel import resolve_workers

    ns = tuple(args.ns) if args.ns else (args.n,)
    spec = GridSpec(
        protocol=args.protocol,
        ns=ns,
        ells=tuple(args.ells),
        t=args.t,
        kappa=args.kappa,
        seed=args.seed,
        spread=args.spread,
    )
    try:
        measurements = run_grid(
            spec, workers=resolve_workers(args.workers),
            timeout_s=args.timeout,
        )
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    label = (
        f"n={ns[0]}" if len(ns) == 1 else f"ns={','.join(map(str, ns))}"
    )
    print(
        format_measurements(
            measurements,
            title=f"{args.protocol}: bits vs ell ({label})",
        )
    )
    if len(ns) == 1 and len(measurements) >= 2:
        slope = marginal_slope(
            [m.ell for m in measurements], [m.bits for m in measurements]
        )
        print(f"\nmarginal cost: {slope:.1f} bits per extra input bit")
    if args.bench_json:
        path = save_sweep_document(
            sweep_document(spec, measurements), args.bench_json
        )
        print(f"sweep document written to {path}")
    return 0


def _cmd_compare(args) -> int:
    from .analysis import comparison_series, format_measurements, marginal_slope

    series = comparison_series(
        args.protocols, n=args.n, ells=args.ells, seed=args.seed
    )
    for protocol in args.protocols:
        print(format_measurements(series[protocol], title=protocol))
        ms = series[protocol]
        if len(ms) >= 2:
            slope = marginal_slope(
                [m.ell for m in ms], [m.bits for m in ms]
            )
            print(f"marginal slope: {slope:.1f} bits/input-bit\n")
    print(
        f"paper's prediction: ~n={args.n}, ~n^2={args.n ** 2}, "
        f"~n^3={args.n ** 3}"
    )
    return 0


def _cmd_report(args) -> int:
    from .analysis import EXPERIMENTS_SCHEMA, format_experiments

    try:
        with open(args.document) as handle:
            document = json.load(handle)
        schema = (
            document.get("schema") if isinstance(document, dict) else None
        )
        if schema != EXPERIMENTS_SCHEMA:
            raise ValueError(
                f"schema {schema!r}, expected {EXPERIMENTS_SCHEMA!r}"
            )
        text = format_experiments(
            {key: rows for key, rows in document.items() if key != "schema"}
        )
    except (OSError, ValueError, LookupError, TypeError,
            AttributeError) as error:
        # a missing file, invalid JSON, another schema or a malformed
        # record: path + reason, exit 2, no traceback.
        print(f"error: cannot read experiment document {args.document}: "
              f"{error}", file=sys.stderr)
        return 2
    print(f"{args.document} (re-measured by: pytest benchmarks/ -q)\n")
    print(text)
    return 0


def _cmd_fuzz(args) -> int:
    from .perf import config as perf_config
    from .sim.fuzz import fuzz

    if args.backend is not None:
        try:
            perf_config.set_backend(args.backend)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    try:
        report = fuzz(
            runs=args.runs,
            seed=args.seed,
            protocols=args.protocols,
            artifact_dir=args.artifact_dir,
            shrink=not args.no_shrink,
            max_shrink_runs=args.max_shrink_runs,
            workers=args.workers,
            case_timeout_s=args.case_timeout,
            crash=args.crash,
            partition=args.partition,
            bombs=args.bombs,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        for index, case in enumerate(report.cases):
            print(f"[{index + 1}/{args.runs}] {case.describe()}")
    print(report.summary())
    return 0 if report.clean else 1


def _cmd_replay(args) -> int:
    import warnings as warnings_module

    from .sim.fuzz import load_artifact, replay_artifact, replay_counters

    try:
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            artifact = load_artifact(args.artifact)
    except FileNotFoundError:
        print(f"error: no such artifact: {args.artifact}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as error:
        # truncated/corrupt JSON and stale-schema artifacts both land
        # here: path + reason, exit 2, no traceback.
        print(
            f"error: cannot load artifact {args.artifact}: {error}",
            file=sys.stderr,
        )
        return 2
    for warning in caught:
        print(f"warning  : {warning.message}")
    case = artifact["case"]
    print(f"artifact : {args.artifact}")
    print(f"case     : {case['protocol']} n={case['n']} t={case['t']} "
          f"ell={case['ell']} seed={case['seed']}")
    faults = case.get("faults", {})
    if (
        faults.get("gst") is not None
        or faults.get("partitions")
        or faults.get("link_churn")
    ):
        print(f"psync    : gst={faults.get('gst')} "
              f"partitions={len(faults.get('partitions') or ())} "
              f"churn={len(faults.get('link_churn') or ())}")
    print(f"recorded : {artifact['violation']['message']}")
    try:
        outcome = replay_artifact(artifact)
    except KeyError:
        print(f"error    : protocol {case['protocol']!r} is not in the "
              "standard registry (artifact from a custom registry?)")
        return 2
    except ReproError as error:
        print(f"error    : inconsistent artifact: {error}")
        return 2
    if outcome.violated:
        print(f"replayed : {outcome.message}")
    else:
        print("replayed : no violation")
    if not outcome.matches(artifact):
        print("verdict  : DID NOT REPRODUCE")
        return 1
    if args.verify_counters:
        recorded = artifact.get("counters")
        if recorded is None:
            print("counters : none recorded in artifact "
                  "(re-save with a current toolchain)")
            return 2
        observed = replay_counters(artifact)
        drift = {
            name: (recorded.get(name, 0), observed.get(name, 0))
            for name in sorted(set(recorded) | set(observed))
            if recorded.get(name, 0) != observed.get(name, 0)
        }
        if drift:
            print("counters : DRIFT DETECTED")
            for name, (was, now) in drift.items():
                print(f"  {name:<20} recorded {was:>12,} now {now:>12,}")
            return 1
        print(f"counters : {len(recorded)} counter(s) verified")
    print("verdict  : REPRODUCED")
    return 0


def _cmd_profile(args) -> int:
    from .perf import config as perf_config
    from .perf import profile as perf_profile

    try:
        document = perf_profile.hotpath_document(
            quick=args.quick, backend=args.backend
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"hot-path battery ({'quick' if args.quick else 'full'}, "
          f"backend={args.backend or perf_config.backend()}):")
    for key, entry in document["deterministic"].items():
        ops = entry["counters"]
        print(
            f"  {key:<52} "
            f"{entry['bits']:>10,} bits {entry['rounds']:>6,} rounds  "
            f"sha256={ops.get('sha256', 0):,}"
        )
    if args.output:
        path = perf_profile.save_document(document, args.output)
        print(f"\nbenchmark document written to {path}")
    if args.check:
        try:
            baseline = perf_profile.load_document(args.check)
        except FileNotFoundError:
            print(f"error: no baseline at {args.check}", file=sys.stderr)
            return 2
        errors, notes = perf_profile.check_counters(document, baseline)
        for note in notes:
            print(f"note: {note}")
        for error in errors:
            print(f"REGRESSION: {error}", file=sys.stderr)
        if errors:
            return 1
        print(
            f"\ncounter gate: {len(document['deterministic'])} config(s) "
            f"match the baseline ({args.check})"
        )
    return 0


def _run_authenticated(args, adversary):
    from .authenticated import authenticated_ca
    from .core.api import ConvexAgreementOutcome
    from .crypto.signatures import SignatureScheme
    from .sim.network import run_protocol

    n = len(args.inputs)
    t = args.t if args.t is not None else (n - 1) // 2
    scheme = SignatureScheme(args.kappa, n)
    execution = run_protocol(
        lambda ctx, v: authenticated_ca(ctx, v, scheme),
        args.inputs, n=n, t=t, kappa=args.kappa, adversary=adversary,
    )
    return ConvexAgreementOutcome(
        value=execution.common_output(), execution=execution
    )


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "fuzz": _cmd_fuzz,
    "replay": _cmd_replay,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
