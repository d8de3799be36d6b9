"""One workload, one phase, one fresh interpreter (child of ``run.py``).

Phases:

``setup``   set up and exit -- only ``setup_s`` is reported;
``timed``   set up, then the closed single-client loop with tracing off;
``traced``  set up, then untraced/traced pairs of the same op (spans,
            per-layer self times, tracing overhead) and the standalone
            calibrations.

The last line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import DISPERSAL_LAYERS, LAYERS, layer_of, split_by_layer  # noqa: E402
from tracing import FUZZ_SPANS, KERNELS, Recorder, self_times  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


SPREAD_BLOCKS = 5


def timed_call(call, inputs):
    """``call(inputs)`` with its wall time and counter deltas.

    Returns ``(outcome, seconds, counters)``; ``outcome`` is ``None`` when
    the call raised -- a failed op, which must not abort the run.
    """
    from repro.perf import counters

    with counters.capture() as box:
        start = time.perf_counter()
        try:
            outcome = call(inputs)
        except Exception:  # the loop must keep running
            outcome = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return outcome, seconds, box


class Loop:
    """The closed loop: next sample only after the previous one returned."""

    def __init__(self, workload, seed: int, exact_samples: int) -> None:
        self.workload = workload
        self.seed = seed
        self.exact_samples = exact_samples
        self.ledger = Ledger()
        self.samples = 0
        self.attempted = 0
        self.failed = 0

    def next_inputs(self):
        return self.workload.inputs(self.seed, self.samples)

    def account(self, inputs, outcome, box) -> None:
        """Judge one sample (outside its timed span) and fold it in."""
        workload = self.workload
        exact = self.samples < self.exact_samples
        self.samples += 1
        self.attempted += workload.cases_per_sample
        if outcome is None:
            self.failed += workload.cases_per_sample
            return
        self.failed += workload.judge(inputs, outcome, self.ledger if exact else None)
        if exact:
            self.ledger.counters.update(box)


def ledger_metrics(ledger: Ledger, fuzz: bool) -> dict[str, tuple[float, str]]:
    """The deterministic per-op counts of the exact prefix."""
    ops = max(1, ledger.ops)
    count = ledger.counters

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    # ``stats.rounds`` where the op returns stats, the network counter
    # where it does not (a fuzz campaign returns a report).
    rounds = ledger.rounds or count["net_rounds"]
    out = {
        "rounds_per_op": (rounds / ops, "rounds"),
        "sim.network.rounds_per_op": (count["net_rounds"] / ops, "rounds"),
        "sim.network.messages_per_op": (count["net_messages"] / ops, "count"),
        "sim.network.resumes_per_op": (count["sched_resumes"] / ops, "count"),
        "ba.distribution.encode_cache_hit_ratio": (
            ratio(
                count["encode_cache_hit"],
                count["encode_cache_hit"] + count["encode_cache_miss"],
            ),
            "ratio",
        ),
        "sim.wire.guard_checks_per_op": (count["guard_checks"] / ops, "count"),
        "sim.wire.quarantined_ratio": (
            ratio(count["guard_quarantined"], count["guard_checks"]),
            "ratio",
        ),
        "sim.lossy.resyncs_per_op": (count["transport_resyncs"] / ops, "count"),
    }
    if ledger.honest_bits is not None:
        bits = ledger.honest_bits / ops
        out["honest_bits_per_op"] = (bits, "bits")
        out["sim.fuzz.bits_per_case"] = (bits if fuzz else 0.0, "bits")
    for layer, counter in (
        ("crypto", "sha256"),
        ("crypto", "merkle_build"),
        ("crypto", "merkle_verify"),
        ("coding", "rs_encode"),
        ("coding", "rs_decode"),
        ("coding", "gf_matmul"),
        ("coding", "gf_matrix_invert"),
    ):
        out[f"{layer}.{counter}_per_op"] = (count[counter] / ops, "count")

    layer_bits = split_by_layer(ledger.bits_by_channel)
    for layer in LAYERS:
        out[f"{layer}.bits_per_op"] = (layer_bits[layer] / ops, "bits")
    mapped = sum(layer_bits.values())
    dispersal = sum(layer_bits[layer] for layer in DISPERSAL_LAYERS)
    out["paper.dispersal_bits_share"] = (ratio(dispersal, mapped), "ratio")
    out["paper.agreement_bits_share"] = (ratio(mapped - dispersal, mapped), "ratio")
    rounds_seen = sum(ledger.rounds_by_channel.values())
    unmapped_rounds = sum(
        seen
        for label, seen in ledger.rounds_by_channel.items()
        if layer_of(label) is None
    )
    out["trace.unmapped_channel_share"] = (
        ratio(unmapped_rounds, rounds_seen),
        "ratio",
    )
    return out


def percentile(values: list[float], percent: int) -> float:
    return quantiles(values, n=100, method="inclusive")[percent - 1]


def timing_metrics(latencies: list[float], cases_per_sample: int) -> dict:
    return {
        "ops_per_s": (len(latencies) * cases_per_sample / sum(latencies), "ops/s"),
        "latency_ms_p50": (median(latencies) * 1e3, "ms"),
        "latency_ms_p90": (percentile(latencies, 90) * 1e3, "ms"),
        "latency_ms_p99": (percentile(latencies, 99) * 1e3, "ms"),
    }


def run_timed(workload, seed: int, seconds: float, exact_samples: int) -> dict:
    loop = Loop(workload, seed, exact_samples)
    latencies: list[float] = []
    busy = 0.0
    while busy < seconds or loop.samples < exact_samples:
        inputs = loop.next_inputs()
        outcome, took, box = timed_call(workload.run, inputs)
        latencies.append(took)
        busy += took
        loop.account(inputs, outcome, box)
    metrics = timing_metrics(latencies, workload.cases_per_sample)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "MB",
    )
    metrics["failed_share"] = (loop.failed / loop.attempted, "ratio")
    exact = ledger_metrics(loop.ledger, workload.fuzz)
    doc = finish(loop, {**metrics, **exact}, exact_names=sorted(exact))
    # What compare.py calls the spread: each timing metric over five
    # consecutive fifths of the run, scaled to a run five times as long.
    fifth = len(latencies) // SPREAD_BLOCKS
    if fifth >= 10:
        blocks = [
            timing_metrics(latencies[i * fifth:(i + 1) * fifth], workload.cases_per_sample)
            for i in range(SPREAD_BLOCKS)
        ]
        for name in blocks[0]:
            values = [block[name][0] for block in blocks]
            low, _, high = quantiles(values, n=4)
            doc["metrics"][name]["spread"] = (
                (high - low) / median(values) / SPREAD_BLOCKS**0.5
            )
    return doc


def run_traced(
    workload, seed: int, seconds: float, exact_samples: int, keep_spans: bool
) -> dict:
    from calibrate import calibrate

    recorder = Recorder()

    def traced(inputs):
        return workload.run_traced(inputs, recorder)

    loop = Loop(workload, seed, exact_samples)
    plain_s = traced_s = 0.0
    # half the time on the pairs; the calibrations take about a quarter
    while plain_s + traced_s < seconds / 2 or loop.samples < exact_samples:
        inputs = loop.next_inputs()
        _, took, _ = timed_call(workload.run, inputs)
        plain_s += took
        outcome, took, box = timed_call(traced, inputs)
        traced_s += took
        if outcome is None:
            recorder.abandon()
        loop.account(inputs, outcome, box)

    folded = self_times(recorder.spans)
    spent, calls = folded["seconds"], folded["calls"]
    ops = loop.attempted
    metrics = ledger_metrics(loop.ledger, workload.fuzz)
    exact_names = sorted(metrics)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = (spent[layer] / ops * 1e3, "ms")
    for kernel in KERNELS:
        metrics[f"{kernel}.ms_per_op"] = (spent[kernel] / ops * 1e3, "ms")
        metrics[f"{kernel}.us_per_call"] = (
            spent[kernel] / calls[kernel] * 1e6 if calls[kernel] else 0.0,
            "us",
        )
    attributed = sum(spent[name] for name in (*LAYERS, *KERNELS, *FUZZ_SPANS))
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1, "ratio")
    metrics["trace.unattributed_share"] = (1 - attributed / spent["op"], "ratio")
    metrics.update(calibrate(seed, seconds / 40))
    if workload.fuzz:
        # the traced loop ran far more cases than the calibration did
        sample_s, execute_s = (spent[name] for name in FUZZ_SPANS)
        # execute's kernel child spans are part of executing a case
        execute_s += sum(spent[kernel] for kernel in KERNELS)
        metrics["sim.fuzz.sample_us_per_case"] = (sample_s / ops * 1e6, "us")
        metrics["sim.fuzz.execute_ms_per_case"] = (execute_s / ops * 1e3, "ms")
    doc = finish(loop, metrics, exact_names)
    if keep_spans:
        doc["spans"] = recorder.spans
    return doc


def finish(loop: Loop, metrics: dict, exact_names: list[str]) -> dict:
    from repro.perf import config

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "samples": loop.samples,
        "exact_samples": loop.exact_samples,
        "output_digest": loop.ledger.digest.hexdigest(),
        "exact": exact_names,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "env": {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "backend": config.backend(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="the parent's time.monotonic() just before it started this process",
    )
    parser.add_argument("--exact-samples", type=int, default=None)
    parser.add_argument("--warmup-samples", type=int, default=None)
    parser.add_argument("--spans", type=int, default=0)
    args = parser.parse_args()

    # over-powered sampled crash schedules warn once per clipped round;
    # that is the campaign working as designed, not benchmark output.
    warnings.filterwarnings("ignore", category=RuntimeWarning, module="repro")

    workload = WORKLOADS[args.workload]
    warmups = workload.warmup_samples if args.warmup_samples is None else args.warmup_samples
    # warm-up inputs sit below the seed, so they never reappear in the loop
    for index in range(1, warmups + 1):
        workload.run(workload.inputs(args.seed, -index))
    setup_s = time.monotonic() - args.spawned_at

    exact_samples = workload.exact_samples if args.exact_samples is None else args.exact_samples
    if args.phase == "setup":
        doc = {}
    elif args.phase == "timed":
        doc = run_timed(workload, args.seed, args.seconds, exact_samples)
    else:
        # a tenth of the timed run's exact prefix
        doc = run_traced(
            workload, args.seed, args.seconds,
            max(2, exact_samples // 10), bool(args.spans),
        )
    doc["setup_s"] = setup_s
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
