"""The four workloads: what one sample runs and how its output is judged.

A *sample* is one timed call into the program; it covers
``cases_per_sample`` ops (one ``convex_agreement`` call, or the cases of
one ``fuzz`` campaign).  The program receives only the generated inputs;
everything is called with its default arguments.

``repro`` is imported inside the methods, never at module scope: the
import is part of the set-up time the benchmark reports.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from tracing import Recorder, traced_campaign, traced_convex_agreement


@dataclass
class Ledger:
    """Deterministic accounting of the exact prefix of a run.

    A run is timed for a fixed number of seconds, so the number of
    samples differs from run to run; the first ``exact_samples`` of them
    are always executed, and only they feed the ledger.  Same seed, same
    ledger, on any machine.
    """

    ops: int = 0
    #: ``None`` when the ops return no bit count (a ``FuzzReport``).
    honest_bits: int | None = None
    rounds: int = 0
    bits_by_channel: Counter = field(default_factory=Counter)
    rounds_by_channel: Counter = field(default_factory=Counter)
    #: ``repro.perf.counters`` deltas over the prefix.
    counters: Counter = field(default_factory=Counter)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fold_stats(self, stats, channel_trace) -> None:
        self.honest_bits = (self.honest_bits or 0) + stats.honest_bits
        self.rounds += stats.rounds
        self.bits_by_channel.update(stats.bits_by_channel)
        self.rounds_by_channel.update(channel_trace)


@dataclass(frozen=True)
class ConvexAgreementWorkload:
    """``convex_agreement(inputs, t=t)`` on one input shape."""

    name: str
    n: int
    t: int
    ell: int
    spread: str
    exact_samples: int
    cases_per_sample: int = 1
    warmup_samples: int = 3
    fuzz: ClassVar[bool] = False

    def inputs(self, seed: int, index: int) -> list[int]:
        from repro.analysis.experiments import make_inputs

        return make_inputs(self.n, self.ell, seed=seed + index, spread=self.spread)

    def run(self, inputs: list[int]):
        from repro import convex_agreement

        return convex_agreement(inputs, t=self.t)

    def run_traced(self, inputs: list[int], recorder: Recorder):
        return traced_convex_agreement(inputs, self.t, recorder)

    def judge(self, inputs: list[int], outcome, ledger: Ledger | None) -> int:
        """Oracle: Agreement and Convex Validity.  Returns failed ops."""
        honest = [p for p in range(self.n) if p not in outcome.corrupted]
        outputs = [outcome.outputs.get(p) for p in honest]
        low = min(inputs[p] for p in honest)
        high = max(inputs[p] for p in honest)
        value = outputs[0]
        ok = (
            isinstance(value, int)
            and all(out == value for out in outputs)
            and low <= value <= high
        )
        if ledger is not None:
            ledger.ops += 1
            execution = outcome.execution
            ledger.fold_stats(execution.stats, execution.channel_trace)
            # to_bytes, not str(): ell is up to 2**21 bits and CPython
            # refuses decimal conversion of ints that long.
            size = (outcome.value.bit_length() + 8) // 8
            ledger.digest.update(outcome.value.to_bytes(size, "big", signed=True))
        return 0 if ok else 1


@dataclass(frozen=True)
class ChaosCampaignWorkload:
    """``fuzz(runs, seed, crash=True, bombs=True)``: one chaos campaign."""

    name: str
    cases_per_sample: int
    exact_samples: int
    warmup_samples: int = 3
    fuzz: ClassVar[bool] = True

    def inputs(self, seed: int, index: int) -> int:
        return seed + index

    def run(self, campaign_seed: int):
        from repro.sim.fuzz import fuzz

        return fuzz(
            runs=self.cases_per_sample, seed=campaign_seed, crash=True, bombs=True
        )

    def run_traced(self, campaign_seed: int, recorder: Recorder):
        return traced_campaign(self.cases_per_sample, campaign_seed, recorder)

    def judge(self, campaign_seed: int, report, ledger: Ledger | None) -> int:
        """Every case ran under the full monitor stack inside ``fuzz``."""
        if ledger is not None:
            ledger.ops += len(report.cases)
            if hasattr(report, "bits"):  # the traced campaign, not FuzzReport
                ledger.honest_bits = (ledger.honest_bits or 0) + report.bits
            ledger.digest.update(
                json.dumps(
                    [
                        [case.to_dict() for case in report.cases],
                        [failure.kind for failure in report.failures],
                    ],
                    sort_keys=True,
                ).encode()
            )
        return len(report.failures)


#: ``exact_samples`` is sized to about 40% of what a 20 s run completes
#: on the 2-core reference box, so a run on a machine twice as slow
#: still ends on time.
WORKLOADS = {
    w.name: w
    for w in (
        ConvexAgreementWorkload(
            "small_fleet", n=7, t=2, ell=32, spread="clustered", exact_samples=500
        ),
        ConvexAgreementWorkload(
            "wide_committee", n=16, t=5, ell=256, spread="spread", exact_samples=60
        ),
        ConvexAgreementWorkload(
            "long_value", n=7, t=2, ell=1 << 21, spread="clustered", exact_samples=50
        ),
        ChaosCampaignWorkload(
            "chaos_campaign", cases_per_sample=8, exact_samples=40
        ),
    )
}
