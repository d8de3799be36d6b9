"""Outside-in tracing: spans recorded around calls into each layer.

Nothing under ``src/`` is instrumented.  For a ``convex_agreement`` op
the benchmark builds the ``SynchronousNetwork`` exactly as
``run_protocol`` does and drives the public ``begin()`` / ``step()`` /
``finish()`` API itself, one span per ``step()``; the kernel child
spans come from wrapping four public kernel entry points for the
duration of one traced op.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for an op span) and ``op`` the index of the op
the span belongs to.  Times are ``time.perf_counter()`` seconds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from layers import LAYERS, layer_of

SILENT = "<silent>"
FUZZ_SPANS = ("sim.fuzz.sample", "sim.fuzz.execute")

#: The kernel child spans, named after the layer entry point they wrap.
KERNELS = (
    "coding.rs_encode",
    "coding.rs_decode",
    "crypto.merkle_build",
    "crypto.merkle_verify",
)


class Recorder:
    """In-memory span store with an open-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self._op += 1
        self._stack.append(index)
        span = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(span)
        # clock read last on open and first on close, so the recorder's
        # own bookkeeping falls outside the span.
        span[1] = perf_counter()
        return index

    def close(self, index: int, name: str | None = None) -> None:
        now = perf_counter()
        span = self.spans[index]
        span[2] = now
        if name is not None:
            span[0] = name
        self._stack.pop()

    def abandon(self) -> None:
        """Close every open span: the traced call raised part-way."""
        while self._stack:
            self.close(self._stack[-1])


def _spanned(function, name: str, recorder: Recorder):
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


@contextmanager
def kernel_spans(recorder: Recorder) -> Iterator[None]:
    """Wrap the four kernel entry points; restore the originals on exit.

    Their call sites resolve them by attribute at call time
    (``code.encode(...)``, ``merkle.build(...)``), so swapping the
    attribute is enough.
    """
    from repro.coding.reed_solomon import ReedSolomonCode
    from repro.crypto import merkle

    targets = (
        (ReedSolomonCode, "encode"),
        (ReedSolomonCode, "decode"),
        (merkle, "build"),
        (merkle, "verify"),
    )
    originals = [getattr(owner, attr) for owner, attr in targets]
    for (owner, attr), original, name in zip(targets, originals, KERNELS):
        setattr(owner, attr, _spanned(original, name, recorder))
    try:
        yield
    finally:
        for (owner, attr), original in zip(targets, originals):
            setattr(owner, attr, original)


def traced_convex_agreement(inputs: list[int], t: int, recorder: Recorder):
    """One ``convex_agreement(inputs, t=t)`` op, stepped from outside."""
    from repro.ba.phase_king import phase_king
    from repro.core.api import ConvexAgreementOutcome
    from repro.core.protocol_z import protocol_z
    from repro.sim.network import SynchronousNetwork

    with kernel_spans(recorder):
        op = recorder.open("op")
        # the arguments convex_agreement -> run_protocol pass by default
        network = SynchronousNetwork(
            protocol_factory=lambda ctx, v: protocol_z(ctx, v, ba=phase_king),
            inputs=list(inputs),
            n=len(inputs),
            t=t,
            kappa=128,
            max_rounds=200_000,
        )
        labels = network.channel_trace
        network.begin()
        more = True
        while more:
            step = recorder.open("step")
            seen = len(labels)
            more = network.step()
            recorder.close(step, labels[-1] if len(labels) > seen else SILENT)
        execution = network.finish()
        outcome = ConvexAgreementOutcome(
            value=execution.common_output(), execution=execution
        )
        recorder.close(op)
    return outcome


@dataclass
class TracedCampaign:
    """What ``judge`` reads off a ``FuzzReport``, plus the cases' bits."""

    cases: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    bits: int = 0


def traced_campaign(runs: int, campaign_seed: int, recorder: Recorder) -> TracedCampaign:
    """The cases of ``fuzz(runs, campaign_seed, crash=True, bombs=True)``."""
    from repro.sim.fuzz import run_case_ex, sample_case_at, standard_registry

    registry = standard_registry()
    campaign = TracedCampaign()
    for index in range(runs):
        with kernel_spans(recorder):
            op = recorder.open("op")
            span = recorder.open(FUZZ_SPANS[0])
            case = sample_case_at(
                campaign_seed, index, registry, crash=True, bombs=True
            )
            recorder.close(span)
            span = recorder.open(FUZZ_SPANS[1])
            failure, stats = run_case_ex(case, registry)
            recorder.close(span)
            recorder.close(op)
        campaign.cases.append(case)
        campaign.bits += stats.bits
        if failure is not None:
            campaign.failures.append(failure)
    return campaign


def self_times(spans: list[list]) -> dict:
    """Fold spans into per-name self time.

    A span's self time is its duration minus the part its child spans
    cover.  Step spans are keyed by the layer owning their label.
    Returns seconds per key, plus call counts for the kernel spans.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    seconds = dict.fromkeys((*LAYERS, *KERNELS, *FUZZ_SPANS), 0.0)
    seconds.update({"op": 0.0, "unmapped": 0.0})
    calls = dict.fromkeys(KERNELS, 0)
    steps = unmapped_steps = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        own = end - start - covered[index]
        if parent == -1:
            seconds["op"] += end - start
        elif name in calls:
            calls[name] += 1
            seconds[name] += own
        elif name in FUZZ_SPANS:
            seconds[name] += own
        elif name == SILENT:
            seconds["unmapped"] += own
        else:
            steps += 1
            owner = layer_of(name)
            if owner is None:
                unmapped_steps += 1
                seconds["unmapped"] += own
            else:
                seconds[owner] += own
    return {
        "seconds": seconds,
        "calls": calls,
        "labelled_steps": steps,
        "unmapped_steps": unmapped_steps,
    }
