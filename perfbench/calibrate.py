"""Standalone calibrations: calls into one layer only.

Each number isolates a simulator cost that the workloads pay many times
per op, so a change to that layer shows here before it shows end to end.
Every calibration repeats inside a time box and reports its median.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

ECHO_ROUNDS = 200
DISPATCH_CASES = 256
FUZZ_CASES = 12


def echo(ctx, value):
    """All-to-all echo: n*n messages a round, no protocol work."""
    from repro.sim.party import Outgoing

    for _ in range(ECHO_ROUNDS):
        yield Outgoing("echo", dict.fromkeys(ctx.all_parties, value))
    return value


def noop(payload):
    """Trivial ``run_many`` case (module level, so workers can import it)."""
    return payload


def _median_seconds(call, budget_s: float) -> float:
    """Median wall time of ``call()``, repeated for ``budget_s`` (>= 3 calls)."""
    samples = []
    deadline = perf_counter() + budget_s
    while len(samples) < 3 or perf_counter() < deadline:
        start = perf_counter()
        call()
        samples.append(perf_counter() - start)
    return median(samples)


def calibrate(seed: int, budget_s: float) -> dict[str, tuple[float, str]]:
    """Run every calibration; ``budget_s`` is the time box of each.

    Returns ``{metric name: (value, unit)}``.
    """
    from repro.coding.reed_solomon import rs_code
    from repro.crypto import merkle
    from repro.sim import CrashAdversary, run_protocol
    from repro.sim.fuzz import run_case_ex, sample_case_at, standard_registry
    from repro.sim.invariants import default_monitors
    from repro.sim.parallel import run_many
    from repro.sim.sizing import bit_size

    out: dict[str, tuple[float, str]] = {}

    def null_round(n: int, t: int, **general) -> float:
        seconds = _median_seconds(
            lambda: run_protocol(echo, [0] * n, n=n, t=t, **general), budget_s
        )
        return seconds / ECHO_ROUNDS

    round_n7 = null_round(7, 2)
    round_n16 = null_round(16, 5)
    out["sim.network.null_round_us_n7"] = (round_n7 * 1e6, "us")
    out["sim.network.null_round_us_n16"] = (round_n16 * 1e6, "us")
    # marginal cost of one more message in a round
    out["sim.network.null_msg_ns"] = (
        (round_n16 - round_n7) / (16**2 - 7**2) * 1e9,
        "ns",
    )
    general = null_round(7, 2, adversary=CrashAdversary(), monitors=default_monitors())
    out["sim.network.null_round_us_n7_general"] = (general * 1e6, "us")

    # the three payload shapes the pricing loop sees most
    shares = rs_code(7, 5).encode(bytes(range(256)) * 16)
    _, witnesses = merkle.build(128, shares)
    payloads = [(1 << 127) + 12345, shares[0], (0, shares[0], witnesses[0])]
    batch = 1000

    def price() -> None:
        for _ in range(batch):
            for payload in payloads:
                bit_size(payload)

    out["sim.sizing.bit_size_ns"] = (
        _median_seconds(price, budget_s) / (batch * len(payloads)) * 1e9,
        "ns",
    )

    cases = list(range(DISPATCH_CASES))
    for workers in (1, 2):
        seconds = _median_seconds(
            lambda: run_many(noop, cases, workers=workers), budget_s
        )
        out[f"sim.parallel.dispatch_us_per_case_w{workers}"] = (
            seconds / DISPATCH_CASES * 1e6,
            "us",
        )

    registry = standard_registry()

    def sample():
        return [
            sample_case_at(seed, index, registry, crash=True, bombs=True)
            for index in range(FUZZ_CASES)
        ]

    out["sim.fuzz.sample_us_per_case"] = (
        _median_seconds(sample, budget_s) / FUZZ_CASES * 1e6,
        "us",
    )
    sampled = sample()
    execute_s = _median_seconds(
        lambda: [run_case_ex(case, registry) for case in sampled], budget_s
    )
    out["sim.fuzz.execute_ms_per_case"] = (execute_s / FUZZ_CASES * 1e3, "ms")
    return out
