"""Execution-trace tests."""

from __future__ import annotations

from repro.core.protocol_z import protocol_z
from repro.sim import broadcast_round, run_protocol
from repro.sim.trace import summarize_trace


def two_phase(ctx, v):
    yield broadcast_round(ctx, "phase_a", v)
    yield broadcast_round(ctx, "phase_b", v * 2)
    return v


class TestTraceRecording:
    def test_disabled_by_default(self):
        result = run_protocol(two_phase, [1] * 4, 4, 1)
        assert result.trace is None

    def test_one_record_per_round(self):
        result = run_protocol(two_phase, [1] * 4, 4, 1, trace=True)
        assert len(result.trace) == result.stats.rounds
        assert [r.channel for r in result.trace] == ["phase_a", "phase_b"]
        assert [r.round_index for r in result.trace] == [0, 1]

    def test_bits_match_stats(self):
        result = run_protocol(two_phase, [1, 2, 3, 4], 4, 1, trace=True)
        assert (
            sum(r.honest_bits for r in result.trace)
            == result.stats.honest_bits
        )
        assert (
            sum(r.honest_messages for r in result.trace)
            == result.stats.honest_messages
        )

    def test_corrupted_snapshot(self):
        result = run_protocol(two_phase, [1] * 4, 4, 1, trace=True)
        assert all(r.corrupted == frozenset({3}) for r in result.trace)

    def test_byzantine_messages_counted(self):
        from repro.sim import ScriptedAdversary

        result = run_protocol(
            two_phase, [1] * 4, 4, 1, trace=True,
            adversary=ScriptedAdversary(lambda *a: 9),
        )
        assert all(r.byzantine_messages == 4 for r in result.trace)

    def test_full_protocol_trace_structure(self):
        """PI_Z's trace starts with the sign BA and the distributing
        steps appear only under find-prefix channels."""
        inputs = [100, 105, 103, 101]
        result = run_protocol(
            lambda ctx, v: protocol_z(ctx, v), inputs, 4, 1, kappa=64,
            trace=True,
        )
        assert result.trace[0].channel.startswith("piZ/sign")
        dist_rounds = [
            r for r in result.trace if "/dist/" in r.channel
        ]
        for record in dist_rounds:
            assert "/fp/" in record.channel or "/root" in record.channel

    def test_summarize_trace(self):
        result = run_protocol(two_phase, [1, 2, 3, 4], 4, 1, trace=True)
        summary = summarize_trace(result.trace)
        assert set(summary) == {"phase_a", "phase_b"}
        assert summary["phase_a"]["rounds"] == 1
        assert summary["phase_a"]["messages"] == 9  # 3 honest x 3 others
        total = sum(entry["bits"] for entry in summary.values())
        assert total == result.stats.honest_bits
