"""The execution engine and its determinism-conformance contract.

Three layers:

1. ``run_many`` mechanics -- ordering, error capture, per-case
   timeouts, crash isolation, transient retries.
2. Seed derivation -- pinned ``derive_seed`` values (the fuzz corpus
   is keyed on these; changing the scheme silently invalidates every
   archived artifact) plus independence properties.
3. Conformance -- the headline guarantee: a campaign or sweep run with
   ``workers=1`` and ``workers=4`` produces identical failure sets,
   identical minimized scripts, and byte-identical JSON artifacts.
4. Engine parity -- one worker *is* the engine: harness errors and
   timeouts are the same recorded ``ExecutionEngine`` incidents at
   every worker count, never verdicts about the case.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.analysis import GridSpec, grid_record, run_grid, sweep_document
from repro.sim import fuzz as fuzz_module
from repro.sim.fuzz import (
    fuzz,
    load_artifact,
    sample_case_at,
    standard_registry,
)
from repro.sim import parallel
from repro.sim.parallel import (
    CaseOutcome,
    derive_seed,
    resolve_workers,
    run_many,
)


from test_fuzz import canary_registry


# ---------------------------------------------------------------------------
# module-level case functions (workers resolve them by qualified name)
# ---------------------------------------------------------------------------


def square(x: int) -> int:
    return x * x


def fail_on_odd(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x


def sleep_for(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def die_on_negative(x: int) -> int:
    if x < 0:
        os._exit(13)  # hard death: not an exception, kills the worker
    return x


def sleep_swallowing_exceptions(seconds: float) -> float:
    """Code under test that catches ``Exception`` around everything, the
    way the simulator does around an honest party's generator."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            time.sleep(0.01)
        except Exception:
            pass
    return seconds


class _SleepsInDel:
    def __del__(self):
        time.sleep(0.3)


def sleep_after_a_slow_finalizer(seconds: float) -> float:
    """The first alarm lands inside ``__del__``, where the interpreter
    prints and discards whatever is raised."""
    _SleepsInDel()
    time.sleep(seconds)
    return seconds


def interrupt(_: int) -> None:
    raise KeyboardInterrupt


def _exploding_build(ell: int):
    raise ValueError("builder exploded")


def raising_registry():
    """A harness bug, not a verdict: ``pi_z``'s factory raises."""
    registry = standard_registry()
    return {
        "pi_n": registry["pi_n"],
        "pi_z": replace(registry["pi_z"], build=_exploding_build),
    }


def sleep_until_flagged(payload: tuple[str, int]) -> int:
    """Times out on the first attempt, returns promptly on the retry."""
    flag, value = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(5.0)
    return value * 10


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


class TestDeriveSeed:
    def test_pinned_values(self):
        """The derivation scheme is a wire format: artifacts and docs
        reference concrete seeds, so the function is pinned exactly."""
        assert derive_seed(0, 0) == 7262142964560316476
        assert derive_seed(0, 1) == 3879412852342684207
        assert derive_seed(0, 2) == 7566327148153535972
        assert derive_seed(1, 0) == 2079183378810927902
        assert derive_seed(42, 7) == 2230503629522432161

    def test_63_bit_range(self):
        for index in range(200):
            seed = derive_seed(3, index)
            assert 0 <= seed < (1 << 63)

    def test_injective_in_practice(self):
        seeds = {derive_seed(s, i) for s in range(20) for i in range(200)}
        assert len(seeds) == 20 * 200

    def test_independent_of_position(self):
        """Case i's seed does not depend on any other case -- the
        property that lets workers compute cases in any order."""
        assert derive_seed(9, 137) == derive_seed(9, 137)
        assert derive_seed(9, 137) != derive_seed(9, 136)
        assert derive_seed(9, 137) != derive_seed(8, 137)


class TestResolveWorkers:
    def test_auto_spellings(self):
        cpus = max(1, os.cpu_count() or 1)
        assert resolve_workers(None) == cpus
        assert resolve_workers("auto") == cpus
        assert resolve_workers(0) == cpus

    def test_explicit_counts(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)
        with pytest.raises(ValueError):
            resolve_workers("nope")


# ---------------------------------------------------------------------------
# run_many mechanics
# ---------------------------------------------------------------------------


class TestRunMany:
    def test_empty(self):
        assert run_many(square, []) == []

    def test_serial_values_in_order(self):
        outcomes = run_many(square, [3, 1, 4, 1, 5])
        assert [o.value for o in outcomes] == [9, 1, 16, 1, 25]
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert all(o.ok for o in outcomes)

    def test_parallel_matches_serial(self):
        payloads = list(range(37))
        serial = run_many(square, payloads, workers=1)
        parallel = run_many(square, payloads, workers=4)
        assert serial == parallel  # elapsed_s is excluded from equality

    def test_errors_are_outcomes_not_exceptions(self):
        outcomes = run_many(fail_on_odd, [0, 1, 2, 3], workers=2)
        assert [o.ok for o in outcomes] == [True, False, True, False]
        failed = outcomes[1]
        assert failed.error_type == "ValueError"
        assert "odd payload 1" in failed.error
        assert failed.value is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_is_recorded(self, workers):
        outcomes = run_many(
            sleep_for, [0.0, 5.0], workers=workers, timeout_s=0.2,
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error_type == "CaseTimeout"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_cannot_be_swallowed_as_an_exception(self, workers):
        """``CaseTimeout`` is a ``BaseException``: an ``except Exception``
        in the code under test cannot spend the alarm and run on."""
        outcomes = run_many(
            sleep_swallowing_exceptions, [0.0, 3.0], workers=workers,
            timeout_s=0.2,
        )
        assert outcomes[0].ok
        assert outcomes[1].error_type == "CaseTimeout"

    @pytest.mark.usefixtures("plain_unraisablehook")
    def test_discarded_alarm_is_followed_by_another(self):
        """The timer repeats: an alarm spent where exceptions are
        discarded does not leave the case running un-timed."""
        (outcome,) = run_many(
            sleep_after_a_slow_finalizer, [3.0], workers=1, timeout_s=0.2
        )
        assert outcome.error_type == "CaseTimeout"
        assert outcome.elapsed_s < 2.0

    def test_keyboard_interrupt_still_propagates(self):
        """The engine turns a case's ``Exception`` and its own alarm into
        outcomes; a ctrl-C is neither and ends the campaign, disarmed."""
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(KeyboardInterrupt):
            run_many(interrupt, [0, 1], workers=1, timeout_s=30.0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == before

    def test_worker_crash_is_isolated(self):
        """A case that kills its process fails alone; the campaign and
        every other case survive."""
        outcomes = run_many(
            die_on_negative, [1, -1, 2, 3], workers=2
        )
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert outcomes[1].error_type == "WorkerCrash"
        assert [o.value for o in outcomes if o.ok] == [1, 2, 3]

    def test_bystanders_of_a_broken_pool_are_not_blamed(self, monkeypatch):
        """Regression (ROADMAP "fix first"): the worst case a loaded
        host can produce, made deterministic -- every pool that holds
        the poison case loses *all* its chunks.  Only a case that died
        alone in its pool may be called ``WorkerCrash``.  Chunks of two
        put each poison case in a chunk with a healthy one (3 and 7),
        as a real campaign's chunks do: the lost chunks must be split
        before the salvage passes."""
        pools = []
        chunk_sizes = []

        def lossy_pool_pass(fn, chunks, workers, timeout_s, outcomes):
            pools.append([index for chunk in chunks for index, _ in chunk])
            chunk_sizes.append([len(chunk) for chunk in chunks])
            if any(x < 0 for chunk in chunks for _, x in chunk):
                return list(chunks)
            outcomes.extend(
                CaseOutcome(index=index, value=fn(x))
                for chunk in chunks for index, x in chunk
            )
            return []

        monkeypatch.setattr(parallel, "_pool_pass", lossy_pool_pass)
        monkeypatch.setattr(
            parallel, "_default_chunksize", lambda cases, workers: 2
        )
        payloads = [1, 2, -1, 3, 4, 5, -2, 6]
        outcomes = run_many(
            die_on_negative, payloads, workers=2
        )
        assert [o.index for o in outcomes] == list(range(len(payloads)))
        assert [o.error_type for o in outcomes] == [
            "WorkerCrash" if x < 0 else None for x in payloads
        ]
        assert [o.value for o in outcomes if o.ok] == [1, 2, 3, 4, 5, 6]
        # The first pass ran chunks of two, so 3 and 7 were lost with
        # the poison cases; both still settled as healthy outcomes.
        assert chunk_sizes[0] == [2, 2, 2, 2]
        assert outcomes[3].value == 3 and outcomes[7].value == 6
        # Both verdicts came from a pool the suspect had to itself.
        assert [2] in pools and [6] in pools

    def test_worker_crash_is_isolated_on_a_loaded_host(self):
        """The same guarantee end to end, with every core kept busy by
        a sibling process (the condition the flaky runs had in common):
        real pools, real ``os._exit``, repeated."""
        burn = "while True: pass"
        siblings = [
            subprocess.Popen([sys.executable, "-c", burn])
            for _ in range(os.cpu_count() or 1)
        ]
        try:
            for _ in range(5):
                outcomes = run_many(
                    die_on_negative, [1, -1, 2, 3], workers=2
                )
                assert [o.error_type for o in outcomes] == [
                    None, "WorkerCrash", None, None
                ]
                assert [o.value for o in outcomes if o.ok] == [1, 2, 3]
        finally:
            for sibling in siblings:
                sibling.kill()
                sibling.wait()

    def test_timeout_from_worker_thread_runs_unguarded(self):
        """``run_many(workers=1, timeout_s=...)`` from a non-main thread
        must not try to install a SIGALRM handler (which only the main
        thread may do); the cases simply run without the alarm guard
        (satellite)."""
        import threading

        collected = {}

        def drive():
            try:
                collected["outcomes"] = run_many(
                    square, [2, 3], workers=1, timeout_s=5.0,
                )
            except Exception as exc:  # signal.signal would raise here
                collected["error"] = exc

        worker = threading.Thread(target=drive)
        worker.start()
        worker.join(timeout=30)
        assert "error" not in collected, collected.get("error")
        assert [o.value for o in collected["outcomes"]] == [4, 9]

    def test_elapsed_excluded_from_equality(self):
        a = CaseOutcome(index=0, value=1, elapsed_s=0.5)
        b = CaseOutcome(index=0, value=1, elapsed_s=123.0)
        assert a == b

    def test_retry_count_excluded_from_equality(self):
        """Whether a retry was *needed* is machine-local noise; the
        settled outcome is what the determinism contract compares."""
        a = CaseOutcome(index=0, value=1, retries=0)
        b = CaseOutcome(index=0, value=1, retries=1)
        assert a == b


# ---------------------------------------------------------------------------
# transient-failure retries (satellite)
# ---------------------------------------------------------------------------


class TestRetries:
    def test_transient_timeout_recovers_in_place(self, tmp_path):
        """A one-off timeout (loaded host) is retried with the same
        payload -- hence the same derived seed -- and the settled
        outcome is the one an undisturbed run would have produced."""
        flag = str(tmp_path / "flag")
        outcomes = run_many(
            sleep_until_flagged, [(flag, 3)], workers=1, timeout_s=0.3,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == 30
        assert outcomes[0].retries == 1

    def test_worker_crash_retry_exhausted_keeps_failure(self):
        """A case that reliably kills its worker stays a WorkerCrash
        after its one retry, with the retry on record."""
        outcomes = run_many(die_on_negative, [1, -1], workers=2)
        assert outcomes[0].ok and outcomes[0].retries == 0
        crash = outcomes[1]
        assert not crash.ok
        assert crash.error_type == "WorkerCrash"
        assert crash.retries == 1

    def test_deterministic_errors_are_not_retried(self):
        """Ordinary exceptions are properties of the case, not the
        environment: retrying them would waste the budget failing
        identically."""
        outcomes = run_many(fail_on_odd, [1, 2], workers=1)
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "ValueError"
        assert outcomes[0].retries == 0
        assert outcomes[1].ok and outcomes[1].retries == 0


# ---------------------------------------------------------------------------
# conformance: fuzz campaigns
# ---------------------------------------------------------------------------


class TestFuzzConformance:
    def test_identical_failures_and_artifacts(self, tmp_path):
        """Same seed, workers=1 vs workers=4: identical cases, identical
        failure sets, identical minimized scripts, byte-identical
        artifact files."""
        dir_serial = tmp_path / "serial"
        dir_parallel = tmp_path / "parallel"
        serial = fuzz(
            runs=12, seed=1, registry_builder=canary_registry,
            artifact_dir=str(dir_serial), workers=1,
        )
        parallel = fuzz(
            runs=12, seed=1, registry_builder=canary_registry,
            artifact_dir=str(dir_parallel), workers=4,
        )

        assert serial.cases == parallel.cases
        assert not serial.clean  # the canary must be caught either way
        assert len(serial.failures) == len(parallel.failures)
        for a, b in zip(serial.failures, parallel.failures):
            assert (a.case, a.kind, a.inputs) == (b.case, b.kind, b.inputs)
            assert a.script == b.script          # same minimized script
            assert a.shrunk == b.shrunk

        names_serial = sorted(p.name for p in dir_serial.iterdir())
        names_parallel = sorted(p.name for p in dir_parallel.iterdir())
        assert names_serial == names_parallel
        for name in names_serial:
            assert (dir_serial / name).read_bytes() == (
                dir_parallel / name
            ).read_bytes()

    def test_clean_campaign_parallel(self):
        report = fuzz(
            runs=10, seed=0, registry_builder=standard_registry, workers=2
        )
        assert report.clean, report.summary()
        assert report.workers == 2
        # the cases are exactly the serial campaign's cases:
        assert report.cases == fuzz(runs=10, seed=0).cases

    def test_sample_case_at_matches_campaign(self):
        registry = standard_registry()
        report = fuzz(runs=6, seed=3)
        for index, case in enumerate(report.cases):
            assert sample_case_at(3, index, registry) == case


# ---------------------------------------------------------------------------
# engine parity: serial is the engine with one worker
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("plain_unraisablehook")
class TestEngineParity:
    def test_harness_error_is_recorded_at_every_worker_count(self):
        """An exception that is not a verdict is an ``ExecutionEngine``
        failure of its case, not the end of the campaign -- the same
        ones whether the case ran inline or in a pool."""
        def lost(workers):
            report = fuzz(
                runs=6, seed=0, workers=workers, shrink=False,
                registry_builder=raising_registry,
            )
            assert len(report.cases) == 6
            return [
                (report.cases.index(f.case), f.kind,
                 f.message.splitlines()[0])
                for f in report.failures
            ]

        serial = lost(1)
        assert serial == lost(2)
        assert serial
        for _, kind, message in serial:
            assert kind == "ExecutionEngine"
            assert "builder exploded" in message

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("timeout_s", [0.0005, 0.01])
    def test_fuzz_timeout_is_an_incident_never_a_verdict(
        self, workers, timeout_s
    ):
        """Wherever the alarm lands -- the first kernel-table build, a
        party's generator, a ballot check -- the case is a counted
        ``CaseTimeout``, not a ``HonestPartyError`` naming it."""
        report = fuzz(
            runs=4, seed=0, workers=workers, case_timeout_s=timeout_s,
            shrink=False,
        )
        assert {f.kind for f in report.failures} <= {"ExecutionEngine"}
        assert all("CaseTimeout" in f.message for f in report.failures)
        assert report.case_timeouts == len(report.failures)
        assert report.retries >= report.case_timeouts
        if timeout_s < 0.001:  # shorter than any case
            assert report.failures

    def test_one_worker_runs_through_the_engine(self, monkeypatch):
        """``fuzz`` reaches ``run_many`` at ``workers=1``, and a
        campaign samples each of its cases exactly once."""
        dispatched, sampled = [], []

        def spy_run_many(fn, payloads, **kwargs):
            dispatched.append((len(payloads), kwargs["workers"]))
            return run_many(fn, payloads, **kwargs)

        def spy_sample_case_at(seed, index, *args, **kwargs):
            sampled.append(index)
            return sample_case_at(seed, index, *args, **kwargs)

        monkeypatch.setattr(fuzz_module, "run_many", spy_run_many)
        monkeypatch.setattr(fuzz_module, "sample_case_at", spy_sample_case_at)
        assert fuzz(runs=3, seed=0, workers=1).clean
        assert dispatched == [(3, 1)]
        assert sampled == [0, 1, 2]

    def test_a_lost_case_is_archived_without_being_rerun(
        self, tmp_path, monkeypatch
    ):
        """Recording counters replays the case in the parent, un-timed
        and un-isolated: a case that hung or killed its worker would
        take the campaign with it at archive time."""
        replays = []
        monkeypatch.setattr(
            fuzz_module, "replay_counters",
            lambda *args, **kwargs: replays.append(args) or {},
        )
        report = fuzz(
            runs=2, seed=0, case_timeout_s=0.0005, shrink=False,
            artifact_dir=str(tmp_path),
        )
        assert len(report.artifacts) == len(report.failures) == 2
        assert not replays
        for path in report.artifacts:
            artifact = load_artifact(path)
            assert artifact["violation"]["kind"] == "ExecutionEngine"
            assert "counters" not in artifact


# ---------------------------------------------------------------------------
# conformance: benchmark sweeps
# ---------------------------------------------------------------------------


class TestSweepConformance:
    SPEC = GridSpec(
        protocol="pi_z", ns=(4, 7), ells=(64, 256), seed=11
    )

    def test_grid_identical_across_worker_counts(self):
        serial = run_grid(self.SPEC, workers=1)
        parallel = run_grid(self.SPEC, workers=2)
        assert [grid_record(m) for m in serial] == [
            grid_record(m) for m in parallel
        ]

    def test_sweep_document_grid_section_is_canonical(self):
        """BENCH_sweep.json serialises to identical canonical JSON
        regardless of worker count: the whole document, since it holds
        no wall clock."""
        documents = [
            sweep_document(self.SPEC, run_grid(self.SPEC, workers=workers))
            for workers in (1, 2)
        ]
        assert set(documents[0]) == {"format", "sweep", "grid"}
        canon = [json.dumps(doc, sort_keys=True) for doc in documents]
        assert canon[0] == canon[1]
