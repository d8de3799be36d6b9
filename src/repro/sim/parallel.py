"""Process-pool execution engine for sweeps, fuzz campaigns, benchmarks.

Every driver that fans out *independent* protocol executions -- fuzz
cases, benchmark grid points, exhaustive small-n strategy
enumerations -- funnels through :func:`run_many` at every worker count
(one worker runs the per-case guard inline, more run it in a chunked
:class:`~concurrent.futures.ProcessPoolExecutor`), so results are, by
construction, **byte-identical across worker counts**:

* **Deterministic seed derivation.**  Case ``i`` of a campaign with
  seed ``s`` is seeded with ``derive_seed(s, i) = H(s, i)`` (SHA-256),
  never with a position in a shared RNG stream.  Any case can therefore
  be recomputed in isolation, on any worker, in any order.
* **Order-independent collection.**  Workers may finish in any order;
  outcomes are reassembled by case index before being returned.
* **Crash + timeout isolation.**  A case that raises is captured as a
  failed :class:`CaseOutcome`; a case that exceeds ``timeout_s`` is
  interrupted (``SIGALRM``) and recorded as a timeout; a worker process
  that dies outright (segfault, ``os._exit``) fails only its chunk --
  the pool is rebuilt and the campaign continues.  Both are *engine
  incidents*, never verdicts about the case: :class:`CaseTimeout` is a
  ``BaseException``, so no ``except Exception`` under test can file it.

The engine deliberately accepts only *module-level* callables and
picklable payloads: that restriction is what makes a case a pure
function of ``(fn, payload)`` and hence reproducible anywhere.

Usage::

    from repro.sim.parallel import run_many

    outcomes = run_many(measure_case, jobs, workers="auto")
    results = [o.value for o in outcomes if o.ok]
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

__all__ = [
    "CaseOutcome",
    "CaseTimeout",
    "derive_seed",
    "resolve_workers",
    "run_many",
]


def derive_seed(campaign_seed: int, index: int) -> int:
    """Per-case seed ``H(campaign_seed, case_index)`` (63-bit).

    Hash-derived (rather than drawn from a shared RNG stream) so the
    seed of case ``i`` does not depend on how many cases ran before it
    -- the property that makes parallel and serial campaigns sample
    identical cases.
    """
    material = f"repro-case-seed/{campaign_seed}/{index}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_workers(workers: int | str | None) -> int:
    """Normalise a worker-count spec; ``None``/``"auto"``/``0`` -> #cpus."""
    if workers is None or workers == 0 or workers == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return count


class CaseTimeout(BaseException):
    """Raised by the alarm when a case exceeds its time budget.

    A ``BaseException``: the stack catches ``Exception`` to turn a crash
    on hostile input into a verdict (a rejected ballot, a
    ``HonestPartyError``), and a spent time budget must never be one.
    """


@dataclass(frozen=True)
class CaseOutcome:
    """What happened to one dispatched case."""

    index: int
    value: Any = None
    #: one-line error description; ``None`` on success.
    error: str | None = None
    #: exception class name, ``"CaseTimeout"``, or ``"WorkerCrash"``.
    error_type: str | None = None
    #: wall-clock seconds the case took inside its worker.
    elapsed_s: float = field(default=0.0, compare=False)
    #: in-place retries this case consumed before settling (transient
    #: crash/timeout recovery; excluded from equality because whether a
    #: retry was *needed* is machine-local noise -- the settled value is
    #: deterministic either way).
    retries: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def transient(self) -> bool:
        """True when the failure is a candidate for an in-place retry.

        Worker deaths and wall-clock timeouts are environment incidents
        (an OOM kill, a loaded host), not properties of the case: the
        hash-derived per-case seed makes a re-run of the same payload
        deterministic, so retrying is safe and, on success, yields the
        exact outcome an undisturbed run would have produced.
        """
        return self.error_type in ("WorkerCrash", "CaseTimeout")


def _alarm_handler(signum, frame):  # pragma: no cover - signal context
    raise CaseTimeout("case exceeded its time budget")


def _run_one(
    fn: Callable[[Any], Any],
    index: int,
    payload: Any,
    timeout_s: float | None,
) -> CaseOutcome:
    """Execute one case under the timeout guard; never raises."""
    start = time.perf_counter()
    previous = None
    # Signal handlers can only be installed from the main thread;
    # ``run_many(workers=1)`` may legitimately be called from a worker
    # thread (test runners, embedding apps), where the case simply runs
    # without the alarm guard.
    armed = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    try:
        # Armed and cleared inside the ``try``, so the handlers below
        # run alarm-free.  The timer repeats: an alarm that lands where
        # exceptions are discarded (a ``__del__``, a gc callback) would
        # otherwise be spent and the case run on un-timed.
        try:
            if armed:
                previous = signal.signal(signal.SIGALRM, _alarm_handler)
                signal.setitimer(signal.ITIMER_REAL, timeout_s, timeout_s)
            value = fn(payload)
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        return CaseOutcome(
            index=index,
            value=value,
            elapsed_s=time.perf_counter() - start,
        )
    except CaseTimeout:
        return CaseOutcome(
            index=index,
            error=f"case timed out after {timeout_s}s",
            error_type="CaseTimeout",
            elapsed_s=time.perf_counter() - start,
        )
    except Exception as exc:
        tail = traceback.format_exc(limit=4)
        return CaseOutcome(
            index=index,
            error=f"{type(exc).__name__}: {exc}\n{tail}",
            error_type=type(exc).__name__,
            elapsed_s=time.perf_counter() - start,
        )
    finally:
        if armed:
            # cleared again: an alarm may have cut the first clear short.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: list[tuple[int, Any]],
    timeout_s: float | None,
) -> list[CaseOutcome]:
    """Worker entry point: run one chunk of ``(index, payload)`` cases."""
    return [_run_one(fn, index, payload, timeout_s) for index, payload in chunk]


def _default_chunksize(cases: int, workers: int) -> int:
    """Chunks small enough to load-balance, large enough to amortise IPC.

    Four chunks per worker keeps the pool busy when case costs are
    skewed (the usual shape: one big grid point dominates) without
    paying per-case pickling overhead on thousands of tiny cases.
    """
    return max(1, -(-cases // (workers * 4)))


def run_many(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int | str | None = 1,
    timeout_s: float | None = None,
) -> list[CaseOutcome]:
    """Run ``fn(payload)`` for every payload; outcomes in payload order.

    Args:
        fn: a **module-level** callable (workers import it by qualified
            name); must be a pure function of its payload for the
            serial/parallel determinism guarantee to hold.
        payloads: picklable case inputs.
        workers: process count; ``1`` (default) runs inline with
            identical semantics, ``"auto"``/``None``/``0`` uses all
            cpus.
        timeout_s: per-case wall-clock budget; an over-budget case is
            recorded as a failed outcome (``error_type="CaseTimeout"``).

    Cases go to the pool in chunks of ``ceil(len(payloads) / (4 *
    workers))``.  A *transient* failure (``WorkerCrash`` /
    ``CaseTimeout``) is re-run once, in place, with the exact same
    payload (hence the same derived seed), so a one-off OOM kill or a
    loaded host does not poison a long soak; a case that fails again
    keeps its failure, with :attr:`CaseOutcome.retries` at 1.

    Returns:
        One :class:`CaseOutcome` per payload, index-aligned.  A case
        that raised, timed out, or lost its worker process is a failed
        outcome -- :func:`run_many` itself only raises on unpicklable
        inputs or misconfiguration.
    """
    worker_count = resolve_workers(workers)
    cases = list(enumerate(payloads))
    if not cases:
        return []
    if timeout_s is not None:
        # The kernels import numpy at their first call.  An alarm that
        # lands inside that import leaves numpy unloadable for the rest
        # of the process ("cannot load module more than once per
        # process"), so a timed run imports it before arming any alarm;
        # forked workers inherit it.
        import numpy  # noqa: F401

    if worker_count == 1 or len(cases) == 1:
        outcomes = _run_chunk(fn, cases, timeout_s)
    else:
        size = _default_chunksize(len(cases), worker_count)
        chunks = [cases[i:i + size] for i in range(0, len(cases), size)]
        outcomes = _dispatch(fn, chunks, worker_count, timeout_s)
    outcomes.sort(key=lambda outcome: outcome.index)
    return _retry_transients(fn, cases, outcomes, worker_count, timeout_s)


def _retry_transients(
    fn: Callable[[Any], Any],
    cases: list[tuple[int, Any]],
    outcomes: list[CaseOutcome],
    workers: int,
    timeout_s: float | None,
) -> list[CaseOutcome]:
    """Re-run transient failures once; outcomes stay index-aligned.

    Only ``WorkerCrash`` / ``CaseTimeout`` outcomes are retried --
    ordinary exceptions are deterministic properties of the case and
    would fail identically.  The pass dispatches them as single-case
    chunks in a fresh pool (serial when ``workers == 1``), so one
    poisonous case cannot take healthy retries down with it.
    """
    pending = [cases[o.index] for o in outcomes if o.transient]
    if not pending:
        return outcomes
    if workers == 1:
        fresh = [
            _run_one(fn, index, payload, timeout_s)
            for index, payload in pending
        ]
    else:
        fresh = _dispatch(fn, [[case] for case in pending], workers, timeout_s)
    for outcome in fresh:
        outcomes[outcome.index] = replace(outcome, retries=1)
    return outcomes


def _pool_pass(
    fn: Callable[[Any], Any],
    chunks: list[list[tuple[int, Any]]],
    workers: int,
    timeout_s: float | None,
    outcomes: list[CaseOutcome],
) -> list[list[tuple[int, Any]]]:
    """One executor pass; returns the chunks lost to a pool breakage."""
    failed: list[list[tuple[int, Any]]] = []
    if not chunks:
        return failed
    executor = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
    try:
        futures = []
        for chunk in chunks:
            try:
                future = executor.submit(_run_chunk, fn, chunk, timeout_s)
            except BrokenProcessPool:
                # A worker died while later chunks were still queueing.
                failed.append(chunk)
            else:
                futures.append((future, chunk))
        for future, chunk in futures:
            try:
                outcomes.extend(future.result())
            except BrokenProcessPool:
                failed.append(chunk)
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return failed


def _dispatch(
    fn: Callable[[Any], Any],
    chunks: list[list[tuple[int, Any]]],
    workers: int,
    timeout_s: float | None,
) -> list[CaseOutcome]:
    """Fan chunks out over a pool, surviving broken worker processes.

    A hard worker death (segfault, ``os._exit``) breaks the whole pool,
    taking every in-flight chunk with it -- healthy bystanders included.
    The lost cases are re-run one per chunk in fresh pools; whatever a
    salvage pool loses in turn is halved and each half gets a pool of
    its own, until every suspect has run alone.  Only a case that died
    *alone in its pool* is recorded as ``WorkerCrash``: sharing a pool
    with the poison case is never held against a healthy one, however
    loaded the host.
    """
    outcomes: list[CaseOutcome] = []
    lost = _pool_pass(fn, chunks, workers, timeout_s, outcomes)
    groups = [[[case] for chunk in lost for case in chunk]]
    while groups:
        group = groups.pop()
        lost = _pool_pass(fn, group, workers, timeout_s, outcomes)
        if lost and len(group) == 1:
            ((index, _),) = group[0]
            outcomes.append(
                CaseOutcome(
                    index=index,
                    error="worker process died while running this case",
                    error_type="WorkerCrash",
                )
            )
        elif lost:
            half = len(lost) // 2
            groups += [lost[half:], lost[:half]]
    return outcomes
