"""The synchronous network simulator.

Implements the paper's model (Section 2): ``n`` parties in a fully
connected network of authenticated channels, synchronized clocks, and
guaranteed delivery within one round.  Protocol executions proceed in
lockstep rounds:

1. every running party's generator is resumed with last round's inbox and
   yields its outgoing messages,
2. the (rushing) adversary observes all honest traffic and chooses the
   corrupted parties' messages,
3. messages are delivered; honest-sent bits are accounted,
4. online :class:`~repro.sim.invariants.InvariantMonitor`s (if attached)
   observe the round record and may raise
   :class:`~repro.errors.ProtocolViolation`.

Authenticated channels mean the receiver always learns the true sender
identity -- the simulator enforces this by construction (the adversary can
only emit messages attributed to corrupted parties).

Round budgets: when ``max_rounds`` is not given the simulator derives a
budget from the paper's round complexity (``O(n log n)`` with a
``3(t+1)``-round Phase-King ``PI_BA``) via :func:`default_round_budget`
instead of a flat constant, so non-terminating executions are diagnosed
in seconds; the resulting :class:`~repro.errors.SimulationError` carries
the partial trace, stats, and any outputs produced so far.

Resilience planes (both optional, zero-cost when absent):

* ``transport`` -- a :class:`~repro.sim.lossy.LossyTransport` simulates
  drop/delay/reorder on honest links plus the ack/retransmit round
  synchronizer that restores lockstep; its overhead lands in the
  ``retrans_*``/``ack_*`` stats fields, never in ``honest_bits``.
* crash/recovery -- a declarative ``crashes`` schedule and/or an
  adversary with a crash plane powers honest parties off for chosen
  round windows; a :class:`~repro.sim.recovery.RecoveryManager` logs
  every delivered inbox to per-party write-ahead logs, parks traffic
  addressed to down parties, and deterministically replays a restarting
  party back to the current round.  Down parties count against the same
  ``t`` budget as byzantine corruptions while down.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import (
    ConfigurationError,
    HonestPartyError,
    ProtocolViolation,
    ReproError,
    SimulationError,
)
from ..perf import counters
from .adversary import Adversary, PassiveAdversary, RoundView
from .invariants import InvariantMonitor
from .lossy import LossyTransport, TransportTimeout
from .metrics import CommunicationStats
from .party import Context, Outgoing, Proto
from .recovery import CrashEvent, RecoveryConfig, RecoveryManager
from .sizing import bit_size, brief_text
from .trace import RoundRecord
from .wire import WireGuard, WireLimits, inbox_digest

__all__ = [
    "ExecutionResult",
    "SynchronousNetwork",
    "ProtocolFactory",
    "default_round_budget",
]

#: Builds one party's protocol generator from its context and input.
ProtocolFactory = Callable[[Context, Any], Proto[Any]]

#: Quarantine ledger entries kept per execution; the stats fields keep
#: exact totals, the ledger keeps the first offenders for attribution.
_QUARANTINE_LOG_CAP = 256

#: Sentinel for the payload-sizing memo: distinct from every real
#: payload (including ``None``, the protocols' bottom symbol).
_NO_PAYLOAD = object()


def default_round_budget(n: int, t: int) -> int:
    """Round budget derived from the theoretical round complexities.

    The CA stack terminates in ``O(n log n)`` rounds (Corollary 2) and
    every other protocol in this repository (Phase-King: ``3(t+1)``,
    ``HighCostCA``: ``2 + 4(t+1)``, Dolev-Strong: ``t+1``, synchronous
    AA: ``O(log(range/eps))``) is far below the envelope used here --
    a generous multiple of ``(t + 1) * log^2 n`` with a flat floor that
    also covers range-dependent loops such as Approximate Agreement.
    """
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    return max(10_000, 512 * (t + 1) * (log_n * log_n + 8))


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution."""

    n: int
    t: int
    outputs: dict[int, Any]
    corrupted: frozenset[int]
    stats: CommunicationStats
    channel_trace: list[str] = field(default_factory=list)
    trace: list[RoundRecord] | None = None
    #: ``(round_index, party)`` adaptive corruptions requested by the
    #: adversary but clipped by the ``t`` budget (over-powered config).
    clipped_corruptions: list[tuple[int, int]] = field(default_factory=list)
    #: crash-plane event log: ``("down" | "up", round_index, party)`` in
    #: the order the events took effect.
    crash_log: list[tuple[str, int, int]] = field(default_factory=list)
    #: ``(round_index, party)`` crash requests clipped by the shared
    #: ``t`` budget (corrupted + down parties never exceed ``t``).
    clipped_crashes: list[tuple[int, int]] = field(default_factory=list)
    #: number of WAL replays performed by the recovery manager.
    recoveries: int = 0
    #: set by the degradation supervisor when this result was produced
    #: by the HighCostCA fallback path (a
    #: :class:`~repro.sim.supervisor.FallbackRecord`); ``None`` on the
    #: primary path.
    fallback: Any = None
    #: quarantine ledger (wire guards): ``(round_index, src, dst,
    #: reason)`` for byzantine messages discarded by the inbound guard,
    #: capped at the first 256 entries (totals live on
    #: ``stats.quarantined_messages`` / ``stats.rejected_bits``).
    quarantine_log: list[tuple[int, int, int, str]] = field(
        default_factory=list
    )

    @property
    def honest_parties(self) -> list[int]:
        """Ids of the parties that stayed honest."""
        return [p for p in range(self.n) if p not in self.corrupted]

    def common_output(self) -> Any:
        """Return the agreed output, asserting the Agreement property."""
        values = {party: self.outputs[party] for party in self.honest_parties}
        if not values:
            raise SimulationError("no honest parties produced an output")
        iterator = iter(values.values())
        first = next(iterator)
        if any(value != first for value in iterator):
            raise SimulationError(
                f"honest parties disagree: {brief_text(values)}"
            )
        return first

    def assert_convex_valid(
        self, honest_inputs: dict[int, Any] | Sequence[Any]
    ) -> Any:
        """Assert Agreement + Convex Validity; return the common output.

        ``honest_inputs`` may be the full per-party input assignment
        (list indexed by party id, or dict) -- corrupted parties'
        entries are ignored -- or an already-filtered collection of
        honest values (when no index matches a party id in
        ``corrupted``, all values count).
        """
        value = self.common_output()
        if isinstance(honest_inputs, dict):
            items = honest_inputs.items()
        else:
            items = enumerate(honest_inputs)
        honest = [v for p, v in items if p not in self.corrupted]
        if not honest:
            raise SimulationError("no honest inputs to validate against")
        low, high = min(honest), max(honest)
        if not low <= value <= high:
            raise ProtocolViolation(
                f"output {brief_text(value)} outside honest hull "
                f"[{brief_text(low)}, {brief_text(high)}]",
                monitor="assert_convex_valid",
            )
        return value


@dataclass(slots=True)
class _PartyState:
    generator: Proto[Any]
    finished: bool = False
    output: Any = None
    inbox: dict[int, Any] = field(default_factory=dict)
    started: bool = False


class SynchronousNetwork:
    """Drives one protocol execution under a byzantine adversary."""

    def __init__(
        self,
        protocol_factory: ProtocolFactory,
        inputs: dict[int, Any] | list[Any],
        n: int,
        t: int,
        kappa: int = 128,
        adversary: Adversary | None = None,
        max_rounds: int | None = None,
        trace: bool = False,
        monitors: Sequence[InvariantMonitor] = (),
        transport: LossyTransport | None = None,
        crashes: Sequence[CrashEvent | tuple[int, int, int]] | None = None,
        recovery: RecoveryConfig | bool | None = None,
        guards: WireLimits | bool | None = None,
    ) -> None:
        if isinstance(inputs, list):
            inputs = dict(enumerate(inputs))
        if set(inputs) != set(range(n)):
            raise ConfigurationError(
                f"inputs must cover parties 0..{n - 1}, got {sorted(inputs)}"
            )
        self.n = n
        self.t = t
        self.kappa = kappa
        self.inputs = dict(inputs)
        self.adversary = adversary or PassiveAdversary()
        self.protocol_factory = protocol_factory
        self.max_rounds = (
            default_round_budget(n, t) if max_rounds is None else max_rounds
        )
        self.monitors = list(monitors)

        self.corrupted: set[int] = set(
            self.adversary.select_corruptions(n, t)
        )
        if len(self.corrupted) > t:
            raise ConfigurationError(
                f"adversary selected {len(self.corrupted)} > t={t} corruptions"
            )
        if any(not 0 <= p < n for p in self.corrupted):
            raise ConfigurationError("corruption set out of range")

        self.transport = transport
        declared = [
            event if isinstance(event, CrashEvent) else CrashEvent(*event)
            for event in (crashes or ())
        ]
        #: declarative crash windows keyed by their down round.
        self._declared_crashes: dict[int, dict[int, int]] = {}
        for event in declared:
            if not 0 <= event.party < n:
                raise ConfigurationError(
                    f"crash schedule names party {event.party}, "
                    f"outside 0..{n - 1}"
                )
            windows = self._declared_crashes.setdefault(event.down, {})
            windows[event.party] = event.up
        crash_plane = getattr(self.adversary, "has_crash_plane", False)
        # This execution's ``Context.cache``: one dict for the n parties
        # and any WAL-replayed incarnation of them.
        cache: dict = {}
        self._recovery = (
            RecoveryManager(
                protocol_factory,
                self.inputs,
                n,
                t,
                kappa,
                recovery if isinstance(recovery, RecoveryConfig) else None,
                cache,
            )
            if recovery or declared or crash_plane
            else None
        )
        # Stage arming, decided once from what the caller passed (stage
        # table on :meth:`_run_round`); ``transport`` and ``_recovery``
        # arm their own stages by being present.
        #: whether the adversary asks for crashes at round boundaries.
        self._crash_plane = bool(crash_plane)
        # The exact PassiveAdversary relays corrupted parties' spec
        # messages verbatim, never adapts and never crashes anyone.
        scripted = type(self.adversary) is not PassiveAdversary
        #: Inbound wire guard (hostile-payload plane).  ``True`` derives
        #: limits from the bit envelopes at a default payload length;
        #: pass an explicit :class:`WireLimits` (e.g. from
        #: ``WireLimits.from_envelopes(n, t, ell, kappa)``) for
        #: protocol-accurate bounds.  Armed only beside a plane that can
        #: carry hostile or re-delivered traffic; the bare run never
        #: consults it.  Only byzantine-origin traffic is ever checked,
        #: so arming guards cannot perturb honest accounting.
        if guards is True:
            guards = WireLimits.from_envelopes(n, t, ell=4096, kappa=kappa)
        planes = (
            scripted or transport is not None or self._recovery is not None
        )
        self._guard = WireGuard(guards) if guards and planes else None
        #: whether the adversary stage runs (``RoundView``, ``deliver``,
        #: ``adapt``); the guard inspects what ``deliver`` returns, so it
        #: arms the stage too.
        self._consult_adversary = scripted or self._guard is not None
        self.quarantine_log: list[tuple[int, int, int, str]] = []
        #: honest parties currently powered off (crash plane).
        self.down: set[int] = set()
        #: restart round -> parties whose WAL replays at its start.
        self._restart_at: dict[int, set[int]] = {}
        self.crash_log: list[tuple[str, int, int]] = []
        self.clipped_crashes: list[tuple[int, int]] = []

        self.stats = CommunicationStats()
        self.channel_trace: list[str] = []
        self.trace: list[RoundRecord] | None = [] if trace else None
        self.clipped_corruptions: list[tuple[int, int]] = []
        self._states: dict[int, _PartyState] = {}
        for party in range(n):
            ctx = Context(party_id=party, n=n, t=t, kappa=kappa, cache=cache)
            gen = protocol_factory(ctx, self.inputs[party])
            self._states[party] = _PartyState(generator=gen)
        #: next round the scheduler will attempt (stepping API state).
        self._next_round = 0
        #: whether some honest party is still unfinished, as of the last
        #: round's resume pass (``t < n``: at least one is at the start).
        self._honest_running = True

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute until every honest party has terminated."""
        started = time.perf_counter()
        try:
            self.begin()
            while self.step():
                pass
            return self.finish()
        finally:
            # Wall time rides on the stats object so every exit path --
            # normal completion, SimulationError with partial state,
            # monitor violations -- carries its timing.
            self.stats.wall_s = time.perf_counter() - started

    # -- stepping API ---------------------------------------------------
    # ``run()`` is ``begin(); while step(): pass; finish()``.  The
    # decomposition lets an outside driver act between rounds (the
    # perfbench traced run wraps each ``step()`` in a span); the
    # execution is the same either way because each network's evolution
    # is a pure function of its own state.

    def begin(self) -> None:
        """Arm one execution: reset the round cursor, start monitors."""
        self._next_round = 0
        for monitor in self.monitors:
            monitor.on_start(self)

    def step(self) -> bool:
        """Run one scheduler iteration; ``False`` once execution is done.

        Replicates the classic ``for round_index in range(max_rounds)``
        loop exactly: the round budget is checked before the
        finished-check, so an execution that exhausts its budget raises
        the same :class:`SimulationError` the serial loop raised.
        """
        round_index = self._next_round
        if round_index >= self.max_rounds:
            raise self._failure(
                f"protocol did not terminate within {self.max_rounds} rounds"
            )
        if not self._honest_running:
            return False
        self._honest_running = self._run_round(round_index)
        self._next_round = round_index + 1
        return True

    def finish(self) -> ExecutionResult:
        """Assemble the result once :meth:`step` has returned ``False``."""
        result = ExecutionResult(
            n=self.n,
            t=self.t,
            outputs=self._partial_outputs(),
            corrupted=frozenset(self.corrupted),
            stats=self.stats,
            channel_trace=self.channel_trace,
            trace=self.trace,
            clipped_corruptions=list(self.clipped_corruptions),
            crash_log=list(self.crash_log),
            clipped_crashes=list(self.clipped_crashes),
            recoveries=self._recovery.recoveries if self._recovery else 0,
            quarantine_log=list(self.quarantine_log),
        )
        for monitor in self.monitors:
            self._monitored(monitor.on_finish, result, self)
        return result

    # ------------------------------------------------------------------
    def _partial_outputs(self) -> dict[int, Any]:
        return {
            party: state.output
            for party, state in self._states.items()
            if state.finished and party not in self.corrupted
        }

    def _failure(self, message: str) -> SimulationError:
        """A :class:`SimulationError` carrying the partial execution."""
        return SimulationError(
            message,
            trace=self.trace,
            stats=self.stats,
            outputs=self._partial_outputs(),
        )

    def _monitored(self, hook, *args) -> None:
        """Run a monitor hook, attaching the partial trace on violation."""
        try:
            hook(*args)
        except ProtocolViolation as violation:
            if violation.trace is None:
                violation.trace = self.trace
            raise

    def _resume(
        self, party: int, state: _PartyState, round_index: int
    ) -> Outgoing | None:
        """Advance one party's generator by one round; None if finished."""
        if state.finished:
            return None
        try:
            if not state.started:
                state.started = True
                outgoing = next(state.generator)
            else:
                outgoing = state.generator.send(state.inbox)
        except StopIteration as stop:
            state.finished = True
            state.output = stop.value
            return None
        except ReproError:
            # The repo's own taxonomy (ConfigurationError, monitor
            # violations, ...) is deliberate signalling, not a party
            # crashed by hostile input -- let it propagate untouched.
            raise
        except Exception as error:
            if party in self.corrupted:
                # A corrupted party's spec code may crash on adversarial
                # inboxes; the adversary simply loses its spec hint.
                state.finished = True
                return None
            # The model forbids byzantine input from crashing honest
            # code: attribute the exception to the party, the round,
            # and a bounded digest of the inbox it was consuming, so
            # fuzz reports separate input-validation bugs from harness
            # bugs and budget errors.  repr()-free on purpose -- the
            # offending payload may be arbitrarily hostile.
            digest = inbox_digest(state.inbox)
            summary = str(error)
            if len(summary) > 200:
                summary = summary[:200] + "..."
            raise HonestPartyError(
                f"honest party {party} raised "
                f"{type(error).__name__} in round {round_index}: "
                f"{summary} (inbox digest {digest})",
                party=party,
                round_index=round_index,
                inbox_digest=digest,
            ) from error
        if not isinstance(outgoing, Outgoing):
            raise self._failure(
                f"party {party} yielded {type(outgoing).__name__}, "
                "expected Outgoing"
            )
        return outgoing

    # -- crash plane ---------------------------------------------------
    def _process_restarts(self, round_index: int) -> frozenset[int]:
        """Replay the WAL of every party whose restart round arrived."""
        due = sorted(self._restart_at.pop(round_index, ()))
        for party in due:
            replayed = self._recovery.recover(party, self.stats)
            state = self._states[party]
            state.generator = replayed.generator
            state.started = replayed.started
            state.finished = replayed.finished
            state.output = replayed.output
            state.inbox = replayed.inbox
            self.down.discard(party)
            self.crash_log.append(("up", round_index, party))
        return frozenset(due)

    def _accept_crashes(
        self,
        requests: dict[int, int],
        down_round: int,
        pending_corruptions: int = 0,
    ) -> tuple[set[int], set[int]]:
        """Clip crash requests to the shared ``t`` budget and apply them.

        ``requests`` maps party -> restart round; invalid targets
        (corrupted, already down, finished, out of range) are silently
        ignored, over-budget ones are clipped with a warning, exactly
        like over-budget adaptive corruptions.
        """
        valid = {
            party: up
            for party, up in requests.items()
            if 0 <= party < self.n
            and party not in self.corrupted
            and party not in self.down
            and not self._states[party].finished
            and up > down_round
        }
        allowed = max(
            0,
            self.t
            - len(self.corrupted)
            - pending_corruptions
            - len(self.down),
        )
        accepted = set(sorted(valid)[:allowed])
        clipped = set(valid) - accepted
        if clipped:
            self.clipped_crashes.extend(
                (down_round, party) for party in sorted(clipped)
            )
            warnings.warn(
                f"crash budget exhausted at round {down_round}: clipped "
                f"parties {sorted(clipped)} (t={self.t}, corrupted "
                f"{len(self.corrupted)}, down {len(self.down)}) -- the "
                "crash schedule is over-powered and was weakened",
                RuntimeWarning,
                stacklevel=2,
            )
        for party in sorted(accepted):
            self.down.add(party)
            self._restart_at.setdefault(valid[party], set()).add(party)
            self.crash_log.append(("down", down_round, party))
        return accepted, clipped

    def _observe(
        self,
        round_index: int,
        honest_channels: set[str],
        restarted: frozenset[int],
        channel: str = "",
        traffic: tuple[int, int, int] = (0, 0, 0),
        boundary: tuple[Any, Any, Any, Any] = ((), (), (), ()),
        down_parties: frozenset[int] | None = None,
    ) -> None:
        """Observe stage: the round's one record, traced and monitored.

        ``traffic`` is ``(honest messages, honest bits, byzantine
        messages)``; ``boundary`` the new and clipped corruptions, then
        the new and clipped crashes, and ``down_parties`` who was down
        before those crashes (default: who is down now).  A round
        stopped at the lockstep check has none of them.
        """
        record = RoundRecord(
            round_index,
            channel,
            *traffic,
            corrupted=frozenset(self.corrupted),
            finished_parties=frozenset(
                p for p, s in self._states.items() if s.finished
            ),
            honest_channels=tuple(sorted(honest_channels)),
            new_corruptions=frozenset(boundary[0]),
            clipped_corruptions=frozenset(boundary[1]),
            down_parties=(
                frozenset(self.down) if down_parties is None else down_parties
            ),
            restarted_parties=restarted,
            new_crashes=frozenset(boundary[2]),
            clipped_crashes=frozenset(boundary[3]),
        )
        if self.trace is not None:
            self.trace.append(record)
        for monitor in self.monitors:
            self._monitored(monitor.on_round, record, self)

    def _run_round(self, round_index: int) -> bool:
        """Run one round; ``False`` once every honest party has finished.

        One pipeline.  ``__init__`` arms the optional stages from what
        the caller passed; an unarmed stage costs one attribute test a
        round and builds nothing:

        ================  =========================  =====================
        stage             armed when                 reads
        ================  =========================  =====================
        crash / restart   a recovery plane           WALs, crash schedule
        resume            always                     last round's inboxes
        lockstep check    always                     honest channel labels
        price + deliver   always                     the yielded bundles
        adversary         ``_consult_adversary``     ``RoundView`` (links)
        synchronize       a transport                link -> bits
        byzantine insert  always; guard when armed   ``deliver()``'s reply
        commit, park/WAL  always; a recovery plane   the round's inboxes
        account           always                     per-sender prices
        adapt + crashes   the adversary stage        the same ``RoundView``
        observe           ``trace`` or monitors      what the stages made
        ================  =========================  =====================

        Deliver reads a broadcast bundle's one ``payload``; only the
        stages that read links build its ``messages`` view.

        A party that is neither finished nor down yields, so after the
        resume pass "some honest party is unfinished" is "some honest
        party yielded or is down" -- no second scan of the states.
        """
        n = self.n
        states = self._states
        corrupted = self.corrupted
        down = self.down
        stats = self.stats
        recovery = self._recovery
        transport = self.transport

        # Crash plane: restarts due now, then declarative crashes whose
        # down round is now (both before any generator resumes).
        restarted: frozenset[int] = frozenset()
        if recovery is not None:
            restarted = self._process_restarts(round_index)
            declared = self._declared_crashes.pop(round_index, None)
            if declared:
                self._accept_crashes(declared, round_index)

        # Resume every running generator (down parties stay frozen).
        # The finished/down guards are hoisted out of ``_resume`` so a
        # long-finished party costs one attribute read, not a call;
        # ``sched_resumes`` counts actual generator touches only.
        outgoings: dict[int, Outgoing] = {}
        resumes = 0
        for party, state in states.items():
            if state.finished or (down and party in down):
                continue
            resumes += 1
            outgoing = self._resume(party, state, round_index)
            if outgoing is not None:
                outgoings[party] = outgoing
        if resumes:
            counters.bump("sched_resumes", resumes)
        if not outgoings:
            # Every generator terminated while consuming last round's
            # inbox -- no network round takes place.
            return bool(down)

        # Lockstep sanity check: running honest parties share one channel.
        honest_channels = {
            out.channel
            for party, out in outgoings.items()
            if party not in corrupted
        }
        observed = self.trace is not None or bool(self.monitors)
        if len(honest_channels) > 1:
            if observed:
                self._observe(round_index, honest_channels, restarted)
            raise self._failure(
                f"honest parties out of lockstep in round {round_index}: "
                f"{sorted(honest_channels)}"
            )
        channel = next(iter(honest_channels), "")
        if honest_channels:
            self.channel_trace.append(channel)

        # Price and deliver honest traffic.  Every party gets a fresh
        # private inbox (a protocol or a tracing consumer may keep the
        # ones it was handed), honest senders in party order.  Loopback
        # links cost 0: a process does not use the network to talk to
        # itself.  Links to down parties are priced like any other.
        inboxes: dict[int, dict[int, Any]] = {party: {} for party in states}
        consult = self._consult_adversary
        sender_bits: list[tuple[int, int]] = []
        round_bits = round_messages = 0
        #: ``id(payload) -> bits`` for the synchronizer's link table;
        #: payloads outlive the round in ``outgoings``, so ids are unique.
        prices: dict[int, int] | None = {} if transport is not None else None
        # An all-broadcast round (every honest bundle a ``to_all`` for
        # this ``n``, or empty like the non-kings' king round) delivers
        # the same ``{sender: payload}`` dict to every party: build it
        # once in party order, price each sender once, and ``update``
        # each private inbox from it.  With no adversary stage, the
        # corrupted senders' spec broadcasts join it after the honest
        # ones if all of them are broadcasts (else: per-message loop).
        shared: dict[int, Any] | None = {}
        spec: dict[int, Any] | None = {} if corrupted and not consult else None
        for party, out in outgoings.items():
            if corrupted and party in corrupted:
                if spec is not None:
                    if out.n == n:
                        spec[party] = out.payload
                    elif out.n or out.messages:
                        spec = None
                continue
            if out.n == n:
                shared[party] = out.payload
            elif out.n or out.messages:
                shared = None
                break
        byz_count = 0
        if shared is not None:
            fanout = n - 1
            if fanout:
                for party, payload in shared.items():
                    bits = bit_size(payload)
                    if prices is not None:
                        prices[id(payload)] = bits
                    sender_bits.append((party, bits * fanout))
                    round_bits += bits * fanout
                round_messages = len(shared) * fanout
            if spec:
                shared.update(spec)
                byz_count = len(spec) * n
            for inbox in inboxes.values():
                inbox.update(shared)
        else:
            # List-indexed view of the inbox dicts: party ids are dense
            # 0..n-1, and a C-level list index beats a dict hash on the
            # innermost (per-message) loop.
            inbox_rows = [inboxes[party] for party in range(n)]
            for party, out in outgoings.items():
                if corrupted and party in corrupted:
                    continue
                # An unmarked broadcast reuses one payload object for
                # every destination; sizing each *object* once is exact
                # (bit_size is pure) and skips the dominant per-message
                # cost.  Seeded with a private sentinel: ``None`` is a
                # real payload (bottom, 1 bit), not an empty memo.
                memo_obj = _NO_PAYLOAD
                memo_bits = party_sent = party_messages = 0
                for dst, payload in out.messages.items():
                    if not 0 <= dst < n:
                        continue
                    inbox_rows[dst][party] = payload
                    if dst != party:
                        if payload is not memo_obj:
                            memo_obj = payload
                            memo_bits = bit_size(payload)
                            if prices is not None:
                                prices[id(payload)] = memo_bits
                        party_sent += memo_bits
                        party_messages += 1
                if party_messages:
                    sender_bits.append((party, party_sent))
                    round_bits += party_sent
                    round_messages += party_messages

        # Link-keyed views of the same traffic, for the stages that read
        # them.  Loopback links stay in the synchronizer's table at 0
        # bits (their party joins resync beacons); links to down parties
        # stay off it (senders keep those copies until the restart).
        if consult or transport is not None:
            honest_outgoing: dict[tuple[int, int], Any] = {}
            spec_outgoing: dict[tuple[int, int], Any] = {}
            for party, out in outgoings.items():
                into = spec_outgoing if party in corrupted else honest_outgoing
                for dst, payload in out.messages.items():
                    if 0 <= dst < n:
                        into[party, dst] = payload
        if transport is not None:
            link_bits = {
                link: 0 if link[0] == link[1] else prices[id(payload)]
                for link, payload in honest_outgoing.items()
                if link[1] not in down
            }

        # The rushing adversary acts on the full round view.
        if consult:
            view = RoundView(
                round_index=round_index,
                n=n,
                t=self.t,
                kappa=self.kappa,
                corrupted=frozenset(corrupted),
                channels={p: out.channel for p, out in outgoings.items()},
                honest_outgoing=honest_outgoing,
                spec_outgoing=spec_outgoing,
                corrupted_inputs={p: self.inputs[p] for p in corrupted},
                down=frozenset(down),
            )
            byz_messages = self.adversary.deliver(view)

        # Synchronize the wire: every honest payload to a live
        # destination is retransmitted until acked, restoring lockstep
        # (overhead lands in retrans_*/ack_* stats, never honest_bits).
        if transport is not None:
            try:
                transport.synchronize(round_index, link_bits, stats)
            except TransportTimeout as timeout:
                raise self._failure(str(timeout)) from timeout

        # Corrupted senders go in after the honest ones: what the
        # adversary returned, or -- nobody consulted -- the spec
        # messages verbatim (unless the shared dict already carried them).
        if consult:
            guard = self._guard
            for (src, dst), payload in byz_messages.items():
                if src in corrupted and 0 <= dst < n:
                    if guard is not None and dst not in corrupted:
                        # Honest parties validate byzantine-origin traffic
                        # before it enters their inbox; out-of-bounds
                        # payloads are quarantined (discarded, attributed),
                        # never raised on.  Corrupted destinations are the
                        # adversary's own code and do not validate.
                        counters.bump("guard_checks")
                        reason, bits = guard.check(round_index, src, payload)
                        if reason is not None:
                            counters.bump("guard_quarantined")
                            stats.record_quarantine(bits)
                            if len(self.quarantine_log) < _QUARANTINE_LOG_CAP:
                                self.quarantine_log.append(
                                    (round_index, src, dst, reason)
                                )
                            continue
                    inboxes[dst][src] = payload
                    byz_count += 1
        elif corrupted and (shared is None or spec is None):
            for party, out in outgoings.items():
                if party in corrupted:
                    for dst, payload in out.messages.items():
                        if 0 <= dst < n:
                            inboxes[dst][party] = payload
                            byz_count += 1

        # Commit.  Down parties' inboxes are parked (senders keep
        # retransmitting) instead of delivered; live parties' executed
        # rounds go to their WALs.
        if recovery is not None:
            honest = {p for p in range(n) if p not in corrupted}
            for party in sorted(down):
                recovery.park(party, round_index, inboxes.pop(party), honest)
            for party, out in outgoings.items():
                if party not in corrupted:
                    recovery.log_round(party, round_index, inboxes[party], out)
        for party, inbox in inboxes.items():
            states[party].inbox = inbox

        # Account.  Post lockstep check every honest sender shares one
        # channel, so the whole round batches into one update.
        if sender_bits:
            stats.record_round_sends(
                channel, sender_bits, round_messages, round_bits
            )
        stats.record_round()
        counters.bump("net_rounds")
        counters.bump("net_messages", round_messages + byz_count)

        running = bool(honest_channels)
        accepted = clipped = crashed = crash_clipped = ()
        down_before = None
        if consult:
            # Adaptive corruptions (effective next round).  An
            # over-budget ``adapt()`` is clipped deterministically, and
            # the clipped parties recorded and warned about.  Down
            # parties share the ``t`` budget and cannot be corrupted.
            requested = {
                party
                for party in self.adversary.adapt(view)
                if 0 <= party < n
                and party not in corrupted
                and party not in down
            }
            allowed = max(0, self.t - len(corrupted) - len(down))
            accepted = set(sorted(requested)[:allowed])
            clipped = requested - accepted
            if clipped:
                self.clipped_corruptions.extend(
                    (round_index, party) for party in sorted(clipped)
                )
                warnings.warn(
                    f"adaptive corruption budget exhausted in round "
                    f"{round_index}: clipped parties {sorted(clipped)} "
                    f"(t={self.t}, already corrupted "
                    f"{len(corrupted)}) -- the adversary configuration "
                    "is over-powered and was silently weakened",
                    RuntimeWarning,
                    stacklevel=2,
                )
            # Adversarial crashes (effective next round), clipped
            # against the combined corruption + down budget.
            if self._crash_plane:
                down_before = frozenset(down)
                requests = self.adversary.crash_restarts(view)
                crashed, crash_clipped = self._accept_crashes(
                    {p: up for p, up in requests.items() if p not in accepted},
                    round_index + 1,
                    pending_corruptions=len(accepted),
                )
        if observed:
            self._observe(
                round_index, honest_channels, restarted, channel,
                (round_messages, round_bits, byz_count),
                (accepted, clipped, crashed, crash_clipped), down_before,
            )
        if accepted:
            corrupted.update(accepted)
            running = any(party not in corrupted for party in outgoings)
        return running or bool(down)
