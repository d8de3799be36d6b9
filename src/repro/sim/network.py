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
* crash/recovery -- an adversary with a crash plane
  (``has_crash_plane``; e.g. a
  :class:`~repro.sim.faults.ComposedAdversary` carrying
  ``FaultSpec.crashes``) powers honest parties off for chosen round
  windows through its ``crash_restarts`` hook; a
  :class:`~repro.sim.recovery.RecoveryManager` logs every delivered
  inbox to per-party write-ahead logs, parks traffic addressed to down
  parties, and deterministically replays a restarting party back to
  the current round.  Down parties count against the same ``t`` budget
  as byzantine corruptions while down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..errors import (
    ConfigurationError,
    HonestPartyError,
    ProtocolViolation,
    ReproError,
    SimulationError,
    TransportTimeout,
)
from ..perf import counters
from .adversary import Adversary, PassiveAdversary, RoundView
from .metrics import CommunicationStats
from .party import Context, Outgoing, Proto, SharedInbox
from .sizing import bit_size, brief_text
from .trace import Event, RoundRecord

if TYPE_CHECKING:
    # The planes' modules load only where a run arms them.
    from .invariants import InvariantMonitor
    from .lossy import LossyTransport
    from .wire import WireLimits

__all__ = [
    "ExecutionResult",
    "SynchronousNetwork",
    "ProtocolFactory",
    "default_round_budget",
    "run_protocol",
]

#: Builds one party's protocol generator from its context and input.
ProtocolFactory = Callable[[Context, Any], Proto[Any]]

#: ``quarantine`` events kept per execution; the stats fields keep
#: exact totals, the events the first offenders for attribution.
_QUARANTINE_CAP = 256

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
    #: changes to the shared ``t`` budget and the first 256 quarantined
    #: messages, in the order they took effect (kinds and fields:
    #: ``docs/fault-model.md``).  Empty on a bare run.
    events: list[Event] = field(default_factory=list)
    #: set by the degradation supervisor when this result was produced
    #: by the HighCostCA fallback path (a
    #: :class:`~repro.sim.supervisor.FallbackRecord`); ``None`` on the
    #: primary path.
    fallback: Any = None

    @property
    def honest_parties(self) -> list[int]:
        """Ids of the parties that stayed honest."""
        return [p for p in range(self.n) if p not in self.corrupted]

    def common_output(self) -> Any:
        """Return the agreed output: the one Agreement check, raising a
        :class:`ProtocolViolation` tagged ``AgreementMonitor``."""
        values = {party: self.outputs[party] for party in self.honest_parties}
        if not values:
            raise monitor_violation(
                "AgreementMonitor", "no honest party produced an output"
            )
        iterator = iter(values.values())
        first = next(iterator)
        if any(value != first for value in iterator):
            raise monitor_violation(
                "AgreementMonitor",
                f"honest parties disagree: {brief_text(values)}",
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
        check_hull(self, honest)
        return value


def monitor_violation(
    monitor: str, message: str, **context: Any
) -> ProtocolViolation:
    """A :class:`ProtocolViolation` tagged ``monitor``: ``[name] text``."""
    return ProtocolViolation(
        f"[{monitor}] {message}", monitor=monitor, **context
    )


def check_hull(result: ExecutionResult, honest_inputs: Sequence[int]) -> None:
    """The one Convex Validity check, tagged ``ConvexValidityMonitor``:
    every honest output is an integer in the hull of ``honest_inputs``
    (the monitor's captured ones, or ``assert_convex_valid``'s)."""
    low, high = min(honest_inputs), max(honest_inputs)
    for party in result.honest_parties:
        value = result.outputs[party]
        if not isinstance(value, int) or isinstance(value, bool):
            raise monitor_violation(
                "ConvexValidityMonitor",
                f"party {party} output non-integer "
                f"{brief_text(value)} for an integer CA instance",
            )
        if not low <= value <= high:
            raise monitor_violation(
                "ConvexValidityMonitor",
                f"party {party} output {brief_text(value)} outside "
                f"the honest hull [{brief_text(low)}, {brief_text(high)}]",
            )


@dataclass(slots=True)
class _PartyState:
    generator: Proto[Any]
    finished: bool = False
    output: Any = None
    inbox: dict[int, Any] = field(default_factory=dict)
    started: bool = False


class SynchronousNetwork:
    """Drives one protocol execution under a byzantine adversary.

    Args:
        protocol_factory: ``(ctx, input) -> generator`` building each
            party's protocol instance.
        inputs: per-party protocol inputs (list indexed by party id, or a
            dict covering every party; corrupted parties' inputs are handed
            to the adversary as its "spec" inputs).
        n: number of parties.
        t: corruption bound, ``t < n/3``.
        kappa: security parameter in bits.
        adversary: byzantine strategy; defaults to spec-following corrupted
            parties.  An adversary with ``has_crash_plane`` also powers
            honest parties off and on (``crash_restarts``), which arms the
            write-ahead-log recovery plane.
        max_rounds: safety cap on the number of simulated rounds; defaults
            to a budget derived from the theoretical round complexity
            (:func:`default_round_budget`).
        trace: collect a per-round :class:`~repro.sim.trace.RoundRecord`
            trace on the result.
        monitors: online invariant monitors
            (:mod:`repro.sim.invariants`) evaluated during the run.
        transport: optional lossy transport; protocols run unmodified on
            top of its ack/retransmit round synchronizer.
        guards: wire limits for byzantine-origin traffic
            (:class:`~repro.sim.wire.WireLimits`); quarantined payloads are
            accounted on the stats instead of delivered.
    """

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
        guards: WireLimits | None = None,
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
        # This execution's ``Context.cache``: one dict for the n parties
        # and any WAL-replayed incarnation of them.
        cache: dict = {}
        # Stage arming, decided once from what the caller passed (stage
        # table on :meth:`_run_round`); ``transport`` and ``_recovery``
        # arm their own stages by being present.  The recovery plane
        # exists iff the adversary asks for crashes at round boundaries.
        self._recovery = None
        if self.adversary.has_crash_plane:
            from .recovery import RecoveryManager

            self._recovery = RecoveryManager(
                protocol_factory, self.inputs, n, t, kappa, cache
            )
        # The exact PassiveAdversary relays corrupted parties' spec
        # messages verbatim, never adapts and never crashes anyone.
        scripted = type(self.adversary) is not PassiveAdversary
        #: Inbound wire guard (hostile-payload plane), from the caller's
        #: :class:`WireLimits` (e.g.
        #: ``WireLimits.from_envelopes(n, t, ell, kappa)``).  Armed only
        #: beside a plane that can carry hostile or re-delivered traffic;
        #: the bare run never consults it.  Only byzantine-origin traffic
        #: is ever checked, so arming guards cannot perturb honest
        #: accounting.
        planes = (
            scripted or transport is not None or self._recovery is not None
        )
        self._guard = None
        if guards and planes:
            from .wire import WireGuard

            self._guard = WireGuard(guards)
        #: whether the adversary stage runs (``RoundView``, ``deliver``,
        #: ``adapt``); the guard inspects what ``deliver`` returns, so it
        #: arms the stage too.
        self._consult_adversary = scripted or self._guard is not None
        #: honest parties currently powered off (crash plane).
        self.down: set[int] = set()
        #: restart round -> parties whose WAL replays at its start.
        self._restart_at: dict[int, set[int]] = {}

        self.stats = CommunicationStats()
        self.channel_trace: list[str] = []
        self.trace: list[RoundRecord] | None = [] if trace else None
        self.events: list[Event] = []
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
        self.begin()
        while self.step():
            pass
        return self.finish()

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
            events=self.events,
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

    def _stopped(
        self, party: int, state: _PartyState, round_index: int,
        error: Exception,
    ) -> None:
        """A resume that raised: the party finished, or the run fails.

        ``StopIteration`` is the protocol's return; the repo's own
        :class:`~repro.errors.ReproError` taxonomy propagates; any other
        exception finishes a corrupted party and fails the run for an
        honest one.
        """
        if isinstance(error, StopIteration):
            state.finished = True
            state.output = error.value
            return
        if isinstance(error, ReproError):
            # Deliberate signalling (ConfigurationError, monitor
            # violations, ...), not a party crashed by hostile input --
            # let it propagate untouched.
            raise error
        if party in self.corrupted:
            # A corrupted party's spec code may crash on adversarial
            # inboxes; the adversary simply loses its spec hint.
            state.finished = True
            return
        # The model forbids byzantine input from crashing honest code:
        # attribute the exception to the party, the round, and a bounded
        # digest of the inbox it was consuming, so fuzz reports separate
        # input-validation bugs from harness bugs and budget errors.
        # repr()-free on purpose -- the offending payload may be
        # arbitrarily hostile.
        from .wire import inbox_digest

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

    # -- crash plane ---------------------------------------------------
    def _process_restarts(self, round_index: int) -> None:
        """Replay the WAL of every party whose restart round arrived."""
        for party in sorted(self._restart_at.pop(round_index, ())):
            replayed = self._recovery.recover(party, self.stats)
            state = self._states[party]
            state.generator = replayed.generator
            state.started = True
            state.finished = replayed.finished
            state.output = replayed.output
            state.inbox = replayed.inbox
            self.down.discard(party)
            self.events.append(Event("up", round_index, party))

    def _admit(
        self, requested: Iterable[int], round_index: int, pending: int
    ) -> tuple[list[int], list[int]]:
        """Clip ``requested`` to the shared ``t`` budget: (granted, clipped).

        The budget is what corruptions (``pending`` of them granted this
        round) and parties still down at round ``round_index + 1`` leave
        of ``t``; a party whose restart is due then is up by then.  The
        lowest ids are granted, and a clip warns.
        """
        staying = len(self.down) - len(self._restart_at.get(round_index + 1, ()))
        allowed = max(0, self.t - len(self.corrupted) - pending - staying)
        ranked = sorted(requested)
        accepted, clipped = ranked[:allowed], ranked[allowed:]
        if clipped:
            warnings.warn(
                f"fault budget exhausted in round {round_index}: clipped "
                f"parties {clipped} (t={self.t}, corrupted "
                f"{len(self.corrupted) + pending}, down {staying}) -- the "
                "adversary is over-powered and was weakened",
                RuntimeWarning,
                stacklevel=3,
            )
        return accepted, clipped

    def _observe(
        self,
        round_index: int,
        honest_channels: set[str],
        channel: str = "",
        traffic: tuple[int, int, int] = (0, 0, 0),
    ) -> RoundRecord:
        """Observe stage: the round's one record, appended to the trace.

        ``traffic`` is ``(honest messages, honest bits, byzantine
        messages)``.  It runs before the crashes granted at the round's
        end join ``down``.  What changed the ``t`` budget is in
        ``events``, not on the record.
        """
        record = RoundRecord(
            round_index,
            channel,
            *traffic,
            corrupted=frozenset(self.corrupted),
            honest_channels=tuple(sorted(honest_channels)),
            down_parties=frozenset(self.down),
        )
        if self.trace is not None:
            self.trace.append(record)
        return record

    def _run_round(self, round_index: int) -> bool:
        """Run one round; ``False`` once every honest party has finished.

        One pipeline.  ``__init__`` arms the optional stages from what
        the caller passed; an unarmed stage costs one attribute test a
        round and builds nothing:

        ================  =========================  =====================
        stage             armed when                 reads
        ================  =========================  =====================
        crash / restart   a recovery plane           WALs, restart rounds
        resume            always                     last round's inboxes
        lockstep verdict  always                     honest channel labels
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
        stages that read links build its ``messages`` view.  An
        all-broadcast round with no adversary stage hands every party
        one read-only :class:`~repro.sim.party.SharedInbox`; any other
        round gives each party its own dict.

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
        events = self.events

        # Crash plane: restarts due now, before any generator resumes.
        if recovery is not None:
            self._process_restarts(round_index)

        # Resume every running generator (down parties stay frozen), and
        # read each bundle as it arrives: the honest channel set for the
        # lockstep check, and the all-broadcast shared dict.  A
        # long-finished party costs one attribute read; ``sched_resumes``
        # counts actual generator touches only.
        #
        # An all-broadcast round (every honest bundle a ``to_all`` for
        # this ``n``, or empty like the non-kings' king round) delivers
        # the same ``{sender: payload}`` dict to every party: build it
        # once in party order and price each sender once.  With no
        # adversary stage, the corrupted senders' spec broadcasts join
        # it after the honest ones if all of them are broadcasts (else:
        # per-message loop).  When nothing is then inserted per
        # destination, every party is handed the same read-only
        # ``SharedInbox``, which ``parse_once`` parses once for all n;
        # otherwise each party gets its own copy to insert into.
        consult = self._consult_adversary
        outgoings: dict[int, Outgoing] = {}
        honest_channels: set[str] = set()
        shared: dict[int, Any] | None = {}
        spec: dict[int, Any] | None = {} if corrupted and not consult else None
        resumes = 0
        for party, state in states.items():
            if state.finished or (down and party in down):
                continue
            resumes += 1
            try:
                if state.started:
                    out = state.generator.send(state.inbox)
                else:
                    state.started = True
                    out = next(state.generator)
            except Exception as error:
                self._stopped(party, state, round_index, error)
                continue
            if not isinstance(out, Outgoing):
                raise self._failure(
                    f"party {party} yielded {type(out).__name__}, "
                    "expected Outgoing"
                )
            outgoings[party] = out
            if corrupted and party in corrupted:
                if spec is not None:
                    if out.n == n:
                        spec[party] = out.payload
                    elif out.n or out.messages:
                        spec = None
                continue
            honest_channels.add(out.channel)
            if shared is not None:
                if out.n == n:
                    shared[party] = out.payload
                elif out.n or out.messages:
                    shared = None
        if resumes:
            counters.bump("sched_resumes", resumes)
        if not outgoings:
            # Every generator terminated while consuming last round's
            # inbox -- no network round takes place.
            return bool(down)

        # Lockstep: running honest parties share one channel.  The one
        # check of it, on every run; the break round's record is traced.
        if len(honest_channels) > 1:
            raise monitor_violation(
                "LockstepMonitor",
                f"honest parties out of lockstep in round {round_index}: "
                f"{sorted(honest_channels)}",
                record=self._observe(round_index, honest_channels),
                trace=self.trace,
            )
        channel = next(iter(honest_channels), "")
        if honest_channels:
            self.channel_trace.append(channel)

        # Price and deliver honest traffic, honest senders in party
        # order.  Every inbox is new this round (a protocol or a tracing
        # consumer may keep the ones it was handed).  Loopback links
        # cost 0: a process does not use the network to talk to itself.
        # Links to down parties are priced like any other.
        inboxes: dict[int, dict[int, Any]]
        sender_bits: list[tuple[int, int]] = []
        round_bits = round_messages = 0
        #: ``id(payload) -> bits`` for the synchronizer's link table;
        #: payloads outlive the round in ``outgoings``, so ids are unique.
        prices: dict[int, int] | None = {} if transport is not None else None
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
            if consult or (corrupted and spec is None):
                inboxes = {party: dict(shared) for party in states}
            else:
                inboxes = dict.fromkeys(states, SharedInbox(shared))
        else:
            inboxes = {party: {} for party in states}
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
            link_bits: dict[tuple[int, int], int] = {}
            for party, out in outgoings.items():
                honest = party not in corrupted
                into = honest_outgoing if honest else spec_outgoing
                for dst, payload in out.messages.items():
                    if 0 <= dst < n:
                        into[party, dst] = payload
                        if honest and prices is not None and dst not in down:
                            price = 0 if dst == party else prices[id(payload)]
                            link_bits[party, dst] = price

        # The rushing adversary acts on the full round view.
        if consult:
            view = RoundView(
                round_index=round_index,
                n=n,
                t=self.t,
                kappa=self.kappa,
                corrupted=frozenset(corrupted),
                channel=(
                    channel if honest_channels
                    else next(iter(outgoings.values())).channel
                ),
                honest_outgoing=honest_outgoing,
                spec_outgoing=spec_outgoing,
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
                            if stats.quarantined_messages <= _QUARANTINE_CAP:
                                events.append(Event(
                                    "quarantine", round_index, src,
                                    (dst, reason),
                                ))
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
        accepted = crashed = ()
        if consult:
            # Adaptive corruptions and crashes (both effective next
            # round) share the ``t`` budget with the parties still down;
            # down parties cannot be corrupted.
            requested = {
                party
                for party in self.adversary.adapt(view)
                if 0 <= party < n
                and party not in corrupted
                and party not in down
            }
            if requested:
                accepted, clipped = self._admit(requested, round_index, 0)
                for party in accepted:
                    self.events.append(Event("corrupt", round_index, party))
                for party in clipped:
                    self.events.append(
                        Event("corrupt_clipped", round_index, party)
                    )
            if recovery is not None:
                # Invalid targets (corrupted, down, finished, restarting
                # no later than they would go down) are ignored.
                restart = {
                    party: up
                    for party, up in self.adversary.crash_restarts(view).items()
                    if 0 <= party < n
                    and party not in corrupted
                    and party not in down
                    and party not in accepted
                    and not states[party].finished
                    and up > round_index + 1
                }
                if restart:
                    crashed, clipped = self._admit(
                        restart, round_index, len(accepted)
                    )
                    for party in clipped:
                        self.events.append(
                            Event("crash_clipped", round_index + 1, party)
                        )
                    for party in crashed:
                        self.events.append(
                            Event("down", round_index + 1, party)
                        )
                        self._restart_at.setdefault(
                            restart[party], set()
                        ).add(party)
        if self.trace is not None or self.monitors:
            record = self._observe(
                round_index, honest_channels, channel,
                (round_messages, round_bits, byz_count),
            )
            for monitor in self.monitors:
                self._monitored(monitor.on_round, record, self)
        down.update(crashed)
        if accepted:
            corrupted.update(accepted)
            running = any(party not in corrupted for party in outgoings)
        return running or bool(down)


def run_protocol(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    n: int,
    t: int,
    **options: Any,
) -> ExecutionResult:
    """Simulate one execution of ``protocol_factory`` and return the result.

    ``options`` are :class:`SynchronousNetwork`'s (``kappa``,
    ``adversary``, ``max_rounds``, ``trace``, ``monitors``,
    ``transport``, ``guards``), documented there.  Returns the
    :class:`ExecutionResult` with per-party outputs and communication
    statistics.
    """
    return SynchronousNetwork(protocol_factory, inputs, n, t, **options).run()
