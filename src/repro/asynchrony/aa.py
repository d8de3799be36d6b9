"""Asynchronous Approximate Agreement for ``t < n/5``.

The paper's conclusions conjecture that its techniques extend "to the
asynchronous setting for a lower number of corruptions t < n/5".
Deterministic asynchronous *exact* agreement (hence CA) is impossible
(FLP [22]); Approximate Agreement is the classic primitive that
circumvents it (Section 1.1, Dolev et al. [16]), and the simple
asynchronous AA below is exactly the t < n/5 algorithm of that
lineage:

repeat R times (iteration r):

1. reliably broadcast (Bracha RBC) the current estimate, tagged with r;
2. wait until iteration-r values from ``n - t`` distinct senders have
   been RBC-delivered;
3. discard the ``t`` lowest and ``t`` highest collected values; the new
   estimate is the midpoint of the survivors.

Why it works:

* **Validity** -- among the collected ``n - t`` values at most ``t``
  are byzantine, so after trimming ``t`` per side every survivor lies
  between two honest iteration-r estimates.
* **Convergence** -- RBC consistency forces the byzantine parties to
  commit to *one* value per instance; with ``n > 5t`` any two honest
  survivors' ranges overlap enough that the honest diameter halves each
  iteration (checked empirically under adversarial schedulers by the
  tests; this resilience threshold is why the paper says t < n/5).
* **Liveness** -- at least ``n - t`` honest parties RBC every
  iteration's value, and RBC totality guarantees they are eventually
  delivered everywhere; parties keep serving RBC echoes after deciding.

Estimates are dyadic rationals; as in the synchronous module, received
values are validated (magnitude bound + denominator dividing ``2^r``)
so byzantine parties cannot inflate honest communication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Union

from ..errors import ConfigurationError
from ..aa.sync_aa import iterations_for, trimmed_midpoint
from ..sim.party import Context
from .network import AsyncParty
from .rbc import BrachaRBC, parse_rbc

__all__ = ["AsyncApproximateAgreement"]

Number = Union[int, Fraction]


def _parse_tag(tag: str) -> tuple[int, int] | None:
    """``"it{r}/s{s}" -> (r, s)``; None if malformed."""
    if not tag.startswith("it"):
        return None
    body = tag[2:]
    parts = body.split("/s")
    if len(parts) != 2:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


def _valid_estimate(value: Any, bound: int, iteration: int) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        return False
    if abs(value) > bound:
        return False
    denominator = value.denominator
    return denominator <= (1 << iteration) and not (
        denominator & (denominator - 1)
    )


class AsyncApproximateAgreement(AsyncParty):
    """One party's asynchronous AA instance (``t < n/5``)."""

    def __init__(
        self,
        ctx: Context,
        v_in: Number,
        epsilon: Number,
        value_bound: int,
    ) -> None:
        super().__init__(ctx)
        ctx.require_resilience(5)
        self.estimate = Fraction(v_in)
        if abs(self.estimate) > value_bound:
            raise ConfigurationError(
                f"input {v_in} exceeds the public bound {value_bound}"
            )
        self.value_bound = value_bound
        self.total_iterations = iterations_for(value_bound, epsilon)
        self.iteration = 0
        self.decided = False
        #: (iteration, sender) -> RBC instance
        self._instances: dict[tuple[int, int], BrachaRBC] = {}
        #: iteration -> {sender: delivered value}
        self._collected: dict[int, dict[int, Fraction]] = {}

    # -- protocol hooks ---------------------------------------------------
    def start(self) -> None:
        """Kick off iteration 0 (or decide immediately for huge eps)."""
        if self.total_iterations == 0:
            self.decided = True
            self.api.decide(self.estimate)
            return
        self._broadcast_current()

    def on_message(self, src: int, payload: Any) -> None:
        """Route RBC traffic to the right (iteration, sender) instance."""
        parsed = parse_rbc(payload)
        if parsed is None:
            return
        tag, kind, value = parsed
        position = _parse_tag(tag)
        if position is None:
            return
        iteration, sender = position
        if not (
            0 <= iteration < self.total_iterations
            and 0 <= sender < self.ctx.n
        ):
            return
        instance = self._instance(iteration, sender)
        instance.handle(src, kind, value)

    # -- internals ----------------------------------------------------------
    def _instance(self, iteration: int, sender: int) -> BrachaRBC:
        key = (iteration, sender)
        if key not in self._instances:
            self._instances[key] = BrachaRBC(
                self.ctx,
                tag=f"it{iteration}/s{sender}",
                sender=sender,
                send=self.api.send,
                on_deliver=lambda value, k=key: self._delivered(k, value),
                validate=lambda value, r=iteration: _valid_estimate(
                    value, self.value_bound, r
                ),
            )
        return self._instances[key]

    def _broadcast_current(self) -> None:
        instance = self._instance(self.iteration, self.ctx.party_id)
        instance.broadcast(self.estimate)

    def _delivered(self, key: tuple[int, int], value: Any) -> None:
        iteration, sender = key
        if isinstance(value, int):
            value = Fraction(value)
        bucket = self._collected.setdefault(iteration, {})
        bucket.setdefault(sender, value)
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        """Advance through every iteration whose quorum is already in."""
        while not self.decided:
            bucket = self._collected.get(self.iteration, {})
            if len(bucket) < self.ctx.quorum:
                return
            # Use everything delivered so far (>= n - t values, <= t of
            # them byzantine); trimming t per side keeps the survivors
            # between honest iteration-r estimates.
            values = sorted(bucket.values())
            self.estimate = trimmed_midpoint(values, self.ctx.t)
            self.iteration += 1
            if self.iteration >= self.total_iterations:
                self.decided = True
                self.api.decide(self.estimate)
            else:
                self._broadcast_current()
