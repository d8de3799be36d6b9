"""Bracha's asynchronous Reliable Broadcast (t < n/3).

The workhorse of asynchronous byzantine protocols (the paper cites its
use for extension protocols in [10, 41]).  One instance per
``(tag, sender)``:

* the sender sends ``INIT(v)`` to all;
* on the first ``INIT`` from the sender: send ``ECHO(v)`` to all;
* on ``n - t`` ``ECHO(v)``: send ``READY(v)`` (once);
* on ``t + 1`` ``READY(v)``: send ``READY(v)`` (once, amplification);
* on ``2t + 1`` ``READY(v)``: *deliver* ``v``.

Properties for ``t < n/3``: **Validity** (honest sender's value is
delivered by all honest parties), **Consistency** (no two honest
parties deliver different values -- ECHO quorums intersect in an honest
party), **Totality** (if one honest party delivers, all do -- the READY
amplification).

The implementation is a sans-io state machine: callers feed it messages
via :meth:`handle` and get deliveries through the ``on_deliver``
callback, so any number of instances multiplex over one party (as the
asynchronous AA protocol does, one instance per sender per iteration).
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.party import Context

__all__ = ["BrachaRBC", "rbc_message"]

_INIT = "INIT"
_ECHO = "ECHO"
_READY = "READY"


def rbc_message(tag: str, kind: str, value: Any) -> tuple:
    """Wire format of one RBC message."""
    return ("RBC", tag, kind, value)


def parse_rbc(payload: Any) -> tuple[str, str, Any] | None:
    """Validate and split an RBC wire message; None if malformed."""
    if not (isinstance(payload, tuple) and len(payload) == 4):
        return None
    marker, tag, kind, value = payload
    if marker != "RBC" or not isinstance(tag, str):
        return None
    if kind not in (_INIT, _ECHO, _READY):
        return None
    return tag, kind, value


class BrachaRBC:
    """One reliable-broadcast instance.

    Args:
        ctx: the party's context (``t < n/3`` enforced).
        tag: unique instance identifier (conventionally includes the
            sender id, e.g. ``"aa/it3/s5"``).
        sender: the broadcasting party's id.
        send: callable ``send(dst, payload)`` (the party's API).
        on_deliver: callback invoked exactly once with the delivered
            value.
        validate: optional predicate on broadcast values; invalid
            values are ignored entirely (the paper's "ignore values
            outside N" convention).
    """

    def __init__(
        self,
        ctx: Context,
        tag: str,
        sender: int,
        send: Callable[[int, Any], None],
        on_deliver: Callable[[Any], None],
        validate: Callable[[Any], bool] | None = None,
    ) -> None:
        ctx.require_resilience(3)
        self.ctx = ctx
        self.tag = tag
        self.sender = sender
        self._send = send
        self._on_deliver = on_deliver
        self._validate = validate or (lambda value: True)

        self._echoed = False
        self._readied = False
        self._delivered = False
        self._echoes: dict[Any, set[int]] = {}
        self._readies: dict[Any, set[int]] = {}

    # -- sending ---------------------------------------------------------
    def broadcast(self, value: Any) -> None:
        """Start the instance (sender only)."""
        if self.ctx.party_id != self.sender:
            raise ValueError("only the designated sender may broadcast")
        for dst in self.ctx.all_parties:
            self._send(dst, rbc_message(self.tag, _INIT, value))

    def _send_all(self, kind: str, value: Any) -> None:
        for dst in self.ctx.all_parties:
            self._send(dst, rbc_message(self.tag, kind, value))

    # -- receiving ---------------------------------------------------------
    def handle(self, src: int, kind: str, value: Any) -> None:
        """Feed one already-parsed message belonging to this instance."""
        if self._delivered:
            return
        try:
            if not self._validate(value):
                return
        except Exception:
            return
        key = self._key(value)

        if kind == _INIT and src == self.sender and not self._echoed:
            self._echoed = True
            self._send_all(_ECHO, value)
        elif kind == _ECHO:
            supporters = self._echoes.setdefault(key, set())
            supporters.add(src)
            if len(supporters) >= self.ctx.quorum and not self._readied:
                self._readied = True
                self._send_all(_READY, value)
        elif kind == _READY:
            supporters = self._readies.setdefault(key, set())
            supporters.add(src)
            if len(supporters) >= self.ctx.t + 1 and not self._readied:
                self._readied = True
                self._send_all(_READY, value)
            if len(supporters) >= 2 * self.ctx.t + 1:
                self._delivered = True
                self._on_deliver(value)

    @staticmethod
    def _key(value: Any):
        """Hashable identity for counting (values may be unhashable)."""
        try:
            hash(value)
            return value
        except TypeError:
            return repr(value)

    @property
    def delivered(self) -> bool:
        """Whether this instance has delivered its value."""
        return self._delivered
