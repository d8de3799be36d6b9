"""The paper's cost model: one bit term per protocol layer.

The paper proves asymptotic bounds, one per theorem; this module writes
each leading term down once, with unit constants, as an integer
function of ``(n, t, ell, kappa)`` (``ell`` the input bit-length,
``kappa`` the security parameter).  The terms assume Phase-King as
``PI_BA``.  A reproduction cannot check hidden constants, but it can
check that measured bits stay within a fixed factor of the term, and
the campaign envelopes are exactly that check:

    envelope = BIT_SLACK * term(n, t, ell, kappa) + BIT_FLOOR

:data:`BIT_SLACK` is fixed from measurement (``docs/attacks.md`` has
the per-protocol, per-plane ratio table it is read off) and asserted by
``tests/test_invariants.py``.  The two round envelopes are generous
``O((log l + log n) t)`` shapes kept at the values the campaigns have
always used; a per-layer round model is not written yet.
:func:`message_bits` is the wire guard's per-message bound, which the
naive baseline's term needs too.

Standard library only: :mod:`repro.sim` imports it, so it must not
import anything of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BIT_FLOOR",
    "BIT_SLACK",
    "BitEnvelope",
    "ba_plus",
    "broadcast_ca",
    "ext_ba_plus",
    "fixed_length_ca",
    "fixed_length_ca_blocks",
    "high_cost_ca",
    "high_cost_round_envelope",
    "message_bits",
    "naive_broadcast_ca",
    "phase_king",
    "pi_z",
    "round_envelope",
]

#: the smallest power of two that is at least 4x the largest measured
#: honest-bits/term ratio over the campaign planes (``docs/attacks.md``).
BIT_SLACK = 16

#: an additive floor, so the tiny cases of a campaign are not judged on
#: a term of a few hundred bits.
BIT_FLOOR = 1 << 16


def _log2(x: int) -> int:
    """``ceil(log2 x)``, at least 1."""
    return (max(2, x) - 1).bit_length()


def phase_king(n: int, t: int, value_bits: int) -> int:
    """Phase-King: ``O(value_bits * n^2)`` per phase, ``t + 1`` phases."""
    return value_bits * n * n * (t + 1)


def ba_plus(n: int, t: int, kappa: int) -> int:
    """Theorem 6: ``O(kappa n^2) + BITS_kappa(PI_BA)``."""
    return kappa * n * n + 2 * phase_king(n, t, kappa)


def ext_ba_plus(n: int, t: int, ell: int, kappa: int) -> int:
    """Theorem 1: ``O(l n + kappa n^2 log n) + BITS_kappa(PI_BA)``."""
    return ell * n + kappa * n * n * _log2(n) + ba_plus(n, t, kappa)


def fixed_length_ca(n: int, t: int, ell: int, kappa: int) -> int:
    """Theorem 2: ``O(l n + kappa n^2 log n log l)`` plus BA terms."""
    iterations = _log2(ell) + 1
    return (
        2 * ell * n
        + kappa * n * n * _log2(n) * iterations
        + iterations * ba_plus(n, t, kappa)
    )


def fixed_length_ca_blocks(n: int, t: int, ell: int, kappa: int) -> int:
    """Theorem 4: ``O(l n + kappa n^2 log^2 n)`` plus BA terms."""
    iterations = 2 * _log2(n) + 1
    return (
        2 * ell * n
        + kappa * n * n * _log2(n) * iterations
        + iterations * ba_plus(n, t, kappa)
        + high_cost_ca(n, t, max(1, ell // (n * n)), kappa)
    )


def pi_z(n: int, t: int, ell: int, kappa: int) -> int:
    """Theorem 5 / Corollaries 1-2 (``PI_Z`` and ``PI_N``):
    ``O(l n + kappa n^2 log^2 n)``.

    Bit-BAs fix the sign and classify the inputs.  Short ones
    (``l <= n^2``) fix a power-of-two length with ``O(log n)`` more and
    run ``FixedLengthCA``; long ones agree on an ``O(log l)``-bit block
    size with ``HighCostCA`` and run ``FixedLengthCABlocks``.
    """
    if ell <= n * n:
        return (
            (_log2(n * n) + 4) * phase_king(n, t, 1)
            + fixed_length_ca(n, t, 1 << _log2(ell), kappa)
        )
    return (
        2 * phase_king(n, t, 1)
        + high_cost_ca(n, t, _log2(ell), kappa)
        + fixed_length_ca_blocks(n, t, ell, kappa)
    )


def high_cost_ca(n: int, t: int, ell: int, kappa: int) -> int:
    """Theorem 3: ``O(l n^3)``."""
    return ell * n ** 3


def broadcast_ca(n: int, t: int, ell: int, kappa: int) -> int:
    """Baseline: n broadcast-extension instances, ``O(l n^2 + ...)``."""
    return n * ext_ba_plus(n, t, ell, kappa)


def naive_broadcast_ca(n: int, t: int, ell: int, kappa: int) -> int:
    """Strawman: n Turpin-Coan broadcasts, ``O(l n^3)`` for honest senders.

    Each instance sends the value to all (``l n``), exchanges it and a
    candidate all-to-all (``2 l n^2``) and runs one binary Phase-King.
    Honest parties forward the sender's value whatever its length, so
    each of the ``t`` byzantine senders can fill both all-to-all rounds
    with the longest message the wire admits.
    """
    return (
        n * (ell * n + 2 * ell * n * n + phase_king(n, t, 1))
        + t * 2 * n * n * message_bits(n, ell, kappa)
    )


def message_bits(n: int, ell: int, kappa: int) -> int:
    """The longest message the wire guard admits
    (:meth:`~repro.sim.wire.WireLimits.from_envelopes`).

    The largest honest message is ``O(l + kappa log n)`` bits (a whole
    value plus a Merkle witness); a 64x margin on ``l + kappa n`` plus a
    constant floor dominates every honest shape while still sitting
    orders of magnitude below a payload bomb.
    """
    return 64 * (max(1, ell) + max(1, kappa) * max(2, n)) + 4096


@dataclass(frozen=True)
class BitEnvelope:
    """A campaign's honest-bit budget over one protocol's term."""

    term: Callable[[int, int, int, int], int]

    def __call__(self, n: int, t: int, ell: int, kappa: int) -> int:
        return BIT_SLACK * self.term(n, t, ell, kappa) + BIT_FLOOR


def round_envelope(n: int, t: int, ell: int) -> int:
    """``O(n) + O(log l) * ROUNDS(PI_BA)`` with generous slack.

    With Phase-King, ``ROUNDS(PI_BA) = 3(t + 1)``; ``FixedLengthCA``
    makes ``O(log l)`` BA-heavy iterations and ``PI_N`` adds ``O(log n)``
    length-estimation BAs, so the true count is
    ``Theta((log l + log n) t)``; the factor 24 is slack on top.
    """
    return 24 * 3 * (t + 1) * (_log2(ell) + _log2(n) + 4) + 8 * n + 64


def high_cost_round_envelope(n: int, t: int, ell: int) -> int:
    """``HighCostCA``'s ``O(t)`` rounds (a setup stage and ``t + 1``
    king phases), with slack."""
    return 8 * (2 + 4 * (t + 1)) + 32
