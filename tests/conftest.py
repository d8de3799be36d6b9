"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.ba.domains import canonical_key
from repro.sim import run_protocol
from repro.sim.adversary import standard_adversary_suite

# Small (n, t) configurations exercising both t = (n-1)/3 tightness and
# slack; all satisfy t < n/3.
CONFIGS = [(4, 1), (7, 2), (10, 3)]

SMALL_CONFIGS = [(4, 1), (7, 2)]


def adversary_params():
    """Pytest params covering the standard adversary battery."""
    suite = standard_adversary_suite(seed=11)
    return [pytest.param(adv, id=adv.describe()) for adv in suite]


def honest_values(inputs, result):
    """The inputs of the parties that stayed honest."""
    if isinstance(inputs, dict):
        items = inputs.items()
    else:
        items = enumerate(inputs)
    return [v for party, v in items if party not in result.corrupted]


def assert_convex(inputs, result, output=None):
    """Assert Agreement + Convex Validity for an execution result.

    Thin wrapper over :meth:`ExecutionResult.assert_convex_valid` so a
    violation raises the same tagged :class:`ProtocolViolation` the
    online monitors produce.
    """
    if output is not None:
        honest = honest_values(inputs, result)
        assert honest, "no honest parties left"
        assert min(honest) <= output <= max(honest), (
            f"output {output} outside honest range "
            f"[{min(honest)}, {max(honest)}]"
        )
        return output
    return result.assert_convex_valid(inputs)


def run(factory, inputs, n, t, **kwargs):
    """Shorthand for run_protocol with sane test defaults."""
    kwargs.setdefault("kappa", 64)
    return run_protocol(factory, inputs, n=n, t=t, **kwargs)


def oracle_tally(domain, ballots):
    """Reference semantics for ``Domain.tally``, written out: validate
    every copy, count by canonical key, keep the first-seen
    representative.  The differential tests compare against this."""
    groups = {}
    for ballot in ballots:
        if domain.validate(ballot):
            entry = groups.setdefault(canonical_key(ballot), [ballot, 0])
            entry[1] += 1
    return [(value, count) for value, count in groups.values()]
