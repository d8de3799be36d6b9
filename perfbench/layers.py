"""Channel label -> paper layer.

Every lockstep round carries one channel label such as
``piZ/nat/flca/fp/i3/root/ba_a/ph1/exch``: each protocol appends its own
segment before calling into the next one, so the label spells the call
stack of the round and its *innermost* matching segment names the module
whose code actually sent the messages.  That module owns the round's
bits and, in the traced run, the round's wall time.

The rules are ordered innermost first; the first match wins.  The four
orchestration layers (``protocol_z``, ``protocol_n``, ``find_prefix``,
``add_last``) send nothing on their own label today -- all their traffic
is emitted by the building block they call -- so they read 0 until a
change makes them send directly.
"""

from __future__ import annotations

import functools
import re

#: The nine paper layers, outermost first (README glossary order).
LAYERS = (
    "core.protocol_z",
    "core.protocol_n",
    "core.find_prefix",
    "core.add_last",
    "core.get_output",
    "core.high_cost_ca",
    "ba.ext_ba_plus",
    "ba.ba_plus",
    "ba.phase_king",
)

_RULES = tuple(
    (re.compile(pattern), layer)
    for pattern, layer in (
        (r"/ph\d+/(exch|prop|king)$", "ba.phase_king"),
        (r"/dist/r\d+$", "ba.ext_ba_plus"),
        (r"/root/(input|vote)$", "ba.ba_plus"),
        # HighCostCA runs under ``al/hc`` (AddLastBlock) and ``bsize``
        # (the block-size agreement of PI_N); its own rounds are
        # ``input``, ``interval`` and ``p<phase>/<step>``.
        (
            r"/(hc|bsize)/(input|interval|p\d+/(cur|king|prop|vote))$",
            "core.high_cost_ca",
        ),
        (r"/go(/|$)", "core.get_output"),
        (r"/al(/|$)", "core.add_last"),
        (r"/fp/i\d+(/|$)", "core.find_prefix"),
        (r"/(class|len\d+|bsize|flcab?)(/|$)", "core.protocol_n"),
        (r"/sign(/|$)", "core.protocol_z"),
    )
)

#: Layers whose traffic carries (shares of) the ell-bit values: the
#: ``ell * n`` dispersal term of Theorems 1-2.  Everything else moves
#: kappa-bit digests, bits and votes: the ``kappa * n^2 * log n``
#: agreement term.
DISPERSAL_LAYERS = frozenset({"ba.ext_ba_plus", "core.high_cost_ca"})


@functools.lru_cache(maxsize=None)
def layer_of(label: str) -> str | None:
    """The layer owning ``label``, or ``None`` when no rule matches."""
    for pattern, layer in _RULES:
        if pattern.search(label):
            return layer
    return None


def split_by_layer(by_channel: dict[str, int]) -> dict[str, int]:
    """Fold a per-channel total into a total for every layer in LAYERS.

    An amount on a label no rule matches is left out, so the layers then
    sum to less than the whole (the tests check they do not).
    """
    per_layer = dict.fromkeys(LAYERS, 0)
    for label, amount in by_channel.items():
        owner = layer_of(label)
        if owner is not None:
            per_layer[owner] += amount
    return per_layer
