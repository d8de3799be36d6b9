"""Baselines the paper compares against.

* :func:`broadcast_ca` -- CA via ``n`` broadcast-extension instances,
  the ``O(l n^2)`` classic approach from the paper's introduction;
* :func:`naive_broadcast_ca` -- CA via ``n`` raw-value Turpin-Coan
  broadcasts, the pre-extension ``O(l n^3)`` strawman;
* :func:`repro.core.high_cost_ca` (re-exported) -- the ``O(l n^3)``
  existing-CA-protocol baseline of Appendix A.4, also used as a
  subprotocol.
"""

from ..core.high_cost_ca import high_cost_ca
from .broadcast_ca import broadcast_ca
from .common import decode_int, encode_int, trimmed_median
from .naive_broadcast_ca import naive_broadcast_ca

__all__ = [
    "broadcast_ca",
    "decode_int",
    "encode_int",
    "high_cost_ca",
    "naive_broadcast_ca",
    "trimmed_median",
]
