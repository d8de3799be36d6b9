"""The paper's primary contribution: the Convex Agreement protocol stack."""

from .add_last import add_last_bit, add_last_block
from .api import ConvexAgreementOutcome, convex_agreement, default_threshold
from .bitstrings import (
    BitString,
    bits_fixed,
    bits_of,
    blocks_of,
    join_blocks,
    longest_common_prefix,
    max_fill,
    min_fill,
    val_of,
)
from .find_prefix import PrefixResult, find_prefix
from .fixed_length import fixed_length_ca, fixed_length_ca_blocks
from .get_output import get_output
from .high_cost_ca import high_cost_ca
from .protocol_n import protocol_n
from .protocol_z import protocol_z

__all__ = [
    "BitString",
    "ConvexAgreementOutcome",
    "PrefixResult",
    "add_last_bit",
    "add_last_block",
    "bits_fixed",
    "bits_of",
    "blocks_of",
    "convex_agreement",
    "default_threshold",
    "find_prefix",
    "fixed_length_ca",
    "fixed_length_ca_blocks",
    "get_output",
    "high_cost_ca",
    "join_blocks",
    "longest_common_prefix",
    "max_fill",
    "min_fill",
    "protocol_n",
    "protocol_z",
    "val_of",
]
