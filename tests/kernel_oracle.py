"""The scalar kernels: the oracle the shipped GF / RS / Merkle kernels
are checked against.

``repro`` ships one implementation of each kernel: the numpy-batched
GF(2^a) matrix product and Reed-Solomon plumbing, and the packed-buffer
sha256 Merkle levels.  This module keeps the textbook versions they
replaced -- element-by-element log/exp lookups, ``struct``-based symbol
framing, one hash call per tree node -- written for line-by-line
obviousness, not speed.

:func:`use_kernels` swaps the oracle in with ``monkeypatch``, *below*
the counter bumps (``BinaryField.matmul``, ``ReedSolomonCode.encode`` /
``decode`` and ``merkle.build`` still count), so a differential test
compares outputs and counter snapshots alike.  The two kernel sets keep
the parameter ids the suite has always used for them: ``"python"`` is
the oracle, ``"numpy"`` the shipped kernels.  Pool workers forked
while the oracle is in place inherit it.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.coding.gf import BinaryField
from repro.coding.reed_solomon import ReedSolomonCode
from repro.crypto import merkle

#: ``"python"``: the oracle below; ``"numpy"``: the shipped kernels.
KERNELS = ("python", "numpy")


def as_rows(data) -> list[list[int]]:
    """Normalise matrix-shaped input to a list of int lists."""
    if isinstance(data, np.ndarray):
        return data.tolist()
    return [list(row) for row in data]


def matmul_python(field: BinaryField, matrix, data) -> list[list[int]]:
    """The textbook triple loop, through the public :meth:`~BinaryField.
    mul` / :meth:`~BinaryField.add` scalar API."""
    rows = as_rows(matrix)
    data = as_rows(data)
    cols = len(data[0]) if data else 0
    out = []
    for row in rows:
        acc = [0] * cols
        for coeff, src in zip(row, data):
            if not coeff:
                continue
            for j in range(cols):
                acc[j] = field.add(acc[j], field.mul(coeff, src[j]))
        out.append(acc)
    return out


def frame_python(code: ReedSolomonCode, data: bytes) -> list[list[int]]:
    """Read the framed payload as ``k`` rows of chunk symbols."""
    framed = code._framed(data)
    if code.symbol_bytes == 2:
        symbols = struct.unpack(f">{len(framed) // 2}H", framed)
    else:
        symbols = framed  # bytes already iterate as ints
    # Row j of reshape(-1, k).T is every k-th symbol starting at j.
    return [list(symbols[j::code.k]) for j in range(code.k)]


def symbols_to_bytes(code: ReedSolomonCode, row: list[int]) -> bytes:
    """One row of symbols back to wire bytes."""
    if code.symbol_bytes == 2:
        return struct.pack(f">{len(row)}H", *row)
    return bytes(row)


def encode_python(code: ReedSolomonCode, data: bytes) -> list[bytes]:
    """The oracle for ``ReedSolomonCode._encode_numpy``."""
    evaluations = code.field.matmul(code.generator, frame_python(code, data))
    return [symbols_to_bytes(code, row) for row in evaluations]


def decode_python(
    code: ReedSolomonCode, decode_matrix, received: list[bytes]
) -> bytes:
    """The oracle for ``ReedSolomonCode._decode_numpy``."""
    if code.symbol_bytes == 2:
        rows = [
            list(struct.unpack(f">{len(share) // 2}H", share))
            for share in received
        ]
    else:
        rows = [list(share) for share in received]
    chunks = code.field.matmul(decode_matrix, rows)  # (k, c)
    cols = len(chunks[0]) if chunks else 0
    flat = [chunks[j][c] for c in range(cols) for j in range(code.k)]
    return code._unframe_bytes(symbols_to_bytes(code, flat))


def build_levels_reference(
    kappa: int, leaves: list[bytes], width: int
) -> list[list[bytes]]:
    """One ``_leaf_hash`` / ``_node_hash`` call per node: the same
    framing and domain separation as ``merkle._build_levels``, and one
    ``sha256`` bump per computed node."""
    level = [merkle._leaf_hash(kappa, leaf) for leaf in leaves]
    level.extend([merkle._empty_hash(kappa)] * (width - len(leaves)))
    levels = [level]
    while len(level) > 1:
        level = [
            merkle._node_hash(kappa, level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
        levels.append(level)
    return levels


#: ``(owner, attribute, oracle)``: each shipped kernel and its stand-in.
ORACLE = (
    (BinaryField, "_matmul_numpy", matmul_python),
    (ReedSolomonCode, "_encode_numpy", encode_python),
    (ReedSolomonCode, "_decode_numpy", decode_python),
    (merkle, "_build_levels", build_levels_reference),
)


@contextmanager
def use_kernels(kernels: str) -> Iterator[None]:
    """Run the block on one kernel set of :data:`KERNELS`."""
    if kernels not in KERNELS:
        raise ValueError(f"unknown kernel set {kernels!r}")
    with pytest.MonkeyPatch.context() as patch:
        if kernels == "python":
            for owner, attribute, oracle in ORACLE:
                patch.setattr(owner, attribute, oracle)
        yield
