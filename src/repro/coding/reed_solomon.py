"""Reed-Solomon erasure codes with parameters ``(n, k = n - t)``.

Section 7: ``RS.ENCODE(v)`` splits a value into ``n`` codewords of
``O(|BITS(v)|/n)`` bits each such that any ``n - t`` of them reconstruct
``v`` (``RS.DECODE``).  Corrupted codewords are filtered *upstream* by
Merkle witnesses, so pure erasure decoding suffices -- exactly the
structure of ``PI_lBA+``'s distributing step.

Construction (classic polynomial-evaluation RS over ``GF(2^a)``):

* the payload bytes are framed with a 4-byte length header, padded, and
  read as field symbols ``d_0 .. d_{m-1}``,
* symbols are grouped into chunks of ``k``; chunk ``c`` defines the
  polynomial ``p_c(x) = sum_j d_{ck+j} x^j`` of degree ``< k``,
* codeword ``i`` is the evaluation vector ``(p_0(x_i), p_1(x_i), ...)``
  at the distinct non-zero point ``x_i = i + 1``,
* decoding from any ``k`` codewords inverts the corresponding ``k x k``
  Vandermonde submatrix (Gauss-Jordan over GF) and recovers all chunks
  with one matrix product.

The codec precomputes the generator matrix once per ``(n, k)`` pair.
The symbol plumbing and the Vandermonde application come in two
byte-identical kernels selected by :func:`repro.perf.config.backend`:
the ``"numpy"`` backend frames via ``frombuffer``/``reshape`` (wire
symbols stay 16-bit views, used only as gather indices) and evaluates
with batched exp/log gathers over log-domain matrices (keeping the
very-long-input experiments at hundreds of kilobits fast), the
``"python"`` backend is the dependency-free ``struct``-based scalar
reference.

Inverted decode submatrices are memoized **process-wide**, keyed by the
full code parameters ``(field degree, field modulus, n, k, indices)``
-- never by the index tuple alone, because distinct codes routinely
decode from identical index tuples (the regression suite pins this).
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from functools import lru_cache

try:  # numpy is an optional extra; the python backend needs none of it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised in no-numpy installs
    np = None  # type: ignore[assignment]

from ..errors import CodingError
from ..perf import config, counters
from .gf import GF65536, BinaryField, LogMatrix

__all__ = ["ReedSolomonCode", "rs_code", "clear_decode_matrix_cache"]

_LENGTH_HEADER_BYTES = 4

#: Process-wide inverted-Vandermonde memo.  FindPrefix-style loops
#: decode from the same share set over and over, and the inversion is a
#: pure function of the code parameters and the indices -- adversarial
#: share *contents* never enter the key.  Keyed on the full
#: ``(degree, modulus, n, k, indices)`` tuple: two codes with different
#: parameters (or fields) frequently share index tuples and must never
#: share inverses.
#:
#: Bounded LRU: a hit refreshes its entry, an insert at capacity evicts
#: the least recently used one, so long multi-code soaks (fuzz
#: campaigns rotating through many ``(n, k)`` shapes) keep their hot
#: working set instead of the old clear-everything overflow behaviour.
_DECODE_MATRIX_CACHE: OrderedDict[tuple, LogMatrix] = OrderedDict()


def _cache_cap() -> int:
    """The cache capacity: ``REPRO_DECODE_MATRIX_CACHE_MAX`` or 512.

    Read once at import (the simulator's hot loop should not pay a
    ``getenv`` per decode); a non-positive or unparsable setting
    disables memoization entirely, which is the memory-floor escape
    hatch for embedded runs.
    """
    raw = os.environ.get("REPRO_DECODE_MATRIX_CACHE_MAX")
    if raw is None:
        return 512
    try:
        return int(raw)
    except ValueError:
        return 0


_DECODE_MATRIX_CACHE_MAX = _cache_cap()


def clear_decode_matrix_cache() -> None:
    """Drop every memoized decode matrix (profiling cold-start hook)."""
    _DECODE_MATRIX_CACHE.clear()


class ReedSolomonCode:
    """An ``(n, k)`` erasure code over ``GF(2^a)`` (default ``a = 16``)."""

    def __init__(
        self, n: int, k: int, field: BinaryField = GF65536
    ) -> None:
        if not 1 <= k <= n:
            raise CodingError(f"need 1 <= k <= n, got n={n}, k={k}")
        if n >= field.order:
            raise CodingError(
                f"field GF(2^{field.degree}) supports at most "
                f"{field.order - 1} codewords, asked for {n}"
            )
        self.n = n
        self.k = k
        self.field = field
        self.symbol_bytes = field.degree // 8
        if field.degree % 8:
            raise CodingError("field degree must be a multiple of 8")
        #: big-endian wire symbols, as numpy reads and writes them.
        self._wire_dtype = ">u2" if self.symbol_bytes == 2 else ">u1"
        self.points = [i + 1 for i in range(n)]
        self.generator = LogMatrix(field.vandermonde(self.points, k))

    def _invert_submatrix(self, indices: tuple[int, ...]) -> LogMatrix:
        counters.bump("gf_matrix_invert")
        return LogMatrix(
            self.field.invert_matrix([self.generator[i] for i in indices])
        )

    def _decode_matrix(self, indices: tuple[int, ...]) -> LogMatrix:
        """The cached inverse for this code's share-index tuple."""
        key = (
            self.field.degree,
            self.field.modulus,
            self.n,
            self.k,
            indices,
        )
        cap = _DECODE_MATRIX_CACHE_MAX
        if cap <= 0:
            return self._invert_submatrix(indices)
        hit = _DECODE_MATRIX_CACHE.get(key)
        if hit is None:
            hit = self._invert_submatrix(indices)
            if len(_DECODE_MATRIX_CACHE) >= cap:
                _DECODE_MATRIX_CACHE.popitem(last=False)
            _DECODE_MATRIX_CACHE[key] = hit
        else:
            _DECODE_MATRIX_CACHE.move_to_end(key)
        return hit

    # -- byte <-> symbol plumbing -----------------------------------------
    def _framed(self, data: bytes) -> bytes:
        """Length-frame and pad ``data`` to a whole number of chunks."""
        framed = len(data).to_bytes(_LENGTH_HEADER_BYTES, "big") + data
        stride = self.symbol_bytes * self.k
        padding = (-len(framed)) % stride
        return framed + b"\x00" * padding

    def _frame_numpy(self, data: bytes):
        """View the framed payload as ``(k, chunks)`` wire symbols."""
        symbols = np.frombuffer(self._framed(data), dtype=self._wire_dtype)
        return symbols.reshape(-1, self.k).T

    def _frame_python(self, data: bytes) -> list[list[int]]:
        """Read the framed payload as ``k`` rows of chunk symbols."""
        framed = self._framed(data)
        if self.symbol_bytes == 2:
            symbols = struct.unpack(f">{len(framed) // 2}H", framed)
        else:
            symbols = framed  # bytes already iterate as ints
        # Row j of reshape(-1, k).T is every k-th symbol starting at j.
        return [list(symbols[j::self.k]) for j in range(self.k)]

    def _unframe_bytes(self, framed: bytes) -> bytes:
        """Strip framing; raises :class:`CodingError` on junk."""
        if len(framed) < _LENGTH_HEADER_BYTES:
            raise CodingError("decoded payload shorter than length header")
        length = int.from_bytes(framed[:_LENGTH_HEADER_BYTES], "big")
        body = framed[_LENGTH_HEADER_BYTES:]
        if length > len(body):
            raise CodingError(
                f"framed length {length} exceeds decoded payload {len(body)}"
            )
        if any(body[length:]):
            raise CodingError("non-zero padding in decoded payload")
        return body[:length]

    def _symbols_to_bytes(self, row: list[int]) -> bytes:
        """One row of symbols back to wire bytes (python backend)."""
        if self.symbol_bytes == 2:
            return struct.pack(f">{len(row)}H", *row)
        return bytes(row)

    # -- public API ---------------------------------------------------------
    def encode(self, data: bytes) -> list[bytes]:
        """``RS.ENCODE``: return the ``n`` codewords of ``data``."""
        counters.bump("rs_encode")
        if config.backend() == "numpy":
            evaluations = self.field.matmul(
                self.generator, self._frame_numpy(data)     # (k, c)
            )                                                # (n, c)
            # One byte-swap for the whole matrix, then a copy per row.
            wire = evaluations.astype(self._wire_dtype)
            return [row.tobytes() for row in wire]
        evaluations = self.field.matmul(
            self.generator, self._frame_python(data)
        )
        return [self._symbols_to_bytes(row) for row in evaluations]

    def share_length(self, data_len: int) -> int:
        """Byte length every codeword of a ``data_len``-byte value has."""
        framed = data_len + _LENGTH_HEADER_BYTES
        stride = self.symbol_bytes * self.k
        chunks = (framed + stride - 1) // stride
        return chunks * self.symbol_bytes

    def decode(self, shares: dict[int, bytes]) -> bytes:
        """``RS.DECODE``: reconstruct from >= k erasure-free codewords.

        ``shares`` maps codeword index -> codeword bytes.  Exactly the
        first ``k`` indices (sorted) are used.  Raises
        :class:`~repro.errors.CodingError` for malformed share sets.
        """
        counters.bump("rs_decode")
        if len(shares) < self.k:
            raise CodingError(
                f"need at least k={self.k} shares, got {len(shares)}"
            )
        indices = tuple(sorted(shares)[: self.k])
        if any(not 0 <= i < self.n for i in indices):
            raise CodingError(f"share index out of range in {indices}")
        lengths = {len(shares[i]) for i in indices}
        if len(lengths) != 1:
            raise CodingError(f"inconsistent share lengths {sorted(lengths)}")
        (length,) = lengths
        if length == 0 or length % self.symbol_bytes:
            raise CodingError(f"share length {length} not a symbol multiple")

        if config.caches_enabled():
            decode_matrix = self._decode_matrix(indices)
        else:
            decode_matrix = self._invert_submatrix(indices)

        if config.backend() == "numpy":
            # The k shares back to back are the (k, c) symbol matrix.
            received = np.frombuffer(
                b"".join(shares[i] for i in indices), dtype=self._wire_dtype
            ).reshape(self.k, -1)
            chunks = self.field.matmul(decode_matrix, received)  # (k, c)
            flat = chunks.T.astype(self._wire_dtype, order="C")
            return self._unframe_bytes(flat.tobytes())

        if self.symbol_bytes == 2:
            received = [
                list(struct.unpack(f">{length // 2}H", shares[i]))
                for i in indices
            ]
        else:
            received = [list(shares[i]) for i in indices]
        chunks = self.field.matmul(decode_matrix, received)  # (k, c)
        cols = len(chunks[0]) if chunks else 0
        flat = [chunks[j][c] for c in range(cols) for j in range(self.k)]
        return self._unframe_bytes(self._symbols_to_bytes(flat))


@lru_cache(maxsize=64)
def rs_code(n: int, k: int) -> ReedSolomonCode:
    """Cached ``(n, k)`` codec over the production field ``GF(2^16)``."""
    return ReedSolomonCode(n, k)
