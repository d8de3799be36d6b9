"""Binary Galois field arithmetic ``GF(2^a)``.

Section 7 of the paper requires Reed-Solomon codewords to be elements of
a Galois field ``GF(2^a)`` with ``n <= 2^a - 1``.  We provide a generic
:class:`BinaryField` with log/antilog tables whose bulk operations come
in two byte-identical kernel implementations, selected at runtime by
:func:`repro.perf.config.backend`:

* ``"python"`` -- pure-python scalar reference: per-element log/exp
  table lookups over plain lists.  No third-party dependencies.
* ``"numpy"`` -- table-batched: one fused log-gather + exp-gather + XOR
  reduction over zero-sentinel tables with ``uint16`` products (the
  long-message benchmarks encode hundreds of kilobits, so the
  per-symbol hot path must be array-based, not per-element Python).

Both kernels are exact GF arithmetic over the same tables, so outputs
are bit-identical by construction; ``tests/test_backend_conformance.py``
proves it differentially across the whole protocol stack.

Two standard instantiations are exported:

* :data:`GF256` -- ``GF(2^8)``, used in unit tests (small, fast tables),
* :data:`GF65536` -- ``GF(2^16)``, the production field (supports up to
  65535 parties, far beyond any simulated ``n``).
"""

from __future__ import annotations

from typing import Sequence

try:  # numpy is an optional extra; the python backend needs none of it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised in no-numpy installs
    np = None  # type: ignore[assignment]

from ..perf import config, counters

__all__ = ["BinaryField", "LogMatrix", "GF256", "GF65536"]


def _as_rows(data) -> list[list[int]]:
    """Normalise matrix-shaped input to a list of int lists."""
    if np is not None and isinstance(data, np.ndarray):
        return data.tolist()
    return [list(row) for row in data]


def _as_flat(vec) -> list[int]:
    """Normalise vector-shaped input to a list of ints."""
    if np is not None and isinstance(vec, np.ndarray):
        return vec.tolist()
    return list(vec)


class LogMatrix(list):
    """Coefficient rows that remember their log-domain form.

    A plain list of rows to every consumer (the scalar oracle, matrix
    inversion, tests).  The numpy kernel parks the discrete logs of the
    coefficients on it at first use, so a matrix applied many times (an
    RS generator, a memoized decode matrix) is converted once.  It
    belongs to the one field it is multiplied in and is never mutated.
    """

    __slots__ = ("logs",)

    def __init__(self, rows) -> None:
        super().__init__(rows)
        self.logs = None


class BinaryField:
    """``GF(2^degree)`` with the given irreducible modulus polynomial."""

    def __init__(self, degree: int, modulus: int) -> None:
        if not 1 <= degree <= 16:
            raise ValueError(f"unsupported field degree {degree}")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree          # field size q
        self.mul_group_order = self.order - 1

        # exp table doubled so exp[log a + log b] never needs a modulo.
        # Built as plain lists (the python backend's native format and
        # the fastest container for the scalar ops); the numpy views are
        # materialised lazily on first batched-kernel use.
        exp = [0] * (2 * self.mul_group_order)
        log = [0] * self.order
        x = 1
        for i in range(self.mul_group_order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= modulus
            if x == 1 and i < self.mul_group_order - 1:
                raise ValueError(
                    f"0x{modulus:X} is not primitive for degree {degree}"
                )
        if x != 1:
            raise ValueError(
                f"0x{modulus:X} is not primitive for degree {degree}"
            )
        exp[self.mul_group_order:] = exp[: self.mul_group_order]
        self._exp_list = exp
        self._log_list = log
        self._tables = None  # numpy (exp, log) views, built on demand

    def _numpy_tables(self):
        """Zero-sentinel ``(exp, log)`` tables (numpy backend only).

        ``log[0]`` is ``2(q-1)``, past every sum of two real logs, and
        the ``uint16`` antilog table is zero from there up to
        ``2 log[0] = 4(q-1)``: ``exp[log a + log b]`` is already 0 when
        an operand is 0, so no kernel masks anything.  Logs are ``intp``
        (the sentinel needs 18 bits, and ``take`` indexes in ``intp``).

        Built in locals and published in one store: the first build may
        run inside a timed case, and an alarm that lands mid-build must
        leave the field unbuilt, not half-built for the process's life.
        """
        if self._tables is None:
            sentinel = 2 * self.mul_group_order
            exp = np.zeros(2 * sentinel + 1, dtype=np.uint16)
            exp[:sentinel] = self._exp_list
            log = np.array(self._log_list, dtype=np.intp)
            log[0] = sentinel
            self._tables = exp, log
        return self._tables

    # -- scalar ops -------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Addition = subtraction = XOR in characteristic 2."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """GF product of two field elements."""
        if a == 0 or b == 0:
            return 0
        return self._exp_list[self._log_list[a] + self._log_list[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on 0."""
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in a field")
        return self._exp_list[self.mul_group_order - self._log_list[a]]

    def div(self, a: int, b: int) -> int:
        """GF quotient ``a / b``."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, exponent: int) -> int:
        """GF exponentiation via the log table."""
        if exponent == 0:
            return 1
        if a == 0:
            return 0
        idx = (self._log_list[a] * exponent) % self.mul_group_order
        return self._exp_list[idx]

    # -- vectorised ops ---------------------------------------------------
    def mul_vec(self, a, b):
        """Element-wise GF product of two same-length int sequences.

        Returns a ``uint16`` array on the numpy backend, a list on the
        python backend; the element values are identical either way.
        """
        if config.backend() == "numpy":
            exp, log = self._numpy_tables()
            return exp.take(log.take(a) + log.take(b))
        return [self.mul(x, y) for x, y in zip(_as_flat(a), _as_flat(b))]

    def scalar_mul_vec(self, scalar: int, vec):
        """GF product of one scalar with an int sequence."""
        if config.backend() == "numpy":
            exp, log = self._numpy_tables()
            return exp.take(log.take(vec) + log[scalar])
        return [self.mul(scalar, x) for x in _as_flat(vec)]

    def matmul(self, matrix: Sequence[Sequence[int]], data):
        """GF matrix product ``matrix (r x k) @ data (k x c) -> (r x c)``.

        The single entry point both backends share, so the
        ``gf_matmul`` counter is bumped identically no matter which
        kernel runs.  ``k`` is small (<= n parties); everything over the
        chunk dimension ``c`` (message length / k) is the hot axis.
        """
        counters.bump("gf_matmul")
        if config.backend() == "numpy":
            return self._matmul_numpy(matrix, data)
        return self._matmul_python(matrix, data)

    def _matmul_python(self, matrix, data) -> list[list[int]]:
        """Scalar reference kernel: the textbook triple loop.

        Deliberately written element by element through the public
        :meth:`mul`/:meth:`add` scalar API -- this kernel is the
        conformance *oracle* the batched backend is differentially
        tested against, so it favours line-by-line obviousness over
        throughput.
        """
        rows = _as_rows(matrix)
        data = _as_rows(data)
        cols = len(data[0]) if data else 0
        out = []
        for row in rows:
            acc = [0] * cols
            for coeff, src in zip(row, data):
                if not coeff:
                    continue
                for j in range(cols):
                    acc[j] = self.add(acc[j], self.mul(coeff, src[j]))
            out.append(acc)
        return out

    #: products gathered per step.  Wider calls walk the columns in
    #: blocks of this many ``(row, k, column)`` elements, so the
    #: transient sums and products stay near 10 MiB whatever ``c`` is.
    _MATMUL_BLOCK = 1 << 20

    def _matmul_numpy(self, matrix, data):
        """Table-batched kernel: the discrete logs of ``data`` are
        looked up *once* per call (not once per matrix coefficient), a
        :class:`LogMatrix` brings the coefficients' logs with it, and
        each column block is one fused gather --
        ``exp[log_mat[:, :, None] + log_data]`` XOR-reduced over the
        shared ``k`` axis.  The sentinel tables make zeros fall out of
        the gather itself; byte-identical to the scalar oracle.
        """
        exp, log = self._numpy_tables()
        log_data = log.take(data)
        cols = log_data.shape[1]
        out = np.empty((len(matrix), cols), dtype=np.uint16)
        if not out.size:
            return out
        if not isinstance(matrix, LogMatrix):
            log_mat = log.take(matrix)[:, :, None]
        elif matrix.logs is None:
            log_mat = matrix.logs = log.take(matrix)[:, :, None]
        else:
            log_mat = matrix.logs
        step = max(1, self._MATMUL_BLOCK // log_mat.size)
        for at in range(0, cols, step):
            np.bitwise_xor.reduce(
                exp.take(log_mat + log_data[:, at:at + step]),
                axis=1,
                out=out[:, at:at + step],
            )
        return out

    # -- linear algebra -----------------------------------------------------
    def invert_matrix(self, matrix: list[list[int]]) -> list[list[int]]:
        """Invert a square GF matrix by Gauss-Jordan elimination."""
        size = len(matrix)
        work = [list(row) for row in matrix]
        if any(len(row) != size for row in work):
            raise ValueError("matrix must be square")
        inverse = [
            [1 if r == c else 0 for c in range(size)] for r in range(size)
        ]
        for col in range(size):
            pivot_row = next(
                (r for r in range(col, size) if work[r][col]), None
            )
            if pivot_row is None:
                raise ValueError("matrix is singular over GF")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inverse[col], inverse[pivot_row] = (
                inverse[pivot_row],
                inverse[col],
            )
            pivot_inv = self.inv(work[col][col])
            work[col] = [self.mul(pivot_inv, x) for x in work[col]]
            inverse[col] = [self.mul(pivot_inv, x) for x in inverse[col]]
            for r in range(size):
                if r == col or not work[r][col]:
                    continue
                factor = work[r][col]
                work[r] = [
                    x ^ self.mul(factor, y)
                    for x, y in zip(work[r], work[col])
                ]
                inverse[r] = [
                    x ^ self.mul(factor, y)
                    for x, y in zip(inverse[r], inverse[col])
                ]
        return inverse

    def vandermonde(self, points: list[int], width: int) -> list[list[int]]:
        """Rows ``[x^0, x^1, ..., x^{width-1}]`` for each evaluation point."""
        return [
            [self.pow(x, j) for j in range(width)] for x in points
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BinaryField(GF(2^{self.degree}))"


GF256 = BinaryField(8, 0x11D)
GF65536 = BinaryField(16, 0x1100B)
