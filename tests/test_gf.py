"""Field-axiom and matrix-product tests for GF(2^a)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kernel_oracle import matmul_python, use_kernels

from repro.coding.gf import GF256, GF65536, BinaryField, LogMatrix

elements256 = st.integers(min_value=0, max_value=255)
nonzero256 = st.integers(min_value=1, max_value=255)
elements64k = st.integers(min_value=0, max_value=65535)
nonzero64k = st.integers(min_value=1, max_value=65535)


def rows(out):
    """Kernel-agnostic matrix view: rows as plain int lists."""
    if hasattr(out, "tolist"):
        return out.tolist()
    return [list(row) for row in out]


def mul_vec(field, xs, ys):
    """Element-wise products as a matmul input: ``diag(xs)`` applied to
    the column ``ys`` (every off-diagonal coefficient is a zero)."""
    xs = [int(x) for x in xs]
    if not xs:
        return []
    diagonal = [[x if r == c else 0 for c in range(len(xs))]
                for r, x in enumerate(xs)]
    column = np.asarray(ys).reshape(-1, 1)
    return [row[0] for row in rows(field.matmul(diagonal, column))]


def scalar_mul_vec(field, scalar, xs):
    """One scalar times a row, as a matmul input: ``[[scalar]] @ [xs]``."""
    if not len(xs):
        return []
    (row,) = rows(field.matmul([[scalar]], np.asarray(xs).reshape(1, -1)))
    return row


class TestFieldAxiomsGF256:
    @given(elements256, elements256)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elements256, elements256, elements256)
    def test_mul_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elements256, elements256, elements256)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, b ^ c)
        right = GF256.mul(a, b) ^ GF256.mul(a, c)
        assert left == right

    @given(elements256)
    def test_mul_identity(self, a):
        assert GF256.mul(a, 1) == a

    @given(elements256)
    def test_mul_zero(self, a):
        assert GF256.mul(a, 0) == 0

    @given(nonzero256)
    def test_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(nonzero256, nonzero256)
    def test_div_inverts_mul(self, a, b):
        assert GF256.mul(GF256.mul(a, b), GF256.inv(b)) == a

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    @given(elements256, st.integers(min_value=0, max_value=600))
    def test_pow_matches_repeated_mul(self, a, e):
        expected = 1
        for _ in range(e):
            expected = GF256.mul(expected, a)
        assert GF256.pow(a, e) == expected


class TestFieldAxiomsGF65536:
    @given(elements64k, elements64k)
    def test_mul_commutative(self, a, b):
        assert GF65536.mul(a, b) == GF65536.mul(b, a)

    @given(nonzero64k)
    def test_inverse(self, a):
        assert GF65536.mul(a, GF65536.inv(a)) == 1

    @given(elements64k, elements64k, elements64k)
    def test_distributive(self, a, b, c):
        left = GF65536.mul(a, b ^ c)
        right = GF65536.mul(a, b) ^ GF65536.mul(a, c)
        assert left == right

    def test_pow_zero_exponent(self):
        assert GF65536.pow(0, 0) == 1
        assert GF65536.pow(12345, 0) == 1


class TestVectorised:
    @given(st.lists(elements256, min_size=1, max_size=40), elements256)
    def test_scalar_mul_vec_matches_scalar(self, vec, scalar):
        out = scalar_mul_vec(GF256, scalar, vec)
        assert out == [GF256.mul(scalar, v) for v in vec]

    @given(
        st.lists(elements256, min_size=1, max_size=20),
        st.lists(elements256, min_size=1, max_size=20),
    )
    def test_mul_vec_matches_scalar(self, xs, ys):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        out = mul_vec(GF256, xs, ys)
        assert out == [GF256.mul(a, b) for a, b in zip(xs, ys)]

    def test_matmul_identity(self):
        identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        data = np.array([[5, 6], [7, 8], [9, 10]])
        out = GF256.matmul(identity, data)
        assert rows(out) == data.tolist()

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_matmul_matches_scalar_loop(self, n_rows, inner, cols, rnd):
        matrix = [
            [rnd.randrange(256) for _ in range(inner)] for _ in range(n_rows)
        ]
        data = np.array(
            [[rnd.randrange(256) for _ in range(cols)] for _ in range(inner)]
        )
        out = rows(GF256.matmul(matrix, data))
        for r in range(n_rows):
            for c in range(cols):
                acc = 0
                for k in range(inner):
                    acc ^= GF256.mul(matrix[r][k], int(data[k, c]))
                assert out[r][c] == acc

    @given(
        st.lists(elements64k, min_size=1, max_size=20),
        st.lists(elements64k, min_size=1, max_size=20),
    )
    def test_mul_vec_matches_scalar_gf65536(self, xs, ys):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        out = mul_vec(GF65536, xs, ys)
        assert out == [GF65536.mul(a, b) for a, b in zip(xs, ys)]

    def test_matmul_matches_manual(self):
        matrix = [[3, 1], [0, 7]]
        data = np.array([[2, 4], [5, 6]])
        out = rows(GF256.matmul(matrix, data))
        for r in range(2):
            for c in range(2):
                expected = GF256.mul(matrix[r][0], int(data[0, c])) ^ GF256.mul(
                    matrix[r][1], int(data[1, c])
                )
                assert out[r][c] == expected


class TestZeroHandling:
    """Regression: the matmul kernels index the log table, and
    ``log(0)`` is undefined -- zero entries must short-circuit to zero
    instead of reading ``_log[0]`` garbage."""

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["2^8", "2^16"])
    def test_mul_vec_all_zero(self, field):
        zeros = np.zeros(16, dtype=np.int64)
        ones = np.full(16, 1, dtype=np.int64)
        assert mul_vec(field, zeros, zeros) == [0] * 16
        assert mul_vec(field, zeros, ones) == [0] * 16
        assert mul_vec(field, ones, zeros) == [0] * 16

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["2^8", "2^16"])
    def test_mul_vec_mixed_zeros(self, field):
        a = np.array([0, 3, 0, 7, 1, 0])
        b = np.array([5, 0, 0, 2, 0, 1])
        expected = [field.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert mul_vec(field, a, b) == expected
        assert expected[:3] == [0, 0, 0]

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["2^8", "2^16"])
    def test_scalar_mul_vec_zero_cases(self, field):
        vec = np.array([0, 1, 2, 0, field.order - 1])
        assert scalar_mul_vec(field, 0, vec) == [0] * 5
        assert scalar_mul_vec(field, 1, vec) == vec.tolist()
        out = scalar_mul_vec(field, 3, vec)
        assert out[0] == 0 and out[3] == 0

    def test_matmul_zero_matrix(self):
        zero = [[0, 0], [0, 0]]
        data = np.array([[9, 8], [7, 6]])
        assert rows(GF256.matmul(zero, data)) == [[0, 0], [0, 0]]


FIELDS = st.sampled_from([GF256, GF65536])

#: how ``data`` reaches the kernel: the RS framing hands it big-endian
#: transposed views, tests and callers hand it everything else.
DATA_FORMS = {
    "list": lambda grid: grid,
    "int64": lambda grid: np.array(grid, dtype=np.int64),
    "uint16": lambda grid: np.array(grid, dtype=np.uint16),
    "transposed": lambda grid: np.ascontiguousarray(
        np.array(grid, dtype=np.uint16).T
    ).T,
    "strided": lambda grid: np.repeat(
        np.array(grid, dtype=np.int64), 2, axis=1
    )[:, ::2],
    "wire": lambda grid: np.array(grid, dtype=">u2"),
}
MATRIX_FORMS = {
    "list": lambda grid: grid,
    "logmatrix": LogMatrix,
    "uint16": lambda grid: np.array(grid, dtype=np.uint16),
    "int64": lambda grid: np.array(grid, dtype=np.int64),
}


@st.composite
def kernel_cases(draw):
    """``(field, matrix, data, block)``: zero-heavy operands whose
    column count sits on, next to, or far past the column-block edge
    that ``block`` (a shrunken ``_MATMUL_BLOCK``) puts in the way."""
    field = draw(FIELDS)
    element = st.one_of(
        st.just(0),
        st.sampled_from([1, 2, field.order - 1]),
        st.integers(min_value=0, max_value=field.order - 1),
    )
    r = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=5))
    block = draw(st.sampled_from([1, 2 * r * k, 4 * r * k, 16 * r * k]))
    step = max(1, block // (r * k))
    c = draw(st.sampled_from(
        [1, 2, step, step + 1, 2 * step - 1, 2 * step + 1, 3 * step + 2, 97]
    ))
    matrix = [
        draw(st.lists(element, min_size=k, max_size=k)) for _ in range(r)
    ]
    data = [
        draw(st.lists(element, min_size=c, max_size=c)) for _ in range(k)
    ]
    if draw(st.booleans()):
        matrix[draw(st.integers(0, r - 1))] = [0] * k     # zero matrix row
    if draw(st.booleans()):
        j = draw(st.integers(0, k - 1))                   # zero matrix column
        for row in matrix:
            row[j] = 0
    if draw(st.booleans()):
        data[draw(st.integers(0, k - 1))] = [0] * c       # zero data row
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))                   # zero data column
        for row in data:
            row[j] = 0
    return field, matrix, data, block


class TestSentinelKernel:
    """The numpy kernel against the scalar oracle, both called
    directly: zeros must fall out of the padded
    tables, whatever the shape, layout or dtype of the operands."""

    @settings(max_examples=300, deadline=None)
    @given(
        kernel_cases(),
        st.sampled_from(sorted(MATRIX_FORMS)),
        st.sampled_from(sorted(DATA_FORMS)),
    )
    def test_matmul_matches_scalar_oracle(self, case, matrix_form, data_form):
        field, matrix, data, block = case
        expected = matmul_python(field, matrix, data)
        with mock.patch.object(BinaryField, "_MATMUL_BLOCK", block):
            out = field._matmul_numpy(
                MATRIX_FORMS[matrix_form](matrix), DATA_FORMS[data_form](data)
            )
        assert out.dtype == np.uint16
        assert out.tolist() == expected

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["2^8", "2^16"])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 1, 1), (1, 4, 1),
                                       (4, 3, 1), (2, 3, 500)])
    def test_named_shapes(self, field, shape):
        """Zero operands in most shapes, and in every shape some output
        cell whose last ``k`` term is nonzero, so a reduction that drops
        a row of ``k`` fails every case."""
        r, k, c = shape
        top = field.order - 1
        matrix = [[(7 * i + j + 1) % 3 and top - i - j for j in range(k)]
                  for i in range(r)]
        data = [[(i + j + 3) % 4 and (top - 5 * i - j) % field.order
                 for j in range(c)]
                for i in range(k)]
        assert any(row[-1] for row in matrix) and any(data[-1])
        out = field._matmul_numpy(matrix, data)
        assert out.shape == (r, c)
        assert out.tolist() == matmul_python(field, matrix, data)

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["2^8", "2^16"])
    def test_table_layout(self, field):
        """``log[0] = 2(q-1)``; the antilog table is ``uint16``, holds
        the real powers below the sentinel and zeros from there up to
        ``2 log[0] = 4(q-1)`` -- the index ``0 * 0`` gathers."""
        exp, log = field._numpy_tables()
        top = field.order - 1
        assert exp.dtype == np.uint16
        assert log[0] == 2 * top
        assert len(exp) == 2 * log[0] + 1 == 4 * top + 1
        assert not exp[log[0]:].any()
        assert exp[: log[0]].all()
        # Two real logs never reach the zero region ...
        assert 2 * log[1:].max() < log[0]
        # ... and a zero operand always does, at both of its ends.
        assert log[0] + log[1:].min() == log[0]
        assert exp[log[0] + log[0]] == 0
        # The views hold the lists' values: the doubled powers, their logs.
        assert exp[: log[0]].tolist() == field._exp_list
        assert log[1:].tolist() == field._log_list[1:]

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["2^8", "2^16"])
    def test_extreme_indices_through_every_kernel(self, field):
        """``0 * 0`` (the largest index), ``0 * 1`` (the smallest zero
        index) and the two largest real logs multiplied together."""
        exp, log = field._numpy_tables()
        big = int(np.argmax(log[1:])) + 1          # log = q - 2
        xs = [0, 0, 1, big, big]
        ys = [0, 1, 0, big, 0]
        expected = [field.mul(x, y) for x, y in zip(xs, ys)]
        assert mul_vec(field, xs, ys) == expected
        for scalar in (0, 1, big):
            assert scalar_mul_vec(field, scalar, xs) == [
                field.mul(scalar, x) for x in xs
            ]
        out = field.matmul([xs], [[y] for y in ys])
        assert out.tolist() == [[field.mul(big, big)]]

    @settings(max_examples=100, deadline=None)
    @given(FIELDS, st.data())
    def test_vector_kernels_with_zero_operands(self, field, data):
        element = st.one_of(
            st.just(0), st.integers(min_value=0, max_value=field.order - 1)
        )
        size = data.draw(st.integers(min_value=0, max_value=40))
        xs = data.draw(st.lists(element, min_size=size, max_size=size))
        ys = data.draw(st.lists(element, min_size=size, max_size=size))
        scalar = data.draw(element)
        as_form = DATA_FORMS[
            data.draw(st.sampled_from(["list", "int64", "uint16", "wire"]))
        ]
        product = mul_vec(field, as_form(xs), as_form(ys))
        scaled = scalar_mul_vec(field, scalar, as_form(xs))
        assert product == [field.mul(x, y) for x, y in zip(xs, ys)]
        assert scaled == [field.mul(scalar, x) for x in xs]

    def test_log_matrix_converted_once(self):
        """A :class:`LogMatrix` is a plain list of rows that picks up
        its log-domain form at the first numpy product and keeps it."""
        rows_ = [[0, 1, 2], [3, 0, 255]]
        matrix = LogMatrix(rows_)
        data = [[1, 0], [0, 9], [7, 7]]
        assert matrix == rows_ and matrix.logs is None
        with use_kernels("python"):
            expected = GF256.matmul(matrix, data)
        assert matrix.logs is None
        first = GF256.matmul(matrix, data)
        logs = matrix.logs
        second = GF256.matmul(matrix, data)
        assert logs is not None and matrix.logs is logs
        assert first.tolist() == second.tolist() == expected
        assert first.tolist() == GF256._matmul_numpy(rows_, data).tolist()


class TestLinearAlgebra:
    @given(st.integers(min_value=1, max_value=6), st.randoms())
    def test_invert_vandermonde(self, size, rnd):
        points = rnd.sample(range(1, 256), size)
        matrix = GF256.vandermonde(points, size)
        inverse = GF256.invert_matrix(matrix)
        # matrix @ inverse == identity
        for r in range(size):
            for c in range(size):
                acc = 0
                for k in range(size):
                    acc ^= GF256.mul(matrix[r][k], inverse[k][c])
                assert acc == (1 if r == c else 0)

    def test_invert_singular_raises(self):
        with pytest.raises(ValueError):
            GF256.invert_matrix([[1, 1], [1, 1]])

    def test_invert_non_square_raises(self):
        with pytest.raises(ValueError):
            GF256.invert_matrix([[1, 0, 0], [0, 1, 0]])

    def test_vandermonde_shape(self):
        v = GF256.vandermonde([1, 2, 3], 2)
        assert v == [[1, 1], [1, 2], [1, 3]]


class TestConstruction:
    def test_non_primitive_rejected(self):
        # x^8 + x^4 + x^3 + x + 1 (0x11B, the AES polynomial) is
        # irreducible but NOT primitive.
        with pytest.raises(ValueError):
            BinaryField(8, 0x11B)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            BinaryField(0, 0x3)
        with pytest.raises(ValueError):
            BinaryField(17, 0x3)

    def test_order(self):
        assert GF256.order == 256
        assert GF65536.order == 65536


def test_numpy_tables_survive_an_interrupted_build(monkeypatch):
    """The first batched kernel call may run inside a timed case: a
    ``BaseException`` landing mid-build (the engine's alarm) must leave
    the lazily built tables unbuilt, never half-built."""
    field = BinaryField(8, 0x11D)
    # ``arange`` numbers the logs, after the antilog table is filled
    real_arange, interrupted = np.arange, []

    def arange_interrupted_once(*args, **kwargs):
        if not interrupted:
            interrupted.append(True)
            raise KeyboardInterrupt
        return real_arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange_interrupted_once)
    matrix, data = [[1, 2], [3, 255]], [[5, 0, 7], [11, 13, 254]]
    with pytest.raises(KeyboardInterrupt):
        field.matmul(matrix, data)
    assert interrupted
    assert field.matmul(matrix, data).tolist() == matmul_python(
        field, matrix, data
    )
