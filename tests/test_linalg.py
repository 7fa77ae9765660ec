from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ccomb.linalg import (
    Matrix,
    NotInvariant,
    direct_sum,
    kron,
    sparse_columns,
    state_moments,
    subspace_restrict,
    tensor_index,
)

from conftest import matrices
from dense_reference import (
    basis_projection,
    complement_projection,
    flip23_permutation,
    kron_all,
    matrix_power,
    matrix_power_entry,
    sparse_to_matrix,
    transpose,
)

EDGE = Matrix.from_rows([[0, 1], [1, 0]])


def test_from_rows_rejects_floats():
    with pytest.raises(ValueError):
        Matrix.from_rows([[0.5]])


def test_from_rows_rejects_ragged():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])


def test_kron_identities():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)
    assert kron(EDGE, Matrix.from_rows([[2]])) == Matrix.from_rows([[0, 2], [2, 0]])


def test_kron_two_edges_is_two_disjoint_edges():
    expected = Matrix.from_rows(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )
    assert kron(EDGE, EDGE) == expected


@given(matrices(), matrices(), matrices(), matrices())
def test_kron_mixed_product_law(a, c, b, d):
    # kron(A,B) kron(C,D) = kron(AC, BD) needs conformable shapes; square
    # factors of matching size suffice here
    if a.cols != c.rows or b.cols != d.rows:
        return
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_matrix_operators_take_matrices_only(monkeypatch):
    # no scalar product in either order, and no sum with a scalar
    for op in (lambda: 2 * EDGE, lambda: EDGE * Fraction(1, 2), lambda: EDGE + 1):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):
        EDGE - Matrix.identity(3)
    # the product reads the right factor's columns, with no transposed copy
    monkeypatch.setattr(Matrix, "transpose", None, raising=False)
    assert EDGE * EDGE == Matrix.identity(2)


def test_projections():
    assert basis_projection(1, 0) == Matrix.from_rows([[1]])
    assert basis_projection(3, 1) == Matrix.from_rows(
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    )
    assert complement_projection(2, 0) == Matrix.from_rows([[0, 0], [0, 1]])
    with pytest.raises(IndexError):
        basis_projection(2, 5)


@given(matrices(max_dim=2), matrices(max_dim=2), matrices(max_dim=2))
def test_kron_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@given(st.integers(1, 5), st.data())
def test_projection_algebra(dim, data):
    i = data.draw(st.integers(0, dim - 1))
    p = basis_projection(dim, i)
    q = complement_projection(dim, i)
    assert p * p == p
    assert q * q == q
    assert p * q == Matrix(dim, dim, (0,) * (dim * dim))
    assert p == transpose(p)


def test_direct_sum():
    z = Matrix.from_rows([[0]])
    assert direct_sum(z, z) == Matrix(2, 2, (0,) * 4)
    assert direct_sum(Matrix.identity(2), Matrix.from_rows([[5]])) == Matrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 5]]
    )
    assert direct_sum(EDGE, Matrix.from_rows([[1]])) == Matrix.from_rows(
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    )
    with pytest.raises(ValueError):
        direct_sum(Matrix(1, 2, (0,) * 2))


def test_matrix_power_entry_examples():
    assert matrix_power_entry(EDGE, 4, 0, 0) == 1
    assert matrix_power_entry(EDGE, 0, 0, 1) == 0
    assert matrix_power_entry(EDGE, 0, 1, 1) == 1
    loop = Matrix.from_rows([[1]])
    assert matrix_power_entry(loop, 7, 0, 0) == 1
    with pytest.raises(IndexError):
        matrix_power_entry(EDGE, 1, 0, 9)


@given(matrices(), st.integers(0, 4), st.integers(0, 4))
def test_power_additivity(a, m, n):
    i = j = 0
    lhs = matrix_power_entry(a, m + n, i, j)
    rhs = sum(
        matrix_power_entry(a, m, i, k) * matrix_power_entry(a, n, k, j)
        for k in range(a.rows)
    )
    assert lhs == rhs


def test_state_moments_matches_powers():
    a = Matrix.from_rows([[1, 2], [3, Fraction(1, 2)]])
    moments = state_moments(a, 5, 0)
    for n, value in enumerate(moments):
        assert value == matrix_power_entry(a, n, 0, 0)


def test_subspace_restrict_examples():
    one = sparse_columns(Matrix.identity(4))
    assert sparse_to_matrix(subspace_restrict(one, [0, 2])) == Matrix.identity(2)
    d = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert subspace_restrict(sparse_columns(d), [1]) == [[(0, 2)]]
    k = kron(EDGE, basis_projection(2, 0))
    assert sparse_to_matrix(subspace_restrict(sparse_columns(k), [0, 2])) == EDGE
    # columns follow the basis order, rows are renumbered and kept sorted
    assert subspace_restrict(sparse_columns(d), [2, 0]) == [[(0, 3)], [(1, 1)]]
    assert subspace_restrict(sparse_columns(EDGE), [1, 0]) == [[(1, 1)], [(0, 1)]]


def test_subspace_restrict_not_invariant():
    with pytest.raises(NotInvariant):
        subspace_restrict(sparse_columns(EDGE), [0])
    with pytest.raises(ValueError):
        subspace_restrict(sparse_columns(EDGE), [0, 0])
    with pytest.raises(IndexError):
        subspace_restrict(sparse_columns(EDGE), [0, 2])


@given(matrices(min_dim=2, max_dim=3), st.integers(0, 3))
def test_restriction_commutes_with_powers(a, n):
    # restriction to an invariant span of coordinate vectors: build one by
    # zeroing the coupling entries
    rows = a.to_rows()
    for i in range(a.rows):
        rows[i][0] = 0 if i != 0 else rows[i][0]
        rows[0][i] = 0 if i != 0 else rows[0][i]
    blocked = Matrix.from_rows(rows)
    basis = list(range(1, a.rows))
    if not basis:
        return
    restricted = sparse_to_matrix(subspace_restrict(sparse_columns(blocked), basis))
    powered = subspace_restrict(sparse_columns(matrix_power(blocked, n)), basis)
    assert sparse_to_matrix(powered) == matrix_power(restricted, n)


def test_flip23_permutation_swaps_legs():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 1]])
    c = Matrix.from_rows([[2, 0], [1, 2]])
    sigma = flip23_permutation(2, 2, 2)
    assert sigma * sigma == Matrix.identity(8)
    assert sigma * kron_all(a, b, c) * sigma == kron_all(a, c, b)
    # with legs of unequal size the flip maps between the two leg orders
    # and conjugation uses the reverse flip
    sigma = flip23_permutation(2, 3, 2)
    inverse = flip23_permutation(2, 2, 3)
    assert inverse * sigma == Matrix.identity(12)
    i3 = Matrix.identity(3)
    assert sigma * kron_all(a, i3, b) * inverse == kron_all(a, b, i3)


def test_tensor_index_convention():
    assert tensor_index((2, 3), (1, 2)) == 5
    assert tensor_index((2, 3, 2), (1, 0, 1)) == 7
    with pytest.raises(IndexError):
        tensor_index((2, 2), (0, 2))
