"""Column-sparse operators against their dense references."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ccomb.graphs import (
    adjacency_columns,
    adjacency_matrix,
    colored,
    rooted,
    two_step_moments,
)
from ccomb.linalg import (
    Matrix,
    direct_sum,
    kron,
    sparse_columns,
    sparse_complement,
    sparse_direct_sum,
    sparse_identity,
    sparse_kron,
    sparse_moments,
    sparse_projection,
    sparse_sum,
    state_moments,
)
from ccomb.products import (
    c_comb_decomposition,
    c_comb_loop_decomposition,
    c_comb_loop_product,
    essential_decomposition,
    essential_loop_decomposition,
)

from conftest import birooted_graphs, matrices, rooted_graphs
from dense_reference import (
    basis_projection,
    complement_projection,
    kron_all,
    matrix_power_entry,
    sparse_to_matrix,
)


@st.composite
def colored_graphs(draw, max_vertices=5):
    """Colored graphs where a pair or a loop may carry both colors."""
    n = draw(st.integers(1, max_vertices))
    candidates = [(i, j, c) for i in range(n) for j in range(i, n) for c in (1, 2)]
    edges = draw(st.sets(st.sampled_from(candidates)))
    return colored(n, edges, draw(st.integers(0, n - 1)))


def test_adjacency_columns_multiplicity():
    g = colored(2, [(0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (1, 1, 2)], 0)
    assert adjacency_columns(g) == [[(0, 2), (1, 2)], [(0, 2), (1, 1)]]
    assert adjacency_columns(g, 1) == [[(0, 1), (1, 1)], [(0, 1)]]
    assert adjacency_columns(g, 2) == [[(0, 1), (1, 1)], [(0, 1), (1, 1)]]
    plain = rooted(2, [(0, 1)], 0)
    assert adjacency_columns(plain, 1) == adjacency_columns(plain)
    assert adjacency_columns(plain, 2) == [[], []]


@given(rooted_graphs())
def test_adjacency_columns_uncolored(g):
    assert adjacency_columns(g) == sparse_columns(adjacency_matrix(g))


@given(colored_graphs())
def test_adjacency_columns_colored(g):
    for color in (None, 1, 2):
        assert adjacency_columns(g, color) == sparse_columns(adjacency_matrix(g, color))


@given(matrices(), matrices(), matrices(max_dim=2))
def test_sparse_kron_matches_dense(a, b, c):
    sa, sb, sc = sparse_columns(a), sparse_columns(b), sparse_columns(c)
    assert sparse_kron(sa, sb) == sparse_columns(kron(a, b))
    assert sparse_kron(sa, sb, sc) == sparse_columns(kron_all(a, b, c))
    assert sparse_kron(sa) == sa


@given(st.integers(1, 3), st.data())
def test_sparse_sum_and_direct_sum_match_dense(n, data):
    a = data.draw(matrices(min_dim=n, max_dim=n))
    b = data.draw(matrices(min_dim=n, max_dim=n))
    c = data.draw(matrices())
    sa, sb, sc = sparse_columns(a), sparse_columns(b), sparse_columns(c)
    assert sparse_sum(sa, sb) == sparse_columns(a + b)
    assert sparse_sum(sa, sb, signs=(1, -1)) == sparse_columns(a - b)
    assert sparse_sum(sa, sa, signs=(1, -1)) == [[] for _ in range(n)]
    assert sparse_direct_sum(sa, sc) == sparse_columns(direct_sum(a, c))
    assert sparse_direct_sum(sa, sb, sc) == sparse_columns(direct_sum(a, b, c))
    assert sparse_to_matrix(sa) == a


@given(st.integers(1, 5), st.data())
def test_sparse_legs_match_dense(n, data):
    i = data.draw(st.integers(0, n - 1))
    assert sparse_identity(n) == sparse_columns(Matrix.identity(n))
    assert sparse_projection(n, i) == sparse_columns(basis_projection(n, i))
    assert sparse_complement(n, i) == sparse_columns(complement_projection(n, i))


def test_sparse_shape_errors():
    with pytest.raises(ValueError):
        sparse_sum(sparse_identity(2), sparse_identity(3))
    with pytest.raises(IndexError):
        sparse_projection(2, 2)
    with pytest.raises(IndexError):
        sparse_moments((sparse_identity(2),), 3, 2)


@given(matrices(), st.integers(0, 5))
def test_single_step_moments_match_state_moments(a, order):
    moments = sparse_moments((sparse_columns(a),), order, 0)
    assert moments == state_moments(a, order, 0)
    assert moments == tuple(matrix_power_entry(a, n, 0, 0) for n in range(order + 1))


# -- decompositions against the dense tensor formulas ---------------------------


def _dense_essential(g1, g2, a1, a2):
    n1, e1 = g1.vertex_count, g1.root
    n2, e2, f2 = g2.vertex_count, g2.root, g2.second_root
    i2 = Matrix.identity(n2)
    s1 = kron_all(a1, basis_projection(n2, e2), basis_projection(n2, f2))
    s2 = kron_all(basis_projection(n1, e1), a2, i2) + kron_all(
        complement_projection(n1, e1), i2, a2
    )
    return s1, s2


def _loop_adjusted(g):
    return adjacency_matrix(g) - Matrix.identity(g.vertex_count)


@given(birooted_graphs(max_vertices=3), birooted_graphs(max_vertices=3))
def test_decompositions_match_dense_formulas(g1, g2):
    n1, n2 = g1.vertex_count, g2.vertex_count
    p_f2 = basis_projection(n2, g2.second_root)
    one_comb = Matrix.identity(n1 * n2)

    a1, a2 = adjacency_matrix(g1), adjacency_matrix(g2)
    s1, s2 = _dense_essential(g1, g2, a1, a2)
    dec = essential_decomposition(g1, g2)
    assert (dec.cols1, dec.cols2) == (sparse_columns(s1), sparse_columns(s2))
    dec = c_comb_decomposition(g1, g2)
    c1 = direct_sum(s1, kron(a1, p_f2))
    c2 = direct_sum(s2, kron(Matrix.identity(n1), a2))
    assert (dec.cols1, dec.cols2) == (sparse_columns(c1), sparse_columns(c2))

    v1, v2 = _loop_adjusted(g1), _loop_adjusted(g2)
    w1, w2 = _dense_essential(g1, g2, v1, v2)
    one = Matrix.identity(n1 * n2 * n2)
    dec = essential_loop_decomposition(g1, g2)
    r1, r2 = one + w1, one + w2
    assert (dec.cols1, dec.cols2) == (sparse_columns(r1), sparse_columns(r2))
    dec = c_comb_loop_decomposition(g1, g2)
    l1 = direct_sum(r1, one_comb + kron(v1, p_f2))
    l2 = direct_sum(r2, one_comb + kron(Matrix.identity(n1), v2))
    assert (dec.cols1, dec.cols2) == (sparse_columns(l1), sparse_columns(l2))
    assert sparse_to_matrix(dec.total_columns()) == l1 + l2


@given(birooted_graphs(max_vertices=4), birooted_graphs(max_vertices=4))
def test_alternating_moments_match_dense_two_step(g1, g2):
    g = c_comb_loop_product(g1, g2).graph
    z = adjacency_matrix(g, 2) * adjacency_matrix(g, 1)
    for at in (g.root, g.second_root):
        assert two_step_moments(g, 6, at).coeffs == state_moments(z, 6, at)
