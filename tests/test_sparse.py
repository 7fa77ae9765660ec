"""Column-sparse operators against their dense references."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ccomb.graphs import (
    adjacency_columns,
    adjacency_matrix,
    colored,
    root_moments,
    rooted,
    two_step_moments,
)
from ccomb.independence import (
    ORACLE_KINDS,
    AlgebraModel,
    build_cmonotone,
    realize_cmonotone_pair,
    realize_pair,
)
from ccomb.linalg import (
    Matrix,
    direct_sum,
    kron,
    sparse_columns,
    sparse_identity,
    sparse_moments,
    sparse_sum,
    sparse_transpose,
    state_moments,
)
from ccomb.products import (
    c_comb_decomposition,
    c_comb_loop_decomposition,
    c_comb_loop_product,
    essential_decomposition,
    essential_loop_decomposition,
)
from ccomb.verify import random_model

from conftest import birooted_graphs, matrices, rooted_graphs, small_fractions
from dense_reference import (
    basis_projection,
    complement_projection,
    full_chain_moments,
    kron_all,
    matrix_power_entry,
    sparse_to_matrix,
    transpose,
)
from ring_reference import ModP


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


@given(colored_graphs(max_vertices=8), st.randoms(use_true_random=False))
def test_adjacency_columns_read_the_sorted_edges_in_row_order(g, rng):
    # the same edges handed to `colored` shuffled and turned around give the
    # same graph, whose columns are the dense columns with rows increasing
    edges = [
        (j, i, c) if rng.random() < 0.5 else (i, j, c) for i, j, c in g.colored_edges
    ]
    rng.shuffle(edges)
    assert colored(g.vertex_count, edges, g.root) == g
    for color in (None, 1, 2):
        cols = adjacency_columns(g, color)
        assert cols == sparse_columns(adjacency_matrix(g, color))
        assert all(a[0] < b[0] for col in cols for a, b in zip(col, col[1:]))


@given(st.integers(1, 3), st.data())
def test_sparse_sum_matches_dense(n, data):
    a = data.draw(matrices(min_dim=n, max_dim=n))
    b = data.draw(matrices(min_dim=n, max_dim=n))
    sa, sb = sparse_columns(a), sparse_columns(b)
    assert sparse_sum(sa, sb) == sparse_columns(a + b)
    assert sparse_sum(sa, sb, signs=(1, -1)) == sparse_columns(a - b)
    assert sparse_sum(sa, sa, signs=(1, -1)) == [[] for _ in range(n)]
    assert sparse_to_matrix(sa) == a


def test_sparse_sum_takes_one_sign_per_operator():
    # a sign tuple shorter than the operators once dropped the operators
    # past its end: three identities with signs (1, -1) summed to zero
    i = sparse_identity(2)
    assert sparse_sum(i, i, i, signs=(1, -1, 1)) == i
    for signs in ((), (1, -1), (1, 1, 1, 1)):
        with pytest.raises(ValueError):
            sparse_sum(i, i, i, signs=signs)


@given(st.integers(1, 5))
def test_sparse_legs_match_dense(n):
    assert sparse_identity(n) == sparse_columns(Matrix.identity(n))


@given(matrices(), matrices(), st.data())
def test_orthogonal_pair_complement_leg_matches_dense(a, b, data):
    # realize_pair places b on the columns off xi1; compare with the dense
    # complement 1 - P
    xi1 = data.draw(st.integers(0, a.rows - 1))
    xi2 = data.draw(st.integers(0, b.rows - 1))
    m1, m2 = AlgebraModel({"a": a}, xi1), AlgebraModel({"b": b}, xi2)
    op = realize_pair("orthogonal", m1, m2).operators[(2, "b")]
    assert op == sparse_columns(kron(complement_projection(a.rows, xi1), b))


def _typed(op: list) -> list:
    return [[(r, type(v), v) for r, v in col] for col in op]


def _dense_cmonotone(models: list, psi: bool, variant: bool = False) -> dict:
    """Each element of `build_cmonotone` on the models by list position, as
    signed sums of Kronecker terms: L (x) a (x) right (x) H + 1 (x) mid (x)
    a (x) H - L (x) mid (x) a (x) H, mid and right the identity (the
    projections onto xi and eta with `variant`), and with `psi` the
    monotone family 1 (x) a (x) H' in direct sum."""
    legs = [basis_projection(models[0].dim, models[0].xi)]
    for m in models[1:]:
        legs += [basis_projection(m.dim, m.xi), basis_projection(m.dim, m.eta)]
    out = {}
    for n, m in enumerate(models):
        below = 2 * n - 1
        low, high = legs[: max(below, 0)], legs[below + 2 :]
        mid = right = Matrix.identity(m.dim)
        if variant and n:
            mid, right = legs[below], legs[below + 1]
        one = Matrix.identity(math.prod(leg.rows for leg in low))
        ones = [Matrix.identity(k.dim) for k in models[:n]]
        etas = [basis_projection(k.dim, k.eta) for k in models[n + 1 :]]
        for name, a in m.elements.items():
            if n == 0:
                op = kron_all(a, *legs[1:])
            else:
                op = (
                    kron_all(*low, a, right, *high)
                    + kron_all(one, mid, a, *high)
                    - kron_all(*low, mid, a, *high)
                )
            if psi:
                op = direct_sum(op, kron_all(*ones, a, *etas))
            out[(n, name)] = _typed(sparse_columns(op))
    return out


@pytest.mark.parametrize("fractions", [False, True])
def test_tensor_operators_match_signed_kronecker_sums(fractions):
    # every operator realize_pair and build_cmonotone place column by column
    # equals its dense signed Kronecker sum, entry types included
    rng = random.Random(f"placed {fractions}")
    for dims in ((2, 3, 2), (3, 2, 1), (2, 2, 3)):
        models = [
            random_model(rng, d, ("a", "b"), two_state=True, use_fractions=fractions)
            for d in dims
        ]
        for psi in (True, False):
            factors = {
                n: (
                    {name: sparse_columns(a) for name, a in m.elements.items()},
                    m.dim,
                    (m.xi, m.eta if psi or n else None),
                )
                for n, m in enumerate(models)
            }
            family = build_cmonotone(factors)
            got = {key: _typed(op) for key, op in family.operators.items()}
            assert got == _dense_cmonotone(models, psi), (dims, psi)
        m1, m2 = models[:2]
        pair = realize_cmonotone_pair(m1, m2, variant=True)
        got = {(j - 1, name): _typed(op) for (j, name), op in pair.operators.items()}
        assert got == _dense_cmonotone([m1, m2], True, variant=True), dims
        p1, p2 = basis_projection(m1.dim, m1.xi), basis_projection(m2.dim, m2.xi)
        one1, one2 = Matrix.identity(m1.dim), Matrix.identity(m2.dim)
        for kind in ORACLE_KINDS:
            second = {
                "boolean": lambda b: kron(p1, b),
                "orthogonal": lambda b: kron(one1, b) - kron(p1, b),
            }.get(kind, lambda b: kron(one1, b))
            right = one2 if kind == "tensor" else p2
            want = {(1, n): kron(a, right) for n, a in m1.elements.items()}
            want |= {(2, n): second(b) for n, b in m2.elements.items()}
            got = realize_pair(kind, m1, m2).operators
            assert {key: _typed(op) for key, op in got.items()} == {
                key: _typed(sparse_columns(op)) for key, op in want.items()
            }, (dims, kind)


def test_sparse_shape_errors():
    with pytest.raises(ValueError):
        sparse_sum(sparse_identity(2), sparse_identity(3))
    with pytest.raises(IndexError):
        sparse_moments((sparse_identity(2),), 3, 2)


@given(matrices(), st.integers(0, 5))
def test_single_step_moments_match_state_moments(a, order):
    moments = sparse_moments((sparse_columns(a),), order, 0)
    assert moments == state_moments(a, order, 0)
    assert moments == tuple(matrix_power_entry(a, n, 0, 0) for n in range(order + 1))


@st.composite
def step_tuples(draw):
    """1-3 column-sparse steps of one dimension with int entries, or with
    int and Fraction entries mixed; the steps symmetric or not. A mirrored
    tuple (S1, M, S1^T) or (S1, S1^T) is self-adjoint when M is."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    entries = draw(st.sampled_from([ints, st.one_of(ints, small_fractions)]))
    symmetric = draw(st.booleans())
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if symmetric else 0, n):
                rows[i][j] = draw(entries)
                if symmetric:
                    rows[j][i] = rows[i][j]
        steps.append(sparse_columns(Matrix.from_rows(rows)))
    if draw(st.booleans()):
        half = steps[: len(steps) // 2]
        mirror = [sparse_transpose(cols) for cols in reversed(half)]
        steps = half + steps[len(half) : len(steps) - len(half)] + mirror
    return steps


def _modp(steps):
    return [[[(r, ModP(v)) for r, v in col] for col in cols] for cols in steps]


@given(step_tuples(), st.integers(0, 8), st.data())
def test_the_moment_kernel_matches_dense_powers_and_the_modp_chain(steps, order, data):
    at = data.draw(st.integers(0, len(steps[0]) - 1))
    moments = sparse_moments(steps, order, at)
    assert moments == full_chain_moments(steps, order, at)
    z = Matrix.identity(len(steps[0]))
    for cols in steps:
        z = sparse_to_matrix(cols) * z
    assert moments == tuple(matrix_power_entry(z, n, at, at) for n in range(order + 1))
    if all(type(v) is int for cols in steps for col in cols for _r, v in col):
        assert all(type(x) is int for x in moments)
    ring = sparse_moments(_modp(steps), order, at)
    reference = full_chain_moments(_modp(steps), order, at)
    assert ring == reference == tuple(ModP(x) for x in moments)
    assert [type(x) for x in ring] == [type(x) for x in reference]


def test_the_moment_kernel_streams_the_chain():
    # a kernel that kept the chain would hold 256 vectors of ~500 big ints;
    # the operator kernel and the walk kernel both stream it
    n = 1000
    g = rooted(n, [(v, (v + 1) % n) for v in range(n)], 0)
    cols = adjacency_columns(g)
    kernels = (
        lambda: sparse_moments((cols,), 512, 0),
        lambda: root_moments(g, 512).coeffs,
    )
    for kernel in kernels:
        tracemalloc.start()
        try:
            moments = kernel()
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert moments[512] == math.comb(512, 256)
        assert peak < 1_000_000


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
        # dense matrix-vector steps, apart from the sparse moment kernel
        v = Matrix(z.rows, 1, tuple(int(i == at) for i in range(z.rows)))
        dense = [1]
        for _ in range(6):
            v = z * v
            dense.append(v.entry(at, 0))
        assert two_step_moments(g, 6, at).coeffs == tuple(dense)


@given(matrices(max_dim=5))
def test_sparse_transpose_is_the_dense_transpose(a):
    cols = sparse_columns(a)
    t = sparse_transpose(cols)
    assert sparse_to_matrix(t) == transpose(a)
    assert sparse_transpose(t) == cols
    for col in t:
        rows = [r for r, _ in col]
        assert rows == sorted(set(rows))
