import pytest
from hypothesis import given
import hypothesis.strategies as st

from ccomb.graphs import (
    WalkCapExceeded,
    adjacency_matrix,
    birooted,
    brute_force_closed_walks,
    colored,
    count_d_walks,
    disjoint_union,
    root_moments,
    rooted,
)
from ccomb.linalg import Matrix, direct_sum

from conftest import rooted_graphs
from dense_reference import matrix_power_entry


def test_adjacency_conventions():
    assert adjacency_matrix(rooted(1, [], 0)) == Matrix.from_rows([[0]])
    assert adjacency_matrix(rooted(1, [(0, 0)], 0)) == Matrix.from_rows([[1]])
    g = rooted(2, [(1, 0)], 0)
    assert adjacency_matrix(g) == Matrix.from_rows([[0, 1], [1, 0]])


def test_adjacency_color_filter():
    g = colored(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2)], 0)
    assert adjacency_matrix(g, 2) == Matrix.from_rows(
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )
    assert adjacency_matrix(g) == adjacency_matrix(g, 1) + adjacency_matrix(g, 2)
    plain = rooted(2, [(0, 1), (1, 1)], 0)
    assert adjacency_matrix(plain, 1) == adjacency_matrix(plain)
    assert adjacency_matrix(plain, 2) == Matrix.from_rows([[0, 0], [0, 0]])


def test_double_colored_pair_counts_twice():
    g = colored(2, [(0, 1, 1), (0, 1, 2), (0, 0, 1), (0, 0, 2)], 0)
    a = adjacency_matrix(g)
    assert a.entry(0, 1) == 2
    assert a.entry(0, 0) == 2


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError):
        rooted(2, [(0, 1), (1, 0)], 0)
    with pytest.raises(ValueError):
        colored(2, [(0, 1, 1), (1, 0, 1)], 0)
    # one edge of each color on a pair is fine
    colored(2, [(0, 1, 1), (1, 0, 2)], 0)


def test_root_moments_examples():
    edge = rooted(2, [(0, 1)], 0)
    assert root_moments(edge, 4).coeffs == (1, 0, 1, 0, 1)
    loop = rooted(1, [(0, 0)], 0)
    assert root_moments(loop, 5).coeffs == (1, 1, 1, 1, 1, 1)
    isolated = rooted(1, [], 0)
    assert root_moments(isolated, 3).coeffs == (1, 0, 0, 0)


def test_disjoint_union():
    a = rooted(1, [], 0)
    u = disjoint_union(a, a)
    assert u.vertex_count == 2 and not u.edges
    assert (u.root, u.second_root) == (0, 1)

    edge = rooted(2, [(0, 1)], 0)
    loop = rooted(1, [(0, 0)], 0)
    u = disjoint_union(edge, loop)
    assert u.vertex_count == 3
    assert u.edges == frozenset({(0, 1), (2, 2)})
    assert (u.root, u.second_root) == (0, 2)
    assert adjacency_matrix(u) == direct_sum(
        adjacency_matrix(edge), adjacency_matrix(loop)
    )


@given(rooted_graphs())
def test_adjacency_is_symmetric(g):
    assert adjacency_matrix(g).is_symmetric()


def test_colored_adjacency_is_symmetric_per_color():
    g = colored(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2), (1, 1, 1)], 0)
    for color in (1, 2, None):
        assert adjacency_matrix(g, color).is_symmetric()


@given(rooted_graphs())
def test_union_moments_stay_componentwise(g):
    other = rooted(2, [(0, 1), (1, 1)], 1)
    u = disjoint_union(g, other)
    assert root_moments(u, 6).coeffs == root_moments(g, 6).coeffs
    assert (
        root_moments(u, 6, at=u.second_root).coeffs == root_moments(other, 6).coeffs
    )


def test_brute_force_examples():
    edge = rooted(2, [(0, 1)], 0)
    assert brute_force_closed_walks(edge, 2) == 1
    loop = rooted(1, [(0, 0)], 0)
    for n in range(7):
        assert brute_force_closed_walks(loop, n) == 1


@given(rooted_graphs(), st.integers(0, 6))
def test_brute_force_matches_matrix_powers(g, n):
    a = adjacency_matrix(g)
    for at in range(g.vertex_count):
        assert brute_force_closed_walks(g, n, at=at) == matrix_power_entry(
            a, n, at, at
        )


def test_walk_cap():
    g = rooted(1, [(0, 0)], 0)
    with pytest.raises(WalkCapExceeded):
        brute_force_closed_walks(g, 17)
    assert brute_force_closed_walks(g, 17, cap=20) == 1


def test_alternating_walks_need_colors():
    g = rooted(1, [(0, 0)], 0)
    assert brute_force_closed_walks(g, 2, alternating=True) == 0
    assert count_d_walks(g, 2) == 0


def test_alternating_walks():
    # both colors loop at the root: one alternating walk per even length
    g = colored(1, [(0, 0, 1), (0, 0, 2)], 0)
    assert brute_force_closed_walks(g, 2, alternating=True) == 1
    assert brute_force_closed_walks(g, 4, alternating=True) == 1
    # no color-2 edge anywhere: nothing alternates past the first step
    g1 = colored(2, [(0, 1, 1)], 0)
    assert brute_force_closed_walks(g1, 2, alternating=True) == 0


def test_d_walk_counts():
    g = colored(1, [(0, 0, 1), (0, 0, 2)], 0)
    assert count_d_walks(g, 2) == 1
    # returning at time 2 disqualifies every longer first-return walk here
    assert count_d_walks(g, 4) == 0
    with pytest.raises(ValueError):
        count_d_walks(g, 3)
    with pytest.raises(WalkCapExceeded):
        count_d_walks(g, 18)


def test_d_walks_are_first_return_decomposition():
    # closed alternating walk counts decompose over first returns
    g = colored(
        3,
        [(0, 0, 1), (0, 1, 1), (1, 2, 2), (0, 2, 2), (1, 1, 2)],
        0,
    )
    z_moments = [1] + [
        brute_force_closed_walks(g, 2 * n, alternating=True) for n in range(1, 6)
    ]
    first_returns = [count_d_walks(g, 2 * n) for n in range(1, 6)]
    for n in range(1, 6):
        total = sum(
            first_returns[k - 1] * z_moments[n - k] for k in range(1, n + 1)
        )
        assert z_moments[n] == total


def test_graph_validation():
    with pytest.raises(ValueError):
        rooted(2, [(0, 3)], 0)
    with pytest.raises(ValueError):
        rooted(2, [], 5)
    with pytest.raises(ValueError):
        birooted(2, [], 0, 4)
    with pytest.raises(ValueError):
        colored(2, [(0, 1, 7)], 0)


def test_birooted_accessors():
    g = birooted(3, [(0, 1), (1, 2)], 0, 2)
    assert (g.root, g.second_root) == (0, 2)
    assert g.at_second().root == 2
    assert g.at_second().second_root is None
    assert g.at_second().colored_edges == g.colored_edges
    assert g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(TypeError):
        rooted(1, [], 0).at_second()
