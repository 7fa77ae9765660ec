from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ccomb.graphs import (
    Graph,
    _closed_walks,
    _neighbor_lists,
    adjacency_columns,
    adjacency_matrix,
    birooted,
    brute_force_closed_walks,
    colored,
    count_d_walks,
    root_moments,
    rooted,
    two_step_moments,
)
from ccomb.fixtures import multiplicative_demo_pair
from ccomb.io import format_graph, parse_graph
from ccomb.linalg import Matrix, sparse_moments
from ccomb.products import c_comb_loop_product
from ccomb.series import eta_from_moments

from conftest import rooted_graphs
from dense_reference import matrix_power_entry, transpose
from walk_reference import closed_walks


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


@given(rooted_graphs())
def test_adjacency_is_symmetric(g):
    a = adjacency_matrix(g)
    assert a == transpose(a)


def test_colored_adjacency_is_symmetric_per_color():
    g = colored(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2), (1, 1, 1)], 0)
    for color in (1, 2, None):
        a = adjacency_matrix(g, color)
        assert a == transpose(a)


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


@st.composite
def colored_graphs(draw, max_vertices=5, max_edges=6):
    # at most 6 edges keep the reference's one call per walk under a
    # second per graph at length 10
    n = draw(st.integers(1, max_vertices))
    candidates = [(i, j, c) for i in range(n) for j in range(i, n) for c in (1, 2)]
    edges = draw(st.sets(st.sampled_from(candidates), max_size=max_edges))
    return colored(n, edges, 0)


@given(colored_graphs())
def test_walk_counters_equal_the_literal_enumerator_in_value_and_type(g):
    modes = [((None,), False), ((1, 2), False), ((1, 2), True)]
    for at in range(g.vertex_count):
        for colors, first_return in modes:
            # one forward pass gives every length, odd first-return ones too
            got = _closed_walks(g, 10, at, colors, first_return)
            want = [closed_walks(g, n, at, colors, first_return) for n in range(11)]
            assert [type(x) for x in got] == [int] * 11
            assert got == want, (at, colors, first_return)
        for n in range(11):
            cases = [
                (brute_force_closed_walks(g, n, at=at), (None,), False),
                (brute_force_closed_walks(g, n, at=at, alternating=True), (1, 2), False),
            ]
            if n >= 2 and n % 2 == 0:
                cases.append((count_d_walks(g, n, at=at), (1, 2), True))
            for got, colors, first_return in cases:
                want = closed_walks(g, n, at, colors, first_return)
                assert type(got) is int
                assert got == want, (at, n, colors, first_return)


@given(
    colored_graphs(max_vertices=6, max_edges=16),
    st.sampled_from([None, 1, 2]),
)
def test_neighbor_lists_are_the_adjacency_columns_expanded(g, color):
    # the walk kernel and the brute-force counters both read these lists:
    # each column's rows, in order, one entry per unit of multiplicity
    expanded = [
        [r for r, m in col for _ in range(m)] for col in adjacency_columns(g, color)
    ]
    assert _neighbor_lists(g, color) == expanded


@given(colored_graphs(max_vertices=6, max_edges=16), st.integers(0, 40))
def test_the_walk_kernel_equals_the_operator_kernel_in_value_and_type(g, order):
    # loops and doubly-colored pairs included: neighbor lists against
    # (row, value) columns, the one-step and the two-step operator
    one = (adjacency_columns(g),)
    two = (adjacency_columns(g, 1), adjacency_columns(g, 2))
    for at in range(g.vertex_count):
        for walks, steps in ((root_moments, one), (two_step_moments, two)):
            got = walks(g, order, at=at).coeffs
            assert got == sparse_moments(steps, order, at), (walks.__name__, at)
            assert all(type(x) is int for x in got)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: brute_force_closed_walks(g, -1), "walk length must be at least 0"),
        (lambda g: count_d_walks(g, -2), "d-walk length must be a positive even"),
        (lambda g: root_moments(g, -5), "moment order must be at least 0"),
        (lambda g: two_step_moments(g, -1), "moment order must be at least 0"),
        (
            lambda g: sparse_moments((adjacency_columns(g),), -2, 0),
            "moment order must be at least 0",
        ),
    ],
    ids=[
        "brute_force_closed_walks", "count_d_walks", "root_moments",
        "two_step_moments", "sparse_moments",
    ],
)
def test_walk_counters_and_moments_refuse_a_negative_length(call, message):
    # the counters and the kernels return every length from 0 up: a
    # negative one would read the list from its end, or give (1,)
    with pytest.raises(ValueError, match=f"^{message}"):
        call(rooted(2, [(0, 1), (1, 1)], 0))


@pytest.mark.parametrize("at", [-1, 2])
def test_walk_counters_refuse_a_vertex_outside_the_graph(at):
    g = rooted(2, [(0, 1), (1, 1)], 0)
    calls = [
        lambda: brute_force_closed_walks(g, 2, at=at),
        lambda: brute_force_closed_walks(g, 2, at=at, alternating=True),
        lambda: count_d_walks(g, 2, at=at),
        lambda: root_moments(g, 2, at=at),
        lambda: two_step_moments(g, 2, at=at),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^vertex out of range$"):
            call()


def test_walk_counters_run_past_length_16():
    # one forward pass costs O(length * edges): no length cap
    assert brute_force_closed_walks(rooted(1, [(0, 0)], 0), 17) == 1


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
    assert count_d_walks(g, 18) == 0


def test_d_walks_are_first_return_decomposition():
    # closed alternating walk counts decompose over first returns
    g = colored(
        3,
        [(0, 0, 1), (0, 1, 1), (1, 2, 2), (0, 2, 2), (1, 1, 2), (2, 2, 1)],
        0,
    )
    z_moments = [1] + [
        brute_force_closed_walks(g, 2 * n, alternating=True) for n in range(1, 6)
    ]
    first_returns = [count_d_walks(g, 2 * n) for n in range(1, 6)]
    # nonzero counts, so the identity below cannot hold as 0 == 0
    assert z_moments == [1, 0, 2, 1, 6, 5]
    assert first_returns == [0, 2, 1, 2, 1]
    for n in range(1, 6):
        total = sum(
            first_returns[k - 1] * z_moments[n - k] for k in range(1, n + 1)
        )
        assert z_moments[n] == total
    # to length 24, against the two-step operator's moments and their
    # eta-series (the first-return series, stored as N(1), N(2), ...)
    moments = two_step_moments(g, 12)
    eta = eta_from_moments(moments).coeffs
    for n in range(1, 13):
        assert brute_force_closed_walks(g, 2 * n, alternating=True) == moments.coeffs[n]
        assert count_d_walks(g, 2 * n) == eta[n - 1]
    # to length 80 on the 24-vertex c-comb loop product of the demo pair
    g = c_comb_loop_product(*multiplicative_demo_pair()).graph
    moments = two_step_moments(g, 40)
    eta = eta_from_moments(moments).coeffs
    assert g.vertex_count == 24 and all(eta)
    for n in range(1, 41):
        assert brute_force_closed_walks(g, 2 * n, alternating=True) == moments.coeffs[n]
        assert count_d_walks(g, 2 * n) == eta[n - 1]


def test_graph_validation():
    with pytest.raises(ValueError):
        rooted(2, [(0, 3)], 0)
    with pytest.raises(ValueError):
        rooted(2, [], 5)
    with pytest.raises(ValueError):
        birooted(2, [], 0, 4)
    with pytest.raises(ValueError):
        colored(2, [(0, 1, 7)], 0)


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1"])
@pytest.mark.parametrize("slot", range(6))
def test_colored_refuses_every_entry_that_is_not_an_int(slot, bad):
    # vertex count, root, second root, then i, j and color of one edge: a
    # graph built from a bool or float would not survive its own file
    args = [3, 0, 1, 0, 1, 1]
    good = colored(args[0], [tuple(args[3:])], *args[1:3])
    assert parse_graph(format_graph(good)) == (good, None)
    args[slot] = bad
    with pytest.raises(ValueError, match="must be int"):
        colored(args[0], [tuple(args[3:])], *args[1:3])
    if slot < 5:
        n, root, second, i, j = args[:5]
        with pytest.raises(ValueError, match="must be int"):
            birooted(n, [(i, j)], root, second)
        if slot != 2:
            with pytest.raises(ValueError, match="must be int"):
                rooted(n, [(i, j)], root)


def test_graph_keeps_its_edges_as_one_sorted_tuple():
    g = colored(3, [(2, 1, 1), (0, 0, 2), (1, 0, 1)], 0)
    assert g.colored_edges == ((0, 0, 2), (0, 1, 1), (1, 2, 1))
    for edges, error, message in (
        (frozenset(g.colored_edges), TypeError, "sorted tuple"),
        (g.colored_edges[::-1], ValueError, "out of order"),
        (((0, 1, 1), (0, 1, 1)), ValueError, r"duplicate edges \(same pair and color"),
    ):
        with pytest.raises(error, match=message) as refused:
            Graph(3, edges, 0)
        assert "\n" not in str(refused.value)
    with pytest.raises(ValueError, match="duplicate edges"):
        colored(2, [(0, 1, 1), (1, 0, 1)], 0)


def test_birooted_accessors():
    g = birooted(3, [(0, 1), (1, 2)], 0, 2)
    assert (g.root, g.second_root) == (0, 2)
    assert g.edges == frozenset({(0, 1), (1, 2)})
