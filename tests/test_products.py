import pytest
from hypothesis import given

from ccomb.fixtures import additive_demo_pair, multiplicative_demo_pair
from ccomb.graphs import (
    adjacency_matrix,
    birooted,
    brute_force_closed_walks,
    root_moments,
    rooted,
)
from ccomb.linalg import (
    Matrix,
    NotInvariant,
    kron,
    sparse_columns,
    sparse_moments,
    subspace_restrict,
)
from ccomb.products import (
    c_comb_decomposition,
    c_comb_loop_decomposition,
    c_comb_loop_product,
    c_comb_product,
    comb_at_collapse_map,
    comb_at_product,
    comb_loop_product,
    comb_product,
    essential_decomposition,
    essential_loop_decomposition,
    essential_loop_product,
    orthogonal_product,
    relabel_isomorphic,
    star_product,
    superposition_map,
)

from conftest import birooted_graphs, rooted_graphs
from dense_reference import (
    basis_projection,
    complement_projection,
    flip23_permutation,
    kron_all,
    sparse_to_matrix,
)

EDGE = rooted(2, [(0, 1)], 0)
ISOLATED = rooted(1, [], 0)
LOOP = rooted(1, [(0, 0)], 0)


def pairs_of(graph):
    return sorted((i, j) for i, j, _c in graph.colored_edges)


def degree_sequence(graph):
    n = graph.vertex_count
    deg = [0] * n
    for i, j, _c in graph.colored_edges:
        deg[i] += 1
        if i != j:
            deg[j] += 1
    return sorted(deg)


def test_star_glues_at_roots():
    prod = star_product(EDGE, EDGE)
    # a path on three vertices rooted at the center
    assert prod.vertex_count == 3
    assert degree_sequence(prod.graph) == [1, 1, 2]
    root_degree = sum(
        1 for i, j, _c in prod.graph.colored_edges if prod.graph.root in (i, j)
    )
    assert root_degree == 2
    assert prod.label_of_root() == (0, 0)


def test_star_with_isolated_is_neutral():
    g2 = rooted(3, [(0, 1), (1, 2), (2, 2)], 1)
    prod = star_product(ISOLATED, g2)
    assert prod.vertex_count == 3
    assert root_moments(prod.graph, 6).coeffs == root_moments(g2, 6).coeffs
    assert not prod.graph.monochrome_edges(1)


@given(rooted_graphs(), rooted_graphs())
def test_star_vertex_count(g1, g2):
    assert star_product(g1, g2).vertex_count == g1.vertex_count + g2.vertex_count - 1


def test_comb_examples():
    prod = comb_product(EDGE, EDGE)
    assert prod.vertex_count == 4
    assert root_moments(prod.graph, 4).coeffs == (1, 0, 2, 0, 5)
    trivial = comb_product(EDGE, ISOLATED)
    assert pairs_of(trivial.graph) == [(0, 1)]
    neutral = comb_product(ISOLATED, EDGE)
    assert root_moments(neutral.graph, 4).coeffs == (1, 0, 1, 0, 1)


def test_orthogonal_examples():
    prod = orthogonal_product(EDGE, EDGE)
    # a path on three vertices rooted at one end
    assert prod.vertex_count == 3
    assert degree_sequence(prod.graph) == [1, 1, 2]
    root_degree = sum(
        1 for i, j, _c in prod.graph.colored_edges if prod.graph.root in (i, j)
    )
    assert root_degree == 1
    assert orthogonal_product(ISOLATED, EDGE).vertex_count == 1


@given(rooted_graphs(), rooted_graphs())
def test_orthogonal_vertex_count(g1, g2):
    expected = (g1.vertex_count - 1) * g2.vertex_count + 1
    assert orthogonal_product(g1, g2).vertex_count == expected


def test_comb_at_demo_pair_size():
    g1, g2 = additive_demo_pair()
    prod = comb_at_product(g1, g2)
    assert prod.vertex_count == 12
    assert prod.label_of_root() == (0, 1, 0)  # (e1, f2, e2)


def test_comb_at_label_set_matches_definition():
    # vertex set: (orthogonal-product pairs) x {e2} union {(e1, f2)} x V2
    g1, g2 = additive_demo_pair()
    prod = comb_at_product(g1, g2)
    n1, n2 = g1.vertex_count, g2.vertex_count
    e1, e2, f2 = g1.root, g2.root, g2.second_root
    orth_pairs = {(u, y) for u in range(n1) if u != e1 for y in range(n2)}
    orth_pairs.add((e1, f2))
    expected = {(u, y, e2) for (u, y) in orth_pairs}
    expected |= {(e1, f2, z) for z in range(n2)}
    assert set(prod.vertex_labels) == expected
    assert len(prod.vertex_labels) == len(expected)


def test_comb_at_with_isolated_first_factor():
    g2 = birooted(4, [(0, 1), (1, 2), (1, 3)], 0, 1)
    prod = comb_at_product(ISOLATED, g2)
    assert prod.vertex_count == 4
    assert root_moments(prod.graph, 6).coeffs == root_moments(g2, 6).coeffs


def test_comb_at_collapses_to_comb_when_roots_match():
    g1 = rooted(3, [(0, 1), (1, 2)], 0)
    g2 = birooted(3, [(0, 1), (0, 2)], 0, 0)
    mapping = comb_at_collapse_map(g1, g2)
    prod = comb_at_product(g1, g2)
    cmb = comb_product(g1, g2)
    assert relabel_isomorphic(prod.graph, cmb.graph, mapping)


def test_superposition_isomorphism():
    g1 = rooted(3, [(0, 1), (1, 2), (0, 0)], 0)
    g2 = rooted(3, [(0, 1), (1, 2), (1, 1)], 1)
    orth = orthogonal_product(g1, g2)
    so = star_product(orth.graph, g2)
    cmb = comb_product(g1, g2)
    assert relabel_isomorphic(so.graph, cmb.graph, superposition_map(g1, g2))


def test_c_comb_of_isolated_pairs():
    g = birooted(1, [], 0, 0)
    prod = c_comb_product(g, g)
    assert prod.vertex_count == 2
    assert not prod.graph.colored_edges
    assert (prod.graph.root, prod.graph.second_root) == (0, 1)


def test_c_comb_demo_pair_components():
    g1, g2 = additive_demo_pair()
    prod = c_comb_product(g1, g2)
    assert prod.vertex_count == 24
    essential = comb_at_product(g1, g2)
    assert essential.vertex_count == 12
    # moments at f only see the comb component
    cmb = comb_product(g1.at_second(), g2.at_second())
    assert (
        root_moments(prod.graph, 8, at=prod.graph.second_root).coeffs
        == root_moments(cmb.graph, 8).coeffs
    )


def test_glued_loops_keep_multiplicity():
    # loops at both gluing vertices stack: one per color
    prod = comb_product(LOOP, LOOP)
    assert adjacency_matrix(prod.graph).entry(0, 0) == 2
    assert root_moments(prod.graph, 3).coeffs == (1, 2, 4, 8)


def test_comb_loop_product_loops():
    g2 = rooted(3, [(0, 1), (0, 2)], 0)
    prod = comb_loop_product(EDGE, g2)
    added = [(i, c) for i, j, c in prod.graph.colored_edges if i == j]
    assert all(c == 1 for _i, c in added)
    assert len(added) == 2 * (3 - 1)
    trivial = comb_loop_product(EDGE, ISOLATED)
    assert not [e for e in trivial.graph.colored_edges if e[0] == e[1]]
    assert trivial.graph.monochrome_edges(1) == frozenset({(0, 1)})


def test_essential_loop_collapses_with_matching_roots():
    # f2 = e2 makes the essential loop component the comb loop product
    g1 = rooted(3, [(0, 1), (1, 2), (0, 0)], 0)
    g2 = birooted(3, [(0, 1), (1, 2)], 0, 0)
    prod = essential_loop_product(g1, g2)
    cmb = comb_loop_product(g1, g2)
    mapping = comb_at_collapse_map(g1, g2)
    assert relabel_isomorphic(prod.graph, cmb.graph, mapping)


def test_essential_loop_demo_pair():
    g1, g2 = multiplicative_demo_pair()
    prod = essential_loop_product(g1, g2)
    assert prod.vertex_count == 12
    spine = {i for i, lab in enumerate(prod.vertex_labels) if lab[1:] == (1, 0)}
    added = {
        i
        for i, j, c in prod.graph.colored_edges
        if i == j and c == 1 and i not in spine
    }
    assert len(added) == 9


def test_loop_color_flag_renders_the_discrepancy():
    # the color-1 choice for added loops is what makes first-return d-walk
    # counts match the convolution
    from ccomb.graphs import count_d_walks

    g1 = birooted(1, [(0, 0)], 0, 0)
    g2 = birooted(2, [(0, 1)], 0, 1)
    good = c_comb_loop_product(g1, g2)
    assert count_d_walks(good.graph, 4) == 1


def test_essential_decomposition_restriction():
    g1, g2 = additive_demo_pair()
    dec = essential_decomposition(g1, g2)
    prod = comb_at_product(g1, g2)
    assert sparse_to_matrix(dec.restricted()) == adjacency_matrix(prod.graph)
    walks = root_moments(prod.graph, 12).coeffs
    assert walks == sparse_moments((dec.total_columns(),), 12, dec.phi_index)


def test_essential_decomposition_trivial():
    g = birooted(1, [], 0, 0)
    dec = essential_decomposition(g, g)
    assert dec.restricted() == [[]]


@given(birooted_graphs(max_vertices=4), birooted_graphs(max_vertices=4))
def test_decomposition_invariance(g1, g2):
    dec = essential_decomposition(g1, g2)
    prod = comb_at_product(g1, g2)
    assert sparse_to_matrix(dec.restricted()) == adjacency_matrix(prod.graph)


def test_flip_connects_two_step_operator_to_decomposition():
    # build the operator in two-step leg order (V1, f2-copy leg, e2-copy
    # leg): (orthogonal-product operator) (x) P_e2 + P_orth-root (x) a2,
    # swap the last two legs explicitly, and compare on the embedded span
    g1, g2 = additive_demo_pair()
    n1, n2 = g1.vertex_count, g2.vertex_count
    e1, e2, f2 = g1.root, g2.root, g2.second_root
    a1 = adjacency_matrix(g1)
    a2 = adjacency_matrix(g2)
    p_e2 = basis_projection(n2, e2)
    p_f2 = basis_projection(n2, f2)
    pre = (
        kron_all(a1, p_f2, p_e2)
        + kron_all(complement_projection(n1, e1), a2, p_e2)
        + kron_all(basis_projection(n1, e1), p_f2, a2)
    )
    sigma = flip23_permutation(n1, n2, n2)
    flipped = sigma * pre * sigma
    dec = essential_decomposition(g1, g2)
    # identity legs in the decomposition act like the swapped projections
    # on the span, so the restrictions agree even though the ambient
    # operators differ
    flipped = sparse_columns(flipped)
    assert flipped != dec.total_columns()
    assert subspace_restrict(flipped, dec.embedding) == dec.restricted()


def test_c_comb_decomposition_restriction_and_states():
    g1, g2 = additive_demo_pair()
    dec = c_comb_decomposition(g1, g2)
    prod = c_comb_product(g1, g2)
    assert sparse_to_matrix(dec.restricted()) == adjacency_matrix(prod.graph)
    assert dec.psi_index is not None
    at_f = sparse_moments((dec.total_columns(),), 8, dec.psi_index)
    assert at_f == root_moments(prod.graph, 8, at=prod.graph.second_root).coeffs


def test_loop_decomposition_colors():
    g1, g2 = multiplicative_demo_pair()
    dec = essential_loop_decomposition(g1, g2)
    prod = essential_loop_product(g1, g2)
    assert sparse_to_matrix(dec.restricted(1)) == adjacency_matrix(prod.graph, 1)
    assert sparse_to_matrix(dec.restricted(2)) == adjacency_matrix(prod.graph, 2)


def test_loop_decompositions_refuse_a_first_factor_with_color_2_edges():
    # R1 is built from all of a1, so with color-2 edges in g1 neither
    # restricted(1) nor restricted(2) would be the per-color adjacency
    a1, a2 = additive_demo_pair()
    _m1, m2 = multiplicative_demo_pair()
    star = star_product(a1, a2).graph
    assert star.monochrome_edges(2)
    essential_loop_product(star, m2)  # the product itself still builds
    with pytest.raises(ValueError, match="color-2"):
        essential_loop_decomposition(star, m2)
    with pytest.raises(ValueError, match="color-2"):
        c_comb_loop_decomposition(c_comb_product(a1, a2).graph, m2)


def test_c_comb_loop_decomposition_trivial():
    g = birooted(1, [], 0, 0)
    dec = c_comb_loop_decomposition(g, g)
    prod = c_comb_loop_product(g, g)
    assert prod.vertex_count == 2
    assert not prod.graph.colored_edges
    assert sparse_to_matrix(dec.restricted()) == adjacency_matrix(prod.graph)


def test_c_comb_loop_decomposition_demo():
    g1, g2 = multiplicative_demo_pair()
    dec = c_comb_loop_decomposition(g1, g2)
    prod = c_comb_loop_product(g1, g2)
    assert sparse_to_matrix(dec.restricted(1)) == adjacency_matrix(prod.graph, 1)
    assert sparse_to_matrix(dec.restricted(2)) == adjacency_matrix(prod.graph, 2)


def test_embedding_flags_wrong_span():
    g1, g2 = additive_demo_pair()
    dec = essential_decomposition(g1, g2)
    with pytest.raises(NotInvariant):
        subspace_restrict(dec.total_columns(), dec.embedding[:-1])


@given(rooted_graphs(max_vertices=4), rooted_graphs(max_vertices=4))
def test_two_leg_tensor_formulas(g1, g2):
    a1, a2 = adjacency_matrix(g1), adjacency_matrix(g2)
    n1, n2 = g1.vertex_count, g2.vertex_count
    p_e2 = basis_projection(n2, g2.root)

    star = star_product(g1, g2)
    op = kron(a1, p_e2) + kron(basis_projection(n1, g1.root), a2)
    restricted = subspace_restrict(sparse_columns(op), star.embedding)
    assert sparse_to_matrix(restricted) == adjacency_matrix(star.graph)

    orth = orthogonal_product(g1, g2)
    op = kron(a1, p_e2) + kron(complement_projection(n1, g1.root), a2)
    restricted = subspace_restrict(sparse_columns(op), orth.embedding)
    assert sparse_to_matrix(restricted) == adjacency_matrix(orth.graph)

    cmb = comb_product(g1, g2)
    op = kron(a1, p_e2) + kron(Matrix.identity(n1), a2)
    assert op == adjacency_matrix(cmb.graph)

    loop = comb_loop_product(g1, g2)
    r1 = kron(a1, p_e2) + kron(Matrix.identity(n1), complement_projection(n2, g2.root))
    r2 = kron(Matrix.identity(n1), a2)
    assert r1 == adjacency_matrix(loop.graph, 1)
    assert r2 == adjacency_matrix(loop.graph, 2)


def test_walks_match_brute_force_on_products():
    g1, g2 = additive_demo_pair()
    prod = comb_at_product(g1, g2)
    moments = root_moments(prod.graph, 12).coeffs
    for n in (11, 12):
        assert moments[n] == brute_force_closed_walks(prod.graph, n)


def test_birooted_factor_requirements():
    with pytest.raises(TypeError):
        comb_at_product(EDGE, EDGE)
    with pytest.raises(TypeError):
        c_comb_product(birooted(1, [], 0, 0), EDGE)


# sha256 of format_graph + to_dot (with labels) for every product kind over
# the two fixture pairs and the swapped pair; pins vertex order and labels
PRODUCT_OUTPUT_DIGEST = (
    "d246acc241aeac25164c4e8bc6c105113f671b2e5b650b0693cc08bc88aa892c"
)


def test_product_output_is_pinned():
    import hashlib
    from pathlib import Path

    from ccomb.io import format_graph, load_graph, to_dot

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    builds = (
        star_product, comb_product, orthogonal_product, comb_at_product,
        c_comb_product, comb_loop_product, c_comb_loop_product,
    )
    digest = hashlib.sha256()
    for a, b in (
        ("additive_g1", "additive_g2"),
        ("multiplicative_g1", "multiplicative_g2"),
        ("additive_g2", "multiplicative_g1"),
    ):
        g1 = load_graph(fixtures / f"{a}.graph")
        g2 = load_graph(fixtures / f"{b}.graph")
        for build in builds:
            prod = build(g1, g2)
            digest.update(format_graph(prod.graph, prod.vertex_labels).encode())
            digest.update(to_dot(prod.graph, prod.vertex_labels).encode())
    assert digest.hexdigest() == PRODUCT_OUTPUT_DIGEST
