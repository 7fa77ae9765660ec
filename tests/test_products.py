import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from ccomb.fixtures import additive_demo_pair, multiplicative_demo_pair
from ccomb.graphs import (
    Graph,
    adjacency_matrix,
    birooted,
    brute_force_closed_walks,
    colored,
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
    ADDITIVE_WALK_PRODUCTS,
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
from ccomb.series import additive_convolve, moment_series
from ccomb.verify import random_birooted_graph

from conftest import birooted_graphs, rooted_graphs
from dense_reference import (
    basis_projection,
    complement_projection,
    flip23_permutation,
    kron_all,
    sparse_to_matrix,
)
from product_reference import at_second

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
    assert prod.vertex_labels[prod.graph.root] == (0, 0)


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
    assert prod.vertex_labels[prod.graph.root] == (0, 1, 0)  # (e1, f2, e2)


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


def test_comb_at_is_orthogonal_at_the_second_root_then_star():
    # the comb-at product is the orthogonal product of (G1, e1) and (G2, f2)
    # followed by the star product with (G2, e2): same size, same root walks
    rng = random.Random("comb-at")
    for _ in range(30):
        g1, g2 = random_birooted_graph(rng), random_birooted_graph(rng)
        orthogonal = orthogonal_product(g1, at_second(g2)).graph
        two_step = star_product(orthogonal, g2).graph
        prod = comb_at_product(g1, g2).graph
        assert two_step.vertex_count == prod.vertex_count
        assert root_moments(two_step, 12) == root_moments(prod, 12)


def test_superposition_isomorphism():
    g1 = rooted(3, [(0, 1), (1, 2), (0, 0)], 0)
    g2 = rooted(3, [(0, 1), (1, 2), (1, 1)], 1)
    orth = orthogonal_product(g1, g2)
    so = star_product(orth.graph, g2)
    cmb = comb_product(g1, g2)
    assert relabel_isomorphic(so.graph, cmb.graph, superposition_map(g1, g2))


def test_relabel_isomorphic_refuses_every_broken_map():
    # a path 0 -1- 1 -2- 2 rooted at 0, and its image under 0->2, 1->1, 2->0
    a = colored(3, [(0, 1, 1), (1, 2, 2)], 0)
    b = colored(3, [(1, 2, 1), (0, 1, 2)], 2)
    good = {0: 2, 1: 1, 2: 0}
    assert relabel_isomorphic(a, b, good)
    assert not relabel_isomorphic(a, colored(4, [(1, 2, 1), (0, 1, 2)], 2), good)
    assert not relabel_isomorphic(a, b, {0: 2, 1: 1})  # misses vertex 2
    assert not relabel_isomorphic(a, b, {0: 2, 1: 1, 2: 1})  # not injective
    assert not relabel_isomorphic(a, colored(3, [(1, 2, 1), (0, 1, 2)], 0), good)
    assert not relabel_isomorphic(a, colored(3, [(1, 2, 2), (0, 1, 1)], 2), good)
    # keeps the root but sends the color-1 edge {0, 1} to {2, 0}
    assert not relabel_isomorphic(a, b, {0: 2, 1: 0, 2: 1})


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
    cmb = comb_product(at_second(g1), at_second(g2))
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
    assert sparse_to_matrix(dec.restricted(prod)) == adjacency_matrix(prod.graph)
    walks = root_moments(prod.graph, 12).coeffs
    assert walks == sparse_moments((dec.total_columns(),), 12, dec.phi_index)


def test_essential_decomposition_trivial():
    g = birooted(1, [], 0, 0)
    dec = essential_decomposition(g, g)
    assert dec.restricted(comb_at_product(g, g)) == [[]]


@given(birooted_graphs(max_vertices=4), birooted_graphs(max_vertices=4))
def test_decomposition_invariance(g1, g2):
    dec = essential_decomposition(g1, g2)
    prod = comb_at_product(g1, g2)
    assert sparse_to_matrix(dec.restricted(prod)) == adjacency_matrix(prod.graph)


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
    prod = comb_at_product(g1, g2)
    # identity legs in the decomposition act like the swapped projections
    # on the span, so the restrictions agree even though the ambient
    # operators differ
    flipped = sparse_columns(flipped)
    assert flipped != dec.total_columns()
    assert subspace_restrict(flipped, prod.embedding) == dec.restricted(prod)


def test_c_comb_decomposition_restriction_and_states():
    g1, g2 = additive_demo_pair()
    dec = c_comb_decomposition(g1, g2)
    prod = c_comb_product(g1, g2)
    assert sparse_to_matrix(dec.restricted(prod)) == adjacency_matrix(prod.graph)
    assert dec.psi_index is not None
    at_f = sparse_moments((dec.total_columns(),), 8, dec.psi_index)
    assert at_f == root_moments(prod.graph, 8, at=prod.graph.second_root).coeffs


def test_loop_decomposition_colors():
    g1, g2 = multiplicative_demo_pair()
    dec = essential_loop_decomposition(g1, g2)
    prod = essential_loop_product(g1, g2)
    assert sparse_to_matrix(dec.restricted(prod, 1)) == adjacency_matrix(prod.graph, 1)
    assert sparse_to_matrix(dec.restricted(prod, 2)) == adjacency_matrix(prod.graph, 2)


def test_loop_decompositions_refuse_a_first_factor_with_color_2_edges():
    # R1 is built from all of a1, so with color-2 edges in g1 neither
    # restricted(prod, 1) nor restricted(prod, 2) would be the per-color
    # adjacency
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
    assert sparse_to_matrix(dec.restricted(prod)) == adjacency_matrix(prod.graph)


def test_c_comb_loop_decomposition_demo():
    g1, g2 = multiplicative_demo_pair()
    dec = c_comb_loop_decomposition(g1, g2)
    prod = c_comb_loop_product(g1, g2)
    assert sparse_to_matrix(dec.restricted(prod, 1)) == adjacency_matrix(prod.graph, 1)
    assert sparse_to_matrix(dec.restricted(prod, 2)) == adjacency_matrix(prod.graph, 2)


def test_embedding_flags_wrong_span():
    g1, g2 = additive_demo_pair()
    dec = essential_decomposition(g1, g2)
    embedding = comb_at_product(g1, g2).embedding
    with pytest.raises(NotInvariant):
        subspace_restrict(dec.total_columns(), embedding[:-1])


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


def test_c_comb_kinds_refuse_a_first_factor_without_second_root():
    # the comb component at f reads f1: a rooted first factor is refused
    # before anything is glued
    pair = birooted(2, [(0, 1)], 0, 1)
    for build in (c_comb_product, c_comb_loop_product):
        with pytest.raises(TypeError):
            build(EDGE, pair)


def test_decompositions_refuse_what_their_products_refuse_for_lack_of_roots():
    # built from the factors alone, they still need the roots their
    # product reads: f2 always, f1 for the c-comb kinds (never a dropped
    # psi block)
    pair = birooted(2, [(0, 1)], 0, 1)
    kinds = (
        (essential_decomposition, False),
        (essential_loop_decomposition, False),
        (c_comb_decomposition, True),
        (c_comb_loop_decomposition, True),
    )
    for decompose, psi in kinds:
        with pytest.raises(TypeError):
            decompose(pair, EDGE)
        if psi:
            with pytest.raises(TypeError):
                decompose(EDGE, pair)
        else:
            assert decompose(EDGE, pair).psi_index is None


def test_decompositions_accept_a_second_factor_pair_with_both_colors():
    # the products refuse it (two color-2 edges on one pair); the operators
    # read its adjacency, entry 2 on that pair, and match the series route
    g1 = birooted(2, [(0, 1)], 0, 1)
    g2 = colored(2, [(0, 1, 1), (0, 1, 2)], 0, 1)
    with pytest.raises(ValueError, match="duplicate edges"):
        c_comb_product(g1, g2)
    order = 8
    mu1, mu2 = root_moments(g1, order), root_moments(g2, order)
    nu1, nu2 = (root_moments(g, order, at=g.second_root) for g in (g1, g2))
    dec = c_comb_decomposition(g1, g2)
    total = (dec.total_columns(),)
    at_e = additive_convolve("c-monotone", mu1, mu2, nu2)
    assert at_e.coeffs == sparse_moments(total, order, dec.phi_index)
    at_f = additive_convolve("monotone", nu1, nu2)
    assert at_f.coeffs == sparse_moments(total, order, dec.psi_index)


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


def _roots_off_zero(rng, n):
    """A seeded birooted graph on n vertices whose two roots differ and are
    both off vertex 0."""
    edges = {(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.2}
    e, f = rng.sample(range(1, n), 2)
    return birooted(n, edges, e, f)


# sha256 of format_graph + to_dot (with labels) for the seven CLI product
# kinds of seeded 16- and 12-vertex factors, every root off vertex 0
SCALE_OUTPUT_DIGEST = (
    "60bc0a85d12fd5948eb3e90dc1ab6dac27a303c80eb3f2748ca1ac9d04a9c49b"
)


def test_product_output_is_pinned_at_scale():
    import hashlib

    from ccomb.io import format_graph, to_dot

    rng = random.Random("product-scale-pin")
    g1, g2 = _roots_off_zero(rng, 16), _roots_off_zero(rng, 12)
    digest = hashlib.sha256()
    for build in (
        star_product, comb_product, orthogonal_product, comb_at_product,
        c_comb_product, comb_loop_product, c_comb_loop_product,
    ):
        prod = build(g1, g2)
        digest.update(format_graph(prod.graph, prod.vertex_labels).encode())
        digest.update(to_dot(prod.graph, prod.vertex_labels).encode())
    assert digest.hexdigest() == SCALE_OUTPUT_DIGEST


@st.composite
def glued_factors(draw, max_vertices=4, loops=True):
    """A birooted factor with both roots off vertex 0 and distinct; with
    `loops`, each root carries a loop, else the factor has none."""
    n = draw(st.integers(3, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + (not loops), n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    e, f = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
    return birooted(n, edges | ({(e, e), (f, f)} if loops else set()), e, f)


def _reference_builders():
    """The eight builders over the label-level reference: the four
    label builders, and the unions and loop rule on top of them."""
    import product_reference as ref

    def comb_loop(g1, g2):
        return ref.loops_off_spine(ref.comb_product(g1, g2), (g2.root,))

    def essential_loop(g1, g2):
        base = ref.comb_at_product(g1, g2)
        return ref.loops_off_spine(base, (g2.second_root, g2.root))

    return {
        star_product: ref.star_product,
        comb_product: ref.comb_product,
        orthogonal_product: ref.orthogonal_product,
        comb_at_product: ref.comb_at_product,
        c_comb_product: lambda g1, g2: ref.union(
            ref.comb_at_product(g1, g2),
            ref.comb_product(at_second(g1), at_second(g2)),
        ),
        comb_loop_product: comb_loop,
        essential_loop_product: essential_loop,
        c_comb_loop_product: lambda g1, g2: ref.union(
            essential_loop(g1, g2), comb_loop(at_second(g1), at_second(g2))
        ),
    }


@given(
    st.one_of(
        glued_factors(),
        # a c-comb product as first factor carries color-2 edges; loopless
        # factors keep its color-2 loops from meeting those of G2's copies
        st.builds(
            lambda a, b: c_comb_product(a, b).graph,
            glued_factors(max_vertices=3, loops=False),
            glued_factors(max_vertices=3, loops=False),
        ),
    ),
    glued_factors(),
)
def test_products_equal_the_label_level_reference(g1, g2):
    for build, reference in _reference_builders().items():
        assert build(g1, g2) == reference(g1, g2), build.__name__


def test_each_product_is_one_graph_checked_once(monkeypatch):
    # the c-comb unions and the loop rule are glued in the same pass as the
    # components: each builder constructs its product's Graph and no other,
    # so every edge passes Graph's checks once
    g1, g2 = multiplicative_demo_pair()
    built = []
    check = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or check(g))
    for build in (
        star_product, comb_product, orthogonal_product, comb_at_product,
        c_comb_product, comb_loop_product, essential_loop_product,
        c_comb_loop_product,
    ):
        built.clear()
        prod = build(g1, g2)
        assert len(built) == 1 and built[0] is prod.graph, (build.__name__, len(built))


def test_no_product_normalizes_its_edges_twice(monkeypatch):
    # the gluing makes each edge normalized, so no product path runs the
    # sorting constructor `colored` on top of its own sort
    from ccomb import products
    from ccomb.cli import PRODUCT_KINDS

    builds = {
        *PRODUCT_KINDS.values(), essential_loop_product,
        *ADDITIVE_WALK_PRODUCTS.values(),
    }
    (a1, a2), (m1, m2) = additive_demo_pair(), multiplicative_demo_pair()
    pairs = ((a1, a2), (m1, m2), (a2, m1))
    expected = {(b, i): b(g1, g2) for b in builds for i, (g1, g2) in enumerate(pairs)}

    def refuse(*_args):
        raise AssertionError("a product called colored")

    monkeypatch.setattr(products, "colored", refuse)
    for (build, i), prod in expected.items():
        assert build(*pairs[i]) == prod, (build.__name__, i)


def test_products_hold_no_list_of_ambient_length():
    # comb-at of a 2- and a 1,000-vertex factor has 2,000 vertices in an
    # ambient space of 2,000,000; a list of that length costs 8 bytes per
    # coordinate, the position map over the product's vertices well under 2
    import tracemalloc

    g1 = birooted(2, [(0, 1)], 1, 0)
    g2 = birooted(1000, [(i, i + 1) for i in range(999)], 1, 500)
    builds = (
        comb_at_product, c_comb_product, essential_loop_product, c_comb_loop_product
    )
    for build in builds:
        tracemalloc.start()
        try:
            prod = build(g1, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prod.ambient_dim in (2_000_000, 2_002_000)
        assert peak < 2 * prod.ambient_dim, (build.__name__, peak)


def test_halved_root_moments_convolve_to_the_halved_walks_and_operator():
    # M_k / 2^k are the moments of the adjacency halved, and every additive
    # convolution commutes with that dilation; integer walk counts (as in
    # `verify products`) never run the series kernels' dilation, these do
    half = Fraction(1, 2)

    def halved(moments):
        return moment_series([m * half**k for k, m in enumerate(moments.coeffs)])

    rng = random.Random("halved")
    pairs = [additive_demo_pair()] + [
        (random_birooted_graph(rng, 2, 5), random_birooted_graph(rng, 2, 5))
        for _ in range(4)
    ]
    order = 8
    for g1, g2 in pairs:
        mu1, mu2 = halved(root_moments(g1, order)), halved(root_moments(g2, order))
        nu1 = halved(root_moments(g1, order, at=g1.second_root))
        nu2 = halved(root_moments(g2, order, at=g2.second_root))
        for kind, build in ADDITIVE_WALK_PRODUCTS.items():
            series = additive_convolve(kind, mu1, mu2, nu2)
            walks = halved(root_moments(build(g1, g2).graph, order))
            assert series.coeffs == walks.coeffs, kind
        dec = c_comb_decomposition(g1, g2)
        operator = [[(r, v * half) for r, v in col] for col in dec.total_columns()]
        at_e = additive_convolve("c-monotone", mu1, mu2, nu2)
        assert at_e.coeffs == sparse_moments((operator,), order, dec.phi_index)
        at_f = additive_convolve("monotone", nu1, nu2)
        assert at_f.coeffs == sparse_moments((operator,), order, dec.psi_index)
