"""Products of rooted and birooted graphs and the tensor-operator
decompositions of their adjacency matrices.

Constructions
-------------
star        glue G2 to G1 at the roots; adjacency a1 (x) P_e2 + P_e1 (x) a2
comb        a copy of G2 at its root on every vertex of G1;
            adjacency a1 (x) P_e2 + 1 (x) a2 on the full tensor space
orthogonal  copies of G2 on every non-root vertex of G1;
            adjacency a1 (x) P_e2 + P_e1-perp (x) a2
comb-at     a copy of (G2, e2) on the root of G1 and copies of (G2, f2) on
            the remaining vertices: the orthogonal product at f2 followed by
            the star product at e2; this is the essential component of the
            c-comb product
c-comb      disjoint union of the comb-at component (root e) and a plain
            comb product at the second roots (root f)
loop variants  the same graphs with color-1 loops added so that products of
            the one-color adjacency matrices count alternating d-walks

Every product reads its two factors by one rule: edges of the first factor
keep their colors (color 1 for a plain graph, the original colors when it is
itself a product), and every edge of the attached copies of the second
factor carries color 2. A second-factor pair that already carries both
colors would become two color-2 edges, so building such a product raises
ValueError instead of merging them. The rule also makes the constructions
exact when both factors have loops at a glued vertex: the product keeps one
loop per color there and the adjacency diagonal counts both, matching the
tensor formulas. A product that needs a second root its factor lacks raises
TypeError.

Every product records its vertex coordinate labels plus the list of
composite indices embedding it into the ambient tensor space, so the
operator decompositions can be compared entrywise after restriction.
The three-leg embeddings use leg order (V1, V2-at-e2, V2-at-f2): the swap of
the second and third legs relative to the two-step construction order is an
explicit index permutation (see linalg.flip23_permutation), never an
implicit relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, adjacency_columns, colored, disjoint_union
from .linalg import (
    Matrix,
    sparse_complement,
    sparse_direct_sum,
    sparse_identity,
    sparse_kron,
    sparse_projection,
    sparse_sum,
    sparse_to_matrix,
    subspace_restrict,
    tensor_index,
)

__all__ = [
    "ProductGraph",
    "OperatorDecomposition",
    "star_product",
    "comb_product",
    "orthogonal_product",
    "comb_at_product",
    "c_comb_product",
    "comb_loop_product",
    "essential_loop_product",
    "c_comb_loop_product",
    "essential_decomposition",
    "c_comb_decomposition",
    "essential_loop_decomposition",
    "c_comb_loop_decomposition",
    "superposition_map",
    "comb_at_collapse_map",
    "relabel_isomorphic",
]


@dataclass(frozen=True)
class ProductGraph:
    """A product graph together with its coordinate labels and the composite
    tensor indices embedding it into the ambient operator space."""

    graph: Graph
    vertex_labels: tuple
    embedding: tuple
    ambient_dim: int

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def index_of(self, label) -> int:
        return self.vertex_labels.index(label)

    def label_of_root(self):
        return self.vertex_labels[self.graph.root]


@dataclass(frozen=True)
class OperatorDecomposition:
    """A pair of ambient tensor operators whose sum, restricted to the
    embedded span, equals the adjacency matrix of the associated product.

    `cols1` / `cols2` hold the two operators column-sparse (see linalg);
    the dense `s1`, `s2` and `total()` are test-size references built on
    request. `loop_adjusted` distinguishes the loop-product pairs (R1, R2),
    whose ambient identity carries the added loops, from the plain pairs
    (S1, S2). `phi_index` / `psi_index` are the ambient coordinates of the
    one or two distinguished vector states.
    """

    cols1: list
    cols2: list
    ambient_dim: int
    embedding: tuple
    loop_adjusted: bool
    phi_index: int
    psi_index: int | None = None

    @property
    def s1(self) -> Matrix:
        return sparse_to_matrix(self.cols1)

    @property
    def s2(self) -> Matrix:
        return sparse_to_matrix(self.cols2)

    def total_columns(self) -> list:
        return sparse_sum(self.cols1, self.cols2)

    def total(self) -> Matrix:
        return sparse_to_matrix(self.total_columns())

    def restricted_sum(self) -> Matrix:
        return subspace_restrict(self.total_columns(), self.embedding)

    def restricted(self, which: int) -> Matrix:
        return subspace_restrict(
            self.cols1 if which == 1 else self.cols2, self.embedding
        )


def _pair(i: int, j: int) -> tuple:
    return (i, j) if i <= j else (j, i)


def star_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Glue (G2, e2) at its root to the root of (G1, e1)."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    labels = [(u, e2) for u in range(n1)]
    labels += [(e1, y) for y in range(n2) if y != e2]
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for u, v, c in g1.colored_edges:
        edges.append((index[(u, e2)], index[(v, e2)], c))
    for y, z, _c in g2.colored_edges:
        edges.append((index[(e1, y)], index[(e1, z)], 2))
    graph = colored(len(labels), edges, index[(e1, e2)])
    embedding = tuple(tensor_index((n1, n2), lab) for lab in labels)
    return ProductGraph(graph, tuple(labels), embedding, n1 * n2)


def comb_product(g1: Graph, g2: Graph) -> ProductGraph:
    """A copy of (G2, e2) at its root on every vertex of G1; the product
    fills the whole tensor space V1 x V2."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    labels = [(u, y) for u in range(n1) for y in range(n2)]
    edges = []
    for u, v, c in g1.colored_edges:
        edges.append((u * n2 + e2, v * n2 + e2, c))
    for u in range(n1):
        for y, z, _c in g2.colored_edges:
            edges.append((u * n2 + y, u * n2 + z, 2))
    graph = colored(n1 * n2, edges, e1 * n2 + e2)
    return ProductGraph(graph, tuple(labels), tuple(range(n1 * n2)), n1 * n2)


def orthogonal_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Copies of (G2, e2) on every vertex of G1 except its root."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    labels = []
    for u in range(n1):
        if u == e1:
            labels.append((e1, e2))
        else:
            labels.extend((u, y) for y in range(n2))
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for u, v, c in g1.colored_edges:
        edges.append((index[(u, e2)], index[(v, e2)], c))
    for u in range(n1):
        if u == e1:
            continue
        for y, z, _c in g2.colored_edges:
            edges.append((index[(u, y)], index[(u, z)], 2))
    graph = colored(len(labels), edges, index[(e1, e2)])
    embedding = tuple(tensor_index((n1, n2), lab) for lab in labels)
    return ProductGraph(graph, tuple(labels), embedding, n1 * n2)


def _three_leg_embedding(labels, n1, n2):
    # ambient leg order (V1, V2-at-e2, V2-at-f2): label (u, y, z) sits at
    # composite coordinate (u, z, y)
    return tuple(tensor_index((n1, n2, n2), (u, z, y)) for (u, y, z) in labels)


def comb_at_product(g1: Graph, g2: Graph) -> ProductGraph:
    """A copy of (G2, e2) on the root of G1 and copies of (G2, f2) on all
    remaining vertices: the orthogonal product of (G1, e1) and (G2, f2)
    followed by the star product with (G2, e2). With f2 = e2 this collapses
    to the comb product.

    Labels are the pre-swap coordinates (u, y, z): y is the f2-copy leg, z
    the e2-copy leg. The spine {(u, f2, e2)} carries the edges of G1."""
    if g2.second_root is None:
        raise TypeError("the second factor must be birooted")
    n1, e1 = g1.vertex_count, g1.root
    n2, e2, f2 = g2.vertex_count, g2.root, g2.second_root
    labels = []
    for u in range(n1):
        labels.append((u, f2, e2))
        if u != e1:
            labels.extend((u, y, e2) for y in range(n2) if y != f2)
    labels.extend((e1, f2, z) for z in range(n2) if z != e2)
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for u, v, c in g1.colored_edges:
        edges.append((index[(u, f2, e2)], index[(v, f2, e2)], c))
    for u in range(n1):
        if u == e1:
            continue
        for y, z, _c in g2.colored_edges:
            edges.append((index[(u, y, e2)], index[(u, z, e2)], 2))
    for y, z, _c in g2.colored_edges:
        edges.append((index[(e1, f2, y)], index[(e1, f2, z)], 2))
    graph = colored(len(labels), edges, index[(e1, f2, e2)])
    return ProductGraph(
        graph, tuple(labels), _three_leg_embedding(labels, n1, n2), n1 * n2 * n2
    )


def _union(first: ProductGraph, second: ProductGraph, block: int) -> ProductGraph:
    """Disjoint union of two product components, the second embedded after
    an ambient block of size `block`; roots e and f."""
    labels = first.vertex_labels + second.vertex_labels
    embedding = first.embedding + tuple(block + k for k in second.embedding)
    return ProductGraph(
        disjoint_union(first.graph, second.graph),
        labels,
        embedding,
        block + second.ambient_dim,
    )


def c_comb_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Disjoint union of the comb-at component of (G1, e1) and (G2, e2, f2)
    with the comb product of (G1, f1) and (G2, f2); roots e and f."""
    ess = comb_at_product(g1, g2)
    cmb = comb_product(g1.at_second(), g2.at_second())
    return _union(ess, cmb, ess.ambient_dim)


def comb_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Comb product with a color-1 loop added to every vertex except the
    root of each G2-copy."""
    base = comb_product(g1, g2)
    n2, e2 = g2.vertex_count, g2.root
    edges = list(base.graph.colored_edges)
    for v in range(base.vertex_count):
        if v % n2 != e2:
            edges.append((v, v, 1))
    graph = colored(base.vertex_count, edges, base.graph.root)
    return ProductGraph(graph, base.vertex_labels, base.embedding, base.ambient_dim)


def essential_loop_product(g1: Graph, g2: Graph, loop_color: int = 1) -> ProductGraph:
    """Comb-at product with added loops on every vertex except e2 of the
    copy attached to the root and except f2 of all other copies;
    equivalently, on every non-spine vertex.

    The added loops carry color 1: that is what makes products of the
    one-color adjacency matrices count alternating d-walks, and it matches
    the loop-adjusted operator pair (the identity summand of R1). Passing
    `loop_color=2` builds the alternative coloring for inspection; its
    first-return counts do not reproduce the convolution coefficients.
    """
    if loop_color not in (1, 2):
        raise ValueError("loop color must be 1 or 2")
    base = comb_at_product(g1, g2)
    spine = (g2.second_root, g2.root)
    edges = list(base.graph.colored_edges)
    for v, (_u, y, z) in enumerate(base.vertex_labels):
        if (y, z) != spine:
            edges.append((v, v, loop_color))
    graph = colored(base.vertex_count, edges, base.graph.root)
    return ProductGraph(graph, base.vertex_labels, base.embedding, base.ambient_dim)


def c_comb_loop_product(g1: Graph, g2: Graph, loop_color: int = 1) -> ProductGraph:
    """Disjoint union of the essential loop component (root e) and the comb
    loop product at the second roots (root f); see essential_loop_product
    for the `loop_color` escape hatch."""
    ess = essential_loop_product(g1, g2, loop_color)
    cmb = comb_loop_product(g1.at_second(), g2.at_second())
    return _union(ess, cmb, ess.ambient_dim)


# -- operator decompositions ---------------------------------------------------


def _loop_adjusted(a: list) -> list:
    """a - 1 for a column-sparse factor adjacency."""
    return sparse_sum(a, sparse_identity(len(a)), signs=(1, -1))


def _essential_pair(a1, a2, e1, e2, f2):
    """The comb-at pair built leg by leg from factor operators a1, a2:
    (a1 (x) P_e2 (x) P_f2,  P_e1 (x) a2 (x) 1 + P_e1-perp (x) 1 (x) a2)."""
    n1, n2 = len(a1), len(a2)
    i2 = sparse_identity(n2)
    s1 = sparse_kron(a1, sparse_projection(n2, e2), sparse_projection(n2, f2))
    s2 = sparse_sum(
        sparse_kron(sparse_projection(n1, e1), a2, i2),
        sparse_kron(sparse_complement(n1, e1), i2, a2),
    )
    return s1, s2


def essential_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Tensor pair (S1, S2) for the comb-at component on V1 x V2 x V2:

        S1 = a1 (x) P_e2 (x) P_f2
        S2 = P_e1 (x) a2 (x) 1  +  P_e1-perp (x) 1 (x) a2

    The embedded span is invariant under both operators and their sum
    restricts to the adjacency matrix of the comb-at product; the root is
    embedded at the composite index of (e1, e2, f2)."""
    prod = comb_at_product(g1, g2)
    n1, e1 = g1.vertex_count, g1.root
    n2, e2, f2 = g2.vertex_count, g2.root, g2.second_root
    s1, s2 = _essential_pair(adjacency_columns(g1), adjacency_columns(g2), e1, e2, f2)
    return OperatorDecomposition(
        s1,
        s2,
        n1 * n2 * n2,
        prod.embedding,
        False,
        tensor_index((n1, n2, n2), (e1, e2, f2)),
    )


def c_comb_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Direct-sum pair for the full c-comb product on the ambient space
    (V1 x V2 x V2) (+) (V1 x V2), with the comb-at block as in
    essential_decomposition and the comb block

        S1' = a1 (x) P_f2,    S2' = 1 (x) a2.

    Exposes both vector states: phi at the embedded e, psi at the embedded
    f; the pair (S1, S2) is c-monotone independent with respect to them."""
    prod = c_comb_product(g1, g2)
    ess = essential_decomposition(g1, g2)
    n1, f1 = g1.vertex_count, g1.second_root
    n2, f2 = g2.vertex_count, g2.second_root
    a1 = adjacency_columns(g1)
    a2 = adjacency_columns(g2)
    s1 = sparse_direct_sum(ess.cols1, sparse_kron(a1, sparse_projection(n2, f2)))
    s2 = sparse_direct_sum(ess.cols2, sparse_kron(sparse_identity(n1), a2))
    block = n1 * n2 * n2
    return OperatorDecomposition(
        s1,
        s2,
        block + n1 * n2,
        prod.embedding,
        False,
        ess.phi_index,
        block + tensor_index((n1, n2), (f1, f2)),
    )


def essential_loop_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Loop-adjusted pair (R1, R2) for the essential loop component:

        R1 - 1 = (a1 - 1) (x) P_e2 (x) P_f2
        R2 - 1 = P_e1 (x) (a2 - 1) (x) 1  +  P_e1-perp (x) 1 (x) (a2 - 1)

    with 1 the ambient identity, whose restriction contributes exactly the
    added color-1 loops; R1 and R2 restrict to the color-1 and color-2
    adjacency matrices of the essential loop product."""
    prod = essential_loop_product(g1, g2)
    n1, e1 = g1.vertex_count, g1.root
    n2, e2, f2 = g2.vertex_count, g2.root, g2.second_root
    dim = n1 * n2 * n2
    v1, v2 = _essential_pair(
        _loop_adjusted(adjacency_columns(g1)),
        _loop_adjusted(adjacency_columns(g2)),
        e1,
        e2,
        f2,
    )
    one = sparse_identity(dim)
    return OperatorDecomposition(
        sparse_sum(one, v1),
        sparse_sum(one, v2),
        dim,
        prod.embedding,
        True,
        tensor_index((n1, n2, n2), (e1, e2, f2)),
    )


def c_comb_loop_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Direct-sum loop-adjusted pair covering both components of the c-comb
    loop product; (R1 - 1, R2 - 1) is c-monotone independent with respect to
    the states at the embedded roots e and f."""
    prod = c_comb_loop_product(g1, g2)
    ess = essential_loop_decomposition(g1, g2)
    n1, f1 = g1.vertex_count, g1.second_root
    n2, f2 = g2.vertex_count, g2.second_root
    block = n1 * n2 * n2
    a1v = _loop_adjusted(adjacency_columns(g1))
    a2v = _loop_adjusted(adjacency_columns(g2))
    one_comb = sparse_identity(n1 * n2)
    r1 = sparse_direct_sum(
        ess.cols1, sparse_sum(one_comb, sparse_kron(a1v, sparse_projection(n2, f2)))
    )
    r2 = sparse_direct_sum(
        ess.cols2, sparse_sum(one_comb, sparse_kron(sparse_identity(n1), a2v))
    )
    return OperatorDecomposition(
        r1,
        r2,
        block + n1 * n2,
        prod.embedding,
        True,
        ess.phi_index,
        block + tensor_index((n1, n2), (f1, f2)),
    )


# -- canonical isomorphisms ----------------------------------------------------


def superposition_map(g1: Graph, g2: Graph) -> dict:
    """Vertex bijection exhibiting the comb product as the superposition of
    the orthogonal and star products: star(orthogonal(G1, G2), G2) -> comb.

    Keys index the star-of-orthogonal product, values the comb product; the
    map preserves roots and colored edges.
    """
    n2, e1, e2 = g2.vertex_count, g1.root, g2.root
    orth = orthogonal_product(g1, g2)
    so = star_product(orth.graph, g2)
    mapping = {}
    for i, (w, y) in enumerate(so.vertex_labels):
        if y == e2:
            u, v = orth.vertex_labels[w]
            mapping[i] = u * n2 + v
        else:
            mapping[i] = e1 * n2 + y
    return mapping


def comb_at_collapse_map(g1: Graph, g2: Graph) -> dict:
    """Vertex bijection comb_at -> comb when the two roots of G2 coincide."""
    if g2.second_root != g2.root:
        raise ValueError("collapse map needs f2 = e2")
    n2, e1, e2 = g2.vertex_count, g1.root, g2.root
    prod = comb_at_product(g1, g2)
    mapping = {}
    for i, (u, y, z) in enumerate(prod.vertex_labels):
        if (y, z) == (e2, e2):
            mapping[i] = u * n2 + e2
        elif z == e2:
            mapping[i] = u * n2 + y
        else:
            mapping[i] = e1 * n2 + z
    return mapping


def relabel_isomorphic(graph_a: Graph, graph_b: Graph, mapping: dict) -> bool:
    """Check that `mapping` is a root- and color-preserving edge bijection."""
    if graph_a.vertex_count != graph_b.vertex_count:
        return False
    if sorted(mapping) != list(range(graph_a.vertex_count)):
        return False
    if sorted(mapping.values()) != list(range(graph_b.vertex_count)):
        return False
    if mapping[graph_a.root] != graph_b.root:
        return False
    mapped = {
        _pair(mapping[i], mapping[j]) + (c,) for i, j, c in graph_a.colored_edges
    }
    return mapped == set(graph_b.colored_edges)
