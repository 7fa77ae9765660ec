"""Products of rooted and birooted graphs and the tensor-operator
decompositions of their adjacency matrices.

Gluing rule
-----------
Every product glues copies of G2 onto the vertices of G1: G1's edges lie on
the spine (one vertex per vertex of G1) with their colors kept, and each
host vertex carries a copy of G2 attached at e2, or at f2 in the comb-at
product, whose edges all carry color 2. The products differ only in which
vertices host a copy:

star        the root of G1; adjacency a1 (x) P_e2 + P_e1 (x) a2
comb        every vertex; a1 (x) P_e2 + 1 (x) a2 on the full tensor space
orthogonal  every vertex but the root; a1 (x) P_e2 + P_e1-perp (x) a2
comb-at     every vertex: (G2, e2) on the root of G1 and (G2, f2) on the
            others, i.e. the orthogonal product at f2 followed by the star
            product at e2; this is the essential component of the c-comb
            product
c-comb      disjoint union of the comb-at component (root e) and a plain
            comb product at the second roots (root f)

Loop rule: the loop variants (comb-loop, the essential loop component and
c-comb-loop) add a color-1 loop on every vertex off the spine, so that
products of the one-color adjacency matrices count alternating d-walks.

Since the first factor keeps its colors, a product can itself be a first
factor. A second-factor pair that already carries both colors would become
two color-2 edges, so building such a product raises ValueError instead of
merging them. The rule also makes the constructions exact when both factors
have loops at a glued vertex: the product keeps one loop per color there
and the adjacency diagonal counts both, matching the tensor formulas. A
product that needs a second root its factor lacks raises TypeError.

Every product records its vertex coordinate labels plus the list of
composite indices embedding it into the ambient tensor space, so the
operator decompositions can be compared entrywise after restriction.
The three-leg embeddings use leg order (V1, V2-at-e2, V2-at-f2): the swap of
the second and third legs relative to the two-step construction order is
explicit in the embedding, never an implicit relabeling; the dense
leg-swap permutation in tests/dense_reference.py checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, adjacency_columns, colored, disjoint_union
from .independence import build_cmonotone_pair
from .linalg import sparse_identity, sparse_sum, subspace_restrict, tensor_index

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
    "ADDITIVE_WALK_PRODUCTS",
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

    def label_of_root(self):
        return self.vertex_labels[self.graph.root]


@dataclass(frozen=True)
class OperatorDecomposition:
    """A pair of ambient tensor operators whose sum, restricted to the
    embedded span, equals the adjacency matrix of the associated product.

    `cols1` / `cols2` hold the two operators column-sparse (see linalg).
    `phi_index` / `psi_index` are the ambient coordinates of the one or two
    distinguished vector states.
    """

    cols1: list
    cols2: list
    ambient_dim: int
    embedding: tuple
    phi_index: int
    psi_index: int | None = None

    def total_columns(self) -> list:
        return sparse_sum(self.cols1, self.cols2)

    def restricted(self, color: int | None = None) -> list:
        """The operator of `color` (1 or 2, None for their sum) restricted
        to the embedded span, column-sparse: the counterpart of
        `adjacency_columns(product.graph, color)`."""
        if color is None:
            op = self.total_columns()
        else:
            op = {1: self.cols1, 2: self.cols2}[color]
        return subspace_restrict(op, self.embedding)


def _pair(i: int, j: int) -> tuple:
    return (i, j) if i <= j else (j, i)


def _glue(g1, g2, labels, spine, hosts, copy, embed, ambient_dim) -> ProductGraph:
    """The one gluing rule: G1's edges join the spine labels spine(u) with
    their colors kept, and each host u carries a color-2 copy of G2 whose
    vertex y is labeled copy(u, y). The root is spine(e1); a label sits at
    composite index embed(label) of an ambient space of size ambient_dim."""
    index = {lab: i for i, lab in enumerate(labels)}
    edges = [(index[spine(u)], index[spine(v)], c) for u, v, c in g1.colored_edges]
    for u in hosts:
        at = [index[copy(u, y)] for y in range(g2.vertex_count)]
        edges.extend((at[y], at[z], 2) for y, z, _c in g2.colored_edges)
    graph = colored(len(labels), edges, index[spine(g1.root)])
    embedding = tuple(embed(lab) for lab in labels)
    return ProductGraph(graph, tuple(labels), embedding, ambient_dim)


def _two_leg(g1: Graph, g2: Graph, labels, hosts) -> ProductGraph:
    """Gluing at e2 on V1 x V2: the spine is {(u, e2)}, vertex y of the
    copy on host u is (u, y), at composite index u * n2 + y."""
    n2, e2 = g2.vertex_count, g2.root
    return _glue(
        g1,
        g2,
        labels,
        lambda u: (u, e2),
        hosts,
        lambda u, y: (u, y),
        lambda lab: lab[0] * n2 + lab[1],
        g1.vertex_count * n2,
    )


def star_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Glue (G2, e2) at its root to the root of (G1, e1)."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    labels = [(u, e2) for u in range(n1)]
    labels += [(e1, y) for y in range(n2) if y != e2]
    return _two_leg(g1, g2, labels, [e1])


def comb_product(g1: Graph, g2: Graph) -> ProductGraph:
    """A copy of (G2, e2) at its root on every vertex of G1; the product
    fills the whole tensor space V1 x V2."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    labels = [(u, y) for u in range(n1) for y in range(n2)]
    return _two_leg(g1, g2, labels, range(n1))


def orthogonal_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Copies of (G2, e2) on every vertex of G1 except its root."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    labels = []
    for u in range(n1):
        labels.extend([(e1, e2)] if u == e1 else [(u, y) for y in range(n2)])
    return _two_leg(g1, g2, labels, [u for u in range(n1) if u != e1])


def comb_at_product(g1: Graph, g2: Graph) -> ProductGraph:
    """A copy of (G2, e2) on the root of G1 and copies of (G2, f2) on all
    remaining vertices: the orthogonal product of (G1, e1) and (G2, f2)
    followed by the star product with (G2, e2). With f2 = e2 this collapses
    to the comb product.

    Labels are the pre-swap coordinates (u, y, z): y is the f2-copy leg, z
    the e2-copy leg. The spine {(u, f2, e2)} carries the edges of G1; the
    ambient leg order (V1, V2-at-e2, V2-at-f2) puts label (u, y, z) at
    composite coordinate (u, z, y)."""
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
    return _glue(
        g1,
        g2,
        labels,
        lambda u: (u, f2, e2),
        range(n1),
        lambda u, y: (e1, f2, y) if u == e1 else (u, y, e2),
        lambda lab: tensor_index((n1, n2, n2), (lab[0], lab[2], lab[1])),
        n1 * n2 * n2,
    )


def _union(first: ProductGraph, second: ProductGraph) -> ProductGraph:
    """Disjoint union of two product components, the second embedded after
    the ambient block of the first; roots e and f."""
    block = first.ambient_dim
    return ProductGraph(
        disjoint_union(first.graph, second.graph),
        first.vertex_labels + second.vertex_labels,
        first.embedding + tuple(block + k for k in second.embedding),
        block + second.ambient_dim,
    )


def c_comb_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Disjoint union of the comb-at component of (G1, e1) and (G2, e2, f2)
    with the comb product of (G1, f1) and (G2, f2); roots e and f."""
    ess = comb_at_product(g1, g2)
    return _union(ess, comb_product(g1.at_second(), g2.at_second()))


def _loops_off_spine(base: ProductGraph, spine: tuple) -> ProductGraph:
    """The loop rule: a color-1 loop on every vertex off the spine, i.e.
    whose label past its G1 coordinate differs from `spine`."""
    edges = list(base.graph.colored_edges)
    for v, label in enumerate(base.vertex_labels):
        if label[1:] != spine:
            edges.append((v, v, 1))
    graph = colored(base.vertex_count, edges, base.graph.root)
    return ProductGraph(graph, base.vertex_labels, base.embedding, base.ambient_dim)


def comb_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Comb product with a color-1 loop added to every vertex except the
    root of each G2-copy."""
    return _loops_off_spine(comb_product(g1, g2), (g2.root,))


def essential_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Comb-at product with added loops on every vertex except e2 of the
    copy attached to the root and except f2 of all other copies;
    equivalently, on every non-spine vertex. The loops carry color 1: that
    is what makes products of the one-color adjacency matrices count
    alternating d-walks, and it matches the identity summand of the loop
    pair (R1, R2)."""
    base = comb_at_product(g1, g2)
    return _loops_off_spine(base, (g2.second_root, g2.root))


def c_comb_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Disjoint union of the essential loop component (root e) and the comb
    loop product at the second roots (root f)."""
    ess = essential_loop_product(g1, g2)
    return _union(ess, comb_loop_product(g1.at_second(), g2.at_second()))


# The product whose root walks count each additive convolution kind, in the
# order the CLI and `verify` report them.
ADDITIVE_WALK_PRODUCTS = {
    "monotone": comb_product,
    "boolean": star_product,
    "orthogonal": orthogonal_product,
    "c-monotone": comb_at_product,
}


# -- operator decompositions ---------------------------------------------------


def _decomposition(g1: Graph, g2: Graph, product: ProductGraph, loops: bool):
    """The one operator builder: the c-monotone pair of the factor
    adjacencies (independence.build_cmonotone_pair) at the roots e and f.
    The comb-at block on V1 x V2 x V2 is

        S1 = a1 (x) P_e2 (x) P_f2
        S2 = P_e1 (x) a2 (x) 1  +  P_e1-perp (x) 1 (x) a2

    with phi at (e1, e2, f2). When the product has a second root, the comb
    block on V1 x V2, S1' = a1 (x) P_f2 and S2' = 1 (x) a2, follows in a
    direct sum with psi at (f1, f2). With `loops` the pair is built from
    a - 1 for both factors and the ambient identity is added to each
    operator: (R1, R2) = 1 + the pair of (a1 - 1, a2 - 1). R1 is built from
    all of a1, so a loop pair refuses a first factor with color-2 edges:
    R1 would not restrict to the color-1 adjacency of the product."""
    a1, a2 = adjacency_columns(g1), adjacency_columns(g2)
    if loops:
        if g1.monochrome_edges(2):
            raise ValueError(
                "a loop decomposition needs a first factor without color-2 edges"
            )
        a1 = sparse_sum(a1, sparse_identity(len(a1)), signs=(1, -1))
        a2 = sparse_sum(a2, sparse_identity(len(a2)), signs=(1, -1))
    f1 = None if product.graph.second_root is None else g1.second_root
    pair = build_cmonotone_pair(
        {"a": a1},
        {"a": a2},
        g1.vertex_count,
        g2.vertex_count,
        (g1.root, f1),
        (g2.root, g2.second_root),
    )
    cols1, cols2 = pair.operators[(1, "a")], pair.operators[(2, "a")]
    if loops:
        one = sparse_identity(pair.dim)
        cols1, cols2 = sparse_sum(one, cols1), sparse_sum(one, cols2)
    return OperatorDecomposition(
        cols1, cols2, pair.dim, product.embedding, pair.phi_index, pair.psi_index
    )


def essential_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Tensor pair (S1, S2) for the comb-at component (see _decomposition):
    the embedded span is invariant under both operators and their sum
    restricts to the adjacency matrix of the comb-at product."""
    return _decomposition(g1, g2, comb_at_product(g1, g2), loops=False)


def c_comb_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Direct-sum pair for the full c-comb product on the ambient space
    (V1 x V2 x V2) (+) (V1 x V2), exposing phi at the embedded e and psi at
    the embedded f; the pair (S1, S2) is c-monotone independent with respect
    to them."""
    return _decomposition(g1, g2, c_comb_product(g1, g2), loops=False)


def essential_loop_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Loop pair (R1, R2) for the essential loop component: R1 - 1 and
    R2 - 1 are the comb-at pair of (a1 - 1, a2 - 1), with 1 the ambient
    identity, whose restriction contributes exactly the added color-1
    loops; R1 and R2 restrict to the color-1 and color-2 adjacency matrices
    of the essential loop product. Raises ValueError when g1 has color-2
    edges."""
    return _decomposition(g1, g2, essential_loop_product(g1, g2), loops=True)


def c_comb_loop_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Direct-sum loop pair covering both components of the c-comb loop
    product; (R1 - 1, R2 - 1) is c-monotone independent with respect to the
    states at the embedded roots e and f, and R1 and R2 restrict to its
    color-1 and color-2 adjacency matrices. Raises ValueError when g1 has
    color-2 edges."""
    return _decomposition(g1, g2, c_comb_loop_product(g1, g2), loops=True)


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
