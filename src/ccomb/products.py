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
Each product, c-comb union and loops included, is glued in one pass.

Since the first factor keeps its colors, a product can itself be a first
factor. A second-factor pair that already carries both colors would become
two color-2 edges, so building such a product raises ValueError instead of
merging them. The operator decompositions and `realize_graph_pair` read the
two factor adjacencies alone, build no product graph, and accept such a
factor. The rule also makes the constructions exact when both factors
have loops at a glued vertex: the product keeps one loop per color there
and the adjacency diagonal counts both, matching the tensor formulas.
Each builder raises ValueError, before it builds anything, for a factor
without a second root it reads and for a product of more than
graphs.MAX_VERTICES vertices; the decompositions refuse the same factors.

Every product records its vertex coordinate labels plus the list of
composite indices embedding it into the ambient tensor space; it is the
one holder of that embedding, and `OperatorDecomposition.restricted(product,
color)` compares a decomposition with it entrywise.
The three-leg embeddings use leg order (V1, V2-at-e2, V2-at-f2): the swap of
the second and third legs relative to the two-step construction order is
explicit in the embedding, never an implicit relabeling; the dense
leg-swap permutation in tests/dense_reference.py checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_VERTICES, Graph, adjacency_columns, adjacency_matrix, colored
from .independence import AlgebraModel, Realization, build_cmonotone, two_state_pairs
from .linalg import Matrix, sparse_identity, sparse_sum, subspace_restrict

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
    "PRODUCT_KINDS",
    "ADDITIVE_WALK_PRODUCTS",
    "MULTIPLICATIVE_WALK_PRODUCTS",
    "essential_decomposition",
    "c_comb_decomposition",
    "essential_loop_decomposition",
    "c_comb_loop_decomposition",
    "realize_graph_pair",
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


@dataclass(frozen=True)
class OperatorDecomposition:
    """A pair of ambient tensor operators, built from the two factor
    adjacencies alone, whose sum restricted to the embedded span of the
    associated product equals its adjacency matrix.

    `cols1` / `cols2` hold the two operators column-sparse (see linalg).
    `phi_index` / `psi_index` are the ambient coordinates of the one or two
    distinguished vector states; `loops` marks a loop pair (R1, R2).
    """

    cols1: list
    cols2: list
    ambient_dim: int
    loops: bool
    phi_index: int
    psi_index: int | None = None

    def total_columns(self) -> list:
        return sparse_sum(self.cols1, self.cols2)

    def restricted(self, product: ProductGraph, color: int | None = None) -> list:
        """The operator of `color` (1 or 2, None for their sum) restricted
        to the embedded span of `product`, column-sparse: the counterpart
        of `adjacency_columns(product.graph, color)`."""
        if color is None:
            op = self.total_columns()
        else:
            op = {1: self.cols1, 2: self.cols2}[color]
        return subspace_restrict(op, product.embedding)


def _glue(g1, g2, parts, loops=False) -> ProductGraph:
    """The one gluing rule, by composite index. Each part is one component
    (labels, embedding, spine, copies, size, root): its vertex v sits at
    composite index embedding[v] of an ambient block of the given size, the
    range `spine` holds the composite indices of the spine vertices u = 0,
    1, ..., which carry G1's edges with their colors kept, and each range
    in `copies` a color-2 copy of G2, vertex y at its y-th index. The parts
    follow one another in a direct sum; the spine vertex of the first
    part's root is the product's root, that of the second part's its second
    root. With `loops`, every vertex off its part's spine gets a color-1
    loop. The position maps cover the product's own vertices only. Each
    edge is made once, as (min, max, color), so one sort and `Graph`'s
    check finish the product."""
    labels, embedding, edges, roots, block = [], [], [], [], 0
    for part, embed, spine, copies, size, root in parts:
        n = len(labels)
        at = dict(zip(embed, range(n, n + len(embed)))).__getitem__
        axis = list(map(at, spine))
        edges.extend(
            (a, b, c) if (a := axis[u]) <= (b := axis[v]) else (b, a, c)
            for u, v, c in g1.colored_edges
        )
        for run in copies:
            copy = list(map(at, run))
            edges.extend(
                (a, b, 2) if (a := copy[y]) <= (b := copy[z]) else (b, a, 2)
                for y, z, _c in g2.colored_edges
            )
        if loops:
            edges.extend((v, v, 1) for v, k in enumerate(embed, n) if k not in spine)
        roots.append(axis[root])
        labels += part
        embedding += (block + k for k in embed)
        block += size
    graph = Graph(len(labels), tuple(sorted(edges)), *roots)
    return ProductGraph(graph, tuple(labels), tuple(embedding), block)


def _refuse_above(vertices: int) -> None:
    """Refuse a product of more than MAX_VERTICES vertices up front."""
    if vertices > MAX_VERTICES:
        raise ValueError(f"{vertices} vertices, more than {MAX_VERTICES}")


def _two_leg(g1: Graph, g2: Graph, labels, hosts, e1, e2) -> tuple:
    """The part glued at (e1, e2) on V1 x V2: label (u, y) sits at composite
    index u * n2 + y, so the spine {(u, e2)} is strided by n2 and the copy
    on host u is the contiguous block of u."""
    n2, size = g2.vertex_count, g1.vertex_count * g2.vertex_count
    embedding = [u * n2 + y for u, y in labels]
    copies = [range(u * n2, u * n2 + n2) for u in hosts]
    return labels, embedding, range(e2, size, n2), copies, size, e1


def _comb(g1: Graph, g2: Graph, e1, e2) -> tuple:
    """The comb part at the roots (e1, e2): it fills all of V1 x V2."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    _refuse_above(n1 * n2)
    labels = [(u, y) for u in range(n1) for y in range(n2)]
    return _two_leg(g1, g2, labels, range(n1), e1, e2)


def _comb_at(g1: Graph, g2: Graph) -> tuple:
    """The comb-at part. Labels are the pre-swap coordinates (u, y, z): y is
    the f2-copy leg, z the e2-copy leg. The spine {(u, f2, e2)} carries the
    edges of G1; the ambient leg order (V1, V2-at-e2, V2-at-f2) puts label
    (u, y, z) at composite coordinate (u, z, y), so the copy {(e1, f2, z)}
    on the root is strided by n2 and every other copy {(u, y, e2)} is
    contiguous."""
    if g2.second_root is None:
        raise ValueError("the second factor must be birooted")
    n1, e1 = g1.vertex_count, g1.root
    n2, e2, f2 = g2.vertex_count, g2.root, g2.second_root
    _refuse_above(n1 * n2)
    labels = []
    for u in range(n1):
        labels.append((u, f2, e2))
        if u != e1:
            labels.extend((u, y, e2) for y in range(n2) if y != f2)
    labels.extend((e1, f2, z) for z in range(n2) if z != e2)
    square = n2 * n2
    embedding = [u * square + z * n2 + y for u, y, z in labels]
    copies = [range((u * n2 + e2) * n2, (u * n2 + e2 + 1) * n2) for u in range(n1)]
    copies[e1] = range(e1 * square + f2, (e1 + 1) * square, n2)
    spine = range(e2 * n2 + f2, n1 * square, square)
    return labels, embedding, spine, copies, n1 * square, e1


def _c_comb(g1: Graph, g2: Graph) -> list:
    """The two parts of the c-comb product: the comb-at component (root e)
    and the comb product at the second roots (root f)."""
    if g1.second_root is None:
        raise ValueError("the first factor must be birooted")
    _refuse_above(2 * g1.vertex_count * g2.vertex_count)
    return [_comb_at(g1, g2), _comb(g1, g2, g1.second_root, g2.second_root)]


def star_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Glue (G2, e2) at its root to the root of (G1, e1)."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    _refuse_above(n1 + n2 - 1)
    labels = [(u, e2) for u in range(n1)]
    labels += [(e1, y) for y in range(n2) if y != e2]
    return _glue(g1, g2, [_two_leg(g1, g2, labels, [e1], e1, e2)])


def comb_product(g1: Graph, g2: Graph) -> ProductGraph:
    """A copy of (G2, e2) at its root on every vertex of G1; the product
    fills the whole tensor space V1 x V2."""
    return _glue(g1, g2, [_comb(g1, g2, g1.root, g2.root)])


def orthogonal_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Copies of (G2, e2) on every vertex of G1 except its root."""
    n1, e1 = g1.vertex_count, g1.root
    n2, e2 = g2.vertex_count, g2.root
    _refuse_above((n1 - 1) * n2 + 1)
    labels = []
    for u in range(n1):
        labels.extend([(e1, e2)] if u == e1 else [(u, y) for y in range(n2)])
    hosts = [u for u in range(n1) if u != e1]
    return _glue(g1, g2, [_two_leg(g1, g2, labels, hosts, e1, e2)])


def comb_at_product(g1: Graph, g2: Graph) -> ProductGraph:
    """A copy of (G2, e2) on the root of G1 and copies of (G2, f2) on all
    remaining vertices: the orthogonal product of (G1, e1) and (G2, f2)
    followed by the star product with (G2, e2). With f2 = e2 this collapses
    to the comb product."""
    return _glue(g1, g2, [_comb_at(g1, g2)])


def c_comb_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Disjoint union of the comb-at component of (G1, e1) and (G2, e2, f2)
    with the comb product of (G1, f1) and (G2, f2); roots e and f."""
    return _glue(g1, g2, _c_comb(g1, g2))


def comb_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Comb product with a color-1 loop added to every vertex except the
    root of each G2-copy."""
    return _glue(g1, g2, [_comb(g1, g2, g1.root, g2.root)], loops=True)


def essential_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Comb-at product with added loops on every vertex except e2 of the
    copy attached to the root and except f2 of all other copies;
    equivalently, on every non-spine vertex. The loops carry color 1: that
    is what makes products of the one-color adjacency matrices count
    alternating d-walks, and it matches the identity summand of the loop
    pair (R1, R2)."""
    return _glue(g1, g2, [_comb_at(g1, g2)], loops=True)


def c_comb_loop_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Disjoint union of the essential loop component (root e) and the comb
    loop product at the second roots (root f)."""
    return _glue(g1, g2, _c_comb(g1, g2), loops=True)


# The builders by CLI kind name; plain dicts, so a tracer finds them as values.
PRODUCT_KINDS = {
    "star": star_product,
    "comb": comb_product,
    "orthogonal": orthogonal_product,
    "comb-at": comb_at_product,
    "c-comb": c_comb_product,
    "comb-loop": comb_loop_product,
    "c-comb-loop": c_comb_loop_product,
}

# The product whose root walks count each additive convolution kind, in the
# order the CLI and `verify` report them.
ADDITIVE_WALK_PRODUCTS = {
    "monotone": comb_product,
    "boolean": star_product,
    "orthogonal": orthogonal_product,
    "c-monotone": comb_at_product,
}

# The product whose two-step walks count a multiplicative kind: for c-monotone
# the essential one, whose component alone the moments at e see (no f1 needed).
MULTIPLICATIVE_WALK_PRODUCTS = {
    "monotone": comb_loop_product,
    "c-monotone": essential_loop_product,
}


# -- operator decompositions ---------------------------------------------------


def _decomposition(g1: Graph, g2: Graph, psi: bool, loops: bool):
    """The one operator builder: the c-monotone pair of the factor
    adjacencies (independence.build_cmonotone) at the roots e and f, read
    from the two factors alone. The comb-at block on V1 x V2 x V2 is

        S1 = a1 (x) P_e2 (x) P_f2
        S2 = P_e1 (x) a2 (x) 1  +  P_e1-perp (x) 1 (x) a2

    with phi at (e1, e2, f2). With `psi` (the c-comb kinds) the comb block
    on V1 x V2, S1' = a1 (x) P_f2 and S2' = 1 (x) a2, follows in a direct
    sum with psi at (f1, f2). With `loops` the pair is built from a - 1
    for both factors and the ambient identity is added to each operator:
    (R1, R2) = 1 + the pair of (a1 - 1, a2 - 1). R1 is built from all of
    a1, so a loop pair refuses a first factor with color-2 edges: R1 would
    not restrict to the color-1 adjacency of the product."""
    if g2.second_root is None:
        raise ValueError("the second factor must be birooted")
    if psi and g1.second_root is None:
        raise ValueError("the first factor must be birooted")
    f1 = g1.second_root if psi else None
    a1, a2 = adjacency_columns(g1), adjacency_columns(g2)
    if loops:
        if g1.monochrome_edges(2):
            raise ValueError(
                "a loop decomposition needs a first factor without color-2 edges"
            )
        a1 = sparse_sum(a1, sparse_identity(len(a1)), signs=(1, -1))
        a2 = sparse_sum(a2, sparse_identity(len(a2)), signs=(1, -1))
    pair = build_cmonotone(
        {
            1: ({"a": a1}, g1.vertex_count, (g1.root, f1)),
            2: ({"a": a2}, g2.vertex_count, (g2.root, g2.second_root)),
        }
    )
    cols1, cols2 = pair.operators[(1, "a")], pair.operators[(2, "a")]
    if loops:
        one = sparse_identity(pair.dim)
        cols1, cols2 = sparse_sum(one, cols1), sparse_sum(one, cols2)
    return OperatorDecomposition(
        cols1, cols2, pair.dim, loops, pair.phi_index, pair.psi_index
    )


def essential_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Tensor pair (S1, S2) for the comb-at component (see _decomposition):
    the embedded span of comb_at_product is invariant under both operators
    and their sum restricts to its adjacency matrix."""
    return _decomposition(g1, g2, psi=False, loops=False)


def c_comb_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Direct-sum pair for the full c-comb product on the ambient space
    (V1 x V2 x V2) (+) (V1 x V2), exposing phi at the embedded e and psi at
    the embedded f; the pair (S1, S2) is c-monotone independent with respect
    to them."""
    return _decomposition(g1, g2, psi=True, loops=False)


def essential_loop_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Loop pair (R1, R2) for the essential loop component: R1 - 1 and
    R2 - 1 are the comb-at pair of (a1 - 1, a2 - 1), with 1 the ambient
    identity, whose restriction contributes exactly the added color-1
    loops; R1 and R2 restrict to the color-1 and color-2 adjacency matrices
    of the essential loop product. Raises ValueError when g1 has color-2
    edges."""
    return _decomposition(g1, g2, psi=False, loops=True)


def c_comb_loop_decomposition(g1: Graph, g2: Graph) -> OperatorDecomposition:
    """Direct-sum loop pair covering both components of the c-comb loop
    product; (R1 - 1, R2 - 1) is c-monotone independent with respect to the
    states at the embedded roots e and f, and R1 and R2 restrict to its
    color-1 and color-2 adjacency matrices. Raises ValueError when g1 has
    color-2 edges."""
    return _decomposition(g1, g2, psi=True, loops=True)


def realize_graph_pair(dec: OperatorDecomposition, g1: Graph, g2: Graph):
    """The c-comb decomposition `dec` of the birooted graphs (g1, g2) as a
    two-state realization, letters (1, "a") and (2, "a") acting as its two
    operators, plus the (phi, psi) functional pairs of the factor
    adjacencies at (root, second root). For a loop decomposition the
    identity is subtracted on both sides. The pair is c-monotone
    independent, so the realized moments equal oracle_cmonotone under these
    pairs."""
    ops = {(1, "a"): dec.cols1, (2, "a"): dec.cols2}
    adj = {1: adjacency_matrix(g1), 2: adjacency_matrix(g2)}
    if dec.loops:
        one = sparse_identity(dec.ambient_dim)
        ops = {key: sparse_sum(op, one, signs=(1, -1)) for key, op in ops.items()}
        adj = {j: a - Matrix.identity(a.rows) for j, a in adj.items()}
    realization = Realization(ops, dec.ambient_dim, dec.phi_index, dec.psi_index)
    models = {
        j: AlgebraModel({"a": adj[j]}, g.root, g.second_root)
        for j, g in ((1, g1), (2, g2))
    }
    return realization, two_state_pairs(models)


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
    edges = [(mapping[i], mapping[j], c) for i, j, c in graph_a.colored_edges]
    mapped = colored(graph_b.vertex_count, edges, mapping[graph_a.root])
    return (mapped.root, mapped.colored_edges) == (graph_b.root, graph_b.colored_edges)
