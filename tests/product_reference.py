"""Label-level reference for the product graphs of `ccomb.products`.

The library places each product vertex by composite-index arithmetic: one
position map over the product's own vertices, with the spine and every
G2-copy read as a range of composite indices, and it glues the c-comb
unions and the loop rule in the same pass. These are the four label
builders written on vertex labels instead: each spine and copy vertex is a
label computed by a function and found through a label -> vertex map, and
each label is embedded by a function of its own (`tensor_index` in
comb-at). On top of them, `union` and `loops_off_spine` build the c-comb
unions and the loop products as new graphs from finished components.
Tests compare the two in graph, labels, embedding and ambient dimension.
"""

from ccomb.graphs import Graph, colored
from ccomb.linalg import tensor_index
from ccomb.products import ProductGraph


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


def at_second(g: Graph) -> Graph:
    """The same edges rooted at the second root."""
    return Graph(g.vertex_count, g.colored_edges, g.second_root)


def union(first: ProductGraph, second: ProductGraph) -> ProductGraph:
    """Disjoint union of two product components, the second embedded after
    the ambient block of the first; roots e and f."""
    n1, block = first.vertex_count, first.ambient_dim
    g1, g2 = first.graph, second.graph
    # every shifted index is at least n1, so g2's edges sort after g1's
    shifted = tuple((i + n1, j + n1, c) for i, j, c in g2.colored_edges)
    graph = Graph(
        n1 + g2.vertex_count, g1.colored_edges + shifted, g1.root, n1 + g2.root
    )
    return ProductGraph(
        graph,
        first.vertex_labels + second.vertex_labels,
        first.embedding + tuple(block + k for k in second.embedding),
        block + second.ambient_dim,
    )


def loops_off_spine(base: ProductGraph, spine: tuple) -> ProductGraph:
    """The loop rule: a color-1 loop on every vertex off the spine, i.e.
    whose label past its G1 coordinate differs from `spine`. The loops
    merge into the edges, and `Graph` refuses a loop already there."""
    loops = tuple(
        (v, v, 1) for v, label in enumerate(base.vertex_labels) if label[1:] != spine
    )
    # two sorted runs: Timsort merges them in one linear pass
    edges = tuple(sorted(base.graph.colored_edges + loops))
    graph = Graph(base.vertex_count, edges, base.graph.root)
    return ProductGraph(graph, base.vertex_labels, base.embedding, base.ambient_dim)
