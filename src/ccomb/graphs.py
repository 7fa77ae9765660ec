"""Finite rooted and birooted graphs with loops and two edge colors.

One frozen `Graph` type covers all three shapes the paper uses: a root, an
optional second root, and edges of color 1 or 2. Uncolored input gets
color 1, so a plain graph is a graph whose edges all have color 1; products
add color-2 edges. Graphs are non-oriented and simple per color (at most
one edge per vertex pair and color); loops are allowed and a loop
contributes 1 per color to the diagonal of the adjacency matrix. A graph
keeps its edges as one canonical tuple of (i, j, color) with i <= j, in
strictly increasing order: `colored` sorts once when a graph is built, and
every later step reads that order instead of sorting again. All values
are immutable. Vertex identification never mutates inputs; product
constructions keep explicit label maps (see the products module). Walks
count on neighbor lists: `root_moments` and `two_step_moments` share one
walk kernel; the brute-force counters read one forward pass that counts
every length at once, in O(length * edges). Neither reaches `linalg`'s
operator kernel, so a fault in one makes the routes disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul

from .linalg import Matrix
# graphs.sparse_apply stays bound: perfbench's tracer tests patch it here
from .linalg import sparse_apply  # noqa: F401
from .series import MomentSeries

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "rooted",
    "birooted",
    "colored",
    "adjacency_matrix",
    "adjacency_columns",
    "root_moments",
    "two_step_moments",
    "brute_force_closed_walks",
    "count_d_walks",
]

# larger graph files and products are refused: they would exhaust memory
MAX_VERTICES = 1_000_000

@dataclass(frozen=True)
class Graph:
    """Graph with a root, an optional second root (the two may coincide) and
    edges of color 1 or 2; a pair may carry one edge of each color but never
    two of the same color. `colored_edges` is one strictly increasing tuple,
    so equal graphs have equal tuples; a non-tuple, an edge out of order and
    a repeated edge are refused."""

    vertex_count: int
    colored_edges: tuple  # of (i, j, color), i <= j; (i, i, c) is a loop
    root: int
    second_root: int | None = None

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if not 0 <= self.root < self.vertex_count:
            raise ValueError("root out of range")
        if self.second_root is not None and not (
            0 <= self.second_root < self.vertex_count
        ):
            raise ValueError("second root out of range")
        if not isinstance(self.colored_edges, tuple):
            raise TypeError("colored_edges must be a sorted tuple of (i, j, color)")
        prev = (-1,)  # before every edge, since 0 <= i
        for edge in self.colored_edges:
            i, j, c = edge
            if c not in (1, 2):
                raise ValueError(f"edge color must be 1 or 2, got {c}")
            if not (0 <= i <= j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) out of range or unnormalized")
            if not prev < edge:
                if prev == edge:
                    raise ValueError("duplicate edges (same pair and color)")
                raise ValueError(f"edge {edge} out of order after {prev}")
            prev = edge

    @property
    def edges(self) -> frozenset:
        """The vertex pairs carrying an edge of either color."""
        return frozenset((i, j) for i, j, _c in self.colored_edges)

    def monochrome_edges(self, color: int) -> frozenset:
        return frozenset((i, j) for i, j, c in self.colored_edges if c == color)


def colored(
    vertex_count: int, edges, root: int, second_root: int | None = None
) -> Graph:
    """Normalizing constructor for outside edge lists: (i, j, color) in any
    order and orientation. The vertex count, the roots and every index and
    color must be of type int (a bool is refused), or ValueError; a repeated
    edge is refused by `Graph`."""
    edges = list(edges)
    roots = (root,) if second_root is None else (root, second_root)
    if set(map(type, chain((vertex_count, *roots), *edges))) != {int}:
        raise ValueError("vertex count, roots, indices and colors must be int")
    norm = sorted((i, j, c) if i <= j else (j, i, c) for i, j, c in edges)
    return Graph(vertex_count, tuple(norm), root, second_root)


def rooted(vertex_count: int, edges, root: int) -> Graph:
    """Normalizing constructor for uncolored (i, j) edges, given color 1."""
    return colored(vertex_count, [(i, j, 1) for i, j in edges], root)


def birooted(vertex_count: int, edges, first_root: int, second_root: int) -> Graph:
    return colored(
        vertex_count, [(i, j, 1) for i, j in edges], first_root, second_root
    )


def _neighbor_lists(g: Graph, color: int | None = None) -> list:
    """One neighbor entry per edge of the given color (all colors if None);
    a loop lists its vertex once."""
    adj = [[] for _ in range(g.vertex_count)]
    for i, j, c in g.colored_edges:
        if color in (None, c):
            adj[i].append(j)
            if i != j:
                adj[j].append(i)
    return adj


def adjacency_matrix(g: Graph, color: int | None = None) -> Matrix:
    """Symmetric adjacency matrix of one color; a loop contributes 1 to its
    diagonal. Without a color the per-color matrices are summed, so
    doubly-colored pairs and loops contribute 2."""
    if color is None:
        return adjacency_matrix(g, 1) + adjacency_matrix(g, 2)
    n = g.vertex_count
    data = [0] * (n * n)
    for i, j, c in g.colored_edges:
        if c == color:
            data[i * n + j] = data[j * n + i] = 1
    return Matrix(n, n, tuple(data))


def adjacency_columns(g: Graph, color: int | None = None) -> list:
    """Column-sparse adjacency operator built from the edge list, with the
    multiplicities of `adjacency_matrix`. One walk over the sorted edges
    fills column j in increasing row order: the edges (i, j) with i < j, the
    loop, then (j, k) with k > j. A pair carrying both colors meets its
    columns twice in a row, and the second meeting adds 1 to the entry."""
    cols = [[] for _ in range(g.vertex_count)]

    def add(col: list, row: int) -> None:
        if col and col[-1][0] == row:
            col[-1] = (row, col[-1][1] + 1)
        else:
            col.append((row, 1))

    for i, j, c in g.colored_edges:
        if color in (None, c):
            add(cols[j], i)
            if i != j:
                add(cols[i], j)
    return cols


def _vertex(g: Graph, at: int | None) -> int:
    """`at`, or the root if None; a vertex outside the graph is refused."""
    if at is None:
        return g.root
    if not 0 <= at < g.vertex_count:
        raise ValueError("vertex out of range")
    return at


def _walk_step(adj: list, vec: dict) -> dict:
    """One step on positive walk counts: each goes to each listed neighbor."""
    out: dict = {}
    get = out.get
    for u, x in vec.items():
        for t in adj[u]:
            out[t] = get(t, 0) + x
    return out


def _walk_moments(g: Graph, order: int, at, colors: tuple) -> MomentSeries:
    """<delta_at, Z^n delta_at>, n = 0..order, where a step Z walks one edge
    of each color in `colors` in turn (None: any color). It walks half the
    chain: v_k = Z^k delta, w_k = (Z^T)^k delta, M_2k = <w_k, v_k>, M_2k+1 =
    <w_k, v_k+1>; Z^T walks the colors in reverse, so w is v for a
    palindrome. `linalg.sparse_moments` walks the plain chain, so the two
    kernels share no identity. Only the current vectors are held."""
    at = _vertex(g, at)
    if order < 0:
        raise ValueError("moment order must be at least 0")
    steps = [_neighbor_lists(g, c) for c in colors]
    back = None if colors == colors[::-1] else steps[::-1]
    v = w = {at: 1}
    out = [1]
    for n in range(1, order + 1):
        if n % 2:
            for adj in steps:
                v = _walk_step(adj, v)
        elif back is None:
            w = v
        else:
            for adj in back:
                w = _walk_step(adj, w)
        at_w = v.values() if w is v else map(v.get, w, repeat(0))
        out.append(sum(map(mul, at_w, w.values())))
    return MomentSeries(tuple(out))


def root_moments(g: Graph, order: int, at: int | None = None) -> MomentSeries:
    """Closed-walk counts at a vertex: M_n = (a^n)[at][at] for n = 0..order."""
    return _walk_moments(g, order, at, (None,))


def two_step_moments(g: Graph, order: int, at: int | None = None) -> MomentSeries:
    """Moments <delta_at, Z^n delta_at> of the two-step operator
    Z = A2 * A1 built from the color-1 and color-2 adjacencies: each step
    applies A1, then A2."""
    return _walk_moments(g, order, at, (1, 2))


def _closed_walks(g: Graph, length: int, at, colors: tuple, first_return: bool):
    """The numbers of closed walks at `at` of each length 0..length, whose
    k-th edge (k = 0, 1, ...) has color colors[k % len(colors)], a color of
    None allowing every edge. With `first_return`, walks that revisit `at`
    after an even, non-final number of steps are not counted.

    One forward pass: count[v] is the number of k-step walks from `at` to v,
    and step k sums it over the neighbor lists of its color. After each
    step count[at] is read, then zeroed at an even step under
    `first_return`, so a call costs O(length * edges).
    """
    at = _vertex(g, at)
    if length < 0:
        raise ValueError("walk length must be at least 0")
    steps = [_neighbor_lists(g, c) for c in colors]
    count = [int(v == at) for v in range(g.vertex_count)]
    out = [1]
    for k in range(length):
        count = [sum(map(count.__getitem__, nbrs)) for nbrs in steps[k % len(colors)]]
        out.append(count[at])
        if first_return and k % 2:  # after an even step, longer walks miss `at`
            count[at] = 0
    return out


def brute_force_closed_walks(
    g: Graph, length: int, at: int | None = None, alternating: bool = False
) -> int:
    """Closed walks of the given length at a vertex, counted by `_closed_walks`.

    With `alternating`, consecutive edges must differ in color and the first
    edge must have color 1, so a graph without color-2 edges has none of
    positive length.
    """
    colors = (1, 2) if alternating else (None,)
    return _closed_walks(g, length, at, colors, first_return=False)[length]


def count_d_walks(g: Graph, length: int, at: int | None = None) -> int:
    """First-return d-walks of even length, counted by `_closed_walks`.

    A d-walk is a closed walk with alternating edge colors originating with
    color 1 that does not revisit the base vertex at any intermediate even
    time; these are the first-return counts of the two-step operator built
    from the color-2 and color-1 adjacency matrices.
    """
    if length % 2 != 0 or length < 2:
        raise ValueError("d-walk length must be a positive even number")
    return _closed_walks(g, length, at, (1, 2), first_return=True)[length]
