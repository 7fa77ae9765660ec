"""Finite rooted, birooted and edge-colored graphs with loops.

Graphs are non-oriented and simple per color (at most one edge per vertex
pair and color); loops are allowed and a loop contributes 1 to the diagonal
of the adjacency matrix. All values are immutable. Vertex identification
never mutates inputs; product constructions keep explicit label maps (see
the products module).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, sparse_moments
# graphs.sparse_apply stays bound: perfbench's tracer tests patch it here
from .linalg import sparse_apply  # noqa: F401
from .series import MomentSeries

__all__ = [
    "RootedGraph",
    "BirootedGraph",
    "ColoredGraph",
    "WalkCapExceeded",
    "rooted",
    "birooted",
    "colored",
    "adjacency_matrix",
    "adjacency_columns",
    "root_moments",
    "two_step_moments",
    "disjoint_union",
    "brute_force_closed_walks",
    "count_d_walks",
]

DEFAULT_WALK_CAP = 16


class WalkCapExceeded(Exception):
    """Requested walk length exceeds the exhaustive-enumeration cap."""


def _norm_pair(i: int, j: int) -> tuple:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class RootedGraph:
    vertex_count: int
    edges: frozenset  # of (i, j), i <= j; (i, i) is a loop
    root: int

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if not 0 <= self.root < self.vertex_count:
            raise ValueError("root out of range")
        for i, j in self.edges:
            if not (0 <= i <= j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) out of range or unnormalized")

    def rerooted(self, at: int) -> "RootedGraph":
        return RootedGraph(self.vertex_count, self.edges, at)


@dataclass(frozen=True)
class BirootedGraph:
    """A rooted graph with a second distinguished root; the two may coincide."""

    underlying: RootedGraph
    second_root: int

    def __post_init__(self):
        if not 0 <= self.second_root < self.underlying.vertex_count:
            raise ValueError("second root out of range")

    @property
    def vertex_count(self) -> int:
        return self.underlying.vertex_count

    @property
    def edges(self) -> frozenset:
        return self.underlying.edges

    @property
    def root(self) -> int:
        return self.underlying.root

    def at_first(self) -> RootedGraph:
        return self.underlying

    def at_second(self) -> RootedGraph:
        return self.underlying.rerooted(self.second_root)


@dataclass(frozen=True)
class ColoredGraph:
    """Graph whose edges carry color 1 or 2; a pair may carry one edge of
    each color but never two of the same color."""

    vertex_count: int
    colored_edges: frozenset  # of (i, j, color), i <= j
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
        for i, j, c in self.colored_edges:
            if c not in (1, 2):
                raise ValueError(f"edge color must be 1 or 2, got {c}")
            if not (0 <= i <= j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) out of range or unnormalized")

    def monochrome_edges(self, color: int) -> frozenset:
        return frozenset((i, j) for i, j, c in self.colored_edges if c == color)


def rooted(vertex_count: int, edges, root: int) -> RootedGraph:
    """Normalizing constructor; rejects duplicate edges."""
    norm = [_norm_pair(i, j) for i, j in edges]
    if len(norm) != len(set(norm)):
        raise ValueError("duplicate edges")
    return RootedGraph(vertex_count, frozenset(norm), root)


def birooted(vertex_count: int, edges, first_root: int, second_root: int) -> BirootedGraph:
    return BirootedGraph(rooted(vertex_count, edges, first_root), second_root)


def colored(vertex_count: int, edges, root: int, second_root: int | None = None) -> ColoredGraph:
    """Normalizing constructor for colored graphs; edges are (i, j, color)."""
    norm = [(_norm_pair(i, j) + (c,)) for i, j, c in edges]
    if len(norm) != len(set(norm)):
        raise ValueError("duplicate edges (same pair and color)")
    return ColoredGraph(vertex_count, frozenset(norm), root, second_root)


def _edge_set(g):
    if isinstance(g, ColoredGraph):
        raise TypeError("use monochrome_edges for colored graphs")
    return g.edges


def adjacency_matrix(g, color: int | None = None) -> Matrix:
    """Symmetric adjacency matrix; a loop contributes 1 to its diagonal.

    For a colored graph without a color argument the per-color matrices are
    summed, so doubly-colored pairs and loops contribute 2.
    """
    n = g.vertex_count
    if isinstance(g, ColoredGraph):
        if color is None:
            return adjacency_matrix(g, 1) + adjacency_matrix(g, 2)
        edges = g.monochrome_edges(color)
    else:
        if color is not None:
            raise ValueError("color requested on an uncolored graph")
        edges = _edge_set(g)
    data = [0] * (n * n)
    for i, j in edges:
        data[i * n + j] += 1
        if i != j:
            data[j * n + i] += 1
    return Matrix(n, n, tuple(data))


def adjacency_columns(g, color: int | None = None) -> list:
    """Column-sparse adjacency operator built from the edge list, with the
    multiplicities of `adjacency_matrix`: a loop adds 1 per color, and with
    no color argument a pair carrying both colors counts 2."""
    if isinstance(g, ColoredGraph):
        pairs = [(i, j) for i, j, c in g.colored_edges if color in (None, c)]
    elif color is not None:
        raise ValueError("color requested on an uncolored graph")
    else:
        pairs = g.edges
    cols = [{} for _ in range(g.vertex_count)]
    for i, j in pairs:
        cols[j][i] = cols[j].get(i, 0) + 1
        if i != j:
            cols[i][j] = cols[i].get(j, 0) + 1
    return [sorted(col.items()) for col in cols]


def root_moments(g, order: int, at: int | None = None) -> MomentSeries:
    """Closed-walk counts at a vertex: M_n = (a^n)[at][at] for n = 0..order."""
    if at is None:
        at = g.root
    if not 0 <= at < g.vertex_count:
        raise ValueError("vertex out of range")
    return MomentSeries(sparse_moments((adjacency_columns(g),), order, at))


def two_step_moments(
    g: ColoredGraph, order: int, at: int | None = None
) -> MomentSeries:
    """Moments <delta_at, Z^n delta_at> of the two-step operator
    Z = A2 * A1 built from the color-1 and color-2 adjacencies: each step
    applies A1, then A2."""
    if at is None:
        at = g.root
    steps = (adjacency_columns(g, 1), adjacency_columns(g, 2))
    return MomentSeries(sparse_moments(steps, order, at))


def disjoint_union(g1: RootedGraph, g2: RootedGraph) -> BirootedGraph:
    """Disjoint union with vertex set V1 then V2; the result is birooted at
    (root of g1, shifted root of g2) and the argument order is significant."""
    n1 = g1.vertex_count
    edges = set(g1.edges)
    edges.update((i + n1, j + n1) for i, j in g2.edges)
    return birooted(n1 + g2.vertex_count, edges, g1.root, n1 + g2.root)


def _neighbor_lists(g, color: int | None):
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    if isinstance(g, ColoredGraph):
        edges = g.monochrome_edges(color) if color else {
            e[:2] for e in g.colored_edges
        }
        if color is None:
            # multigraph view: one entry per colored edge
            for i, j, _c in g.colored_edges:
                adj[i].append(j)
                if i != j:
                    adj[j].append(i)
            return adj
    else:
        edges = g.edges
    for i, j in edges:
        adj[i].append(j)
        if i != j:
            adj[j].append(i)
    return adj


def _reach_table(adj, target, length):
    """reach[k][v]: a walk of exactly k steps from v to target exists."""
    n = len(adj)
    reach = [[False] * n for _ in range(length + 1)]
    reach[0][target] = True
    for k in range(1, length + 1):
        prev = reach[k - 1]
        cur = reach[k]
        for v in range(n):
            cur[v] = any(prev[w] for w in adj[v])
    return reach


def _alternating_reach(adj1, adj2, target, length):
    """reach[c][k][v]: an alternating walk of k steps from v to target whose
    first edge has color c exists."""
    n = len(adj1)
    reach = {
        1: [[False] * n for _ in range(length + 1)],
        2: [[False] * n for _ in range(length + 1)],
    }
    reach[1][0][target] = True
    reach[2][0][target] = True
    for k in range(1, length + 1):
        for c, adj, other in ((1, adj1, 2), (2, adj2, 1)):
            prev = reach[other][k - 1]
            cur = reach[c][k]
            for v in range(n):
                cur[v] = any(prev[w] for w in adj[v])
    return reach


def brute_force_closed_walks(
    g,
    length: int,
    at: int | None = None,
    alternating: bool = False,
    cap: int = DEFAULT_WALK_CAP,
) -> int:
    """Exhaustive DFS count of closed walks of the given length at a vertex.

    With `alternating`, consecutive edges must differ in color and the first
    edge must have color 1; the graph must be colored. Reachability pruning
    only skips subtrees that cannot close, it never changes the count.
    """
    if length > cap:
        raise WalkCapExceeded(f"walk length {length} exceeds cap {cap}")
    if at is None:
        at = g.root
    if length == 0:
        return 1
    if alternating:
        if not isinstance(g, ColoredGraph):
            raise ValueError("alternating walks need a colored graph")
        adj1 = _neighbor_lists(g, 1)
        adj2 = _neighbor_lists(g, 2)
        reach = _alternating_reach(adj1, adj2, at, length)

        def go(v, color, k):
            if k == 0:
                return 1 if v == at else 0
            if not reach[color][k][v]:
                return 0
            adj = adj1 if color == 1 else adj2
            nxt = 2 if color == 1 else 1
            return sum(go(w, nxt, k - 1) for w in adj[v])

        return go(at, 1, length)

    adj = _neighbor_lists(g, None)
    reach = _reach_table(adj, at, length)

    def go(v, k):
        if k == 0:
            return 1 if v == at else 0
        if not reach[k][v]:
            return 0
        return sum(go(w, k - 1) for w in adj[v])

    return go(at, length)


def count_d_walks(
    g: ColoredGraph,
    length: int,
    at: int | None = None,
    cap: int = DEFAULT_WALK_CAP,
) -> int:
    """Exhaustive count of first-return d-walks of even length.

    A d-walk is a closed walk with alternating edge colors originating with
    color 1 that does not revisit the base vertex at any intermediate even
    time; these are the first-return counts of the two-step operator built
    from the color-2 and color-1 adjacency matrices.
    """
    if not isinstance(g, ColoredGraph):
        raise ValueError("d-walks need a colored graph")
    if length % 2 != 0 or length < 2:
        raise ValueError("d-walk length must be a positive even number")
    if length > cap:
        raise WalkCapExceeded(f"walk length {length} exceeds cap {cap}")
    if at is None:
        at = g.root
    adj1 = _neighbor_lists(g, 1)
    adj2 = _neighbor_lists(g, 2)
    reach = _alternating_reach(adj1, adj2, at, length)

    def go(v, color, k):
        if k == 0:
            return 1 if v == at else 0
        if not reach[color][k][v]:
            return 0
        adj = adj1 if color == 1 else adj2
        nxt = 2 if color == 1 else 1
        time_after = length - k + 1
        banned = time_after % 2 == 0 and time_after < length
        total = 0
        for w in adj[v]:
            if banned and w == at:
                continue
            total += go(w, nxt, k - 1)
        return total

    return go(at, 1, length)
