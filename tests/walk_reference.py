"""A literal closed-walk enumerator: one DFS call per walk, kept as the
reference the forward-pass counters in `ccomb.graphs` are tested against.

`closed_walks(g, length, at, colors, first_return)` takes the arguments of
`graphs._closed_walks` and returns the one count for `length`, which is the
last entry of the list `_closed_walks` returns; its cost is exponential in
`length`. Its first-return rule counts the steps left, not the steps
taken, so it shares no indexing with the forward pass.
"""

from ccomb.graphs import Graph, _neighbor_lists


def closed_walks(g: Graph, length: int, at, colors: tuple, first_return: bool):
    """Exhaustive DFS count of closed walks of the given length at `at`
    whose k-th edge (k = 0, 1, ...) has color colors[k % len(colors)], a
    color of None allowing every edge. With `first_return`, walks that
    revisit `at` after an even, non-final number of steps are skipped.

    reach[p][k][v] says a k-step walk from v back to `at` exists when its
    first edge has color colors[p]; this pruning only skips subtrees that
    cannot close, it never changes the count.
    """
    if at is None:
        at = g.root
    if length == 0:
        return 1
    period = len(colors)
    nxt = [(p + 1) % period for p in range(period)]
    adj = [_neighbor_lists(g, c) for c in colors]
    n = g.vertex_count
    reach = [[[False] * n for _ in range(length + 1)] for _ in colors]
    for p in range(period):
        reach[p][0][at] = True
    for k in range(1, length + 1):
        for p in range(period):
            prev = reach[nxt[p]][k - 1]
            cur = reach[p][k]
            for v in range(n):
                cur[v] = any(prev[w] for w in adj[p][v])
    # skip[k]: with k steps left, the next step must not land on `at`
    skip = [
        first_return and (length - k + 1) % 2 == 0 and k > 1
        for k in range(length + 1)
    ]

    def go(v, p, k):
        if k == 1:
            return adj[p][v].count(at)
        if not reach[p][k][v]:
            return 0
        q = nxt[p]
        if skip[k]:
            return sum(go(w, q, k - 1) for w in adj[p][v] if w != at)
        return sum(go(w, q, k - 1) for w in adj[p][v])

    return go(at, 0, length)
