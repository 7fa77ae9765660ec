"""Plain-text graph files, DOT export and moment tables.

Graph file format (UTF-8, key = value lines, `#` starts a comment):

    vertices = 4
    root = 0
    second_root = 1          # optional; makes the graph birooted
    edges = [[0, 1], [1, 2], [1, 3]]
    labels = [[0, 1, 0], ...]   # optional product-coordinate metadata

Edge entries are `[i, j]` or `[i, j, color]` with color 1 or 2; an entry
`[i, j]` means `[i, j, 1]`, so both forms read into equal graphs. A file
mixing the two forms is rejected, as are duplicate edges (same pair and
color) and out-of-range indices. Writers always emit `[i, j, color]`, keys
in a fixed order and edges sorted, so output is deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .graphs import colored

__all__ = [
    "GraphFormatError",
    "parse_graph",
    "load_graph",
    "format_graph",
    "save_graph",
    "to_dot",
    "parse_moment_table",
    "load_moment_table",
]


class GraphFormatError(ValueError):
    """The graph file violates the documented schema."""


_KNOWN_KEYS = ("vertices", "root", "second_root", "edges", "labels")


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph(text: str):
    """Parse graph-file text; returns (graph, labels_or_None)."""
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise GraphFormatError(f"line {lineno}: expected key = value")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise GraphFormatError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise GraphFormatError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    for required in ("vertices", "root", "edges"):
        if required not in fields:
            raise GraphFormatError(f"missing required key {required!r}")
    try:
        n = int(fields["vertices"])
        root = int(fields["root"])
        second = int(fields["second_root"]) if "second_root" in fields else None
        raw_edges = json.loads(fields["edges"])
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"bad field value: {exc}") from exc
    labels = None
    if "labels" in fields:
        try:
            labels = tuple(tuple(x) for x in json.loads(fields["labels"]))
        except (TypeError, ValueError, RecursionError) as exc:
            raise GraphFormatError(f"bad labels value: {exc}") from exc
    if not isinstance(raw_edges, list) or not all(
        isinstance(e, list) and all(_is_index(x) for x in e) for e in raw_edges
    ):
        raise GraphFormatError("edges must be a list of lists of integers")
    if labels is not None and len(labels) != n:
        raise GraphFormatError("labels must list one entry per vertex")
    lengths = {len(e) for e in raw_edges}
    if lengths - {2, 3}:
        raise GraphFormatError("edge entries must be [i, j] or [i, j, color]")
    if lengths == {2, 3}:
        raise GraphFormatError("cannot mix colored and uncolored edges")
    edges = [(e[0], e[1], e[2] if len(e) == 3 else 1) for e in raw_edges]
    try:
        graph = colored(n, edges, root, second)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    return graph, labels


def load_graph(path):
    graph, _labels = parse_graph(Path(path).read_text(encoding="utf-8"))
    return graph


def format_graph(graph, labels=None) -> str:
    lines = [f"vertices = {graph.vertex_count}", f"root = {graph.root}"]
    if graph.second_root is not None:
        lines.append(f"second_root = {graph.second_root}")
    edges = [list(e) for e in sorted(graph.colored_edges)]
    lines.append(f"edges = {json.dumps(edges)}")
    if labels is not None:
        lines.append(f"labels = {json.dumps([list(lab) for lab in labels])}")
    return "\n".join(lines) + "\n"


def save_graph(path, graph, labels=None) -> None:
    Path(path).write_text(format_graph(graph, labels), encoding="utf-8")


def to_dot(graph, labels=None) -> str:
    """DOT rendering: the first root is a double circle, the second a
    square; color-1 edges are solid, color-2 edges dashed. Vertex order is
    deterministic."""
    second = graph.second_root
    out = ["graph G {", "  node [shape=circle];"]
    for v in range(graph.vertex_count):
        attrs = []
        if v == graph.root:
            attrs.append("shape=doublecircle")
        elif second is not None and v == second:
            attrs.append("shape=square")
        if labels is not None:
            text = ",".join(str(c) for c in labels[v])
            attrs.append(f'label="{v}:({text})"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(f"  {v}{suffix};")
    for i, j, c in sorted(graph.colored_edges):
        style = "solid" if c == 1 else "dashed"
        out.append(f"  {i} -- {j} [style={style}];")
    out.append("}")
    return "\n".join(out) + "\n"


def parse_moment_table(text: str) -> list:
    """Parse a CSV moment table; accepts the emitted `n,fraction,decimal`
    layout or plain `n,value` rows and returns the values M_0, M_1, ... in
    index order. The rows must cover n = 0, 1, ... without gaps."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.lower().startswith("n,"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"bad table row {line!r}")
        try:
            value = Fraction(parts[1])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in table row {line!r}") from None
        rows.append((int(parts[0]), value))
    rows.sort()
    if not rows:
        raise ValueError("empty moment table")
    if rows[0][0] != 0:
        raise ValueError(f"table rows must start at n = 0, not n = {rows[0][0]}")
    if [n for n, _ in rows] != list(range(len(rows))):
        raise ValueError("table rows must cover a contiguous index range")
    return [v for _, v in rows]


def load_moment_table(path) -> list:
    return parse_moment_table(Path(path).read_text(encoding="utf-8"))
