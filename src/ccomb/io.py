"""Plain-text graph files, DOT export and moment tables, read and written.

Graph file format (UTF-8, key = value lines, `#` starts a comment):

    vertices = 4
    root = 0
    second_root = 1          # optional; makes the graph birooted
    edges = [[0, 1], [1, 2], [1, 3]]
    labels = [[0, 1, 0], ...]   # optional product-coordinate metadata

Edge entries are `[i, j]` or `[i, j, color]` with color 1 or 2; an entry
`[i, j]` means `[i, j, 1]`, so both forms read into equal graphs. A file
mixing the two forms is rejected, as are duplicate edges (same pair and
color), out-of-range indices, labels that are not a list of lists and more
than graphs.MAX_VERTICES vertices, the cap the product builders keep too.
Writers always emit `[i, j, color]`, keys in a fixed order and edges in the
graph's sorted order, so output is deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .graphs import MAX_VERTICES, colored

__all__ = [
    "GraphFormatError",
    "parse_graph",
    "load_graph",
    "format_graph",
    "save_graph",
    "to_dot",
    "format_moment_table",
    "parse_moment_table",
    "load_moment_table",
]


class GraphFormatError(ValueError):
    """The graph file violates the documented schema."""


_KNOWN_KEYS = ("vertices", "root", "second_root", "edges", "labels")
MAX_EXPONENT = 4300  # a table value's largest decimal exponent: the digit limit


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
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertices = {n} exceeds the limit {MAX_VERTICES}")
    labels = None
    if "labels" in fields:
        try:
            labels = json.loads(fields["labels"])
        except (ValueError, RecursionError) as exc:
            raise GraphFormatError(f"bad labels value: {exc}") from exc
        if not isinstance(labels, list) or not all(isinstance(x, list) for x in labels):
            raise GraphFormatError("labels must be a list of lists")
        labels = tuple(map(tuple, labels))
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
    # the edges are sorted int triples, written as JSON lists without `json`;
    # the labels, of any arity and content, go through `json`
    edges = ", ".join([f"[{i}, {j}, {c}]" for i, j, c in graph.colored_edges])
    lines.append(f"edges = [{edges}]")
    if labels is not None:
        lines.append(f"labels = {json.dumps(labels)}")
    lines.append("")
    return "\n".join(lines)


def save_graph(path, graph, labels=None) -> None:
    Path(path).write_text(format_graph(graph, labels), encoding="utf-8")


_EDGE_STYLES = {1: " [style=solid];", 2: " [style=dashed];"}


def to_dot(graph, labels=None) -> str:
    """DOT rendering: the first root is a double circle, the second a
    square; color-1 edges are solid, color-2 edges dashed. Vertices come in
    index order and edges in the graph's sorted order."""
    shapes = {graph.second_root: "shape=square", graph.root: "shape=doublecircle"}
    if labels is None:
        vertices = [
            f"  {v} [{shapes[v]}];" if v in shapes else f"  {v};"
            for v in range(graph.vertex_count)
        ]
    else:
        # one `%` template per label length; a root's shape leads its label
        forms = {
            k: '  %%d [%%slabel="%%d:(%s)"];' % ",".join(["%s"] * k)
            for k in set(map(len, labels))
        }
        heads = {v: f"{shape}, " for v, shape in shapes.items()}
        vertices = [
            forms[len(lab)] % (v, heads.get(v, ""), v, *lab)
            for v, lab in enumerate(labels)
        ]
    edges = [f"  {i} -- {j}{_EDGE_STYLES[c]}" for i, j, c in graph.colored_edges]
    return "\n".join(["graph G {", "  node [shape=circle];", *vertices, *edges, "}\n"])


def format_moment_table(values, first_index: int = 0, walks=None) -> str:
    """The CSV text `n,fraction,decimal` of a coefficient table, plus
    `walk_count,equal` on each row k when `walks` is given. Exact values
    are never rounded away; the decimal is advisory, `inf` or `-inf` beyond
    the float range. A value past the int-to-str digit limit raises ValueError."""
    rows = ["n,fraction,decimal" + ("" if walks is None else ",walk_count,equal")]
    for k, v in enumerate(values):
        f = Fraction(v)
        try:
            decimal = repr(float(f))
        except OverflowError:
            decimal = "inf" if f > 0 else "-inf"
        rows.append(f"{first_index + k},{f},{decimal}")
    if walks is not None:
        rows[1:] = [
            f"{row},{w},{'yes' if v == w else 'no'}"
            for row, v, w in zip(rows[1:], values, walks, strict=True)
        ]
    return "\n".join(rows) + "\n"


def _table_value(text: str) -> Fraction:
    """One exact table value. An exponent beyond MAX_EXPONENT is refused
    before `Fraction` expands it into a power of ten."""
    exponent = text.lower().partition("e")[2].strip()
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    too_long = len(digits) > len(str(MAX_EXPONENT))
    if digits.isdecimal() and (too_long or int(digits) > MAX_EXPONENT):
        raise ValueError(f"exponent {exponent} exceeds {MAX_EXPONENT} in size")
    return Fraction(text)


def parse_moment_table(text: str) -> list:
    """Parse a CSV moment table; accepts the emitted `n,fraction,decimal`
    layout or plain `n,value` rows and returns the values M_0, M_1, ... in
    index order. The rows must cover n = 0, 1, ... without gaps, and a
    decimal exponent may not exceed MAX_EXPONENT in size."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.lower().startswith("n,"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"bad table row {line!r}")
        try:
            value = _table_value(parts[1])
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
