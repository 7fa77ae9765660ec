"""Seeded input generation for the ccomb benchmark.

A workload's pass is a list of ops; an op is the argv of one
``ccomb.cli.main`` call plus the files it reads. The inputs are drawn here
from ``random.Random`` seeded by the workload and the benchmark seed only,
never through ``ccomb.verify``'s random helpers, so a change to the verify
suite cannot change what the benchmark feeds the program. Every op of a pass
gets its own inputs, so no op can reuse what an earlier op computed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

SERIES_KINDS = ("monotone", "boolean", "orthogonal", "c-monotone")
PRODUCT_KINDS = (
    "star",
    "comb",
    "orthogonal",
    "comb-at",
    "c-comb",
    "comb-loop",
    "c-comb-loop",
)


@dataclass(frozen=True)
class Op:
    """One CLI call: `argv` holds `{dir}` where the pass directory goes."""

    name: str
    argv: tuple
    files: dict = field(default_factory=dict)
    expect_vertices: int | None = None


@dataclass(frozen=True)
class Graph:
    vertices: int
    edges: tuple
    root: int
    second_root: int

    def text(self) -> str:
        return (
            f"vertices = {self.vertices}\n"
            f"root = {self.root}\n"
            f"second_root = {self.second_root}\n"
            f"edges = {json.dumps([list(e) for e in self.edges])}\n"
        )


def sparse_graph(rng: random.Random, n: int, extra: int, loops: int) -> Graph:
    """Connected birooted graph: a random recursive tree on n vertices plus
    `extra` chords and `loops` loops. Connectivity gives both roots nonzero
    degree for n >= 2, so walk counts at either root grow with length."""
    if extra > (n - 1) * (n - 2) // 2:
        raise ValueError(f"{n} vertices have room for fewer than {extra} chords")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    for v in rng.sample(range(n), loops):
        edges.add((v, v))
    return Graph(n, tuple(sorted(edges)), rng.randrange(n), rng.randrange(n))


def small_graph(rng: random.Random, n: int) -> Graph:
    return sparse_graph(rng, n, extra=2, loops=1)


# Numerators coprime to each denominator, so every value keeps its denominator.
_NUMERATORS = {1: (-2, -1, 1, 2), 2: (-1, 1), 3: (-2, -1, 1, 2)}


def moment_table(rng: random.Random, order: int) -> str:
    """CSV moment table M_0 = 1, M_k = p/q with q = 1, 2, 3 in turn and p a
    random nonzero numerator, |p| <= 2, coprime to q. M_1 is nonzero, so the
    eta-series of every table starts with a nonzero coefficient."""
    rows = ["n,value", "0,1"]
    for k in range(1, order + 1):
        q = 1 + (k - 1) % 3
        rows.append(f"{k},{Fraction(rng.choice(_NUMERATORS[q]), q)}")
    return "\n".join(rows) + "\n"


# -- workloads ---------------------------------------------------------------


def _verify_pass(rng: random.Random) -> list:
    seed = rng.randrange(10**6)
    return [Op("verify-all", ("verify", "all", "--seed", str(seed)))]


def _scale_graph(rng: random.Random, n: int) -> Graph:
    return sparse_graph(rng, n, extra=n // 4, loops=n // 8)


def product_vertices(kind: str, n1: int, n2: int) -> int:
    """Vertex count of a product of factors with n1 and n2 vertices."""
    if kind == "star":
        return n1 + n2 - 1
    if kind == "orthogonal":
        return (n1 - 1) * n2 + 1
    if kind in ("c-comb", "c-comb-loop"):
        return 2 * n1 * n2
    return n1 * n2  # comb, comb-at, comb-loop


def _graph_pair_op(rng, name, n, argv_head, argv_tail=(), expect_vertices=None):
    g1, g2 = _scale_graph(rng, n), _scale_graph(rng, n)
    files = {f"{name}-g1.graph": g1.text(), f"{name}-g2.graph": g2.text()}
    return Op(
        name,
        (*argv_head, *(f"{{dir}}/{f}" for f in files), *argv_tail),
        files,
        expect_vertices,
    )


# Factor sizes per op kind; a pass runs every entry once with fresh graphs.
GRAPH_SCALE_MIX = {
    "product": (24, 32, 40, 48),
    "convolve-additive": (32, 40, 48),
    "convolve-multiplicative": (12, 14),
    "word-moment": (8, 10, 12),
}
ADDITIVE_SCALE_ORDER = 24
WORD_MOMENT_WORD = "1:a 2:a 1:a 2:a 2:a 1:a"


def _graph_scale_pass(rng: random.Random) -> list:
    ops = []
    for kind in PRODUCT_KINDS:
        for n in GRAPH_SCALE_MIX["product"]:
            ops.append(
                _graph_pair_op(
                    rng, f"product-{kind}-{n}", n, ("product", kind),
                    ("--out", f"{{dir}}/out-{kind}-{n}"),
                    product_vertices(kind, n, n),
                )
            )
    for kind in SERIES_KINDS:
        for n in GRAPH_SCALE_MIX["convolve-additive"]:
            ops.append(
                _graph_pair_op(
                    rng, f"additive-{kind}-{n}", n, ("convolve", "additive", kind),
                    ("--order", str(ADDITIVE_SCALE_ORDER)),
                )
            )
    for n in GRAPH_SCALE_MIX["convolve-multiplicative"]:
        for kind in ("monotone", "c-monotone"):
            ops.append(
                _graph_pair_op(
                    rng, f"multiplicative-{kind}-{n}", n,
                    ("convolve", "multiplicative", kind), ("--order", "8"),
                )
            )
    for n in GRAPH_SCALE_MIX["word-moment"]:
        ops.append(
            _graph_pair_op(
                rng, f"word-moment-{n}", n, ("word-moment",), (WORD_MOMENT_WORD,)
            )
        )
    return ops


WORKLOADS = {
    "verify-default": _verify_pass,
    "graph-scale": _graph_scale_pass,
}


def make_pass(workload: str, seed: int) -> list:
    """The ops of a pass; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


def write_pass(ops: list, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        for fname, text in op.files.items():
            (directory / fname).write_text(text, encoding="utf-8")


def argv_for(op: Op, directory: Path) -> list:
    return [a.replace("{dir}", str(directory)) for a in op.argv]
