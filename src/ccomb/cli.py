"""Command-line front door.

    ccomb product KIND G1 G2 [--out DIR]
    ccomb moments GRAPH [--at e|f] [--order N] [--out FILE]
    ccomb convolve FAMILY KIND INPUT... [--order N] [--out FILE]
    ccomb word-moment G1 G2 WORD [--out FILE]
    ccomb verify SUITE [--seed S] [--order N] [--max-word W]
                       [--graphs K] [--models M] [--out FILE]

Product kinds: star, comb, orthogonal, comb-at, c-comb, comb-loop,
c-comb-loop. Convolve families: additive and multiplicative; kinds:
monotone, boolean, orthogonal, c-monotone. An input whose path ends in
`.graph` is a graph file (see the io module for the format); any other is
read as a moment CSV table starting at n = 0 (the multiplicative family
converts them to eta-series), so a graph file under another name exits 2.
Every kind takes two inputs. The c-monotone kinds read nu2 at the second
root of the second input, and take a third input for nu2 exactly when the
second is not a birooted graph; any other count exits 2. When inputs are
graphs, the table carries the matching product-graph walk column with an
equality flag for every additive kind and for the multiplicative monotone
and c-monotone kinds, except that a c-monotone column needs nu2 from the
second graph and a multiplicative one a first graph with no color-2 edges.
A multiplicative divisor concentrated at zero (`DivisorVanishes`) exits 3.

`word-moment` takes two birooted graph files and a word in index:name
syntax such as `1:a 2:a 1:a` (index 1 letters act as the first operator of
the c-comb decomposition, index 2 as the second; the single element of each
algebra is named `a`). It prints the realized mixed moment at both roots
next to the defining-recursion oracle values.

Outputs are deterministic: the same config and seed give byte-identical
files. Default output directory is $CCOMB_OUT, falling back to the current
directory. Exit code is 0 only if every requested check passes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import io as gio
from .graphs import root_moments, two_step_moments
from .independence import oracle_cmonotone, parse_word
from .products import (
    ADDITIVE_WALK_PRODUCTS,
    MULTIPLICATIVE_WALK_PRODUCTS,
    PRODUCT_KINDS,
    c_comb_decomposition,
    realize_graph_pair,
)
from .series import (
    ADDITIVE_KINDS,
    DivisorVanishes,
    additive_convolve,
    eta_from_moments,
    moment_series,
    multiplicative_convolve,
)
from .verify import VerifyConfig, format_report, run_suite

# size caps, refused before any work: a series kernel allocates order + 1
# coefficients per list, `all_words` builds 2^(W+1) - 2 words for a word cap
# W, and the sample lists hold one entry per sample
MAX_ORDER = 1024
MAX_WORD = 16
MAX_SAMPLES = 10_000
# `word-moment` builds n1*n2*(n2 + 1) ambient coordinates, n1*n2*nnz(a2)
# nonzeros in its second operator and the dense n1^2 + n2^2 cells of the
# factor adjacencies; memory follows their sum
MAX_WORD_MOMENT_BUILD = 1_000_000
# the oracle of an n-letter word compiles O(n^2) subwords, each a tuple copy,
# so its time grows about as n^3: 0.35 s at 256 letters, 77 s at 1,600
MAX_WORD_LETTERS = 256


def _out_dir(arg) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get("CCOMB_OUT", "."))


class _CliError(Exception):
    """Input problem reported as a clean exit code 2."""


def _load_graph_or_fail(path):
    try:
        return gio.load_graph(path)
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot read graph {path}: {exc}") from exc


def _write_or_print(text: str, out):
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_product(args) -> int:
    build = PRODUCT_KINDS[args.kind]
    g1 = _load_graph_or_fail(args.g1)
    g2 = _load_graph_or_fail(args.g2)
    prod = _build_product(build, g1, g2)
    outdir = _out_dir(args.out)
    stem = args.kind.replace("-", "_")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        gio.save_graph(outdir / f"{stem}.graph", prod.graph, prod.vertex_labels)
        (outdir / f"{stem}.dot").write_text(
            gio.to_dot(prod.graph, prod.vertex_labels), encoding="utf-8"
        )
    except OSError as exc:
        raise _CliError(f"cannot write to {outdir}: {exc}") from exc
    edges = len(prod.graph.colored_edges)
    print(f"kind={args.kind} vertices={prod.vertex_count} edges={edges}")
    print(f"root_e={prod.graph.root} label_e={prod.vertex_labels[prod.graph.root]}")
    second = prod.graph.second_root
    if second is not None:
        print(f"root_f={second} label_f={prod.vertex_labels[second]}")
    print(f"wrote {outdir / (stem + '.graph')} and {outdir / (stem + '.dot')}")
    return 0


def _cmd_moments(args) -> int:
    g = _load_graph_or_fail(args.graph)
    if args.at == "f":
        if g.second_root is None:
            raise _CliError("selector f needs a birooted graph")
        at = g.second_root
    else:
        at = g.root
    moments = root_moments(g, args.order, at=at)
    _write_or_print(_table_text(moments.coeffs, 0), args.out)
    return 0


def _table_text(values, first: int, walks=None) -> str:
    """io.format_moment_table's text; an exact value too long to print exits 2."""
    try:
        return gio.format_moment_table(values, first, walks)
    except ValueError as exc:  # past the int-to-str digit limit
        raise _CliError(f"cannot print an exact value: {exc}") from exc


def _load_additive_input(path, order, nu=False):
    """(graph or None, mu, nu); nu, at a second root, is read only if asked."""
    if str(path).endswith(".graph"):
        g = _load_graph_or_fail(path)
        mu = root_moments(g, order)
        if nu and g.second_root is not None:
            return g, mu, root_moments(g, order, at=g.second_root)
        return g, mu, None
    try:
        values = gio.load_moment_table(path)
        mu = moment_series(values[: order + 1])
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot read table {path}: {exc}") from exc
    if len(values) < order + 1:
        raise _CliError(f"table {path} is shorter than order {order}")
    return None, mu, None


def _build_product(build, g1, g2):
    try:
        return build(g1, g2)
    except ValueError as exc:
        raise _CliError(f"cannot build the product: {exc}") from exc


def _walk_column(products, kind, g1, g2):
    """Product graph whose root moments give the walk column, or None when
    an input is a table (g2 is None also when nu2 came from a third input).
    The product is built even where the caller then drops the column, so
    factors it cannot glue exit 2."""
    if g1 is None or g2 is None or kind not in products:
        return None
    return _build_product(products[kind], g1, g2).graph


def _cmd_convolve(args) -> int:
    order, kind, paths = args.order, args.kind, args.inputs
    g1, mu1, _ = _load_additive_input(paths[0], order)
    g2, mu2, nu2 = None, None, None
    if len(paths) > 1:
        g2, mu2, nu2 = _load_additive_input(paths[1], order, kind == "c-monotone")
    want = 3 if kind == "c-monotone" and nu2 is None else 2
    if len(paths) != want:
        allowed = "2 inputs"
        if kind == "c-monotone":
            allowed += ", or 3 with nu2 when the second is not a birooted graph"
        raise _CliError(f"convolve {kind} takes {allowed}, got {len(paths)}")
    if want == 3:
        # a c-monotone walk column needs nu2 from the second graph
        g2, nu2 = None, _load_additive_input(paths[2], order)[1]
    try:
        if args.family == "additive":
            values = additive_convolve(kind, mu1, mu2, nu2).coeffs
            first = 0
            prod = _walk_column(ADDITIVE_WALK_PRODUCTS, kind, g1, g2)
            walks = None if prod is None else root_moments(prod, order).coeffs
        else:
            eta_nu = None if nu2 is None else eta_from_moments(nu2)
            values = multiplicative_convolve(
                kind, eta_from_moments(mu1), eta_from_moments(mu2), eta_nu
            ).coeffs
            first = 1
            prod = _walk_column(MULTIPLICATIVE_WALK_PRODUCTS, kind, g1, g2)
            # a first graph with color-2 edges keeps them in its loop
            # product, so the two-step operator no longer realizes the
            # convolution
            walks = None
            if prod is not None and not g1.monochrome_edges(2):
                walks = eta_from_moments(two_step_moments(prod, order)).coeffs
    except DivisorVanishes as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_or_print(_table_text(values, first, walks), args.out)
    return 0


def _cmd_word_moment(args) -> int:
    g1 = _load_graph_or_fail(args.g1)
    g2 = _load_graph_or_fail(args.g2)
    if g1.second_root is None or g2.second_root is None:
        raise _CliError("word moments need two birooted graphs")
    n1, n2 = g1.vertex_count, g2.vertex_count
    nnz2 = sum(1 if i == j else 2 for i, j in g2.edges)
    build = n1 * n2 * (n2 + 1 + nnz2) + n1 * n1 + n2 * n2
    if build > MAX_WORD_MOMENT_BUILD:
        raise _CliError(
            f"word moments would build {build} entries,"
            f" more than {MAX_WORD_MOMENT_BUILD}"
        )
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if len(word) > MAX_WORD_LETTERS:
        raise _CliError(
            f"the word has {len(word)} letters, more than {MAX_WORD_LETTERS}"
        )
    if any(j not in (1, 2) or name != "a" for j, name in word):
        raise _CliError("letters must be 1:a or 2:a (one element per algebra)")
    realization, pairs = realize_graph_pair(c_comb_decomposition(g1, g2), g1, g2)
    phi_oracle, psi_oracle = oracle_cmonotone(word, pairs)
    rows = ["state,realized,oracle,equal"]
    for state, oracle in (("phi", phi_oracle), ("psi", psi_oracle)):
        realized = realization.moment(word, state)
        rows.append(
            f"{state},{realized},{oracle},{'yes' if realized == oracle else 'no'}"
        )
    _write_or_print("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = VerifyConfig(
        order=args.order,
        max_word=args.max_word,
        graph_samples=args.graphs,
        model_samples=args.models,
        seed=args.seed,
    )
    checks = run_suite(args.suite, cfg)
    report = format_report(checks, cfg)
    _write_or_print(report, args.out)
    if args.out:
        print(report.splitlines()[-1])
    return 0 if all(c.passed for c in checks) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    `main` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ccomb",
        description=(
            "Exact products of (bi)rooted graphs, walk counting, and the "
            "matching convolution transforms"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="build a product graph, emit .graph and .dot")
    p.add_argument("kind", choices=sorted(PRODUCT_KINDS))
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("moments", help="exact closed-walk moment table")
    p.add_argument("graph")
    p.add_argument("--at", choices=("e", "f"), default="e")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("convolve", help="convolve graphs or coefficient tables")
    p.add_argument("family", choices=("additive", "multiplicative"))
    p.add_argument("kind", choices=ADDITIVE_KINDS)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser(
        "word-moment", help="mixed word moment of a c-comb operator pair"
    )
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("word", help="index:name letters, e.g. '1:a 2:a 1:a'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_word_moment)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("products", "transforms", "independence", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--max-word", type=int, default=8)
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--models", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    order = getattr(args, "order", 1)
    max_word = getattr(args, "max_word", 1)
    samples = (getattr(args, "graphs", 0), getattr(args, "models", 0))
    try:
        if order < 1:
            raise _CliError("order must be at least 1")
        if order > MAX_ORDER:
            raise _CliError(f"order must be at most {MAX_ORDER}")
        if max_word < 1:
            raise _CliError("word cap must be positive")
        if max_word > MAX_WORD:
            raise _CliError(f"word cap must be at most {MAX_WORD}")
        if min(samples) < 0:
            raise _CliError("sample counts must not be negative")
        if max(samples) > MAX_SAMPLES:
            raise _CliError(f"sample counts must be at most {MAX_SAMPLES}")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
