"""Seeded verification suites for the products, transforms and independence
modules.

Each check runs one invariant across a batch of fixture and randomized
inputs and reports a single pass/fail line. A check compares through
`_same(got, expected, witness, *args)`, which formats its witness only on a
mismatch, and returns its detail line; `_check` turns it into a `Check` and
alone decides PASS or FAIL, with no assert (so `python -O` agrees). One
rule names a failing case: each case runs inside `_case(label)`, which puts
the label in front of a mismatch's witness and turns any other exception
into `{label}: error: {exc!r}`, so no witness repeats its case index. The
random-case identities go through `_sampled` (label `sample {k}`), which
owns the sample loop and the draws; the graph-pair identities go through
`_pairwise` (label `pair {k}`), which compares each route of a pair (walks,
operator, series, formula, d-walks, enumerated) with the first and names
both, `pair {k}: {first} vs {route} differ at n={n}`, n the coefficient's
own index (M_n from 0, eta N(n) from 1); the other checks loop over cases
of their own (`model {k}`, `family {k}`, `deep case {k}`, ...). All
randomness flows from the seed in the config, so a given config yields
byte-identical reports; each check that draws cases has a stream of its own,
seeded by the config seed and the check's name, so no other check's draws
move its cases.
"""

from __future__ import annotations

import contextlib
import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import fixtures
from .graphs import (
    adjacency_columns,
    birooted,
    brute_force_closed_walks,
    count_d_walks,
    root_moments,
    rooted,
    two_step_moments,
)
from .independence import (
    ORACLE_KINDS,
    AlgebraModel,
    HalfWordPlan,
    ModelFunctional,
    WordPlan,
    all_words,
    realize_cmonotone_family,
    realize_cmonotone_pair,
    realize_pair,
    two_state_pairs,
)
from .linalg import Matrix, sparse_moments, sparse_sum
from .products import (
    ADDITIVE_WALK_PRODUCTS,
    c_comb_decomposition,
    c_comb_loop_decomposition,
    c_comb_loop_product,
    c_comb_product,
    comb_at_collapse_map,
    comb_at_product,
    comb_loop_product,
    comb_product,
    essential_decomposition,
    essential_loop_decomposition,
    essential_loop_product,
    orthogonal_product,
    realize_graph_pair,
    relabel_isomorphic,
    star_product,
    superposition_map,
)
from .series import (
    ADDITIVE_KINDS,
    MULTIPLICATIVE_KINDS,
    MomentSeries,
    additive_convolve,
    coefficient_formula,
    eta_from_moments,
    eta_series,
    moments_from_eta,
    moment_series,
    moments_to_F,
    F_to_moments,
    compose_F,
    multiplicative_convolve,
    point_mass_moments,
)

__all__ = [
    "VerifyConfig",
    "Check",
    "additive_pairs",
    "multiplicative_pairs",
    "products_suite",
    "transforms_suite",
    "independence_suite",
    "run_suite",
    "format_report",
    "random_rooted_graph",
    "model_pairs",
    "family_models",
    "random_birooted_graph",
    "random_model",
    "random_moment_series",
    "random_eta_series",
]


MULT_ORDER = 8  # eta order of the multiplicative product checks
WITNESS_ORDER = 4  # lowest order at which both commutation witnesses separate
WALK_ORDER = 12  # longest d-walk the d-walk check counts
FAMILY_WORD = 6  # word length of the family checks
DEEP_WALK_ORDER = 12  # walk length of the deep cases of the walk cross-oracle
ALL_ORDERS_WORD = 7  # word length of the local-maximum choice check
PAIR_LETTERS = ((1, "a"), (2, "a"))  # one element in each of two algebras


@dataclass(frozen=True)
class VerifyConfig:
    order: int = 12
    max_word: int = 8
    graph_samples: int = 20
    model_samples: int = 50
    seed: int = 0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


class _Mismatch(Exception):
    """Two sides of a check differ; the message is the FAIL witness."""


def _same(got, expected, witness: str = "", *args) -> None:
    """Raise `_Mismatch` unless the sides are equal; only then is the witness
    text `witness.format(*args)` built."""
    if got != expected:
        raise _Mismatch(witness.format(*args))


def _same_lists(words, sides: dict, witness: str) -> None:
    """`_same` on whole lists, `sides` mapping a side to (got, expected) by word;
    on a difference the first witness is `witness.format(word, side)`."""
    if any(got != expected for got, expected in sides.values()):
        for n, w in enumerate(words):
            for side, (got, expected) in sides.items():
                _same(got[n], expected[n], witness, w, side)


@contextlib.contextmanager
def _case(label: str):
    """Name the case a failure hits, the one place a case is named: a
    `_Mismatch` raised inside gets `label` in front of its witness, any other
    exception becomes the witness `{label}: error: {exc!r}`."""
    try:
        yield
    except _Mismatch as exc:
        raise _Mismatch(f"{label}{exc}") from None
    except Exception as exc:
        raise _Mismatch(f"{label}: error: {exc!r}") from None


def _check(name: str):
    """Decorator turning a function that returns its detail line into a
    check, the one place a verdict is made: a `_Mismatch` becomes FAIL with
    its witness, any other exception FAIL with `error: ...`."""

    def decorate(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs) -> Check:
            try:
                detail = fn(*args, **kwargs)
            except _Mismatch as exc:
                return Check(name, False, str(exc))
            except Exception as exc:  # report, never crash the suite
                return Check(name, False, f"error: {exc!r}")
            return Check(name, True, detail or "")

        check.check_name = name
        return check

    return decorate


def _sampled(
    name: str, *samplers, detail="{samples} samples, order {order}", after=None
):
    """Decorator turning `body(order, *drawn)`, which compares one random
    case, into `check(rng, samples, order=None)`. Case k draws from each
    sampler, `sampler(rng, order)`, in turn, as `_case(f"sample {k}")`. Once
    every case agrees, `after(order)` makes fixed comparisons."""

    def decorate(body):
        @_check(name)
        @functools.wraps(body)
        def check(rng, samples: int, order=None):
            for k in range(samples):
                with _case(f"sample {k}"):
                    body(order, *[draw(rng, order) for draw in samplers])
            if after is not None:
                after(order)
            return detail.format(samples=samples, order=order)

        return check

    return decorate


def _pairwise(name: str, detail="{pairs} pairs, order {order}", start=0):
    """Decorator turning `routes(g1, g2, order)`, one pair's sequences by
    route name, into `check(pairs, order)`, pair k as `_case(f"pair {k}")`;
    the first coefficient has index `start`. The pairs are counted as they
    run: `pairs` may be a generator. `check.routes` is the route function
    itself, so a caller can print what the check compares."""

    def decorate(routes):
        @_check(name)
        @functools.wraps(routes)
        def check(pairs, order=None):
            count = 0
            for k, (g1, g2) in enumerate(pairs):
                with _case(f"pair {k}"):
                    (first, expect), *others = routes(g1, g2, order).items()
                    for route, got in others:
                        for n, (a, b) in enumerate(zip_longest(got, expect), start):
                            _same(a, b, ": {} vs {} differ at n={}", first, route, n)
                count += 1
            return detail.format(pairs=count, order=order)

        check.routes = routes
        return check

    return decorate


def _drawing(cfg: VerifyConfig, check, *args) -> Check:
    """Run a check that draws its cases on a stream of its own, seeded by the
    config seed and the check's name: no other check's draws move them."""
    return check(random.Random(f"{cfg.seed}:{check.check_name}"), *args)


# -- randomized inputs ----------------------------------------------------------


def random_rooted_graph(rng, min_vertices=1, max_vertices=6, edge_p=0.45, loop_p=0.3):
    n = rng.randint(min_vertices, max_vertices)
    edges = set()
    for i in range(n):
        if rng.random() < loop_p:
            edges.add((i, i))
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                edges.add((i, j))
    return rooted(n, edges, rng.randrange(n))


def random_birooted_graph(
    rng, min_vertices=1, max_vertices=6, edge_p=0.45, loop_p=0.3, root_loop_p=0.0
):
    g = random_rooted_graph(rng, min_vertices, max_vertices, edge_p, loop_p)
    second = rng.randrange(g.vertex_count)
    edges = set(g.edges)
    for r in (g.root, second):
        if rng.random() < root_loop_p:
            edges.add((r, r))
    return birooted(g.vertex_count, edges, g.root, second)


def random_model(rng, dim=None, names=("a",), two_state=False, use_fractions=False):
    dim = dim or rng.randint(2, 3)
    elements = {}
    for name in names:
        if use_fractions:
            entries = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
                for _ in range(dim)
            ]
        else:
            entries = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        elements[name] = Matrix.from_rows(entries)
    xi = rng.randrange(dim)
    eta = None
    if two_state:
        eta = xi if (dim == 1 or rng.random() < 0.15) else rng.choice(
            [k for k in range(dim) if k != xi]
        )
    return AlgebraModel(elements, xi, eta)


def random_moment_series(rng, order):
    coeffs = [1] + [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)
    ]
    return moment_series(coeffs)


def random_eta_series(rng, order):
    return eta_series(
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)]
    )


def additive_pairs(cfg: VerifyConfig):
    """Demo pair plus seeded random birooted pairs of at most 6 vertices."""
    rng = random.Random(cfg.seed)
    return [fixtures.additive_demo_pair()] + [
        (random_birooted_graph(rng, 1, 6), random_birooted_graph(rng, 1, 6))
        for _ in range(cfg.graph_samples)
    ]


def multiplicative_pairs(cfg: VerifyConfig):
    """Demo pair plus seeded random birooted pairs of at most 4 vertices
    each, with loops biased onto the roots and the second factor never
    concentrated at zero at its second root."""
    rng = random.Random(cfg.seed + 1)
    pairs = [fixtures.multiplicative_demo_pair()]
    while len(pairs) < cfg.graph_samples + 1:
        g1 = random_birooted_graph(rng, 1, 4, edge_p=0.5, loop_p=0.3, root_loop_p=0.7)
        g2 = random_birooted_graph(rng, 2, 4, edge_p=0.5, loop_p=0.3, root_loop_p=0.7)
        nu2 = root_moments(g2, MULT_ORDER, at=g2.second_root)
        if all(x == 0 for x in nu2.coeffs[1:]):
            continue
        pairs.append((g1, g2))
    return pairs


# -- products suite -------------------------------------------------------------


def _walks_and_operator(g1, g2, order: int, at: str, loops=False) -> dict:
    """The walk route on the c-comb (loop) product and the operator route of its
    decomposition from the factor adjacencies, at `at` "e" or "f"; eta with `loops`."""
    build = c_comb_loop_product if loops else c_comb_product
    decompose = c_comb_loop_decomposition if loops else c_comb_decomposition
    graph, dec = build(g1, g2).graph, decompose(g1, g2)
    root = graph.root if at == "e" else graph.second_root
    index = dec.phi_index if at == "e" else dec.psi_index
    steps = (dec.cols1, dec.cols2) if loops else (dec.total_columns(),)
    walks = (two_step_moments if loops else root_moments)(graph, order, at=root)
    operator = MomentSeries(sparse_moments(steps, order, index))
    if loops:
        walks, operator = eta_from_moments(walks), eta_from_moments(operator)
    return {"walks": walks.coeffs, "operator": operator.coeffs}


@_pairwise("additive-three-route")
def check_additive_three_route(g1, g2, order: int):
    mu1 = root_moments(g1, order)
    mu2 = root_moments(g2, order)
    nu2 = root_moments(g2, order, at=g2.second_root)
    series = additive_convolve("c-monotone", mu1, mu2, nu2)
    return {**_walks_and_operator(g1, g2, order, "e"), "series": series.coeffs}


@_pairwise("additive-second-root-split")
def check_second_root_split(g1, g2, order: int):
    nu1 = root_moments(g1, order, at=g1.second_root)
    nu2 = root_moments(g2, order, at=g2.second_root)
    series = additive_convolve("monotone", nu1, nu2)
    return {**_walks_and_operator(g1, g2, order, "f"), "series": series.coeffs}


@_sampled(
    "vertex-count-formulas",
    lambda rng, order: random_rooted_graph(rng, 1, 6),
    lambda rng, order: random_birooted_graph(rng, 1, 6),
    detail="{samples} samples",
)
def check_vertex_count_formulas(order, g1, g2):
    n1, n2 = g1.vertex_count, g2.vertex_count
    _same(star_product(g1, g2).vertex_count, n1 + n2 - 1, ": star")
    _same(comb_product(g1, g2).vertex_count, n1 * n2, ": comb")
    _same(orthogonal_product(g1, g2).vertex_count, (n1 - 1) * n2 + 1, ": orthogonal")
    _same(comb_at_product(g1, g2).vertex_count, (n1 - 1) * n2 + n2, ": comb-at")
    added = sum(
        1
        for i, j, c in comb_loop_product(g1, g2).graph.colored_edges
        if i == j and c == 1 and (i % n2) != g2.root
    )
    _same(added, n1 * (n2 - 1), ": comb-loop")


@_check("superposition-isomorphism")
def check_superposition(rng, samples: int):
    cases = [fixtures.additive_demo_pair()]
    cases += [
        (random_rooted_graph(rng, 1, 5), random_rooted_graph(rng, 1, 5))
        for _ in range(samples)
    ]
    for k, (g1, g2) in enumerate(cases):
        with _case(f"case {k}"):
            orth = orthogonal_product(g1, g2)
            so = star_product(orth.graph, g2)
            cmb = comb_product(g1, g2)
            mapping = superposition_map(g1, g2)
            isomorphic = relabel_isomorphic(so.graph, cmb.graph, mapping)
            _same(isomorphic, True, ": superposition map is not an isomorphism")
    return f"{len(cases)} cases"


@_sampled(
    "comb-at-root-collapse",
    lambda rng, order: random_rooted_graph(rng, 1, 5),
    lambda rng, order: random_rooted_graph(rng, 1, 5),
    detail="{samples} cases",
)
def check_comb_at_collapse(order, g1, g2r):
    g2 = birooted(g2r.vertex_count, g2r.edges, g2r.root, g2r.root)
    prod, cmb = comb_at_product(g1, g2), comb_product(g1, g2r)
    mapping = comb_at_collapse_map(g1, g2)
    witness = ": comb-at with equal roots is not the comb product"
    _same(relabel_isomorphic(prod.graph, cmb.graph, mapping), True, witness)


@_check("decomposition-restriction-equality")
def check_restriction_equalities(pairs):
    cases = (  # color None compares the restricted sum
        ("comb-at", essential_decomposition, comb_at_product, (None,)),
        ("c-comb", c_comb_decomposition, c_comb_product, (None,)),
        ("loop", essential_loop_decomposition, essential_loop_product, (1, 2)),
        ("c-comb loop", c_comb_loop_decomposition, c_comb_loop_product, (1, 2)),
    )
    for k, (g1, g2) in enumerate(pairs):
        for label, decompose, build, colors in cases:
            with _case(f"pair {k}"):
                dec, prod = decompose(g1, g2), build(g1, g2)
                for c in colors:
                    which = label if c is None else f"{label} color-{c}"
                    expect = adjacency_columns(prod.graph, c)
                    witness = ": {} restriction differs"
                    _same(dec.restricted(prod, c), expect, witness, which)
    return f"{len(pairs)} pairs, entrywise"


@_check("walk-count-cross-oracle")
def check_walk_cross_oracle(rng, samples: int):
    tiny1 = rooted(2, [(0, 1), (0, 0)], 0)
    tiny2 = birooted(2, [(0, 1), (1, 1)], 0, 1)
    deep_products = [
        star_product(tiny1, tiny2).graph,
        comb_product(tiny1, tiny2).graph,
        orthogonal_product(tiny1, tiny2).graph,
        comb_at_product(tiny1, tiny2).graph,
        c_comb_product(birooted(2, tiny1.edges, 0, 1), tiny2).graph,
        comb_loop_product(tiny1, tiny2).graph,
        essential_loop_product(tiny1, tiny2).graph,
        c_comb_loop_product(birooted(2, tiny1.edges, 0, 1), tiny2).graph,
    ]
    for i, g in enumerate(deep_products):
        with _case(f"deep case {i}"):
            moments = root_moments(g, DEEP_WALK_ORDER).coeffs
            for n in (DEEP_WALK_ORDER - 1, DEEP_WALK_ORDER):
                walks = brute_force_closed_walks(g, n)
                _same(moments[n], walks, ": walk count mismatch at length {}", n)
    for k in range(samples):
        with _case(f"sample {k}"):
            g1 = random_rooted_graph(rng, 1, 3)
            g2 = random_birooted_graph(rng, 1, 3)
            g = comb_at_product(g1, g2).graph
            moments = root_moments(g, 8).coeffs
            for n in range(9):
                walks = brute_force_closed_walks(g, n)
                _same(moments[n], walks, ": walk count mismatch at length {}", n)
    return f"{len(deep_products)} deep cases to order {DEEP_WALK_ORDER}, {samples} samples to order 8"


@_pairwise("colored-adjacency-split", detail="{pairs} pairs", start=1)
def check_colored_split(g1, g2, _order):
    g = c_comb_loop_product(g1, g2).graph
    split = sparse_sum(adjacency_columns(g, 1), adjacency_columns(g, 2))
    _same(adjacency_columns(g), split, ": color split does not sum")
    walks = [brute_force_closed_walks(g, 2 * n, alternating=True) for n in range(1, 5)]
    return {"walks": two_step_moments(g, 4).coeffs[1:], "enumerated": walks}


@_sampled(
    "comb-loop-added-loops",
    lambda rng, order: random_rooted_graph(rng, 1, 5, loop_p=0),
    lambda rng, order: random_rooted_graph(rng, 1, 5, loop_p=0),
    detail="{samples} loop-free cases",
)
def check_comb_loop_loops(order, g1, g2):
    prod = comb_loop_product(g1, g2)
    added = sum(1 for i, j, c in prod.graph.colored_edges if i == j and c == 1)
    expect = g1.vertex_count * (g2.vertex_count - 1)
    _same(added, expect, ": {} loops, expected {}", added, expect)


@_pairwise("multiplicative-eta-three-route", start=1)
def check_multiplicative_three_route(g1, g2, order: int):
    eta1 = eta_from_moments(root_moments(g1, order))
    eta2 = eta_from_moments(root_moments(g2, order))
    eta_nu = eta_from_moments(root_moments(g2, order, at=g2.second_root))
    etas = eta1.coeffs, eta2.coeffs, eta_nu.coeffs
    series = multiplicative_convolve("c-monotone", eta1, eta2, eta_nu).coeffs
    formula = [coefficient_formula("c-monotone", n, *etas) for n in range(1, order + 1)]
    routes = _walks_and_operator(g1, g2, order, "e", loops=True)
    return {**routes, "series": series, "formula": formula}


@_pairwise("multiplicative-second-root-monotone", start=1)
def check_multiplicative_second_root(g1, g2, order: int):
    nu1 = eta_from_moments(root_moments(g1, order, at=g1.second_root))
    eta_nu = eta_from_moments(root_moments(g2, order, at=g2.second_root))
    series = multiplicative_convolve("monotone", nu1, eta_nu).coeffs
    return {**_walks_and_operator(g1, g2, order, "f", loops=True), "series": series}


@_pairwise(
    "d-walk-first-return-counts", detail="{pairs} pairs, lengths up to {order}", start=1
)
def check_d_walk_counts(g1, g2, walk_order: int):
    half = walk_order // 2
    graph = c_comb_loop_product(g1, g2).graph
    eta1 = eta_from_moments(root_moments(g1, half))
    eta2 = eta_from_moments(root_moments(g2, half))
    eta_nu = eta_from_moments(root_moments(g2, half, at=g2.second_root))
    series = multiplicative_convolve("c-monotone", eta1, eta2, eta_nu).coeffs
    d_walks = [count_d_walks(graph, 2 * n) for n in range(1, half + 1)]
    return {"d-walks": d_walks, "series": series}


def products_suite(cfg: VerifyConfig) -> list:
    pairs = additive_pairs(cfg)
    mpairs = multiplicative_pairs(cfg)
    few = min(cfg.graph_samples, 12)
    return [
        check_additive_three_route(pairs, cfg.order),
        check_second_root_split(pairs, cfg.order),
        _drawing(cfg, check_vertex_count_formulas, cfg.graph_samples),
        _drawing(cfg, check_superposition, few),
        _drawing(cfg, check_comb_at_collapse, few),
        check_restriction_equalities(pairs),
        _drawing(cfg, check_walk_cross_oracle, min(cfg.graph_samples, 6)),
        check_colored_split(mpairs[:6]),
        _drawing(cfg, check_comb_loop_loops, few),
        check_multiplicative_three_route(mpairs, MULT_ORDER),
        check_multiplicative_second_root(mpairs, MULT_ORDER),
        check_d_walk_counts(mpairs, WALK_ORDER),
    ]


# -- transforms suite -----------------------------------------------------------


def _random_F(rng, order):
    return moments_to_F(random_moment_series(rng, order))


def _edge_F(order):
    edge_F = moments_to_F(moment_series((1, 0, 1, 0, 1))).coeffs
    _same(edge_F, (0, -1, 0, 0), "F-series of the edge moments 1, 0, 1, 0, 1")


@_sampled("moments-F-roundtrip", random_moment_series, after=_edge_F)
def check_F_roundtrip(order, m):
    _same(F_to_moments(moments_to_F(m)).coeffs, m.coeffs, ": F roundtrip failed")


def _point_mass_eta(order):
    eta_one = eta_from_moments(point_mass_moments(1, order))
    _same(eta_one.coeffs, (1,) + (0,) * (order - 1), "point mass at 1")


@_sampled("psi-eta-roundtrip", random_moment_series, after=_point_mass_eta)
def check_psi_eta_roundtrip(order, m):
    back = moments_from_eta(eta_from_moments(m))
    _same(back.coeffs, m.coeffs, ": moments-eta-moments roundtrip")


def _identity_is_z(order):
    ident = moments_to_F(point_mass_moments(0, order))
    _same(ident.coeffs, (0,) * order, "identity F-series is z")


@_sampled(
    "compose-identity", _random_F, detail="{samples} samples", after=_identity_is_z
)
def check_compose_identity(order, f):
    ident = moments_to_F(point_mass_moments(0, order))
    _same(compose_F(f, ident).coeffs, f.coeffs, ": right identity")
    _same(compose_F(ident, f).coeffs, f.coeffs, ": left identity")


@_sampled("compose-associativity", _random_F, _random_F, _random_F)
def check_compose_associativity(order, f1, f2, f3):
    left = compose_F(compose_F(f1, f2), f3)
    right = compose_F(f1, compose_F(f2, f3))
    _same(left.coeffs, right.coeffs, ": associativity")


@_sampled("additive-collapse-laws", random_moment_series, random_moment_series)
def check_additive_collapses(order, mu1, mu2):
    collapsed = additive_convolve("c-monotone", mu1, mu2, mu2)
    monotone = additive_convolve("monotone", mu1, mu2)
    _same(collapsed.coeffs, monotone.coeffs, ": nu = mu collapse")
    delta0 = point_mass_moments(0, order)
    for kind in ADDITIVE_KINDS:
        got = additive_convolve(kind, mu1, delta0, delta0).coeffs
        _same(got, mu1.coeffs, ": {} with point mass at 0", kind)


@_sampled(
    "boolean-additive-commutative",
    random_moment_series,
    random_moment_series,
    detail="{samples} samples",
)
def check_boolean_commutative(order, mu1, mu2):
    ab = additive_convolve("boolean", mu1, mu2)
    ba = additive_convolve("boolean", mu2, mu1)
    _same(ab.coeffs, ba.coeffs)


@_check("additive-noncommutative-witnesses")
def check_noncommutative_witnesses(order: int):
    order = max(order, WITNESS_ORDER)
    edge = moment_series(tuple((n + 1) % 2 for n in range(order + 1)))
    loop = point_mass_moments(1, order)
    ab = additive_convolve("monotone", edge, loop)
    ba = additive_convolve("monotone", loop, edge)
    _same(ab.coeffs == ba.coeffs, False, "monotone additive unexpectedly commuted")
    g1, g2 = fixtures.additive_demo_pair()
    mu1 = root_moments(g1, order)
    nu1 = root_moments(g1, order, at=g1.second_root)
    mu2 = root_moments(g2, order)
    nu2 = root_moments(g2, order, at=g2.second_root)
    fwd = additive_convolve("c-monotone", mu1, mu2, nu2)
    rev = additive_convolve("c-monotone", mu2, mu1, nu1)
    _same(fwd.coeffs == rev.coeffs, False, "c-monotone additive unexpectedly commuted")
    return "monotone and c-monotone witnesses verified"


@_sampled("multiplicative-delta1-orthogonal", random_eta_series, random_eta_series)
def check_mult_delta1(order, eta1, eta_nu):
    delta1 = eta_from_moments(point_mass_moments(1, order))
    left = multiplicative_convolve("c-monotone", eta1, delta1, eta_nu)
    right = multiplicative_convolve("orthogonal", eta1, eta_nu)
    _same(left.coeffs, right.coeffs)


@_sampled(
    "multiplicative-nu-equals-mu-monotone", random_eta_series, random_eta_series
)
def check_mult_nu_eq_mu(order, eta1, eta2):
    left = multiplicative_convolve("c-monotone", eta1, eta2, eta2)
    right = multiplicative_convolve("monotone", eta1, eta2)
    _same(left.coeffs, right.coeffs)


@_sampled(
    "multiplicative-boolean-orthogonal-decomposition",
    random_eta_series,
    random_eta_series,
    random_eta_series,
)
def check_mult_decomposition(order, eta1, eta2, eta_nu):
    direct = multiplicative_convolve("c-monotone", eta1, eta2, eta_nu)
    orth = multiplicative_convolve("orthogonal", eta1, eta_nu)
    boxed = multiplicative_convolve("boolean", orth, eta2)
    _same(direct.coeffs, boxed.coeffs)


@_sampled(
    "multiplicative-identity-element", random_eta_series, detail="{samples} samples"
)
def check_mult_identity(order, h):
    z = eta_from_moments(point_mass_moments(1, order))
    right = multiplicative_convolve("monotone", h, z)
    _same(right.coeffs, h.coeffs, ": right identity")
    left = multiplicative_convolve("monotone", z, h)
    _same(left.coeffs, h.coeffs, ": left identity")


@_sampled(
    "coefficient-formula-engine-equality",
    random_eta_series,
    random_eta_series,
    random_eta_series,
    detail="{samples} samples, n up to {order}",
)
def check_coefficient_formula_engine(order, eta1, eta2, eta_nu):
    engines = {
        kind: multiplicative_convolve(kind, eta1, eta2, eta_nu)
        for kind in MULTIPLICATIVE_KINDS
    }
    for kind, engine in engines.items():
        for n in range(1, order + 1):
            val = coefficient_formula(kind, n, eta1.coeffs, eta2.coeffs, eta_nu.coeffs)
            _same(val, engine.coeffs[n - 1], ", {}, n={}", kind, n)
    mono = tuple(
        coefficient_formula("c-monotone", n, eta1.coeffs, eta2.coeffs, eta2.coeffs)
        for n in range(1, order + 1)
    )
    _same(mono, engines["monotone"].coeffs, ": substitution")


@_sampled(
    "additive-graph-consistency",
    lambda rng, order: random_rooted_graph(rng, 1, 4),
    lambda rng, order: random_birooted_graph(rng, 1, 4),
)
def check_additive_graph_consistency(order, g1, g2):
    mu1 = root_moments(g1, order)
    mu2 = root_moments(g2, order)
    nu2 = root_moments(g2, order, at=g2.second_root)
    for kind, build in ADDITIVE_WALK_PRODUCTS.items():
        expect = additive_convolve(kind, mu1, mu2, nu2)
        got = root_moments(build(g1, g2).graph, order).coeffs
        _same(got, expect.coeffs, ": {} graph consistency", kind)


def transforms_suite(cfg: VerifyConfig) -> list:
    order = min(cfg.order, 12)
    low = min(order, 10)
    n_random = 20
    graphs = min(cfg.graph_samples, 10)
    return [
        _drawing(cfg, check_F_roundtrip, n_random, order),
        _drawing(cfg, check_psi_eta_roundtrip, n_random, order),
        _drawing(cfg, check_compose_identity, 10, low),
        _drawing(cfg, check_compose_associativity, 10, low),
        _drawing(cfg, check_additive_collapses, n_random, low),
        _drawing(cfg, check_boolean_commutative, n_random, order),
        check_noncommutative_witnesses(order),
        _drawing(cfg, check_mult_delta1, n_random, 10),
        _drawing(cfg, check_mult_nu_eq_mu, n_random, 10),
        _drawing(cfg, check_mult_decomposition, n_random, 10),
        _drawing(cfg, check_mult_identity, 10, 10),
        _drawing(cfg, check_coefficient_formula_engine, 8, 10),
        _drawing(cfg, check_additive_graph_consistency, graphs, low),
    ]


# -- independence suite ---------------------------------------------------------


def _same_as_cmonotone(realizations: dict, words, halves, expected):
    """Compare each realization's phi and psi moments of `words`, `halves`
    their HalfWordPlan, with the expected (phi, psi) of each word;
    `realizations` maps a witness prefix to a realization."""
    sides = {
        tag + state: (r.evaluator(state).moments(halves), [e[n] for e in expected])
        for tag, r in realizations.items()
        for n, state in enumerate(("phi", "psi"))
    }
    _same_lists(words, sides, ", word {0}: {1}")


def model_pairs(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 4)
    return [
        (
            random_model(rng, two_state=True, use_fractions=k < 5),
            random_model(rng, two_state=True, use_fractions=k < 5),
        )
        for k in range(cfg.model_samples)
    ]


@_check("pair-kind-oracle-equality")
def check_pair_kinds(model_pairs, max_word: int):
    words = all_words(PAIR_LETTERS, max_word)
    plan, halves = WordPlan(words), HalfWordPlan(words)
    for k, (m1, m2) in enumerate(model_pairs):
        with _case(f"model {k}"):
            fns = {j: ModelFunctional(m, m.xi) for j, m in ((1, m1), (2, m2))}
            sides = {}
            for kind in ORACLE_KINDS:
                got = realize_pair(kind, m1, m2).evaluator("phi").moments(halves)
                sides[kind] = (got, plan.moments(kind, fns))
            _same_lists(words, sides, ", word {0}: {1}")
    return f"{len(model_pairs)} models x 4 kinds, words to length {max_word}"


@_check("single-letter-state-restriction")
def check_single_letter_states(model_pairs):
    for k, (m1, m2) in enumerate(model_pairs):
        with _case(f"model {k}"):
            for kind in ORACLE_KINDS:
                r = realize_pair(kind, m1, m2)
                first = m1.vector_state(("a",), m1.xi)
                _same(r.moment([(1, "a")]), first, ": {} first marginal", kind)
                # the orthogonal state kills the second algebra outright
                second = 0 if kind == "orthogonal" else m2.vector_state(("a",), m2.xi)
                _same(r.moment([(2, "a")]), second, ": {} second marginal", kind)
            r = realize_cmonotone_pair(m1, m2)
            for j, m in ((1, m1), (2, m2)):
                for state, at in (("phi", m.xi), ("psi", m.eta)):
                    got, want = r.moment([(j, "a")], state), m.vector_state(("a",), at)
                    _same(got, want, ": c-monotone {} of algebra {}", state, j)
    return f"{len(model_pairs)} models"


@_check("cmonotone-pair-oracle-equality")
def check_cmonotone_pair(model_pairs, max_word: int):
    words = all_words(PAIR_LETTERS, max_word)
    plan, halves = WordPlan(words), HalfWordPlan(words)
    for k, (m1, m2) in enumerate(model_pairs):
        with _case(f"model {k}"):
            realizations = {
                "": realize_cmonotone_pair(m1, m2),
                "variant ": realize_cmonotone_pair(m1, m2, variant=True),
            }
            expected = plan.cmonotone(two_state_pairs({1: m1, 2: m2}))
            _same_as_cmonotone(realizations, words, halves, expected)
    return f"{len(model_pairs)} models, words to length {max_word}, with variant"


@_check("family-pair-consistency")
def check_family_pair_consistency(model_pairs, word_len: int):
    words = all_words(PAIR_LETTERS, word_len)
    halves = HalfWordPlan(words)
    subset = model_pairs[:15]
    for k, (m1, m2) in enumerate(subset):
        with _case(f"model {k}"):
            fam = realize_cmonotone_family({1: m1, 2: m2})
            # the family at keys 1, 2 is the plain pair; the variant pair is a
            # different construction of the same moments
            pair = realize_cmonotone_pair(m1, m2, variant=True)
            states = (pair.evaluator(s).moments(halves) for s in ("phi", "psi"))
            rows = list(zip(*states, strict=True))
            _same_as_cmonotone({"": fam}, words, halves, rows)
    return f"{len(subset)} models, words to length {word_len}"


def family_models(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 5)
    out = []
    for k in range(cfg.model_samples):
        dims = [2, 2, 2]
        if k % 10 == 0:
            dims[rng.randrange(3)] = 3
        out.append(
            {
                n: random_model(rng, dim=d, two_state=True, use_fractions=(k < 3))
                for n, d in enumerate(dims)
            }
        )
    return out


@_check("family-three-oracle-equality")
def check_family_three(family_models, word_len: int):
    words = all_words(((0, "a"), (1, "a"), (2, "a")), word_len)
    plan, halves = WordPlan(words), HalfWordPlan(words)
    for k, models in enumerate(family_models):
        with _case(f"family {k}"):
            fam = realize_cmonotone_family(models)
            expected = plan.cmonotone(two_state_pairs(models))
            _same_as_cmonotone({"": fam}, words, halves, expected)
    return f"{len(family_models)} families of 3, words to length {word_len}"


@_check("local-maximum-choice-independence")
def check_local_max_choice(model_pairs):
    words = all_words(PAIR_LETTERS, ALL_ORDERS_WORD)
    plan, subset = WordPlan(words), model_pairs[:10]
    for k, (m1, m2) in enumerate(subset):
        with _case(f"model {k}"):
            pairs = two_state_pairs({1: m1, 2: m2})
            for w, vals in zip(words, plan.all_orders(pairs), strict=True):
                _same(len(vals), 1, ", word {}: {} values", w, len(vals))
    return f"{len(subset)} models, all reduction orders to length {ALL_ORDERS_WORD}"


@_check("psi-equals-phi-monotone-collapse")
def check_psi_equals_phi_collapse(model_pairs, max_word: int):
    words = all_words(PAIR_LETTERS, min(max_word, 7))
    plan = WordPlan(words)
    subset = model_pairs[:15]
    for k, (m1, m2) in enumerate(subset):
        with _case(f"model {k}"):
            fns = {j: ModelFunctional(m, m.xi) for j, m in ((1, m1), (2, m2))}
            degenerate = {1: (fns[1], fns[1]), 2: (fns[2], fns[2])}
            got, mono = plan.cmonotone(degenerate), plan.moments("monotone", fns)
            sides = {
                s: ([p[n] for p in got], mono) for n, s in enumerate(("phi", "psi"))
            }
            _same_lists(words, sides, ", word {0}: {1}")
    return f"{len(subset)} models, words to length {min(max_word, 7)}"


@_check("separating-projection-splits-moments")
def check_separating_projection(model_pairs):
    flanks = all_words(((0, "a"), (1, "a")), 3)
    splits = [(w1, w2) for w1 in flanks for w2 in flanks]
    halves = HalfWordPlan(flanks + [w1 + ("P",) + w2 for w1, w2 in splits])
    subset = model_pairs[:10]
    for k, (m1, m2) in enumerate(subset):
        with _case(f"model {k}"):
            fam = realize_cmonotone_family({0: m1, 1: m2})
            fam.operators["P"] = fam.separating_projection()
            moments = fam.evaluator("phi").moments(halves)
            flank = dict(zip(flanks, moments[: len(flanks)], strict=True))
            for (w1, w2), lhs in zip(splits, moments[len(flanks) :], strict=True):
                _same(lhs, flank[w1] * flank[w2], ", words {}|{}", w1, w2)
    return f"{len(subset)} models, flank words to length 3"


def _graph_bridge(cfg: VerifyConfig, max_word: int, loops: bool) -> str:
    """The two bridge checks: the c-comb decomposition of each graph pair
    (its loop pair with `loops`) against the c-monotone oracle of the factor
    adjacencies (see products.realize_graph_pair)."""
    decompose = c_comb_loop_decomposition if loops else c_comb_decomposition
    demo = fixtures.multiplicative_demo_pair if loops else fixtures.additive_demo_pair
    rng = random.Random(cfg.seed + 6)
    cases = [demo()] + [
        (random_birooted_graph(rng, 1, 4), random_birooted_graph(rng, 1, 4))
        for _ in range(min(cfg.graph_samples, 8))
    ]
    words = all_words(PAIR_LETTERS, max_word)
    plan, halves = WordPlan(words), HalfWordPlan(words)
    for k, (g1, g2) in enumerate(cases):
        with _case(f"pair {k}"):
            realization, pairs = realize_graph_pair(decompose(g1, g2), g1, g2)
            expected = plan.cmonotone(pairs)
            _same_as_cmonotone({"": realization}, words, halves, expected)
    return f"{len(cases)} graph pairs, words to length {max_word}"


@_check("c-comb-state-pair-bridge")
def check_c_comb_bridge(cfg: VerifyConfig, max_word: int):
    return _graph_bridge(cfg, max_word, False)


@_check("loop-pair-bridge")
def check_loop_bridge(cfg: VerifyConfig, max_word: int):
    return _graph_bridge(cfg, max_word, True)


def independence_suite(cfg: VerifyConfig) -> list:
    pairs = model_pairs(cfg)
    families = family_models(cfg)
    return [
        check_pair_kinds(pairs, cfg.max_word),
        check_single_letter_states(pairs),
        check_cmonotone_pair(pairs, cfg.max_word),
        check_family_pair_consistency(pairs, FAMILY_WORD),
        check_family_three(families, FAMILY_WORD),
        check_local_max_choice(pairs),
        check_psi_equals_phi_collapse(pairs, cfg.max_word),
        check_separating_projection(pairs),
        check_c_comb_bridge(cfg, cfg.max_word),
        check_loop_bridge(cfg, cfg.max_word),
    ]


SUITES = {
    "products": products_suite,
    "transforms": transforms_suite,
    "independence": independence_suite,
}


def run_suite(name: str, cfg: VerifyConfig) -> list:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else (name,)
    return [
        Check(f"{suite}/{c.name}", c.passed, c.detail)
        for suite in names
        for c in SUITES[suite](cfg)
    ]


def format_report(checks, cfg: VerifyConfig) -> str:
    lines = [
        f"CHECK {c.name} {'PASS' if c.passed else 'FAIL'}"
        + (f" {c.detail}" if c.detail else "")
        for c in checks
    ]
    passed = sum(1 for c in checks if c.passed)
    lines.append(
        f"SUMMARY total={len(checks)} pass={passed} "
        f"fail={len(checks) - passed} seed={cfg.seed}"
    )
    return "\n".join(lines) + "\n"
