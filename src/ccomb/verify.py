"""Seeded verification suites for the products, transforms and independence
modules.

Each check runs one invariant across a batch of fixture and randomized
inputs and reports a single pass/fail line. A check is a plain function that
asserts and returns its detail line; the `_check` decorator turns it into a
`Check`, so checks never raise and failures are report content. All
randomness flows from the seed in the config, so a given config yields
byte-identical reports.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .graphs import (
    Graph,
    adjacency_columns,
    birooted,
    brute_force_closed_walks,
    count_d_walks,
    root_moments,
    rooted,
    two_step_moments,
)
from .independence import (
    AlgebraModel,
    ModelFunctional,
    all_words,
    oracle_cmonotone,
    oracle_cmonotone_all_orders,
    oracle_moment,
    realize_cmonotone_family,
    realize_cmonotone_pair,
    realize_graph_pair,
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
    relabel_isomorphic,
    star_product,
    superposition_map,
)
from .series import (
    additive_convolve,
    coefficient_formula,
    eta_from_moments,
    eta_series,
    moment_series,
    moments_to_F,
    F_to_moments,
    compose_F,
    multiplicative_convolve,
    point_mass_moments,
    psi_from_eta,
    psi_from_moments,
    eta_from_psi,
    moments_from_psi,
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
WALK_ORDER = 12  # longest d-walk counted exhaustively
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


def _check(name: str):
    """Decorator turning a function that returns its detail line into a
    check: an AssertionError becomes FAIL with its message, any other
    exception FAIL with `error: ...`."""

    def decorate(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs) -> Check:
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as exc:
                return Check(name, False, str(exc))
            except Exception as exc:  # report, never crash the suite
                return Check(name, False, f"error: {exc!r}")
            return Check(name, True, detail or "")

        return check

    return decorate


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
            entries = [
                [rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)
            ]
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
    pairs = [fixtures.additive_demo_pair()]
    for _ in range(cfg.graph_samples):
        pairs.append(
            (
                random_birooted_graph(rng, 1, 6),
                random_birooted_graph(rng, 1, 6),
            )
        )
    return pairs


def multiplicative_pairs(cfg: VerifyConfig):
    """Demo pair plus seeded random birooted pairs kept small enough for
    exhaustive d-walk counting, with loops biased onto the roots and the
    second factor never concentrated at zero at its second root."""
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


def _essential_three_routes(g1: Graph, g2: Graph, order: int):
    ess = comb_at_product(g1, g2)
    walk = root_moments(ess.graph, order).coeffs
    dec = essential_decomposition(g1, g2)
    operator = sparse_moments((dec.total_columns(),), order, dec.phi_index)
    mu1 = root_moments(g1, order)
    mu2 = root_moments(g2, order)
    nu2 = root_moments(g2, order, at=g2.second_root)
    transform = additive_convolve("c-monotone", mu1, mu2, nu2).coeffs
    return walk, operator, transform


@_check("additive-three-route")
def check_additive_three_route(pairs, order: int):
    for k, (g1, g2) in enumerate(pairs):
        walk, operator, transform = _essential_three_routes(g1, g2, order)
        assert walk == operator, f"pair {k}: walk vs operator moments differ"
        assert walk == transform, f"pair {k}: walk vs transform moments differ"
    return f"{len(pairs)} pairs, order {order}"


@_check("additive-second-root-split")
def check_second_root_split(pairs, order: int):
    for k, (g1, g2) in enumerate(pairs):
        prod = c_comb_product(g1, g2)
        at_f = root_moments(prod.graph, order, at=prod.graph.second_root).coeffs
        nu1 = root_moments(g1, order, at=g1.second_root)
        nu2 = root_moments(g2, order, at=g2.second_root)
        expect = additive_convolve("monotone", nu1, nu2).coeffs
        assert at_f == expect, f"pair {k}: second-root moments differ"
    return f"{len(pairs)} pairs, order {order}"


@_check("vertex-count-formulas")
def check_vertex_count_formulas(rng, samples: int):
    for k in range(samples):
        g1 = random_rooted_graph(rng, 1, 6)
        g2 = random_birooted_graph(rng, 1, 6)
        n1, n2 = g1.vertex_count, g2.vertex_count
        assert star_product(g1, g2).vertex_count == n1 + n2 - 1, f"star {k}"
        assert comb_product(g1, g2).vertex_count == n1 * n2, f"comb {k}"
        assert (
            orthogonal_product(g1, g2).vertex_count == (n1 - 1) * n2 + 1
        ), f"orthogonal {k}"
        assert (
            comb_at_product(g1, g2).vertex_count == (n1 - 1) * n2 + n2
        ), f"comb-at {k}"
        added = sum(
            1
            for i, j, c in comb_loop_product(g1, g2).graph.colored_edges
            if i == j and c == 1 and (i % n2) != g2.root
        )
        assert added == n1 * (n2 - 1), f"comb-loop {k}"
    return f"{samples} samples"


@_check("superposition-isomorphism")
def check_superposition(rng, samples: int):
    cases = [fixtures.additive_demo_pair()]
    cases += [
        (random_rooted_graph(rng, 1, 5), random_rooted_graph(rng, 1, 5))
        for _ in range(samples)
    ]
    for k, (g1, g2) in enumerate(cases):
        orth = orthogonal_product(g1, g2)
        so = star_product(orth.graph, g2)
        cmb = comb_product(g1, g2)
        mapping = superposition_map(g1, g2)
        assert relabel_isomorphic(
            so.graph, cmb.graph, mapping
        ), f"case {k}: superposition map is not an isomorphism"
    return f"{len(cases)} cases"


@_check("comb-at-root-collapse")
def check_comb_at_collapse(rng, samples: int):
    for k in range(samples):
        g1 = random_rooted_graph(rng, 1, 5)
        g2r = random_rooted_graph(rng, 1, 5)
        g2 = birooted(g2r.vertex_count, g2r.edges, g2r.root, g2r.root)
        prod = comb_at_product(g1, g2)
        cmb = comb_product(g1, g2r)
        mapping = comb_at_collapse_map(g1, g2)
        assert relabel_isomorphic(
            prod.graph, cmb.graph, mapping
        ), f"case {k}: comb-at with equal roots is not the comb product"
    return f"{samples} cases"


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
            dec, prod = decompose(g1, g2), build(g1, g2)
            for c in colors:
                which = label if c is None else f"{label} color-{c}"
                assert dec.restricted(c) == adjacency_columns(
                    prod.graph, c
                ), f"pair {k}: {which} restriction differs"
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
    for g in deep_products:
        moments = root_moments(g, DEEP_WALK_ORDER).coeffs
        for n in (DEEP_WALK_ORDER - 1, DEEP_WALK_ORDER):
            assert moments[n] == brute_force_closed_walks(
                g, n
            ), f"deep walk count mismatch at length {n}"
    for k in range(samples):
        g1 = random_rooted_graph(rng, 1, 3)
        g2 = random_birooted_graph(rng, 1, 3)
        g = comb_at_product(g1, g2).graph
        moments = root_moments(g, 8).coeffs
        for n in range(9):
            assert moments[n] == brute_force_closed_walks(
                g, n
            ), f"sample {k}: walk count mismatch at length {n}"
    return f"{len(deep_products)} deep cases to order {DEEP_WALK_ORDER}, {samples} samples to order 8"


@_check("colored-adjacency-split")
def check_colored_split(pairs):
    for k, (g1, g2) in enumerate(pairs):
        g = c_comb_loop_product(g1, g2).graph
        assert adjacency_columns(g) == sparse_sum(
            adjacency_columns(g, 1), adjacency_columns(g, 2)
        ), f"pair {k}: color split does not sum"
        z_moments = two_step_moments(g, 4).coeffs
        for n in range(1, 5):
            assert z_moments[n] == brute_force_closed_walks(
                g, 2 * n, alternating=True
            ), f"pair {k}: alternating walks differ at length {2 * n}"
    return f"{len(pairs)} pairs"


@_check("comb-loop-added-loops")
def check_comb_loop_loops(rng, samples: int):
    for k in range(samples):
        g1 = random_rooted_graph(rng, 1, 5, loop_p=0)
        g2 = random_rooted_graph(rng, 1, 5, loop_p=0)
        prod = comb_loop_product(g1, g2)
        added = sum(
            1 for i, j, c in prod.graph.colored_edges if i == j and c == 1
        )
        expect = g1.vertex_count * (g2.vertex_count - 1)
        assert added == expect, f"case {k}: {added} loops, expected {expect}"
    return f"{samples} loop-free cases"


def _eta_routes(g1: Graph, g2: Graph, order: int):
    prod = c_comb_loop_product(g1, g2)
    eta_e = eta_from_moments(two_step_moments(prod.graph, order))
    eta_f = eta_from_moments(
        two_step_moments(prod.graph, order, at=prod.graph.second_root)
    )
    eta1 = eta_from_moments(root_moments(g1, order))
    eta2 = eta_from_moments(root_moments(g2, order))
    eta_nu = eta_from_moments(root_moments(g2, order, at=g2.second_root))
    return prod, eta_e, eta_f, eta1, eta2, eta_nu


@_check("multiplicative-eta-three-route")
def check_multiplicative_three_route(pairs, order: int):
    for k, (g1, g2) in enumerate(pairs):
        _prod, eta_e, _eta_f, eta1, eta2, eta_nu = _eta_routes(g1, g2, order)
        engine = multiplicative_convolve("c-monotone", eta1, eta2, eta_nu)
        assert (
            eta_e.coeffs == engine.coeffs
        ), f"pair {k}: graph eta vs series engine differ"
        formula = tuple(
            coefficient_formula(
                "c-monotone", n, eta1.coeffs, eta2.coeffs, eta_nu.coeffs
            )
            for n in range(1, order + 1)
        )
        assert eta_e.coeffs == formula, f"pair {k}: graph eta vs coefficient sums"
    return f"{len(pairs)} pairs, order {order}"


@_check("multiplicative-second-root-monotone")
def check_multiplicative_second_root(pairs, order: int):
    for k, (g1, g2) in enumerate(pairs):
        _prod, _eta_e, eta_f, _e1, _e2, eta_nu = _eta_routes(g1, g2, order)
        nu1 = eta_from_moments(root_moments(g1, order, at=g1.second_root))
        expect = multiplicative_convolve("monotone", nu1, eta_nu)
        assert (
            eta_f.coeffs == expect.coeffs
        ), f"pair {k}: second-root eta differs from monotone convolution"
    return f"{len(pairs)} pairs, order {order}"


@_check("d-walk-first-return-counts")
def check_d_walk_counts(pairs, walk_order: int):
    half = walk_order // 2
    for k, (g1, g2) in enumerate(pairs):
        prod = c_comb_loop_product(g1, g2)
        eta_e = eta_from_moments(two_step_moments(prod.graph, half))
        for n in range(1, half + 1):
            counted = count_d_walks(prod.graph, 2 * n)
            assert counted == eta_e.coeffs[n - 1], (
                f"pair {k}: d-walk count {counted} vs first-return "
                f"coefficient {eta_e.coeffs[n - 1]} at length {2 * n}"
            )
    return f"{len(pairs)} pairs, lengths up to {walk_order}"


def products_suite(cfg: VerifyConfig) -> list:
    rng = random.Random(cfg.seed + 2)
    pairs = additive_pairs(cfg)
    mpairs = multiplicative_pairs(cfg)
    return [
        check_additive_three_route(pairs, cfg.order),
        check_second_root_split(pairs, cfg.order),
        check_vertex_count_formulas(rng, cfg.graph_samples),
        check_superposition(rng, min(cfg.graph_samples, 12)),
        check_comb_at_collapse(rng, min(cfg.graph_samples, 12)),
        check_restriction_equalities(pairs),
        check_walk_cross_oracle(rng, 6),
        check_colored_split(mpairs[:6]),
        check_comb_loop_loops(rng, min(cfg.graph_samples, 12)),
        check_multiplicative_three_route(mpairs, MULT_ORDER),
        check_multiplicative_second_root(mpairs, MULT_ORDER),
        check_d_walk_counts(mpairs, WALK_ORDER),
    ]


# -- transforms suite -----------------------------------------------------------


@_check("moments-F-roundtrip")
def check_F_roundtrip(rng, samples: int, order: int):
    for k in range(samples):
        m = random_moment_series(rng, order)
        assert (
            F_to_moments(moments_to_F(m)).coeffs == m.coeffs
        ), f"sample {k}: F roundtrip failed"
    edge = moment_series((1, 0, 1, 0, 1))
    assert moments_to_F(edge).coeffs == (0, -1, 0, 0)
    return f"{samples} samples, order {order}"


@_check("psi-eta-roundtrip")
def check_psi_eta_roundtrip(rng, samples: int, order: int):
    for k in range(samples):
        m = random_moment_series(rng, order)
        p = psi_from_moments(m)
        assert psi_from_eta(eta_from_psi(p)).coeffs == p.coeffs, f"sample {k}"
        assert moments_from_psi(p).coeffs == m.coeffs, f"sample {k}"
    ones = point_mass_moments(1, order)
    eta_one = eta_from_moments(ones)
    assert eta_one.coeffs == (1,) + (0,) * (order - 1), "point mass at 1"
    return f"{samples} samples, order {order}"


@_check("compose-identity")
def check_compose_identity(rng, samples: int, order: int):
    ident = moments_to_F(point_mass_moments(0, order))
    assert ident.coeffs == (0,) * order, "identity F-series is z"
    for k in range(samples):
        f = moments_to_F(random_moment_series(rng, order))
        assert compose_F(f, ident).coeffs == f.coeffs, f"sample {k}: right identity"
        assert compose_F(ident, f).coeffs == f.coeffs, f"sample {k}: left identity"
    return f"{samples} samples"


@_check("compose-associativity")
def check_compose_associativity(rng, samples: int, order: int):
    for k in range(samples):
        f1 = moments_to_F(random_moment_series(rng, order))
        f2 = moments_to_F(random_moment_series(rng, order))
        f3 = moments_to_F(random_moment_series(rng, order))
        left = compose_F(compose_F(f1, f2), f3)
        right = compose_F(f1, compose_F(f2, f3))
        assert left.coeffs == right.coeffs, f"sample {k}: associativity"
    return f"{samples} samples, order {order}"


@_check("additive-collapse-laws")
def check_additive_collapses(rng, samples: int, order: int):
    for k in range(samples):
        mu1 = random_moment_series(rng, order)
        mu2 = random_moment_series(rng, order)
        collapsed = additive_convolve("c-monotone", mu1, mu2, mu2)
        monotone = additive_convolve("monotone", mu1, mu2)
        assert collapsed.coeffs == monotone.coeffs, f"sample {k}: nu = mu collapse"
        delta0 = point_mass_moments(0, order)
        for kind in ("monotone", "boolean", "orthogonal"):
            assert (
                additive_convolve(kind, mu1, delta0).coeffs == mu1.coeffs
            ), f"sample {k}: {kind} with point mass at 0"
        assert (
            additive_convolve("c-monotone", mu1, delta0, delta0).coeffs
            == mu1.coeffs
        ), f"sample {k}: c-monotone with point mass at 0"
    return f"{samples} samples, order {order}"


@_check("boolean-additive-commutative")
def check_boolean_commutative(rng, samples: int, order: int):
    for k in range(samples):
        mu1 = random_moment_series(rng, order)
        mu2 = random_moment_series(rng, order)
        ab = additive_convolve("boolean", mu1, mu2)
        ba = additive_convolve("boolean", mu2, mu1)
        assert ab.coeffs == ba.coeffs, f"sample {k}"
    return f"{samples} samples"


@_check("additive-noncommutative-witnesses")
def check_noncommutative_witnesses(order: int):
    edge = moment_series(tuple((n + 1) % 2 for n in range(order + 1)))
    loop = point_mass_moments(1, order)
    ab = additive_convolve("monotone", edge, loop)
    ba = additive_convolve("monotone", loop, edge)
    assert ab.coeffs != ba.coeffs, "monotone additive unexpectedly commuted"
    g1, g2 = fixtures.additive_demo_pair()
    mu1 = root_moments(g1, order)
    nu1 = root_moments(g1, order, at=g1.second_root)
    mu2 = root_moments(g2, order)
    nu2 = root_moments(g2, order, at=g2.second_root)
    fwd = additive_convolve("c-monotone", mu1, mu2, nu2)
    rev = additive_convolve("c-monotone", mu2, mu1, nu1)
    assert fwd.coeffs != rev.coeffs, "c-monotone additive unexpectedly commuted"
    return "monotone and c-monotone witnesses verified"


@_check("multiplicative-delta1-orthogonal")
def check_mult_delta1(rng, samples: int, order: int):
    delta1 = eta_from_moments(point_mass_moments(1, order))
    for k in range(samples):
        eta1 = random_eta_series(rng, order)
        eta_nu = random_eta_series(rng, order)
        left = multiplicative_convolve("c-monotone", eta1, delta1, eta_nu)
        right = multiplicative_convolve("orthogonal", eta1, eta_nu)
        assert left.coeffs == right.coeffs, f"sample {k}"
    return f"{samples} samples, order {order}"


@_check("multiplicative-nu-equals-mu-monotone")
def check_mult_nu_eq_mu(rng, samples: int, order: int):
    for k in range(samples):
        eta1 = random_eta_series(rng, order)
        eta2 = random_eta_series(rng, order)
        left = multiplicative_convolve("c-monotone", eta1, eta2, eta2)
        right = multiplicative_convolve("monotone", eta1, eta2)
        assert left.coeffs == right.coeffs, f"sample {k}"
    return f"{samples} samples, order {order}"


@_check("multiplicative-boolean-orthogonal-decomposition")
def check_mult_decomposition(rng, samples: int, order: int):
    for k in range(samples):
        eta1 = random_eta_series(rng, order)
        eta2 = random_eta_series(rng, order)
        eta_nu = random_eta_series(rng, order)
        direct = multiplicative_convolve("c-monotone", eta1, eta2, eta_nu)
        orth = multiplicative_convolve("orthogonal", eta1, eta_nu)
        boxed = multiplicative_convolve("boolean", orth, eta2)
        assert direct.coeffs == boxed.coeffs, f"sample {k}"
    return f"{samples} samples, order {order}"


@_check("multiplicative-identity-element")
def check_mult_identity(rng, samples: int, order: int):
    z = eta_from_moments(point_mass_moments(1, order))
    for k in range(samples):
        h = random_eta_series(rng, order)
        assert (
            multiplicative_convolve("monotone", h, z).coeffs == h.coeffs
        ), f"sample {k}: right identity"
        assert (
            multiplicative_convolve("monotone", z, h).coeffs == h.coeffs
        ), f"sample {k}: left identity"
    return f"{samples} samples"


@_check("coefficient-formula-engine-equality")
def check_coefficient_formula_engine(rng, samples: int, order: int):
    for k in range(samples):
        eta1 = random_eta_series(rng, order)
        eta2 = random_eta_series(rng, order)
        eta_nu = random_eta_series(rng, order)
        engines = {
            "monotone": multiplicative_convolve("monotone", eta1, eta2),
            "boolean": multiplicative_convolve("boolean", eta1, eta2),
            "orthogonal": multiplicative_convolve("orthogonal", eta1, eta2),
            "c-monotone": multiplicative_convolve(
                "c-monotone", eta1, eta2, eta_nu
            ),
        }
        for kind, engine in engines.items():
            for n in range(1, order + 1):
                val = coefficient_formula(
                    kind, n, eta1.coeffs, eta2.coeffs, eta_nu.coeffs
                )
                assert val == engine.coeffs[n - 1], f"sample {k}, {kind}, n={n}"
        mono = tuple(
            coefficient_formula("c-monotone", n, eta1.coeffs, eta2.coeffs, eta2.coeffs)
            for n in range(1, order + 1)
        )
        assert mono == engines["monotone"].coeffs, f"sample {k}: substitution"
    return f"{samples} samples, n up to {order}"


@_check("additive-graph-consistency")
def check_additive_graph_consistency(rng, samples: int, order: int):
    for k in range(samples):
        g1 = random_rooted_graph(rng, 1, 4)
        g2 = random_birooted_graph(rng, 1, 4)
        mu1 = root_moments(g1, order)
        mu2 = root_moments(g2, order)
        nu2 = root_moments(g2, order, at=g2.second_root)
        for kind, build in ADDITIVE_WALK_PRODUCTS.items():
            nu = nu2 if kind == "c-monotone" else None
            expect = additive_convolve(kind, mu1, mu2, nu)
            got = root_moments(build(g1, g2).graph, order).coeffs
            assert got == expect.coeffs, f"sample {k}: {kind} graph consistency"
    return f"{samples} samples, order {order}"


def transforms_suite(cfg: VerifyConfig) -> list:
    rng = random.Random(cfg.seed + 3)
    order = min(cfg.order, 12)
    n_random = 20
    return [
        check_F_roundtrip(rng, n_random, order),
        check_psi_eta_roundtrip(rng, n_random, order),
        check_compose_identity(rng, 10, min(order, 10)),
        check_compose_associativity(rng, 10, min(order, 10)),
        check_additive_collapses(rng, n_random, min(order, 10)),
        check_boolean_commutative(rng, n_random, order),
        check_noncommutative_witnesses(order),
        check_mult_delta1(rng, n_random, 10),
        check_mult_nu_eq_mu(rng, n_random, 10),
        check_mult_decomposition(rng, n_random, 10),
        check_mult_identity(rng, 10, 10),
        check_coefficient_formula_engine(rng, 8, 10),
        check_additive_graph_consistency(rng, 10, min(order, 10)),
    ]


# -- independence suite ---------------------------------------------------------


def _pair_functionals(m1: AlgebraModel, m2: AlgebraModel):
    return {1: ModelFunctional(m1, m1.xi), 2: ModelFunctional(m2, m2.xi)}


def _assert_cmonotone(realizations: dict, words, pairs: dict, where: str) -> None:
    """Each realization's phi and psi moments equal the c-monotone oracle on
    every word; `realizations` maps a message prefix to a realization. The
    oracle's memo serves `pairs` only and is dropped on return."""
    evs = [
        (tag, r.evaluator("phi"), r.evaluator("psi"))
        for tag, r in realizations.items()
    ]
    memo: dict = {}
    for w in words:
        phi_expect, psi_expect = oracle_cmonotone(w, pairs, memo)
        for tag, ev_phi, ev_psi in evs:
            assert ev_phi.moment(w) == phi_expect, f"{where}, word {w}: {tag}phi"
            assert ev_psi.moment(w) == psi_expect, f"{where}, word {w}: {tag}psi"


def model_pairs(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 4)
    out = []
    for k in range(cfg.model_samples):
        frac = k < 5
        out.append(
            (
                random_model(rng, two_state=True, use_fractions=frac),
                random_model(rng, two_state=True, use_fractions=frac),
            )
        )
    return out


@_check("pair-kind-oracle-equality")
def check_pair_kinds(model_pairs, max_word: int):
    words = all_words(PAIR_LETTERS, max_word)
    for k, (m1, m2) in enumerate(model_pairs):
        fns = _pair_functionals(m1, m2)
        for kind in ("boolean", "monotone", "orthogonal", "tensor"):
            realization = realize_pair(kind, m1, m2)
            ev = realization.evaluator("phi")
            memo: dict = {}
            for w in words:
                expect = oracle_moment(kind, w, fns, memo)
                got = ev.moment(w)
                assert got == expect, f"model {k}, {kind}, word {w}"
    return f"{len(model_pairs)} models x 4 kinds, words to length {max_word}"


@_check("single-letter-state-restriction")
def check_single_letter_states(model_pairs):
    for k, (m1, m2) in enumerate(model_pairs):
        for kind in ("boolean", "monotone", "orthogonal", "tensor"):
            r = realize_pair(kind, m1, m2)
            assert r.moment([(1, "a")]) == m1.vector_state(("a",), m1.xi), (
                f"model {k}: {kind} first marginal"
            )
            # the orthogonal state kills the second algebra outright
            second = 0 if kind == "orthogonal" else m2.vector_state(("a",), m2.xi)
            assert r.moment([(2, "a")]) == second, (
                f"model {k}: {kind} second marginal"
            )
        r = realize_cmonotone_pair(m1, m2)
        for j, m in ((1, m1), (2, m2)):
            assert r.moment([(j, "a")], "phi") == m.vector_state(("a",), m.xi)
            assert r.moment([(j, "a")], "psi") == m.vector_state(("a",), m.eta)
    return f"{len(model_pairs)} models"


@_check("cmonotone-pair-oracle-equality")
def check_cmonotone_pair(model_pairs, max_word: int):
    words = all_words(PAIR_LETTERS, max_word)
    for k, (m1, m2) in enumerate(model_pairs):
        realizations = {
            "": realize_cmonotone_pair(m1, m2),
            "variant ": realize_cmonotone_pair(m1, m2, variant=True),
        }
        pairs = two_state_pairs({1: m1, 2: m2})
        _assert_cmonotone(realizations, words, pairs, f"model {k}")
    return f"{len(model_pairs)} models, words to length {max_word}, with variant"


@_check("family-pair-consistency")
def check_family_pair_consistency(model_pairs, word_len: int):
    words = all_words(PAIR_LETTERS, word_len)
    subset = model_pairs[:15]
    for k, (m1, m2) in enumerate(subset):
        fam = realize_cmonotone_family([m1, m2])
        pair = realize_cmonotone_pair(m1, m2)
        fam_ops = {(1, "a"): (0, "a"), (2, "a"): (1, "a")}
        ev_fam = {s: fam.evaluator(s) for s in ("phi", "psi")}
        ev_pair = {s: pair.evaluator(s) for s in ("phi", "psi")}
        for w in words:
            fam_word = [fam_ops[l] for l in w]
            for s in ("phi", "psi"):
                assert ev_fam[s].moment(fam_word) == ev_pair[s].moment(w), (
                    f"model {k}, word {w}, state {s}"
                )
    return f"{len(subset)} models, words to length {word_len}"


def family_models(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 5)
    out = []
    for k in range(cfg.model_samples):
        dims = [2, 2, 2]
        if k % 10 == 0:
            dims[rng.randrange(3)] = 3
        out.append(
            [
                random_model(rng, dim=d, two_state=True, use_fractions=(k < 3))
                for d in dims
            ]
        )
    return out


@_check("family-three-oracle-equality")
def check_family_three(family_models, word_len: int):
    words = all_words(((0, "a"), (1, "a"), (2, "a")), word_len)
    for k, models in enumerate(family_models):
        fam = realize_cmonotone_family(models)
        pairs = two_state_pairs(dict(enumerate(models)))
        _assert_cmonotone({"": fam}, words, pairs, f"family {k}")
    return f"{len(family_models)} families of 3, words to length {word_len}"


@_check("local-maximum-choice-independence")
def check_local_max_choice(model_pairs):
    words = all_words(PAIR_LETTERS, ALL_ORDERS_WORD)
    subset = model_pairs[:10]
    for k, (m1, m2) in enumerate(subset):
        pairs = two_state_pairs({1: m1, 2: m2})
        memo: dict = {}
        for w in words:
            vals = oracle_cmonotone_all_orders(w, pairs, memo)
            assert len(vals) == 1, f"model {k}, word {w}: {len(vals)} values"
    return f"{len(subset)} models, all reduction orders to length {ALL_ORDERS_WORD}"


@_check("psi-equals-phi-monotone-collapse")
def check_psi_equals_phi_collapse(model_pairs, max_word: int):
    words = all_words(PAIR_LETTERS, min(max_word, 7))
    for k, (m1, m2) in enumerate(model_pairs[:15]):
        fns = _pair_functionals(m1, m2)
        degenerate = {1: (fns[1], fns[1]), 2: (fns[2], fns[2])}
        cmonotone_memo: dict = {}
        monotone_memo: dict = {}
        for w in words:
            phi_val, psi_val = oracle_cmonotone(w, degenerate, cmonotone_memo)
            mono = oracle_moment("monotone", w, fns, monotone_memo)
            assert phi_val == mono, f"model {k}, word {w}: phi"
            assert psi_val == mono, f"model {k}, word {w}: psi"
    return f"15 models, words to length {min(max_word, 7)}"


@_check("separating-projection-splits-moments")
def check_separating_projection(model_pairs):
    fam_words = all_words(((0, "a"), (1, "a")), 3)
    for k, (m1, m2) in enumerate(model_pairs[:10]):
        fam = realize_cmonotone_family([m1, m2])
        fam.operators["P"] = fam.separating_projection()
        for w1 in fam_words:
            for w2 in fam_words:
                lhs = fam.moment(w1 + ("P",) + w2)
                rhs = fam.moment(w1) * fam.moment(w2)
                assert lhs == rhs, f"model {k}, words {w1}|{w2}"
    return "10 models, flank words to length 3"


def _graph_bridge_pairs(cfg: VerifyConfig, count: int):
    rng = random.Random(cfg.seed + 6)
    return [
        (
            random_birooted_graph(rng, 1, 4),
            random_birooted_graph(rng, 1, 4),
        )
        for _ in range(count)
    ]


def _graph_bridge(cfg: VerifyConfig, max_word: int, loops: bool) -> str:
    """The two bridge checks: the c-comb decomposition of each graph pair
    (its loop pair with `loops`) against the c-monotone oracle of the factor
    adjacencies (see independence.realize_graph_pair)."""
    decompose = c_comb_loop_decomposition if loops else c_comb_decomposition
    demo = fixtures.multiplicative_demo_pair if loops else fixtures.additive_demo_pair
    cases = [demo()] + _graph_bridge_pairs(cfg, 8)
    words = all_words(PAIR_LETTERS, max_word)
    for k, (g1, g2) in enumerate(cases):
        realization, pairs = realize_graph_pair(decompose(g1, g2), g1, g2, loops)
        _assert_cmonotone({"": realization}, words, pairs, f"pair {k}")
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
