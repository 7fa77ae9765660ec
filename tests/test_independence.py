import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from pathlib import Path

from hypothesis import given
import hypothesis.strategies as st
import pytest
import sympy as sp

from ccomb import fixtures, independence, series
from ccomb.cli import MAX_WORD_MOMENT_BUILD
from ccomb.graphs import adjacency_matrix
from ccomb.independence import (
    ORACLE_KINDS,
    _drop_and_merge,
    AlgebraModel,
    HalfWordPlan,
    ModelFunctional,
    WordPlan,
    all_words,
    collapse_word,
    oracle_cmonotone,
    oracle_cmonotone_all_orders,
    oracle_moment,
    parse_word,
    realize_cmonotone_family,
    realize_cmonotone_pair,
    realize_pair,
    two_state_pairs,
)
from ccomb.linalg import (
    Matrix,
    sparse_apply,
    sparse_identity,
    sparse_sum,
    sparse_transpose,
)
from ccomb.products import (
    c_comb_decomposition,
    c_comb_loop_decomposition,
    realize_graph_pair,
)
from ccomb.verify import (
    FAMILY_WORD,
    PAIR_LETTERS,
    VerifyConfig,
    family_models,
    model_pairs,
    random_model,
)

from conftest import birooted_graphs
from dense_reference import sparse_to_matrix
from oracle_reference import (
    TableFunctional,
    drop_and_merge,
    reference_all_orders,
    reference_cmonotone,
    reference_moment,
    reference_orthogonal,
)
from ring_reference import ModP, mod_p


def symbols(names):
    return {n: sp.Symbol(n) for n in names}


def expand_zero(expr):
    return sp.expand(expr) == 0


def test_parse_word():
    assert parse_word("1:a 2:b 1:a'") == ((1, "a"), (2, "b"), (1, "a'"))
    with pytest.raises(ValueError):
        parse_word("nonsense")


def test_collapse_word():
    w = ((1, "a"), (1, "b"), (2, "c"), (1, "d"))
    assert collapse_word(w) == ((1, ("a", "b")), (2, ("c",)), (1, ("d",)))


def test_table_functional():
    t = TableFunctional({("a",): 3})
    assert t(()) == 1
    assert t(("a",)) == 3
    with pytest.raises(KeyError):
        t(("missing",))


def test_boolean_oracle_factorizes():
    fns = {1: TableFunctional({("a",): 5}), 2: TableFunctional({("b",): 7})}
    assert oracle_moment("boolean", ((1, "a"), (2, "b")), fns) == 35


def test_monotone_oracle_strips_maximum():
    fns = {
        1: TableFunctional({("a", "a'"): 11}),
        2: TableFunctional({("b",): 2}),
    }
    word = ((1, "a"), (2, "b"), (1, "a'"))
    assert oracle_moment("monotone", word, fns) == 22


def test_orthogonal_oracle_boundary_vanishing():
    fns = {
        1: TableFunctional({("a",): 4}),
        2: TableFunctional({("b",): 3, ("b'",): 6}),
    }
    assert oracle_moment("orthogonal", ((2, "b"), (1, "a"), (2, "b'")), fns) == 0
    assert oracle_moment("orthogonal", ((2, "b"),), fns) == 0


def test_orthogonal_oracle_interior_rule():
    s = symbols(["pa", "pa2", "paa2", "qb"])
    fns = {
        1: TableFunctional(
            {("a",): s["pa"], ("a'",): s["pa2"], ("a", "a'"): s["paa2"]}
        ),
        2: TableFunctional({("b",): s["qb"]}),
    }
    got = oracle_moment("orthogonal", ((1, "a"), (2, "b"), (1, "a'")), fns)
    expect = s["qb"] * (s["paa2"] - s["pa"] * s["pa2"])
    assert expand_zero(got - expect)


def test_orthogonal_refuses_other_than_two_algebras():
    one = TableFunctional({("a",): 1, ("b",): 1})
    word = ((1, "a"), (2, "a"))
    for fns in ({1: one}, {1: one, 2: one, 3: one}):
        with pytest.raises(ValueError, match="exactly two functionals"):
            oracle_moment("orthogonal", word, fns)
    # a third algebra mid-word, above or below both, in a raw run that
    # merges or in a run already merged, beside a word that is fine
    for bad in (
        ((1, "a"), (3, "a"), (1, "a")),
        ((2, "a"), (1, "a"), (0, "a"), (1, "a"), (2, "a")),
        ((1, "a"), (3, "a"), (3, "b"), (1, "a")),
        ((2, "a"), (0, ("a", "b")), (2, "a")),
    ):
        plan = WordPlan([word, bad])
        with pytest.raises(ValueError, match="exactly the two given algebras"):
            plan.moments("orthogonal", {1: one, 2: one})


def test_tensor_oracle_keeps_positions():
    fns = {
        1: TableFunctional({("a", "a'"): 5}),
        2: TableFunctional({("b", "b'"): 3}),
    }
    word = ((1, "a"), (2, "b"), (1, "a'"), (2, "b'"))
    assert oracle_moment("tensor", word, fns) == 15


def test_cmonotone_single_letter():
    pairs = {2: (TableFunctional({("b",): 9}), TableFunctional({("b",): 4}))}
    phi, psi = oracle_cmonotone(((2, "b"),), pairs)
    # phi restricts to the phi state, psi to the monotone value in psi
    assert phi == 9 and psi == 4


def test_cmonotone_length3_expansion():
    s = symbols(["pa", "pa2", "paa2", "pb", "qb", "raa2"])
    phi1 = TableFunctional(
        {("a",): s["pa"], ("a'",): s["pa2"], ("a", "a'"): s["paa2"]}
    )
    psi1 = TableFunctional({("a", "a'"): s["raa2"]})
    phi2 = TableFunctional({("b",): s["pb"]})
    psi2 = TableFunctional({("b",): s["qb"]})
    word = ((1, "a"), (2, "b"), (1, "a'"))
    phi, psi = oracle_cmonotone(word, {1: (phi1, psi1), 2: (phi2, psi2)})
    expect = (
        s["pa"] * s["pa2"] * s["pb"]
        + s["paa2"] * s["qb"]
        - s["pa"] * s["pa2"] * s["qb"]
    )
    assert expand_zero(phi - expect)
    # the second state stays monotone: strip b, then the psi-moment of a a'
    assert expand_zero(psi - s["qb"] * s["raa2"])


def test_cmonotone_length5_expansion():
    names = [
        "pa", "pa2", "pa3", "paa2", "pa2a3", "paa2a3", "pb", "pb2", "qb", "qb2",
        "raa2a3",
    ]
    s = symbols(names)
    phi1 = TableFunctional(
        {
            ("a",): s["pa"],
            ("a'",): s["pa2"],
            ("a''",): s["pa3"],
            ("a", "a'"): s["paa2"],
            ("a'", "a''"): s["pa2a3"],
            ("a", "a'", "a''"): s["paa2a3"],
        }
    )
    psi1 = TableFunctional({("a", "a'", "a''"): s["raa2a3"]})
    phi2 = TableFunctional({("b",): s["pb"], ("b'",): s["pb2"]})
    psi2 = TableFunctional({("b",): s["qb"], ("b'",): s["qb2"]})
    word = ((1, "a"), (2, "b"), (1, "a'"), (2, "b'"), (1, "a''"))
    phi = oracle_cmonotone(word, {1: (phi1, psi1), 2: (phi2, psi2)})[0]
    expect = (
        s["pa"] * s["pa2"] * s["pa3"] * s["pb"] * s["pb2"]
        + s["pa"] * (s["pa2a3"] - s["pa2"] * s["pa3"]) * s["pb"] * s["qb2"]
        + (s["paa2"] - s["pa"] * s["pa2"]) * s["pa3"] * s["pb2"] * s["qb"]
        + (
            s["paa2a3"]
            - s["paa2"] * s["pa3"]
            - s["pa"] * s["pa2a3"]
            + s["pa"] * s["pa2"] * s["pa3"]
        )
        * s["qb"]
        * s["qb2"]
    )
    assert expand_zero(phi - expect)


def test_local_maximum_choice_independence_symbolic():
    s = symbols(["pa", "pb", "pc", "qa", "qb", "qc"])
    pairs = {
        j: (
            TableFunctional({(n,): s["p" + n]}),
            TableFunctional({(n,): s["q" + n]}),
        )
        for j, n in ((1, "a"), (2, "b"), (3, "c"))
    }
    # two non-adjacent local maxima: both reductions must agree
    word = ((2, "b"), (1, "a"), (3, "c"))
    [values] = oracle_cmonotone_all_orders([word], pairs)
    expanded = {sp.expand(v) for v in values}
    assert len(expanded) == 1


def test_psi_equals_phi_collapses_to_monotone():
    rng = random.Random(11)
    m1 = random_model(rng, two_state=True)
    m2 = random_model(rng, two_state=True)
    phi1 = ModelFunctional(m1, m1.xi)
    phi2 = ModelFunctional(m2, m2.xi)
    pairs = {1: (phi1, phi1), 2: (phi2, phi2)}
    for w in all_words(((1, "a"), (2, "a")), 6):
        phi, psi = oracle_cmonotone(w, pairs)
        mono = oracle_moment("monotone", w, {1: phi1, 2: phi2})
        assert phi == mono and psi == mono


def test_realize_pair_matches_oracles():
    rng = random.Random(3)
    m1 = random_model(rng, use_fractions=True)
    m2 = random_model(rng, use_fractions=True)
    fns = {1: ModelFunctional(m1, m1.xi), 2: ModelFunctional(m2, m2.xi)}
    for kind in ("boolean", "monotone", "orthogonal", "tensor"):
        r = realize_pair(kind, m1, m2)
        ev = r.evaluator()
        for w in all_words(((1, "a"), (2, "a")), 6):
            assert ev.moment(w) == oracle_moment(kind, w, fns), (kind, w)


def test_realize_pair_multiple_named_elements():
    rng = random.Random(21)
    m1 = random_model(rng, names=("a", "b"))
    m2 = random_model(rng, names=("c",))
    fns = {1: ModelFunctional(m1, m1.xi), 2: ModelFunctional(m2, m2.xi)}
    letters = ((1, "a"), (1, "b"), (2, "c"))
    for kind in ("boolean", "monotone", "tensor"):
        r = realize_pair(kind, m1, m2)
        for w in all_words(letters, 4):
            assert r.moment(w) == oracle_moment(kind, w, fns), (kind, w)


def test_realize_cmonotone_pair_multiple_named_elements():
    rng = random.Random(22)
    m1 = random_model(rng, names=("a", "b"), two_state=True)
    m2 = random_model(rng, names=("c", "d"), two_state=True)
    pairs = {
        1: (ModelFunctional(m1, m1.xi), ModelFunctional(m1, m1.eta)),
        2: (ModelFunctional(m2, m2.xi), ModelFunctional(m2, m2.eta)),
    }
    r = realize_cmonotone_pair(m1, m2)
    letters = ((1, "a"), (1, "b"), (2, "c"), (2, "d"))
    for w in all_words(letters, 4):
        phi, psi = oracle_cmonotone(w, pairs)
        assert r.moment(w, "phi") == phi, w
        assert r.moment(w, "psi") == psi, w


def test_empty_word_is_unital():
    rng = random.Random(23)
    m1 = random_model(rng)
    m2 = random_model(rng)
    assert oracle_moment("boolean", (), {1: None, 2: None}) == 1
    assert realize_pair("boolean", m1, m2).moment([]) == 1


def test_realize_orthogonal_boundary_word_vanishes():
    rng = random.Random(5)
    m1 = random_model(rng)
    m2 = random_model(rng)
    r = realize_pair("orthogonal", m1, m2)
    assert r.moment([(2, "a"), (1, "a"), (2, "a")]) == 0


def test_realize_cmonotone_pair_and_variant():
    rng = random.Random(4)
    m1 = random_model(rng, two_state=True)
    m2 = random_model(rng, two_state=True)
    pairs = {
        1: (ModelFunctional(m1, m1.xi), ModelFunctional(m1, m1.eta)),
        2: (ModelFunctional(m2, m2.xi), ModelFunctional(m2, m2.eta)),
    }
    main = realize_cmonotone_pair(m1, m2)
    variant = realize_cmonotone_pair(m1, m2, variant=True)
    for w in all_words(((1, "a"), (2, "a")), 6):
        phi, psi = oracle_cmonotone(w, pairs)
        assert main.moment(w, "phi") == phi
        assert main.moment(w, "psi") == psi
        assert variant.moment(w, "phi") == phi
        assert variant.moment(w, "psi") == psi


def test_realize_cmonotone_needs_two_states():
    rng = random.Random(6)
    with pytest.raises(ValueError):
        realize_cmonotone_pair(random_model(rng), random_model(rng, two_state=True))


@pytest.mark.parametrize("variant", [False, True])
@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("keys, max_len", [((-1, 3, 7, 8), 5), ((-4, -1, 2, 6, 9), 4)])
def test_families_of_four_and_five_match_the_plan(keys, max_len, fractions, variant):
    # a family of any size, at keys that are neither 0.. nor contiguous
    rng = random.Random(f"family {keys} {fractions} {variant}")
    models = {
        j: random_model(rng, dim=2, two_state=True, use_fractions=fractions)
        for j in keys
    }
    fam = realize_cmonotone_family(models, variant)
    assert fam.dim == _family_dim([m.dim for m in models.values()])
    words = all_words([(j, "a") for j in keys], max_len)
    halves = HalfWordPlan(words)
    got = zip(*(fam.evaluator(s).moments(halves) for s in ("phi", "psi")))
    assert list(got) == WordPlan(words).cmonotone(two_state_pairs(models))


def test_family_dimension_cap_refuses_before_placing(monkeypatch):
    # the CLI's word-moment build count bounds the dimension it asks for, so
    # the CLI refuses first, with its own message
    assert independence.MAX_FAMILY_DIM >= MAX_WORD_MOMENT_BUILD
    rng = random.Random(8)
    models = {j: random_model(rng, dim=2, two_state=True) for j in range(4)}
    dim = _family_dim([2] * 4)
    placed, real = [], independence._placed

    def placing(*args):
        placed.append(args[0])
        return real(*args)

    monkeypatch.setattr(independence, "_placed", placing)
    monkeypatch.setattr(independence, "MAX_FAMILY_DIM", dim)
    assert realize_cmonotone_family(models).dim == dim
    assert placed
    placed.clear()
    monkeypatch.setattr(independence, "MAX_FAMILY_DIM", dim - 1)
    with pytest.raises(ValueError, match=f"dimension {dim} ") as refusal:
        realize_cmonotone_family(models)
    assert "\n" not in str(refusal.value) and not placed


def test_family_single_algebra_is_plain_moments():
    rng = random.Random(9)
    m = random_model(rng, two_state=True)
    fam = realize_cmonotone_family({0: m})
    for n in range(1, 6):
        w = [(0, "a")] * n
        assert fam.moment(w, "phi") == m.vector_state(("a",) * n, m.xi)
        assert fam.moment(w, "psi") == m.vector_state(("a",) * n, m.eta)


def _family_dim(dims):
    # phi block: one leg for the lowest algebra, two for each other one;
    # psi block: one leg per algebra
    return dims[0] * prod(d * d for d in dims[1:]) + prod(dims)


@pytest.mark.parametrize("seed", range(6))
def test_family_matches_oracle_mixed_dims_and_names(seed):
    rng = random.Random(40 + seed)
    size = seed % 3 + 1
    models = {
        j: random_model(
            rng,
            dim=rng.choice((2, 3)),
            names=("a", "b"),
            two_state=True,
            use_fractions=seed % 2 == 1,
        )
        for j in range(size)
    }
    fam = realize_cmonotone_family(models)
    assert fam.dim == _family_dim([m.dim for m in models.values()])
    pairs = two_state_pairs(models)
    letters = [(j, name) for j in range(size) for name in ("a", "b")]
    phi, psi = fam.evaluator("phi"), fam.evaluator("psi")
    words = all_words(letters, 4)
    for w, expect in zip(words, WordPlan(words).cmonotone(pairs)):
        assert (phi.moment(w), psi.moment(w)) == expect, w


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_family_of_two_is_the_pair(dims):
    rng = random.Random(sum(dims) * dims[0])
    m1, m2 = (
        random_model(rng, dim=d, names=("a", "b"), two_state=True) for d in dims
    )
    fam = realize_cmonotone_family({0: m1, 1: m2})
    pair = realize_cmonotone_pair(m1, m2)
    keys = {0: 1, 1: 2}
    assert {(keys[j], n): op for (j, n), op in fam.operators.items()} == pair.operators
    assert (fam.dim, fam.phi_index, fam.psi_index) == (
        pair.dim,
        pair.phi_index,
        pair.psi_index,
    )
    assert fam.dim == _family_dim(dims)


def test_model_validation():
    with pytest.raises(ValueError):
        AlgebraModel({}, 0)
    with pytest.raises(ValueError):
        AlgebraModel({"a": Matrix.identity(2)}, 5)
    with pytest.raises(ValueError):
        AlgebraModel({"a": Matrix.identity(2), "b": Matrix.identity(3)}, 0)
    # the oracles read a tuple name as a run already merged (collapse_word),
    # the realizations as one element: a tuple name would split the routes
    one = Matrix.identity(2)
    for elements in ({("x",): one}, {"x": one, "y": one, ("x", "y"): one}):
        with pytest.raises(ValueError, match="tuple") as refusal:
            AlgebraModel(elements, 0)
        assert "\n" not in str(refusal.value)


def test_realization_rejects_unknown_state():
    rng = random.Random(10)
    r = realize_pair("boolean", random_model(rng), random_model(rng))
    with pytest.raises(ValueError):
        r.moment([(1, "a")], "psi")
    with pytest.raises(ValueError):
        r.moment([(1, "a")], "weird")


@given(birooted_graphs(max_vertices=4), birooted_graphs(max_vertices=4))
def test_graph_decomposition_is_cmonotone_pair(g1, g2):
    # the c-comb decomposition is the c-monotone pair realization of the
    # factor adjacencies at (root, second root), and the loop pair is that
    # realization built on a - 1, plus the ambient identity
    def realization(loop):
        models = []
        for g in (g1, g2):
            a = adjacency_matrix(g)
            if loop:
                a = a - Matrix.identity(g.vertex_count)
            models.append(AlgebraModel({"a": a}, g.root, g.second_root))
        return realize_cmonotone_pair(*models)

    r = realization(False)
    dec = c_comb_decomposition(g1, g2)
    assert (dec.cols1, dec.cols2) == (r.operators[(1, "a")], r.operators[(2, "a")])
    assert (dec.ambient_dim, dec.phi_index, dec.psi_index) == (
        r.dim,
        r.phi_index,
        r.psi_index,
    )
    realized, pairs = realize_graph_pair(dec, g1, g2)
    for w in all_words(((1, "a"), (2, "a")), 4):
        moments = (realized.moment(w, "phi"), realized.moment(w, "psi"))
        assert moments == oracle_cmonotone(w, pairs), w
    r = realization(True)
    one = sparse_identity(r.dim)
    dec = c_comb_loop_decomposition(g1, g2)
    assert dec.cols1 == sparse_sum(one, r.operators[(1, "a")])
    assert dec.cols2 == sparse_sum(one, r.operators[(2, "a")])
    assert (dec.ambient_dim, dec.phi_index, dec.psi_index) == (
        r.dim,
        r.phi_index,
        r.psi_index,
    )


def test_separating_projection_matrix():
    rng = random.Random(12)
    m1 = random_model(rng, two_state=True)
    m2 = random_model(rng, two_state=True)
    fam = realize_cmonotone_family({0: m1, 1: m2})
    p = sparse_to_matrix(fam.separating_projection())
    assert p * p == p
    assert p.entry(fam.phi_index, fam.phi_index) == 1
    assert p.entry(fam.psi_index, fam.psi_index) == 1


def test_separating_projection_is_typed_like_its_family():
    # a Fraction family gets Fraction(1) entries, so the evaluator still
    # scales it to ints with the projection inserted; an int family keeps 1
    pairs = model_pairs(VerifyConfig(seed=1))
    for k, (m1, m2) in enumerate(pairs[:10]):
        fam = realize_cmonotone_family({0: m1, 1: m2})
        fam.operators["P"] = fam.separating_projection()
        fractions = k < 5
        entries = {type(x) for col in fam.operators["P"] for _, x in col}
        assert entries == {Fraction if fractions else int}, k
        assert (fam.evaluator("phi")._scale is not None) == fractions, k


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from("abc")), min_size=1, max_size=12
    )
)
def test_drop_and_merge_matches_full_collapse(word):
    w = collapse_word(word)
    for i in range(len(w)):
        # the reference collapses the whole rest again: the definition the
        # O(1) kernel must agree with
        assert _drop_and_merge(w, i) == drop_and_merge(w, i)


def _models_and_functionals(rng, indices):
    models = {
        j: random_model(rng, names=("a", "b"), two_state=True, use_fractions=True)
        for j in indices
    }
    fns = {j: ModelFunctional(m, m.xi) for j, m in models.items()}
    return two_state_pairs(models), fns


@pytest.mark.parametrize(
    "letters",
    [((1, "a"), (1, "b"), (2, "a")), ((0, "a"), (1, "a"), (2, "a"))],
)
def test_plan_equals_one_word_oracles_for_a_list_and_its_reverse(letters):
    indices = sorted({j for j, _ in letters})
    pairs, fns = _models_and_functionals(random.Random(11), indices)
    kinds = [k for k in ORACLE_KINDS if k != "orthogonal" or len(indices) == 2]
    words = all_words(letters, 6)
    for order in (words, words[::-1]):
        plan = WordPlan(order)
        assert plan.cmonotone(pairs) == [oracle_cmonotone(w, pairs) for w in order]
        for kind in kinds:
            fresh = [oracle_moment(kind, w, fns) for w in order]
            assert plan.moments(kind, fns) == fresh, kind
        # the all-orders oracle keeps its own recursion and one table per list
        shared = oracle_cmonotone_all_orders(order, pairs)
        assert shared == [oracle_cmonotone_all_orders([w], pairs)[0] for w in order]


def test_plan_gives_each_functional_set_its_fresh_values():
    rng = random.Random(3)
    words = all_words(((1, "a"), (1, "b"), (2, "a")), 5)
    plan = WordPlan(words)
    seen = []
    for _ in range(2):
        pairs, fns = _models_and_functionals(rng, (1, 2))
        values = [plan.cmonotone(pairs)] + [plan.moments(k, fns) for k in ORACLE_KINDS]
        fresh = [[oracle_cmonotone(w, pairs) for w in words]] + [
            [oracle_moment(k, w, fns) for w in words] for k in ORACLE_KINDS
        ]
        assert values == fresh
        seen.append(values)
    assert seen[0] != seen[1]


def _mod_p_model(model):
    """The model with every entry reduced mod p (the trusted `Matrix` path:
    `from_rows` admits only rationals)."""
    elements = {
        name: Matrix(a.rows, a.cols, mod_p(a.data))
        for name, a in model.elements.items()
    }
    return AlgebraModel(elements, model.xi, model.eta)


def test_oracle_and_realization_kernels_on_integers_mod_p():
    # both kernels use only +, -, * and tests against 0 and 1: on the integers
    # mod p they give the Fraction results reduced mod p, and never a Fraction
    rng = random.Random("mod-p")
    exact = [random_model(rng, two_state=True, use_fractions=True) for _ in range(3)]
    ring = [_mod_p_model(m) for m in exact]
    words = all_words(((1, "a"), (2, "a")), 5)
    plan, halves = WordPlan(words), HalfWordPlan(words)
    family_halves = HalfWordPlan(all_words(((0, "a"), (1, "a"), (2, "a")), 4))

    def routes(models):
        """The values of every oracle and realization route, by route."""
        m1, m2 = models[:2]
        fns = {1: ModelFunctional(m1, m1.xi), 2: ModelFunctional(m2, m2.xi)}
        cmonotone = plan.cmonotone(two_state_pairs({1: m1, 2: m2}))
        out = {f"oracle {kind}": plan.moments(kind, fns) for kind in ORACLE_KINDS}
        for n, state in enumerate(("phi", "psi")):
            out[f"oracle c-monotone {state}"] = [values[n] for values in cmonotone]
        realizations = {
            "pair": (realize_cmonotone_pair(m1, m2), halves),
            "variant": (realize_cmonotone_pair(m1, m2, variant=True), halves),
            "family of 3": (
                realize_cmonotone_family(dict(enumerate(models))),
                family_halves,
            ),
            **{
                f"{kind} pair": (realize_pair(kind, m1, m2), halves)
                for kind in ORACLE_KINDS
            },
        }
        for label, (realization, word_halves) in realizations.items():
            states = ("phi",) if realization.psi_index is None else ("phi", "psi")
            for state in states:
                evaluator = realization.evaluator(state)
                out[f"{label} {state}"] = evaluator.moments(word_halves)
        return out

    want = routes(exact)
    for route, got in routes(ring).items():
        assert not any(isinstance(v, Fraction) for v in got), route
        assert tuple(got) == mod_p(want[route]), route


@st.composite
def _word_lists(draw):
    """Words over two or three algebras, with runs of one index, and for
    each algebra whether its phi and its psi model have Fraction or int
    entries."""
    indices = draw(st.sampled_from(((1, 2), (0, 1, 2), (2, 5))))
    letter = st.tuples(st.sampled_from(indices), st.sampled_from("ab"))
    words = draw(st.lists(st.lists(letter, max_size=7).map(tuple), max_size=6))
    types = st.tuples(st.booleans(), st.booleans())
    fractions = draw(st.lists(types, min_size=3, max_size=3))
    return indices, words, dict(zip(indices, fractions))


def _typed(values):
    return [(type(v), v) for v in values]


@given(_word_lists(), st.integers(0, 2**32))
def test_plan_equals_the_recursive_reference_in_value_and_type(case, seed):
    # phi and psi come from two models, so an int value can meet a Fraction
    # one: the plan must repeat the recursion's arithmetic, leaves included
    indices, words, fractions = case
    rng = random.Random(seed)
    models = {
        j: [
            random_model(rng, names=("a", "b"), two_state=True, use_fractions=f)
            for f in fractions[j]
        ]
        for j in indices
    }
    fns = {j: ModelFunctional(m, m.xi) for j, (m, _) in models.items()}
    pairs = {
        j: (fns[j], ModelFunctional(m, m.eta)) for j, (_, m) in models.items()
    }
    plan = WordPlan(words)
    for kind in ORACLE_KINDS:
        if kind == "orthogonal" and len(indices) != 2:
            continue
        want = [reference_moment(kind, w, fns) for w in words]
        assert _typed(plan.moments(kind, fns)) == _typed(want), kind
    got = [v for pair in plan.cmonotone(pairs) for v in pair]
    want = [v for w in words for v in reference_cmonotone(w, pairs)]
    assert _typed(got) == _typed(want)


@pytest.mark.parametrize("use_fractions", [False, True])
@pytest.mark.parametrize("keys", [(1, 2), (2, 5)])
def test_orthogonal_is_cmonotone_phi_with_zero_phi_on_the_higher_algebra(
    keys, use_fractions
):
    # the recursion itself sends a word that opens or closes in the higher
    # algebra to 0: its first local maximum has an empty flank
    lo, hi = keys
    rng = random.Random(hi)
    models = {j: random_model(rng, use_fractions=use_fractions) for j in keys}
    fns = {j: ModelFunctional(m, m.xi) for j, m in models.items()}
    words = all_words(((lo, "a"), (hi, "a")), 8)
    got = WordPlan(words).moments("orthogonal", fns)
    psi = fns[hi]
    pairs = {lo: (fns[lo], fns[lo]), hi: (lambda names: 0 * psi(names), psi)}
    want = [phi for phi, _ in WordPlan(words).cmonotone(pairs)]
    assert got == want
    ends = [hi in (w[0][0], w[-1][0]) for w in words]
    assert all(v == 0 for v, end in zip(got, ends) if end)
    assert any(v for v, end in zip(got, ends) if not end)


def _evaluator_cases():
    """Each realization the evaluator serves, with its letters and states."""
    rng = random.Random(21)
    m1, m2 = (random_model(rng, two_state=True, use_fractions=True) for _ in range(2))
    pair = ((1, "a"), (2, "a"))
    cases = {
        f"{kind} pair": (realize_pair(kind, m1, m2), pair, ("phi",))
        for kind in ORACLE_KINDS
    }
    both = ("phi", "psi")
    cases["c-monotone pair"] = (realize_cmonotone_pair(m1, m2), pair, both)
    cases["variant pair"] = (realize_cmonotone_pair(m1, m2, variant=True), pair, both)
    family = {j: random_model(rng, dim=2, two_state=True) for j in range(3)}
    letters = ((0, "a"), (1, "a"), (2, "a"))
    cases["family of 3"] = (realize_cmonotone_family(family), letters, both)
    g1, g2 = fixtures.additive_demo_pair()
    graph_pair, _ = realize_graph_pair(c_comb_decomposition(g1, g2), g1, g2)
    cases["c-comb decomposition"] = (graph_pair, pair, both)
    g1, g2 = fixtures.multiplicative_demo_pair()
    loop_pair, _ = realize_graph_pair(c_comb_loop_decomposition(g1, g2), g1, g2)
    cases["c-comb loop decomposition"] = (loop_pair, pair, both)
    return cases


@pytest.mark.parametrize("case", list(_evaluator_cases()))
def test_evaluator_equals_the_direct_route(case):
    # the half-word product must equal one full right-to-left apply for every
    # split: empty, odd and even lengths, in any request order and word type
    realization, letters, states = _evaluator_cases()[case]
    words = [()] + all_words(letters, 7)
    shuffled = list(words)
    random.Random(5).shuffle(shuffled)
    orders = (words, words[::-1], shuffled, [list(w) for w in shuffled])
    for state in states:
        direct = {w: realization.moment(w, state) for w in words}
        for order in orders:
            ev = realization.evaluator(state)
            for w in order:
                assert ev.moment(w) == direct[tuple(w)], (state, w)


def _tuple_memo_moments(realization, state, words):
    """The half-word route with tuple-keyed memos of both halves, filled by
    recursion: the reference the compiled plan repeats term for term."""
    at = realization._state_index(state)
    ops = realization.operators
    rows, columns = {(): {at: 1}}, {(): {at: 1}}

    def row(u):
        if u not in rows:
            rows[u] = sparse_apply(sparse_transpose(ops[u[-1]]), row(u[:-1]))
        return rows[u]

    def column(v):
        if v not in columns:
            columns[v] = sparse_apply(ops[v[0]], column(v[1:]))
        return columns[v]

    out = []
    for w in map(tuple, words):
        u, v = row(w[: len(w) // 2]), column(w[len(w) // 2 :])
        out.append(sum((x * v[i] for i, x in u.items() if i in v), 0))
    return out


@pytest.mark.parametrize("case", list(_evaluator_cases()))
def test_batch_moments_equal_the_direct_route_and_the_memoized_halves(case):
    # one plan over a list with the empty word, repeats and list-typed words.
    # A dot product that cancels gives Fraction(0) where the direct route
    # filters the zero and gives int 0, as the memoized halves always did: the
    # types must match the direct route on nonzero values, the reference on all
    realization, letters, states = _evaluator_cases()[case]
    words = [()] + all_words(letters, 6)
    words += [list(w) for w in words[::-1]]
    plan = HalfWordPlan(words)
    for state in states:
        got = realization.evaluator(state).moments(plan)
        direct = [realization.moment(w, state) for w in words]
        assert got == direct, state
        assert [type(g) for g in got if g] == [type(d) for d in direct if d], state
        want = _tuple_memo_moments(realization, state, words)
        assert _typed(got) == _typed(want), state


def test_a_long_word_needs_no_recursion():
    # 4,096 letters: the half-word plan and the functional's prefix rows are
    # walked in loops, where a recursion over 2,048-letter halves overflowed
    rng = random.Random(8)
    m1, m2 = (random_model(rng, two_state=True) for _ in range(2))
    realization = realize_cmonotone_pair(m1, m2)
    word = ((1, "a"), (2, "a")) * 2048
    for state in ("phi", "psi"):
        assert realization.evaluator(state).moment(word) == realization.moment(
            word, state
        )
    names = ("a",) * 4096
    assert ModelFunctional(m1, m1.xi)(names) == m1.vector_state(names, m1.xi)


_PLAN_UNDER_A_LOW_RECURSION_LIMIT = """
import random, sys
from ccomb.independence import (
    ORACLE_KINDS, ModelFunctional, WordPlan, realize_cmonotone_pair, realize_pair,
    two_state_pairs,
)
from ccomb.verify import random_model

rng = random.Random(30)
m1, m2 = (random_model(rng, two_state=True) for _ in range(2))
fns = {j: ModelFunctional(m, m.xi) for j, m in ((1, m1), (2, m2))}
# the 299-letter word opens and closes in algebra 1, so orthogonal runs it
words = [[(1 + i % 2, "a") for i in range(n)] for n in (300, 299)]
want = {k: [realize_pair(k, m1, m2).moment(w) for w in words] for k in ORACLE_KINDS}
pair = realize_cmonotone_pair(m1, m2)
want["cmonotone"] = [(pair.moment(w, "phi"), pair.moment(w, "psi")) for w in words]
sys.setrecursionlimit(120)
plan = WordPlan(words)
got = {k: plan.moments(k, fns) for k in ORACLE_KINDS}
got["cmonotone"] = plan.cmonotone(two_state_pairs({1: m1, 2: m2}))
assert got == want
# no value the 299-letter word compares is a trivial 0
assert all(want[k][1] for k in ORACLE_KINDS) and all(want["cmonotone"][1])
"""


def test_the_plan_compiles_and_runs_a_long_word_without_recursion():
    # the boolean chain of the 300-letter word is 300 nodes deep, and its
    # phi and monotone recursions 150, far past a recursion limit of 120
    src = Path(independence.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _PLAN_UNDER_A_LOW_RECURSION_LIMIT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_each_recursion_takes_one_node_per_distinct_collapsed_word():
    # every subword a split reads on the verify pair list is itself a word of
    # the list, so each recursion holds one node per distinct collapsed word
    words = all_words(PAIR_LETTERS, 8)
    assert len({collapse_word(w) for w in words}) == 510
    plan = WordPlan(words)
    for kind in ("phi", "monotone", "boolean", "tensor"):
        nodes, targets, _, _ = plan._compile(kind)
        assert len(nodes) == 510, kind
        assert len(set(targets)) == 510, kind


_ENTRIES = st.sampled_from((0, 1, -1, 2, Fraction(0), Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def _mixed_models(draw):
    """A model of two elements whose entries mix int and Fraction, zeros of
    both types included."""
    dim = draw(st.integers(1, 3))
    row = st.lists(_ENTRIES, min_size=dim, max_size=dim)
    square = st.lists(row, min_size=dim, max_size=dim)
    elements = {name: Matrix.from_rows(draw(square)) for name in "ab"}
    return AlgebraModel(elements, 0)


@given(
    _mixed_models(),
    st.lists(st.lists(st.sampled_from("ab"), max_size=6).map(tuple), max_size=8),
)
def test_model_functional_equals_the_vector_state_in_value_and_type(model, products):
    # one functional serves the products in turn, so a later product reads
    # the rows an earlier one kept for a shared prefix
    for at in range(model.dim):
        functional = ModelFunctional(model, at)
        got = [functional(names) for names in products]
        want = [model.vector_state(names, at) for names in products]
        assert _typed(got) == _typed(want), at


_INTS = st.sampled_from((0, 1, -1, 2))
_FRACTIONS = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(2)))


@st.composite
def _two_state_models(draw):
    """A two-state model of two elements whose entries are all ints, all
    Fractions or a mix of both, zeros of both types included."""
    entries = draw(st.sampled_from((_INTS, _FRACTIONS, _ENTRIES)))
    dim = draw(st.integers(1, 3))
    row = st.lists(entries, min_size=dim, max_size=dim)
    square = st.lists(row, min_size=dim, max_size=dim)
    elements = {name: Matrix.from_rows(draw(square)) for name in "ab"}
    at = st.integers(0, dim - 1)
    return AlgebraModel(elements, draw(at), draw(at))


@given(_two_state_models(), _two_state_models())
def test_evaluator_equals_the_memoized_halves_on_mixed_scalars(m1, m2):
    # only a realization whose entries are all Fractions is scaled; an int
    # model beside a Fraction one, or a model mixing both, runs unscaled:
    # either way each word keeps the value and the type of the memoized
    # halves, zeros included
    words = [()] + all_words(((1, "a"), (1, "b"), (2, "a"), (2, "b")), 4)
    plan = HalfWordPlan(words)
    cases = [(realize_pair(kind, m1, m2), ("phi",)) for kind in ORACLE_KINDS]
    cases += [
        (realize_cmonotone_pair(m1, m2, variant), ("phi", "psi"))
        for variant in (False, True)
    ]
    for realization, states in cases:
        for state in states:
            got = realization.evaluator(state).moments(plan)
            want = _tuple_memo_moments(realization, state, words)
            assert _typed(got) == _typed(want), state


@st.composite
def _all_orders_lists(draw):
    """Raw words over two algebras with the empty word, a repeat and the
    collapsed form of each word added, in a drawn order."""
    letter = st.tuples(st.sampled_from((1, 2)), st.sampled_from("ab"))
    words = draw(st.lists(st.lists(letter, max_size=6).map(tuple), max_size=5))
    words += [()] + words[:1] + [collapse_word(w) for w in words]
    return draw(st.permutations(words))


def _typed_sets(sets):
    return [{(type(v), v) for v in values} for values in sets]


def _mod_p_pairs(rng):
    """Table functional pairs of algebras 1 and 2 on every name product of
    up to six letters, with random values mod p."""
    names = [n for k in range(1, 7) for n in iter_product("ab", repeat=k)]
    return {
        j: tuple(
            TableFunctional({n: ModP(rng.randrange(ModP.P)) for n in names})
            for _ in range(2)
        )
        for j in (1, 2)
    }


@given(_all_orders_lists(), _two_state_models(), _two_state_models(), st.integers())
def test_all_orders_equals_the_recursive_reference_in_value_and_type(
    words, m1, m2, seed
):
    # int, Fraction and mixed models, where a set may meet an int and a
    # Fraction of one value, then a ring that is neither
    plan = WordPlan(words)
    for pairs in (two_state_pairs({1: m1, 2: m2}), _mod_p_pairs(random.Random(seed))):
        got = plan.all_orders(pairs)
        assert _typed_sets(got) == _typed_sets(reference_all_orders(words, pairs))
    assert _typed_sets(oracle_cmonotone_all_orders(words, pairs)) == _typed_sets(got)


def test_one_plan_compiles_its_all_orders_nodes_once(monkeypatch):
    # the local maxima of each word are found when the plan first runs, and
    # each later functional set reuses its nodes
    maxima, real = [], independence._local_maxima
    monkeypatch.setattr(
        independence, "_local_maxima", lambda w: maxima.append(w) or real(w)
    )
    words = all_words(PAIR_LETTERS, 6)
    plan, rng = WordPlan(words), random.Random(39)
    for fractions in (True, False, True):
        models = {
            j: random_model(rng, two_state=True, use_fractions=fractions)
            for j in (1, 2)
        }
        pairs = two_state_pairs(models)
        want = reference_all_orders(words, pairs)
        assert _typed_sets(plan.all_orders(pairs)) == _typed_sets(want)
        # one call per distinct collapsed word, all made by the first set
        assert len(maxima) == len(set(maxima)) == 126


@given(_two_state_models(), _two_state_models(), st.sampled_from(((1, 2), (2, 5))))
def test_orthogonal_runs_phi_alone_as_cmonotone_phi_with_zero_phi_above(m1, m2, keys):
    # the phi of `cmonotone` with phi = 0 * psi on the higher algebra, in
    # value and type on mixed scalars, with no monotone chain run
    lo, hi = keys
    fns = {lo: ModelFunctional(m1, m1.xi), hi: ModelFunctional(m2, m2.eta)}
    words = [()] + all_words(((lo, "a"), (lo, "b"), (hi, "a"), (hi, "b")), 4)
    want = reference_orthogonal(words, fns)

    def no_chain(*args):
        raise AssertionError("the orthogonal kind ran a monotone chain")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WordPlan, "_run_chain", no_chain)
        got = WordPlan(words).moments("orthogonal", fns)
    assert _typed(got) == _typed(want)


@pytest.fixture
def loop_values(monkeypatch):
    """Every letter value the `WordPlan` loops receive, None included."""
    seen = []
    run_phi, run_chain = WordPlan._run_phi, WordPlan._run_chain

    def phi(plan, a, b):
        seen.extend(a + b)
        return run_phi(plan, a, b)

    def chain(plan, kind, a):
        seen.extend(a)
        return run_chain(plan, kind, a)

    monkeypatch.setattr(WordPlan, "_run_phi", phi)
    monkeypatch.setattr(WordPlan, "_run_chain", chain)
    return seen


def _all_fractions(models):
    return all(
        type(x) is Fraction for m in models for a in m.elements.values() for x in a.data
    )


def test_the_first_verify_pair_runs_both_routes_on_ints(loop_values):
    # verify's first model pair has Fraction entries only: the evaluator's
    # operators and the values the plan's c-monotone loops receive are ints
    cfg = VerifyConfig()
    m1, m2 = model_pairs(cfg)[0]
    WordPlan(all_words(PAIR_LETTERS, cfg.max_word)).cmonotone(
        two_state_pairs({1: m1, 2: m2})
    )
    assert {type(x) for x in loop_values if x is not None} == {int}
    for variant in (False, True):
        realization = realize_cmonotone_pair(m1, m2, variant)
        ops = realization.operators.values()
        assert {type(x) for op in ops for col in op for _, x in col} == {Fraction}
        for state in ("phi", "psi"):
            ops = realization.evaluator(state)._operators.values()
            assert {type(x) for op in ops for col in op for _, x in col} == {int}


@pytest.mark.parametrize("k", range(5))
def test_each_fraction_verify_pair_runs_the_plan_on_ints(loop_values, k):
    # each plan evaluation the pair checks make reads Fractions alone, the
    # zeros of vanishing products included, so every loop runs on ints
    cfg = VerifyConfig()
    m1, m2 = model_pairs(cfg)[k]
    assert _all_fractions((m1, m2))
    plan = WordPlan(all_words(PAIR_LETTERS, cfg.max_word))
    fns = {j: ModelFunctional(m, m.xi) for j, m in ((1, m1), (2, m2))}
    for kind in ORACLE_KINDS:
        plan.moments(kind, fns)
    plan.cmonotone(two_state_pairs({1: m1, 2: m2}))
    plan.cmonotone({j: (f, f) for j, f in fns.items()})
    assert {type(x) for x in loop_values if x is not None} == {int}


@pytest.mark.parametrize("k", range(3))
def test_each_fraction_verify_family_runs_the_plan_on_ints(loop_values, k):
    models = family_models(VerifyConfig())[k]
    assert _all_fractions(models.values())
    words = all_words(((0, "a"), (1, "a"), (2, "a")), FAMILY_WORD)
    WordPlan(words).cmonotone(two_state_pairs(models))
    assert {type(x) for x in loop_values if x is not None} == {int}


def test_a_vanishing_fraction_row_keeps_its_type():
    # row 0 of a squared is 0, so each entry of the cube's row 0 is an empty
    # sum: it takes the type of the row it sums, in the product and in the
    # functional, which multiplies that row alone
    zero, one = Fraction(0), Fraction(1)
    a = Matrix.from_rows([[zero, one], [zero, zero]])
    assert _typed((a * a * a).data) == [(Fraction, 0)] * 4
    functional = ModelFunctional(AlgebraModel({"a": a}, 0), 0)
    assert _typed([functional(("a",) * n) for n in (2, 3, 4)]) == [(Fraction, 0)] * 3


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abc")), max_size=12))
def test_collapse_word_accepts_a_collapsed_word_as_it_is(word):
    w = collapse_word(word)
    assert collapse_word(w) == w
    assert collapse_word(list(w)) == w
    for k in range(len(word) + 1):
        # two collapsed halves joined may put two runs of one index side by side
        assert collapse_word(collapse_word(word[:k]) + collapse_word(word[k:])) == w


@given(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from("ab")), max_size=8))
def test_oracles_agree_on_a_word_and_its_collapse(word):
    w = collapse_word(word)
    rng = random.Random(40)
    models = {
        j: random_model(rng, names=("a", "b"), two_state=True, use_fractions=True)
        for j in (1, 2)
    }
    fns = {j: ModelFunctional(m, m.xi) for j, m in models.items()}
    pairs = two_state_pairs(models)
    for kind in ORACLE_KINDS:
        assert oracle_moment(kind, word, fns) == oracle_moment(kind, w, fns), kind
    assert oracle_cmonotone(word, pairs) == oracle_cmonotone(w, pairs)
    assert oracle_cmonotone_all_orders([word], pairs) == oracle_cmonotone_all_orders(
        [w], pairs
    )


# The oracle route: the defining recursions and the factor-size functionals
# they read. It must not share a kernel with the operator route.
ORACLE_CODE = (
    "oracle_moment",
    "oracle_cmonotone",
    "oracle_cmonotone_all_orders",
    "WordPlan",
    "ModelFunctional",
    "AlgebraModel",
)


def _module_tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_series_imports_no_other_ccomb_module():
    for node in ast.walk(_module_tree(series)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.module
            assert not (node.module or "").startswith("ccomb"), node.module
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "ccomb" for a in node.names)


def test_oracle_code_uses_no_sparse_kernel():
    defs = {
        node.name: node
        for node in _module_tree(independence).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for name in ORACLE_CODE:
        for node in ast.walk(defs[name]):
            used = getattr(node, "id", None) or getattr(node, "attr", "")
            assert not used.startswith("sparse_"), (name, used)
