import random

from hypothesis import given
import hypothesis.strategies as st
import pytest
import sympy as sp

from ccomb.graphs import adjacency_matrix
from ccomb.independence import (
    _drop_and_merge,
    AlgebraModel,
    ModelFunctional,
    TableFunctional,
    all_words,
    collapse_word,
    oracle_cmonotone,
    oracle_cmonotone_all_orders,
    oracle_moment,
    parse_word,
    realize_cmonotone_family,
    realize_cmonotone_pair,
    realize_graph_pair,
    realize_pair,
    two_state_pairs,
)
from ccomb.linalg import Matrix, sparse_identity, sparse_sum
from ccomb.products import c_comb_decomposition, c_comb_loop_decomposition
from ccomb.verify import random_model

from conftest import birooted_graphs
from dense_reference import sparse_to_matrix


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
    values = oracle_cmonotone_all_orders(word, pairs)
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


def test_family_cap():
    rng = random.Random(8)
    models = [random_model(rng, dim=2, two_state=True) for _ in range(4)]
    with pytest.raises(ValueError):
        realize_cmonotone_family(models)


def test_family_single_algebra_is_plain_moments():
    rng = random.Random(9)
    m = random_model(rng, two_state=True)
    fam = realize_cmonotone_family([m])
    for n in range(1, 6):
        w = [(0, "a")] * n
        assert fam.moment(w, "phi") == m.vector_state(("a",) * n, m.xi)
        assert fam.moment(w, "psi") == m.vector_state(("a",) * n, m.eta)


def test_model_validation():
    with pytest.raises(ValueError):
        AlgebraModel({}, 0)
    with pytest.raises(ValueError):
        AlgebraModel({"a": Matrix.identity(2)}, 5)
    with pytest.raises(ValueError):
        AlgebraModel({"a": Matrix.identity(2), "b": Matrix.identity(3)}, 0)


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
    def realization(shift):
        models = []
        for g in (g1, g2):
            a = adjacency_matrix(g) - shift * Matrix.identity(g.vertex_count)
            models.append(AlgebraModel({"a": a}, g.root, g.second_root))
        return realize_cmonotone_pair(*models)

    r = realization(0)
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
    r = realization(1)
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
    fam = realize_cmonotone_family([m1, m2])
    p = sparse_to_matrix(fam.separating_projection())
    assert p * p == p
    assert p.entry(fam.phi_index, fam.phi_index) == 1
    assert p.entry(fam.psi_index, fam.psi_index) == 1


def _reference_drop_and_merge(w, i):
    """Drop letter i, then collapse the whole rest: the definition the O(1)
    kernel must agree with."""
    out = []
    for j, names in w[:i] + w[i + 1 :]:
        if out and out[-1][0] == j:
            out[-1] = (j, out[-1][1] + names)
        else:
            out.append((j, names))
    return tuple(out)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from("abc")), min_size=1, max_size=12
    )
)
def test_drop_and_merge_matches_full_collapse(word):
    w = collapse_word(word)
    for i in range(len(w)):
        assert _drop_and_merge(w, i) == _reference_drop_and_merge(w, i)


@pytest.mark.parametrize(
    "letters",
    [((1, "a"), (1, "b"), (2, "a")), ((0, "a"), (1, "a"), (2, "a"))],
)
def test_shared_memo_equals_fresh_calls_in_any_fill_order(letters):
    rng = random.Random(11)
    indices = sorted({j for j, _ in letters})
    models = {
        j: random_model(rng, names=("a", "b"), two_state=True, use_fractions=True)
        for j in indices
    }
    pairs = two_state_pairs(models)
    fns = {j: ModelFunctional(m, m.xi) for j, m in models.items()}
    kinds = ["monotone"] + (["orthogonal"] if len(indices) == 2 else [])
    words = all_words(letters, 6)
    fresh = {
        w: (
            oracle_cmonotone(w, pairs),
            oracle_cmonotone_all_orders(w, pairs),
            [oracle_moment(kind, w, fns) for kind in kinds],
        )
        for w in words
    }
    for order in (words, words[::-1]):
        cmonotone_memo, all_orders_memo = {}, {}
        kind_memos = {kind: {} for kind in kinds}
        for w in order:
            shared = (
                oracle_cmonotone(w, pairs, cmonotone_memo),
                oracle_cmonotone_all_orders(w, pairs, all_orders_memo),
                [oracle_moment(kind, w, fns, kind_memos[kind]) for kind in kinds],
            )
            assert shared == fresh[w], w


def test_memo_refuses_a_second_functional_set():
    rng = random.Random(3)
    models = {j: random_model(rng, two_state=True) for j in (1, 2)}
    memo = {}
    oracle_cmonotone(((1, "a"), (2, "a")), two_state_pairs(models), memo)
    with pytest.raises(ValueError):
        oracle_cmonotone(((1, "a"), (2, "a")), two_state_pairs(models), memo)
