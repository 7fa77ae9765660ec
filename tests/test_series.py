import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ccomb import series
from ccomb.io import format_moment_table
from ccomb.series import (
    ADDITIVE_KINDS,
    MULTIPLICATIVE_KINDS,
    DivisorVanishes,
    FSeries,
    additive_convolve,
    coefficient_formula,
    compose_F,
    compositions,
    eta_from_moments,
    eta_series,
    moment_series,
    moments_from_eta,
    moments_to_F,
    F_to_moments,
    multiplicative_convolve,
    point_mass_moments,
)

from conftest import eta_sequences, moment_sequences, small_fractions
from ring_reference import ModP, mod_p

EDGE = moment_series((1, 0, 1, 0, 1))


def test_moment_series_validation():
    with pytest.raises(ValueError):
        moment_series((2, 0))
    with pytest.raises(ValueError):
        moment_series(())
    with pytest.raises(ValueError):
        FSeries("G", (0, 1))
    with pytest.raises(ValueError):
        FSeries("weird", (1,))


def test_point_mass_moments():
    assert point_mass_moments(0, 3).coeffs == (1, 0, 0, 0)
    assert point_mass_moments(1, 3).coeffs == (1, 1, 1, 1)
    assert point_mass_moments(Fraction(1, 2), 2).coeffs == (
        1,
        Fraction(1, 2),
        Fraction(1, 4),
    )


def test_F_of_point_mass_at_zero_is_z():
    f = moments_to_F(point_mass_moments(0, 4))
    assert f.coeffs == (0, 0, 0, 0)


def test_F_of_edge_moments():
    # the walk generating series of a single edge inverts to z - 1/z
    f = moments_to_F(EDGE)
    assert f.coeffs == (0, -1, 0, 0)
    assert F_to_moments(f).coeffs == EDGE.coeffs


@given(moment_sequences(order=10))
def test_F_roundtrip(m):
    assert F_to_moments(moments_to_F(m)).coeffs == m.coeffs


def test_compose_edge_with_itself_gives_comb_moments():
    f = moments_to_F(EDGE)
    composed = compose_F(f, f)
    assert F_to_moments(composed).coeffs == (1, 0, 2, 0, 5)


@given(moment_sequences(order=8), moment_sequences(order=8))
def test_compose_identity_element(m1, m2):
    ident = moments_to_F(point_mass_moments(0, 8))
    f = moments_to_F(m1)
    assert compose_F(f, ident).coeffs == f.coeffs
    assert compose_F(ident, f).coeffs == f.coeffs


def test_additive_absorbing_element():
    delta0 = point_mass_moments(0, 6)
    for kind in ("monotone", "boolean", "orthogonal"):
        assert additive_convolve(kind, EDGE_6(), delta0).coeffs == EDGE_6().coeffs
    assert (
        additive_convolve("c-monotone", EDGE_6(), delta0, delta0).coeffs
        == EDGE_6().coeffs
    )


def EDGE_6():
    return moment_series((1, 0, 1, 0, 1, 0, 1))


def test_additive_monotone_matches_comb_walks():
    m = additive_convolve("monotone", EDGE, EDGE)
    assert m.coeffs == (1, 0, 2, 0, 5)


@given(moment_sequences(order=8), moment_sequences(order=8))
def test_cmonotone_additive_collapse(m1, m2):
    assert (
        additive_convolve("c-monotone", m1, m2, m2).coeffs
        == additive_convolve("monotone", m1, m2).coeffs
    )


def test_cmonotone_additive_is_orthogonal_then_boolean():
    # F1(F_nu) + F2 - F_nu is the orthogonal F1(F_nu) - F_nu + z, then the
    # boolean sum with F2
    rng = random.Random("comb-at")
    entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    for _ in range(50):
        mu1, mu2, nu2 = (
            moment_series([1] + [entry() for _ in range(12)]) for _ in range(3)
        )
        orthogonal = additive_convolve("orthogonal", mu1, nu2)
        assert additive_convolve("c-monotone", mu1, mu2, nu2) == additive_convolve(
            "boolean", orthogonal, mu2
        )


def test_additive_requires_nu2():
    with pytest.raises(ValueError):
        additive_convolve("c-monotone", EDGE, EDGE)


def test_additive_refuses_mixed_truncation_orders():
    # c-monotone once returned mu2's order when it was the lowest of the three
    m5, m3 = point_mass_moments(1, 5), point_mass_moments(1, 3)
    for kind in ADDITIVE_KINDS:
        nu2 = m5 if kind == "c-monotone" else None
        with pytest.raises(ValueError, match="mixed truncation orders"):
            additive_convolve(kind, m5, m3, nu2)
    with pytest.raises(ValueError, match="mixed truncation orders"):
        additive_convolve("c-monotone", m5, m5, m3)
    # the other kinds do not read nu2
    assert additive_convolve("boolean", m5, m5, m3) == additive_convolve(
        "boolean", m5, m5
    )


def test_multiplicative_refuses_mixed_orders_and_non_eta_inputs():
    eta6, eta4 = eta_series((1, 2, 0, -1, 3, 1)), eta_series((1, 2, 0, -1))
    for kind in MULTIPLICATIVE_KINDS:
        nu2 = eta6 if kind == "c-monotone" else None
        with pytest.raises(ValueError, match="mixed truncation orders"):
            multiplicative_convolve(kind, eta6, eta4, nu2)
    with pytest.raises(ValueError, match="mixed truncation orders"):
        multiplicative_convolve("c-monotone", eta6, eta6, eta4)
    # the other kinds do not read nu2, as in additive_convolve
    for kind in ("monotone", "boolean", "orthogonal"):
        assert multiplicative_convolve(kind, eta6, eta6, eta4) == (
            multiplicative_convolve(kind, eta6, eta6)
        )
    # a moment series, or a transform of another kind, in any slot read
    moments = point_mass_moments(1, 6)
    f = moments_to_F(moments)
    for kind in MULTIPLICATIVE_KINDS:
        for bad in (moments, f):
            slots = [(bad, eta6, eta6), (eta6, bad, eta6)]
            if kind == "c-monotone":
                slots.append((eta6, eta6, bad))
            for args in slots:
                with pytest.raises(ValueError, match="expects eta-series"):
                    multiplicative_convolve(kind, *args)


@st.composite
def int_or_fraction_tables(draw, max_order=10):
    entries = draw(st.sampled_from((st.integers(-4, 4), small_fractions)))
    return draw(st.lists(entries, min_size=1, max_size=max_order))


def _ints_stay_ints(values, *outputs):
    if all(type(x) is int for x in values):
        assert all(type(x) is int for out in outputs for x in out.coeffs)


def test_eta_of_the_point_masses_at_zero_and_one():
    assert eta_from_moments(point_mass_moments(0, 3)).coeffs == (0, 0, 0)
    assert eta_from_moments(point_mass_moments(1, 5)).coeffs == (1, 0, 0, 0, 0)
    assert moments_from_eta(eta_series((1, 0, 0))) == point_mass_moments(1, 3)


@given(int_or_fraction_tables())
def test_moments_eta_moments_roundtrip(values):
    m = moment_series((1, *values))
    eta = eta_from_moments(m)
    back = moments_from_eta(eta)
    assert back == m
    _ints_stay_ints(values, eta, back)


@given(int_or_fraction_tables())
def test_eta_moments_eta_roundtrip(values):
    h = eta_series(values)
    m = moments_from_eta(h)
    back = eta_from_moments(m)
    assert back == h
    _ints_stay_ints(values, m, back)


def test_eta_converters_refuse_order_zero_and_other_series():
    with pytest.raises(ValueError, match="beyond M_0"):
        eta_from_moments(moment_series((1,)))
    for other in (moments_to_F(EDGE), EDGE):
        with pytest.raises(ValueError, match="expected an eta-series"):
            moments_from_eta(other)


@given(eta_sequences(order=8), eta_sequences(order=8))
def test_multiplicative_cmonotone_collapses_to_monotone(h1, h2):
    try:
        got = multiplicative_convolve("c-monotone", h1, h2, h2)
    except DivisorVanishes:
        return
    assert got.coeffs == multiplicative_convolve("monotone", h1, h2).coeffs


@given(eta_sequences(order=8), eta_sequences(order=8))
def test_multiplicative_delta1_collapses_to_orthogonal(h1, h_nu):
    delta1 = eta_from_moments(point_mass_moments(1, 8))
    try:
        got = multiplicative_convolve("c-monotone", h1, delta1, h_nu)
        expect = multiplicative_convolve("orthogonal", h1, h_nu)
    except DivisorVanishes:
        return
    assert got.coeffs == expect.coeffs


@given(eta_sequences(order=8), eta_sequences(order=8), eta_sequences(order=8))
def test_multiplicative_decomposition_law(h1, h2, h_nu):
    try:
        orth = multiplicative_convolve("orthogonal", h1, h_nu)
    except DivisorVanishes:
        return
    boxed = multiplicative_convolve("boolean", orth, h2)
    direct = multiplicative_convolve("c-monotone", h1, h2, h_nu)
    assert direct.coeffs == boxed.coeffs


def test_divisor_vanishes():
    zero = eta_series((0, 0, 0))
    h = eta_series((1, 0, 0))
    with pytest.raises(DivisorVanishes):
        multiplicative_convolve("orthogonal", h, zero)
    with pytest.raises(DivisorVanishes):
        multiplicative_convolve("c-monotone", h, h, zero)
    with pytest.raises(ValueError):
        multiplicative_convolve("c-monotone", h, h)


def test_multiplicative_handles_vanishing_first_coefficient():
    # a divisor with no linear term but nonzero higher terms is fine
    h1 = eta_series((1, 1, 0, 0))
    h2 = eta_series((1, 0, 0, 0))
    h_nu = eta_series((0, 3, 0, 0))
    got = multiplicative_convolve("c-monotone", h1, h2, h_nu)
    expect = tuple(
        coefficient_formula("c-monotone", n, h1.coeffs, h2.coeffs, h_nu.coeffs)
        for n in range(1, 5)
    )
    assert got.coeffs == expect


@pytest.mark.parametrize("kind", ["monotone", "orthogonal", "c-monotone"])
def test_an_integral_eta1_is_not_scaled_by_the_denominators_of_eta2(monkeypatch, kind):
    # eta1 enters these kinds linearly: its scale clears its own denominators
    # alone, while eta2 and eta_nu, composed, are dilated by their own lam
    scales = []
    real = series._dilate

    def spy(seq, lam, first=0, scale=1):
        scales.append((tuple(seq), lam, scale))
        return real(seq, lam, first, scale)

    monkeypatch.setattr(series, "_dilate", spy)
    h1 = eta_series((1, 2, -1, 3))
    h2 = eta_series((Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 7)))
    got = multiplicative_convolve(kind, h1, h2, h2)
    assert scales[0] == (h1.coeffs, 1, 1)
    etas = h1.coeffs, h2.coeffs, h2.coeffs
    assert got.coeffs == tuple(coefficient_formula(kind, n, *etas) for n in range(1, 5))


@pytest.mark.parametrize(
    "eta1, d1",
    [((1, 2, -1, 3), 1), ((Fraction(1, 3), Fraction(-1, 4), 0, 2), 12)],
    ids=["integral-eta1", "fraction-eta1"],
)
def test_each_boolean_factor_is_scaled_by_its_own_denominators(monkeypatch, eta1, d1):
    # both boolean factors enter linearly: each is multiplied by the lcm of its
    # own denominators, not by one scale shared with the other factor
    scales = []
    real = series._dilate

    def spy(seq, lam, first=0, scale=1):
        scales.append((tuple(seq), lam, scale))
        return real(seq, lam, first, scale)

    monkeypatch.setattr(series, "_dilate", spy)
    h1 = eta_series(eta1)
    h2 = eta_series((Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 7)))
    got = multiplicative_convolve("boolean", h1, h2)
    assert scales == [(h1.coeffs, 1, d1), (h2.coeffs, 1, 42)]
    etas = h1.coeffs, h2.coeffs
    assert got.coeffs == tuple(
        coefficient_formula("boolean", n, *etas) for n in range(1, 5)
    )


def test_compositions():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(2, 3)) == []


def test_coefficient_formula_base_cases():
    n1 = (2, 5, 7)
    n2 = (3, 1, 4)
    n_nu = (1, 2, 6)
    assert coefficient_formula("orthogonal", 1, n1, n2) == 2
    assert coefficient_formula("boolean", 1, n1, n2) == 6
    # the empty-composition convention keeps the r = 1 term, so the first
    # monotone and c-monotone coefficients carry the second factor
    assert coefficient_formula("monotone", 1, n1, n2) == 6
    assert coefficient_formula("c-monotone", 1, n1, n2, n_nu) == 6
    assert coefficient_formula("monotone", 2, n1, n2) == 2 * 1 + 5 * 9
    assert coefficient_formula("c-monotone", 2, n1, n2, n_nu) == 2 * 1 + 5 * 1 * 3


@given(eta_sequences(order=8), eta_sequences(order=8), eta_sequences(order=8))
def test_coefficient_formula_matches_engine(h1, h2, h_nu):
    engines = {
        "monotone": multiplicative_convolve("monotone", h1, h2),
        "boolean": multiplicative_convolve("boolean", h1, h2),
        "c-monotone": multiplicative_convolve("c-monotone", h1, h2, h_nu)
        if any(h_nu.coeffs)
        else None,
        "orthogonal": multiplicative_convolve("orthogonal", h1, h2)
        if any(h2.coeffs)
        else None,
    }
    for kind, engine in engines.items():
        if engine is None:
            continue
        for n in range(1, 9):
            assert (
                coefficient_formula(kind, n, h1.coeffs, h2.coeffs, h_nu.coeffs)
                == engine.coeffs[n - 1]
            ), (kind, n)


def _orthogonal_reference(n, n_mu1, n_mu2):
    # the direct orthogonal sum: N1(r) times products of N2 over the
    # compositions of n - 1 into r - 1 parts, r >= 2; n = 1 gives N1(1)
    if n == 1:
        return n_mu1[0]
    total = 0
    for r in range(2, n + 1):
        for ks in compositions(n - 1, r - 1):
            term = n_mu1[r - 1]
            for k in ks:
                term *= n_mu2[k - 1]
            total += term
    return total


_sparse_etas = st.lists(
    st.one_of(st.just(0), small_fractions), min_size=10, max_size=10
)


@given(_sparse_etas, _sparse_etas)
def test_orthogonal_coefficient_formula_matches_direct_sum(n_mu1, n_mu2):
    # orthogonal is the c-monotone sum with mu2 the point mass at 1
    for n in range(1, 11):
        assert coefficient_formula("orthogonal", n, n_mu1, n_mu2) == (
            _orthogonal_reference(n, n_mu1, n_mu2)
        ), n


def test_csv_rows():
    rows = format_moment_table((1, Fraction(3, 2)), first_index=0).splitlines()
    assert rows[0] == "n,fraction,decimal"
    assert rows[1] == "0,1,1.0"
    assert rows[2] == "1,3/2,1.5"


# -- the kernels on rings other than the rationals ------------------------------


def _random_fractions(rng, count):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(count)]


def test_kernels_on_integers_mod_p_match_the_rationals_reduced_mod_p():
    rng = random.Random("mod-p")
    order = 8
    moments = [moment_series([1, *_random_fractions(rng, order)]) for _ in range(3)]
    etas = [eta_series(_random_fractions(rng, order)) for _ in range(3)]
    ring_moments = [moment_series(mod_p(m.coeffs)) for m in moments]
    ring_etas = [eta_series(mod_p(h.coeffs)) for h in etas]
    for kind in ADDITIVE_KINDS:
        exact = additive_convolve(kind, *moments).coeffs
        ring = additive_convolve(kind, *ring_moments).coeffs
        assert all(type(x) is ModP for x in ring[1:]), kind
        assert ring == mod_p(exact), kind
        # a call may mix Fraction inputs with the ring's
        mixed = additive_convolve(kind, moments[0], *ring_moments[1:]).coeffs
        assert mixed == mod_p(exact), kind
    for kind in MULTIPLICATIVE_KINDS:
        exact = multiplicative_convolve(kind, *etas).coeffs
        ring = multiplicative_convolve(kind, *ring_etas).coeffs
        assert all(type(x) is ModP for x in ring), kind
        assert ring == mod_p(exact), kind
        mixed = multiplicative_convolve(kind, etas[0], *ring_etas[1:]).coeffs
        assert mixed == mod_p(exact), kind
        for n in range(1, order + 1):
            seqs = [h.coeffs for h in etas]
            value = coefficient_formula(kind, n, *(mod_p(c) for c in seqs))
            assert type(value) is ModP, (kind, n)
            assert value == ModP(coefficient_formula(kind, n, *seqs)), (kind, n)


def test_integer_input_gives_integer_coefficients():
    rng = random.Random("integers")
    order = 8
    moments = [moment_series([1, *(rng.randint(-4, 4) for _ in range(order))])]
    moments += [moment_series((1, 0, 1, 0, 1, 0, 2, 0, 5)), point_mass_moments(2, 8)]
    etas = [eta_series([rng.randint(-4, 4) for _ in range(order)]) for _ in range(3)]
    results = [moments_to_F(moments[0]), eta_from_moments(moments[0])]
    results += [additive_convolve(kind, *moments) for kind in ADDITIVE_KINDS]
    results += [multiplicative_convolve(kind, *etas) for kind in MULTIPLICATIVE_KINDS]
    for result in results:
        assert all(type(x) is int for x in result.coeffs), result
    seqs = [h.coeffs for h in etas]
    for kind in MULTIPLICATIVE_KINDS:
        assert all(
            type(coefficient_formula(kind, n, *seqs)) is int
            for n in range(1, order + 1)
        ), kind
