"""Acceptance suite: every criterion runs at full scale with exact (zero
tolerance) comparisons and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import ast
import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy as sp

from ccomb import graphs, independence, series, verify
from ccomb.independence import oracle_cmonotone
from ccomb.linalg import Matrix, sparse_sum
from ccomb.verify import VerifyConfig
from oracle_reference import TableFunctional

CFG = VerifyConfig()  # order 12, words to 8, 20 random graph pairs, 50 models


def report(name, check, extra=""):
    status = "PASS" if check.passed else "FAIL"
    print(f"\n[{status}] {name}: {check.detail}{extra}")
    assert check.passed, f"{name}: {check.detail}"


@pytest.fixture(scope="module")
def additive():
    return verify.additive_pairs(CFG)


@pytest.fixture(scope="module")
def multiplicative():
    return verify.multiplicative_pairs(CFG)


@pytest.fixture(scope="module")
def models():
    return verify.model_pairs(CFG)


@pytest.fixture(scope="module")
def families():
    return verify.family_models(CFG)


def test_verify_report_is_pinned():
    # every check's detail line, at a small config; a change to the report
    # text or to what a check computes shows up here
    cfg = VerifyConfig(order=6, max_word=4, graph_samples=3, model_samples=4, seed=0)
    report_text = verify.format_report(verify.run_suite("all", cfg), cfg)
    assert hashlib.sha256(report_text.encode()).hexdigest() == (
        "f53b24b9d358d85820c43d0031e10e6a0ed03f7b9850770fe1c2ed6af529acd4"
    )


def _stable(value):
    """A recorded argument in a form whose repr is fixed: sets sorted,
    dicts by key, matrices as their shape and entries."""
    if isinstance(value, Matrix):
        return ("Matrix", value.rows, value.cols, value.data)
    if isinstance(value, dict):
        return tuple(sorted((k, _stable(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_stable(v) for v in value)
    return value


def test_verify_draws_pinned_cases(monkeypatch):
    # the report pin shows only counts; this pins the cases the suites draw,
    # so a reordered or changed draw shows up even when every check passes
    calls = []

    def recording(name, original):
        def record(*args, **kwargs):
            calls.append((name, _stable(args), _stable(kwargs)))
            return original(*args, **kwargs)

        return record

    for name in ("moment_series", "eta_series", "rooted", "birooted", "AlgebraModel"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    cfg = VerifyConfig(order=6, max_word=4, graph_samples=3, model_samples=4, seed=0)
    assert all(c.passed for c in verify.run_suite("all", cfg))
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == (
        "97173e57beed1106f11a3168b5abd153ebc86634a04caf3d820d110c31c604ce"
    )


def _identity_witness(seed):
    cfg = VerifyConfig(order=6, seed=seed)
    (check,) = [
        c
        for c in verify.transforms_suite(cfg)
        if c.name == "multiplicative-identity-element"
    ]
    assert not check.passed
    return check.detail


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_a_check_draws_its_cases_whatever_earlier_checks_draw(monkeypatch, seed):
    # monotone multiplicative convolution faulted where the first factor's
    # first eta coefficient is negative: only the right identity of such a
    # case fails, so the witness names the first case drawn negative
    real = verify.multiplicative_convolve

    def faulty(kind, mu1, mu2, nu2=None):
        out = real(kind, mu1, mu2, nu2)
        if kind == "monotone" and mu1.coeffs[0] < 0:
            return verify.eta_series((out.coeffs[0] + 1,) + out.coeffs[1:])
        return out

    monkeypatch.setattr(verify, "multiplicative_convolve", faulty)
    witness = _identity_witness(seed)
    # an earlier check that now draws nothing
    stub = verify._check("compose-identity")(lambda rng, samples, order: None)
    monkeypatch.setattr(verify, "check_compose_identity", stub)
    assert _identity_witness(seed) == witness


# boolean additive convolution broken to F1 + 2 F2 (on the F(z) - z
# coefficients), so it no longer commutes
_BROKEN_BOOLEAN = """
import random, sys
from ccomb import verify
from ccomb.series import F_to_moments, FSeries, moments_to_F

real = verify.additive_convolve

def broken(kind, mu1, mu2, nu2=None):
    if kind != "boolean":
        return real(kind, mu1, mu2, nu2)
    f1, f2 = moments_to_F(mu1).coeffs, moments_to_F(mu2).coeffs
    return F_to_moments(FSeries("F", tuple(a + 2 * b for a, b in zip(f1, f2))))

verify.additive_convolve = broken
check = verify.check_boolean_commutative(random.Random(0), 3, 6)
print(sys.flags.optimize, check.name, check.passed, repr(check.detail))
"""


def test_a_broken_identity_fails_under_python_O():
    # python -O strips assert statements; a verdict must not depend on them
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_BOOLEAN],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    assert out == "1 boolean-additive-commutative False 'sample 0'\n"


def test_a_check_that_raises_reports_error():
    @verify._check("raises")
    def check():
        raise ValueError("no such case")

    assert check() == verify.Check("raises", False, "error: ValueError('no such case')")


def test_an_error_names_its_sample_or_its_pair(monkeypatch):
    # an exception other than a mismatch keeps the index of the case it hit
    @verify._sampled("sampled", lambda rng, order: next(cases))
    def sampled(order, k):
        if k == 2:
            raise ValueError("case two")

    cases = iter(range(5))
    assert sampled(random.Random(0), 5, 3) == verify.Check(
        "sampled", False, "sample 2: error: ValueError('case two')"
    )

    @verify._pairwise("paired")
    def paired(g1, g2, order):
        if g1 == 2:
            raise ValueError("pair two")
        return {"left": (g1,), "right": (g2,)}

    assert paired([(k, k) for k in range(5)], 3) == verify.Check(
        "paired", False, "pair 2: error: ValueError('pair two')"
    )

    # a check's own model loop names the model it hit
    models = verify.model_pairs(CFG)
    pair = verify.realize_cmonotone_pair

    def raising_at_model_three(m1, m2, variant=False):
        if m1 is models[3][0]:
            raise ZeroDivisionError("boom")
        return pair(m1, m2, variant)

    monkeypatch.setattr(verify, "realize_cmonotone_pair", raising_at_model_three)
    assert verify.check_cmonotone_pair(models, 4) == verify.Check(
        "cmonotone-pair-oracle-equality",
        False,
        "model 3: error: ZeroDivisionError('boom')",
    )


def _check_cases(name):
    cfg = VerifyConfig(graph_samples=3, model_samples=3)
    models = verify.model_pairs(cfg)
    walks = lambda: verify._drawing(cfg, verify.check_walk_cross_oracle, 3)
    runs = {
        "family": lambda: verify.check_family_three(verify.family_models(cfg), 3),
        "bridge": lambda: verify.check_c_comb_bridge(cfg, 3),
        "restriction": lambda: verify.check_restriction_equalities(
            verify.additive_pairs(cfg)
        ),
        "superposition": lambda: verify._drawing(cfg, verify.check_superposition, 3),
        "walks": walks,
        "walk samples": walks,
        "pair kinds": lambda: verify.check_pair_kinds(models, 3),
        "single letter": lambda: verify.check_single_letter_states(models),
        "c-monotone pair": lambda: verify.check_cmonotone_pair(models, 3),
        "family pair": lambda: verify.check_family_pair_consistency(models, 3),
        "local maximum": lambda: verify.check_local_max_choice(models),
        "collapse": lambda: verify.check_psi_equals_phi_collapse(models, 3),
        "separating": lambda: verify.check_separating_projection(models),
    }
    return runs[name]


def _doubled(realization):
    """Every operator of a realization twice over: every moment of a word
    of length n is 2**n times too large."""
    for key, op in list(realization.operators.items()):
        realization.operators[key] = sparse_sum(op, op)
    return realization


def _doubled_projection(family):
    projection = family.separating_projection()
    family.separating_projection = lambda: sparse_sum(projection, projection)
    return family


def _one_too_high(moments):
    return verify.moment_series(moments.coeffs[:-1] + (moments.coeffs[-1] + 1,))


# each case loop's forced mismatch: (target, call from 0, wrong result), the
# call in the case its error row names
_MISMATCHES = {
    "family": ("realize_cmonotone_family", 1, _doubled),
    "bridge": ("realize_graph_pair", 1, lambda out: (_doubled(out[0]), out[1])),
    "restriction": ("adjacency_columns", 6, lambda columns: columns[:-1]),
    "superposition": ("relabel_isomorphic", 1, lambda isomorphic: False),
    "walks": ("root_moments", 1, _one_too_high),
    "walk samples": ("brute_force_closed_walks", 25, lambda count: count + 1),
    "pair kinds": ("realize_pair", 1, _doubled),
    "single letter": ("realize_pair", 1, _doubled),
    "c-monotone pair": ("realize_cmonotone_pair", 1, _doubled),
    "family pair": ("realize_cmonotone_family", 1, _doubled),
    "local maximum": (
        "WordPlan.all_orders",
        1,
        lambda values: [(*v, None) for v in values],
    ),
    "collapse": (
        "WordPlan.cmonotone",
        1,
        lambda moments: [(phi + 1, psi) for phi, psi in moments],
    ),
    "separating": ("realize_cmonotone_family", 1, _doubled_projection),
}


def _at_call(monkeypatch, target, call, change):
    """Patch `verify.<target>`, a dotted path, so that its result at call
    number `call` (from 0) goes through `change`."""
    *path, name = target.split(".")
    owner = verify
    for attribute in path:
        owner = getattr(owner, attribute)
    real, calls = getattr(owner, name), iter(range(1000))

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return change(out) if next(calls) == call else out

    monkeypatch.setattr(owner, name, patched)


def _boom(out):
    raise ValueError("boom")


@pytest.mark.parametrize(
    "check, target, detail",
    [
        ("family", "realize_cmonotone_family", "family 1: error: ValueError('boom')"),
        ("bridge", "realize_graph_pair", "pair 1: error: ValueError('boom')"),
        ("restriction", "c_comb_decomposition", "pair 1: error: ValueError('boom')"),
        ("superposition", "superposition_map", "case 1: error: ValueError('boom')"),
        ("walks", "root_moments", "deep case 1: error: ValueError('boom')"),
        (
            "walk samples",
            "random_birooted_graph",
            "sample 1: error: ValueError('boom')",
        ),
        ("pair kinds", "realize_pair", "model 0: error: ValueError('boom')"),
        ("single letter", "realize_pair", "model 0: error: ValueError('boom')"),
        (
            "c-monotone pair",
            "realize_cmonotone_pair",
            "model 0: error: ValueError('boom')",
        ),
        (
            "family pair",
            "realize_cmonotone_family",
            "model 1: error: ValueError('boom')",
        ),
        (
            "local maximum",
            "WordPlan.all_orders",
            "model 1: error: ValueError('boom')",
        ),
        ("collapse", "WordPlan.cmonotone", "model 1: error: ValueError('boom')"),
        (
            "separating",
            "realize_cmonotone_family",
            "model 1: error: ValueError('boom')",
        ),
    ],
)
def test_each_case_loop_names_the_case_an_error_hits(monkeypatch, check, target, detail):
    # the second call raises; each check's loop names its case through
    # `_case`, as `_sampled` and `_pairwise` do
    with monkeypatch.context() as patch:
        _at_call(patch, target, 1, _boom)
        result = _check_cases(check)()
    assert not result.passed and result.detail == detail
    # a mismatch in that case gets the same label in front of its witness
    label = detail.removesuffix(": error: ValueError('boom')")
    _at_call(monkeypatch, *_MISMATCHES[check])
    result = _check_cases(check)()
    assert not result.passed and "error" not in result.detail, result.detail
    assert re.match(f"{label}[:,] ", result.detail), result.detail


def _second_choice_without_psi_z(plan, a, b):
    """`WordPlan._run_all_orders` with the psi * z term dropped from the
    second alternative of every node: a phi that depends on which local
    maximum is stripped first."""
    nodes, targets, _, _ = plan._compile("all-orders")
    sets = [frozenset({1})]
    for node in nodes:
        if type(node[0]) is int:
            sets.append(frozenset({a[node[0]]}))
            continue
        acc = set()
        for k, (s, left, right, rest) in enumerate(node):
            for x in sets[left]:
                for y in sets[right]:
                    for z in sets[rest]:
                        acc.add((a[s] - b[s]) * x * y + (0 if k == 1 else b[s] * z))
        sets.append(frozenset(acc))
    return [sets[t] for t in targets]


def test_a_choice_dependent_all_orders_node_fails_the_local_maximum_check(
    monkeypatch,
):
    # the check reads the plan's value sets: a node whose alternatives
    # disagree gives the first word with two local maxima two values
    models = verify.model_pairs(VerifyConfig())
    assert verify.check_local_max_choice(models).passed
    monkeypatch.setattr(
        independence.WordPlan, "_run_all_orders", _second_choice_without_psi_z
    )
    result = verify.check_local_max_choice(models)
    assert not result.passed
    assert result.detail == "model 0, word ((2, 'a'), (1, 'a'), (2, 'a')): 2 values"


@pytest.mark.parametrize(
    "check, owner, route, change",
    [
        ("check_local_max_choice", "WordPlan", "all_orders", lambda sets: []),
        ("check_local_max_choice", "WordPlan", "all_orders", lambda sets: sets[:3]),
        (
            "check_separating_projection",
            "WordMomentEvaluator",
            "moments",
            lambda moments: moments[:-1],
        ),
    ],
    ids=["no-sets", "three-sets", "last-moment-dropped"],
)
def test_a_route_short_of_its_words_fails_its_check(
    monkeypatch, check, owner, route, change
):
    # each check zips its words with a route's values: a route that returns
    # fewer values than words fails, where a plain zip would pass on the
    # words it got
    models = verify.model_pairs(VerifyConfig())
    run = getattr(verify, check)
    assert run(models).passed
    cls = getattr(independence, owner)
    real = getattr(cls, route)
    monkeypatch.setattr(cls, route, lambda self, *args: change(real(self, *args)))
    result = run(models)
    assert not result.passed
    assert result.detail.startswith("model 0: error: ValueError("), result.detail


def test_the_drawn_graph_checks_name_their_sample(monkeypatch):
    # the vertex-count, comb-at and comb-loop checks run through `_sampled`:
    # an error and a mismatch both start with the index of the case they hit
    real_star, calls = verify.star_product, iter(range(100))

    def star_raising_at_case_two(g1, g2):
        if next(calls) == 2:
            raise ValueError("case two")
        return real_star(g1, g2)

    monkeypatch.setattr(verify, "star_product", star_raising_at_case_two)
    checks = [verify._drawing(CFG, verify.check_vertex_count_formulas, 5)]
    monkeypatch.setattr(verify, "relabel_isomorphic", lambda *args: False)
    checks.append(verify._drawing(CFG, verify.check_comb_at_collapse, 5))
    # a comb product adds no loops to loop-free factors
    monkeypatch.setattr(verify, "comb_loop_product", verify.comb_product)
    checks.append(verify._drawing(CFG, verify.check_comb_loop_loops, 5))
    assert [c.detail for c in checks] == [
        "sample 2: error: ValueError('case two')",
        "sample 0: comb-at with equal roots is not the comb product",
        "sample 0: 0 loops, expected 20",
    ]


@pytest.mark.parametrize(
    "name, check, detail",
    [
        (
            "eta_from_moments",
            "psi_eta_roundtrip",
            "sample 0: moments-eta-moments roundtrip",
        ),
        (
            "moments_from_eta",
            "psi_eta_roundtrip",
            "sample 0: moments-eta-moments roundtrip",
        ),
        ("moments_to_F", "F_roundtrip", "F-series of the edge moments 1, 0, 1, 0, 1"),
    ],
)
def test_a_broken_transform_names_the_comparison_it_fails(
    monkeypatch, name, check, detail
):
    # the last coefficient one too high; moments_to_F only on the edge
    # sequence of the after-hook, so every drawn case still agrees
    real = getattr(verify, name)

    def broken(series):
        out = real(series)
        if name == "moments_to_F" and series.coeffs != (1, 0, 1, 0, 1):
            return out
        return dataclasses.replace(out, coeffs=(*out.coeffs[:-1], out.coeffs[-1] + 1))

    monkeypatch.setattr(verify, name, broken)
    result = verify._drawing(CFG, getattr(verify, f"check_{check}"), 20, 12)
    assert not result.passed and result.detail == detail


def test_a_broken_c_monotone_marginal_names_its_model_algebra_and_state(monkeypatch):
    pair = verify.realize_cmonotone_pair

    def doubled(m1, m2, variant=False):
        r = pair(m1, m2, variant)
        op = r.operators[(2, "a")]
        r.operators[(2, "a")] = sparse_sum(op, op)
        return r

    monkeypatch.setattr(verify, "realize_cmonotone_pair", doubled)
    check = verify.check_single_letter_states(verify.model_pairs(CFG))
    assert check.detail == "model 0: c-monotone phi of algebra 2"


@pytest.mark.parametrize("helper", ["_dilate", "_undilate"])
def test_a_series_route_dilated_one_degree_off_fails_verify_transforms(
    monkeypatch, helper
):
    # a dilation one power of lam off in the kernels: the formula route does
    # its own scaling, so the engine-formula check disagrees at its first case
    real = getattr(series, helper)

    def off(seq, lam, first=0, scale=1):
        return real(seq, lam, first + 1, scale)

    monkeypatch.setattr(series, helper, off)
    checks = verify.run_suite("transforms", CFG)
    failures = {c.name: c.detail for c in checks if not c.passed}
    assert failures["transforms/coefficient-formula-engine-equality"] == (
        "sample 0, monotone, n=1"
    )
    assert all(re.match(r"sample \d+", d) for d in failures.values()), failures


def _plan_counts_one_power_up(monkeypatch):
    # each nonempty word divided by one more power of c than its name count
    real = independence.WordPlan._names.func

    def names(plan):
        return [n + 1 if n else 0 for n in real(plan)]

    monkeypatch.setattr(independence.WordPlan, "_names", property(names))


def _evaluator_divisors_one_power_up(monkeypatch):
    # each letter divided by d ** 2 where the operators were scaled by d
    evaluator = independence.WordMomentEvaluator
    real = evaluator.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if self._scale is not None:
            self._scale *= self._scale

    monkeypatch.setattr(evaluator, "__init__", init)


@pytest.mark.parametrize(
    "mutate", [_plan_counts_one_power_up, _evaluator_divisors_one_power_up]
)
def test_an_independence_route_scaled_one_power_off_fails_verify_independence(
    monkeypatch, mutate
):
    # each route undoes its own integer scaling: a scale one power off on
    # either side makes the two routes disagree at the first Fraction model
    # of each check that compares them. Family 0's algebra 0 has integral
    # Fraction entries only, so it is off by the family's shared scale too
    mutate(monkeypatch)
    checks = verify.run_suite("independence", CFG)
    failures = {c.name: c.detail for c in checks if not c.passed}
    expected = {
        "independence/pair-kind-oracle-equality": "model 0, word ((1, 'a'),): boolean",
        "independence/cmonotone-pair-oracle-equality": "model 0, word ((1, 'a'),): phi",
        "independence/family-three-oracle-equality": "family 0, word ((0, 'a'),): psi",
    }
    if mutate is _evaluator_divisors_one_power_up:
        # the separating projection is typed like its Fraction family, so the
        # evaluator runs that check scaled, and a word with the projection
        # inserted carries one more letter than its two flanks
        expected["independence/separating-projection-splits-moments"] = (
            "model 0, words ((0, 'a'),)|((0, 'a'),)"
        )
    assert failures == expected


def test_a_broken_word_fails_with_the_first_witness_of_a_word_walk(monkeypatch):
    # the word checks compare whole value lists and walk the words only on a
    # difference, word first, then tag, then phi before psi: the witness is
    # the one a comparison word by word names first
    cfg = VerifyConfig(model_samples=3, graph_samples=2)
    models = verify.model_pairs(cfg)
    cmonotone, moments = verify.WordPlan.cmonotone, verify.WordPlan.moments

    def shifted_cmonotone(plan, pairs):
        values = cmonotone(plan, pairs)
        values[9] = (values[9][0] + 1, values[9][1])
        values[5] = (values[5][0], values[5][1] + 1)
        return values

    def shifted_moments(plan, kind, functionals):
        values = moments(plan, kind, functionals)
        if kind == "tensor":
            values[4] += 1
        return values

    pair = verify.realize_cmonotone_pair

    def doubled_variant(m1, m2, variant=False):
        r = pair(m1, m2, variant)
        if variant:
            op = r.operators[(2, "a")]
            r.operators[(2, "a")] = sparse_sum(op, op)
        return r

    with monkeypatch.context() as patch:
        patch.setattr(verify.WordPlan, "cmonotone", shifted_cmonotone)
        patch.setattr(verify.WordPlan, "moments", shifted_moments)
        oracle_broken = [
            verify.check_pair_kinds(models, 4),
            verify.check_cmonotone_pair(models, 4),
            verify.check_family_three(verify.family_models(cfg), 3),
            verify.check_c_comb_bridge(cfg, 4),
        ]
    monkeypatch.setattr(verify, "realize_cmonotone_pair", doubled_variant)
    variant_broken = [
        verify.check_family_pair_consistency(models, 4),
        verify.check_cmonotone_pair(models, 4),
    ]
    assert [c.detail for c in oracle_broken + variant_broken] == [
        "model 0, word ((2, 'a'), (1, 'a')): tensor",
        "model 0, word ((2, 'a'), (2, 'a')): psi",
        "family 0, word ((0, 'a'), (2, 'a')): psi",
        "pair 0, word ((2, 'a'), (2, 'a')): psi",
        "model 0, word ((2, 'a'),): phi",
        "model 0, word ((2, 'a'),): variant phi",
    ]


def _products_failures():
    cfg = VerifyConfig(order=6, graph_samples=3)
    return {c.name: c.detail for c in verify.products_suite(cfg) if not c.passed}


@pytest.mark.parametrize(
    "decompose, check",
    [
        ("c_comb_decomposition", "additive-second-root-split"),
        ("c_comb_loop_decomposition", "multiplicative-second-root-monotone"),
    ],
)
@pytest.mark.parametrize("shift", [1, -1])
def test_a_wrong_second_root_index_fails_on_the_operator_route(
    monkeypatch, decompose, check, shift
):
    # the operator route reads the decomposition at psi_index: a state one
    # coordinate off must disagree with the walks at f, in this check alone
    real = getattr(verify, decompose)

    def shifted(g1, g2):
        dec = real(g1, g2)
        return dataclasses.replace(dec, psi_index=dec.psi_index + shift)

    monkeypatch.setattr(verify, decompose, shifted)
    failures = _products_failures()
    assert list(failures) == [check]
    assert failures[check].startswith("pair 0: walks vs operator differ at n=")


def test_a_broken_series_fails_on_the_series_route(monkeypatch):
    # the last additive moment shifted by one: walks and operator still
    # agree, so the witness names the series route at its index
    real = verify.additive_convolve

    def shifted(kind, mu1, mu2, nu2=None):
        out = real(kind, mu1, mu2, nu2).coeffs
        return verify.moment_series(out[:-1] + (out[-1] + 1,))

    monkeypatch.setattr(verify, "additive_convolve", shifted)
    failures = _products_failures()
    assert failures["additive-three-route"] == "pair 0: walks vs series differ at n=6"
    assert failures["additive-second-root-split"] == (
        "pair 0: walks vs series differ at n=6"
    )


def test_a_moment_kernel_one_too_high_fails_the_walk_cross_oracle(monkeypatch):
    # the walk counters share no code with the walk kernel, so a kernel
    # that gets M_12 one too high disagrees with the walks at length 12
    real = graphs._walk_moments

    def high(g, order, at, colors):
        out = real(g, order, at, colors).coeffs
        if order >= 12:
            out = out[:12] + (out[12] + 1,) + out[13:]
        return verify.moment_series(out)

    monkeypatch.setattr(graphs, "_walk_moments", high)
    check = verify._drawing(CFG, verify.check_walk_cross_oracle, 6)
    assert check == verify.Check(
        "walk-count-cross-oracle",
        False,
        "deep case 0: walk count mismatch at length 12",
    )


def test_an_operator_kernel_one_step_late_fails_every_operator_route(monkeypatch):
    # the operator kernel walks the plain chain and the walks kernel half of
    # it: a kernel that reads M_n one step late from n = 3 disagrees with the
    # walks in each check that compares the two, at e and at f
    real = verify.sparse_moments

    def late(steps, order, at):
        out = real(steps, order + 1, at)
        return out[:3] + out[4:]

    monkeypatch.setattr(verify, "sparse_moments", late)
    witness = "pair 0: walks vs operator differ at n=3"
    assert _products_failures() == {
        "additive-three-route": witness,
        "additive-second-root-split": witness,
        "multiplicative-eta-three-route": witness,
        "multiplicative-second-root-monotone": witness,
    }


def test_a_walk_kernel_that_never_walks_the_back_chain_fails(monkeypatch):
    # a walk kernel that reads M_2k as <v_k, v_k> for the two-step walks,
    # as it may only for a palindrome, disagrees with the enumerated
    # colored split and with the operator route of both eta checks
    def forward_only(g, order, at, colors):
        steps = [graphs._neighbor_lists(g, c) for c in colors]
        v = {graphs._vertex(g, at): 1}
        out = [1]
        for n in range(1, order + 1):
            w = v
            if n % 2:
                for adj in steps:
                    v = graphs._walk_step(adj, v)
            out.append(sum(x * v.get(i, 0) for i, x in w.items()))
        return verify.moment_series(tuple(out))

    monkeypatch.setattr(graphs, "_walk_moments", forward_only)
    failures = _products_failures()
    assert failures == {
        "colored-adjacency-split": "pair 0: walks vs enumerated differ at n=2",
        "multiplicative-eta-three-route": "pair 0: walks vs operator differ at n=2",
        "multiplicative-second-root-monotone": "pair 0: walks vs operator differ at n=2",
    }


def test_a_walk_counter_that_drops_the_first_return_rule_fails_the_d_walks(
    monkeypatch,
):
    # every closed alternating walk counted as a d-walk: only the d-walk
    # check compares first returns, and it sees them first at length 4
    real = graphs._closed_walks

    def every_return(g, length, at, colors, first_return):
        return real(g, length, at, colors, False)

    monkeypatch.setattr(graphs, "_closed_walks", every_return)
    assert _products_failures() == {
        "d-walk-first-return-counts": "pair 0: d-walks vs series differ at n=2",
    }


def test_a_walk_counter_that_ignores_the_colors_fails_both_colored_checks(
    monkeypatch,
):
    # any edge at every step: the enumerated and the d-walk routes both
    # count walks the two-step operator does not take, from length 2
    real = graphs._closed_walks

    def uncolored(g, length, at, colors, first_return):
        return real(g, length, at, (None,), first_return)

    monkeypatch.setattr(graphs, "_closed_walks", uncolored)
    assert _products_failures() == {
        "colored-adjacency-split": "pair 0: walks vs enumerated differ at n=1",
        "d-walk-first-return-counts": "pair 0: d-walks vs series differ at n=1",
    }


def test_a_pair_check_takes_a_generator_and_prefixes_a_routes_witness(monkeypatch):
    pairs = verify.multiplicative_pairs(VerifyConfig(graph_samples=2))
    check = verify.check_multiplicative_second_root((p for p in pairs), 4)
    assert check == verify.Check(
        "multiplicative-second-root-monotone", True, "3 pairs, order 4"
    )
    # a mismatch raised inside the routes gets the pair prefix too
    monkeypatch.setattr(verify, "sparse_sum", lambda *ops: ops[0])
    check = verify.check_colored_split(p for p in pairs)
    assert check.detail == "pair 0: color split does not sum"


def test_verify_has_no_assert_statements():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_verify_names_a_case_in_one_place():
    # one try makes the verdict (`_check`) and one names the case (`_case`):
    # a case loop with a try of its own would name its case a second way
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    owners = [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, tries)
    ]
    assert owners == ["_case", "_check"]
    assert sum(isinstance(node, tries) for node in ast.walk(tree)) == 2


def test_additive_three_route_agreement(additive):
    started = time.perf_counter()
    check = verify.check_additive_three_route(additive, CFG.order)
    elapsed = time.perf_counter() - started
    report(
        "three-route additive moment agreement",
        check,
        extra=f" ({elapsed:.1f}s, budget 60s)",
    )
    assert elapsed < 60.0


def test_second_root_monotone_split(additive):
    check = verify.check_second_root_split(additive, CFG.order)
    report("second-root moments equal the monotone convolution", check)


def test_independence_oracle_equivalence(models, families):
    checks = [
        ("two-algebra kinds", verify.check_pair_kinds(models, CFG.max_word)),
        ("marginal states", verify.check_single_letter_states(models)),
        (
            "c-monotone pair and variant",
            verify.check_cmonotone_pair(models, CFG.max_word),
        ),
        (
            "three-algebra family",
            verify.check_family_three(families, verify.FAMILY_WORD),
        ),
        (
            "family reduces to the pair",
            verify.check_family_pair_consistency(models, verify.FAMILY_WORD),
        ),
        ("reduction-order independence", verify.check_local_max_choice(models)),
        (
            "two equal states collapse to monotone",
            verify.check_psi_equals_phi_collapse(models, CFG.max_word),
        ),
        (
            "separating projection splits moments",
            verify.check_separating_projection(models),
        ),
    ]
    for name, check in checks:
        report(f"independence oracle equivalence / {name}", check)


def test_symbolic_two_state_expansions():
    # length-3 word: phi(a b a') in fully symbolic moment tables
    s = {
        n: sp.Symbol(n)
        for n in (
            "pa pa2 pa3 paa2 pa2a3 paa2a3 pb pb2 qb qb2 raa2 raa2a3".split()
        )
    }
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
    psi1 = TableFunctional(
        {("a", "a'"): s["raa2"], ("a", "a'", "a''"): s["raa2a3"]}
    )
    phi2 = TableFunctional({("b",): s["pb"], ("b'",): s["pb2"]})
    psi2 = TableFunctional({("b",): s["qb"], ("b'",): s["qb2"]})
    pairs = {1: (phi1, psi1), 2: (phi2, psi2)}

    short, _ = oracle_cmonotone(((1, "a"), (2, "b"), (1, "a'")), pairs)
    short_expected = (
        s["pa"] * s["pa2"] * s["pb"]
        + s["paa2"] * s["qb"]
        - s["pa"] * s["pa2"] * s["qb"]
    )
    ok_short = sp.expand(short - short_expected) == 0

    long, _ = oracle_cmonotone(
        ((1, "a"), (2, "b"), (1, "a'"), (2, "b'"), (1, "a''")), pairs
    )
    long_expected = (
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
    ok_long = sp.expand(long - long_expected) == 0

    status = "PASS" if (ok_short and ok_long) else "FAIL"
    print(f"\n[{status}] symbolic two-state expansions (length 3 and 5)")
    assert ok_short and ok_long


def test_multiplicative_three_route_agreement(multiplicative):
    for name, check in (
        (
            "eta coefficients at e (graph vs series vs sums)",
            verify.check_multiplicative_three_route(multiplicative, verify.MULT_ORDER),
        ),
        (
            "eta coefficients at f equal the monotone values",
            verify.check_multiplicative_second_root(multiplicative, verify.MULT_ORDER),
        ),
        (
            "alternating d-walk counts",
            verify.check_d_walk_counts(multiplicative, verify.WALK_ORDER),
        ),
    ):
        report(f"multiplicative agreement / {name}", check)


def test_convolution_collapse_laws():
    import random

    rng = random.Random(CFG.seed + 3)
    order = 10
    for name, check in (
        (
            "c-monotone additive with nu = mu is monotone",
            verify.check_additive_collapses(rng, 20, order),
        ),
        (
            "point mass at 1 reduces to orthogonal",
            verify.check_mult_delta1(rng, 20, order),
        ),
        (
            "nu = mu reduces to monotone",
            verify.check_mult_nu_eq_mu(rng, 20, order),
        ),
        (
            "boolean of orthogonal decomposition",
            verify.check_mult_decomposition(rng, 20, order),
        ),
        (
            "coefficient sums equal the series engine",
            verify.check_coefficient_formula_engine(rng, 8, order),
        ),
    ):
        report(f"collapse laws / {name}", check)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_noncommutative_witnesses_below_their_separating_order(order):
    # the edge/loop witness separates from order 3 and the c-monotone one
    # from order 4, so a low --order must not turn the check into a FAIL
    report(
        f"non-commutativity witnesses at order {order}",
        verify.check_noncommutative_witnesses(order),
    )


def test_structural_identities(additive):
    import random

    rng = random.Random(CFG.seed + 2)
    for name, check in (
        (
            "comb is the star of the orthogonal product",
            verify.check_superposition(rng, 12),
        ),
        (
            "comb-at with equal roots is the comb product",
            verify.check_comb_at_collapse(rng, 12),
        ),
        (
            "operator restrictions equal adjacency entrywise",
            verify.check_restriction_equalities(additive),
        ),
    ):
        report(f"structural identities / {name}", check)
