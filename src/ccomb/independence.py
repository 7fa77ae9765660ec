"""Word-moment oracles for the classical notions of noncommutative
independence and their finite matrix-model tensor realizations.

A word is a sequence of letters ``(algebra_index, element_name)``; algebra
indices come from a linearly ordered set of ints. Adjacent letters from the
same algebra are collapsed by in-algebra multiplication before any recursion
runs, so non-alternating words are accepted everywhere.

Oracles evaluate the defining moment recursions exactly:

* boolean      factorizes an alternating word into single-letter moments
* monotone     strips a letter at a locally maximal algebra index
* orthogonal   two algebras with a two-state rule: an inner letter b of the
  higher algebra contributes psi(b) * (moment with b removed minus the
  product of the flank moments); words that start or end in the higher
  algebra vanish
* tensor       the product of per-algebra moments with positions preserved
* c-monotone   two-state recursion: a letter b at a local maximum splits as
  (phi(b) - psi(b)) * phi(left) * phi(right) + psi(b) * phi(contracted),
  with empty flanks evaluating to one, and the family is monotone
  independent under psi

Realizations model each algebra by named exact matrices with one or two
distinguished coordinates xi (for phi) and eta (for psi); the adjoined
separating idempotent of each extended state acts as the coordinate
projection onto that state's vector. Because the projection of a single
matrix model cannot serve two distinct vector states at once, a two-state
realization carries a phi block and a psi block in direct sum; phi reads
the first block, psi the second. For a pair the psi block is the monotone
pair on V1 (x) V2, and `build_cmonotone_pair` is the one builder of those
operators: the c-comb decompositions in `products` are its output on the
factor adjacencies. The family realization anchors its psi block at the
eta coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .graphs import adjacency_matrix
from .linalg import (
    Matrix,
    sparse_apply,
    sparse_columns,
    sparse_complement,
    sparse_direct_sum,
    sparse_identity,
    sparse_kron,
    sparse_projection,
    sparse_sum,
    tensor_index,
)

__all__ = [
    "AlgebraModel",
    "ModelFunctional",
    "TableFunctional",
    "Realization",
    "parse_word",
    "collapse_word",
    "oracle_moment",
    "oracle_cmonotone",
    "oracle_cmonotone_all_orders",
    "realize_pair",
    "build_cmonotone_pair",
    "realize_cmonotone_pair",
    "realize_cmonotone_family",
    "realize_graph_pair",
    "two_state_pairs",
    "all_words",
    "FAMILY_CAP",
]

ORACLE_KINDS = ("boolean", "monotone", "orthogonal", "tensor")
FAMILY_CAP = 3  # largest c-monotone family `realize_cmonotone_family` builds


class AlgebraModel:
    """Named exact matrices over one index with distinguished state
    coordinates; `xi` carries phi and the optional `eta` carries psi."""

    def __init__(self, elements: dict, xi: int, eta: int | None = None):
        if not elements:
            raise ValueError("a model needs at least one element")
        dims = {m.rows for m in elements.values()} | {
            m.cols for m in elements.values()
        }
        if len(dims) != 1:
            raise ValueError("all elements must be square of one dimension")
        self.dim = dims.pop()
        self.elements = dict(elements)
        if not 0 <= xi < self.dim:
            raise ValueError("xi out of range")
        if eta is not None and not 0 <= eta < self.dim:
            raise ValueError("eta out of range")
        self.xi = xi
        self.eta = eta

    @property
    def two_state(self) -> bool:
        return self.eta is not None

    def element_product(self, names) -> Matrix:
        mats = [self.elements[n] for n in names]
        out = mats[0]
        for m in mats[1:]:
            out = out * m
        return out

    def vector_state(self, names, at: int):
        if not names:
            return 1
        return self.element_product(names).entry(at, at)


class ModelFunctional:
    """Moment functional backed by a matrix model's vector state."""

    def __init__(self, model: AlgebraModel, at: int):
        self.model = model
        self.at = at
        self._cache: dict = {}

    def __call__(self, names: tuple):
        names = tuple(names)
        if names not in self._cache:
            self._cache[names] = self.model.vector_state(names, self.at)
        return self._cache[names]


class TableFunctional:
    """Moment functional backed by an explicit table of word values."""

    def __init__(self, table: dict):
        self.table = dict(table)

    def __call__(self, names: tuple):
        names = tuple(names)
        if not names:
            return 1
        try:
            return self.table[names]
        except KeyError:
            raise KeyError(f"no table value for the product {names!r}") from None


def parse_word(text: str) -> tuple:
    """Parse CLI word syntax such as ``1:a 2:b 1:a'``."""
    letters = []
    for token in text.split():
        idx, sep, name = token.partition(":")
        if not sep or not name or not idx.lstrip("-").isdigit():
            raise ValueError(f"bad word token {token!r}, expected index:name")
        letters.append((int(idx), name))
    return tuple(letters)


def collapse_word(word) -> tuple:
    """Merge adjacent letters with equal algebra index into name tuples."""
    out: list = []
    for j, name in word:
        if out and out[-1][0] == j:
            out[-1] = (j, out[-1][1] + (name,))
        else:
            out.append((j, (name,)))
    return tuple(out)


def _drop_and_merge(w: tuple, i: int) -> tuple:
    """The collapsed word `w` without its letter i: only the two neighbours
    of i can merge."""
    if 0 < i < len(w) - 1 and w[i - 1][0] == w[i + 1][0]:
        merged = (w[i - 1][0], w[i - 1][1] + w[i + 1][1])
        return w[: i - 1] + (merged,) + w[i + 2 :]
    return w[:i] + w[i + 1 :]


def _local_maxima(w: tuple) -> list:
    last = len(w) - 1
    return [
        i
        for i in range(len(w))
        if (i == 0 or w[i - 1][0] < w[i][0])
        and (i == last or w[i][0] > w[i + 1][0])
    ]


def _first_local_max(w: tuple) -> int:
    """The first local maximum of a collapsed word: adjacent indices differ,
    so it is the first letter above its right neighbour, else the last."""
    for i in range(len(w) - 1):
        if w[i][0] > w[i + 1][0]:
            return i
    return len(w) - 1


def _memo_table(memo, functionals, recursion: str) -> dict:
    """The table of one recursion inside a caller-owned memo. A memo holds
    oracle values of one functional set only: the values of a collapsed
    word depend on nothing else, so the words of a check can share it."""
    if memo is None:
        return {}
    if memo.setdefault("functionals", functionals) is not functionals:
        raise ValueError("a memo serves one functional set only")
    return memo.setdefault(recursion, {})


def _monotone(w: tuple, functionals: dict, memo: dict):
    if not w:
        return 1
    if w in memo:
        return memo[w]
    if len(w) == 1:
        j, names = w[0]
        out = functionals[j](names)
    else:
        i = _first_local_max(w)
        j, names = w[i]
        out = functionals[j](names) * _monotone(
            _drop_and_merge(w, i), functionals, memo
        )
    memo[w] = out
    return out


def _orthogonal(w: tuple, lo_fn, hi_fn, lo: int, hi: int, memo: dict):
    if not w:
        return 1
    if w in memo:
        return memo[w]
    if len(w) == 1 and w[0][0] == lo:
        out = lo_fn(w[0][1])
    elif w[0][0] == hi or w[-1][0] == hi:
        out = 0
    else:
        # w opens in lo, so its first local maximum is the first letter of hi
        i = _first_local_max(w)
        psi_b = hi_fn(w[i][1])
        whole = _orthogonal(_drop_and_merge(w, i), lo_fn, hi_fn, lo, hi, memo)
        left = _orthogonal(w[:i], lo_fn, hi_fn, lo, hi, memo)
        right = _orthogonal(w[i + 1 :], lo_fn, hi_fn, lo, hi, memo)
        out = psi_b * (whole - left * right)
    memo[w] = out
    return out


def oracle_moment(kind: str, word, functionals: dict, memo: dict | None = None):
    """Evaluate a mixed moment by the defining recursion of `kind`.

    `functionals` maps each algebra index to a callable on name tuples. For
    the orthogonal kind exactly two indices take part and the functional of
    the higher index is read as the psi-state of the orthogonal algebra.
    `memo`, owned by the caller, carries the recursion values from word to
    word; it must serve this `functionals` dict only.
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown independence kind {kind!r}")
    w = collapse_word(word)
    if not w:
        return 1
    if kind == "boolean":
        value = 1
        for j, names in w:
            value *= functionals[j](names)
        return value
    if kind == "monotone":
        return _monotone(w, functionals, _memo_table(memo, functionals, kind))
    if kind == "tensor":
        per_algebra: dict = {}
        for j, names in w:
            per_algebra[j] = per_algebra.get(j, ()) + names
        value = 1
        for j, names in per_algebra.items():
            value *= functionals[j](names)
        return value
    keys = sorted(functionals)
    if len(keys) != 2:
        raise ValueError("orthogonal evaluation needs exactly two functionals")
    lo, hi = keys
    if any(j not in (lo, hi) for j, _ in w):
        raise ValueError("orthogonal words use exactly the two given algebras")
    table = _memo_table(memo, functionals, kind)
    return _orthogonal(w, functionals[lo], functionals[hi], lo, hi, table)


def _cmonotone_phi(v: tuple, pairs: dict, memo: dict):
    if not v:
        return 1
    if v in memo:
        return memo[v]
    if len(v) == 1:
        j, names = v[0]
        out = pairs[j][0](names)
    else:
        i = _first_local_max(v)
        j, names = v[i]
        a_phi = pairs[j][0](names)
        a_psi = pairs[j][1](names)
        left = _cmonotone_phi(v[:i], pairs, memo)
        right = _cmonotone_phi(v[i + 1 :], pairs, memo)
        rest = _cmonotone_phi(_drop_and_merge(v, i), pairs, memo)
        out = (a_phi - a_psi) * left * right + a_psi * rest
    memo[v] = out
    return out


def oracle_cmonotone(word, pairs: dict, memo: dict | None = None):
    """Two-state moment of a word under c-monotone independence.

    `pairs` maps each algebra index to a (phi, psi) functional pair. Returns
    (phi_value, psi_value); psi_value follows the monotone recursion in the
    psi functionals. The phi recursion removes the first local maximum; the
    value does not depend on that choice (see oracle_cmonotone_all_orders).
    `memo`, owned by the caller, carries both recursions' values from word
    to word; it must serve this `pairs` dict only.
    """
    w = collapse_word(word)
    psi_fns = {j: p[1] for j, p in pairs.items()}
    return (
        _cmonotone_phi(w, pairs, _memo_table(memo, pairs, "phi")),
        _monotone(w, psi_fns, _memo_table(memo, pairs, "psi")),
    )


def oracle_cmonotone_all_orders(
    word, pairs: dict, memo: dict | None = None
) -> frozenset:
    """All phi values reachable by choosing local maxima in any order;
    a singleton set certifies choice independence for this word. `memo` is
    as in oracle_cmonotone."""
    table = _memo_table(memo, pairs, "all_orders")

    def values(v: tuple) -> frozenset:
        if not v:
            return frozenset({1})
        if v in table:
            return table[v]
        if len(v) == 1:
            j, names = v[0]
            out = frozenset({pairs[j][0](names)})
        else:
            acc = set()
            for i in _local_maxima(v):
                j, names = v[i]
                a_phi = pairs[j][0](names)
                a_psi = pairs[j][1](names)
                for x in values(v[:i]):
                    for y in values(v[i + 1 :]):
                        for z in values(_drop_and_merge(v, i)):
                            acc.add((a_phi - a_psi) * x * y + a_psi * z)
            out = frozenset(acc)
        table[v] = out
        return out

    return values(collapse_word(word))


# -- realizations ---------------------------------------------------------------


@dataclass
class Realization:
    """Realized operator family with one or two product vector states.

    `operators` maps (algebra index, element name) to the ambient operator,
    column-sparse (see linalg). Moments are vector states at `phi_index`
    (and `psi_index` when present).
    """

    operators: dict
    dim: int
    phi_index: int
    psi_index: int | None = None

    def _state_index(self, state: str) -> int:
        if state == "phi":
            return self.phi_index
        if state == "psi":
            if self.psi_index is None:
                raise ValueError("this realization has no psi state")
            return self.psi_index
        raise ValueError(f"unknown state {state!r}")

    def moment(self, word, state: str = "phi"):
        at = self._state_index(state)
        vec = {at: 1}
        for key in reversed(list(word)):
            vec = sparse_apply(self.operators[key], vec)
        return vec.get(at, 0)

    def evaluator(self, state: str = "phi") -> "WordMomentEvaluator":
        return WordMomentEvaluator(self, state)

    def separating_projection(self) -> list:
        """Rank-one-per-block projection onto the state vectors, column-sparse;
        inserting it into a word splits the phi moment multiplicatively."""
        states = {self.phi_index, self.psi_index}
        return [[(j, 1)] if j in states else [] for j in range(self.dim)]


class WordMomentEvaluator:
    """Batch moment evaluation that shares suffix vectors between words."""

    def __init__(self, realization: Realization, state: str = "phi"):
        self.r = realization
        self.at = realization._state_index(state)
        self._vectors = {(): {self.at: 1}}

    def _vector(self, word: tuple) -> dict:
        if word not in self._vectors:
            tail = self._vector(word[1:])
            self._vectors[word] = sparse_apply(self.r.operators[word[0]], tail)
        return self._vectors[word]

    def moment(self, word):
        return self._vector(tuple(word)).get(self.at, 0)


def all_words(letters, max_len: int):
    """All words over the given letters with lengths in [1, max_len]."""
    out = []
    for n in range(1, max_len + 1):
        out.extend(iter_product(letters, repeat=n))
    return out


def realize_pair(kind: str, model1: AlgebraModel, model2: AlgebraModel) -> Realization:
    """Two-algebra tensor realization on the product of the model spaces.

    With Q the projection onto the second model's phi vector and P onto the
    first model's, elements a of the first algebra act as a (x) Q and
    elements b of the second act per kind:

        boolean     P (x) b
        monotone    1 (x) b
        orthogonal  P-perp (x) b
        tensor      1 (x) b with the first algebra acting as a (x) 1
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown independence kind {kind!r}")
    d1, d2 = model1.dim, model2.dim
    right = sparse_identity(d2) if kind == "tensor" else sparse_projection(d2, model2.xi)
    operators = {}
    for name, a in model1.elements.items():
        operators[(1, name)] = sparse_kron(sparse_columns(a), right)
    if kind == "boolean":
        left = sparse_projection(d1, model1.xi)
    elif kind == "orthogonal":
        left = sparse_complement(d1, model1.xi)
    else:
        left = sparse_identity(d1)
    for name, b in model2.elements.items():
        operators[(2, name)] = sparse_kron(left, sparse_columns(b))
    return Realization(operators, d1 * d2, model1.xi * d2 + model2.xi)


def build_cmonotone_pair(
    ops1: dict, ops2: dict, d1: int, d2: int, states1, states2, variant: bool = False
) -> Realization:
    """The one builder of a c-monotone pair's tensor operators.

    `ops1` / `ops2` map element names to column-sparse factor operators of
    dimensions d1 / d2, and `states1` / `states2` are the coordinates
    (xi, eta) of each factor's two vector states. The phi block lives on
    V1 (x) V2 (x) V2, with the middle leg's projection at xi2 and the right
    leg's at eta2:

        A1 = a (x) P_xi2 (x) P_eta2
        A2 = P_xi1 (x) b (x) 1  +  P_xi1-perp (x) 1 (x) b

    with phi at (xi1, xi2, eta2). `variant` replaces the identity legs of
    A2 with the anchored projections, which realizes the same mixed
    moments. When eta1 is given, the monotone pair a (x) P_eta2 and
    1 (x) b on V1 (x) V2 follows in a direct sum with psi at (eta1, eta2):
    under psi a c-monotone pair is monotone independent. Without eta1 the
    realization is the phi block alone.
    """
    (xi1, eta1), (xi2, eta2) = states1, states2
    p_xi2, p_eta2 = sparse_projection(d2, xi2), sparse_projection(d2, eta2)
    p1, p1c = sparse_projection(d1, xi1), sparse_complement(d1, xi1)
    i2 = sparse_identity(d2)
    mid, right = (p_xi2, p_eta2) if variant else (i2, i2)
    first = {name: sparse_kron(a, p_xi2, p_eta2) for name, a in ops1.items()}
    second = {
        name: sparse_sum(sparse_kron(p1, b, right), sparse_kron(p1c, mid, b))
        for name, b in ops2.items()
    }
    dim = d1 * d2 * d2
    phi_index = tensor_index((d1, d2, d2), (xi1, xi2, eta2))
    psi_index = None
    if eta1 is not None:
        psi_index = dim + tensor_index((d1, d2), (eta1, eta2))
        i1 = sparse_identity(d1)
        for name, a in ops1.items():
            first[name] = sparse_direct_sum(first[name], sparse_kron(a, p_eta2))
        for name, b in ops2.items():
            second[name] = sparse_direct_sum(second[name], sparse_kron(i1, b))
        dim += d1 * d2
    operators = {(1, name): op for name, op in first.items()}
    operators.update({(2, name): op for name, op in second.items()})
    return Realization(operators, dim, phi_index, psi_index)


def realize_cmonotone_pair(
    model1: AlgebraModel, model2: AlgebraModel, variant: bool = False
) -> Realization:
    """Two-state tensor realization of a c-monotone pair: both models must
    carry two state coordinates, and the operators are those of
    build_cmonotone_pair at (xi, eta) of each model, on the ambient space
    (V1 (x) V2 (x) V2) (+) (V1 (x) V2)."""
    if not (model1.two_state and model2.two_state):
        raise ValueError("c-monotone realizations need two-state models")
    return build_cmonotone_pair(
        {name: sparse_columns(a) for name, a in model1.elements.items()},
        {name: sparse_columns(b) for name, b in model2.elements.items()},
        model1.dim,
        model2.dim,
        (model1.xi, model1.eta),
        (model2.xi, model2.eta),
        variant,
    )


def _family_block(models, anchors):
    """One anchored block of the general family realization.

    `anchors[k]` is the pair of coordinates carried by the two legs of
    algebra k. Element a of algebra j acts as

        (a (x) 1) (x) p_j  +  (1 (x) a) (x) (p_j' - p_j)

    where p_j projects every other leg pair onto its anchors and p_j' only
    the leg pairs of larger indices.
    """
    n = len(models)
    dims = []
    for m in models:
        dims.extend((m.dim, m.dim))
    idents = [sparse_identity(d) for d in dims]

    def leg_proj(k, which):
        return sparse_projection(models[k].dim, anchors[k][which])

    ops: dict = {}
    for j, model in enumerate(models):
        for name, a in model.elements.items():
            a = sparse_columns(a)

            def legs(term):
                out = []
                for k in range(n):
                    if k == j:
                        out.extend((a, idents[2 * k + 1]) if term == 1 else (idents[2 * k], a))
                    elif term == 2 and k < j:
                        out.extend((idents[2 * k], idents[2 * k + 1]))
                    else:
                        out.extend((leg_proj(k, 0), leg_proj(k, 1)))
                return out

            ops[(j, name)] = sparse_sum(
                sparse_kron(*legs(1)),
                sparse_kron(*legs(2)),
                sparse_kron(*legs(3)),
                signs=(1, 1, -1),
            )
    vector = []
    for k in range(n):
        vector.extend(anchors[k])
    return ops, dims, vector


def realize_cmonotone_family(models) -> Realization:
    """General tensor realization of a c-monotone family over a linearly
    ordered index set (the list order of `models`).

    Each algebra contributes two legs. In the phi-anchored block the first
    leg of algebra k carries the projection onto xi_k and the second onto
    eta_k; the psi-anchored block anchors both legs at eta_k. The ambient
    dimension grows as the square of the product of the model dimensions,
    so the family size is capped at FAMILY_CAP.
    """
    models = list(models)
    if len(models) > FAMILY_CAP:
        raise ValueError(f"family size {len(models)} exceeds cap {FAMILY_CAP}")
    if not models:
        raise ValueError("empty family")
    for m in models:
        if not m.two_state:
            raise ValueError("c-monotone realizations need two-state models")
    phi_anchors = [(m.xi, m.eta) for m in models]
    psi_anchors = [(m.eta, m.eta) for m in models]
    phi_ops, dims, phi_vec = _family_block(models, phi_anchors)
    psi_ops, _, psi_vec = _family_block(models, psi_anchors)
    block = 1
    for d in dims:
        block *= d
    operators = {
        key: sparse_direct_sum(phi_ops[key], psi_ops[key]) for key in phi_ops
    }
    phi_index = tensor_index(dims, phi_vec)
    psi_index = block + tensor_index(dims, psi_vec)
    return Realization(operators, 2 * block, phi_index, psi_index)


def two_state_pairs(models: dict) -> dict:
    """The (xi, eta) vector-state functionals of each indexed model: the
    `pairs` argument of oracle_cmonotone."""
    return {
        j: (ModelFunctional(m, m.xi), ModelFunctional(m, m.eta))
        for j, m in models.items()
    }


def realize_graph_pair(dec, g1, g2, loops: bool = False):
    """The c-comb decomposition `dec` of the birooted graphs (g1, g2) as a
    two-state realization, letters (1, "a") and (2, "a") acting as its two
    operators, plus the (phi, psi) functional pairs of the factor
    adjacencies at (root, second root). With `loops` (a loop
    decomposition) the identity is subtracted on both sides. The pair is
    c-monotone independent, so the realized moments equal oracle_cmonotone
    under these pairs."""
    ops = {(1, "a"): dec.cols1, (2, "a"): dec.cols2}
    adj = {1: adjacency_matrix(g1), 2: adjacency_matrix(g2)}
    if loops:
        one = sparse_identity(dec.ambient_dim)
        ops = {key: sparse_sum(op, one, signs=(1, -1)) for key, op in ops.items()}
        adj = {j: a - Matrix.identity(a.rows) for j, a in adj.items()}
    realization = Realization(ops, dec.ambient_dim, dec.phi_index, dec.psi_index)
    models = {
        j: AlgebraModel({"a": adj[j]}, g.root, g.second_root)
        for j, g in ((1, g1), (2, g2))
    }
    return realization, two_state_pairs(models)
