"""Word-moment oracles for the classical notions of noncommutative
independence and their finite matrix-model tensor realizations.

A word is a sequence of letters ``(algebra_index, element_name)``; algebra
indices come from a linearly ordered set of ints. Adjacent letters from the
same algebra are collapsed by in-algebra multiplication before any recursion
runs, so non-alternating words are accepted everywhere, and a word that
`collapse_word` has already collapsed is accepted as it is.

Oracles evaluate the defining moment recursions exactly:

* boolean      factorizes an alternating word into single-letter moments
* monotone     strips a letter at a locally maximal algebra index
* orthogonal   two algebras: the c-monotone recursion below with phi = 0
  on the higher algebra, whose functional is read as its psi; words that
  start or end in the higher algebra vanish
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
the first block, psi the second. `build_cmonotone` is the one builder of
c-monotone operators for any ordered family: the phi block gives each
algebra above the lowest two legs, and the psi block is the monotone family
on one leg per algebra. The pair and family realizations are its output on
matrix models, and the c-comb decompositions in `products` its output on
the factor adjacencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import prod

from .graphs import adjacency_matrix
from .linalg import (
    Matrix,
    sparse_apply,
    sparse_columns,
    sparse_direct_sum,
    sparse_identity,
    sparse_kron,
    sparse_projection,
    sparse_sum,
    sparse_transpose,
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
    "build_cmonotone",
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
    """Merge adjacent letters with equal algebra index into name tuples.

    A letter whose name is a tuple is read as a run already merged, so a
    collapsed word (every name a tuple, adjacent indices distinct) is
    returned as it is: the oracles accept either form, and a caller can
    collapse a word list once for many oracle calls.
    """
    prev = None
    for j, name in word:
        if j == prev or type(name) is not tuple:
            break
        prev = j
    else:
        return tuple(word)
    out: list = []
    for j, name in word:
        names = name if type(name) is tuple else (name,)
        if out and out[-1][0] == j:
            out[-1] = (j, out[-1][1] + names)
        else:
            out.append((j, names))
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


def _monotone(w: tuple, functionals: dict, memo: dict, slot: int | None = None):
    """The monotone recursion; with `slot`, `functionals` maps each index to
    a functional pair and the recursion reads entry `slot` of the pair."""
    if not w:
        return 1
    if w in memo:
        return memo[w]
    i = _first_local_max(w)
    j, names = w[i]
    fn = functionals[j] if slot is None else functionals[j][slot]
    out = fn(names) * _monotone(_drop_and_merge(w, i), functionals, memo, slot)
    memo[w] = out
    return out


def _zero(names):
    """Phi of the higher orthogonal algebra: 0 on every nonempty product."""
    return 0


def oracle_moment(kind: str, word, functionals: dict, memo: dict | None = None):
    """Evaluate a mixed moment by the defining recursion of `kind`.

    `functionals` maps each algebra index to a callable on name tuples. For
    the orthogonal kind exactly two indices take part and the functional of
    the higher index is read as the psi-state of the orthogonal algebra: a
    word that opens and closes in the lower algebra runs the c-monotone phi
    recursion with phi = 0 on the higher one, and any other word vanishes.
    `memo`, owned by the caller, carries the recursion values from word to
    word; it must serve this `functionals` dict only. `word` may be raw or
    already collapsed (see collapse_word); a collapsed word is used as it is.
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
    if w[0][0] == hi or w[-1][0] == hi:
        return 0
    # every word the recursion reaches from here opens and closes in lo
    pairs = {lo: (functionals[lo], None), hi: (_zero, functionals[hi])}
    return _cmonotone_phi(w, pairs, _memo_table(memo, functionals, kind))


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
    to word; it must serve this `pairs` dict only. `word` is raw or
    collapsed, as in oracle_moment.
    """
    w = collapse_word(word)
    return (
        _cmonotone_phi(w, pairs, _memo_table(memo, pairs, "phi")),
        _monotone(w, pairs, _memo_table(memo, pairs, "psi"), slot=1),
    )


def oracle_cmonotone_all_orders(
    word, pairs: dict, memo: dict | None = None
) -> frozenset:
    """All phi values reachable by choosing local maxima in any order;
    a singleton set certifies choice independence for this word. `word` and
    `memo` are as in oracle_cmonotone."""
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
    """Batch moment evaluation by half-words, reading only the
    realization's operators.

    A word w = u v, split at len(w) // 2, has the moment (U^T e)·(V e),
    where e is the state vector and U, V multiply the operators of u and
    v left to right. V e is applied right to left as in
    `Realization.moment`; U^T e applies the transposed operators, built
    once per key when the evaluator is made, to the letters of u left to
    right. Both half-word vectors are memoized, so a word list costs one
    sparse apply per distinct half and one exact sparse dot product per
    word.
    """

    def __init__(self, realization: Realization, state: str = "phi"):
        self.r = realization
        self.at = realization._state_index(state)
        self._columns = {(): {self.at: 1}}  # V e by suffix v
        self._rows = {(): {self.at: 1}}  # U^T e by prefix u
        self._transposed = {
            key: sparse_transpose(op) for key, op in realization.operators.items()
        }

    def _column(self, word: tuple) -> dict:
        vec = self._columns.get(word)
        if vec is None:
            tail = self._column(word[1:])
            vec = self._columns[word] = sparse_apply(self.r.operators[word[0]], tail)
        return vec

    def _row(self, word: tuple) -> dict:
        vec = self._rows.get(word)
        if vec is None:
            head = self._row(word[:-1])
            vec = self._rows[word] = sparse_apply(self._transposed[word[-1]], head)
        return vec

    def moment(self, word):
        word = tuple(word)
        half = len(word) // 2
        row, col = self._row(word[:half]), self._column(word[half:])
        out = 0
        for i, x in row.items():
            y = col.get(i)
            if y is not None:
                out += x * y
        return out


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
        orthogonal  P-perp (x) b, with P-perp built as 1 - P
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
        left = sparse_sum(
            sparse_identity(d1), sparse_projection(d1, model1.xi), signs=(1, -1)
        )
    else:
        left = sparse_identity(d1)
    for name, b in model2.elements.items():
        operators[(2, name)] = sparse_kron(left, sparse_columns(b))
    return Realization(operators, d1 * d2, model1.xi * d2 + model2.xi)


def build_cmonotone(factors: dict, variant: bool = False) -> Realization:
    """The one builder of c-monotone tensor operators: a pair, a family and
    every c-comb decomposition.

    `factors` maps each algebra index to ``(ops, dim, (xi, eta))``: the
    column-sparse operators by element name, their dimension and the
    coordinates of the two vector states. Algebras are ordered by index.
    In the phi block the lowest algebra has one leg, anchored at xi, and
    every other algebra two, anchored at xi and eta. With L and H the
    projections of the legs below and above algebra j onto their anchors,
    an element a of j acts as

        L (x) a (x) 1 (x) H  +  L-perp (x) 1 (x) a (x) H

    and an element of the lowest algebra as a (x) H, with phi at the
    anchors. L-perp is built as 1 - L, so an element is the signed sum of
    three Kronecker terms. `variant` replaces the two identity legs of j
    with its own anchor projections, which realizes the same mixed
    moments. When the lowest eta is given, the monotone family
    1 (x) a (x) H' on one leg per algebra, H' projecting the legs above
    onto their etas, follows in a direct sum with psi at the etas:
    under psi a c-monotone family is monotone independent. Without it the
    realization is the phi block alone.

    For two algebras the phi block is the pair on V1 (x) V2 (x) V2,

        A1 = a (x) P_xi2 (x) P_eta2
        A2 = P_xi1 (x) b (x) 1  +  P_xi1-perp (x) 1 (x) b

    with phi at (xi1, xi2, eta2), and the psi block is the monotone pair
    a (x) P_eta2, 1 (x) b on V1 (x) V2 with psi at (eta1, eta2).
    """
    keys = sorted(factors)
    legs = []  # (dim, anchor) of each phi leg, in leg order
    for n, j in enumerate(keys):
        _, d, (xi, eta) = factors[j]
        legs.extend((d, c) for c in ((xi, eta) if n else (xi,)))
    proj = [sparse_projection(d, c) for d, c in legs]
    operators = {}
    for n, j in enumerate(keys):
        ops, d = factors[j][:2]
        if n == 0:
            for name, a in ops.items():
                operators[(j, name)] = sparse_kron(a, *proj[1:])
            continue
        # legs 0 .. below - 1 lie below j, and j owns legs below and below + 1
        below, high = 2 * n - 1, proj[2 * n + 1 :]
        mid = right = sparse_identity(d)
        if variant:
            mid, right = proj[below], proj[below + 1]
        low = sparse_kron(*proj[:below])
        one = sparse_identity(len(low))
        for name, a in ops.items():
            operators[(j, name)] = sparse_sum(
                sparse_kron(low, a, right, *high),
                sparse_kron(one, mid, a, *high),
                sparse_kron(low, mid, a, *high),
                signs=(1, 1, -1),
            )
    dim = prod(d for d, _ in legs)
    phi_index = tensor_index(*zip(*legs))
    psi_index = None
    dims = [factors[j][1] for j in keys]
    etas = [factors[j][2][1] for j in keys]
    if etas[0] is not None:
        psi_index = dim + tensor_index(dims, etas)
        for n, j in enumerate(keys):
            low = [sparse_identity(d) for d in dims[:n]]
            high = [
                sparse_projection(d, e) for d, e in zip(dims[n + 1 :], etas[n + 1 :])
            ]
            for name, a in factors[j][0].items():
                key = (j, name)
                psi_op = sparse_kron(*low, a, *high)
                operators[key] = sparse_direct_sum(operators[key], psi_op)
        dim += prod(dims)
    return Realization(operators, dim, phi_index, psi_index)


def _model_factors(models: dict) -> dict:
    """The `build_cmonotone` factors of two-state models by algebra index."""
    if not all(m.two_state for m in models.values()):
        raise ValueError("c-monotone realizations need two-state models")
    return {
        j: (
            {name: sparse_columns(a) for name, a in m.elements.items()},
            m.dim,
            (m.xi, m.eta),
        )
        for j, m in models.items()
    }


def realize_cmonotone_pair(
    model1: AlgebraModel, model2: AlgebraModel, variant: bool = False
) -> Realization:
    """Two-state tensor realization of a c-monotone pair of two-state
    models, algebras 1 and 2: `build_cmonotone` at (xi, eta) of each model,
    on the ambient space (V1 (x) V2 (x) V2) (+) (V1 (x) V2)."""
    return build_cmonotone(_model_factors({1: model1, 2: model2}), variant)


def realize_cmonotone_family(models) -> Realization:
    """Two-state tensor realization of a c-monotone family of two-state
    models, algebra k the k-th model of the list (`build_cmonotone`).

    The phi block has dimension d_0 * prod_{k>=1} d_k^2 and the psi block
    prod_k d_k, so the ambient dimension still grows as a product of
    squares, and the family size is capped at FAMILY_CAP.
    """
    models = list(models)
    if len(models) > FAMILY_CAP:
        raise ValueError(f"family size {len(models)} exceeds cap {FAMILY_CAP}")
    if not models:
        raise ValueError("empty family")
    return build_cmonotone(_model_factors(dict(enumerate(models))))


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
