"""Word-moment oracles for the classical notions of noncommutative
independence and their finite matrix-model tensor realizations.

A word is a sequence of letters ``(algebra_index, element_name)``; algebra
indices come from a linearly ordered set of ints. Adjacent letters from the
same algebra are collapsed by in-algebra multiplication before any recursion
runs, so non-alternating words are accepted everywhere. `collapse_word`
reads a tuple name as a run already merged, so a collapsed word is accepted
too and collapses to an equal word.

Oracles evaluate the defining moment recursions exactly:

* boolean      factorizes an alternating word into single-letter moments
* monotone     strips a letter at a locally maximal algebra index
* orthogonal   two algebras: the c-monotone recursion below with phi = 0
  on the higher algebra, whose functional is read as its psi; a word that
  starts or ends there vanishes by the recursion itself, as the first local
  maximum of such a word has an empty flank
* tensor       the product of per-algebra moments with positions preserved
* c-monotone   two-state recursion: a letter b at a local maximum splits as
  (phi(b) - psi(b)) * phi(left) * phi(right) + psi(b) * phi(contracted),
  with empty flanks evaluating to one, and the family is monotone
  independent under psi

The shape of each recursion depends on the word alone, so `WordPlan`
compiles it once per word list and evaluates it per functional set;
`oracle_moment` and `oracle_cmonotone` are its one-word form and
`oracle_cmonotone_all_orders` its one-call form, the c-monotone phi with
every local maximum stripped in turn, which keeps each word's value set.

Both batch routes, `WordPlan` and `WordMomentEvaluator`, run `Fraction`
models on integers. Each recursion and each realized moment is multilinear
in the letters, so when every input of an evaluation is a `Fraction`, a
route scales all of them by one integer, the lcm of their denominators,
runs its loops on ints and divides each nonempty word's value by the power
of that scale the word carries; each route does so on its own, with no
shared helper. Values keep their types: such a word comes out as the
`Fraction` the unscaled loops would give it. Any other evaluation (int
inputs, ints and `Fraction`s mixed in one call, or another scalar ring)
runs the loops on its inputs as they are.

Realizations model each algebra by named exact matrices with one or two
distinguished coordinates xi (for phi) and eta (for psi); the adjoined
separating idempotent of each extended state acts as the coordinate
projection onto that state's vector. Because the projection of a single
matrix model cannot serve two distinct vector states at once, a two-state
realization carries a phi block and a psi block in direct sum; phi reads
the first block, psi the second. `build_cmonotone` is the one builder of
c-monotone operators for any ordered family: the phi block gives each
algebra above the lowest two legs, and the psi block is the monotone family
on one leg per algebra. `realize_cmonotone_family` is its output on the
two-state models of any number of algebras (the mapping of `two_state_pairs`),
the pair that family at algebras 1 and 2, and the c-comb decompositions in
`products` its output on the factor adjacencies, which
`products.realize_graph_pair` reads back as a realization. The module imports
only `linalg` from the package, so its realizations and oracles do not depend
on `graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import lcm, prod

from .linalg import Matrix, sparse_apply, sparse_columns, sparse_transpose, tensor_index

__all__ = [
    "AlgebraModel",
    "ModelFunctional",
    "Realization",
    "WordPlan",
    "HalfWordPlan",
    "parse_word",
    "collapse_word",
    "oracle_moment",
    "oracle_cmonotone",
    "oracle_cmonotone_all_orders",
    "realize_pair",
    "build_cmonotone",
    "realize_cmonotone_pair",
    "realize_cmonotone_family",
    "two_state_pairs",
    "all_words",
]

ORACLE_KINDS = ("boolean", "monotone", "orthogonal", "tensor")
# the largest ambient dimension `build_cmonotone` builds. At least any the CLI
# lets through: `word-moment` builds n1*n2*(n2 + 1) <= its build count <=
# cli.MAX_WORD_MOMENT_BUILD coordinates, so the CLI refuses first
MAX_FAMILY_DIM = 1_000_000


class AlgebraModel:
    """Named exact matrices over one index with distinguished state
    coordinates; `xi` carries phi and the optional `eta` carries psi."""

    def __init__(self, elements: dict, xi: int, eta: int | None = None):
        if not elements:
            raise ValueError("a model needs at least one element")
        if any(isinstance(name, tuple) for name in elements):
            raise ValueError("an element name may not be a tuple (a merged run)")
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
    """Moment functional backed by a matrix model's vector state.

    A value is read from row `at` of the product alone: a 1 x d `Matrix`
    multiplied by one element at a time left to right, so it equals
    `model.vector_state` in value and type. The row of every name prefix is
    kept, by (parent prefix id, name).
    """

    def __init__(self, model: AlgebraModel, at: int):
        self.model = model
        self.at = at
        self._cache: dict = {}
        self._rows: list = [None]  # by prefix id; 0 is the empty product
        self._prefixes: dict = {}  # (parent id, name) -> prefix id

    def __call__(self, names: tuple):
        names = tuple(names)
        if names not in self._cache:
            self._cache[names] = self._row(names).data[self.at] if names else 1
        return self._cache[names]

    def _row(self, names: tuple) -> Matrix:
        rows, node = self._rows, 0
        for name in names:
            m = self.model.elements[name]
            parent, node = node, self._prefixes.setdefault((node, name), len(rows))
            if node == len(rows):
                rows.append(
                    rows[parent] * m if parent else Matrix(1, m.cols, m.row(self.at))
                )
        return rows[node]


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
    collapsed word (every name a tuple, adjacent indices distinct) comes
    back equal, as a new tuple: the oracles accept either form, and a caller
    can collapse a word list once for many oracle calls.
    """
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


def _phi_split(v: tuple, maxima=None) -> list:
    """The letter phi strips from a collapsed word and the subwords it reads:
    none for one letter, else the two flanks and the contracted word, at
    the first local maximum or, given `maxima`, at each of them."""
    if len(v) == 1:
        return [(v[0], ())]
    maxima = maxima or [_first_local_max(v)]
    return [(v[i], (v[:i], v[i + 1 :], _drop_and_merge(v, i))) for i in maxima]


def _monotone_split(v: tuple) -> list:
    i = _first_local_max(v)
    return [(v[i], (_drop_and_merge(v, i),))]


def _boolean_split(v: tuple) -> list:
    return [(v[0], (v[1:],))]


def _tensor_split(v: tuple) -> list:
    j = v[0][0]
    (letter,) = collapse_word(x for x in v if x[0] == j)
    return [(letter, (collapse_word(x for x in v if x[0] != j),))]


_SPLITS = {
    "phi": _phi_split,
    "all-orders": lambda v: _phi_split(v, _local_maxima(v)),
    "boolean": _boolean_split,
    "monotone": _monotone_split,
    "tensor": _tensor_split,
}


class WordPlan:
    """The moment recursions of a word list, compiled once and evaluated for
    any functional set.

    The shape of a recursion depends on the word alone: which letter it
    strips and which subwords it reads. The plan holds that shape: the
    distinct letters ``(j, names)`` by slot, and the nodes of each
    recursion (see _compile). Phi nodes are ``(slot, left, right, rest)``
    and leaves ``(slot,)``; every other kind chains nodes ``(slot, rest)``,
    a word's value its letter's times rest's: monotone (the psi side of
    c-monotone) strips the first local maximum, boolean the first letter,
    tensor the first letter's algebra, its names in word order. All-orders
    nodes hold one phi node per local maximum, and their values are sets.
    The orthogonal kind runs the phi nodes alone, with phi of the higher
    algebra read as zero times its functional, a zero of its psi's type.

    An evaluation reads each letter value it needs once, then fills a flat
    value list in node order, subwords first and the empty word at 0 with
    value 1, with no recursion and no hashing. A leaf is phi of its letter
    as the functional returns it, and every other node repeats the
    recursion's arithmetic term for term, so values keep their types.
    Words are raw or collapsed (see collapse_word).

    When every value an evaluation reads is a `Fraction` (phi and psi
    values alike, of every algebra), the values are scaled to ints first:
    c is the lcm of all their denominators, a letter ``(j, names)`` scales
    by c ** len(names), and each term of every recursion uses each name of
    its word once, so a word with n names scales by c ** n (n counted once
    per plan). The loops run on ints, and each nonempty word's value (each
    element of its set) comes out as the `Fraction` of it over its scale,
    the type the unscaled loops give it; the empty word keeps its int 1.
    Int values, ints and `Fraction`s mixed in one evaluation, and another
    scalar ring run the loops on the values as read.
    """

    def __init__(self, words):
        self._words = [collapse_word(w) for w in words]
        self._letters: list = []  # (j, names) by slot
        self._slots: dict = {}
        self._plans: dict = {}  # by kind, see _compile

    def _slot(self, letter: tuple) -> int:
        if letter not in self._slots:
            self._slots[letter] = len(self._letters)
            self._letters.append(letter)
        return self._slots[letter]

    def _compile(self, kind: str) -> tuple:
        """(nodes, targets, reads, inner) of the recursion of `kind`,
        compiled on first use. Node id 0 is the empty word; nodes[k - 1], of
        id k, is (slot, *subword ids) of one word, and for "all-orders" a
        word of two or more letters holds a tuple of those, one per local
        maximum in `_local_maxima` order; targets holds each word's id;
        reads and inner, the slots of all nodes and of those not leaves:
        for phi, the slots whose phi and whose psi it reads. A split's
        subwords are shorter than its word, so a stack collects the words
        and the nodes go out by length, subwords first, with no recursion."""
        if kind not in self._plans:
            splits, stack = {}, list(self._words)
            while stack:
                v = stack.pop()
                if v and v not in splits:
                    splits[v] = _SPLITS[kind](v)
                    stack.extend(u for _, subwords in splits[v] for u in subwords)
            nodes, ids, reads, inner = [], {(): 0}, set(), set()
            for v in sorted(splits, key=len):
                alternatives = [
                    (self._slot(letter), *(ids[u] for u in subwords))
                    for letter, subwords in splits[v]
                ]
                for node in alternatives:
                    (inner if len(node) > 1 else reads).add(node[0])
                many = kind == "all-orders" and len(v) > 1
                nodes.append(tuple(alternatives) if many else alternatives[0])
                ids[v] = len(nodes)
            targets = [ids[w] for w in self._words]
            self._plans[kind] = nodes, targets, reads | inner, inner
        return self._plans[kind]

    @cached_property
    def _names(self) -> list:
        """The number of names in each word, the power of c it scales by."""
        return [sum(len(names) for _, names in w) for w in self._words]

    def _evaluate(self, run, *reads) -> list:
        """The word value lists `run` gives on the letter values of each
        ``(functionals, *slot sets)`` read (a chain kind's one, cmonotone's
        phi and psi), each a list by slot with None where not read, scaled
        to ints when every value read is a Fraction."""
        letters = self._letters
        values, read = [], []
        for functionals, *slot_sets in reads:
            x = [None] * len(letters)
            for slots in slot_sets:
                for s in slots:
                    j, names = letters[s]
                    x[s] = functionals[j](names)
                    read.append(x[s])
            values.append(x)
        if not all(type(v) is Fraction for v in read):
            return run(*values)
        c = lcm(*(v.denominator for v in read))
        powers = [c**n for n in range(max(self._names, default=0) + 1)]
        for x in values:
            for s, v in enumerate(x):
                if type(v) is Fraction:
                    x[s] = v.numerator * (powers[len(letters[s][1])] // v.denominator)

        def unscale(v, n):  # a value, or an all-orders set of values
            if type(v) is frozenset:
                return frozenset(Fraction(x, powers[n]) for x in v)
            return Fraction(v, powers[n])

        return [
            [unscale(v, n) if n else v for v, n in zip(out, self._names)]
            for out in run(*values)
        ]

    def _run_phi(self, a: list, b: list) -> list:
        """Phi of each word from the letter values a of phi and b of psi."""
        nodes, targets, _, _ = self._compile("phi")
        values = [1]
        append = values.append
        for node in nodes:
            s = node[0]
            if len(node) == 1:
                append(a[s])
                continue
            _, left, right, rest = node
            append((a[s] - b[s]) * values[left] * values[right] + b[s] * values[rest])
        return [values[t] for t in targets]

    def _run_all_orders(self, a: list, b: list) -> list:
        """The set of phi values of each word over every choice of local
        maxima, from the letter values a of phi and b of psi: a node's set
        takes phi's term for each alternative and each element of its
        subwords' sets, in that order."""
        nodes, targets, _, _ = self._compile("all-orders")
        sets = [frozenset({1})]
        for node in nodes:
            if type(node[0]) is int:
                sets.append(frozenset({a[node[0]]}))
                continue
            acc = set()
            for s, left, right, rest in node:
                d, q = a[s] - b[s], b[s]
                for x in sets[left]:
                    for y in sets[right]:
                        for z in sets[rest]:
                            acc.add(d * x * y + q * z)
            sets.append(frozenset(acc))
        return [sets[t] for t in targets]

    def _run_chain(self, kind: str, a: list) -> list:
        """Each word's value on the chain of `kind` from letter values a."""
        nodes, targets, _, _ = self._compile(kind)
        values = [1]
        append = values.append
        for s, rest in nodes:
            append(a[s] * values[rest])
        return [values[t] for t in targets]

    def cmonotone(self, pairs: dict) -> list:
        """(phi, psi) of each word under c-monotone independence, `pairs` as
        in oracle_cmonotone."""
        _, _, phi_reads, psi_reads = self._compile("phi")
        phi = {j: p[0] for j, p in pairs.items()}
        psi = {j: p[1] for j, p in pairs.items()}
        phis, psis = self._evaluate(
            lambda a, b: (self._run_phi(a, b), self._run_chain("monotone", b)),
            (phi, phi_reads),
            (psi, psi_reads, self._compile("monotone")[2]),
        )
        return list(zip(phis, psis))

    def all_orders(self, pairs: dict) -> list:
        """The set of phi values of each word over every choice of local
        maxima, `pairs` as in oracle_cmonotone."""
        _, _, phi_reads, psi_reads = self._compile("all-orders")
        (out,) = self._evaluate(
            lambda a, b: (self._run_all_orders(a, b),),
            ({j: p[0] for j, p in pairs.items()}, phi_reads),
            ({j: p[1] for j, p in pairs.items()}, psi_reads),
        )
        return out

    def moments(self, kind: str, functionals: dict) -> list:
        """The moment of each word under independence `kind`, `functionals`
        as in oracle_moment."""
        if kind not in ORACLE_KINDS:
            raise ValueError(f"unknown independence kind {kind!r}")
        if kind != "orthogonal":
            (out,) = self._evaluate(
                lambda a: (self._run_chain(kind, a),),
                (functionals, self._compile(kind)[2]),
            )
            return out
        if not any(self._words):
            return [1] * len(self._words)
        keys = sorted(functionals)
        if len(keys) != 2:
            raise ValueError("orthogonal evaluation needs exactly two functionals")
        lo, hi = keys
        # each algebra a word uses has a letter stripped at some phi node
        _, _, phi_reads, inner = self._compile("phi")
        if any(self._letters[s][0] not in (lo, hi) for s in phi_reads):
            raise ValueError("orthogonal words use exactly the two given algebras")
        psi = functionals[hi]
        (out,) = self._evaluate(
            lambda a, b: (self._run_phi(a, b),),
            ({lo: functionals[lo], hi: lambda names: 0 * psi(names)}, phi_reads),
            (functionals, inner),
        )
        return out


def oracle_moment(kind: str, word, functionals: dict):
    """Evaluate a mixed moment by the defining recursion of `kind`.

    `functionals` maps each algebra index to a callable on name tuples. For
    the orthogonal kind exactly two indices take part and the functional of
    the higher index is read as the psi-state of the orthogonal algebra:
    each word's value is its oracle_cmonotone phi with phi = 0 on the
    higher one, so a word that opens or closes there vanishes.
    `word` may be raw or already collapsed (see collapse_word). This is the
    one-word `WordPlan`; a word list shares one plan.
    """
    return WordPlan([word]).moments(kind, functionals)[0]


def oracle_cmonotone(word, pairs: dict):
    """Two-state moment of a word under c-monotone independence.

    `pairs` maps each algebra index to a (phi, psi) functional pair. Returns
    (phi_value, psi_value); psi_value follows the monotone recursion in the
    psi functionals. The phi recursion removes the first local maximum; the
    value does not depend on that choice (see oracle_cmonotone_all_orders).
    `word` is raw or collapsed, as in oracle_moment; this is the one-word
    `WordPlan`.
    """
    return WordPlan([word]).cmonotone(pairs)[0]


def oracle_cmonotone_all_orders(words, pairs: dict) -> list:
    """For each word, the frozenset of all phi values reachable by choosing
    local maxima in any order; a singleton set certifies choice
    independence for that word. Each word is raw or collapsed, as in
    oracle_cmonotone; this is the one-call `WordPlan.all_orders`, which a
    caller evaluating one word list under many pairs builds once."""
    return WordPlan(words).all_orders(pairs)


# -- realizations ---------------------------------------------------------------


def _entries(operators: dict):
    """Every entry of some column-sparse operators, lazily."""
    return (x for op in operators.values() for col in op for _, x in col)


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
        inserting it into a word splits the phi moment multiplicatively. Its
        entries are `Fraction(1)` when every operator entry is a `Fraction`,
        so an evaluator still scales the family to ints, and int 1 otherwise."""
        fractions = all(type(x) is Fraction for x in _entries(self.operators))
        one = Fraction(1) if fractions else 1
        states = {self.phi_index, self.psi_index}
        return [[(j, one)] if j in states else [] for j in range(self.dim)]


class HalfWordPlan:
    """The half-words of a word list, compiled once for any realization.

    Each word w = u v is split at len(w) // 2. `prefixes` holds the distinct
    u as nodes ``(parent id, letter)``, u being its parent plus the letter,
    and `suffixes` the distinct v as nodes ``(child id, letter)``, v being
    the letter plus its child; id 0 is the empty half, and node k, of id
    k + 1, comes after the node it extends. `splits` holds each word's
    ``(prefix id, suffix id)`` and `lengths` its number of letters.
    """

    def __init__(self, words):
        prefixes: dict = {}  # node -> id, in id order
        suffixes: dict = {}
        self.splits: list = []
        self.lengths: list = []
        for word in words:
            word = tuple(word)
            half = len(word) // 2
            u = v = 0
            for i in range(half):
                u = prefixes.setdefault((u, word[i]), len(prefixes) + 1)
            for i in range(len(word) - 1, half - 1, -1):
                v = suffixes.setdefault((v, word[i]), len(suffixes) + 1)
            self.splits.append((u, v))
            self.lengths.append(len(word))
        self.prefixes, self.suffixes = list(prefixes), list(suffixes)


class WordMomentEvaluator:
    """Batch moment evaluation by half-words, reading only the
    realization's operators.

    A word w = u v of a `HalfWordPlan` has the moment (U^T e)·(V e), where
    e is the state vector and U, V multiply the operators of u and v left to
    right. V e is applied right to left as in `Realization.moment`; U^T e
    applies the transposed operators, built once per key when the evaluator
    is made, to the letters of u left to right. Each half node costs one
    sparse apply from the vector of the node it extends, in node order, and
    each word one exact sparse dot product.

    When every operator entry is a `Fraction`, all operators are scaled by
    one d, the lcm of all their denominators, when the evaluator is made,
    and the transposes are built from the scaled operators. A moment is
    linear in each letter's operator, so a word of n letters scales by
    d ** n; the loops run on ints, and each nonempty word comes out as the
    `Fraction` of its value over its scale where its two halves meet, as
    the unscaled loops give it, and as int 0 where they do not. The type
    test stops at the first entry that is not a `Fraction`: int operators,
    ints and `Fraction`s mixed, and any other entries run the loops on the
    operators as they are.
    """

    def __init__(self, realization: Realization, state: str = "phi"):
        self.at = realization._state_index(state)
        ops = realization.operators
        self._scale = None
        if all(type(x) is Fraction for x in _entries(ops)):
            d = self._scale = lcm(*(x.denominator for x in _entries(ops)))
            ops = {
                key: [
                    [(r, x.numerator * (d // x.denominator)) for r, x in col]
                    for col in op
                ]
                for key, op in ops.items()
            }
        self._operators = ops
        self._transposed = {key: sparse_transpose(op) for key, op in ops.items()}

    def moments(self, plan: HalfWordPlan) -> list:
        """The moment of each word of `plan`, in its order."""
        start = {self.at: 1}
        rows, columns = [start], [start]  # U^T e by prefix id, V e by suffix id
        for parent, letter in plan.prefixes:
            rows.append(sparse_apply(self._transposed[letter], rows[parent]))
        for child, letter in plan.suffixes:
            columns.append(sparse_apply(self._operators[letter], columns[child]))
        out = []
        for u, v in plan.splits:
            col = columns[v]
            value = 0
            for i, x in rows[u].items():
                y = col.get(i)
                if y is not None:
                    value += x * y
            out.append(value)
        d = self._scale
        if d is None:
            return out
        powers = [d**n for n in range(max(plan.lengths, default=0) + 1)]
        return [
            Fraction(x, powers[n])
            if n and (x or not rows[u].keys().isdisjoint(columns[v]))
            else x
            for x, n, (u, v) in zip(out, plan.lengths, plan.splits)
        ]

    def moment(self, word):
        return self.moments(HalfWordPlan([word]))[0]


def all_words(letters, max_len: int):
    """All words over the given letters with lengths in [1, max_len]."""
    out = []
    for n in range(1, max_len + 1):
        out.extend(iter_product(letters, repeat=n))
    return out


def _placed(dim: int, a: list, placings) -> list:
    """The column-sparse operator of dimension `dim` in which the factor
    `a`, of dimension d, acts on one tensor leg. Each placing ``(outer,
    inner, size)`` lists indices o of the legs before that leg and i of the
    legs after it, which span `size` indices (an i may carry a block
    offset): column x of `a` goes to column (o * d + x) * size + i and each
    row r to (o * d + r) * size + i. Placings write disjoint columns, and
    rows stay increasing; every column not written is 0."""
    op = [[] for _ in range(dim)]
    d = len(a)
    for outer, inner, size in placings:
        for o in outer:
            for i in inner:
                base = o * d * size + i
                for x, col in enumerate(a):
                    if col:
                        op[base + x * size] = [(base + r * size, v) for r, v in col]
    return op


def realize_pair(kind: str, model1: AlgebraModel, model2: AlgebraModel) -> Realization:
    """Two-algebra tensor realization on the product of the model spaces.

    With Q the projection onto the second model's phi vector and P onto the
    first model's, elements a of the first algebra act as a (x) Q and
    elements b of the second act per kind:

        boolean     P (x) b
        monotone    1 (x) b
        orthogonal  P-perp (x) b
        tensor      1 (x) b with the first algebra acting as a (x) 1

    Each operator is placed column by column (see _placed): b fills the
    columns whose first coordinate x is xi1 (boolean), is not xi1
    (orthogonal) or is any (monotone, tensor), and every other column is 0.
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown independence kind {kind!r}")
    d1, d2 = model1.dim, model2.dim
    dim = d1 * d2
    second = range(d2) if kind == "tensor" else (model2.xi,)
    first = {
        "boolean": (model1.xi,),
        "orthogonal": [x for x in range(d1) if x != model1.xi],
    }.get(kind, range(d1))
    placings = {1: (model1, ((0,), second, d2)), 2: (model2, (first, (0,), 1))}
    operators = {}
    for j, (model, placing) in placings.items():
        for name, a in model.elements.items():
            operators[(j, name)] = _placed(dim, sparse_columns(a), [placing])
    return Realization(operators, dim, model1.xi * d2 + model2.xi)


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
    anchors. Each operator is placed column by column (see _placed): a
    column whose high legs are off their anchors is 0; of the others, one
    whose low legs sit at their anchors takes the L term, a acting on j's
    first leg, and every other one the L-perp term, a acting on j's second
    leg, so no two terms meet in a column and nothing cancels. `variant`
    replaces the two identity legs of j with its own anchor projections,
    which keeps the L term's columns whose second leg is at eta and the
    L-perp term's whose first leg is at xi, and realizes the same mixed
    moments. When the lowest eta is given, the monotone family
    1 (x) a (x) H' on one leg per algebra, H' projecting the legs above
    onto their etas, follows in a direct sum with psi at the etas:
    under psi a c-monotone family is monotone independent. Without it the
    realization is the phi block alone. An ambient dimension above
    MAX_FAMILY_DIM is refused before any operator is placed.

    For two algebras the phi block is the pair on V1 (x) V2 (x) V2,

        A1 = a (x) P_xi2 (x) P_eta2
        A2 = P_xi1 (x) b (x) 1  +  P_xi1-perp (x) 1 (x) b

    with phi at (xi1, xi2, eta2), and the psi block is the monotone pair
    a (x) P_eta2, 1 (x) b on V1 (x) V2 with psi at (eta1, eta2).
    """
    keys = sorted(factors)
    legs = []  # (dim, anchor) of each phi leg, in leg order
    psi_legs = []  # (dim, eta) of each algebra, the psi block's legs
    for n, j in enumerate(keys):
        _, d, (xi, eta) = factors[j]
        legs.extend((d, c) for c in ((xi, eta) if n else (xi,)))
        psi_legs.append((d, eta))

    def anchored(legs):
        """The size of some legs and the index of their anchors."""
        dims, anchors = [d for d, _ in legs], [c for _, c in legs]
        return prod(dims), tensor_index(dims, anchors)

    placings = {}  # the _placed placings of each algebra index
    for n, j in enumerate(keys):
        d, (xi, eta) = factors[j][1:]
        if n == 0:
            size, h = anchored(legs[1:])
            placings[j] = [((0,), (h,), size)]
            continue
        # legs 0 .. below - 1 lie below j, and j owns legs below and below + 1
        below = 2 * n - 1
        low, at = anchored(legs[:below])
        size, h = anchored(legs[below + 2 :])
        seconds = (eta,) if variant else range(d)
        firsts = (xi,) if variant else range(d)
        placings[j] = [
            ((at,), [y * size + h for y in seconds], d * size),
            ([u * d + x for u in range(low) if u != at for x in firsts], (h,), size),
        ]
    dim, phi_index = anchored(legs)
    psi_index = None
    if psi_legs[0][1] is not None:
        for n, j in enumerate(keys):
            low, _ = anchored(psi_legs[:n])
            size, h = anchored(psi_legs[n + 1 :])
            placings[j].append((range(low), (dim + h,), size))
        psi_dim, psi_index = anchored(psi_legs)
        psi_index += dim
        dim += psi_dim
    if dim > MAX_FAMILY_DIM:
        raise ValueError(f"c-monotone dimension {dim} exceeds {MAX_FAMILY_DIM}")
    operators = {
        (j, name): _placed(dim, a, placings[j])
        for j in keys
        for name, a in factors[j][0].items()
    }
    return Realization(operators, dim, phi_index, psi_index)


def realize_cmonotone_family(models: dict, variant: bool = False) -> Realization:
    """Two-state tensor realization of a c-monotone family: `build_cmonotone`
    at (xi, eta) of each two-state model of `models`, the mapping of
    `two_state_pairs` from algebra index to model, `variant` as there.

    The phi block has dimension d_0 * prod_{k>=1} d_k^2, d_0 the lowest
    algebra's, and the psi block prod_k d_k: see MAX_FAMILY_DIM.
    """
    if not models or not all(m.two_state for m in models.values()):
        raise ValueError("a c-monotone family needs one or more two-state models")
    factors = {
        j: (
            {name: sparse_columns(a) for name, a in m.elements.items()},
            m.dim,
            (m.xi, m.eta),
        )
        for j, m in models.items()
    }
    return build_cmonotone(factors, variant)


def realize_cmonotone_pair(
    model1: AlgebraModel, model2: AlgebraModel, variant: bool = False
) -> Realization:
    """The c-monotone family of two models at algebras 1 and 2, on the
    ambient space (V1 (x) V2 (x) V2) (+) (V1 (x) V2)."""
    return realize_cmonotone_family({1: model1, 2: model2}, variant)


def two_state_pairs(models: dict) -> dict:
    """The (xi, eta) vector-state functionals of each indexed model: the
    `pairs` argument of oracle_cmonotone."""
    return {
        j: (ModelFunctional(m, m.xi), ModelFunctional(m, m.eta))
        for j, m in models.items()
    }
