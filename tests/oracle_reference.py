"""Recursive references for the moment oracles of `ccomb.independence`.

The library compiles each recursion into a `WordPlan` and evaluates it as a
flat node list. These are the defining recursions written out directly, one
call per subword with a per-call memo, on word helpers of their own: the
full collapse, the first local maximum by its definition, and a letter
dropped by collapsing the rest again. Tests compare the plan with them in
value and in type. `reference_all_orders` is the all-orders recursion over
every local maximum that `WordPlan.all_orders` replaced, and
`reference_orthogonal` the orthogonal kind as `WordPlan.moments` once
computed it, through the phi of `WordPlan.cmonotone`. `TableFunctional`
reads a functional's values from an explicit table, so a test can hand the
oracles symbolic moments.
"""

from ccomb.independence import WordPlan


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


def collapse(word) -> tuple:
    """Merge adjacent letters of one algebra; a tuple name is a merged run."""
    out: list = []
    for j, name in word:
        names = name if type(name) is tuple else (name,)
        if out and out[-1][0] == j:
            out[-1] = (j, out[-1][1] + names)
        else:
            out.append((j, names))
    return tuple(out)


def drop_and_merge(w: tuple, i: int) -> tuple:
    """Drop letter i, then collapse the whole rest."""
    return collapse(w[:i] + w[i + 1 :])


def first_local_max(w: tuple) -> int:
    """The first letter whose index exceeds that of each neighbour."""
    for i, (j, _) in enumerate(w):
        if (i == 0 or w[i - 1][0] < j) and (i == len(w) - 1 or j > w[i + 1][0]):
            return i
    raise ValueError(f"no local maximum in {w!r}")


def local_maxima(w: tuple) -> list:
    """Every letter whose index exceeds that of each neighbour, in order."""
    last = len(w) - 1
    return [
        i
        for i, (j, _) in enumerate(w)
        if (i == 0 or w[i - 1][0] < j) and (i == last or j > w[i + 1][0])
    ]


def monotone(w: tuple, functionals: dict, memo: dict, slot=None):
    """The monotone recursion; with `slot`, `functionals` maps each index to
    a functional pair and the recursion reads entry `slot` of the pair."""
    if not w:
        return 1
    if w in memo:
        return memo[w]
    i = first_local_max(w)
    j, names = w[i]
    fn = functionals[j] if slot is None else functionals[j][slot]
    out = fn(names) * monotone(drop_and_merge(w, i), functionals, memo, slot)
    memo[w] = out
    return out


def cmonotone_phi(v: tuple, pairs: dict, memo: dict):
    """The c-monotone phi recursion at the first local maximum."""
    if not v:
        return 1
    if v in memo:
        return memo[v]
    if len(v) == 1:
        j, names = v[0]
        out = pairs[j][0](names)
    else:
        i = first_local_max(v)
        j, names = v[i]
        a_phi = pairs[j][0](names)
        a_psi = pairs[j][1](names)
        left = cmonotone_phi(v[:i], pairs, memo)
        right = cmonotone_phi(v[i + 1 :], pairs, memo)
        rest = cmonotone_phi(drop_and_merge(v, i), pairs, memo)
        out = (a_phi - a_psi) * left * right + a_psi * rest
    memo[v] = out
    return out


def reference_moment(kind: str, word, functionals: dict):
    """The moment of `word` under `kind`, by the defining recursion."""
    w = collapse(word)
    if not w:
        return 1
    if kind in ("boolean", "tensor"):
        factors = w
        if kind == "tensor":
            per_algebra: dict = {}
            for j, names in w:
                per_algebra[j] = per_algebra.get(j, ()) + names
            factors = per_algebra.items()
        value = 1
        for j, names in factors:
            value *= functionals[j](names)
        return value
    if kind == "monotone":
        return monotone(w, functionals, {})
    lo, hi = sorted(functionals)
    psi = functionals[hi]
    pairs = {lo: (functionals[lo], None), hi: (lambda names: 0 * psi(names), psi)}
    return cmonotone_phi(w, pairs, {})


def reference_cmonotone(word, pairs: dict) -> tuple:
    """(phi, psi) of `word` under c-monotone independence."""
    w = collapse(word)
    return cmonotone_phi(w, pairs, {}), monotone(w, pairs, {}, slot=1)


def reference_all_orders(words, pairs: dict) -> list:
    """For each word, all phi values reachable by choosing local maxima in
    any order, by the recursion over every local maximum with one value
    table across the list."""
    table: dict = {}

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
            for i in local_maxima(v):
                j, names = v[i]
                a_phi = pairs[j][0](names)
                a_psi = pairs[j][1](names)
                for x in values(v[:i]):
                    for y in values(v[i + 1 :]):
                        for z in values(drop_and_merge(v, i)):
                            acc.add((a_phi - a_psi) * x * y + a_psi * z)
            out = frozenset(acc)
        table[v] = out
        return out

    return [values(collapse(w)) for w in words]


def reference_orthogonal(words, functionals: dict) -> list:
    """The orthogonal moment of each word: its `WordPlan.cmonotone` phi with
    phi = 0 * psi on the higher algebra, whose functional is read as psi,
    and psi = phi on the lower one."""
    lo, hi = sorted(functionals)
    low, psi = functionals[lo], functionals[hi]
    pairs = {lo: (low, low), hi: (lambda names: 0 * psi(names), psi)}
    return [phi for phi, _ in WordPlan(words).cmonotone(pairs)]
