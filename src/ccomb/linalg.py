"""Exact linear algebra over the rationals: column-sparse operators, plus
a small dense matrix type kept for factor-size models.

The scalar carrier is plain ``int`` / ``fractions.Fraction``, so every
identity checked downstream holds exactly; floats are rejected at the
validated constructors and never enter. Values are never mutated after
construction and all operations are pure, which makes concurrent read-only
use safe.

Operators on the ambient tensor spaces and on product graphs are
column-sparse: a square operator of dimension n is a list of n columns, each
the list of its ``(row, value)`` nonzeros in increasing row order.
`sparse_identity`, `sparse_sum` and `subspace_restrict` keep that order, as
does the one tensor-operator builder (`independence._placed`, which writes
each factor column straight to its composite columns), so two operators are
equal exactly when their column lists are.
`sparse_apply` maps a sparse vector ``{index: value}``, `sparse_transpose`
turns columns into rows, and `sparse_moments` is the operators' moment
kernel (walks count on neighbor lists in `graphs`). It walks the plain
chain: Z applied to one vector order times, M_n read off as its entry at
the state index, so it shares no identity with the walks kernel's half
chain.
The dense `Matrix` serves the factor-size oracle models only: entrywise
sums and differences and one product, whose entry sums start at zero times
their row's first entry, so an empty sum takes the row's type; it has no
scalar products.

Index convention, fixed project-wide: the Kronecker product ``kron(A, B)``
uses the composite index ``(i, k) -> i * dim_B + k``, i.e. leg order is
left-to-right and the leftmost leg is the most significant digit.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

__all__ = [
    "Matrix",
    "NotInvariant",
    "kron",
    "direct_sum",
    "state_moments",
    "subspace_restrict",
    "tensor_index",
    "sparse_columns",
    "sparse_apply",
    "sparse_transpose",
    "sparse_identity",
    "sparse_sum",
    "sparse_moments",
]

_SCALARS = (int, Fraction)


class NotInvariant(Exception):
    """An operator mapped a sub-basis vector outside the spanned subspace."""


def _is_exact(x) -> bool:
    return isinstance(x, _SCALARS) and not isinstance(x, bool)


class Matrix:
    """Immutable dense matrix with exact rational entries (row-major).

    ``Matrix(rows, cols, data)`` is the trusted fast path used internally;
    ``Matrix.from_rows`` validates shape and entry types.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for x in r:
                if not _is_exact(x):
                    raise ValueError(f"entry {x!r} is not an exact rational")
            flat.extend(r)
        return cls(len(rows), width, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(n, n, tuple(data))

    def entry(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.data[j :: self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.data, other.data))
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def _entrywise(self, other, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {op.__name__}")
        return Matrix(self.rows, self.cols, tuple(map(op, self.data, other.data)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The matrix product; an empty entry sum takes its row's type."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in multiplication")
        columns = [other.column(j) for j in range(other.cols)]
        data = []
        for i in range(self.rows):
            row = self.row(i)
            terms = [(t, x) for t, x in enumerate(row) if x]
            data.extend(sum((x * c[t] for t, x in terms), 0 * row[0]) for c in columns)
        return Matrix(self.rows, other.cols, tuple(data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} {self.to_rows()!r})"


# kron, direct_sum and state_moments have no caller in src/ but stay, like
# the Matrix operators: perfbench's tracer resolves them by name (tracing.SPEC)
def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; composite index (i, k) -> i * b.rows + k."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    data = []
    for i in range(a.rows):
        arow = a.row(i)
        for k in range(b.rows):
            brow = b.row(k)
            for j in range(a.cols):
                aij = arow[j]
                if aij:
                    data.extend(aij * brow[l] for l in range(b.cols))
                else:
                    data.extend([0] * b.cols)
    return Matrix(rows, cols, tuple(data))


def direct_sum(*mats: Matrix) -> Matrix:
    """Block-diagonal sum; block order follows the argument order."""
    if not mats:
        raise ValueError("empty direct sum")
    for m in mats:
        if not m.is_square:
            raise ValueError("direct_sum requires square matrices")
    dim = sum(m.rows for m in mats)
    data = [0] * (dim * dim)
    off = 0
    for m in mats:
        for i in range(m.rows):
            base = (off + i) * dim + off
            data[base : base + m.cols] = m.row(i)
        off += m.rows
    return Matrix(dim, dim, tuple(data))


def sparse_columns(a: Matrix) -> list:
    """Column-sparse view: per column, the list of (row, value) nonzeros."""
    cols = []
    for j in range(a.cols):
        col = a.column(j)
        cols.append([(r, v) for r, v in enumerate(col) if v])
    return cols


def sparse_identity(n: int) -> list:
    return [[(i, 1)] for i in range(n)]


def sparse_sum(*ops, signs=None) -> list:
    """Signed sum of column-sparse operators of one dimension; `signs` holds
    one exact coefficient per operator (all 1 by default)."""
    if not ops:
        raise ValueError("empty sum")
    n = len(ops[0])
    if any(len(op) != n for op in ops):
        raise ValueError("shape mismatch in addition")
    if signs is None:
        signs = (1,) * len(ops)
    elif len(signs) != len(ops):
        raise ValueError(f"{len(signs)} signs for {len(ops)} operators")
    out = []
    for j in range(n):
        acc: dict = {}
        for op, sign in zip(ops, signs):
            for r, v in op[j]:
                acc[r] = acc.get(r, 0) + sign * v
        out.append(sorted((r, v) for r, v in acc.items() if v))
    return out


def sparse_apply(cols: list, vec: dict) -> dict:
    """Apply a column-sparse matrix to a sparse vector {index: value}."""
    out: dict = {}
    for c, x in vec.items():
        for r, v in cols[c]:
            out[r] = out.get(r, 0) + v * x
    return {k: v for k, v in out.items() if v}


def sparse_transpose(cols: list) -> list:
    """The transpose of a square column-sparse operator, rows still
    increasing within each column."""
    out: list = [[] for _ in cols]
    for c, col in enumerate(cols):
        for r, v in col:
            out[r].append((c, v))
    return out


def sparse_moments(steps, order: int, at: int) -> tuple:
    """The sequence <delta_at, Z^n delta_at> for n = 0..order, where one
    step Z applies the column-sparse operators of `steps` in turn (first
    operator first): closed-walk counts for ``(A,)``, two-step moments of
    Z = A2 * A1 for ``(A1, A2)``.

    Z is applied order times to one sparse vector, and M_n is its entry at
    `at`, the int 0 where it has none. Only the current vector is held,
    never the chain."""
    if not 0 <= at < len(steps[0]):
        raise IndexError("state index out of range")
    if order < 0:
        raise ValueError("moment order must be at least 0")
    vec = {at: 1}
    out = [1]
    for _ in range(order):
        for cols in steps:
            vec = sparse_apply(cols, vec)
        out.append(vec.get(at, 0))
    return tuple(out)


def state_moments(a: Matrix, order: int, at: int) -> tuple:
    """The sequence <delta_at, a^n delta_at> for n = 0..order."""
    if not a.is_square:
        raise ValueError("state_moments requires a square matrix")
    return sparse_moments((sparse_columns(a),), order, at)


def subspace_restrict(a: list, basis) -> list:
    """The column-sparse operator `a` restricted to the ordered sub-basis of
    coordinate vectors: one column per basis vector, in basis order, with
    rows renumbered to basis positions and kept in increasing order.

    Raises NotInvariant if `a` maps any basis vector outside the span,
    which signals a wrong embedding rather than a recoverable condition.
    """
    basis = list(basis)
    if len(set(basis)) != len(basis):
        raise ValueError("basis indices must be distinct")
    for b in basis:
        if not 0 <= b < len(a):
            raise IndexError(f"basis index {b} out of range")
    pos = {b: k for k, b in enumerate(basis)}
    out = []
    for b in basis:
        col = []
        for r, v in a[b]:
            if r not in pos:
                raise NotInvariant(
                    f"image of basis vector {b} has weight on ambient index {r}"
                )
            col.append((pos[r], v))
        out.append(sorted(col))
    return out


def tensor_index(dims, coords) -> int:
    """Composite index of per-leg coordinates, leftmost leg most significant."""
    if len(dims) != len(coords):
        raise ValueError("dims/coords length mismatch")
    idx = 0
    for d, c in zip(dims, coords):
        if not 0 <= c < d:
            raise IndexError(f"coordinate {c} out of range for leg of size {d}")
        idx = idx * d + c
    return idx
