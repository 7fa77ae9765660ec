"""Dense references for the column-sparse operators of `ccomb.linalg`.

Tests build an operator both ways and compare: the library builds every
operator above factor size column-sparse, and these product-size dense
constructions exist only to check it. `matrix_power` takes a real dense
power, and `matrix_power_entry` reads one entry of it, so walk counts and
moments checked against it do not share the sparse moment kernel.
`full_chain_moments` is now the kernel's own loop, kept as the reference
for its runs on `ModP`.
"""

from ccomb.linalg import Matrix, kron, sparse_apply, tensor_index


def kron_all(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("empty Kronecker product")
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def basis_projection(dim: int, i: int) -> Matrix:
    """Rank-one projection onto the i-th coordinate axis."""
    if not 0 <= i < dim:
        raise IndexError(f"index {i} out of range for dimension {dim}")
    data = [0] * (dim * dim)
    data[i * dim + i] = 1
    return Matrix(dim, dim, tuple(data))


def complement_projection(dim: int, i: int) -> Matrix:
    """Identity minus the coordinate projection."""
    return Matrix.identity(dim) - basis_projection(dim, i)


def flip23_permutation(d1: int, d2: int, d3: int) -> Matrix:
    """Permutation matrix swapping the second and third tensor legs.

    Sends the basis vector with coordinates (i, j, k) to (i, k, j); it is
    an involution, and conjugating kron(A, B, C) by it yields kron(A, C, B).
    """
    dim = d1 * d2 * d3
    data = [0] * (dim * dim)
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                src = tensor_index((d1, d2, d3), (i, j, k))
                dst = tensor_index((d1, d3, d2), (i, k, j))
                data[dst * dim + src] = 1
    return Matrix(dim, dim, tuple(data))


def sparse_to_matrix(cols: list) -> Matrix:
    """Dense square matrix of a column-sparse operator."""
    n = len(cols)
    data = [0] * (n * n)
    for j, col in enumerate(cols):
        for r, v in col:
            data[r * n + j] = v
    return Matrix(n, n, tuple(data))


def transpose(m: Matrix) -> Matrix:
    """The dense transpose of `m`."""
    data = tuple(m.data[i * m.cols + j] for j in range(m.cols) for i in range(m.rows))
    return Matrix(m.cols, m.rows, data)


def matrix_power(a: Matrix, n: int) -> Matrix:
    """The dense n-th power, by repeated squaring."""
    if not a.is_square:
        raise ValueError("power of a non-square matrix")
    if n < 0:
        raise ValueError("negative matrix power")
    result = Matrix.identity(a.rows)
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def matrix_power_entry(a: Matrix, n: int, i: int, j: int):
    """Entry (i, j) of the dense n-th power."""
    if not a.is_square:
        raise ValueError("matrix_power_entry requires a square matrix")
    if not (0 <= i < a.rows and 0 <= j < a.rows):
        raise IndexError("index out of range")
    return matrix_power(a, n).entry(i, j)


def full_chain_moments(steps, order: int, at: int) -> tuple:
    """<delta_at, Z^n delta_at> for n = 0..order, applying Z order times."""
    if not 0 <= at < len(steps[0]):
        raise IndexError("state index out of range")
    vec = {at: 1}
    out = [1]
    for _ in range(order):
        for cols in steps:
            vec = sparse_apply(cols, vec)
        out.append(vec.get(at, 0))
    return tuple(out)
