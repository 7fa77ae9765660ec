"""Dense references for the column-sparse operators of `ccomb.linalg`.

Tests build an operator both ways and compare: the library builds every
operator above factor size column-sparse, and these product-size dense
constructions exist only to check it. `matrix_power_entry` takes a real dense
power, so walk counts and moments checked against it do not share the
sparse moment kernel.
"""

from ccomb.linalg import Matrix, kron, tensor_index


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


def matrix_power_entry(a: Matrix, n: int, i: int, j: int):
    """Entry (i, j) of the dense n-th power."""
    if not a.is_square:
        raise ValueError("matrix_power_entry requires a square matrix")
    if not (0 <= i < a.rows and 0 <= j < a.rows):
        raise IndexError("index out of range")
    return (a**n).entry(i, j)
