"""Exact-arithmetic products of (bi)rooted graphs, walk counting, and the
additive/multiplicative convolutions that describe their spectral
distributions, together with matrix-model realizations of the matching
notions of noncommutative independence."""

from .graphs import (
    Graph,
    adjacency_matrix,
    birooted,
    brute_force_closed_walks,
    colored,
    count_d_walks,
    disjoint_union,
    root_moments,
    rooted,
)
from .independence import (
    AlgebraModel,
    ModelFunctional,
    Realization,
    TableFunctional,
    oracle_cmonotone,
    oracle_moment,
    parse_word,
    realize_cmonotone_family,
    realize_cmonotone_pair,
    realize_pair,
)
from .linalg import (
    Matrix,
    NotInvariant,
    direct_sum,
    kron,
    state_moments,
    subspace_restrict,
)
from .products import (
    OperatorDecomposition,
    ProductGraph,
    c_comb_decomposition,
    c_comb_loop_decomposition,
    c_comb_loop_product,
    c_comb_product,
    comb_at_product,
    comb_loop_product,
    comb_product,
    essential_decomposition,
    essential_loop_decomposition,
    essential_loop_product,
    orthogonal_product,
    star_product,
)
from .series import (
    DivisorVanishes,
    FSeries,
    MomentSeries,
    additive_convolve,
    coefficient_formula,
    compose_F,
    eta_from_moments,
    eta_series,
    moment_series,
    moments_from_eta,
    moments_to_F,
    F_to_moments,
    multiplicative_convolve,
    point_mass_moments,
)

__version__ = "0.1.0"
