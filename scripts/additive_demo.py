#!/usr/bin/env python3
"""Three independent computations of the same moment table.

Builds the c-comb product of the bundled demo pair and prints, for each n,
the number of closed walks at the root of the essential component computed
by (a) walk counting on the product graph, (b) powers of the tensor-operator
decomposition, and (c) the c-monotone additive convolution of the factor
moment sequences. The second table shows the moments at the second root
against the plain monotone convolution.

Usage:
    python scripts/additive_demo.py [--order N]
"""

import argparse

from ccomb.fixtures import additive_demo_pair
from ccomb.graphs import root_moments
from ccomb.linalg import sparse_moments
from ccomb.products import c_comb_product, comb_at_product, essential_decomposition
from ccomb.series import additive_convolve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12)
    args = parser.parse_args()
    order = args.order

    g1, g2 = additive_demo_pair()
    essential = comb_at_product(g1, g2)
    decomposition = essential_decomposition(g1, g2)

    walks = root_moments(essential.graph, order).coeffs
    operator = sparse_moments(
        (decomposition.total_columns(),), order, decomposition.phi_index
    )
    transform = additive_convolve(
        "c-monotone",
        root_moments(g1, order),
        root_moments(g2, order),
        root_moments(g2, order, at=g2.second_root),
    ).coeffs

    print(f"essential component: {essential.vertex_count} vertices,"
          f" root label {essential.vertex_labels[essential.graph.root]}")
    print("n  walks      operator   transform  agree")
    for n in range(order + 1):
        ok = walks[n] == operator[n] == transform[n]
        print(f"{n:<2} {walks[n]:<10} {operator[n]:<10} {transform[n]:<10} "
              f"{'yes' if ok else 'NO'}")

    full = c_comb_product(g1, g2)
    at_f = root_moments(full.graph, order, at=full.graph.second_root).coeffs
    monotone = additive_convolve(
        "monotone",
        root_moments(g1, order, at=g1.second_root),
        root_moments(g2, order, at=g2.second_root),
    ).coeffs
    print("\nsecond root (comb component) vs monotone convolution")
    print("n  walks      monotone   agree")
    for n in range(order + 1):
        print(f"{n:<2} {at_f[n]:<10} {monotone[n]:<10} "
              f"{'yes' if at_f[n] == monotone[n] else 'NO'}")


if __name__ == "__main__":
    main()
