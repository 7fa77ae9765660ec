#!/usr/bin/env python3
"""First-return coefficients of the two-step operator on a loop product.

Builds the c-comb loop product of the bundled demo pair, forms the operator
Z = A2 * A1 from the one-color adjacency matrices, and prints its
first-return (eta) coefficients at the root next to the c-monotone
multiplicative convolution of the factor eta-series, the direct coefficient
sums, and exhaustive alternating d-walk counts.

Usage:
    python scripts/multiplicative_demo.py [--order N]
"""

import argparse

from ccomb.fixtures import multiplicative_demo_pair
from ccomb.graphs import count_d_walks, root_moments, two_step_moments
from ccomb.products import c_comb_loop_product
from ccomb.series import (
    coefficient_formula,
    eta_from_moments,
    multiplicative_convolve,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=6)
    args = parser.parse_args()
    order = args.order

    g1, g2 = multiplicative_demo_pair()
    prod = c_comb_loop_product(g1, g2)
    eta_graph = eta_from_moments(two_step_moments(prod.graph, order))

    eta1 = eta_from_moments(root_moments(g1, order))
    eta2 = eta_from_moments(root_moments(g2, order))
    eta_nu = eta_from_moments(root_moments(g2, order, at=g2.second_root))
    engine = multiplicative_convolve("c-monotone", eta1, eta2, eta_nu)
    sums = [
        coefficient_formula("c-monotone", n, eta1.coeffs, eta2.coeffs, eta_nu.coeffs)
        for n in range(1, order + 1)
    ]
    dwalks = [count_d_walks(prod.graph, 2 * n) for n in range(1, order + 1)]

    print(f"loop product: {prod.vertex_count} vertices, root {prod.graph.root}")
    print("n  graph      series     sums       d-walks    agree")
    for n in range(1, order + 1):
        values = (
            eta_graph.coeffs[n - 1],
            engine.coeffs[n - 1],
            sums[n - 1],
            dwalks[n - 1],
        )
        ok = len(set(values)) == 1
        print(
            f"{n:<2} {values[0]:<10} {values[1]:<10} {values[2]:<10} "
            f"{values[3]:<10} {'yes' if ok else 'NO'}"
        )

    at_f = eta_from_moments(
        two_step_moments(prod.graph, order, at=prod.graph.second_root)
    )
    monotone = multiplicative_convolve(
        "monotone",
        eta_from_moments(root_moments(g1, order, at=g1.second_root)),
        eta_nu,
    )
    print("\nsecond root vs monotone multiplicative convolution")
    print("n  graph      monotone   agree")
    for n in range(1, order + 1):
        a, b = at_f.coeffs[n - 1], monotone.coeffs[n - 1]
        print(f"{n:<2} {a:<10} {b:<10} {'yes' if a == b else 'NO'}")


if __name__ == "__main__":
    main()
