#!/usr/bin/env python3
"""First-return coefficients of the two-step operator on a loop product.

Builds the c-comb loop product of the bundled demo pair, forms the operator
Z = A2 * A1 from the one-color adjacency matrices, and prints its
first-return (eta) coefficients at the root next to the c-monotone
multiplicative convolution of the factor eta-series, the direct coefficient
sums, exhaustive alternating d-walk counts, and the two-step powers R2 * R1
of the loop pair that `c_comb_loop_decomposition` builds from the factor
adjacencies (the operator column). At the second root it prints the graph,
the operator and the monotone convolution.

Usage:
    python scripts/multiplicative_demo.py [--order N]
"""

import argparse

from ccomb.fixtures import multiplicative_demo_pair
from ccomb.graphs import count_d_walks, root_moments, two_step_moments
from ccomb.linalg import sparse_moments
from ccomb.products import c_comb_loop_decomposition, c_comb_loop_product
from ccomb.series import (
    coefficient_formula,
    eta_from_moments,
    moment_series,
    multiplicative_convolve,
)


def operator_eta(dec, order: int, at: int):
    """Eta-coefficients of the two-step powers R2 * R1 of a loop pair at the
    ambient coordinate `at`."""
    moments = sparse_moments((dec.cols1, dec.cols2), order, at)
    return eta_from_moments(moment_series(moments)).coeffs


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
    dec = c_comb_loop_decomposition(g1, g2)
    operator = operator_eta(dec, order, dec.phi_index)

    print(f"loop product: {prod.vertex_count} vertices, root {prod.graph.root}")
    print("n  graph      series     sums       d-walks    operator   agree")
    for n in range(1, order + 1):
        values = (
            eta_graph.coeffs[n - 1],
            engine.coeffs[n - 1],
            sums[n - 1],
            dwalks[n - 1],
            operator[n - 1],
        )
        ok = len(set(values)) == 1
        cells = " ".join(f"{v:<10}" for v in values)
        print(f"{n:<2} {cells} {'yes' if ok else 'NO'}")

    at_f = eta_from_moments(
        two_step_moments(prod.graph, order, at=prod.graph.second_root)
    )
    monotone = multiplicative_convolve(
        "monotone",
        eta_from_moments(root_moments(g1, order, at=g1.second_root)),
        eta_nu,
    )
    operator_f = operator_eta(dec, order, dec.psi_index)
    print("\nsecond root vs monotone multiplicative convolution")
    print("n  graph      operator   monotone   agree")
    for n in range(1, order + 1):
        values = (at_f.coeffs[n - 1], operator_f[n - 1], monotone.coeffs[n - 1])
        ok = len(set(values)) == 1
        cells = " ".join(f"{v:<10}" for v in values)
        print(f"{n:<2} {cells} {'yes' if ok else 'NO'}")


if __name__ == "__main__":
    main()
