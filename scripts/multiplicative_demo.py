#!/usr/bin/env python3
"""The route tables of the multiplicative graph-pair checks of `ccomb verify`.

For the bundled demo pair, prints the eta coefficients each check's `routes`
compares on the c-comb loop product, one column per route: at the root e
(`multiplicative-eta-three-route`) two-step walks, the loop pair's two-step
powers (operator), the c-monotone convolution (series) and the coefficient
sums (formula), with the `d-walks` of `d-walk-first-return-counts`; at the
second root f (`multiplicative-second-root-monotone`) the walks and operator
at f and the monotone convolution. A row reads `yes` when its routes agree.

Usage:
    python scripts/multiplicative_demo.py [--order N]
"""

import argparse

from additive_demo import print_table
from ccomb import fixtures, verify


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=6)
    order = parser.parse_args().order
    g1, g2 = fixtures.multiplicative_demo_pair()
    at_e = verify.check_multiplicative_three_route.routes(g1, g2, order)
    at_e["d-walks"] = verify.check_d_walk_counts.routes(g1, g2, 2 * order)["d-walks"]
    print_table("root e: eta coefficients of the c-comb loop product", at_e, 1)
    at_f = verify.check_multiplicative_second_root.routes(g1, g2, order)
    print_table("\nsecond root f: eta coefficients and monotone convolution", at_f, 1)


if __name__ == "__main__":
    main()
