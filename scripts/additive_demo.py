#!/usr/bin/env python3
"""The route tables of the additive graph-pair checks of `ccomb verify`.

For the bundled demo pair, prints what each check's `routes` compares, one
column per route: at the root e (`additive-three-route`) the c-comb product's
closed walks, its decomposition's moments (operator) and the c-monotone
convolution (series); at the second root f (`additive-second-root-split`)
the walks and operator at f and the monotone convolution. A row reads `yes`
when its routes agree.

Usage:
    python scripts/additive_demo.py [--order N]
"""

import argparse
from itertools import zip_longest

from ccomb import fixtures, verify


def print_table(title, routes, start):
    """One row per coefficient index n from `start`, one column per route."""
    print(title)
    print("n  " + " ".join(f"{name:<10}" for name in routes) + " agree")
    for n, values in enumerate(zip_longest(*routes.values()), start):
        cells = " ".join(f"{str(v):<10}" for v in values)
        print(f"{n:<2} {cells} {'yes' if len(set(values)) == 1 else 'NO'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12)
    order = parser.parse_args().order
    g1, g2 = fixtures.additive_demo_pair()
    at_e = verify.check_additive_three_route.routes(g1, g2, order)
    print_table("root e: walks, operator and c-monotone convolution", at_e, 0)
    at_f = verify.check_second_root_split.routes(g1, g2, order)
    print_table("\nsecond root f: walks, operator and monotone convolution", at_f, 0)


if __name__ == "__main__":
    main()
