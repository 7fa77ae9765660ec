"""Iterated products: a product graph is a valid factor of the next product.

The comb product realizes the monotone additive convolution and the star
product the boolean one (Accardi, Ben Ghorbal and Obata, "Monotone
independence, comb graphs and Bose-Einstein condensation", IDAQP 2004), so
both groupings of a three-fold product have the moments of the associative
three-fold convolution.
"""

import random

import pytest

from ccomb.graphs import root_moments
from ccomb.products import comb_product, star_product
from ccomb.series import additive_convolve
from ccomb.verify import random_rooted_graph

ORDER = 8


def _triples(seed, count=25):
    # loop-free, so no glued vertex carries a loop of both colors
    rng = random.Random(seed)
    return [
        tuple(random_rooted_graph(rng, 1, 4, loop_p=0) for _ in range(3))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "build, kind",
    [(comb_product, "monotone"), (star_product, "boolean")],
)
def test_three_fold_products_are_associative(build, kind):
    for g1, g2, g3 in _triples(11):
        mu1, mu2, mu3 = (root_moments(g, ORDER) for g in (g1, g2, g3))
        left = additive_convolve(kind, additive_convolve(kind, mu1, mu2), mu3)
        right = additive_convolve(kind, mu1, additive_convolve(kind, mu2, mu3))
        assert left.coeffs == right.coeffs
        outer_left = build(build(g1, g2).graph, g3).graph
        outer_right = build(g1, build(g2, g3).graph).graph
        assert root_moments(outer_left, ORDER).coeffs == left.coeffs
        assert root_moments(outer_right, ORDER).coeffs == left.coeffs
