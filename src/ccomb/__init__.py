"""Exact-arithmetic products of (bi)rooted graphs, walk counting, and the
additive/multiplicative convolutions that describe their spectral
distributions, together with matrix-model realizations of the matching
notions of noncommutative independence."""

__version__ = "0.1.0"
