"""Sparse reference arithmetic on an element's multi-index -> coefficient
map: the oracle that the dense products of :mod:`momentkit.symalg` are
checked against."""

from __future__ import annotations

from momentkit import AlgebraElement
from momentkit.errors import DegreeOverflow, DimensionMismatch


def sparse_multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Commutative product by sparse convolution of multi-indices; raises
    DegreeOverflow when a product term exceeds the truncation degree."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} != {b.dim}")
    cap = max(a.max_degree, b.max_degree)
    terms: dict = {}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if sum(gamma) > cap:
                raise DegreeOverflow(
                    f"product term of degree {sum(gamma)} exceeds truncation {cap}"
                )
            terms[gamma] = terms.get(gamma, 0.0) + ca * cb
    return AlgebraElement(a.dim, cap, terms)


def power(a: AlgebraElement, k: int) -> AlgebraElement:
    """a^k by repeated sparse products."""
    out = AlgebraElement.one(a.dim, a.max_degree)
    for _ in range(k):
        out = sparse_multiply(out, a)
    return out
