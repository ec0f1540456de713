"""Polynomials as ordered term lists over an exact field."""

from __future__ import annotations

from . import orders
from ._record import FrozenRecord


class Polynomial(FrozenRecord):
    """Terms (coeff, exponent tuple): no zero coefficient, and monomials
    strictly descending in the active order.  The constructor trusts its
    caller to keep this: ``from_dict`` filters and sorts, ``bm`` reads
    tails off the ascending B in reverse, ``lift`` keeps the sub-run's
    order, and ``parse_result`` does not check it.
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    @classmethod
    def from_dict(cls, coeffs: dict, spec, field):
        terms = [(c, m) for m, c in coeffs.items() if c != field.zero]
        terms.sort(key=lambda t: orders.order_vector(spec, t[1]), reverse=True)
        return cls(terms)

    @classmethod
    def monomial(cls, exps, field):
        return cls([(field.one, tuple(exps))])

    @property
    def leading_monomial(self):
        return self.terms[0][1]

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*x^{list(m)}" for c, m in self.terms)


def combine(parts, spec, field):
    """Sum of (scalar, Polynomial) pairs."""
    acc = {}
    for scalar, poly in parts:
        for c, m in poly.terms:
            acc[m] = field.canonical(acc.get(m, 0) + scalar * c)
    return Polynomial.from_dict(acc, spec, field)
