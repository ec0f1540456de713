"""Polynomials as ordered term lists over an exact field."""

from __future__ import annotations

from . import orders
from ._record import FrozenRecord


class Polynomial(FrozenRecord):
    """Terms (coeff, exponent tuple): no zero coefficient, and monomials
    strictly descending in the active order.  The constructor trusts its
    caller to keep this, and ``parse_result`` does not check it.  ``bm``
    and ``lift`` make G elements ``on_basis``: the leading term ``lead``
    and the tail as ascending indices ``at`` into the result's B,
    ``basis``, with coefficients ``coeffs``.  The writer and the verifier
    read these; ``terms`` is built from them on first access.
    """

    _fields = ("terms",)
    __slots__ = ("_terms", "lead", "at", "coeffs", "basis")

    def __init__(self, terms):
        self._terms, self.basis = tuple(terms), None

    @classmethod
    def on_basis(cls, lead, at, coeffs, B):
        g = cls.__new__(cls)
        g._terms, g.lead, g.at, g.coeffs, g.basis = None, lead, at, coeffs, B
        return g

    @classmethod
    def from_dict(cls, coeffs: dict, spec, field):
        terms = [(c, m) for m, c in coeffs.items() if c != field.zero]
        terms.sort(key=lambda t: orders.order_vector(spec, t[1]), reverse=True)
        return cls(terms)

    @classmethod
    def monomial(cls, exps, field):
        return cls([(field.one, tuple(exps))])

    @property
    def terms(self):
        if self._terms is None:  # each tail monomial B's own tuple
            tail = map(self.basis.__getitem__, reversed(self.at))
            self._terms = (self.lead, *zip(reversed(self.coeffs), tail))
        return self._terms

    @property
    def leading_monomial(self):
        return self.lead[1] if self.basis is not None else self.terms[0][1]

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
