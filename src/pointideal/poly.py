"""Polynomials as ordered term lists over an exact field."""

from __future__ import annotations

from . import orders
from ._record import FrozenRecord


class Polynomial(FrozenRecord):
    """Terms (coeff, exponent tuple): no zero coefficient, and monomials
    strictly descending in the active order.  The constructor trusts its
    caller to keep this.  Every G element ``bm``, ``lift`` and
    ``parse_result`` make is held ``on_basis``: the leading term ``lead``
    and the tail as ascending indices ``at`` into the result's B,
    ``basis``, with coefficients ``coeffs``.  The writer and the verifier
    read these through ``held_on``; ``terms`` is built on first access.
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

    def held_on(self, B, index):
        """This element ``on_basis`` over ``B``, whose positions ``index``
        maps; a tail monomial off B, or no lead, is a ValueError."""
        if self.basis is B:
            return self
        if not self.terms:
            raise ValueError("the polynomial is zero")
        lead, *tail = self.terms
        if off := [e for _c, e in tail if e not in index]:
            raise ValueError(f"the tail monomial {list(off[0])} is not in B")
        tail.reverse()
        return Polynomial.on_basis(lead, [index[e] for _c, e in tail], [c for c, _e in tail], B)

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
    def leading_monomial(self):  # None for the zero polynomial
        return self.lead[1] if self.basis is not None else next((m for _c, m in self.terms), None)

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
