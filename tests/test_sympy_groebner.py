"""G against an independent Gröbner-basis implementation: sympy's.

A reduced Gröbner basis is unique, so sympy's reduced basis of the ideal
G generates must be G itself.  This shares no code with the library.
"""

import random

import pytest

from pointideal import oracles, orders
from pointideal.bm import bm
from pointideal.fields import PrimeField, QQ

sympy = pytest.importorskip("sympy")

SYMPY_ORDER = {"lex": "lex", "degrevlex": "grevlex"}


def to_sympy(g, xs, fld):
    """g as a sympy Poly over the same field, in the same variables."""
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod([x**e for x, e in zip(xs, m)])
        for c, m in g.terms
    )
    if fld.kind == "prime":
        return sympy.Poly(expr, *xs, modulus=fld.p)
    return sympy.Poly(expr, *xs, domain=sympy.QQ)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("fld", [QQ, PrimeField(32003)], ids=["QQ", "GFp"])
def test_g_is_sympys_reduced_basis(fld, order, seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 3), rng.randint(1, 8)
    points = oracles.random_point_set(rng, fld, n, m)
    G = bm(points, getattr(orders, order)(n)).G
    xs = sympy.symbols(f"x1:{n + 1}")
    ours = [to_sympy(g, xs, fld) for g in G]
    opts = {"modulus": fld.p} if fld.kind == "prime" else {"domain": sympy.QQ}
    theirs = sympy.groebner([g.as_expr() for g in ours], *xs, order=SYMPY_ORDER[order], **opts)
    assert len(theirs.polys) == len(ours)
    assert set(theirs.polys) == set(ours)
    # and the ideal is one of polynomials vanishing on the points
    for pt in points.points:
        at = {x: sympy.Rational(c.numerator, c.denominator) for x, c in zip(xs, pt)}
        assert all(g.eval(at) == 0 for g in ours)
