"""Metamorphic relations: transformed points, predictable results.

Permuting the points changes neither B nor G, so the result document is
byte for byte the same.  Relabelling the coordinates by a permutation
sigma, and the order's variable permutation with them, permutes every
exponent tuple of B and G by sigma and keeps every coefficient.  Scaling
coordinate i by a nonzero lambda_i maps the zero set of g(x) to that of
lambda^a * g(x / lambda), where x^a leads g: B is unchanged, and in the
element led by x^a the coefficient of x^b is multiplied by
lambda^(a - b), which is monic again.  Translating the points by c keeps B
and maps each g to g(x - c): it has the same leading monomial, and its tail
lies on the divisors of that monomial, which B holds.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import dependent_point_set
from pointideal import fileio, orders
from pointideal._oracles import random_point_set
from pointideal.bm import PointSet, bm
from pointideal.fields import QQ, PrimeField
from pointideal.poly import Polynomial
from pointideal.projection import bm_projected

GF = PrimeField(32003)

# name: (field, n, m, order, projected); the projected case has 5 of its 8
# coordinates affine in the other 3
CASES = {
    "gf-n8-m200-degrevlex": (GF, 8, 200, orders.degrevlex, False),
    "gf-n12-m100-lex": (GF, 12, 100, orders.lex, False),
    "qq-n3-m36-lex": (QQ, 3, 36, orders.lex, False),
    "qq-n4-m40-degrevlex": (QQ, 4, 40, orders.degrevlex, False),
    "gf-dependent-n8-m100-degrevlex": (GF, 8, 100, orders.degrevlex, True),
}


def solve(points, spec, projected):
    return (bm_projected if projected else bm)(points, spec)


@lru_cache(maxsize=None)
def case(name):
    """(points, spec, projected, result on the points as drawn)."""
    fld, n, m, order, projected = CASES[name]
    rng = random.Random(name)
    if projected:
        points = dependent_point_set(rng, fld, 3, n - 3, m)
    else:
        points = random_point_set(rng, fld, n, m)
    spec = order(n)
    res = solve(points, spec, projected)
    # the scan drops the 5 affine coordinates
    assert res.stats.n_essential == (3 if projected else None)
    return points, spec, projected, res


def power(fld, lam, e):
    """lam**e in fld, for any integer e."""
    return lam**e if fld == QQ else pow(lam, e, fld.p)


def scale(fld, lams, a, b):
    """The product of lams[i]**(a[i] - b[i]) over the variables i."""
    out = fld.one
    for lam, ai, bi in zip(lams, a, b):
        out = fld.canonical(out * power(fld, lam, ai - bi))
    return out


def nonzero(rng, fld):
    if fld == QQ:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return rng.randrange(1, fld.p)


@pytest.mark.parametrize("name", CASES)
def test_permuting_the_points_keeps_the_document(name):
    points, spec, projected, res = case(name)
    shuffled = list(points.points)
    random.Random(1).shuffle(shuffled)
    moved = PointSet(field=points.field, n=points.n, points=tuple(shuffled))
    assert moved.points != points.points
    assert fileio.serialize_result(solve(moved, spec, projected)) == fileio.serialize_result(res)


@pytest.mark.parametrize("name", CASES)
def test_relabelling_the_coordinates_permutes_the_exponents(name):
    points, spec, projected, res = case(name)
    n = points.n
    sigma = list(range(n))  # coordinate i moves to position sigma[i]
    random.Random(3).shuffle(sigma)
    assert sigma != sorted(sigma)

    def relabel(v):
        out = [None] * n
        for i, x in enumerate(v):
            out[sigma[i]] = x
        return tuple(out)

    moved = PointSet(field=points.field, n=n, points=tuple(map(relabel, points.points)))
    # x_i > x_j under spec exactly when y_sigma(i) > y_sigma(j) under the new order
    order = CASES[name][3]
    got = solve(moved, order(n, tuple(sigma[i - 1] + 1 for i in spec.perm)), projected)
    assert got.stats.n_essential == res.stats.n_essential
    assert got.B == [relabel(b) for b in res.B]
    assert got.G == [Polynomial([(c, relabel(m)) for c, m in g.terms]) for g in res.G]


@pytest.mark.parametrize("name", CASES)
def test_scaling_a_coordinate_scales_the_coefficients(name):
    points, spec, projected, res = case(name)
    fld = points.field
    rng = random.Random(2)
    lams = [nonzero(rng, fld) for _ in range(points.n)]
    scaled = PointSet(
        field=fld,
        n=points.n,
        points=tuple(
            tuple(fld.canonical(lam * xi) for lam, xi in zip(lams, x)) for x in points.points
        ),
    )
    got = solve(scaled, spec, projected)
    assert got.B == res.B
    want = []
    for g in res.G:
        lead = g.terms[0][1]
        want.append(
            Polynomial([(fld.canonical(c * scale(fld, lams, lead, b)), b) for c, b in g.terms])
        )
    assert got.G == want


def shifted(fld, g, c, spec):
    """g(x - c), by a Taylor shift in one variable at a time."""
    terms = {e: a for a, e in g.terms}
    for i, ci in enumerate(c):
        levels = {}  # exponent of x_i -> the monomials with it
        for e in terms:
            levels.setdefault(e[i], []).append(e)
        top = max(levels)
        for j in range(top):
            # a pass of Horner's scheme in x_i: a_k -= c_i*a_(k+1), k = top-1 down to j
            for k in range(top, j, -1):
                for e in levels.get(k, ()):
                    low = e[:i] + (k - 1,) + e[i + 1 :]
                    if low not in terms:
                        terms[low] = fld.zero
                        levels.setdefault(k - 1, []).append(low)
                    terms[low] = fld.canonical(terms[low] - ci * terms[e])
    return Polynomial.from_dict(terms, spec, fld)


@pytest.mark.parametrize("name", CASES)
def test_translating_the_points_shifts_the_basis(name):
    points, spec, projected, res = case(name)
    fld = points.field
    rng = random.Random(4)
    c = [nonzero(rng, fld) for _ in range(points.n)]
    moved = PointSet(
        field=fld,
        n=points.n,
        points=tuple(tuple(fld.canonical(xi + ci) for xi, ci in zip(x, c)) for x in points.points),
    )
    got = solve(moved, spec, projected)
    assert got.stats.n_essential == res.stats.n_essential
    assert got.B == res.B
    assert got.G == [shifted(fld, g, c, spec) for g in res.G]
