"""The result certificate: it accepts reduced bases and rejects each mutation."""

import random
import re
from fractions import Fraction

import pytest

from conftest import counted_steps
from pointideal import fileio, linalg, orders
from pointideal._oracles import random_point_set
from pointideal.bm import GroebnerResult, PointSet, bm
from pointideal.certify import VerificationError, verify_result
from pointideal.fields import PrimeField, QQ
from pointideal.poly import Polynomial

GF = PrimeField(32003)


def run(fld):
    """A degrevlex run on 15 points with z = 0: G holds z, B the 15 monomials in x, y."""
    plane = random_point_set(random.Random(1), fld, 2, 15)
    pts = PointSet(field=fld, n=3, points=[(*p, 0) for p in plane.points])
    return bm(pts, orders.degrevlex(3)), pts


def with_parts(res, G=None, B=None, spec=None, field=None):
    return GroebnerResult(
        G=res.G if G is None else G,
        B=res.B if B is None else B,
        stats=res.stats,
        spec=spec or res.spec,
        field=field or res.field,
    )


def with_g(res, k, terms):
    return with_parts(res, G=res.G[:k] + [Polynomial(terms)] + res.G[k + 1 :])


def longest(res):
    """The index of a G element with the longest tail."""
    return max(range(len(res.G)), key=lambda k: len(res.G[k].terms))


def other_value(fld, c):
    """A nonzero element of fld other than c."""
    return c % (fld.p - 1) + 1 if fld.kind == "prime" else c + 1


def change_tail_coefficient(res, pts):
    k = longest(res)
    (c, e), *rest = res.G[k].terms[1:]
    return with_g(res, k, [res.G[k].terms[0], (other_value(res.field, c), e), *rest]), pts


def non_monic_lead(res, pts):
    k = longest(res)
    (_c, lead), *tail = res.G[k].terms
    return with_g(res, k, [(res.field.canonical(2), lead), *tail]), pts


def tail_off_b(res, pts):
    k = longest(res)
    terms = list(res.G[k].terms)
    terms[-1] = (terms[-1][0], res.G[-1].leading_monomial)
    return with_g(res, k, terms), pts


def tail_above_lead(res, pts):
    # x^2 lies on B and, under degrevlex, above z
    k = [g.leading_monomial for g in res.G].index((0, 0, 1))
    return with_g(res, k, [*res.G[k].terms, (res.field.one, (2, 0, 0))]), pts


def zero_g(res, pts):
    # parse_result refuses "G": [[]]; a zero polynomial built by hand
    # reaches the check
    return with_g(res, longest(res), []), pts


def swap_b(res, pts):
    B = list(res.B)
    B[1], B[2] = B[2], B[1]
    return with_parts(res, B=B), pts


def drop_one(res, pts):
    # still m monomials, ascending: 1 leaves and a monomial above all of B comes in
    top = (max(sum(b) for b in res.B) + 1,) + (0,) * (res.spec.n - 1)
    return with_parts(res, B=res.B[1:] + [top]), pts


def move_point(res, pts):
    p = pts.points[3]
    moved = (p[0] + 1,) + p[1:]
    assert moved not in pts.points
    points = pts.points[:3] + (moved,) + pts.points[4:]
    return res, PointSet(field=pts.field, n=pts.n, points=points)


def other_field(res, pts):
    return with_parts(res, field=PrimeField(101)), pts


def other_arity(res, pts):
    return with_parts(res, spec=orders.degrevlex(4)), pts


MUTATIONS = {
    "change one tail coefficient": (change_tail_coefficient, r"G\[\d+\] does not vanish at point \d+"),
    "non-monic lead": (non_monic_lead, r"G\[\d+\] is not monic"),
    "tail monomial off B": (tail_off_b, r"the tail of G\[\d+\] leaves B"),
    "tail term above its lead": (tail_above_lead, r"the terms of G\[\d+\] do not strictly descend"),
    "zero G element": (zero_g, r"the leading monomials of G are not the \d+ corners of B"),
    "swap two B entries": (swap_b, r"B is not strictly ascending"),
    "remove 1 from B": (drop_one, r"B does not contain 1"),
    "move one point": (move_point, r"G\[\d+\] does not vanish at point 3"),
    "field mismatch": (other_field, r"result is over GF\(101\) in 3 variables, the points over"),
    "arity mismatch": (other_arity, r"result is over .* in 4 variables, the points over .* in 3"),
}


@pytest.fixture(scope="module", params=[GF, QQ], ids=["GFp", "QQ"])
def result(request):
    res, pts = run(request.param)
    verify_result(res, pts)
    return res, pts


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_verify_rejects_mutation(result, name):
    mutate, message = MUTATIONS[name]
    res, pts = mutate(*result)
    with pytest.raises(VerificationError, match=message):
        verify_result(res, pts)


def test_verify_rejects_a_dropped_g_element(result):
    # what is left of G still vanishes on the points, is monic with its tails
    # on B and pairwise indivisible; only the missing corner gives it away
    res, pts = result
    for k in range(len(res.G)):
        dropped = with_parts(res, G=res.G[:k] + res.G[k + 1 :])
        with pytest.raises(VerificationError, match="not the .* corners of B"):
            verify_result(dropped, pts)


def test_verify_rejects_coefficients_outside_the_field():
    # a residue written unreduced, or a zero term, would still vanish
    res, pts = run(GF)
    k = longest(res)
    lead, (c, e), *rest = res.G[k].terms
    for bad in (c + GF.p, 0, Fraction(c), float(c)):
        with pytest.raises(VerificationError, match=re.escape(f"a coefficient of G[{k}] is not")):
            verify_result(with_g(res, k, [lead, (bad, e), *rest]), pts)


def test_verify_accepts_a_parsed_document():
    for fld in (GF, QQ):
        res, pts = run(fld)
        verify_result(fileio.parse_result(fileio.serialize_result(res), res.spec), pts)


def test_verify_rejects_a_document_parsed_under_another_order():
    # a degrevlex result read as if it were lex; parse_result refuses such a
    # document, so the result is built directly
    res, pts = run(GF)
    with pytest.raises(VerificationError, match="B is not strictly ascending"):
        verify_result(with_parts(res, spec=orders.lex(3)), pts)


def test_verify_steps_once_per_monomial_but_1(result, monkeypatch):
    # each monomial of B but 1 and each corner is one step from a parent in B
    res, pts = result
    steps = counted_steps(monkeypatch)
    verify_result(res, pts)
    assert len(steps) == (pts.m - 1) + len(res.G)


def test_verify_runs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate eliminated")

    runs = []
    for fld in (GF, QQ):
        pts = random_point_set(random.Random(2), fld, 4, 30)
        runs.append((bm(pts, orders.lex(4)), pts))
    for store in (linalg.PackedRows, linalg.IntRows):
        monkeypatch.setattr(store, "reduce", refuse)
        monkeypatch.setattr(store, "insert", refuse)
    for res, pts in runs:
        verify_result(res, pts)
