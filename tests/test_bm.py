"""The basis computation itself: known answers, oracle agreement, invariants."""

import random
from fractions import Fraction

import pytest

from conftest import check_result_invariants, random_instance, random_order
import importlib

bm_mod = importlib.import_module("pointideal.bm")
from pointideal import oracles, orders
from pointideal._selftest import GOLDEN_B, GOLDEN_POINTS, golden_G
from pointideal.bm import (
    DuplicatePoints,
    EmptyPointSet,
    PointSet,
    bm,
    normal_form,
    occ_skip,
)
from pointideal.fields import PrimeField, QQ
from pointideal.poly import Polynomial, combine, evaluate_monomial


def test_single_point():
    pts = PointSet(field=QQ, n=2, points=((Fraction(2), Fraction(3)),))
    spec = orders.lex(2)
    res = bm(pts, spec)
    assert res.B == [(0, 0)]
    assert res.G == [
        Polynomial.from_dict({(0, 1): Fraction(1), (0, 0): Fraction(-3)}, spec, QQ),
        Polynomial.from_dict({(1, 0): Fraction(1), (0, 0): Fraction(-2)}, spec, QQ),
    ]


def test_two_points_on_a_line():
    pts = PointSet(field=QQ, n=1, points=((Fraction(0),), (Fraction(1),)))
    spec = orders.lex(1)
    res = bm(pts, spec)
    assert res.B == [(0,), (1,)]
    assert res.G == [
        Polynomial.from_dict({(2,): Fraction(1), (1,): Fraction(-1)}, spec, QQ)
    ]


@pytest.mark.parametrize("basis", [bm, oracles.abbott_basis], ids=["mmm", "abbott"])
def test_known_five_variable_instance(basis):
    spec = orders.lex(5)
    res = basis(GOLDEN_POINTS, spec)
    assert res.B == GOLDEN_B
    assert res.G == golden_G(spec)
    check_result_invariants(res, GOLDEN_POINTS)


def test_point_set_validation():
    with pytest.raises(EmptyPointSet):
        PointSet(field=QQ, n=2, points=())
    with pytest.raises(DuplicatePoints):
        PointSet(field=QQ, n=1, points=((Fraction(1),), (Fraction(1),)))
    with pytest.raises(Exception):
        PointSet(field=QQ, n=2, points=((Fraction(1),),))
    pts = PointSet(field=QQ, n=1, points=((Fraction(0),),))
    with pytest.raises(orders.OrderError):
        bm(pts, orders.lex(2))


def test_occ_skip_unit():
    assert not occ_skip((1, 1, 0), 2)  # |supp| = Occ: process
    assert occ_skip((1, 1, 0), 1)  # |supp| > Occ: skip
    assert not occ_skip((0, 0, 0), 1)


def test_occ_skip_agrees_with_divisibility(monkeypatch):
    """Every skip decision matches a scan against the final leading terms."""
    rng = random.Random(99)
    for _ in range(30):
        pts = random_instance(rng, n_max=5, m_max=10)
        spec = random_order(rng, pts.n)
        calls = []
        real = occ_skip

        def spy(exps, occ):
            out = real(exps, occ)
            calls.append((exps, out))
            return out

        monkeypatch.setattr(bm_mod, "occ_skip", spy)
        res = bm(pts, spec)
        monkeypatch.setattr(bm_mod, "occ_skip", real)
        ini = [g.leading_monomial for g in res.G]
        for exps, skipped in calls:
            expect = any(
                l != exps and orders.monomial_divides(l, exps) for l in ini
            )
            assert skipped == expect, (pts, exps)


def test_variant_agreement_random():
    rng = random.Random(4)
    for _ in range(25):
        pts = random_instance(rng, n_max=5, m_max=10)
        spec = random_order(rng, pts.n)
        r1 = bm(pts, spec)
        r2 = oracles.abbott_basis(pts, spec)
        assert r1.B == r2.B and r1.G == r2.G
        check_result_invariants(r1, pts)


def _bm_against_oracle(fld, n, m, order, seed):
    """bm (integer rows) and abbott_basis (list rows) on seeded points."""
    pts = oracles.random_point_set(random.Random(seed), fld, n, m)
    spec = orders.parse_order(order, n)
    res = bm(pts, spec)
    ref = oracles.abbott_basis(pts, spec)
    assert res.B == ref.B and res.G == ref.G
    check_result_invariants(res, pts)
    return res


def test_real_size_gf32003_against_oracle():
    res = _bm_against_oracle(PrimeField(32003), 8, 200, "degrevlex", 1)
    assert len(res.B) == 200 and len(res.G) == 330


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
def test_61_bit_prime_against_oracle(order):
    # the packed rows' slots are 16 bytes wide here, twice a machine word
    res = _bm_against_oracle(PrimeField(2**61 - 1), 5, 60, order, 2)
    assert len(res.B) == 60


def test_membership_by_evaluation_known():
    # x*y - 2 vanishes on (1, 2) and (2, 1); x*y - 1 does not
    half = (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))
    pts = PointSet(field=QQ, n=2, points=half)
    xy_2 = Polynomial([(QQ.one, (1, 1)), (Fraction(-2), (0, 0))])
    xy_1 = Polynomial([(QQ.one, (1, 1)), (Fraction(-1), (0, 0))])
    assert oracles.membership_by_evaluation([xy_2], pts)
    assert not oracles.membership_by_evaluation([xy_2, xy_1], pts)
    # over GF(7), x^3 - x = x(x - 1)(x + 1) vanishes on 0, 1 and 6; x^3 does not
    gf7 = PrimeField(7)
    pts = PointSet(field=gf7, n=1, points=((0,), (1,), (6,)))
    assert oracles.membership_by_evaluation([Polynomial([(1, (3,)), (6, (1,))])], pts)
    assert not oracles.membership_by_evaluation([Polynomial([(1, (3,))])], pts)


@pytest.mark.parametrize("n, m, order", [(3, 40, "lex"), (4, 30, "degrevlex")])
def test_real_size_rationals_against_oracle(n, m, order):
    # small-height coordinates; the coefficients of G reach hundreds of bits
    res = _bm_against_oracle(QQ, n, m, order, 1)
    assert len(res.B) == m
    assert max(c.denominator.bit_length() for g in res.G for c, _ in g.terms) > 100


def test_stats_bounds():
    from pointideal.projection import bm_projected, essential_variables

    rng = random.Random(12)
    for _ in range(20):
        pts = random_instance(rng, n_max=6, m_max=12)
        spec = random_order(rng, pts.n)
        res = bm(pts, spec)
        n, m = pts.n, pts.m
        # raw run: one batch of n candidates per basis element found
        assert res.stats.L_max <= n * m + 1
        assert len(res.G) <= n + min(n, m - 1) * m
        assert res.stats.functional_calls <= len(res.G) + m
        # in the projected ring the batch width is at most min(n, m-1)
        piped = bm_projected(pts, spec, mode="on")
        assert piped.stats.L_max <= min(n, m - 1) * m + n


def test_evaluate_matches_naive():
    rng = random.Random(8)
    fld = PrimeField(32003)
    for _ in range(50):
        n = rng.randint(1, 4)
        exps = oracles.random_monomial(rng, n, max_deg=8)
        p = tuple(rng.randrange(fld.p) for _ in range(n))
        expect = 1
        for e, x in zip(exps, p):
            expect = expect * pow(x, e, fld.p) % fld.p
        assert evaluate_monomial(fld, exps, p) == expect


# ---------------------------------------------------------------------------
# normal forms

def _x(spec, exps):
    return Polynomial.monomial(exps, QQ)


def test_normal_form_known():
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    f = _x(spec, (1, 1, 0, 0, 0))  # product of the two largest variables
    nf = normal_form(f, res, GOLDEN_POINTS)
    assert nf == Polynomial.from_dict(
        {
            (0, 0, 0, 0, 3): Fraction(1),
            (0, 0, 0, 0, 2): Fraction(1),
            (0, 0, 0, 0, 1): Fraction(1),
            (0, 0, 0, 0, 0): Fraction(1),
        },
        spec,
        QQ,
    )


def test_normal_form_fixed_points_and_kernel():
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    for b in res.B:
        assert normal_form(_x(spec, b), res, GOLDEN_POINTS) == _x(spec, b)
    for g in res.G:
        assert normal_form(g, res, GOLDEN_POINTS).is_zero()


def test_normal_form_idempotent_and_linear():
    rng = random.Random(17)
    for _ in range(10):
        pts = random_instance(rng, n_max=4, m_max=8)
        fld = pts.field
        spec = random_order(rng, pts.n)
        res = bm(pts, spec)
        def rand_poly():
            d = {
                oracles.random_monomial(rng, pts.n, 4): fld.from_int(
                    rng.randint(-5, 5)
                )
                for _ in range(4)
            }
            return Polynomial.from_dict(d, spec, fld)

        f, g = rand_poly(), rand_poly()
        nf = lambda h: normal_form(h, res, pts)
        assert nf(nf(f)) == nf(f)
        fg = combine([(fld.one, f), (fld.one, g)], spec, fld)
        assert nf(fg) == combine([(fld.one, nf(f)), (fld.one, nf(g))], spec, fld)
        for p in pts.points:
            assert nf(f).evaluate(fld, p) == f.evaluate(fld, p)
