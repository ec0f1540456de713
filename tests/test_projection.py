"""Essential variables, projection, and lifting."""

import random
import time
from fractions import Fraction

import pytest

from conftest import check_result_invariants, dependent_point_set, random_order
from pointideal import oracles, orders, projection
from pointideal._selftest import (
    GOLDEN_ESS,
    GOLDEN_POINTS,
    GOLDEN_PROJECTED,
    golden_sub_G,
)
from pointideal.bm import PointSet, bm
from pointideal.fields import PrimeField, QQ
from pointideal.poly import Polynomial, combine
from pointideal.projection import (
    bm_projected,
    essential_variables,
    lift,
    project,
)


def test_known_essential_set():
    spec = orders.lex(5)
    es = essential_variables(GOLDEN_POINTS, spec)
    assert es.ess == GOLDEN_ESS
    # dropped variables: x4 = 1, x2 = x5 + 1, x1 = x3 + 1
    assert es.relations[4] == (Fraction(1), {})
    assert es.relations[2] == (Fraction(1), {5: Fraction(1)})
    assert es.relations[1] == (Fraction(1), {3: Fraction(1)})


def test_known_projection_and_sub_run():
    spec = orders.lex(5)
    es = essential_variables(GOLDEN_POINTS, spec)
    sub_pts = project(GOLDEN_POINTS, es)
    assert sub_pts.points == GOLDEN_PROJECTED
    sub_spec = orders.restrict(spec, es.ess)
    assert sub_spec.kind == "lex" and sub_spec.n == 2
    sub = bm(sub_pts, sub_spec)
    assert sub.B == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert sub.G == golden_sub_G(sub_spec)
    full = lift(sub, es, spec)
    direct = bm(GOLDEN_POINTS, spec)
    assert full.B == direct.B and full.G == direct.G
    assert full.stats.n_essential == 2


def test_single_point_has_no_essential_variables():
    pts = PointSet(field=QQ, n=3, points=((Fraction(2), Fraction(0), Fraction(5)),))
    es = essential_variables(pts, orders.deglex(3))
    assert es.ess == ()
    assert es.relations == {
        1: (Fraction(2), {}),
        2: (Fraction(0), {}),
        3: (Fraction(5), {}),
    }
    res = bm_projected(pts, orders.deglex(3), mode="on")
    assert res.B == [(0, 0, 0)]
    check_result_invariants(res, pts)


def test_generic_points_keep_all_variables():
    rng = random.Random(2)
    fld = oracles.random_field(rng)
    pts = oracles.random_point_set(rng, fld, 3, 9)
    es = essential_variables(pts, orders.lex(3))
    if len(es.ess) == 3:  # generic case: nothing to project
        assert es.relations == {}
        direct = bm(pts, orders.lex(3))
        assert bm_projected(pts, orders.lex(3), mode="auto").G == direct.G


def test_relation_properties_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 8)
        m = rng.randint(1, n)
        fld = oracles.random_field(rng)
        pts = oracles.random_point_set(rng, fld, n, m)
        spec = random_order(rng, n)
        es = essential_variables(pts, spec)
        assert len(es.ess) <= min(m - 1, n) if m > 1 else es.ess == ()
        # relations reproduce the coordinate columns exactly
        for k, (const, tail) in es.relations.items():
            for p in pts.points:
                rhs = const
                for j, c in tail.items():
                    rhs = fld.add(rhs, fld.mul(c, p[j - 1]))
                assert p[k - 1] == rhs
            # every variable in a tail is strictly smaller than x_k
            vo = list(orders.varord(spec))
            for j in tail:
                assert vo.index(j) > vo.index(k)
        # projected points stay distinct
        sub = project(pts, es)
        assert len(set(sub.points)) == pts.m


def test_pipeline_equals_direct_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 7)
        m = rng.choice([rng.randint(1, max(1, n - 1)), n, n + rng.randint(1, 4)])
        fld = oracles.random_field(rng)
        pts = oracles.random_point_set(rng, fld, n, m)
        spec = random_order(rng, n)
        direct = bm(pts, spec)
        for mode in ("auto", "on", "off"):
            piped = bm_projected(pts, spec, mode=mode)
            assert piped.B == direct.B and piped.G == direct.G
        es = essential_variables(pts, spec)
        ess_set = set(es.ess)
        for b in direct.B:
            for i, e in enumerate(b, start=1):
                if e:
                    assert i in ess_set
        check_result_invariants(direct, pts)


def reference_lift(sub, es, spec):
    """The lift embedding every term of G on its own."""
    fld, n = sub.field, spec.n
    B = [projection._embed(b, es, n) for b in sub.B]
    G = [
        Polynomial([(c, projection._embed(m, es, n)) for c, m in g.terms])
        for g in sub.G
    ]
    one = (0,) * n
    by_lead = {g.leading_monomial: g for g in G}
    for k in sorted(es.relations):
        const, tail = es.relations[k]
        parts = [
            (fld.one, Polynomial.monomial(orders.monomial_mul_var(one, k), fld)),
            (fld.neg(const), Polynomial.monomial(one, fld)),
        ]
        for j, c in tail.items():
            x_j = orders.monomial_mul_var(one, j)
            if x_j in B:
                parts.append((fld.neg(c), Polynomial.monomial(x_j, fld)))
            else:
                parts.append((c, Polynomial(by_lead[x_j].terms[1:])))
        G.append(combine(parts, spec, fld))
    G.sort(key=lambda g: orders.order_vector(spec, g.leading_monomial))
    return B, G


def test_lift_matches_per_term_embedding():
    rng = random.Random(17)
    for k in range(24):
        fld = PrimeField(32003) if k % 2 else QQ
        n_free = rng.randint(1, 3)
        n_dep = rng.randint(1, 4)
        m = rng.randint(1, 15 if k % 2 else 8)
        pts = dependent_point_set(rng, fld, n_free, n_dep, m)
        spec = random_order(rng, pts.n)
        es = essential_variables(pts, spec)
        assert es.relations
        sub = bm(project(pts, es), orders.restrict(spec, es.ess))
        lifted = lift(sub, es, spec)
        B, G = reference_lift(sub, es, spec)
        # Polynomial equality is equality of the (coeff, monomial) term tuples
        assert lifted.B == B and lifted.G == G
        # every tail monomial is B's own tuple, not an equal copy
        at = {b: b for b in lifted.B}
        for g in lifted.G:
            assert all(mo is at[mo] for _c, mo in g.terms[1:])
        check_result_invariants(lifted, pts)


def test_projected_wall_time_covers_lift(monkeypatch):
    real_lift = projection.lift

    def slow_lift(*args):
        time.sleep(0.05)
        return real_lift(*args)

    monkeypatch.setattr(projection, "lift", slow_lift)
    res = bm_projected(GOLDEN_POINTS, orders.lex(5), mode="on")
    assert res.stats.wall_time >= 0.05


def test_projection_mode_validation():
    with pytest.raises(ValueError):
        bm_projected(GOLDEN_POINTS, orders.lex(5), mode="sometimes")


def test_order_arity_checked_before_scan():
    f = Fraction
    pts = PointSet(field=QQ, n=2, points=((f(0), f(1)), (f(1), f(0))))
    for mode in ("auto", "on", "off"):
        with pytest.raises(orders.OrderError):
            bm_projected(pts, orders.lex(3), mode=mode)
    with pytest.raises(orders.OrderError):
        essential_variables(pts, orders.lex(3))
