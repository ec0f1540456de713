"""Essential variables, projection, and lifting."""

import inspect
import random
import re
import time
from fractions import Fraction

import pytest

from conftest import dependent_point_set, random_order
from pointideal import fileio, orders, projection
from pointideal._oracles import random_field, random_point_set
from pointideal._selftest import (
    GOLDEN_ESS,
    GOLDEN_POINTS,
    GOLDEN_PROJECTED,
    golden_sub_G,
)
from pointideal.bm import PointSet, bm
from pointideal.certify import verify_result
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
    assert bm_projected(GOLDEN_POINTS, spec).stats.n_essential == 2


def test_single_point_has_no_essential_variables():
    pts = PointSet(field=QQ, n=3, points=((Fraction(2), Fraction(0), Fraction(5)),))
    es = essential_variables(pts, orders.deglex(3))
    assert es.ess == ()
    assert es.relations == {
        1: (Fraction(2), {}),
        2: (Fraction(0), {}),
        3: (Fraction(5), {}),
    }
    res = bm_projected(pts, orders.deglex(3))
    assert res.B == [(0, 0, 0)] and res.stats.n_essential == 0
    verify_result(res, pts)


def test_generic_points_keep_all_variables():
    rng = random.Random(2)
    fld = random_field(rng)
    pts = random_point_set(rng, fld, 3, 9)
    es = essential_variables(pts, orders.lex(3))
    assert len(es.ess) == 3 and es.relations == {}  # generic: nothing to project
    direct = bm(pts, orders.lex(3))
    piped = bm_projected(pts, orders.lex(3))
    assert piped.B == direct.B and piped.G == direct.G
    # the scan's count, not the None of a bare bm()
    assert piped.stats.n_essential == 3 and direct.stats.n_essential is None
    assert {**piped.stats.to_dict(), "n_essential": None, "wall_time": 0} == {
        **direct.stats.to_dict(), "wall_time": 0
    }


def test_lift_with_every_variable_essential_is_the_identity():
    # bm_projected runs bm itself when nothing drops; the lift must still
    # reindex an all-essential sub-run back to the direct result
    rng = random.Random(41)
    for fld in (QQ, PrimeField(32003)):
        pts = random_point_set(rng, fld, 3, 12)
        spec = orders.deglex(3, (2, 3, 1))
        es = essential_variables(pts, spec)
        assert len(es.ess) == 3 and es.relations == {}
        sub = bm(project(pts, es), orders.restrict(spec, es.ess))
        full = lift(sub, es, spec)
        direct = bm(pts, spec)
        assert full.B == direct.B and full.G == direct.G


def test_relation_properties_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 8)
        m = rng.randint(1, n)
        fld = random_field(rng)
        pts = random_point_set(rng, fld, n, m)
        spec = random_order(rng, n)
        es = essential_variables(pts, spec)
        assert len(es.ess) <= min(m - 1, n) if m > 1 else es.ess == ()
        # relations reproduce the coordinate columns exactly
        for k, (const, tail) in es.relations.items():
            for p in pts.points:
                rhs = const
                for j, c in tail.items():
                    rhs = fld.canonical(rhs + c * p[j - 1])
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
        fld = random_field(rng)
        pts = random_point_set(rng, fld, n, m)
        spec = random_order(rng, n)
        direct = bm(pts, spec)
        piped = bm_projected(pts, spec)
        assert piped.B == direct.B and piped.G == direct.G
        es = essential_variables(pts, spec)
        assert piped.stats.n_essential == len(es.ess)
        ess_set = set(es.ess)
        for b in direct.B:
            for i, e in enumerate(b, start=1):
                if e:
                    assert i in ess_set
        verify_result(direct, pts)


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
            (fld.canonical(-const), Polynomial.monomial(one, fld)),
        ]
        for j, c in tail.items():
            x_j = orders.monomial_mul_var(one, j)
            if x_j in B:
                parts.append((fld.canonical(-c), Polynomial.monomial(x_j, fld)))
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
        verify_result(lifted, pts)


def parsed_sub_result(fld):
    """The points, spec, essential set, sub-run and the sub-run read back from its document."""
    pts = dependent_point_set(random.Random(1), fld, 2, 2, 10)
    spec = orders.degrevlex(pts.n)
    es = essential_variables(pts, spec)
    sub_spec = orders.restrict(spec, es.ess)
    sub = bm(project(pts, es), sub_spec)
    return pts, spec, es, sub, fileio.parse_result(fileio.serialize_result(sub), sub_spec)


@pytest.mark.parametrize("fld", [PrimeField(101), QQ], ids=["GFp", "QQ"])
def test_lift_of_a_parsed_sub_result_equals_the_direct_one(fld):
    # a parsed sub-result holds G as terms, not on B; lift indexes it once
    pts, spec, es, sub, parsed = parsed_sub_result(fld)
    assert es.relations and all(g.basis is None for g in parsed.G)
    direct, lifted = lift(sub, es, spec), lift(parsed, es, spec)
    assert lifted == direct
    assert fileio.serialize_result(lifted) == fileio.serialize_result(direct)
    verify_result(lifted, pts)


def test_lift_names_a_tail_monomial_off_b():
    _pts, spec, es, _sub, parsed = parsed_sub_result(PrimeField(101))
    g, h = parsed.G[:2]
    parsed.G[0] = Polynomial([*g.terms[:-1], (g.terms[-1][0], h.leading_monomial)])
    with pytest.raises(ValueError, match=re.escape(f"tail monomial {list(h.leading_monomial)} is not in B")):
        lift(parsed, es, spec)


def test_lift_copies_the_stats():
    spec = orders.lex(5)
    es = essential_variables(GOLDEN_POINTS, spec)
    assert es == essential_variables(GOLDEN_POINTS, spec)
    sub = bm(project(GOLDEN_POINTS, es), orders.restrict(spec, es.ess))
    before = sub.stats.to_dict()
    lifted = lift(sub, es, spec)
    assert sub.stats.to_dict() == before and lifted.stats is not sub.stats
    # bm_projected, not the lift, fills in n_essential and wall_time
    assert lifted.stats.to_dict() == before


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
def test_lift_in_many_variables_is_not_cubic(order):
    # the lift takes an order vector per term and per G element; as a full
    # matrix product each cost O(n^2), and this case took 24 s per order
    # (Python 3.11, shared 2-core VM) against 0.2 s as a sum of columns
    n = 600
    pts = PointSet(field=PrimeField(101), n=n, points=((0,) * n, (1,) * n))
    start = time.perf_counter()
    res = bm_projected(pts, getattr(orders, order)(n))
    assert time.perf_counter() - start < 10
    x = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    assert res.B == [(0,) * n, x[-1]]
    # x_n^2 - x_n and x_k - x_n for k < n, over GF(101)
    expect = {((1, x[-1][:-1] + (2,)), (100, x[-1]))}
    expect |= {((1, x[k]), (100, x[-1])) for k in range(n - 1)}
    assert {g.terms for g in res.G} == expect and len(res.G) == n


def test_projected_wall_time_covers_lift(monkeypatch):
    real_lift = projection.lift

    def slow_lift(*args):
        time.sleep(0.05)
        return real_lift(*args)

    monkeypatch.setattr(projection, "lift", slow_lift)
    res = bm_projected(GOLDEN_POINTS, orders.lex(5))
    assert res.stats.wall_time >= 0.05


def test_projection_mode_validation():
    # projection is not an option: the scan always runs
    assert list(inspect.signature(bm_projected).parameters) == ["points", "spec"]
    for mode in ("auto", "on", "off"):
        with pytest.raises(TypeError):
            bm_projected(GOLDEN_POINTS, orders.lex(5), mode=mode)


def test_order_arity_checked_before_scan():
    f = Fraction
    pts = PointSet(field=QQ, n=2, points=((f(0), f(1)), (f(1), f(0))))
    with pytest.raises(orders.OrderError):
        bm_projected(pts, orders.lex(3))
    with pytest.raises(orders.OrderError):
        essential_variables(pts, orders.lex(3))


@pytest.mark.parametrize(
    "fld, n_free, n_dep, m",
    [(PrimeField(32003), 3, 5, 100), (QQ, 3, 2, 30)],
    ids=["GFp-3+5-m100", "QQ-3+2-m30"],
)
def test_projection_at_benchmark_size(fld, n_free, n_dep, m):
    # the first is gfp-dependent's largest shape
    pts = dependent_point_set(random.Random(m), fld, n_free, n_dep, m)
    res = bm_projected(pts, orders.degrevlex(pts.n))
    assert res.stats.n_essential == n_free
    verify_result(res, pts)


def test_projection_equals_direct_at_m300():
    # 4 free + 8 affine coordinates
    pts = dependent_point_set(random.Random(300), PrimeField(32003), 4, 8, 300)
    spec = orders.degrevlex(12)
    res = bm_projected(pts, spec)
    direct = bm(pts, spec)
    assert res.stats.n_essential == 4
    assert res.B == direct.B and res.G == direct.G
    verify_result(res, pts)
